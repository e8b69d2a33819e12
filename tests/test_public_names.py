"""The package ships no public function or class that only tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sparsefeas"


def _reads(tree):
    """Every identifier a syntax tree reads, as a bare name or as an
    attribute; imports and string mentions are not reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller():
    # each top-level public def and class of src/sparsefeas is read
    # somewhere other than its own definition: by another definition of
    # the package (the re-exports in __init__ do not count), by the
    # acceptance tests or by the benchmark.  Names match by identifier.
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    used = set().union(*(_reads(ast.parse(path.read_text())) for path in outside))
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            reads = _reads(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.stem
                reads.discard(node.name)
            used |= reads
    uncalled = sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)
    assert uncalled == []
