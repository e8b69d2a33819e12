"""What ``import sparsefeas`` and each CLI subcommand load.

The decision modules load with the package; the checkers (``oracle``) and
the reduction gadgets (``reductions``) load on first use of one of their
names, and only the CLI subcommands that use them import them.  Nothing
loads ``dataclasses`` or the ``inspect`` it pulls in: the value types are
``errors.FrozenRecord`` subclasses.
"""

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import sparsefeas

SRC = Path(__file__).resolve().parents[1] / "src"

DECISION_MODULES = {
    "errors", "sparsepoly", "intlattice", "geometry", "exactsign", "discriminant", "feasibility",
}
LAZY = {
    "oracle": ("exact_product_compare", "grid_scan", "multiple_root_count", "sturm_count"),
    "reductions": ("PolySystem", "Sat3Formula", "sat3_to_system", "shor_normal_form", "sos_aggregate"),
}
# stdlib modules that cost more at start-up than anything they would do here
HEAVY = {"dataclasses", "inspect"}


def _python(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported(*argv, cwd=None):
    """The modules that ``python -X importtime <argv>`` reports loading."""
    err = _python("-X", "importtime", *argv, cwd=cwd).stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in err.splitlines()
        if line.startswith("import time:") and "[us]" not in line  # not the header
    }


@cache
def _interpreter_modules():
    """What a bare interpreter loads, site hooks included."""
    return frozenset(_imported("-c", "pass"))


def test_import_loads_exactly_the_decision_modules():
    loaded = _imported("-S", "-c", "import sparsefeas")
    ours = {m for m in loaded if m.split(".")[0] == "sparsefeas"}
    assert ours == {"sparsefeas", *(f"sparsefeas.{m}" for m in DECISION_MODULES)}
    assert "json" not in loaded
    assert not HEAVY & loaded


@pytest.mark.parametrize("argv, uses", [
    (["parse", "--expr", "x1 + 1"], set()),
    (["feas", "--set", "positive", "--expr", "x1^2 - 2*x1 + 1"], set()),
    (["oracle", "sturm", "--expr", "x1^2 - 2"], {"oracle"}),
    (["reduce", "sat3", "--dimacs", "phi.cnf"], {"reductions"}),
])
def test_cli_subcommand_loads_only_what_it_uses(argv, uses, tmp_path):
    (tmp_path / "phi.cnf").write_text("p cnf 3 1\n1 -2 3 0\n")
    loaded = _imported("-m", "sparsefeas.cli", *argv, cwd=tmp_path)
    assert {m for m in LAZY if f"sparsefeas.{m}" in loaded} == uses
    assert not HEAVY & (loaded - _interpreter_modules())


def test_lazy_names_import_after_a_bare_import():
    names = [name for group in LAZY.values() for name in group]
    checks = "".join(
        f"assert {name} is sparsefeas.{module}.{name}\n"
        for module, group in LAZY.items()
        for name in group
    )
    code = (
        "import sys\nimport sparsefeas\n"
        "assert not {'sparsefeas.oracle', 'sparsefeas.reductions'} & set(sys.modules)\n"
        f"from sparsefeas import {', '.join(names)}\n{checks}"
    )
    _python("-c", code)


def test_lazy_names_are_listed_and_resolve():
    listed = dir(sparsefeas)
    for module, group in LAZY.items():
        assert module in listed
        assert getattr(sparsefeas, module) is sys.modules[f"sparsefeas.{module}"]
        for name in group:
            assert name in listed
            assert getattr(sparsefeas, name) is getattr(sys.modules[f"sparsefeas.{module}"], name)


def test_submodule_attribute_resolves_through_getattr(monkeypatch):
    # once imported, a submodule is bound on the package, so only an
    # unbound attribute reaches the package __getattr__
    for module in LAZY:
        assert getattr(sparsefeas, module) is sys.modules[f"sparsefeas.{module}"]
        monkeypatch.delattr(sparsefeas, module)
        assert module not in vars(sparsefeas)
        assert getattr(sparsefeas, module) is sys.modules[f"sparsefeas.{module}"]


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'sparsefeas' has no attribute 'no_such_name'"):
        sparsefeas.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from sparsefeas import no_such_name  # noqa: F401
