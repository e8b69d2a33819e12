"""Tests for the independent brute-force verification tools."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sparsefeas.errors import PreconditionError, ScaleLimitError
from sparsefeas.oracle import (
    exact_product_compare,
    grid_scan,
    multiple_root_count,
    sturm_count,
)
from sparsefeas.sparsepoly import evaluate, make_polynomial, parse


def test_sturm_known_counts():
    assert sturm_count(parse("x1^2 - 3*x1 + 2")) == 2  # roots 1, 2
    assert sturm_count(parse("x1^2 - 3*x1 + 2"), 0, None) == 2
    assert sturm_count(parse("x1^3 - 1")) == 1
    assert sturm_count(parse("x1^2 + 1")) == 0
    assert sturm_count(parse("x1^2 - 2")) == 2
    assert sturm_count(parse("x1^2 - 2"), 0, None) == 1
    assert sturm_count(parse("7")) == 0


def test_sturm_interval_endpoints():
    f = parse("x1^2 - 3*x1 + 2")
    # (l, r] convention: root at the upper endpoint counts, at the lower
    # endpoint it does not
    assert sturm_count(f, 1, 2) == 1
    assert sturm_count(f, 0, 1) == 1
    assert sturm_count(f, 1, Fraction(3, 2)) == 0
    assert sturm_count(f, 2, None) == 0


def test_sturm_counts_distinct_roots_once():
    f = parse("x1^2 - 2*x1 + 1")
    assert sturm_count(f) == 1
    assert multiple_root_count(f) == 1


def test_sturm_against_factored_random():
    rng = random.Random(2024)
    for _ in range(100):
        roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
        # expand prod (x - r) exactly
        coeffs = [1]
        for r in roots:
            new = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= r * c
            coeffs = new
        f = make_polynomial(1, [((i,), c) for i, c in enumerate(coeffs) if c])
        assert sturm_count(f) == len(roots)
        assert sturm_count(f, 0, None) == len([r for r in roots if r > 0])
        assert multiple_root_count(f) == 0


def test_multiple_root_count_squares():
    # (x-1)^2 (x-2): one multiple root
    f = parse("x1^3 - 4*x1^2 + 5*x1 - 2")
    assert multiple_root_count(f) == 1
    assert sturm_count(f) == 2


def test_grid_scan_finds_sign_change():
    f = parse("x1*x2 - x1 - x2 + 1")
    box = [(Fraction(0), Fraction(3)), (Fraction(0), Fraction(3))]
    hit = grid_scan(f, box, Fraction(1, 4))
    assert hit is not None
    if "zero" in hit:
        assert evaluate(f, hit["zero"]) == 0
    else:
        p, q = hit["sign_change"]
        assert evaluate(f, p) * evaluate(f, q) < 0


def test_grid_scan_no_root():
    f = parse("x1^2 + x2^2 + 1")
    box = [(Fraction(-2), Fraction(2)), (Fraction(-2), Fraction(2))]
    assert grid_scan(f, box, Fraction(1, 3)) is None


def test_grid_scan_exact_zero():
    f = parse("x1^2 - 1")
    box = [(Fraction(0), Fraction(2))]
    hit = grid_scan(f, box, Fraction(1, 4))
    assert hit is not None


def test_grid_scan_size_guard():
    # 101^8 points from short axes; without the guard the scan would stop
    # at once on the zero at the origin
    f = parse("x1 - x8")
    with pytest.raises(ScaleLimitError):
        grid_scan(f, [(0, 100)] * 8, Fraction(1))
    assert grid_scan(f, [(0, 3)] * 8, Fraction(1)) == {"zero": (0,) * 8}


def test_sturm_degree_guard():
    # a dense list of 10^12 + 1 entries would be built before anything
    # else; the guard fires first, in both oracles that build one
    huge = parse("x1^1000000000000 - 1")
    with pytest.raises(ScaleLimitError):
        sturm_count(huge)
    with pytest.raises(ScaleLimitError):
        multiple_root_count(huge)
    assert sturm_count(parse("x1^1000 - 1")) == 2


def test_sturm_reversed_bounds_are_refused():
    # (lower, upper] with lower > upper is no interval: it used to count
    # lo - hi < 0 roots; an empty interval lower == upper still counts 0
    f = parse("x1^2 - 2")
    for lower, upper in [(3, 1), (2, -2), (Fraction(1, 2), Fraction(1, 3))]:
        with pytest.raises(PreconditionError, match=f"{lower}.*{upper}"):
            sturm_count(f, lower, upper)
    with pytest.raises(PreconditionError, match="3.*-3"):
        multiple_root_count(parse("x1^4 - 4*x1^2 + 4"), 3, -3)
    assert sturm_count(f, 1, 1) == 0
    assert sturm_count(parse("x1^2 - 4"), 2, 2) == 0
    assert multiple_root_count(parse("x1^4 - 4*x1^2 + 4"), -3, 3) == 2


def test_exact_product_compare_matches_expansion():
    rng = random.Random(55)
    for _ in range(100):
        alphas = [rng.randint(1, 50) for _ in range(2)]
        betas = [rng.randint(1, 50) for _ in range(2)]
        us = [rng.randint(1, 20) for _ in range(2)]
        vs = [rng.randint(1, 20) for _ in range(2)]
        left = alphas[0] ** us[0] * alphas[1] ** us[1]
        right = betas[0] ** vs[0] * betas[1] ** vs[1]
        truth = (left > right) - (left < right)
        assert exact_product_compare(alphas, betas, us, vs) == truth


def test_exact_product_compare_guards():
    # the guard bounds each expanded side by sum u_i * bitlength(|alpha_i|)
    # <= 2^19 bits, not the size of a base or an exponent
    assert exact_product_compare([2000], [3], [2], [2]) == 1
    assert exact_product_compare([2], [3], [2**18], [1]) == 1  # 2^19 bits
    with pytest.raises(ScaleLimitError):
        exact_product_compare([2], [3], [2**18 + 1], [1])
    with pytest.raises(ScaleLimitError):
        exact_product_compare([3], [2], [1], [2**18 + 1])
    # a long list of small factors is bounded as well: 53 * 1000 * 10 bits
    with pytest.raises(ScaleLimitError):
        exact_product_compare([1000] * 53, [1] * 53, [1000] * 53, [1] * 53)
    assert exact_product_compare([1000] * 52, [1] * 52, [1000] * 52, [1] * 52) == 1
    with pytest.raises(PreconditionError, match="negative exponent"):
        exact_product_compare([2], [3], [-1], [1])


def test_exact_product_compare_rejects_zero_to_the_zero():
    with pytest.raises(PreconditionError, match="0\\^0"):
        exact_product_compare([0], [1], [0], [1])
    with pytest.raises(PreconditionError, match="0\\^0"):
        exact_product_compare([2, 3], [5, 0], [1, 1], [1, 0])
    # 0^u with u > 0 is an ordinary zero factor
    assert exact_product_compare([0], [1], [1], [1]) == -1
    assert exact_product_compare([0, 2], [0, 3], [2, 1], [1, 0]) == 0


SRC = Path(__file__).resolve().parents[1] / "src" / "sparsefeas"


def _package_imports(name):
    """The sparsefeas modules that sparsefeas/<name>.py imports."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level or (node.module or "").startswith("sparsefeas."):
                found.add(node.module.split(".")[-1])
            elif node.module == "sparsefeas":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("sparsefeas.")
            )
    return found


def test_checker_and_deciders_share_no_code():
    # both expand products now; the checker must stay independent
    assert "oracle" not in _package_imports("exactsign")
    deciders = {"exactsign", "discriminant", "geometry", "feasibility", "intlattice"}
    assert _package_imports("oracle") & deciders == set()
    # the helper does see the imports it is meant to catch
    assert {"errors", "sparsepoly"} <= _package_imports("oracle")
    assert "intlattice" in _package_imports("geometry")
    assert {"exactsign", "geometry"} <= _package_imports("discriminant")
