"""Tests for the independent brute-force verification tools."""

import ast
import random
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from sparsefeas import oracle
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


# ---------------------------------------------------------------------------
# sturm_count as it was before it relied on right-continuity: a root at an
# endpoint was divided out of the squarefree part, with the division over Q


def _exact_div_reference(a, b):
    a = [Fraction(c) for c in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        shift = len(a) - len(b)
        q = a[-1] / b[-1]
        out[shift] = q
        a = [c - q * (b[i - shift] if 0 <= i - shift < len(b) else 0) for i, c in enumerate(a)]
        while a and a[-1] == 0:
            a.pop()
    denom = 1
    for c in out:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return oracle._primitive([int(c * denom) for c in out])


def _sturm_count_reference(f, lower=None, upper=None):
    oracle._check_bounds(lower, upper)
    p = oracle._primitive(oracle._trim(oracle._dense(f)))
    if len(p) <= 1:
        return 0
    g = oracle._poly_gcd(p, oracle._deriv(p))
    sf = _exact_div_reference(p, g) if len(g) > 1 else p
    extra = 0
    if lower is not None and oracle._eval(sf, Fraction(lower)) == 0:
        sf = _exact_div_reference(sf, [-Fraction(lower).numerator, Fraction(lower).denominator])
    if upper is not None and oracle._eval(sf, Fraction(upper)) == 0:
        extra = 1
        sf = _exact_div_reference(sf, [-Fraction(upper).numerator, Fraction(upper).denominator])
    if len(sf) <= 1:
        return extra
    chain = oracle._sturm_chain(sf)
    lo = (
        oracle._variations_inf(chain, positive=False)
        if lower is None
        else oracle._variations_at(chain, Fraction(lower))
    )
    hi = (
        oracle._variations_inf(chain, positive=True)
        if upper is None
        else oracle._variations_at(chain, Fraction(upper))
    )
    return lo - hi + extra


def _multiple_root_count_reference(f, lower=None, upper=None):
    p = oracle._primitive(oracle._trim(oracle._dense(f)))
    g = oracle._poly_gcd(p, oracle._deriv(p))
    if len(g) <= 1:
        return 0
    gp = make_polynomial(1, [((i,), c) for i, c in enumerate(g) if c])
    return _sturm_count_reference(gp, lower, upper)


def _planted_polynomial(rng):
    """prod (b x - a)^k over 1-3 planted roots a/b, k = 1-3, times a
    random cofactor of degree 0-3; returns (f, roots)."""
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice((-2, -1, 1, 2))]
    roots = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(-6, 6), rng.randint(1, 4)
        roots.append(Fraction(a, b))
        for _ in range(rng.randint(1, 3)):
            new = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += b * c
                new[i] -= a * c
            coeffs = new
    return make_polynomial(1, [((i,), c) for i, c in enumerate(coeffs) if c]), roots


def test_sturm_count_matches_endpoint_division_reference():
    # right-continuity of the variation count replaces dividing out the
    # roots at either endpoint; endpoints are drawn from the planted roots,
    # random rationals and infinity, and sometimes coincide
    rng = random.Random(29)
    at_root = 0
    for _ in range(5000):
        f, roots = _planted_polynomial(rng)

        def endpoint():
            kind = rng.randrange(3)
            if kind == 0:
                return rng.choice(roots)
            if kind == 1:
                return Fraction(rng.randint(-25, 25), rng.randint(1, 6))
            return None

        lower, upper = endpoint(), endpoint()
        if rng.randrange(8) == 0:
            upper = lower
        if lower is not None and upper is not None and lower > upper:
            lower, upper = upper, lower
        at_root += lower in roots or upper in roots
        assert sturm_count(f, lower, upper) == _sturm_count_reference(f, lower, upper), (f, lower, upper)
        assert multiple_root_count(f, lower, upper) == _multiple_root_count_reference(
            f, lower, upper
        ), (f, lower, upper)
    assert at_root > 2000


# ---------------------------------------------------------------------------
# grid_scan on Laurent inputs: poles at 0 are skipped and never straddled


def _grid_scan_reference(f, box, h):
    """grid_scan before the Laurent rule, without its guards."""
    axes = [[lo + i * h for i in range((hi - lo) // h + 1)] for lo, hi in box]
    values = {}
    for idx in product(*(range(len(a)) for a in axes)):
        point = tuple(axes[k][i] for k, i in enumerate(idx))
        v = evaluate(f, point)
        if v == 0:
            return {"zero": point}
        values[idx] = v
        for k in range(f.n):
            if idx[k]:
                prev = idx[:k] + (idx[k] - 1,) + idx[k + 1 :]
                if (v > 0) != (values[prev] > 0):
                    return {"sign_change": (tuple(axes[t][i] for t, i in enumerate(prev)), point)}
    return None


def _random_terms(rng, low):
    terms = {
        (rng.randint(low, 3), rng.randint(low, 3)): rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(1, 4))
    }
    return list(terms.items())


def test_grid_scan_polynomials_unchanged():
    rng = random.Random(2029)
    for _ in range(300):
        f = make_polynomial(2, _random_terms(rng, 0))
        box = [(Fraction(rng.randint(-3, 0)), Fraction(rng.randint(0, 3))) for _ in range(2)]
        h = Fraction(1, rng.randint(1, 3))
        assert grid_scan(f, box, h) == _grid_scan_reference(f, box, h), f


def test_grid_scan_laurent_certificates_avoid_poles():
    rng = random.Random(2930)
    found = 0
    for _ in range(300):
        f = make_polynomial(2, _random_terms(rng, -2))
        poles = [any(t.exponents[k] < 0 for t in f.terms) for k in range(2)]
        # 0 is on some grids and between two points of others
        box = [(Fraction(rng.randint(-9, -1), 3), Fraction(rng.randint(1, 9), 3)) for _ in range(2)]
        hit = grid_scan(f, box, Fraction(rng.randint(1, 3), rng.randint(2, 4)))
        if hit is None:
            continue
        found += 1
        if "zero" in hit:
            assert evaluate(f, hit["zero"]) == 0
            continue
        p, q = hit["sign_change"]
        (k,) = [k for k in range(2) if p[k] != q[k]]
        assert evaluate(f, p) * evaluate(f, q) < 0
        assert not poles[k] or p[k] * q[k] > 0, (f, p, q)
    assert found > 100


@pytest.mark.parametrize("text, box, resolution, certificate", [
    ("x2 - x1^-1", [(-1, 1), (-1, 1)], Fraction(1), {"zero": (-1, -1)}),
    ("x2^-1 - 2", [(0, 0), (-1, 1)], Fraction(2, 3),
     {"sign_change": ((0, Fraction(1, 3)), (0, 1))}),
], ids=["pole-in-x1", "pole-in-x2"])
def test_grid_scan_laurent_poles(text, box, resolution, certificate):
    # the univariate probes run through the CLI in tests/test_cli.py
    assert grid_scan(parse(text), box, resolution) == certificate


@pytest.mark.parametrize("call, error, message", [
    (lambda: sturm_count(parse("x1*x2 - 1")), PreconditionError,
     "sturm_count expects a univariate polynomial"),
    (lambda: sturm_count(parse("x1^-1 - 1")), PreconditionError,
     "sturm_count expects nonnegative exponents"),
    (lambda: multiple_root_count(parse("7")), PreconditionError, "constant polynomial"),
    (lambda: grid_scan(parse("x1 - 1"), [(0, 1), (0, 1)], 1), PreconditionError,
     "box dimension mismatch"),
    (lambda: grid_scan(parse("x1 - 1"), [(0, 1)], 0), PreconditionError,
     "resolution must be positive"),
    (lambda: grid_scan(parse("x1 - 1"), [(1, 0)], 1), PreconditionError, "empty box"),
    (lambda: exact_product_compare([2], [3, 5], [1], [1]), PreconditionError,
     "list length mismatch"),
], ids=["bivariate", "laurent", "constant", "box-dimension", "resolution", "empty-box",
        "lengths"])
def test_oracle_input_guards(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
