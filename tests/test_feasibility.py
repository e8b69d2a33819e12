"""Tests for the feasibility deciders and topology reports."""

import collections
import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from sparsefeas import feasibility, intlattice
from sparsefeas.cli import run
from sparsefeas.discriminant import CircuitDiscriminant, degenerate_point
from sparsefeas.errors import PreconditionError, ScaleLimitError
from sparsefeas.feasibility import (
    ALL_NONCOMPACT,
    COMPACT_SPHERE,
    EMPTY,
    DominantPair,
    FeasibilityReport,
    NONEMPTY_UNCLASSIFIED,
    POINT_MULT_1,
    SINGULAR_POINT,
    _circuit_class,
    classify_positive,
    feas_circuit,
    feas_real_full,
    feas_simplex,
    topology_report,
)
from sparsefeas.geometry import analyze_support, facet_complements, find_circuit
from sparsefeas.oracle import grid_scan, multiple_root_count, sturm_count
from sparsefeas.sparsepoly import evaluate, make_polynomial, parse, support, to_text
from test_geometry import (
    _facet_normal_reference,
    _facet_scan_reference,
    _initial_form,
    _integer_kernel,
    _random_support,
    _rank,
)


def test_simplex_mixed_signs_nonempty():
    r = feas_simplex(parse("x1 + x2 - 1"))
    assert r.positive_orthant == "nonempty"
    assert r.nonzero_reals == "nonempty"
    assert r.all_reals == "nonempty"
    assert r.classification == ALL_NONCOMPACT
    # certificate is a sign-change pair of rational points
    p, q = r.certificate
    f = parse("x1 + x2 - 1")
    assert evaluate(f, p) * evaluate(f, q) < 0


def test_simplex_all_positive_even_empty():
    r = feas_simplex(parse("1 + x1^2 + x2^2"))
    assert r.positive_orthant == "empty"
    assert r.nonzero_reals == "empty"
    assert r.all_reals == "empty"
    assert r.classification == EMPTY


def test_simplex_odd_coordinate_orthant_flip():
    # 1 + x^3: no positive root, but a negative one
    r = feas_simplex(parse("1 + x1^3"))
    assert r.positive_orthant == "empty"
    assert r.nonzero_reals == "nonempty"
    assert r.all_reals == "nonempty"


def test_simplex_origin_root():
    # x1^2 + x2^2 vanishes only at the origin
    r = feas_simplex(parse("x1^2 + x2^2"))
    assert r.positive_orthant == "empty"
    assert r.nonzero_reals == "empty"
    assert r.all_reals == "nonempty"
    assert r.certificate == (0, 0)


def test_laurent_simplex_real_roots_match_grid_scan():
    # one coefficient sign and even exponent differences: a real root
    # needs zero coordinates, so the grid [-1, 1]^n at resolution 1 holds
    # the candidate point (free coordinates 0, the rest 1), and such an f
    # changes sign nowhere on it
    rng = random.Random(31)
    seen = collections.Counter()
    for k in range(600):
        n = 1 + k % 3
        parity = [rng.randint(0, 1) for _ in range(n)]
        pts = {tuple(b + 2 * rng.randint(-1, 1) for b in parity) for _ in range(rng.randint(1, n + 1))}
        if analyze_support(pts).rank != len(pts):
            continue
        sign = rng.choice((1, -1))
        f = make_polynomial(n, [(p, sign * rng.randint(1, 5)) for p in pts])
        rep = feas_simplex(f)
        scan = grid_scan(f, [(-1, 1)] * n, 1)
        assert scan is None or "zero" in scan, str(f)
        real = "empty" if scan is None else "nonempty"
        assert (rep.nonzero_reals, rep.all_reals) == ("empty", real), str(f)
        if scan is not None:
            assert evaluate(f, rep.certificate) == 0, str(f)
        seen[f.is_laurent, real] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen
    rep = feas_simplex(parse("3*x1^2*x2^-1"))
    assert (rep.all_reals, rep.certificate) == ("nonempty", (0, 1))
    assert feas_simplex(parse("x1^-2 + 1")) == FeasibilityReport("empty", "empty", "empty", EMPTY)
    rep = feas_simplex(parse("x1^-2*x2^2 + x2^4"))
    assert (rep.all_reals, rep.certificate) == ("nonempty", (1, 0))


def test_simplex_univariate_point():
    r = feas_simplex(parse("x1 - 2"))
    assert r.classification == POINT_MULT_1
    assert r.positive_orthant == "nonempty"


def test_circuit_singular_point():
    r = feas_circuit(parse("x1^2 - 2*x1 + 1"))
    assert r.classification == SINGULAR_POINT
    assert r.positive_orthant == "nonempty"
    assert r.certificate is not None


def test_circuit_point_mult_1():
    # one sign alternation in the sorted coefficient sequence
    f = parse("x1^3 + x1 - 3")
    r = feas_circuit(f)
    assert r.classification == POINT_MULT_1
    assert sturm_count(f) == 1
    assert multiple_root_count(f) == 0


def test_circuit_compact_sphere():
    r = feas_circuit(parse("1 + x1^4 + x2^4 - 3*x1*x2"))
    assert r.classification == COMPACT_SPHERE
    assert r.positive_orthant == "nonempty"


def test_circuit_empty():
    f = parse("1 + x1 + x1^3")
    r = feas_circuit(f)
    assert r.classification == EMPTY
    assert sturm_count(f, 0, None) == 0


def test_circuit_all_noncompact():
    r = feas_circuit(parse("x1*x2 - x1 - x2 + 1"))
    assert r.classification == ALL_NONCOMPACT


def test_circuit_univariate_matches_sturm():
    rng = random.Random(77)
    tags_nonempty = {POINT_MULT_1, SINGULAR_POINT, COMPACT_SPHERE,
                     ALL_NONCOMPACT, "NONEMPTY_UNCLASSIFIED"}
    for _ in range(200):
        exps = sorted(rng.sample(range(0, 30), 3))
        coeffs = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(3)]
        try:
            f = make_polynomial(1, [((e,), c) for e, c in zip(exps, coeffs)])
        except Exception:
            continue
        r = feas_circuit(f)
        count = sturm_count(f, 0, None)
        assert (count > 0) == (r.classification in tags_nonempty)


def test_circuit_degenerate_pyramid():
    # (x1 - 1)^2 + x2 only touches zero on the x1-axis; x1^2 - 3*x1 + 1
    # changes sign there, so the pyramid over it has positive roots
    assert feas_circuit(parse("1 - 2*x1 + x1^2 + x2")).classification == EMPTY
    cls = feas_circuit(parse("1 - 3*x1 + x1^2 + x2")).classification
    assert cls == NONEMPTY_UNCLASSIFIED


def _circuit_or_pyramid(rng, n):
    """n + 2 distinct points in [0, 6]^n spanning R^n, one in three (n > 1)
    a pyramid whose d + 2 base points span only d < n coordinates, and
    their affine relation from the Smith form, not from analyze_support."""
    def point(d):
        return tuple(rng.randint(0, 6) for _ in range(d)) + (0,) * (n - d)

    while True:
        d = rng.randint(1, n - 1) if n > 1 and rng.random() < 1 / 3 else n
        pts = [point(d) for _ in range(d + 2)] + [point(n) for _ in range(n - d)]
        M = [[1] * len(pts)] + [[p[k] for p in pts] for k in range(n)]
        if len(set(pts)) == len(pts) and _rank(M) == n + 1:
            return pts, _integer_kernel(M)[0]


def _circuit_rule_reference(m, coeffs):
    """The Z_+ class of a full-dimensional circuit or pyramid with relation
    m: a facet A minus {p, q} (m_p > 0 > m_q) with mixed signs is
    non-compact; a caged circuit compares the expanded integers
    |c_i|^|m_i| prod |m_j|^|m_j| and |m_i|^|m_i| prod |c_j|^|m_j|; a mixed
    trinomial has one simple root; a pyramid is nonempty exactly when its
    base is a compact sphere."""
    pos = [j for j, v in enumerate(m) if v > 0]
    neg = [j for j, v in enumerate(m) if v < 0]
    for p, q in itertools.product(pos, neg):
        face = [c for j, c in enumerate(coeffs) if j not in (p, q)]
        if min(face) < 0 < max(face):
            return ALL_NONCOMPACT
    cls = EMPTY
    lone = [side[0] for side in (pos, neg) if len(side) == 1]
    ends = [j for j in pos + neg if lone and j != lone[0]]
    if lone and all(coeffs[j] * coeffs[lone[0]] < 0 for j in ends):
        i = lone[0]
        left, right = abs(coeffs[i]) ** abs(m[i]), abs(m[i]) ** abs(m[i])
        for j in ends:
            left *= abs(m[j]) ** abs(m[j])
            right *= abs(coeffs[j]) ** abs(m[j])
        cls = EMPTY if left < right else SINGULAR_POINT if left == right else COMPACT_SPHERE
    elif len(m) == 3 and min(coeffs) < 0 < max(coeffs):
        cls = POINT_MULT_1
    if 0 in m:
        return NONEMPTY_UNCLASSIFIED if cls == COMPACT_SPHERE else EMPTY
    return cls


def test_circuit_rule_matches_expanded_circuit_number():
    # every sign pattern on seeded circuits and pyramids, n = 1..4, plus
    # planted ties: ends s |m_j| and interior -s |m_i| put |c_i| on the
    # circuit number, and apexes of sign s leave every facet one-signed
    rng = random.Random(2828)
    seen = collections.Counter()
    while sum(seen.values()) < 2400:
        n = rng.randint(1, 4)
        pts, m = _circuit_or_pyramid(rng, n)
        kind = "pyramid" if 0 in m else "circuit"
        cases = [
            (kind, [s * rng.randint(1, 30) for s in signs])
            for signs in itertools.product((1, -1), repeat=n + 2)
        ]
        lone = [j for j, v in enumerate(m) if v and sum(w * v > 0 for w in m) == 1]
        for s in (1, -1) * 4 if lone else ():  # caged draws beyond the patterns
            cage = [s * rng.randint(1, 30) for _ in m]
            cage[lone[0]] = -cage[lone[0]]
            cases.append((kind, cage))
        for s in (1, -1) if lone and max(map(abs, m)) <= 30 else ():
            tie = [s * (abs(v) if v else rng.randint(1, 30)) for v in m]
            tie[lone[0]] = -tie[lone[0]]
            cases.append((kind + " tie", tie))
        for label, coeffs in cases:
            f = make_polynomial(n, list(zip(pts, coeffs)))
            want = _circuit_rule_reference(m, coeffs)
            assert classify_positive(f)[0] == want, (str(f), m)
            seen[label, want] += 1
    assert {cls for (label, cls) in seen if label.startswith("circuit")} == {
        EMPTY, POINT_MULT_1, SINGULAR_POINT, COMPACT_SPHERE, ALL_NONCOMPACT
    }
    assert {cls for (label, cls) in seen if label.startswith("pyramid")} == {
        EMPTY, NONEMPTY_UNCLASSIFIED, ALL_NONCOMPACT
    }
    assert seen["circuit tie", SINGULAR_POINT] and seen["pyramid tie", EMPTY]


def _mixed_facets(f):
    """The reference scan's facet normals, in its sorted order, whose
    initial form is a simplex of n terms with mixed coefficient signs."""
    mixed = []
    for w in _facet_scan_reference(support(f), f.n):
        face = [t.coefficient for t in _initial_form(f, w).terms]
        if len(face) == f.n and min(face) < 0 < max(face):
            mixed.append(w)
    return mixed


def test_circuit_facet_certificate_matches_subset_scan():
    rng = random.Random(707)
    fired = 0
    for k in range(1000):
        n = 2 + k % 4
        pts = _random_support(rng, n, "pyramid" if k % 3 == 0 else "circuit")
        coeffs = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in pts]
        f = make_polynomial(n, list(zip(pts, coeffs)))
        rep = feas_circuit(f)
        mixed = _mixed_facets(f)
        if not mixed:
            assert rep.classification != ALL_NONCOMPACT, str(f)
            continue
        fired += 1
        assert rep.classification == ALL_NONCOMPACT, str(f)
        assert repr(rep.certificate) == repr({"facet_normal": list(mixed[0])}), str(f)
        face = _initial_form(f, rep.certificate["facet_normal"]).terms
        assert len(face) == n and {t.coefficient > 0 for t in face} == {True, False}
    assert fired > 200 and 1000 - fired > 50  # both outcomes occur


def _count_calls(monkeypatch, real):
    """Record the arguments of every call of ``real`` through any
    sparsefeas module that refers to it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("sparsefeas") and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, counted)
    return calls


def _count_echelon_calls(monkeypatch):
    return _count_calls(monkeypatch, intlattice.echelon_rows)


def _public_degenerate_point(f):
    """degenerate_point on the CircuitDiscriminant that find_circuit gives."""
    pts = list(support(f).points)
    circuit, idx = find_circuit(pts)
    coeffs = {t.exponents: t.coefficient for t in f.terms}
    return degenerate_point(CircuitDiscriminant(circuit, tuple(coeffs[pts[i]] for i in idx)))


def test_circuit_lattice_call_budget(monkeypatch):
    # one echelon elimination of the (1 | a_j) rows; every mixed facet
    # normal is a read of its solution columns
    f = parse("1 + x1 + x2 + x3 + x4 - 2*x1*x2*x3*x4")
    mixed = _mixed_facets(f)
    assert len(mixed) == 4
    calls = _count_echelon_calls(monkeypatch)
    rep = feas_circuit(parse("1 + x1^4 + x2^4 - 3*x1*x2"))
    assert rep.classification == COMPACT_SPHERE
    assert len(calls) == 1
    calls.clear()
    rep = feas_circuit(f)
    assert rep.certificate == {"facet_normal": list(mixed[0])}
    assert len(calls) == 1


@pytest.mark.parametrize("call, text", [
    (classify_positive, "x1 + 2*x2^3 - x1^2*x3 + 3*x3"),  # full simplex, mixed
    (classify_positive, "1 + x1 + x2^2"),  # full simplex, odd-coordinate flip
    (classify_positive, "1 + x1^4 + x2^4 - 3*x1*x2"),  # full circuit
    (classify_positive, "1 + x1 + x2 + x3 + x4 - 2*x1*x2*x3*x4"),  # 4 mixed facets
    (feas_real_full, "1 + x1 + x2^2"),  # full-dimensional simplex support
    (feas_real_full, "x1^2 + x2^2 + 1"),
    (topology_report, "1 + x1^4 + x2^4 - 3*x1*x2"),  # circuit
    (classify_positive, "x1^2*x2^2 - 3*x1*x2 + 1"),  # circuit of dimension 1 in R^2
    (classify_positive, "2 + 2*x2^2*x3^4 - x2^3*x3^4 - x2^4*x3^6"),  # dimension 2 in R^3
    (classify_positive, "1 - 3*x1 + x1^2 + x2"),  # pyramid over a circuit
    (classify_positive, "1 + x1^3 + x2^3 - 3*x1*x2"),  # singular point
    (_public_degenerate_point, "1 + x1^3 + x2^3 - 3*x1*x2"),  # the circuit's own analysis
])
def test_one_hermite_factorization_per_support(monkeypatch, call, text):
    # one echelon elimination per support, which replaced the Hermite one
    f = parse(text)
    calls = _count_echelon_calls(monkeypatch)
    call(f)
    assert len(calls) == 1


def test_degenerate_point_has_small_exact_coordinates():
    # the singular point (1, 2, 2, 2) is rational, but a Hermite solve of
    # this support carries a multiple of the relation with entries near
    # 10^6 against a pivot product of 279 (the echelon solution: 2,710
    # against 279): powers taken directly, or by a second factorization,
    # run to millions of bits
    f = parse(
        "x1^6*x2^19*x3^13*x4^3 + 8192*x1^10*x2^8*x3^4*x4^10"
        " + 131072*x1^13*x2^6*x3^7*x4^5 - 458752*x1^13*x2^8*x3^4*x4^7"
        " + 33554432*x1^14*x2^5*x3*x4^4 + 1572864*x1^16*x2^6*x3*x4^9"
    )
    start = time.monotonic()
    rep = feas_circuit(f)
    assert time.monotonic() - start < 1
    assert rep.classification == SINGULAR_POINT
    assert rep.certificate.coordinates == (1, 2, 2, 2)
    assert _singular_point_vanishes(f, rep.certificate)


def test_solution_columns_are_built_only_when_read(monkeypatch):
    # the backward pass runs only for a certificate read off the solution
    # columns: not to find a circuit, nor for a one-sign circuit with
    # even exponents, whose every root set is empty
    solves = _count_calls(monkeypatch, intlattice.echelon_solution)
    assert find_circuit([(0, 0), (4, 0), (0, 4), (1, 1)])[1] == [0, 1, 2, 3]
    rep = feas_real_full(parse("1 + 3*x1^2 + 2*x2^4 + x1^2*x2^2"))
    assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == ("empty",) * 3
    assert solves == []
    feas_circuit(parse("1 + x1 + x2 + x3 + x4 - 2*x1*x2*x3*x4"))
    assert len(solves) == 1


def test_singular_point_decides_vanishing_once(monkeypatch):
    # adisc_sign has found the discriminant zero; the singular point is
    # then solved without checking it again
    from sparsefeas import discriminant

    checks = _count_calls(monkeypatch, discriminant.adisc_vanish)
    rep = feas_circuit(parse("1 + x1^3 + x2^3 - 3*x1*x2"))
    assert (rep.classification, rep.certificate.coordinates) == (SINGULAR_POINT, (1, 1))
    assert checks == []


def test_real_dispatch_one_factorization_over_closed_subsets(monkeypatch):
    # the circuit lies on the x1 axis and its sign class is mixed, so the
    # circuit rule decides all terms, a pyramid over it, and cl(C), the
    # circuit alone
    f = parse("1 - x1^2 + x1^4 + " + " + ".join(f"x{i}^2" for i in range(2, 11)))
    calls = _count_echelon_calls(monkeypatch)
    rep = feas_real_full(f)
    assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == ("empty",) * 3
    assert len(calls) == 1


def _dominant_point_reference(f, j):
    """The dominant point by its own integer kernel: a vector (w, s) with
    w . (a_i - a_j) = s for all i != j, s > 0."""
    ej = f.terms[j].exponents
    rows = [
        [e - e0 for e, e0 in zip(t.exponents, ej)] + [-1]
        for i, t in enumerate(f.terms)
        if i != j
    ]
    *w, s = next(v for v in _integer_kernel(rows) if v[-1] != 0)
    if s < 0:
        w = [-wk for wk in w]
    t = Fraction(1, 1 + sum(abs(term.coefficient) for term in f.terms))
    return tuple(t ** wk for wk in w)


def _kernel_pair_reference(f):
    jp = next(i for i, t in enumerate(f.terms) if t.coefficient > 0)
    jn = next(i for i, t in enumerate(f.terms) if t.coefficient < 0)
    return _dominant_point_reference(f, jp), _dominant_point_reference(f, jn)


def _facet_certificate_reference(f):
    """The smallest normal, each by its own kernel, of the facets with n
    terms and mixed signs; None when there is none."""
    C, idx = find_circuit(support(f))
    rel = dict(zip(idx, C.relation))
    coeffs = [t.coefficient for t in f.terms]
    normals = [
        _facet_normal_reference(support(f), out)
        for out in facet_complements([rel.get(j, 0) for j in range(len(coeffs))])
        if min(coeffs[j] for j in range(len(coeffs)) if j not in out) < 0
        and max(coeffs[j] for j in range(len(coeffs)) if j not in out) > 0
    ]
    return {"facet_normal": list(min(normals))} if normals and f.n >= 2 else None


def test_certificates_match_kernel_rules(capsys):
    # full-dimensional supports: sign-change pairs and facet normals from
    # the one elimination equal those of the per-point and per-facet
    # kernels, in the library and in the CLI JSON
    rng = random.Random(808)
    checked = {"pair": 0, "flip": 0, "facet": 0}
    for k in range(1000):
        n = 1 + k % 5
        kind = ("simplex", "circuit", "pyramid")[k % 3] if n > 1 else ("simplex", "circuit")[k % 2]
        pts = _random_support(rng, n, kind)
        f = make_polynomial(n, [(p, rng.randint(1, 9) * rng.choice((1, -1))) for p in pts])
        cls, cert = classify_positive(f)
        if kind == "simplex":
            rep = feas_simplex(f)
            if rep.positive_orthant == "nonempty":
                expected, key = _kernel_pair_reference(f), "pair"
            elif rep.nonzero_reals == "nonempty":
                # the pair of the polynomial flipped in the one negative
                # coordinate, mapped back
                i = next(i for i, v in enumerate(rep.certificate[0]) if v < 0)
                flipped = make_polynomial(n, [
                    (t.exponents, t.coefficient * (-1) ** (t.exponents[i] % 2)) for t in f.terms
                ])
                flip = lambda x: tuple(-v if c == i else v for c, v in enumerate(x))
                p, q = _kernel_pair_reference(flipped)
                assert tuple(rep.certificate) == (flip(p), flip(q)), str(f)
                checked["flip"] += 1
                continue
            else:
                continue
        else:
            expected, key = _facet_certificate_reference(f), "facet"
            if expected is None:
                continue
        if key == "pair":
            cert = tuple(cert)
        assert repr(cert) == repr(expected), str(f)
        assert run(["feas", "--set", "positive", "--expr", to_text(f)]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        if key == "pair":
            # the JSON pair is symbolic: it expands to the reference points
            witness = tuple(DominantPair(Fraction(witness["t"]), tuple(map(tuple, witness["w"])), witness["flip"]))
        assert witness == expected, str(f)
        checked[key] += 1
    assert min(checked.values()) > 50, checked


def _sign_change_pair_reference(an, coeffs):
    """The sign-change pair with each coordinate its own Fraction power
    t ** w_k, t = 1/(1 + sum |c_i|), w = primitive(D e_0 - S_j)[1:]."""
    X = an.solution
    D = sum(X[0])
    t = Fraction(1, 1 + sum(abs(c) for c in coeffs))
    ends = [next(j for j, c in enumerate(coeffs) if c * e > 0) for e in (1, -1)]
    ws = (intlattice.primitive_vector([D - X[0][j], *(-x[j] for x in X[1:])])[1:] for j in ends)
    return tuple(tuple(t ** wk for wk in w) for w in ws)


def _power_table_simplex(rng, k):
    """A simplex in n = 1..6 variables: full dimensional, or one time in
    three of dimension d < n through a 0/1 matrix; Laurent one time in
    three; coefficients of one sign one time in two.  Exponents reach 20
    for n <= 3 and 3 above, which keeps each |w_k| to a few thousand."""
    n = 1 + k % 6
    kind = k // 6 % 3
    d = rng.randint(1, n - 1) if kind == 1 and n > 1 else n
    hi = 20 if n <= 3 else 3
    lo = -hi if kind == 2 else 0
    while True:
        M = [[rng.randint(0, 1) for _ in range(d)] for _ in range(n)] if d < n else None
        base = [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(d + 1)]
        pts = base if M is None else [tuple(sum(r * b for r, b in zip(row, p)) for row in M) for p in base]
        if len(set(pts)) == d + 1 and analyze_support(pts).rank == d + 1:
            break
    positive = rng.random() < 0.5
    return make_polynomial(n, [
        (p, rng.randint(1, 9) * (1 if positive else rng.choice((1, -1)))) for p in pts
    ])


def test_sign_change_pair_matches_fraction_powers():
    # the integer power table gives the very Fractions of one t ** w_k per
    # coordinate, in both paths of feas_simplex: mixed signs, and one sign
    # with an odd coordinate i negated in both points
    rng = random.Random(1919)
    seen = collections.Counter()
    for k in range(2400):
        f = _power_table_simplex(rng, k)
        an = analyze_support(support(f))
        coeffs = [t.coefficient for t in f.terms]
        rep = feas_simplex(f, an)
        if min(coeffs) < 0 < max(coeffs):
            expected = _sign_change_pair_reference(an, coeffs)
            seen["mixed"] += 1
        else:
            base = f.terms[0].exponents
            odd = [i for t in f.terms for i, (e, b) in enumerate(zip(t.exponents, base)) if (e - b) % 2]
            if not odd:
                continue
            i = odd[0]
            flipped = [c * (-1) ** (t.exponents[i] % 2) for c, t in zip(coeffs, f.terms)]
            pair = _sign_change_pair_reference(an, flipped)
            expected = tuple(tuple(-v if c == i else v for c, v in enumerate(x)) for x in pair)
            seen["flip"] += 1
        # equal normalized Fractions print alike; some pass repr's digit limit
        assert tuple(rep.certificate) == expected, str(f)
        assert {type(v) for x in rep.certificate for v in x} == {Fraction}
        N = 1 + sum(map(abs, coeffs))
        values = [abs(v) for x in expected for v in x]
        seen["negative w"] += any(v.numerator > 1 for v in values)
        seen["w > 100"] += any(v.denominator > N**100 for v in values)
        seen["d < n"] += an.rank <= f.n
        seen["laurent"] += f.is_laurent
    assert sum(seen[key] for key in ("mixed", "flip")) >= 2000, seen
    assert min(seen.values()) > 100, seen


def _check_dominant_pair(f, pair):
    """The sign change of ``pair`` by exponent arithmetic alone: in each
    direction w one term j has w . (a_i - a_j) >= 1 for all i != j, so at
    t^w it outweighs the rest when sum_{i != j} |c_i| t < |c_j|, and the
    two dominant terms, signed as after the flip, differ in sign."""
    c = [t.coefficient for t in f.terms]
    signs = []
    for w in pair.w:
        weights = [sum(wk * ak for wk, ak in zip(w, t.exponents)) for t in f.terms]
        j = weights.index(min(weights))
        assert all(v - weights[j] >= 1 for i, v in enumerate(weights) if i != j), str(f)
        assert sum(abs(v) for i, v in enumerate(c) if i != j) * pair.t < abs(c[j]), str(f)
        odd = pair.flip is not None and f.terms[j].exponents[pair.flip] % 2 == 1
        signs.append((c[j] > 0) != odd)
    assert signs[0] != signs[1], str(f)


@pytest.mark.parametrize("E", [2**64 + 1, 10**30])
def test_huge_exponent_simplex_is_decided_symbolically(capsys, E):
    # each pair coordinate would have about E bits; the symbolic pair is
    # decided and checked within 0.1 s, and prints in under 1 KB
    f = parse(f"1 - 3*x1^{E}*x2 + x2^{E}")
    start = time.perf_counter()
    rep = feas_real_full(f)
    assert time.perf_counter() - start < 0.1
    assert (rep.positive_orthant, rep.classification) == ("nonempty", ALL_NONCOMPACT)
    pair = rep.certificate
    assert classify_positive(f) == (ALL_NONCOMPACT, pair) and pair.flip is None
    _check_dominant_pair(f, pair)
    printed = []
    for argv, key in ((["feas", "--set", "positive"], "witness"), (["topology"], "certificate")):
        assert run([*argv, "--expr", to_text(f)]) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 1024
        printed.append(json.loads(out)[key])
    assert printed[0] == printed[1] == {
        "t": str(pair.t), "w": [list(w) for w in pair.w], "flip": None,
    }


def test_huge_exponent_flip_is_decided_symbolically():
    # one coefficient sign and the odd difference 2^64 + 1 in x2: the pair
    # of the polynomial flipped in x2, within 0.1 s
    E = 2**64 + 1
    f = parse(f"1 + 3*x1^{E}*x2 + x2^{E}")
    start = time.perf_counter()
    rep = feas_real_full(f)
    assert time.perf_counter() - start < 0.1
    assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == ("empty", "nonempty", "nonempty")
    assert rep.certificate.flip == 1
    _check_dominant_pair(f, rep.certificate)


def test_dominant_pair_expansion_is_guarded():
    # a coordinate is bounded by |w_k| times the bit length of N (here 3
    # bits, N = 6): below MAX_BITS the pair expands, above it one line
    # refuses
    below = feas_simplex(parse("1 - 3*x1^262145*x2 + x2^262145")).certificate
    p, q = below
    assert p[1] == Fraction(1, 6**262145) and q == (6, 1)
    above = feas_simplex(parse("1 - 3*x1^349526*x2 + x2^349526")).certificate
    for expand in (tuple, lambda pair: pair[1]):
        with pytest.raises(ScaleLimitError) as err:
            expand(above)
        assert str(err.value) == f"a sign-change point would pass {DominantPair.MAX_BITS} bits"


def _lower_dimensional_simplex(rng):
    """Affinely independent points spanning d < n dimensions: a simplex in
    Z^d mapped into Z^n by a nonnegative integer matrix of rank d."""
    while True:
        n = rng.randint(2, 5)
        d = rng.randint(1, n - 1)
        M = [[rng.randint(0, 2) for _ in range(d)] for _ in range(n)]
        base = {tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d + 1)}
        pts = {tuple(sum(r * b for r, b in zip(row, p)) for row in M) for p in base}
        if len(pts) != d + 1:
            continue
        f = make_polynomial(n, [(p, rng.randint(1, 9) * rng.choice((1, -1))) for p in pts])
        if find_circuit(support(f)) is None and len(f.terms) < n + 1:
            return f


def test_lower_dimensional_simplex_witnesses_change_sign():
    # free columns pick a different particular solution than the kernel
    # rule did, so these witnesses are checked by exact evaluation
    rng = random.Random(909)
    seen = {"positive": 0, "nonzero": 0}
    for _ in range(600):
        f = _lower_dimensional_simplex(rng)
        rep = feas_simplex(f)
        assert (rep.classification, rep.certificate) == classify_positive(f)
        if rep.nonzero_reals != "nonempty":
            continue
        p, q = rep.certificate
        assert evaluate(f, p) * evaluate(f, q) < 0, str(f)
        if rep.positive_orthant == "nonempty":
            assert all(v > 0 for v in p + q), str(f)
            seen["positive"] += 1
        else:
            assert all(v != 0 for v in p + q), str(f)
            seen["nonzero"] += 1
    assert min(seen.values()) > 50, seen


def _singular_point_vanishes(f, point):
    """Whether f and every x_i df/dx_i vanish at a DegeneratePoint.  The
    rational coordinates are evaluated exactly; otherwise each ratio
    x^(a_j - a_0) = prod_k rho_k^((a_j - a_0) . mixing_k / order_k) must
    be a rational power, and the sums are taken over those ratios."""
    if point.coordinates is not None:
        if evaluate(f, point.coordinates) != 0:
            return False
        ratios = [evaluate(make_polynomial(f.n, [(t.exponents, 1)]), point.coordinates)
                  for t in f.terms]
    else:
        weights = [
            [sum(a * row[k] for a, row in zip(t.exponents, point.mixing))
             for k in range(len(point.orders))]
            for t in f.terms
        ]
        ratios = []
        for w in weights:
            ratio = Fraction(1)
            for k, (rho, order) in enumerate(zip(point.rhos, point.orders)):
                e, r = divmod(w[k] - weights[0][k], order)
                if r:
                    return False
                ratio *= rho ** e
            ratios.append(ratio)
    sums = [sum(t.coefficient * r for t, r in zip(f.terms, ratios))]
    sums += [
        sum(t.coefficient * t.exponents[i] * r for t, r in zip(f.terms, ratios))
        for i in range(f.n)
    ]
    return sums == [0] * (f.n + 1)


def _embedded_circuit(rng):
    """A full-dimensional circuit or pyramid g in d variables, one in three
    with coefficients m_j 2^(w . a_j) on the circuit (a singular point at
    2^-w, irrational when the halved exponents are used), and its image f
    under a -> M a for a random integer n x d matrix M of rank d < n."""
    d = rng.randint(1, 4)
    kind = "pyramid" if d > 1 and rng.random() < 0.4 else "circuit"
    pts = _random_support(rng, d, kind)
    coeffs = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in pts]
    if rng.random() < 1 / 3:
        half = rng.random() < 0.5
        if half:
            pts = [tuple(2 * v for v in p) for p in pts]
        C, idx = find_circuit(pts)
        w = [rng.choice((-1, 0, 1)) for _ in range(d)]
        vals = [sum(a * b for a, b in zip(w, pts[j])) for j in idx]
        for j, mj, v in zip(idx, C.relation, vals):
            coeffs[j] = mj * 2 ** ((v - min(vals)) // (2 if half else 1))
    g = make_polynomial(d, list(zip(pts, coeffs)))
    n = rng.randint(d + 1, d + 2)
    while True:
        M = [[rng.randint(-1, 2) for _ in range(d)] for _ in range(n)]
        if _rank(M) == d:
            break
    image = [tuple(sum(r * b for r, b in zip(row, p)) for row in M) for p in pts]
    return g, make_polynomial(n, list(zip(image, coeffs)))


def test_embedded_circuit_is_noncompact_exactly_when_nonempty():
    # Z_+(f) is Z_+(g) times an orthant of dimension n - d: the class is
    # ALL_NONCOMPACT exactly when g's is nonempty, and each certificate,
    # computed in R^n, is checked on f itself
    rng = random.Random(1010)
    seen = collections.Counter()
    for _ in range(600):
        g, f = _embedded_circuit(rng)
        base = classify_positive(g)[0]
        cls, cert = classify_positive(f)
        assert cls == (EMPTY if base == EMPTY else ALL_NONCOMPACT), (str(g), str(f))
        seen[base] += 1
        if isinstance(cert, dict):
            face = [t.coefficient for t in _initial_form(f, cert["facet_normal"]).terms]
            assert len(face) == len(f.terms) - 2 and min(face) < 0 < max(face), str(f)
            seen["facet"] += 1
        elif cert is not None:
            assert _singular_point_vanishes(f, cert), str(f)
            seen["rational" if cert.coordinates is not None else "irrational"] += 1
    assert seen[EMPTY] > 50 and seen["facet"] > 50, seen
    for key in (POINT_MULT_1, SINGULAR_POINT, COMPACT_SPHERE, NONEMPTY_UNCLASSIFIED):
        assert seen[key] > 0, seen
    assert seen["rational"] > 5 and seen["irrational"] > 5, seen


@pytest.mark.parametrize(
    "text", ["x1^2*x2^2 - 2*x1*x2 + 1", "x1^2*x2^2 - 4*x1*x2 + 4"]
)
def test_lower_dimensional_singular_is_noncompact(text):
    # (x1*x2 - c)^2 vanishes on a hyperbola, not at a point
    f = parse(text)
    cls, cert = classify_positive(f)
    assert cls == ALL_NONCOMPACT
    assert len(cert.coordinates) == 2
    assert evaluate(f, cert.coordinates) == 0


def test_lower_dimensional_irrational_point_pulled_back():
    # (x1^2*x2^2 - 2)^2: the singular points have x1*x2 = 2^(1/2), so only
    # rho, orders and the pulled-back mixing describe one
    f = parse("x1^4*x2^4 - 4*x1^2*x2^2 + 4")
    cls, cert = classify_positive(f)
    assert cls == ALL_NONCOMPACT
    assert cert.coordinates is None
    (rho,), (order,) = cert.rhos, cert.orders
    total = 0
    for t in f.terms:
        # x^a = rho^(a . mixing / order), rational on this support
        weight = sum(a * row[0] for a, row in zip(t.exponents, cert.mixing))
        e, r = divmod(weight, order)
        assert r == 0
        total += t.coefficient * rho ** e
    assert total == 0


def test_lower_dimensional_facet_normal_pulled_back():
    # the support spans a plane in Z^3; the reduced instance is settled by
    # a facet, whose normal must select a sign-changing face of f itself
    f = parse("2 + 2*x2^2*x3^4 - x2^3*x3^4 - x2^4*x3^6")
    cls, cert = classify_positive(f)
    assert cls == ALL_NONCOMPACT
    face = _initial_form(f, cert["facet_normal"])
    coeffs = [t.coefficient for t in face.terms]
    assert len(coeffs) == 2 and min(coeffs) < 0 < max(coeffs)


def test_lower_dimensional_sphere_is_noncompact():
    f = parse("x1^2*x2^2 - 3*x1*x2 + 1")
    assert classify_positive(f)[0] == ALL_NONCOMPACT
    rep = topology_report(f)
    assert rep["classification"] == ALL_NONCOMPACT
    assert rep["N_comp"] == 0


def test_real_full_even_powers_positive():
    r = feas_real_full(parse("x1^2 + x2^2 + 1"))
    assert r.nonzero_reals == "empty"
    assert r.all_reals == "empty"


def test_real_full_orthant_symmetry():
    # x^2 - 4 has roots +-2; only via sign patterns is -2 found
    r = feas_real_full(parse("x1^2 - 4"))
    assert r.positive_orthant == "nonempty"
    assert r.nonzero_reals == "nonempty"
    assert r.all_reals == "nonempty"


def test_real_full_axis_root_only():
    # x1 * something: f = x1*x2 vanishes exactly on the axes
    r = feas_real_full(parse("x1*x2 + x1 + x2 + 1"))
    # (x1+1)(x2+1): roots on lines x1=-1 or x2=-1, never positive
    assert r.positive_orthant == "empty"
    assert r.nonzero_reals == "nonempty"
    assert r.all_reals == "nonempty"


@pytest.mark.parametrize("text", ["1 - 2*x1 + x1^2 + x2^2", "1 + x1^6 + x2^6 - 3*x1^2*x2^2 + x3^2"])
def test_real_full_root_only_at_singular_stratum(text):
    # f >= 0 vanishes only where the apex coordinate is 0, at the singular
    # point of the circuit: the closed set of the circuit alone has it
    f = parse(text)
    rep = feas_real_full(f)
    assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == ("empty", "empty", "nonempty")
    assert rep == _strata_reference(f) == _closed_subsets_reference(f)


def test_real_full_grid_agreement():
    rng = random.Random(123)
    box = [(Fraction(-3), Fraction(3)), (Fraction(-3), Fraction(3))]
    for _ in range(40):
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = rng.choice([v for v in range(-5, 6) if v])
        try:
            f = make_polynomial(2, list(terms.items()))
        except Exception:
            continue
        if len(f.terms) > 4:
            continue
        try:
            r = feas_real_full(f)
        except PreconditionError:
            continue
        hit = grid_scan(f, box, Fraction(1, 4))
        if hit is not None:
            assert r.all_reals == "nonempty"


def _strata_reference(f):
    """The 3^n dispatch: restrict f to every sign/zero pattern of the
    coordinates and classify each restriction's positive orthant."""
    cache = {}
    nonzero = real = "empty"
    pos_cls, pos_cert = EMPTY, None
    for pattern in itertools.product((1, -1, 0), repeat=f.n):
        keep = [i for i, e in enumerate(pattern) if e != 0]
        pairs = []
        for t in f.terms:
            if any(t.exponents[i] > 0 for i, e in enumerate(pattern) if e == 0):
                continue
            flips = sum(t.exponents[i] for i, e in enumerate(pattern) if e == -1)
            exps = tuple(t.exponents[i] for i in keep)
            pairs.append((exps, (-1) ** (flips % 2) * t.coefficient))
        if not pairs:
            cls, cert = NONEMPTY_UNCLASSIFIED, None  # f vanishes on the stratum
        elif not keep:
            cls, cert = EMPTY, None  # a nonzero constant at the origin
        else:
            g = make_polynomial(len(keep), pairs)
            if g.terms not in cache:
                cache[g.terms] = classify_positive(g)
            cls, cert = cache[g.terms]
        if all(e == 1 for e in pattern):
            pos_cls, pos_cert = cls, cert
        if cls != EMPTY:
            real = "nonempty"
            if 0 not in pattern:
                nonzero = "nonempty"
    positive = "empty" if pos_cls == EMPTY else "nonempty"
    return FeasibilityReport(positive, nonzero, real, pos_cls, pos_cert)


def _closed_subsets_reference(f):
    """The closed-subset dispatch: every closed term set, one per union of
    term supports, and on each the whole F_2 span of the parity columns
    (up to 2^#terms sets and 2^n sign vectors)."""
    an = analyze_support(t.exponents for t in f.terms)
    if len(f.terms) == an.rank:
        return feas_simplex(f, an)
    rep = feas_circuit(f, an)
    cls, cert = rep.classification, rep.certificate
    if cls != EMPTY:
        return FeasibilityReport("nonempty", "nonempty", "nonempty", cls, cert)
    terms = f.terms
    full = (1 << len(terms)) - 1

    def mask(pred):
        return sum(1 << j for j, t in enumerate(terms) if pred(t))

    neg = mask(lambda t: t.coefficient < 0)
    parity = [mask(lambda t: t.exponents[i] % 2) for i in range(f.n)]
    supp = [sum(1 << i for i, e in enumerate(t.exponents) if e) for t in terms]
    m = an.relation
    circuit = sum(1 << j for j, v in enumerate(m) if v)

    def has_roots(T):
        if not T:
            return True
        flips = {0}
        for col in parity:
            if col & T not in flips:
                flips |= {v ^ (col & T) for v in flips}
        classes = {min(x, x ^ T) for x in ((neg ^ v) & T for v in flips)} - {0}
        if circuit & T != circuit:
            return bool(classes)
        on = [j for j in range(len(terms)) if T >> j & 1]
        return any(
            _circuit_class([m[j] for j in on], [
                (-1) ** (x >> j & 1) * abs(terms[j].coefficient) for j in on
            ])[0] != EMPTY
            for x in classes
        )

    unions = {0}
    for s in supp:
        unions |= {u | s for u in unions}
    closed = (sum(1 << j for j, s in enumerate(supp) if not s & ~u) for u in unions)
    nonzero = has_roots(full)
    real = nonzero or any(has_roots(T) for T in closed if T != full)
    verdict = {True: "nonempty", False: "empty"}
    return FeasibilityReport("empty", verdict[nonzero], verdict[real], cls, cert)


def _random_real_instance(rng, n):
    """At most dim + 2 terms: a simplex or a circuit, often lower-
    dimensional, with even exponents, absent variables or a constant term
    mixed in, and one sign pattern in two all positive."""
    while True:
        if rng.random() < 0.25:
            # points on a line: a lower-dimensional circuit
            step = [rng.randint(0, 2) for _ in range(n)]
            pts = {tuple(k * s for s in step) for k in rng.sample(range(4), 3)}
        else:
            pts = set()
            if rng.random() < 0.5:
                pts.add((0,) * n)
            absent = rng.randrange(n) if n > 1 and rng.random() < 0.3 else None
            scale = 2 if rng.random() < 0.3 else 1
            for _ in range(rng.randint(2, n + 2)):
                p = [scale * rng.randint(0, 3) for _ in range(n)]
                if absent is not None:
                    p[absent] = 0
                pts.add(tuple(p))
        positive = rng.random() < 0.5
        terms = [(p, rng.randint(1, 6) * (1 if positive else rng.choice((1, -1))))
                 for p in pts]
        if len(terms) < 2:
            continue
        f = make_polynomial(n, terms)
        try:
            classify_positive(f)
        except PreconditionError:
            continue  # more than dim + 2 terms
        return f


def _random_real_simplex(rng, k):
    """A simplex support, full-dimensional or (k odd) of lower dimension,
    with its exponents doubled one time in three and all coefficients
    positive one time in two."""
    if k % 2:
        g = _lower_dimensional_simplex(rng)
    else:
        n = 1 + k // 2 % 5
        g = make_polynomial(n, [(p, 1) for p in _random_support(rng, n, "simplex")])
    scale = rng.choice((1, 1, 2))
    positive = rng.random() < 0.5
    return make_polynomial(g.n, [
        (tuple(scale * e for e in t.exponents),
         rng.randint(1, 9) * (1 if positive else rng.choice((1, -1))))
        for t in g.terms
    ])


def test_real_full_is_feas_simplex_on_simplices():
    # a simplex gets feas_simplex's report as it is; the sign and parity
    # rule decides Z* and Z_R as the strata enumeration does
    rng = random.Random(1212)
    seen = collections.Counter()
    for k in range(400):
        f = _random_real_simplex(rng, k)
        rep = feas_real_full(f)
        assert rep == feas_simplex(f), str(f)
        if k < 200:
            assert rep == _strata_reference(f), str(f)
        seen[rep.positive_orthant, rep.nonzero_reals, rep.all_reals] += 1
    assert len(seen) == 4 and min(seen.values()) > 10, seen


def test_real_full_class_calls_per_closed_set(monkeypatch):
    # once every sign generator is constant on every pair facet, the pair
    # facets of a closed set of more than three terms overlap, so each
    # generator is constant off one term or on all of them: at most one
    # sign class up to sign is left, and a three-term circuit has three
    runs = []  # [relation, calls]: one closed set's consecutive calls
    inner = feasibility._circuit_class

    def counted(m, coeffs):
        if sys._getframe(1).f_code.co_name != "feas_circuit":  # the dispatch's calls
            if runs and runs[-1][0] is m:
                runs[-1][1] += 1
            else:
                runs.append([m, 1])
        return inner(m, coeffs)

    monkeypatch.setattr(feasibility, "_circuit_class", counted)
    rng = random.Random(5)
    for k in range(3000):
        feas_real_full(_random_real_instance(rng, 2 + k % 9))
    assert all(calls <= (1 if len(m) > 3 else 3) for m, calls in runs)
    assert any(len(m) > 3 for m, _ in runs) and max(calls for _, calls in runs) == 2


def test_real_full_refuses_laurent_simplex():
    # the Laurent check comes before the simplex answer
    f = parse("x1^-1 - 2")
    assert feas_simplex(f).nonzero_reals == "nonempty"
    with pytest.raises(PreconditionError, match="requires polynomial exponents"):
        feas_real_full(f)


def test_real_full_simplex_builds_nothing(monkeypatch):
    # one-sign simplex, odd in x1: the flipped signs are read on the same
    # support analysis, without a polynomial
    from sparsefeas import sparsepoly

    f = parse("1 + x1 + x2^2")
    made = _count_calls(monkeypatch, sparsepoly.make_polynomial)
    factors = _count_echelon_calls(monkeypatch)
    rep = feas_real_full(f)
    assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == ("empty", "nonempty", "nonempty")
    assert (len(made), len(factors)) == (0, 1)


def test_real_full_matches_strata_enumeration():
    rng = random.Random(606)
    seen = set()
    for k in range(600):
        f = _random_real_instance(rng, 1 + k % 5)
        rep = feas_real_full(f)
        assert rep == _strata_reference(f), str(f)
        assert rep == _closed_subsets_reference(f), str(f)
        seen.add((rep.positive_orthant, rep.nonzero_reals, rep.all_reals))
    assert len(seen) == 4  # every verdict combination occurs


def test_real_full_matches_closed_subsets_beyond_strata():
    # n = 7..10, where the 3^n strata are out of reach; circuits show
    # every verdict combination, nonempty only in R^n among them
    rng = random.Random(710)
    seen = collections.Counter()
    for k in range(400):
        f = _random_real_instance(rng, 7 + k % 4)
        rep = feas_real_full(f)
        assert rep == _closed_subsets_reference(f), str(f)
        if len(f.terms) > analyze_support(t.exponents for t in f.terms).rank:
            seen[rep.positive_orthant, rep.nonzero_reals, rep.all_reals] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


def _expanded(answer):
    """``answer`` with each DominantPair in it replaced by its two points,
    the form every sign-change certificate had before it was symbolic."""
    if isinstance(answer, DominantPair):
        return tuple(answer)
    if isinstance(answer, FeasibilityReport):
        return FeasibilityReport(*map(_expanded, answer._values()))
    if isinstance(answer, tuple):
        return tuple(map(_expanded, answer))
    if isinstance(answer, dict):
        return {k: _expanded(v) for k, v in answer.items()}
    return answer


def test_answers_match_recorded_hashes():
    # the answer-hash recipe (ROADMAP), cut to its first 3,000 instances:
    # sha256 over the concatenated reprs, so any changed verdict, class or
    # certificate shows; the expanded pins are those recorded before the
    # sign-change pairs were symbolic
    rng = random.Random(24)
    full, topo, raw = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    pairs = 0
    for k in range(3000):
        f = _random_real_instance(rng, 1 + k % 6)
        rep = feas_real_full(f)
        answer = (classify_positive(f), topology_report(f))
        full.update(repr(_expanded(rep)).encode())
        topo.update(repr(_expanded(answer)).encode())
        raw.update(repr((rep, answer)).encode())
        pairs += isinstance(rep.certificate, DominantPair)
    assert full.hexdigest()[:16] == "b2b074d61b5b4ad1"
    assert topo.hexdigest()[:16] == "49e1590aad7d7278"
    assert raw.hexdigest()[:16] == "9cb669c0f09c362c"
    assert pairs == 1228


@pytest.mark.parametrize("n", [30, 40])
def test_real_dispatch_probes_polynomial_in_n(n):
    # the closed-set and sign-class enumerations grew as 2^n on these
    probes = [
        ("1 - x1^2 + x1^4 + " + " + ".join(f"x{i}^2" for i in range(2, n + 1)), ("empty",) * 3),
        ("2 + " + " + ".join(f"x{i}^2" for i in range(1, n + 1)) + " + x1*x2", ("empty",) * 3),
        ("1 + " + " + ".join(f"x{i}" for i in range(1, n + 1)) + " + x1*x2",
         ("empty", "nonempty", "nonempty")),
    ]
    for text, expected in probes:
        f = parse(text)
        start = time.monotonic()
        rep = feas_real_full(f)
        elapsed = time.monotonic() - start
        assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == expected, text
        assert elapsed < 1, f"{text}: {elapsed:.2f}s exceeds 1s budget"


def test_topology_report_sphere():
    rep = topology_report(parse("1 + x1^4 + x2^4 - 3*x1*x2"))
    assert rep["classification"] == COMPACT_SPHERE
    assert rep["N_comp"] == 1
    assert rep["bounds"] == {"N_comp": 1, "N_non": 2}
    assert rep["support_meets_hull_interior"] is True


def test_topology_report_pyramid_misses_hull_interior():
    # a full-dimensional pyramid over the segment 1, x1, x1^2: its apex
    # x2 has relation entry 0, so no support point is interior to the hull
    rep = topology_report(parse("1 + x1 + x1^2 + x2"))
    assert rep["support_meets_hull_interior"] is False


def test_topology_report_empty_has_no_certificate():
    # feas_simplex's sign-change pair for this support lies in the orthant
    # x1 < 0, so it certifies nothing about Z_+
    f = parse("1 + x1 + x2^2")
    assert feas_simplex(f).certificate is not None
    rep = topology_report(f)
    assert rep["classification"] == EMPTY
    assert "certificate" not in rep
    assert "certificate" in topology_report(parse("x1 + x2 - 1"))


def test_topology_report_bounds_by_dimension():
    expected = {1: 0, 2: 2, 3: 6, 4: 9, 5: 12, 7: 16}
    for n, bound in expected.items():
        terms = [((0,) * n, -1)]
        for i in range(n):
            e = [0] * n
            e[i] = 2
            terms.append((tuple(e), 1))
        if len(terms) > n + 2:
            terms = terms[: n + 2]
        f = make_polynomial(n, terms)
        rep = topology_report(f)
        assert rep["bounds"]["N_non"] == bound


def test_topology_report_univariate_counts():
    rep = topology_report(parse("x1^2 - 3*x1 + 2"))
    assert rep["positive_roots"] == 2
    assert rep["pair_label"] == "S⁰"


def test_too_many_terms_rejected():
    f = parse("1 + x1 + x1^2 + x1^3 + x1^5")
    with pytest.raises(PreconditionError):
        feas_circuit(f)
    # each decider refuses the other's shape: a circuit, a simplex
    with pytest.raises(PreconditionError, match="not affinely independent"):
        feas_simplex(parse("1 + x1 + x1^2"))
    with pytest.raises(PreconditionError, match="exactly dim"):
        feas_circuit(parse("1 + x1"))
