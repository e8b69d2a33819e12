"""Acceptance gate: ten end-to-end criteria with runtime budgets.

Each test prints a single pass line with its measured runtime; any
failure shows up as a normal pytest assertion failure.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from sparsefeas.discriminant import CircuitDiscriminant, adisc_sign, adisc_vanish, degenerate_point
from sparsefeas.exactsign import binomial_sign, binomial_vanish, gcd_free_basis
from sparsefeas.feasibility import (
    ALL_NONCOMPACT,
    COMPACT_SPHERE,
    EMPTY,
    POINT_MULT_1,
    SINGULAR_POINT,
    feas_circuit,
    feas_real_full,
    feas_simplex,
    topology_report,
)
from sparsefeas.geometry import find_circuit
from sparsefeas.oracle import (
    exact_product_compare,
    grid_scan,
    multiple_root_count,
    sturm_count,
)
from sparsefeas.reductions import Sat3Formula, sat3_to_system
from sparsefeas.sparsepoly import evaluate, make_polynomial, parse, support, to_text


def _report(name, count, elapsed, budget):
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds {budget}s budget"
    print(f"\n{name}: PASS ({count} checks in {elapsed:.2f}s, budget {budget}s)")


def _disc_of(f):
    pts = list(support(f).points)
    circuit, idx = find_circuit(pts)
    coeffs = {t.exponents: t.coefficient for t in f.terms}
    return CircuitDiscriminant(circuit, tuple(coeffs[pts[i]] for i in idx))


def test_criterion_1_quadratic_discriminant():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        a = rng.choice([v for v in range(-50, 51) if v])
        b = rng.choice([v for v in range(-50, 51) if v])
        c = rng.choice([v for v in range(-50, 51) if v])
        f = make_polynomial(1, [((0,), c), ((1,), b), ((2,), a)])
        d = _disc_of(f)
        target = b * b - 4 * a * c
        assert adisc_sign(d) == (target > 0) - (target < 0)
        assert adisc_vanish(d) == (target == 0)
    _report("criterion 1 (quadratic discriminant sign)", 1000, time.monotonic() - start, 5)


def test_criterion_2_trinomial_oracle_equivalence():
    rng = random.Random(202)
    mapping = {
        (0, 0): EMPTY,
        (1, 0): POINT_MULT_1,
        (1, 1): SINGULAR_POINT,
        (2, 0): COMPACT_SPHERE,
    }
    start = time.monotonic()
    for _ in range(1000):
        exps = sorted(rng.sample(range(0, 61), 3))
        coeffs = [rng.choice([v for v in range(-100, 101) if v]) for _ in range(3)]
        f = make_polynomial(1, [((e,), c) for e, c in zip(exps, coeffs)])
        roots = sturm_count(f, 0, None)
        multiples = multiple_root_count(f, 0, None)
        assert feas_circuit(f).classification == mapping[(roots, multiples)]
    _report("criterion 2 (trinomial vs Sturm oracle)", 1000, time.monotonic() - start, 60)


def test_criterion_3_fixed_instances():
    start = time.monotonic()
    r = feas_circuit(parse("x1^2 - 2*x1 + 1"))
    assert r.classification == SINGULAR_POINT
    assert r.certificate.coordinates == (Fraction(1),)

    f = parse("x1*x2 - x1 - x2 + 1")
    rep = topology_report(f)
    assert rep["classification"] == ALL_NONCOMPACT
    assert rep["N_comp"] == 0

    assert feas_circuit(parse("1 + x1^4 + x2^4 - 100*x1*x2")).classification == COMPACT_SPHERE

    g = parse("1 + x1^4 + x2^4 - 3*x1*x2")
    assert feas_circuit(g).classification == COMPACT_SPHERE
    box = [(Fraction(0), Fraction(2)), (Fraction(0), Fraction(2))]
    hit = grid_scan(g, box, Fraction(1, 4))
    assert hit is not None
    if "zero" in hit:
        assert evaluate(g, hit["zero"]) == 0
    else:
        p, q = hit["sign_change"]
        assert evaluate(g, p) * evaluate(g, q) < 0
    _report("criterion 3 (paper fixed instances)", 4, time.monotonic() - start, 60)


def test_criterion_4_simplex_suite():
    rng = random.Random(404)
    start = time.monotonic()
    checked = 0
    while checked < 500:
        n = rng.randint(1, 3)
        pts = {tuple(rng.randint(0, 20) for _ in range(n))}
        while len(pts) < n + 1:
            pts.add(tuple(rng.randint(0, 20) for _ in range(n)))
        terms = [(p, rng.choice([v for v in range(-9, 10) if v])) for p in pts]
        f = make_polynomial(n, terms)
        from sparsefeas.geometry import affine_dim

        if affine_dim(list(support(f).points)) + 1 != len(f.terms):
            continue
        r = feas_simplex(f)
        coeffs = [t.coefficient for t in f.terms]
        uniform = all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs)
        # nonempty verdicts: confirm by evaluating the certificate
        if "nonempty" in (r.positive_orthant, r.nonzero_reals, r.all_reals):
            cert = r.certificate
            assert cert is not None
            if isinstance(cert[0], tuple):
                p, q = cert
                assert evaluate(f, p) * evaluate(f, q) < 0
            else:
                assert evaluate(f, cert) == 0
        # empty verdicts: re-check the sign/parity conditions independently
        if r.positive_orthant == "empty":
            assert uniform
        if r.nonzero_reals == "empty":
            assert uniform
            base = f.terms[0].exponents
            for t in f.terms:
                assert all((e - b) % 2 == 0 for e, b in zip(t.exponents, base))
        if r.all_reals == "empty":
            assert uniform
            # no root at the origin either: some term is a nonzero constant
            # or has only nonpositive exponents
            assert f.is_laurent or any(
                all(e <= 0 for e in t.exponents) for t in f.terms
            )
        checked += 1
    _report("criterion 4 (simplex parity/sign suite)", 500, time.monotonic() - start, 60)


def test_criterion_5_exactsign_bridge():
    rng = random.Random(505)
    start = time.monotonic()
    for _ in range(200):
        k = rng.randint(1, 4)
        alphas = [rng.randint(1, 1000) for _ in range(k)]
        betas = [rng.randint(1, 1000) for _ in range(k)]
        us = [rng.randint(1, 10**4) for _ in range(k)]
        vs = [rng.randint(1, 10**4) for _ in range(k)]
        assert binomial_sign(alphas, betas, us, vs) == exact_product_compare(
            alphas, betas, us, vs
        )
    big = 0
    while big < 20:
        k = rng.randint(1, 3)
        alphas = [rng.randint(2, 1000) for _ in range(k)]
        betas = [rng.randint(2, 1000) for _ in range(k)]
        us = [rng.randint(2**40, 2**63) for _ in range(k)]
        vs = [rng.randint(2**40, 2**63) for _ in range(k)]
        if binomial_vanish(alphas, betas, us, vs):
            continue
        s = binomial_sign(alphas, betas, us, vs)
        assert s in (-1, 1)
        assert binomial_sign(betas, alphas, vs, us) == -s
        big += 1
    _report("criterion 5 (certified log-sign bridge)", 220, time.monotonic() - start, 120)


def test_criterion_6_lattice_suite():
    from sparsefeas.intlattice import (
        determinant,
        hermite_factor,
        mat_mul,
        smith_factor,
    )

    rng = random.Random(606)
    start = time.monotonic()
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-(10**6), 10**6) for _ in range(cols)] for _ in range(rows)]
        h, u = hermite_factor(m)
        assert mat_mul(u, m) == h
        assert abs(determinant(u)) == 1
        last = -1
        for row in h:
            pivots = [j for j, v in enumerate(row) if v != 0]
            if not pivots:
                continue
            assert pivots[0] > last
            last = pivots[0]
            assert row[pivots[0]] > 0
        s, u2, v2 = smith_factor(m)
        assert mat_mul(mat_mul(u2, m), v2) == s
        assert abs(determinant(u2)) == 1
        assert abs(determinant(v2)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if b != 0:
                assert a != 0 and b % a == 0
        if rows == cols:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(determinant(m))
    _report("criterion 6 (Hermite/Smith invariants)", 500, time.monotonic() - start, 30)


def test_criterion_7_gcd_free_basis():
    rng = random.Random(707)
    start = time.monotonic()
    for _ in range(200):
        values = [rng.randint(2, 10**9) for _ in range(rng.randint(1, 6))]
        basis = gcd_free_basis(values)
        gammas = basis.gammas
        for g in gammas:
            assert g >= 2
        for i in range(len(gammas)):
            for j in range(i + 1, len(gammas)):
                assert math.gcd(gammas[i], gammas[j]) == 1
        for v, row in zip(values, basis.exponent_matrix):
            prod = 1
            for g, e in zip(gammas, row):
                prod *= g**e
            assert prod == v
    _report("criterion 7 (gcd-free basis)", 200, time.monotonic() - start, 10)


def test_criterion_8_sat3_reductions():
    rng = random.Random(808)
    start = time.monotonic()

    # the worked clause: canonical text of the OR-polynomial of (-3, 1, 8)
    system = sat3_to_system(Sat3Formula(8, [(-3, 1, 8)]))
    clause = [f for f in system.polynomials if len(f.terms) > 2][0]
    or_poly = make_polynomial(
        8, [(t.exponents, t.coefficient) for t in clause.terms] + [((0,) * 8, 1)]
    )
    assert to_text(or_poly) == to_text(parse("1 - x3 + x1*x3 + x3*x8 - x1*x3*x8"))

    nv = 12
    for _ in range(50):
        clauses = []
        for _ in range(rng.randint(4, 30)):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        phi = Sat3Formula(nv, clauses)
        system = sat3_to_system(phi)
        assert system.n == nv
        # per-polynomial bitmask evaluation tables over {0,1}^12
        tables = []
        for f in system.polynomials:
            tables.append(
                [
                    (
                        sum(1 << i for i, e in enumerate(t.exponents) if e),
                        t.coefficient,
                    )
                    for t in f.terms
                ]
            )
        pos_masks = []
        neg_masks = []
        for c in clauses:
            pos_masks.append(sum(1 << (v - 1) for v in c if v > 0))
            neg_masks.append(sum(1 << (-v - 1) for v in c if v < 0))
        system_has_root = False
        formula_sat = False
        for assign in range(1 << nv):
            sat = all(
                (assign & p) or (~assign & m) for p, m in zip(pos_masks, neg_masks)
            )
            root = all(
                sum(c for mask, c in table if assign & mask == mask) == 0
                for table in tables
            )
            assert root == sat
            system_has_root = system_has_root or root
            formula_sat = formula_sat or sat
        assert system_has_root == formula_sat
    _report("criterion 8 (3-SAT reduction brute force)", 50, time.monotonic() - start, 60)


def test_criterion_9_degenerate_points():
    rng = random.Random(909)
    start = time.monotonic()
    for _ in range(100):
        u = rng.randint(1, 40)
        v = rng.randint(1, 40)
        s = rng.randint(1, 9)
        # s * (v x - u)^2: discriminant b^2 - 4ac vanishes, root u/v > 0
        f = make_polynomial(
            1, [((0,), s * u * u), ((1,), -2 * s * u * v), ((2,), s * v * v)]
        )
        d = _disc_of(f)
        assert adisc_vanish(d)
        z = degenerate_point(d).coordinates[0]
        assert z == Fraction(u, v)
        assert evaluate(f, [z]) == 0
        derivative = make_polynomial(
            1,
            [
                ((t.exponents[0] - 1,), t.coefficient * t.exponents[0])
                for t in f.terms
                if t.exponents[0]
            ],
        )
        assert evaluate(derivative, [z]) == 0
    _report("criterion 9 (degenerate point extraction)", 100, time.monotonic() - start, 10)


def test_criterion_10_real_dispatch_n10():
    # 3^10 sign/zero strata, but both supports are simplices, decided by
    # feas_simplex's sign and parity rule alone
    squares = make_polynomial(10, [((0,) * 10, 1)] + [
        (tuple(2 * (k == i) for k in range(10)), 1) for i in range(10)
    ])
    product = make_polynomial(10, [((0,) * 10, -1), ((1,) * 10, 1)])
    cases = [
        (squares, ("empty", "empty", "empty")),
        (product, ("nonempty", "nonempty", "nonempty")),
    ]
    total = 0.0
    for f, expected in cases:
        start = time.monotonic()
        rep = feas_real_full(f)
        elapsed = time.monotonic() - start
        assert (rep.positive_orthant, rep.nonzero_reals, rep.all_reals) == expected
        assert elapsed < 1, f"{to_text(f)}: {elapsed:.2f}s exceeds 1s budget"
        total += elapsed
    _report("criterion 10 (real dispatch at n = 10)", 2, total, 2)
