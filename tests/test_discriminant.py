"""Tests for the circuit discriminant and degenerate-point extraction."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from sparsefeas.discriminant import (
    CircuitDiscriminant,
    adisc_sign,
    adisc_vanish,
    degenerate_point,
)
from sparsefeas.errors import NoRealSolutionError, NotACircuitError, PreconditionError
from sparsefeas.geometry import analyze_support, find_circuit
from sparsefeas.intlattice import smith_factor
from sparsefeas.oracle import multiple_root_count
from sparsefeas.sparsepoly import PointSet, evaluate, make_polynomial, parse, support


def _disc(f):
    pts = list(support(f).points)
    circuit, idx = find_circuit(pts)
    coeffs = {t.exponents: t.coefficient for t in f.terms}
    return CircuitDiscriminant(circuit, tuple(coeffs[pts[i]] for i in idx))


def test_quadratic_sign_is_b2_minus_4ac():
    rng = random.Random(3)
    for _ in range(300):
        a = rng.choice([v for v in range(-9, 10) if v])
        b = rng.choice([v for v in range(-9, 10) if v])
        c = rng.choice([v for v in range(-9, 10) if v])
        f = make_polynomial(1, [((0,), c), ((1,), b), ((2,), a)])
        target = b * b - 4 * a * c
        d = _disc(f)
        assert adisc_vanish(d) == (target == 0)
        assert adisc_sign(d) == (target > 0) - (target < 0)


def test_perfect_square_vanishes():
    d = _disc(parse("x1^2 - 2*x1 + 1"))
    assert adisc_vanish(d)
    assert adisc_sign(d) == 0
    p = degenerate_point(d)
    assert p.coordinates == (Fraction(1),)


def test_degenerate_point_shifted_square():
    # (2x - 1)^2 = 4x^2 - 4x + 1: double root at 1/2
    d = _disc(parse("4*x1^2 - 4*x1 + 1"))
    assert adisc_vanish(d)
    assert degenerate_point(d).coordinates == (Fraction(1, 2),)


def test_degenerate_point_is_double_root():
    # built from (x - u/v)^2 scaled: v^2 x^2 - 2uv x + u^2
    for u, v in [(3, 2), (5, 7), (1, 9)]:
        f = parse(f"{v*v}*x1^2 - {2*u*v}*x1 + {u*u}")
        d = _disc(f)
        assert adisc_vanish(d)
        p = degenerate_point(d)
        assert p.coordinates == (Fraction(u, v),)
        assert evaluate(f, [Fraction(u, v)]) == 0
        assert multiple_root_count(f) == 1


def test_cubic_circuit_singular():
    # 2 - 3x + x^3 = (x - 1)^2 (x + 2)
    f = parse("2 - 3*x1 + x1^3")
    d = _disc(f)
    assert adisc_vanish(d)
    assert degenerate_point(d).coordinates == (Fraction(1),)


def test_bivariate_quartic_circuit():
    f = parse("1 + x1^4 + x2^4 - 3*x1*x2")
    d = _disc(f)
    assert not adisc_vanish(d)
    assert adisc_sign(d) != 0


def test_no_positive_degenerate_point():
    # x^2 + 2x + 1 = (x + 1)^2: discriminant vanishes but the double
    # root -1 is outside the positive orthant
    d = _disc(parse("x1^2 + 2*x1 + 1"))
    assert adisc_vanish(d)
    with pytest.raises(NoRealSolutionError):
        degenerate_point(d)


def test_unit_square_relation_sign_is_normalized():
    # the square has no interior point, so the relation keeps the sign
    # that find_circuit gives it: first entry positive
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    circuit, idx = find_circuit(square)
    assert (circuit.relation, idx) == ((1, -1, -1, 1), [0, 1, 2, 3])
    signs = set()
    for c in [(1, 2, 3, 6), (1, 1, 1, 2), (2, 1, 1, 1), (-1, 2, 3, 4), (3, -1, 2, -5), (-2, -3, 1, 1)]:
        D = CircuitDiscriminant(circuit, c)
        # Delta = c_1 c_2 - c_0 c_3 for m = (1, -1, -1, 1)
        delta = c[1] * c[2] - c[0] * c[3]
        assert (adisc_sign(D), adisc_vanish(D)) == ((delta > 0) - (delta < 0), delta == 0), c
        signs.add(adisc_sign(D))
    assert signs == {-1, 0, 1}


def test_rejects_non_primitive_relation():
    # twice the relation (1, -2, 1) would flip the sign read from the
    # products: 1 + 4 = 5 > 0, but (2, -4, 2) reads it as -1; the relation
    # comes from the analysis of the points, primitive, so no caller can
    # hand in another
    circuit, _ = find_circuit(PointSet(((0,), (1,), (2,))))
    assert circuit.relation == (1, -2, 1)
    assert adisc_sign(CircuitDiscriminant(circuit, (1, 1, -1))) == 1


def test_refuses_support_that_is_not_a_circuit():
    # a simplex has no relation and a pyramid's relation has a zero entry
    # at its apex; four collinear points have two relations, and no
    # minimal one to build the discriminant from
    for pts in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (2, 0), (0, 1)]):
        with pytest.raises(NotACircuitError, match="support is not a circuit"):
            CircuitDiscriminant(analyze_support(pts), (1,) * len(pts))
    with pytest.raises(PreconditionError):
        CircuitDiscriminant(analyze_support([(0,), (1,), (2,), (3,)]), (1, 1, 1, 1))
    # a point and its copy have the relation (1, -1), and are no circuit
    with pytest.raises(NotACircuitError):
        CircuitDiscriminant(analyze_support([(0,), (0,)]), (1, -1))


def test_rejects_zero_coefficient():
    f = parse("x1^2 - 2*x1 + 1")
    pts = list(support(f).points)
    circuit, _ = find_circuit(pts)
    with pytest.raises(PreconditionError):
        CircuitDiscriminant(circuit, (1, 0, 1))


def test_vanish_iff_positive_double_root_random():
    rng = random.Random(41)
    seen_vanish = 0
    for _ in range(300):
        if rng.random() < 0.5:
            u = rng.randint(1, 12)
            v = rng.randint(1, 12)
            s = rng.randint(1, 5)
            f = parse(f"{s*v*v}*x1^2 - {2*s*u*v}*x1 + {s*u*u}")
        else:
            a = rng.choice([x for x in range(-9, 10) if x])
            b = rng.choice([x for x in range(-9, 10) if x])
            c = rng.choice([x for x in range(-9, 10) if x])
            f = make_polynomial(1, [((0,), c), ((1,), b), ((2,), a)])
        coeffs = {t.exponents[0]: t.coefficient for t in f.terms}
        d = _disc(f)
        vanished = adisc_vanish(d)
        assert vanished == (coeffs[1] ** 2 - 4 * coeffs[2] * coeffs[0] == 0)
        # a vanished discriminant with opposite-sign a, b pins a positive
        # double root
        if vanished:
            seen_vanish += 1
            if coeffs[1] * coeffs[2] < 0:
                z = degenerate_point(d).coordinates[0]
                assert z > 0
                assert evaluate(f, [z]) == 0
    assert seen_vanish > 50


def _degenerate_point_reference(D):
    """The degenerate point by its own Smith factorization U E V = S of the
    exponent differences E: with rho = r^U (row-wise), a positive solution
    exists iff every rho_k > 0, and then each y_k = rho_k^(1/s_k) gives
    zeta = y^V."""
    pts = list(D.circuit.points)
    m, c = D.circuit.relation, D.coefficients
    n = len(pts[0])
    E = [[p[k] - pts[0][k] for k in range(n)] for p in pts[1:]]
    r = [Fraction(m[i] * c[0], m[0] * c[i]) for i in range(1, len(pts))]
    S, U, V = smith_factor(E)
    rhos, orders = [], []
    for i in range(min(len(S), n)):
        if not S[i][i]:
            continue
        rho = math.prod((rj ** e for rj, e in zip(r, U[i]) if e), start=Fraction(1))
        if rho <= 0:
            raise NoRealSolutionError("no degenerate point in the positive orthant")
        rhos.append(rho)
        orders.append(S[i][i])
    return rhos, orders, [row[:len(orders)] for row in V]


def _power(rhos, orders, mixing, L):
    """zeta^L for zeta_k = prod_b rhos[b] ** (mixing[k][b] / orders[b])."""
    return tuple(
        math.prod((rho ** (e * L // s) for rho, s, e in zip(rhos, orders, row)), start=Fraction(1))
        for row in mixing
    )


def _vanishing_circuit(rng, bases=(2, 3)):
    """A full-dimensional circuit in n <= 3 variables with exponents <= 6 and
    coefficients m_j b^(u_j) c^(v_j), (b, c) the ``bases``, with u and v
    orthogonal to the relation m, so the discriminant vanishes; the
    singular point is irrational when u, v leave the lattice spanned by the
    (1 | a_j) and b, c are not powers.  One in four has a coefficient of an
    even m_j negated, leaving no positive singular point."""
    while True:
        n = rng.randint(1, 3)
        pts = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(n + 2)]
        if len(set(pts)) < n + 2:
            continue
        an = analyze_support(pts)
        if an.rank == n + 1 and all(an.relation):
            break
    m = an.relation
    logs = []
    for _ in range(2):
        u = [0] * len(pts)
        for _ in range(2):
            p, q = rng.sample(range(len(pts)), 2)
            k = rng.choice((-1, 1))
            u[p] += k * m[q]
            u[q] -= k * m[p]
        logs.append([v - min(u) for v in u])
    c = [mj * bases[0] ** u * bases[1] ** v for mj, u, v in zip(m, *logs)]
    even = [j for j, mj in enumerate(m) if mj % 2 == 0]
    if even and rng.random() < 0.25:
        c[rng.choice(even)] *= -1
    return CircuitDiscriminant(find_circuit(pts)[0], tuple(c))


def test_degenerate_point_matches_smith_reference():
    # the positive singular point of a full-dimensional circuit is unique,
    # so both descriptions agree on zeta^L, L the lcm of all their orders
    rng = random.Random(17)
    seen = {"rational": 0, "irrational": 0, "none": 0}
    for _ in range(600):
        D = _vanishing_circuit(rng)
        assert adisc_vanish(D)
        try:
            rhos, orders, mixing = _degenerate_point_reference(D)
        except NoRealSolutionError:
            with pytest.raises(NoRealSolutionError):
                degenerate_point(D)
            seen["none"] += 1
            continue
        p = degenerate_point(D)
        assert all(rho.denominator == 1 and rho > 1 for rho in p.rhos)
        assert all(math.gcd(int(a), int(b)) == 1 for i, a in enumerate(p.rhos) for b in p.rhos[:i])
        L = math.lcm(*orders, *p.orders)
        assert _power(p.rhos, p.orders, p.mixing, L) == _power(rhos, orders, mixing, L)
        if p.coordinates is not None:
            assert p.coordinates == _power(p.rhos, p.orders, p.mixing, 1)
        seen["irrational" if p.coordinates is None else "rational"] += 1
    assert min(seen.values()) > 50, seen


def _is_power(a, p):
    """Whether a = s^p for an integer s, by bisection on s."""
    lo, hi = 1, a
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**p <= a else (lo, mid - 1)
    return lo**p == a


def _primes_dividing(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] * (n > 1)


def test_degenerate_point_roots_out_perfect_powers():
    # on bases such as 4, 8 and 36 a basis element of order o can be a
    # p-th power for a prime p | o; its root with order o / p is the same
    # point, so no rho keeps such an order, and the point is rational
    # exactly when every order is 1
    rng = random.Random(1818)
    seen = {"rational": 0, "irrational": 0, "reference orders > 1, rational": 0}
    for _ in range(600):
        D = _vanishing_circuit(rng, rng.sample((2, 3, 4, 8, 9, 16, 27, 36), 2))
        try:
            rhos, orders, mixing = _degenerate_point_reference(D)
        except NoRealSolutionError:
            continue
        p = degenerate_point(D)
        L = math.lcm(*orders, *p.orders)
        assert _power(p.rhos, p.orders, p.mixing, L) == _power(rhos, orders, mixing, L)
        assert all(math.gcd(int(a), int(b)) == 1 for i, a in enumerate(p.rhos) for b in p.rhos[:i])
        for rho, o in zip(p.rhos, p.orders):
            assert not any(_is_power(int(rho), q) for q in _primes_dividing(o)), (D, p)
        rational = all(o == 1 for o in p.orders)
        assert (p.coordinates is not None) == rational
        if rational:
            assert p.coordinates == _power(p.rhos, p.orders, p.mixing, 1)
            seen["reference orders > 1, rational"] += any(o > 1 for o in orders)
        seen["rational" if rational else "irrational"] += 1
    assert min(seen.values()) > 50, seen


def test_caged_vanish_cost_does_not_grow_with_exponents():
    # coefficients m_j 2^(u_j) 3^(v_j) of up to 45,285 bits, u and v
    # 3000 times vectors orthogonal to m, shifted to be >= 0: the
    # discriminant vanishes, and its gcd-free basis shares powers of 2
    # and 3 with exponents in the tens of thousands
    pts = [(1, 6), (4, 4), (12, 1), (7, 3)]
    circuit, idx = find_circuit(pts)
    m = circuit.relation
    assert (m, idx) == ((1, 3, 3, -7), [0, 1, 2, 3])

    def shifted(p, q):
        v = [0] * len(m)
        v[p], v[q] = 3000 * m[q], -3000 * m[p]
        return [x - min(v) for x in v]

    u, v = shifted(0, 1), shifted(1, 3)
    coeffs = tuple(mj * 2**a * 3**b for mj, a, b in zip(m, u, v))
    assert max(c.bit_length() for c in coeffs) == 45285
    start = time.monotonic()
    assert adisc_vanish(CircuitDiscriminant(circuit, coeffs))
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("text", ["x1^2 - 3*x1 + 1", "x1^2 + x1 + 1"])
def test_discriminant_input_guards(text):
    # degenerate_point needs a vanishing discriminant, here of either sign
    with pytest.raises(PreconditionError) as info:
        degenerate_point(_disc(parse(text)))
    assert type(info.value) is PreconditionError
    assert str(info.value) == "discriminant does not vanish at these coefficients"


DISC_HASH_INSTANCES = 2000


def _signed(rng, bits):
    return rng.choice((-1, 1)) * rng.randint(1, 1 << bits)


def _random_disc_instance(rng, k):
    """The k-th (points, coefficients) of the discriminant answer-hash
    recipe, shaped like the disc_sign workload: 1-D trinomials with
    exponents below 2^62, circuits of n + 2 points at n = 2 and 3 with
    coordinates of 20 to 62 bits (coefficients of 16 bits), near ties
    b^2 - 4ac of a few units with 40- to 120-bit coefficients, exact ties
    s (v x - u)^2, and exact ties c = s m on 1-D trinomials, whose
    products of some 2^68 bits only a gcd-free basis can equate."""
    kind = k % 6
    if kind in (0, 5):
        e0, e1, e2 = sorted(rng.sample(range(1 << 62), 3))
        points = [(e0,), (e1,), (e2,)]
        if kind == 5:
            g, s = math.gcd(e2 - e1, e1 - e0), rng.choice((-1, 1))
            return points, [s * (e2 - e1) // g, s * (e0 - e2) // g, s * (e1 - e0) // g]
        return points, [_signed(rng, 16) for _ in points]
    if kind in (1, 2):
        n, bits = kind + 1, rng.randint(20, 62)
        points = [tuple(rng.getrandbits(bits) for _ in range(n)) for _ in range(n + 2)]
        return points, [_signed(rng, 16) for _ in points]
    bits = rng.randint(40, 120)
    if kind == 3:
        a = rng.getrandbits(bits) | 1 << (bits - 1)
        c = rng.getrandbits(bits) | 1 << (bits - 1)
        b = math.isqrt(4 * a * c) + rng.randint(-1, 2)
        s = rng.choice((-1, 1))
        return [(0,), (1,), (2,)], [s * c, rng.choice((-1, 1)) * b, s * a]
    u, v, s = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1, _signed(rng, 7)
    return [(0,), (1,), (2,)], [s * u * u, -2 * s * u * v, s * v * v]


def disc_answer_digest(count):
    """sha256 (first 16 hex digits) of the concatenated repr((sign,
    vanish)) of the first ``count`` instances of _random_disc_instance
    from random.Random(34), each through find_circuit and
    CircuitDiscriminant as ``sparsefeas disc`` builds it; a refused
    instance contributes its exception's name."""
    rng = random.Random(34)
    digest = hashlib.sha256()
    for k in range(count):
        points, coeffs = _random_disc_instance(rng, k)
        try:
            circuit, idx = find_circuit(PointSet(tuple(points)))
            D = CircuitDiscriminant(circuit, tuple(coeffs[i] for i in idx))
            answer = (adisc_sign(D), adisc_vanish(D))
        except (NotACircuitError, PreconditionError) as exc:
            answer = type(exc).__name__
        digest.update(repr(answer).encode())
    return digest.hexdigest()[:16]


def test_disc_answers_match_recorded_hash():
    # nothing else pins the answers of `disc sign` on big exponents and
    # near ties; tools/answer_hashes.py prints the same digest
    assert disc_answer_digest(DISC_HASH_INSTANCES) == "ce29b3117161ddc7"
