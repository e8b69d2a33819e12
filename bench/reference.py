"""Reference answers for the benchmark, computed without the deciders.

Nothing here imports ``sparsefeas``.  Affine relations come from cofactors
of the (1 | a_j) matrix, eliminated over ``Fraction``; positive-orthant
classes of caged circuits come from the circuit-number comparison of
Iliman & de Wolff (Res. Math. Sci. 2016) in exact integers; huge
discriminant signs come from ``decimal`` logarithms at a precision sized
from the exponents.  A check that fails raises ``ReferenceMismatch``.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

EMPTY = "EMPTY"
POINT_MULT_1 = "POINT_MULT_1"
SINGULAR_POINT = "SINGULAR_POINT"
COMPACT_SPHERE = "COMPACT_SPHERE"
ALL_NONCOMPACT = "ALL_NONCOMPACT"


class ReferenceMismatch(AssertionError):
    """A decider's output disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise ReferenceMismatch(message)


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix by Gaussian elimination
    over the rationals."""
    A = [[Fraction(v) for v in row] for row in rows]
    n = len(A)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for i in range(k + 1, n):
            if A[i][k]:
                q = A[i][k] / A[k][k]
                A[i] = [a - q * b for a, b in zip(A[i], A[k])]
    return int(det)


def affine_relation(points) -> list[int]:
    """Primitive integer m with sum m_j == 0 and sum m_j a_j == 0, for
    n + 2 points in R^n, by cofactor expansion.  All zeros when the points
    do not span R^n; some zeros when the circuit is a proper subset."""
    k = len(points)
    n = len(points[0])
    if k != n + 2:
        raise ValueError("affine_relation needs exactly n + 2 points")
    M = [[1] * k] + [[p[i] for p in points] for i in range(n)]
    m = []
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in M]
        m.append((-1) ** j * determinant(minor))
    g = 0
    for v in m:
        g = math.gcd(g, v)
    return [v // g for v in m] if g else m


def is_full_circuit(points) -> bool:
    return all(v != 0 for v in affine_relation(points))


def affinely_independent(points) -> bool:
    """Whether the points are the vertices of a simplex of full dimension
    in R^n (n + 1 points)."""
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return len(rows) == len(base) and determinant(rows) != 0


def interior_index(m):
    """Index of the entry whose sign no other entry shares, else None."""
    pos = [j for j, v in enumerate(m) if v > 0]
    neg = [j for j, v in enumerate(m) if v < 0]
    if len(pos) == 1:
        return pos[0]
    if len(neg) == 1:
        return neg[0]
    return None


def normalized_relation(m):
    """Sign convention of the documented circuit discriminant: the interior
    entry negative, else the first entry positive."""
    i = interior_index(m)
    flip = (m[i] > 0) if i is not None else (m[0] < 0)
    return [-v for v in m] if flip else list(m)


def sign_changes(signs) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def circuit_number_class(m, coeffs) -> str:
    """Z_+ class of a caged circuit polynomial (the interior term's sign
    opposes every other term's).

    With barycentric weights w_j / s of the interior point, f >= 0 on the
    positive orthant iff |c_int| <= prod (c_j s / w_j)^(w_j / s).  Raised to
    the power s this is the integer comparison
    |c_int|^s * prod w_j^w_j  vs  s^s * prod |c_j|^w_j.
    """
    i = interior_index(m)
    expect(i is not None, "circuit has no interior point")
    w = [abs(v) for v in m]
    s = w[i]
    left = abs(coeffs[i]) ** s
    right = s ** s
    for j, (wj, cj) in enumerate(zip(w, coeffs)):
        if j != i:
            left *= wj ** wj
            right *= abs(cj) ** wj
    if left < right:
        return EMPTY
    if left == right:
        return SINGULAR_POINT
    return COMPACT_SPHERE


def is_caged(m, coeffs) -> bool:
    i = interior_index(m)
    if i is None:
        return False
    si = coeffs[i] > 0
    return all((c > 0) != si for j, c in enumerate(coeffs) if j != i)


def expected_circuit_class(points, coeffs) -> str:
    """Z_+ class of a polynomial whose support is a full circuit in R^n.

    n == 1 (trinomials): Descartes' rule settles one or no sign change;
    two changes make the middle term caged.  n >= 2: one sign throughout
    is empty, a caged sign pattern goes to the circuit number, and any
    other mixed pattern has an edge of the hull with mixed signs, hence a
    facet whose initial form has a positive root.
    """
    m = affine_relation(points)
    expect(all(v != 0 for v in m), "support is not a full circuit")
    signs = [1 if c > 0 else -1 for c in coeffs]
    if len(set(signs)) == 1:
        return EMPTY
    if is_caged(m, coeffs):
        return circuit_number_class(m, coeffs)
    if len(points[0]) == 1:
        order = sorted(range(len(points)), key=lambda j: points[j][0])
        expect(sign_changes([signs[j] for j in order]) == 1, "unexpected sign pattern")
        return POINT_MULT_1
    return ALL_NONCOMPACT


def evaluate(terms, x) -> Fraction:
    """Exact value of sum c * x^a at a rational point; terms are
    (exponent tuple, coefficient) pairs."""
    total = Fraction(0)
    for a, c in terms:
        v = Fraction(c)
        for xi, e in zip(x, a):
            if e:
                v *= Fraction(xi) ** e
        total += v
    return total


def _base_powers(x, base):
    """(sign, e) per coordinate when every coordinate is +-base^e for an
    integer e, else None."""
    out = []
    for v in x:
        v = Fraction(v)
        s = 1 if v > 0 else -1
        num, den = abs(v.numerator), v.denominator
        if num != 1 and den != 1:
            return None
        big, e_sign = (num, 1) if den == 1 else (den, -1)
        guess = round((big.bit_length() - 1) / math.log2(base)) if big > 1 else 0
        for e in (guess, guess - 1, guess + 1):
            if e >= 0 and base ** e == big:
                out.append((s, e_sign * e))
                break
        else:
            return None
    return out


def sign_at(terms, x) -> int:
    """Sign of f at a rational point with nonnegative exponents.

    Fast path: when every coordinate is +-B^e_k with B = 1 + sum |c_j|,
    f(x) = sum_j c'_j B^(e . a_j) with |c'_j| = |c_j|; grouping equal
    powers, the highest power with a nonzero grouped coefficient decides,
    because the grouped coefficients together stay below B in magnitude.
    Otherwise: sign_by_sum.
    """
    base = 1 + sum(abs(c) for _, c in terms)
    powers = _base_powers(x, base)
    if powers is not None:
        grouped = {}
        for a, c in terms:
            sign = 1
            for (s, _), ak in zip(powers, a):
                if s < 0 and ak % 2:
                    sign = -sign
            e = sum(ek * ak for (_, ek), ak in zip(powers, a))
            grouped[e] = grouped.get(e, 0) + sign * c
        for e in sorted(grouped, reverse=True):
            if grouped[e]:
                return 1 if grouped[e] > 0 else -1
        return 0
    return sign_by_sum(terms, x)


def sign_by_sum(terms, x) -> int:
    """Sign of f at a rational point from one exact integer sum over a
    common positive denominator."""
    xs = [Fraction(v) for v in x]
    top = [max(a[k] for a, _ in terms) for k in range(len(xs))]
    total = 0
    for a, c in terms:
        v = c
        for xk, e, t in zip(xs, a, top):
            if e:
                v *= xk.numerator ** e
            if t - e:
                v *= xk.denominator ** (t - e)
        total += v
    return (total > 0) - (total < 0)


def partial(terms, x, i) -> Fraction:
    """Exact partial derivative in x_i at a rational point."""
    shifted = []
    for a, c in terms:
        if a[i]:
            b = list(a)
            b[i] -= 1
            shifted.append((tuple(b), c * a[i]))
    return evaluate(shifted, x) if shifted else Fraction(0)


def face_of(terms, w):
    """Terms of minimal weight w . a."""
    vals = [sum(wk * ak for wk, ak in zip(w, a)) for a, _ in terms]
    lo = min(vals)
    return [t for t, v in zip(terms, vals) if v == lo]


def check_facet_certificate(terms, w) -> None:
    """A facet normal certifies a nonempty Z_+ when the face of terms that
    minimise w . a has mixed signs."""
    expect(any(v != 0 for v in w), "zero facet normal")
    face = face_of(terms, w)
    expect(len(face) >= 2, "facet face has a single term")
    signs = {c > 0 for _, c in face}
    expect(len(signs) == 2, "facet face has one sign")


def check_one_sign(terms, points) -> None:
    """f keeps one sign at the given positive rational points."""
    signs = {sign_at(terms, x) for x in points}
    expect(0 not in signs, "f vanishes at a sample point")
    expect(len(signs) == 1, "f changes sign on an EMPTY verdict")


def check_sign_change(terms, p, q, positive: bool) -> None:
    """p and q are points (in the positive orthant when ``positive``, else
    in (R*)^n) where f takes opposite signs."""
    for x in (p, q):
        expect(all(v != 0 for v in x), "certificate point has a zero coordinate")
        if positive:
            expect(all(v > 0 for v in x), "certificate point leaves the orthant")
    expect(sign_at(terms, p) * sign_at(terms, q) == -1, "no sign change")


def check_degenerate_point(terms, point) -> None:
    """f and its gradient vanish at the degenerate point.

    ``point`` is either rational coordinates or (rhos, orders, mixing),
    meaning zeta_j = prod_k rhos[k] ** (mixing[j][k] / orders[k]).  In
    the second form, with L = lcm(orders), zeta^L is rational, and f and
    its gradient vanish at zeta iff every monomial value c_j zeta^a_j is
    proportional to the affine relation m; that is checked on L-th powers,
    which is exact because positive L-th roots are unique.
    """
    if not isinstance(point, dict):
        expect(evaluate(terms, point) == 0, "f does not vanish")
        for i in range(len(point)):
            expect(partial(terms, point, i) == 0, f"df/dx{i + 1} does not vanish")
        return
    rhos, orders, mixing = point["rhos"], point["orders"], point["mixing"]
    expect(all(r > 0 for r in rhos), "degenerate point leaves the orthant")
    L = math.lcm(*orders)
    zeta_L = []
    for row in mixing:
        v = Fraction(1)
        for rho, s, e in zip(rhos, orders, row):
            v *= Fraction(rho) ** (e * (L // s))
        zeta_L.append(v)
    pts = [a for a, _ in terms]
    cs = [c for _, c in terms]
    m = affine_relation(pts)
    for j in range(1, len(pts)):
        lhs = Fraction(1)
        for z, e, e0 in zip(zeta_L, pts[j], pts[0]):
            lhs *= z ** (e - e0)
        rhs = Fraction(m[j] * cs[0], m[0] * cs[j]) ** L
        expect(lhs == rhs, "monomial values are not proportional to the relation")


def simplex_verdicts(terms):
    """(positive, nonzero, real) verdicts for an affinely independent
    support with nonnegative exponents.

    Mixed coefficient signs: every set is nonempty.  One sign: Z_+ is
    empty; (R*)^n has a root iff two exponent vectors differ in parity in
    some coordinate (flipping that coordinate mixes the signs); R^n also
    gets the origin when every term has a positive exponent.
    """
    signs = {c > 0 for _, c in terms}
    if len(signs) == 2:
        return "nonempty", "nonempty", "nonempty"
    pts = [a for a, _ in terms]
    n = len(pts[0])
    parity_split = any(len({p[i] % 2 for p in pts}) == 2 for i in range(n))
    origin = all(any(e > 0 for e in p) for p in pts)
    nonzero = "nonempty" if parity_split else "empty"
    real = "nonempty" if parity_split or origin else "empty"
    return "empty", nonzero, real


def disc_sign_exact(points, coeffs) -> int:
    """Sign of L - R by expanding both products (small relations only), where
    L = prod_{m>0} m^m prod_{m<0} c^|m|, R = prod_{m<0} m^|m| prod_{m>0} c^m
    with the normalized relation m."""
    m = normalized_relation(affine_relation(points))
    left = right = 1
    for mj, cj in zip(m, coeffs):
        if mj > 0:
            left *= mj ** mj
            right *= cj ** mj
        else:
            left *= cj ** -mj
            right *= mj ** -mj
    d = left - right
    return (d > 0) - (d < 0)


def product_signs(m, coeffs):
    """Signs of L and R for the normalized relation m."""
    sign_left = sign_right = 1
    for mj, cj in zip(m, coeffs):
        if mj > 0:
            if cj < 0 and mj % 2:
                sign_right = -sign_right
        else:
            if cj < 0 and -mj % 2:
                sign_left = -sign_left
            if -mj % 2:
                sign_right = -sign_right
    return sign_left, sign_right


def products_share_sign(points, coeffs) -> bool:
    sl, sr = product_signs(normalized_relation(affine_relation(points)), coeffs)
    return sl == sr


def disc_sign_logs(points, coeffs):
    """The same sign from ``decimal`` logarithms, or None when the
    difference is within the error bound.

    log|L| - log|R| is a signed sum of |m_j| * log(base) terms; with T an
    upper bound on the sum of their magnitudes, the precision is
    digits(T) + 30 so the accumulated rounding error stays below
    T * 10^-(P-1) * (number of operations) << 1.
    """
    m = normalized_relation(affine_relation(points))
    sign_left, sign_right = product_signs(m, coeffs)
    if sign_left != sign_right:
        return sign_left
    T = sum(abs(mj) * (abs(mj).bit_length() + abs(cj).bit_length() + 2) for mj, cj in zip(m, coeffs))
    prec = len(str(T)) + 30
    with localcontext() as ctx:
        ctx.prec = prec
        diff = Decimal(0)
        for mj, cj in zip(m, coeffs):
            w = abs(mj)
            lm = Decimal(w).ln()
            lc = Decimal(abs(cj)).ln()
            diff += w * lm - w * lc if mj > 0 else w * lc - w * lm
        bound = Decimal(T) * Decimal(10) ** (2 - prec) * 8 * len(m)
        if abs(diff) <= bound:
            return None
    return sign_left if diff > 0 else -sign_left
