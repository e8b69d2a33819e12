"""The A-discriminant of a circuit: vanish test, sign, degenerate point.

For a circuit with relation m (normalized so that the interior point, when
one exists, carries a negative entry) and coefficients c, the discriminant
collapses to a difference of two monomial products:

    Delta = (prod_{m_j>0} m_j^{m_j}) (prod_{m_j<0} c_j^{|m_j|})
          - (prod_{m_j<0} |m_j|^{|m_j|}) (prod_{m_j>0} c_j^{m_j})

so both the vanish test and the sign reduce to exactsign primitives,
which expand the products only when both are small (at most 2^12 bits).
Both take a CircuitDiscriminant, whose circuit is the SupportAnalysis of
the circuit's points.  The deciders read no sign here (feasibility
compares a caged circuit's interior coefficient with its circuit number);
they take only the degenerate point, through _degenerate_point.
When Delta vanishes, the unique degenerate point per orthant is cut out
by the binomial system zeta^(a_j - a_0) = (m_j c_0)/(m_0 c_j), which is
linear in log zeta over the rows (1 | a_j) that the same analysis
eliminates; the solution is read off it, with its powers
taken as exponents on a gcd-free basis of the right-hand sides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .errors import FrozenRecord, NoRealSolutionError, NotACircuitError, PreconditionError
from .exactsign import binomial_sign, binomial_vanish, gcd_free_basis
from .geometry import SupportAnalysis, interior_point
from .intlattice import mat_mul


class CircuitDiscriminant(FrozenRecord):
    """A circuit, the SupportAnalysis of its points (geometry.find_circuit
    gives it), together with nonzero integer coefficients."""

    circuit: SupportAnalysis
    coefficients: tuple[int, ...]

    def __post_init__(self):
        m = self.circuit.relation  # more than dim + 2 points raise here
        # two points with a relation are one point repeated
        if m is None or len(m) < 3 or not all(m):
            raise NotACircuitError("support is not a circuit")
        k, n = len(self.coefficients), len(self.circuit.points)
        if k != n:
            raise PreconditionError(f"{k} coefficients for {n} points")
        if any(c == 0 for c in self.coefficients):
            raise PreconditionError("discriminant coefficients must be nonzero")


def _products(m, c):
    """The two monomial products whose difference is Delta for the
    circuit relation m and coefficients c: (left bases, right bases,
    exponents |m_j|), positives-first permutation applied implicitly.  m
    is negated if its interior point's entry is positive.  The relation
    entries stay signed, (-|m_j|)^{|m_j|}, so the vanish locus is exactly
    prod (c_i/m_i)^{m_i} = 1."""
    i = interior_point(m)
    m = [-v for v in m] if i is not None and m[i] > 0 else m
    left = [mj if mj > 0 else cj for mj, cj in zip(m, c)]
    right = [cj if mj > 0 else mj for mj, cj in zip(m, c)]
    return left, right, [abs(mj) for mj in m]


def adisc_vanish(D: CircuitDiscriminant) -> bool:
    """Whether the circuit discriminant vanishes at the coefficients."""
    left, right, e = _products(D.circuit.relation, D.coefficients)
    return binomial_vanish(left, right, e, e)


def adisc_sign(D: CircuitDiscriminant) -> int:
    """Exact sign of the circuit discriminant at the coefficients.  Each
    product's sign is the parity of its negative bases' exponents; the
    magnitudes go to the adaptive-precision comparator."""
    left, right, e = _products(D.circuit.relation, D.coefficients)
    ls = -1 if sum([k for b, k in zip(left, e) if b < 0]) % 2 else 1
    rs = -1 if sum([k for b, k in zip(right, e) if b < 0]) % 2 else 1
    if ls != rs:
        return ls
    return ls * binomial_sign(list(map(abs, left)), list(map(abs, right)), e, e)


class DegeneratePoint(FrozenRecord):
    """The degenerate point of a vanished discriminant, positive orthant.

    Coordinates are zeta_k = prod_b rhos[b] ** (mixing[k][b] / orders[b]),
    the rhos pairwise coprime integers > 1, each fraction in lowest terms
    (column b of mixing and orders[b] share no factor).  A rho with order
    > 1 is not a p-th power for any prime p of its order, so the point is
    rational exactly when every order is 1, and then the exact rational
    tuple is in ``coordinates``.
    """

    rhos: tuple[Fraction, ...]
    orders: tuple[int, ...]
    mixing: tuple[tuple[int, ...], ...]
    coordinates: tuple[Fraction, ...] | None


def degenerate_point(D: CircuitDiscriminant) -> DegeneratePoint:
    """Solve for the singular point in the positive orthant.

    Raises PreconditionError unless adisc_vanish(D).  With r_j =
    (m_j c_0)/(m_0 c_j), a negative r_j leaves no point in the orthant;
    otherwise zeta^(a_j - a_0) = r_j is the linear system (1 | a_j)
    (t, log zeta) = log r_j, which D.circuit, the analysis of the
    circuit's points, eliminates: with S the rows 1..n of its solution
    and P its scale D, zeta_k^P = prod_j r_j^(S_kj), free coordinates 1.  S is fixed only up
    to multiples of m, so the powers are taken as exponents on a gcd-free
    basis of the r_j, where m cancels exactly: prod_j r_j^(m_j) = 1, and
    coprime integers are multiplicatively independent.
    """
    if not adisc_vanish(D):
        raise PreconditionError("discriminant does not vanish at these coefficients")
    return _degenerate_point(D.circuit, D.coefficients)


def _root_out(rho: int, order: int):
    """(rho, order) with rho replaced by its integer p-th root and order by
    order / p while some prime p divides the order and rho is a p-th
    power.  Candidates p run up; a composite one never fires, as one of
    its primes would have.  rho = s^p > 1 needs p < bits of rho.  The
    root is Newton's iteration from 2^ceil(bits / p) >= rho^(1/p) down to
    floor(rho^(1/p))."""
    p = 2
    while p <= order and p < rho.bit_length():
        if order % p == 0:
            s = 1 << -(-rho.bit_length() // p)
            while (y := ((p - 1) * s + rho // s ** (p - 1)) // p) < s:
                s = y
            if s**p == rho:
                rho, order = s, order // p
                continue
        p += 1
    return rho, order


def _degenerate_point(an: SupportAnalysis, c) -> DegeneratePoint:
    """degenerate_point for the analysis ``an`` of a circuit's points, in
    their order, and coefficients c, at which the discriminant of its
    relation m is known to vanish."""
    m = an.relation
    r = [Fraction(mj * c[0], m[0] * cj) for mj, cj in zip(m, c)]
    if min(r) < 0:
        raise NoRealSolutionError("no degenerate point in the positive orthant")
    basis = gcd_free_basis([x.numerator for x in r] + [x.denominator for x in r])
    nums, dens = basis.exponent_matrix[:len(r)], basis.exponent_matrix[len(r):]
    e = [[p - q for p, q in zip(num, den)] for num, den in zip(nums, dens)]
    P = sum(an.solution[0])  # the scale D of the solution: row 0 sums to it
    E = mat_mul(an.solution[1:], e)
    cols = [b for b in range(len(basis.gammas)) if any(row[b] for row in E)]
    gs = [gcd(P, *(row[b] for row in E)) for b in cols]
    # rho^(e/o) = s^(e/(o/p)) for rho = s^p, and (o/p, e) stays coprime
    roots = [_root_out(basis.gammas[b], P // g) for b, g in zip(cols, gs)]
    rhos = tuple(Fraction(rho) for rho, _ in roots)
    orders = tuple(o for _, o in roots)
    mixing = tuple(tuple(row[b] // g for b, g in zip(cols, gs)) for row in E)
    coords = None
    if all(o == 1 for o in orders):
        coords = tuple(prod(map(pow, rhos, row), start=Fraction(1)) for row in mixing)
    return DegeneratePoint(rhos, orders, mixing, coords)
