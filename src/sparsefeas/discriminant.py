"""The A-discriminant of a circuit: vanish test, sign, degenerate point.

For a circuit with relation m (normalized so that the interior point, when
one exists, carries a negative entry) and coefficients c, the discriminant
collapses to a difference of two monomial products:

    Delta = (prod_{m_j>0} m_j^{m_j}) (prod_{m_j<0} c_j^{|m_j|})
          - (prod_{m_j<0} |m_j|^{|m_j|}) (prod_{m_j>0} c_j^{m_j})

so both the vanish test and the sign reduce to exactsign primitives,
which expand the products only when both are small (at most 2^12 bits).
When Delta vanishes, the unique degenerate point per orthant is cut out
by the binomial system zeta^(a_i - a_1) = (m_i c_1)/(m_1 c_i), solved
through a Smith factorization of the exponent-difference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NoRealSolutionError, PreconditionError
from .exactsign import binomial_sign, binomial_vanish
from .geometry import CircuitData, interior_point
from .intlattice import smith_factor


@dataclass(frozen=True)
class CircuitDiscriminant:
    """A circuit together with nonzero integer coefficients."""

    circuit: CircuitData
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.circuit.points):
            raise PreconditionError("coefficient vector length mismatch")
        if any(c == 0 for c in self.coefficients):
            raise PreconditionError("discriminant coefficients must be nonzero")


def _normalized_relation(C: CircuitData):
    """Relation with the interior point's entry negative; when there is no
    interior point, the first entry is made positive."""
    m = list(C.relation)
    i = interior_point(C)
    if i is not None:
        if m[i] > 0:
            m = [-v for v in m]
    elif m[0] < 0:
        m = [-v for v in m]
    return m


def _products(D: CircuitDiscriminant):
    """The two monomial products (bases, exponents) whose difference is
    Delta, positives-first permutation applied implicitly."""
    m = _normalized_relation(D.circuit)
    c = D.coefficients
    left_bases, left_exps = [], []
    right_bases, right_exps = [], []
    for mj, cj in zip(m, c):
        if mj > 0:
            left_bases.append(mj)
            left_exps.append(mj)
            right_bases.append(cj)
            right_exps.append(mj)
        else:
            left_bases.append(cj)
            left_exps.append(-mj)
            # the relation entry stays signed: (-|m_j|)^{|m_j|}, so the
            # vanish locus is exactly prod (c_i/m_i)^{m_i} = 1
            right_bases.append(mj)
            right_exps.append(-mj)
    return left_bases, left_exps, right_bases, right_exps


def adisc_vanish(D: CircuitDiscriminant) -> bool:
    """Whether the circuit discriminant vanishes at the coefficients."""
    lb, le, rb, re = _products(D)
    return binomial_vanish(lb, rb, le, re)


def _product_sign(bases, exps) -> int:
    s = 1
    for b, e in zip(bases, exps):
        if b < 0 and e % 2 == 1:
            s = -s
    return s


def adisc_sign(D: CircuitDiscriminant) -> int:
    """Exact sign of the circuit discriminant at the coefficients.

    Signs of the two products are peeled off first; magnitudes go to the
    adaptive-precision comparator.
    """
    lb, le, rb, re = _products(D)
    ls = _product_sign(lb, le)
    rs = _product_sign(rb, re)
    labs = [abs(b) for b in lb]
    rabs = [abs(b) for b in rb]
    if ls > rs:
        return 1
    if ls < rs:
        return -1
    s = binomial_sign(labs, rabs, le, re)
    return s if ls > 0 else -s


@dataclass(frozen=True)
class DegeneratePoint:
    """The degenerate point of a vanished discriminant, positive orthant.

    Coordinates are zeta_j = prod_k rhos[k] ** (mixing[j][k] / orders[k]);
    when every order is 1 the exact rational tuple is in ``coordinates``.
    """

    rhos: tuple[Fraction, ...]
    orders: tuple[int, ...]
    mixing: tuple[tuple[int, ...], ...]
    coordinates: Optional[tuple[Fraction, ...]]


def degenerate_point(D: CircuitDiscriminant) -> DegeneratePoint:
    """Solve for the singular point in the positive orthant.

    Requires adisc_vanish(D).  The binomial system zeta^(a_i - a_1) = r_i
    with r_i = (m_i c_1)/(m_1 c_i) is reduced by a Smith factorization
    U E V = S of the exponent differences: with rho = r^U (row-wise), a
    positive solution exists iff every rho_k > 0, and then each
    y_k = rho_k^(1/s_k) gives zeta = y^V.
    """
    if not adisc_vanish(D):
        raise PreconditionError("discriminant does not vanish at these coefficients")
    pts = list(D.circuit.points)
    m = _normalized_relation(D.circuit)
    c = D.coefficients
    n = len(pts[0])
    base = pts[0]
    E = [[p[k] - base[k] for k in range(n)] for p in pts[1:]]
    r = [Fraction(m[i] * c[0], m[0] * c[i]) for i in range(1, len(pts))]
    S, U, V = smith_factor(E)
    # only the rank rows constrain zeta: the one row of U past the rank is
    # +-(m_2, ..., m_k), whose rho (prod_j (m_j/c_j)^(m_j))^(+-1) is 1
    # exactly when the discriminant vanishes, as required above
    rhos, orders = [], []
    for i in range(min(len(S), n)):
        if not S[i][i]:
            continue
        rho = Fraction(1)
        for j, rj in enumerate(r):
            e = U[i][j]
            if e:
                rho *= rj ** e
        if rho <= 0:
            raise NoRealSolutionError("no degenerate point in the positive orthant")
        rhos.append(rho)
        orders.append(S[i][i])
    mixing = tuple(tuple(V[j][k] for k in range(len(orders))) for j in range(n))
    coords = None
    if all(s == 1 for s in orders):
        vals = []
        for j in range(n):
            z = Fraction(1)
            for k, rho in enumerate(rhos):
                e = V[j][k]
                if e:
                    z *= rho ** e
            vals.append(z)
        coords = tuple(vals)
    return DegeneratePoint(tuple(rhos), tuple(orders), mixing, coords)
