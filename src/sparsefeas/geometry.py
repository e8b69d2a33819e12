"""Combinatorics of supports: affine dimension, circuits, Radon interior
points, and the Gale-dual facets of a circuit.

A *circuit* is an affinely dependent point set every proper subset of
which is affinely independent.  Such a set carries a unique (up to sign)
integer affine relation m with all entries nonzero, and the sign pattern
of m encodes the Radon partition of the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .errors import NotACircuitError, PreconditionError
from .intlattice import hermite_factor, primitive_vector
from .sparsepoly import PointSet


@dataclass(frozen=True)
class CircuitData:
    """A circuit with its primitive affine relation.

    relation m satisfies: every m_j != 0, sum m_j == 0, sum m_j b_j == 0,
    and gcd over |m_j| is 1.
    """

    points: PointSet
    relation: tuple[int, ...]

    def __post_init__(self):
        m = self.relation
        pts = self.points
        if len(m) != len(pts):
            raise NotACircuitError("relation length mismatch")
        if any(v == 0 for v in m):
            raise NotACircuitError("relation has a zero entry")
        if sum(m) != 0:
            raise NotACircuitError("relation entries do not sum to zero")
        d = len(pts[0])
        for k in range(d):
            if sum(mi * p[k] for mi, p in zip(m, pts)) != 0:
                raise NotACircuitError("relation does not annihilate the points")

    @property
    def positive_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.relation) if v > 0)

    @property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.relation) if v < 0)


@dataclass(frozen=True)
class SupportAnalysis:
    """One Hermite factorization U (1 | a_j) = H of the rows (1, a_j) of a
    support (Cohen 1993, sec. 2.4), read by every decider.  H has rank =
    affine dimension + 1 nonzero rows; the rows of U past them (kernel)
    are a lattice basis of the affine relations of the points."""

    points: tuple
    H: list
    U: list
    rank: int
    kernel: list

    @cached_property
    def solution(self):
        """D H^-1 U e_j for every point j, as rows over the points: H x =
        U e_j solved by one back substitution over all right-hand sides,
        free columns 0, scaled by the product D of the pivots.  D times
        the inverse of the pivot columns is their adjugate, an integer
        matrix, so every division is exact.  The columns S_j sum to
        (D, 0, ..., 0), the all-ones values, as column 0 is a pivot."""
        H, r = self.H, self.rank
        pivots = [next(k for k, h in enumerate(row) if h) for row in H[:r]]
        D = prod(row[p] for row, p in zip(H, pivots))
        X = [[0] * len(self.points) for _ in H[0]]
        for p, row, u in reversed(list(zip(pivots, H, self.U))):
            acc = [D * uj for uj in u]
            for h, x in zip(row[p + 1:], X[p + 1:]):
                if h:
                    acc = [a - h * xj for a, xj in zip(acc, x)]
            X[p] = [a // row[p] for a in acc]
        return X

    @cached_property
    def circuit(self):
        """find_circuit's answer for the points."""
        # the kernel has dimension #A - dim - 1, one more than the excess
        if len(self.kernel) > 1:
            raise PreconditionError(
                f"point set has {len(self.points)} points in dimension {self.rank - 1}:"
                f" {len(self.kernel) - 1} more than dim + 2")
        if not self.kernel:
            return None
        m = primitive_vector(self.kernel[0])
        idx = [i for i, v in enumerate(m) if v != 0]
        sub = PointSet(tuple(self.points[i] for i in idx))
        rel = tuple(m[i] for i in idx)
        if rel[0] < 0:
            rel = tuple(-v for v in rel)
        return CircuitData(sub, rel), idx


def analyze_support(A) -> SupportAnalysis:
    """The SupportAnalysis of a nonempty point set, in its order."""
    pts = tuple(A)
    if not pts:
        raise PreconditionError("empty point set")
    H, U = hermite_factor([[1, *p] for p in pts])
    r = sum(1 for row in H if any(row))
    return SupportAnalysis(pts, H, U, r, U[r:])


def affine_dim(A: PointSet) -> int:
    """Dimension of the affine span of A."""
    return analyze_support(A).rank - 1


def find_circuit(A: PointSet):
    """Locate the unique circuit inside A, if any.

    Requires #A <= affine_dim(A) + 2.  Returns (CircuitData, index map
    into A) for the unique minimally dependent subset, or None when A is
    affinely independent.
    """
    return analyze_support(A).circuit


def interior_point(C: CircuitData):
    """Index of the circuit point interior to the hull of the others.

    By the Radon sign rule this is the coordinate of the relation whose
    sign no other coordinate shares; None when both sign classes have at
    least two members.
    """
    pos = C.positive_indices
    neg = C.negative_indices
    if len(pos) == 1:
        return pos[0]
    if len(neg) == 1:
        return neg[0]
    return None


def facet_complements(relation):
    """The complements {p, q} of the facets of Conv(A) that leave out two
    points, read from A's one affine relation m: by Gale duality (Gelfand-
    Kapranov-Zelevinsky 1994, ch. 7) F is a face exactly when 0 lies in
    the relative interior of {m_j : j not in F}, so the facets are A minus
    {p, q} with m_p > 0 > m_q, and in a pyramid A minus {z} with m_z = 0."""
    pos = [j for j, v in enumerate(relation) if v > 0]
    neg = [j for j, v in enumerate(relation) if v < 0]
    return [(p, q) for p in pos for q in neg]
