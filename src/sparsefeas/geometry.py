"""Combinatorics of supports: affine dimension, circuits, Radon interior
points, facet normals, initial forms, and caged alternations.

A *circuit* is an affinely dependent point set every proper subset of
which is affinely independent.  Such a set carries a unique (up to sign)
integer affine relation m with all entries nonzero, and the sign pattern
of m encodes the Radon partition of the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotACircuitError, PreconditionError
from .intlattice import (
    hermite_factor,
    integer_kernel,
    primitive_vector,
    rank,
)
from .sparsepoly import PointSet, SparsePolynomial, make_polynomial


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


def affine_dim(A: PointSet) -> int:
    """Dimension of the affine span of A (rank of the differences)."""
    pts = list(A)
    if not pts:
        raise PreconditionError("empty point set")
    base = pts[0]
    diffs = [[p[k] - base[k] for k in range(len(base))] for p in pts[1:]]
    return rank(diffs)


def _affine_relation(points):
    """The integer kernel of the (1 | a_j) column matrix, as row vectors."""
    d = len(points[0])
    # columns indexed by points; rows: the all-ones row plus coordinates
    M = [[1] * len(points)]
    for k in range(d):
        M.append([p[k] for p in points])
    return integer_kernel(M)


def find_circuit(A: PointSet):
    """Locate the unique circuit inside A, if any.

    Requires #A <= affine_dim(A) + 2.  Returns (CircuitData, index map
    into A) for the unique minimally dependent subset, or None when A is
    affinely independent.
    """
    pts = list(A)
    if not pts:
        raise PreconditionError("empty point set")
    # the kernel has dimension #A - dim - 1, so a second relation means
    # more than dim + 2 points
    ker = _affine_relation(pts)
    if not ker:
        return None
    if len(ker) != 1:
        raise PreconditionError("point set has more than dim + 2 points")
    m = primitive_vector(ker[0])
    idx = [i for i, v in enumerate(m) if v != 0]
    sub = PointSet(tuple(pts[i] for i in idx))
    rel = tuple(m[i] for i in idx)
    if rel[0] < 0:
        rel = tuple(-v for v in rel)
    return CircuitData(sub, rel), idx


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


def facet_normals(A: PointSet, n: int):
    """All primitive inner facet normals of Conv(A) in R^n.

    Requires affine_dim(A) == n and #A <= n+2.  Each facet is found by
    scanning n-subsets that span an (n-1)-dimensional affine space,
    computing a normal from the kernel of the difference matrix, and
    keeping the orientation that puts the rest of A on the nonnegative
    side with at least one strictly positive value.
    """
    pts = list(A)
    if affine_dim(A) != n:
        raise PreconditionError("support does not span full dimension")
    if len(pts) > n + 2:
        raise PreconditionError("too many points for facet scan")
    normals = set()
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        diffs = [
            [pts[i][k] - base[k] for k in range(n)] for i in sub[1:]
        ]
        if rank(diffs) != n - 1:
            continue
        ker = integer_kernel(diffs) if diffs else integer_kernel([[0] * n])
        if n == 1:
            ker = [[1]]
        if len(ker) != 1:
            continue
        w = primitive_vector(ker[0])
        vals = [sum(wk * (p[k] - base[k]) for k, wk in enumerate(w)) for p in pts]
        if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
            normals.add(tuple(w))
        elif all(v <= 0 for v in vals) and any(v < 0 for v in vals):
            normals.add(tuple(-x for x in w))
    return sorted(normals)


def initial_form(f: SparsePolynomial, w) -> SparsePolynomial:
    """Subpolynomial of terms whose exponent minimizes the weight w."""
    if all(v == 0 for v in w):
        raise PreconditionError("zero weight vector")
    vals = [sum(wk * e for wk, e in zip(w, t.exponents)) for t in f.terms]
    lo = min(vals)
    return make_polynomial(
        f.n,
        [(t.exponents, t.coefficient) for t, v in zip(f.terms, vals) if v == lo],
    )


def caged_alternation(C: CircuitData, signs):
    """Index of an interior circuit point whose sign opposes all others.

    ``signs`` maps each index of C.points to +1 or -1.  Returns None when
    the circuit has no interior point or the interior sign is shared.
    """
    i = interior_point(C)
    if i is None:
        return None
    si = signs[i]
    if all(signs[j] != si for j in range(len(C.points)) if j != i):
        return i
    return None
