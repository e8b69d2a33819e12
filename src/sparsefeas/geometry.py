"""Combinatorics of supports: affine dimension, circuits, Radon interior
points, facet normals, initial forms, and caged alternations.

A *circuit* is an affinely dependent point set every proper subset of
which is affinely independent.  Such a set carries a unique (up to sign)
integer affine relation m with all entries nonzero, and the sign pattern
of m encodes the Radon partition of the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotACircuitError, PreconditionError
from .intlattice import hermite_factor, integer_kernel, primitive_vector
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
    """Dimension of the affine span of A: the rank of the differences to
    its first point, the number of nonzero rows of their Hermite form."""
    pts = list(A)
    if not pts:
        raise PreconditionError("empty point set")
    H, _ = hermite_factor([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
    return sum(1 for row in H if any(row))


def _affine_relation(points):
    """The integer kernel of the (1 | a_j) column matrix, as row vectors."""
    if not points:
        raise PreconditionError("empty point set")
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


def facet_complements(relation):
    """The complements A minus F of the facets F of Conv(A), read from A's
    affine relation m (see facet_normals): each mixed pair (p, q) with
    m_p > 0 > m_q, then each apex (z,) with m_z = 0."""
    pos = [j for j, v in enumerate(relation) if v > 0]
    neg = [j for j, v in enumerate(relation) if v < 0]
    apexes = [(z,) for z, v in enumerate(relation) if v == 0]
    return [(p, q) for p in pos for q in neg] + apexes


def facet_normal(A: PointSet, out) -> tuple[int, ...]:
    """Primitive inner normal of the facet Conv(A minus out): the kernel of
    the facet points' differences, oriented positive at A[out[0]]."""
    pts = list(A)
    face = [p for j, p in enumerate(pts) if j not in out]
    diffs = [[a - b for a, b in zip(p, face[0])] for p in face[1:]]
    w = primitive_vector(integer_kernel(diffs)[0]) if diffs else [1]
    if sum(wk * (a - b) for wk, a, b in zip(w, pts[out[0]], face[0])) < 0:
        w = [-wk for wk in w]
    return tuple(w)


def facet_normals(A: PointSet, n: int):
    """All primitive inner facet normals of Conv(A) in R^n, sorted.

    Requires affine_dim(A) == n and #A <= n+2.  One integer kernel of the
    (1 | a_j) matrix gives the dimension and the affine relation m, zero
    for a simplex; every relation of A is a multiple of m.  By Gale
    duality (Gelfand-Kapranov-Zelevinsky 1994, ch. 7) F is a face exactly
    when 0 lies in the relative interior of {m_j : j not in F}, so the
    facets are A minus {p, q} with m_p > 0 > m_q and A minus {z} with
    m_z = 0.  The n points of A minus {p, q} are affinely independent: a
    relation among them would be a multiple of m vanishing at p.
    """
    pts = list(A)
    ker = _affine_relation(pts)
    if len(pts) - 1 - len(ker) != n:
        raise PreconditionError("support does not span full dimension")
    if len(pts) > n + 2:
        raise PreconditionError("too many points for facet scan")
    m = ker[0] if ker else [0] * len(pts)
    return sorted(facet_normal(pts, out) for out in facet_complements(m))


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
