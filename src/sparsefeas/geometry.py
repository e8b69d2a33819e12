"""Combinatorics of supports: affine dimension, circuits, Radon interior
points, and the Gale-dual facets of a circuit, all from one echelon
elimination with primitive rows of the rows (1 | a_j) per support.

A *circuit* is an affinely dependent point set every proper subset of
which is affinely independent.  Such a set carries a unique (up to sign)
integer affine relation m with all entries nonzero, and the sign pattern
of m encodes the Radon partition of the set.  A support of at most
dim + 2 points holds at most one circuit, carried everywhere, the public
API included, as the SupportAnalysis of its points: the support's one
affine relation, one entry per point and zero off the circuit, from
which the interior point and the facets are read.
"""

from __future__ import annotations

from functools import cached_property

from .errors import FrozenRecord, PreconditionError
from .intlattice import echelon_rows, echelon_solution
from .sparsepoly import PointSet


class SupportAnalysis(FrozenRecord):
    """One echelon elimination with primitive rows of the rows (1 | a_j)
    of a support (intlattice.echelon_rows), read by every decider.  It has
    rank = affine dimension + 1 pivot rows; its zero rows leave the
    primitive affine relations of the points (kernel), a basis over Q.
    The solution columns take a backward pass, made on first use."""

    points: tuple
    pivots: list
    rows: list
    kernel: list

    @property
    def rank(self):
        return len(self.pivots)

    @cached_property
    def solution(self):
        """D x_j for every point j, as rows over the points, where x_j
        solves the pivot rows' equations (1 | a_j) x = e_j with free
        columns 0 (exactly, when e_j is orthogonal to the relations) and
        D > 0 is the lcm of the reduced pivots.  The columns S_j sum to
        (D, 0, ..., 0), the all-ones values, as column 0 is a pivot."""
        return echelon_solution(self.pivots, self.rows, len(self.points[0]) + 1)

    @cached_property
    def relation(self):
        """The one primitive affine relation m of the points, one entry
        per point, zero off their circuit and with its first nonzero
        entry positive; None when the points are affinely independent."""
        # the kernel has dimension #A - dim - 1, one more than the excess
        if len(self.kernel) > 1:
            raise PreconditionError(
                f"point set has {len(self.points)} points in dimension {self.rank - 1}:"
                f" {len(self.kernel) - 1} more than dim + 2")
        if not self.kernel:
            return None
        m = self.kernel[0]
        return tuple(m) if next(v for v in m if v) > 0 else tuple(-v for v in m)


def analyze_support(A) -> SupportAnalysis:
    """The SupportAnalysis of a nonempty point set, in its order."""
    pts = tuple(A)
    if not pts:
        raise PreconditionError("empty point set")
    return SupportAnalysis(pts, *echelon_rows([[1, *p] for p in pts]))


def affine_dim(A: PointSet) -> int:
    """Dimension of the affine span of A."""
    return analyze_support(A).rank - 1


def find_circuit(A: PointSet):
    """Locate the unique circuit inside A, if any.

    Requires #A <= affine_dim(A) + 2.  Returns (the SupportAnalysis of
    the circuit's points, their indices into A), or None when A is
    affinely independent.  When the circuit is all of A, that analysis is
    A's own.  Repeated points raise ValueError: they would form a
    two-point circuit.
    """
    an = analyze_support(A)
    m = an.relation
    if m is None:
        return None
    idx = [i for i, v in enumerate(m) if v]
    pts = PointSet(tuple(an.points[i] for i in idx))
    return (an if len(idx) == len(m) else analyze_support(pts)), idx


def interior_point(relation):
    """Index of the circuit point interior to the hull of the others.

    By the Radon sign rule this is the coordinate of the affine relation
    whose sign no other coordinate shares, zero entries ignored; None
    when both sign classes have at least two members.
    """
    pos = [i for i, v in enumerate(relation) if v > 0]
    neg = [i for i, v in enumerate(relation) if v < 0]
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
