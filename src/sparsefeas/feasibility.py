"""Decision procedures for roots of sparse polynomials with few terms.

Three root sets of f are decided exactly:

* Z_+(f): roots with all coordinates positive,
* Z*(f):  roots with all coordinates nonzero,
* Z_R(f): all real roots,

for supports that are affinely independent (simplex case, #Supp = dim+1)
or contain a single circuit (#Supp = dim+2).  The positive-orthant
classification goes beyond a verdict: it reports whether Z_+ is empty, a
single point, a singular point, a compact sphere, or has only
non-compact components.

Z* and Z_R reduce to positive-orthant questions on the strata of R^n (a
set of zero coordinates and an orthant of the rest).  A stratum matters
only through the terms it keeps and their signs, so feas_real_full visits
the closed term subsets and the F_2 classes of term signs, at most
2^#terms of each, rather than the 3^n strata.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .discriminant import (
    CircuitDiscriminant,
    DegeneratePoint,
    adisc_sign,
    degenerate_point,
)
from .geometry import (
    SupportAnalysis,
    affine_function,
    analyze_support,
    caged_alternation,
    facet_complements,
    facet_values,
    interior_point,
)
from .intlattice import hermite_factor
from .sparsepoly import SparsePolynomial, make_polynomial

EMPTY = "EMPTY"
POINT_MULT_1 = "POINT_MULT_1"
SINGULAR_POINT = "SINGULAR_POINT"
COMPACT_SPHERE = "COMPACT_SPHERE"
ALL_NONCOMPACT = "ALL_NONCOMPACT"
NONEMPTY_UNCLASSIFIED = "NONEMPTY_UNCLASSIFIED"


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdicts for the three root sets plus a Z_+ classification.

    Verdicts are "empty", "nonempty", or None when not evaluated.  The
    certificate, when present, is one of: an exact rational root, a
    sign-change pair of rational points, a facet normal, or a degenerate
    point description.
    """

    positive_orthant: Optional[str]
    nonzero_reals: Optional[str]
    all_reals: Optional[str]
    classification: str
    certificate: object = None


def _translated_exponents(f: SparsePolynomial):
    """Exponent vectors relative to the first support point (which becomes
    the origin); harmless on the open orthants where monomials are units."""
    base = f.terms[0].exponents
    return [tuple(e - b for e, b in zip(t.exponents, base)) for t in f.terms]


def _dominant_point(f: SparsePolynomial, j: int, an: SupportAnalysis):
    """A rational point t^w in the positive orthant where term j dominates,
    so that sign f(x) = sign c_j.  The affine function (c, w) with values
    1 - e_j at the affinely independent support gives w . (a_i - a_j) =
    s > 0 for all i != j, and t = 1/(1 + sum |c_i|)."""
    _, w = affine_function(an, [int(i != j) for i in range(len(f.terms))])
    t = Fraction(1, 1 + sum(abs(term.coefficient) for term in f.terms))
    return tuple(t ** wk for wk in w)


def _sign_change_pair(f: SparsePolynomial, an: SupportAnalysis):
    """Two positive rational points where f takes opposite signs; requires
    mixed coefficient signs and affinely independent support."""
    jp = next(i for i, t in enumerate(f.terms) if t.coefficient > 0)
    jn = next(i for i, t in enumerate(f.terms) if t.coefficient < 0)
    return _dominant_point(f, jp, an), _dominant_point(f, jn, an)


def feas_simplex(f: SparsePolynomial, an: SupportAnalysis | None = None) -> FeasibilityReport:
    """Decide all three root sets for an affinely independent support.

    Mixed coefficient signs make everything nonempty; otherwise an odd
    coordinate among the exponent differences rescues the nonzero and
    real sets; otherwise only the origin can be a root.  ``an`` is the
    support's analysis, when the caller has it.
    """
    an = an or analyze_support(t.exponents for t in f.terms)
    if len(f.terms) != an.rank:
        raise PreconditionError("support is not affinely independent")
    coeffs = [t.coefficient for t in f.terms]
    mixed = any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs)
    if mixed:
        cls = POINT_MULT_1 if f.n == 1 and len(coeffs) == 2 else ALL_NONCOMPACT
        cert = _sign_change_pair(f, an)
        return FeasibilityReport("nonempty", "nonempty", "nonempty", cls, cert)
    exps = _translated_exponents(f)
    odd = None
    for j in range(1, len(exps)):
        for i in range(f.n):
            if exps[j][i] % 2 == 1:
                odd = (i, j)
                break
        if odd:
            break
    if odd is not None:
        # flipping coordinate i mixes the signs there, on the same support
        i = odd[0]
        flipped = make_polynomial(
            f.n,
            [
                (t.exponents, t.coefficient * (-1) ** (t.exponents[i] % 2))
                for t in f.terms
            ],
        )
        p, q = _sign_change_pair(flipped, an)
        cert = (
            tuple(-v if k == i else v for k, v in enumerate(p)),
            tuple(-v if k == i else v for k, v in enumerate(q)),
        )
        return FeasibilityReport("empty", "nonempty", "nonempty", EMPTY, cert)
    if f.is_laurent:
        return FeasibilityReport("empty", "empty", "empty", EMPTY)
    origin_root = all(any(e > 0 for e in t.exponents) for t in f.terms)
    if origin_root:
        cert = tuple([Fraction(0)] * f.n)
        return FeasibilityReport("empty", "empty", "nonempty", EMPTY, cert)
    return FeasibilityReport("empty", "empty", "empty", EMPTY)


def reduce_dimension(f: SparsePolynomial):
    """Rewrite f in dim Supp(f) variables via a unimodular substitution.

    Returns (g, U): the exponents of f, translated to the first support
    point, are mapped by a -> U a into Z^d x {0}, and g keeps the same
    coefficients.  Root sets in the open orthants correspond exactly.
    """
    exps = _translated_exponents(f)
    H, U = hermite_factor([[e[i] for e in exps] for i in range(f.n)])
    d = sum(1 for row in H if any(row))  # the rank: the affine dimension
    if d >= f.n:
        raise PreconditionError("support already spans full dimension")
    g = make_polynomial(
        max(d, 1),
        [
            (tuple(H[r][col] for r in range(max(d, 1))), f.terms[col].coefficient)
            for col in range(len(exps))
        ],
    )
    return g, U


def _pull_back_point(point, U, n):
    """Map a positive rational point of the reduced instance back through
    the substitution with matrix U (x_j = prod_i y_i^{U[i][j]})."""
    y = list(point) + [Fraction(1)] * (n - len(point))
    out = []
    for j in range(n):
        v = Fraction(1)
        for i in range(n):
            e = U[i][j]
            if e:
                v *= Fraction(y[i]) ** e
        out.append(v)
    return tuple(out)


def _lift(U, v):
    """U^T (v, 0, ..., 0): an exponent-space vector of the reduced instance
    (a weight, or the log-coordinates of a point) pulled back through U."""
    return [sum(U[i][j] * vi for i, vi in enumerate(v)) for j in range(len(U))]


def _pull_back(cert, U, n):
    """Map a circuit certificate of the reduced instance back to Z_+(f)."""
    if isinstance(cert, DegeneratePoint):
        cols = [_lift(U, col) for col in zip(*cert.mixing)]
        mixing = tuple(tuple(col[j] for col in cols) for j in range(n))
        coords = cert.coordinates
        if coords is not None:
            coords = _pull_back_point(coords, U, n)
        return DegeneratePoint(cert.rhos, cert.orders, mixing, coords)
    if isinstance(cert, dict):
        return {"facet_normal": _lift(U, cert["facet_normal"])}
    return cert


def classify_positive(f: SparsePolynomial, an: SupportAnalysis | None = None):
    """(classification, certificate) for Z_+(f), dispatching on the support
    shape: a simplex goes to feas_simplex, a circuit to feas_circuit.
    ``an`` is the support's analysis, when the caller has it.

    A circuit support of affine dimension d < n is first reduced to d
    variables.  Z_+(f) is then Z_+(g) x R_+^(n-d), so every nonempty
    class becomes ALL_NONCOMPACT, and the certificate is pulled back.
    """
    an = an or analyze_support(t.exponents for t in f.terms)
    if len(f.terms) > an.rank + 1:
        raise PreconditionError("more than dim + 2 support points")
    if len(f.terms) == an.rank:
        rep = feas_simplex(f, an)
        return rep.classification, rep.certificate
    if an.rank <= f.n:
        g, U = reduce_dimension(f)
        rep = feas_circuit(g)
        cls = EMPTY if rep.classification == EMPTY else ALL_NONCOMPACT
        return cls, _pull_back(rep.certificate, U, f.n)
    rep = feas_circuit(f, an)
    return rep.classification, rep.certificate


def feas_circuit(f: SparsePolynomial, an: SupportAnalysis | None = None) -> FeasibilityReport:
    """Classify Z_+(f) for a support of n + 2 points spanning R^n.

    The support analysis ``an`` (built here when the caller has none)
    gives the affine relation m of the support (one of lower dimension
    has two, and raises PreconditionError).  Step 1: by Gale duality (see
    facet_normals) the facets of n terms are A minus {p, q} with
    m_p > 0 > m_q, affinely independent since a relation among them would
    be a multiple of m vanishing at p; the apex facets have n + 1 terms.
    A simplex face with mixed signs makes a non-compact branch, certified
    by the smallest such facet normal: the affine function with the
    facet_values -m_q at p and m_p at q, one back substitution each.
    Step 2: a degenerate circuit recurses on the circuit terms in the
    dimension they span.  Step 3: a caged sign alternation routes through
    the circuit discriminant (vanishing: one singular point; matching
    sign: a compact sphere).  Everything else is empty.
    """
    n = f.n
    if len(f.terms) != n + 2:
        raise PreconditionError("circuit case needs exactly dim + 2 terms")
    an = an or analyze_support(t.exponents for t in f.terms)
    exps = _translated_exponents(f)
    coeffs = [t.coefficient for t in f.terms]
    C, idx = an.circuit
    rel = dict(zip(idx, C.relation))

    # Step 1: a mixed n-term facet; its normal certifies the branch
    if n >= 2:
        m = [rel.get(j, 0) for j in range(n + 2)]
        normals = []
        for out in facet_complements(m):
            face = [c for j, c in enumerate(coeffs) if j not in out]
            if len(face) == n and min(face) < 0 < max(face):
                normals.append(affine_function(an, facet_values(m, out))[1])
        if normals:
            cert = {"facet_normal": list(min(normals))}
            return FeasibilityReport("nonempty", None, None, ALL_NONCOMPACT, cert)

    # Step 2: degenerate circuit -> classify the circuit terms alone, in
    # the dimension they span
    if len(idx) < len(exps):
        if interior_point(C) is not None:
            h = make_polynomial(n, [(exps[i], coeffs[i]) for i in idx])
            cls = feas_circuit(reduce_dimension(h)[0]).classification
            if cls in (ALL_NONCOMPACT, COMPACT_SPHERE, NONEMPTY_UNCLASSIFIED):
                return FeasibilityReport(
                    "nonempty", None, None, NONEMPTY_UNCLASSIFIED
                )
        return FeasibilityReport("empty", None, None, EMPTY)

    # Step 3: the whole support is a circuit
    ip = interior_point(C)
    if ip is not None:
        signs = [1 if coeffs[i] > 0 else -1 for i in idx]
        if n == 1:
            order = sorted(range(len(idx)), key=lambda k: exps[idx[k]][0])
            seq = [signs[k] for k in order]
            alternations = sum(
                1 for a, b in zip(seq, seq[1:]) if a != b
            )
            if alternations == 1:
                return FeasibilityReport("nonempty", None, None, POINT_MULT_1)
        if caged_alternation(C, signs) is not None:
            ccoeffs = [coeffs[i] for i in idx]
            if any(signs[j] < 0 for j in range(len(idx)) if j != ip):
                ccoeffs = [-c for c in ccoeffs]
            D = CircuitDiscriminant(C, tuple(ccoeffs))
            sign = adisc_sign(D)
            if sign == 0:
                dp = degenerate_point(D)
                return FeasibilityReport(
                    "nonempty", None, None, SINGULAR_POINT, dp
                )
            target = 1 if C.relation[ip] % 2 == 0 else -1
            if sign == target:
                return FeasibilityReport(
                    "nonempty", None, None, COMPACT_SPHERE
                )

    # Step 4
    return FeasibilityReport("empty", None, None, EMPTY)


def feas_real_full(f: SparsePolynomial) -> FeasibilityReport:
    """Decide Z_+, Z*, and Z_R over term subsets and F_2 sign classes.

    Requires polynomial (nonnegative) exponents.  A stratum (some
    coordinates zero, the rest of fixed sign) leaves the terms T whose
    support avoids the zero coordinates, with term signs
    sign(c_j) (-1)^<delta, a_j mod 2>: an affine map over F_2 of the
    orthant delta.  The strata's sets T are the closed term subsets, those
    holding every term supported inside their own union of supports.  An
    empty T (no constant term) is a root at the origin.  A T without the
    circuit is affinely independent, so it has roots exactly when some
    reachable sign vector is mixed.  Only a T holding the circuit asks
    classify_positive, once per reachable sign vector up to negation.
    Z* is the question on T = all terms; Z_R adds the proper closed T.
    """
    if f.is_laurent:
        raise PreconditionError("real-set dispatch requires polynomial exponents")
    an = analyze_support(t.exponents for t in f.terms)
    cls, cert = classify_positive(f, an)
    if cls != EMPTY:
        return FeasibilityReport("nonempty", "nonempty", "nonempty", cls, cert)
    # term sets and sign vectors are bit masks over the term indices
    terms = f.terms
    full = (1 << len(terms)) - 1

    def mask(pred):
        return sum(1 << j for j, t in enumerate(terms) if pred(t))

    neg = mask(lambda t: t.coefficient < 0)
    parity = [mask(lambda t: t.exponents[i] % 2) for i in range(f.n)]
    supp = [sum(1 << i for i, e in enumerate(t.exponents) if e) for t in terms]
    circuit = sum(1 << j for j in an.circuit[1]) if an.circuit else None

    def has_roots(T, known_empty=None):
        """Whether the terms T have a root in some open orthant, given the
        class (a sign vector up to negation) of one known to be empty."""
        if not T:
            return True
        flips = {0}  # the F_2 span of the parity columns on T
        for col in parity:
            if col & T not in flips:
                flips |= {v ^ (col & T) for v in flips}
        classes = {min(x, x ^ T) for x in ((neg ^ v) & T for v in flips)}
        classes -= {0, known_empty}  # class 0: one sign throughout, no root
        if circuit is None or circuit & T != circuit:
            return bool(classes)  # a simplex has roots iff its signs mix
        for x in classes:
            g = make_polynomial(f.n, [
                (t.exponents, (-1) ** (x >> j & 1) * abs(t.coefficient))
                for j, t in enumerate(terms) if T >> j & 1
            ])
            if classify_positive(g)[0] != EMPTY:
                return True
        return False

    if has_roots(full, known_empty=min(neg, neg ^ full)):
        return FeasibilityReport("empty", "nonempty", "nonempty", cls, cert)
    unions = {0}
    for s in supp:
        unions |= {u | s for u in unions}
    closed = (sum(1 << j for j, s in enumerate(supp) if not s & ~u) for u in unions)
    real = any(has_roots(T) for T in closed if T != full)
    return FeasibilityReport(
        "empty", "empty", "nonempty" if real else "empty", cls, cert
    )


_NON_BOUNDS = {1: 0, 2: 2, 3: 6, 4: 9}


def topology_report(f: SparsePolynomial) -> dict:
    """Bounds and exact data for the topology of Z_+(f).

    Reports the compact/non-compact component bounds for the instance's
    dimension, whether the support meets the interior of its hull (when
    it does not, no compact component can exist), the exact
    classification, and exact positive root counts for n = 1.
    """
    n = f.n
    an = analyze_support(t.exponents for t in f.terms)
    cls, cert = classify_positive(f, an)
    bounds = {
        "N_comp": 1,
        "N_non": _NON_BOUNDS.get(n, 2 * n + 2),
    }
    meets_interior = False
    if an.rank == n + 1 and an.circuit and len(an.circuit[1]) == len(f.terms):
        meets_interior = interior_point(an.circuit[0]) is not None
    n_comp = {
        EMPTY: 0,
        ALL_NONCOMPACT: 0,
        NONEMPTY_UNCLASSIFIED: 0,
        POINT_MULT_1: 1,
        SINGULAR_POINT: 1,
        COMPACT_SPHERE: 1,
    }[cls]
    report = {
        "n": n,
        "classification": cls,
        "bounds": bounds,
        "support_meets_hull_interior": meets_interior,
        "N_comp": n_comp,
    }
    if n == 1:
        counts = {
            EMPTY: 0,
            POINT_MULT_1: 1,
            SINGULAR_POINT: 1,
            COMPACT_SPHERE: 2,
            ALL_NONCOMPACT: 1,
            NONEMPTY_UNCLASSIFIED: None,
        }[cls]
        report["positive_roots"] = counts
        if cls == COMPACT_SPHERE:
            report["pair_label"] = "S⁰"
    # an EMPTY class may carry a point pair outside the positive orthant
    if cert is not None and cls != EMPTY:
        report["certificate"] = cert
    return report
