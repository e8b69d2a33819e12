"""Decision procedures for roots of sparse polynomials with few terms.

Three root sets of f are decided exactly:

* Z_+(f): roots with all coordinates positive,
* Z*(f):  roots with all coordinates nonzero,
* Z_R(f): all real roots,

for supports that are affinely independent (simplex case, #Supp = dim+1)
or contain a single circuit (#Supp = dim+2), where dim is the dimension
of the support's own affine span, whatever the number n of variables.
The positive-orthant classification goes beyond a verdict: it reports
whether Z_+ is empty, a single point, a singular point, a compact sphere,
or has only non-compact components.

A circuit support of d + 2 points is decided by one rule over its single
affine relation m, the coefficient signs on the Gale-dual facets and,
for a caged circuit, one comparison with its circuit number, all read
off one echelon elimination with primitive rows of the support
(geometry.analyze_support, whose full-length relation is the only form
of the circuit here).  None of these depends on n: when d < n, Z_+(f)
is the zero set in the support's span times R_+^(n - d), so a nonempty
class is ALL_NONCOMPACT and its certificate is computed in R^n.

feas_simplex's sign and parity rule decides all three sets of a simplex,
and certifies a sign change by a DominantPair: t = 1/N and two integer
directions w, so that t^w are the points, kept symbolic because their
coordinates have bit size linear in the exponents.
For a circuit, Z* is the positive-orthant question on every orthant of
R^n, decided by F_2 tests on the terms' sign generators and at most 3
sign classes rather than the 2^n orthants.  Once Z* is empty, Z_R has
only two more places to look: the origin and the singular point of the
circuit's own stratum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from .errors import FrozenRecord, PreconditionError, ScaleLimitError
from .discriminant import _degenerate_point
from .exactsign import binomial_sign
from .geometry import SupportAnalysis, analyze_support, facet_complements, interior_point
from .intlattice import primitive_vector
from .sparsepoly import SparsePolynomial

EMPTY = "EMPTY"
POINT_MULT_1 = "POINT_MULT_1"
SINGULAR_POINT = "SINGULAR_POINT"
COMPACT_SPHERE = "COMPACT_SPHERE"
ALL_NONCOMPACT = "ALL_NONCOMPACT"
NONEMPTY_UNCLASSIFIED = "NONEMPTY_UNCLASSIFIED"
_ZERO, _ONE = Fraction(0), Fraction(1)  # the coordinates of a simplex's root off (R*)^n


class FeasibilityReport(FrozenRecord):
    """Verdicts for the three root sets plus a Z_+ classification.

    Verdicts are "empty", "nonempty", or None when not evaluated.  The
    certificate, when present, is one of: an exact rational root, a
    DominantPair (a sign-change pair t^w in symbolic form, whose size is
    polynomial in the input), a facet normal, or a degenerate point
    description.
    """

    positive_orthant: str | None
    nonzero_reals: str | None
    all_reals: str | None
    classification: str
    certificate: object = None


class DominantPair(FrozenRecord):
    """A sign-change pair in symbolic form: the points x with x_k = t^w_k
    for the two directions of ``w``, with coordinate ``flip``, when not
    None, negated in both.  t = 1/N, so the record stays polynomial in the
    input's size however large the exponents; equality, hash and repr use
    these fields.  Iterating or indexing expands the two points into
    Fractions, and raises ScaleLimitError when a coordinate could pass
    MAX_BITS = 2^20 bits, bounded as |w_k| times the bit length of N."""

    t: Fraction
    w: tuple[tuple[int, ...], tuple[int, ...]]
    flip: int | None = None

    MAX_BITS = 1 << 20

    def __iter__(self):
        return iter(self._points())

    def __getitem__(self, i):
        return self._points()[i]

    def _points(self):
        """The two points: one Fraction t^w_k per distinct w_k, 1/N^w_k or
        N^-w_k, so the powers stay integers until the last step."""
        N = self.t.denominator
        if max(abs(wk) for w in self.w for wk in w) * N.bit_length() > self.MAX_BITS:
            raise ScaleLimitError(f"a sign-change point would pass {self.MAX_BITS} bits")
        powers = {}
        pair = []
        for w in self.w:
            for wk in w:
                if wk not in powers:
                    powers[wk] = Fraction(1, N**wk) if wk >= 0 else Fraction(N**-wk)
            point = [powers[wk] for wk in w]
            if self.flip is not None:
                point[self.flip] = -point[self.flip]
            pair.append(tuple(point))
        return tuple(pair)


def _sign_change_pair(an: SupportAnalysis, coeffs, flip=None) -> DominantPair:
    """The DominantPair of a polynomial with coefficients ``coeffs`` on
    the affinely independent support of ``an``: the directions w where its
    first positive and its first negative term dominate, so that it takes
    opposite signs at t^w > 0.  The columns S_j of an.solution sum to
    D e_0, so primitive(D e_0 - S_j) is the affine function (c, w) with
    values 1 - e_j: w . (a_i - a_j) = c > 0 for all i != j, and
    t = 1/N with N = 1 + sum |c_i| makes term j outweigh the rest.
    Coordinate ``flip``, when given, is negated in both points."""
    X = an.solution
    D = sum(X[0])
    ws = []
    for sign in (1, -1):
        j = next(j for j, c in enumerate(coeffs) if c * sign > 0)
        ws.append(tuple(primitive_vector([D - X[0][j]] + [-x[j] for x in X[1:]])[1:]))
    return DominantPair(Fraction(1, 1 + sum(abs(c) for c in coeffs)), tuple(ws), flip)


def feas_simplex(f: SparsePolynomial, an: SupportAnalysis | None = None) -> FeasibilityReport:
    """Decide all three root sets for an affinely independent support.

    Mixed coefficient signs make everything nonempty; otherwise an odd
    coordinate among the exponent differences rescues the nonzero and
    real sets.  Otherwise the terms left at a real point share one sign,
    and a root can set to 0 only free coordinates, under no negative
    exponent: there is one exactly when every term has a positive free
    exponent, at the point with the free coordinates 0 and the rest 1 (for
    a polynomial, the origin).  ``an`` is the support's analysis, when the
    caller has it.
    """
    an = an or analyze_support(t.exponents for t in f.terms)
    if len(f.terms) != an.rank:
        raise PreconditionError("support is not affinely independent")
    coeffs = [t.coefficient for t in f.terms]
    mixed = any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs)
    if mixed:
        cls = POINT_MULT_1 if f.n == 1 and len(coeffs) == 2 else ALL_NONCOMPACT
        cert = _sign_change_pair(an, coeffs)
        return FeasibilityReport("nonempty", "nonempty", "nonempty", cls, cert)
    base = f.terms[0].exponents
    odd = (
        i for t in f.terms for i, (e, b) in enumerate(zip(t.exponents, base)) if (e - b) % 2
    )
    i = next(odd, None)
    if i is not None:
        # flipping coordinate i mixes the signs there, on the same support
        # and with the same |c_j|
        flipped = [c * (-1) ** (t.exponents[i] % 2) for c, t in zip(coeffs, f.terms)]
        cert = _sign_change_pair(an, flipped, flip=i)
        return FeasibilityReport("empty", "nonempty", "nonempty", EMPTY, cert)
    exps = [t.exponents for t in f.terms]
    free = [min(col) >= 0 for col in zip(*exps)]
    if all(any(compress(a, free)) for a in exps):  # free exponents are >= 0
        cert = tuple(_ZERO if z else _ONE for z in free)
        return FeasibilityReport("empty", "empty", "nonempty", EMPTY, cert)
    return FeasibilityReport("empty", "empty", "empty", EMPTY)


def _caged_sign(m, coeffs):
    """The sign of |c_i| minus the circuit number when the circuit of
    ``m`` is caged (i = interior_point(m), and every other term j with
    m_j != 0 has the sign opposite to c_i), None otherwise: the integer
    comparison |c_i|^|m_i| prod |m_j|^|m_j| vs |m_i|^|m_i| prod |c_j|^|m_j|."""
    i = interior_point(m)
    on = [j for j, v in enumerate(m) if v]
    if i is None or any((coeffs[j] > 0) == (coeffs[i] > 0) for j in on if j != i):
        return None
    left = [abs(coeffs[j] if j == i else m[j]) for j in on]
    right = [abs(m[j] if j == i else coeffs[j]) for j in on]
    e = [abs(m[j]) for j in on]
    return binomial_sign(left, right, e, e)


def _circuit_class(m, coeffs):
    """The class of Z_+ for ``coeffs`` on d + 2 points whose one affine
    relation is ``m`` (zero off their circuit), in their own span of
    dimension d, and the mixed facet complements when step 1 decides it
    (None otherwise)."""
    # Step 1: the d-term facets A minus {p, q}, m_p > 0 > m_q, mixed when
    # a positive and a negative coefficient are left once c_p and c_q are
    # counted out; a face of one term (d = 1) never mixes
    pos = len([c for c in coeffs if c > 0])
    neg = len([c for c in coeffs if c < 0])
    mixed = [
        (p, q) for p, q in facet_complements(m)
        if pos > (coeffs[p] > 0) + (coeffs[q] > 0) and neg > (coeffs[p] < 0) + (coeffs[q] < 0)
    ]
    if mixed:
        return ALL_NONCOMPACT, mixed

    sign = _caged_sign(m, coeffs)
    # Step 2: a pyramid over the circuit terms, whose facets step 1 saw
    if 0 in m:
        return NONEMPTY_UNCLASSIFIED if sign == 1 else EMPTY, None
    # Step 3: the whole support is the circuit
    if sign is not None:
        return (EMPTY, SINGULAR_POINT, COMPACT_SPHERE)[sign + 1], None
    if len(coeffs) == 3 and min(coeffs) < 0 < max(coeffs):
        return POINT_MULT_1, None  # d = 1: the segment's ends differ
    return EMPTY, None


def classify_positive(f: SparsePolynomial, an: SupportAnalysis | None = None):
    """(classification, certificate) for Z_+(f): a simplex support goes to
    feas_simplex, anything else to feas_circuit.  ``an`` is the support's
    analysis, when the caller has it."""
    an = an or analyze_support(t.exponents for t in f.terms)
    rep = feas_simplex(f, an) if len(f.terms) == an.rank else feas_circuit(f, an)
    return rep.classification, rep.certificate


def feas_circuit(f: SparsePolynomial, an: SupportAnalysis | None = None) -> FeasibilityReport:
    """Classify Z_+(f) for a support A of d + 2 points spanning dimension d.

    The support analysis ``an`` (built here when the caller has none)
    gives the one affine relation m of A; more points raise
    PreconditionError.  The class depends only on m and the coefficients,
    so it is decided in A's own span.

    Step 1: by Gale duality (see facet_complements) the facets of d terms
    are A minus {p, q} with m_p > 0 > m_q.  One with mixed signs makes a
    non-compact branch, certified by the smallest such facet normal: w of
    the affine function with values -m_q at p, m_p at q and 0 elsewhere.

    Step 2: in a pyramid (some m_j = 0) that step 1 leaves, the apexes
    have the sign s of the circuit's vertices.  A monomial change of
    variables on the open orthant writes f as g(y) + sum_j c_j z_j, with
    g the circuit terms, so Z_+ is a graph, or an open-simplex bundle,
    over {-s g > 0}.  Each facet of g, with the apexes added, is a facet
    that step 1 saw, so g alone is EMPTY, SINGULAR_POINT or
    COMPACT_SPHERE, and the pyramid is nonempty (reported
    NONEMPTY_UNCLASSIFIED) exactly when g is COMPACT_SPHERE: by step 3,
    when g is caged and |c_i| exceeds its circuit number.

    Step 3: in a caged circuit, the interior term i of sign opposite to
    every other term's, |c_i| below the circuit number
    Theta = |m_i| prod_j (|c_j| / |m_j|)^(|m_j| / |m_i|) leaves Z_+ empty,
    equal makes one singular point (certified by degenerate_point) and
    above a compact sphere.  Otherwise, for d = 1 the segment's two ends
    of different signs give one simple root, and all else is empty.

    Z_+(f) is the zero set in A's span times R_+^(n - d), so when d < n
    every nonempty class becomes ALL_NONCOMPACT, with the same
    certificate, computed in R^n.
    """
    an = an or analyze_support(t.exponents for t in f.terms)
    m = an.relation  # more than dim + 2 points raise here
    if not m:
        raise PreconditionError("circuit case needs exactly dim + 2 terms")
    coeffs = [t.coefficient for t in f.terms]
    cls, mixed = _circuit_class(m, coeffs)
    cert = None
    if cls == ALL_NONCOMPACT:
        X = an.solution  # values -m_q at p, m_p at q: orthogonal to m
        normal = min(primitive_vector([m[p] * x[q] - m[q] * x[p] for x in X])[1:] for p, q in mixed)
        cert = {"facet_normal": list(normal)}
    elif cls == SINGULAR_POINT:
        cert = _degenerate_point(an, coeffs)
    if cls != EMPTY and an.rank <= f.n:
        cls = ALL_NONCOMPACT
    verdict = "empty" if cls == EMPTY else "nonempty"
    return FeasibilityReport(verdict, None, None, cls, cert)


def feas_real_full(f: SparsePolynomial) -> FeasibilityReport:
    """Decide Z_+, Z*, and Z_R: a simplex by feas_simplex, a circuit by
    F_2 sign classes on all its terms and on one closed term set.

    Requires polynomial (nonnegative) exponents.  feas_simplex's rule is
    complete on a simplex: with one coefficient sign and all exponent
    differences even, a constant term forces every exponent to be even,
    so f keeps that sign on all of R^n; without a constant term the
    origin is a root.

    For a circuit C, an orthant delta of (R*)^n gives the terms the signs
    sign(c_j) (-1)^<delta, a_j mod 2>: over all delta, the affine F_2
    space that neg plus the parity columns span.  The space is nonconstant
    on a term set T exactly when a generator is, so has_roots tests
    generators before it lists a span: with each one 0 or T, T has one
    sign; a generator nonconstant on a pair facet T - {p, q} fires the
    circuit rule's step 1.  Otherwise every generator is constant on every
    pair facet.  With more than three terms the facets overlap, so each
    generator is constant on all of T or off the one term alone on its
    side of m, which leaves at most one class up to sign (a three-term T
    has at most three), and the circuit rule decides each from m
    restricted to T and the signed |c_j|.

    Z_R adds the strata with some coordinates zero, each restricting f to
    the closed term set T of the terms whose support avoids them.  Once
    Z* is empty, a restriction that took both signs on its stratum would
    make f take both signs in one nearby open orthant, so a restriction
    with a root there keeps one sign.  A simplex and every nonempty class
    but SINGULAR_POINT change sign, and SINGULAR_POINT needs T = C; a
    closed T that is C is cl(C), the terms supported inside the union of
    C's supports.  The only other candidate is the origin, T = cl({}), a
    root exactly when no term is constant.
    """
    if f.is_laurent:
        raise PreconditionError("real-set dispatch requires polynomial exponents")
    an = analyze_support(t.exponents for t in f.terms)
    if len(f.terms) == an.rank:
        return feas_simplex(f, an)
    rep = feas_circuit(f, an)
    cls, cert = rep.classification, rep.certificate
    if cls != EMPTY:
        return FeasibilityReport("nonempty", "nonempty", "nonempty", cls, cert)
    # term sets and sign vectors are bit masks over the term indices
    terms = f.terms
    full = (1 << len(terms)) - 1

    def mask(pred):
        return sum(1 << j for j, t in enumerate(terms) if pred(t))

    neg = mask(lambda t: t.coefficient < 0)
    parity = [mask(lambda t: t.exponents[i] % 2) for i in range(f.n)]
    m = an.relation
    pairs = facet_complements(m)  # m is zero off C, so these serve every T >= C

    def has_roots(T):
        """Whether the terms T, which hold C, have a root in some open
        orthant."""
        flips = {col & T for col in parity}
        gens = flips | {neg & T}
        if gens <= {0, T}:
            return False  # one sign throughout
        facets = [T & ~(1 << p | 1 << q) for p, q in pairs]
        if any(g & F not in (0, F) for g in gens for F in facets):
            return True  # the circuit rule's step 1
        span = {0}
        for col in flips:
            if col not in span:
                span |= {v ^ col for v in span}
        classes = {min(x, x ^ T) for x in ((neg & T) ^ v for v in span)} - {0}
        on = [j for j in range(len(terms)) if T >> j & 1]
        mT = [m[j] for j in on]
        return any(
            _circuit_class(mT, [
                (-1) ** (x >> j & 1) * abs(terms[j].coefficient) for j in on
            ])[0] != EMPTY
            for x in classes
        )

    if has_roots(full):
        return FeasibilityReport("empty", "nonempty", "nonempty", cls, cert)
    u_C = {i for v, t in zip(m, terms) if v for i, e in enumerate(t.exponents) if e}
    cl_C = mask(lambda t: all(i in u_C for i, e in enumerate(t.exponents) if e))
    # the origin, cl({}), or the circuit's own stratum, cl(C)
    real = all(any(t.exponents) for t in terms) or (cl_C != full and has_roots(cl_C))
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
    if an.rank == n + 1 and an.relation and all(an.relation):
        meets_interior = interior_point(an.relation) is not None
    report = {
        "n": n,
        "classification": cls,
        "bounds": bounds,
        "support_meets_hull_interior": meets_interior,
        "N_comp": int(cls in (POINT_MULT_1, SINGULAR_POINT, COMPACT_SPHERE)),
    }
    if n == 1:
        # every class at n = 1 is EMPTY or compact, and S⁰ is two points
        report["positive_roots"] = report["N_comp"] + (cls == COMPACT_SPHERE)
        if cls == COMPACT_SPHERE:
            report["pair_label"] = "S⁰"
    # an EMPTY class may carry a point pair outside the positive orthant
    if cert is not None and cls != EMPTY:
        report["certificate"] = cert
    return report
