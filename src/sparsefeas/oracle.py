"""Independent brute-force verifiers used to cross-check the decision
algorithms: Sturm sequences for exact univariate root counts, grid sign
scans for multivariate nonemptiness certificates, and exact big-integer
product comparison at guarded scale.

Nothing here shares code with the algorithms under test; that isolation
is the point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod

from .errors import PreconditionError, ScaleLimitError
from .sparsepoly import SparsePolynomial, evaluate

# ---------------------------------------------------------------------------
# dense integer univariate polynomial helpers (coefficient lists, low first)

# the dense list and the Sturm chain grow with the degree: four terms of
# degree 1,000 take 0.2 s, of degree 2,000 1 s (2 vCPUs, Python 3.11)
_STURM_MAX_DEGREE = 1000


def _dense(f: SparsePolynomial):
    if f.n != 1:
        raise PreconditionError("sturm_count expects a univariate polynomial")
    if f.is_laurent:
        raise PreconditionError("sturm_count expects nonnegative exponents")
    deg = max(t.exponents[0] for t in f.terms)
    if deg > _STURM_MAX_DEGREE:
        raise ScaleLimitError(f"degree {deg} exceeds the Sturm guard of {_STURM_MAX_DEGREE}")
    cs = [0] * (deg + 1)
    for t in f.terms:
        cs[t.exponents[0]] = t.coefficient
    return cs


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _primitive(p):
    g = gcd(*p) or 1
    return [c // g for c in p]


def _neg_prem(a, b):
    """Negated pseudo-remainder of a by b, scaled only by positive factors
    so sign variations of the chain behave like a genuine Sturm sequence."""
    r = _trim(list(a))
    db, lb = len(b) - 1, b[-1]
    mult = abs(lb)
    sign = 1 if lb > 0 else -1
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        lead = r[-1]
        r = [c * mult for c in r]
        for i in range(db + 1):
            r[i + shift] -= sign * lead * b[i]
        r = _trim(r)
    if not r:
        return []
    return _primitive([-c for c in r])


def _poly_gcd(a, b):
    a, b = _primitive(_trim(list(a))), _primitive(_trim(list(b)))
    while b:
        r = _neg_prem(a, b)
        a, b = b, r
    return a


def _exact_div(a, b):
    """Quotient of a by a primitive divisor b, computed in Z[x]: by Gauss's
    lemma it has integer coefficients, so every division below is exact."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(out))):
        q = a[shift + len(b) - 1] // b[-1]
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] -= q * c
    return out


def _eval(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def _sturm_chain(p):
    chain = [list(p), _deriv(p)]
    while chain[-1]:
        nxt = _neg_prem(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return [c for c in chain if c]


def _variations(values):
    """Sign changes along ``values``, zeros dropped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_at(chain, x):
    return _variations([_eval(p, x) for p in chain])


def _variations_inf(chain, positive: bool):
    """At +infinity each p has the sign of lc(p), at -infinity also times
    (-1)^deg(p)."""
    return _variations([p[-1] * (1 if positive else -1) ** (len(p) - 1) for p in chain])


def _check_bounds(lower, upper):
    if lower is not None and upper is not None and Fraction(lower) > Fraction(upper):
        raise PreconditionError(f"lower bound {lower} exceeds upper bound {upper}")


def _root_count(p, lower, upper):
    """Distinct real roots in (lower, upper] of the dense primitive p of
    degree >= 1, counted by the Sturm chain of its squarefree part."""
    g = _poly_gcd(p, _deriv(p))
    chain = _sturm_chain(_exact_div(p, g) if len(g) > 1 else p)
    lo = _variations_inf(chain, False) if lower is None else _variations_at(chain, Fraction(lower))
    hi = _variations_inf(chain, True) if upper is None else _variations_at(chain, Fraction(upper))
    return lo - hi


def sturm_count(f: SparsePolynomial, lower=None, upper=None) -> int:
    """Exact number of distinct real roots of f in (lower, upper].

    None endpoints mean -infinity / +infinity; lower > upper raises
    PreconditionError, and lower == upper counts 0.  Counting happens on
    the squarefree part, so multiplicities never inflate the answer.  A
    degree above 1,000 raises ScaleLimitError before anything is built.
    On a squarefree chain the variation count V is constant between roots
    and drops by one at each root, where it already takes the value to its
    right, so V(lower) - V(upper) counts (lower, upper] even at a root.
    """
    _check_bounds(lower, upper)
    p = _primitive(_trim(_dense(f)))
    return _root_count(p, lower, upper) if len(p) > 1 else 0


def multiple_root_count(f: SparsePolynomial, lower=None, upper=None) -> int:
    """Number of distinct roots of multiplicity >= 2 in (lower, upper]:
    the distinct roots of gcd(f, f')."""
    _check_bounds(lower, upper)
    p = _primitive(_trim(_dense(f)))
    if len(p) <= 1:
        raise PreconditionError("constant polynomial")
    g = _poly_gcd(p, _deriv(p))
    return _root_count(g, lower, upper) if len(g) > 1 else 0


# ---------------------------------------------------------------------------


# every point is evaluated exactly and its value kept until the scan ends
_GRID_MAX_POINTS = 10**5


def grid_scan(f: SparsePolynomial, box, resolution):
    """Scan a rational grid for a zero or an adjacent sign change.

    box is a list of (lo, hi) pairs per variable; resolution the grid
    step.  Returns {"zero": point} or {"sign_change": (p, q)} on success,
    None when the scan is inconclusive.  Absence is never an emptiness
    proof.  Grids of more than 10^5 points raise ScaleLimitError before
    any point is built.  A variable under a negative exponent is a pole
    at 0: grid points where it is 0 are skipped, and no sign change is
    paired across its sign.
    """
    if len(box) != f.n:
        raise PreconditionError("box dimension mismatch")
    h = Fraction(resolution)
    if h <= 0:
        raise PreconditionError("resolution must be positive")
    starts, counts = [], []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise PreconditionError("empty box")
        starts.append(lo)
        counts.append((hi - lo) // h + 1)
    total = prod(counts)
    if total > _GRID_MAX_POINTS:
        raise ScaleLimitError(
            f"grid of {total} points exceeds the scan guard of {_GRID_MAX_POINTS}"
        )
    axes = [[lo + i * h for i in range(count)] for lo, count in zip(starts, counts)]
    poles = [any(t.exponents[k] < 0 for t in f.terms) for k in range(f.n)]
    values: dict = {}
    for idx in product(*(range(len(a)) for a in axes)):
        point = tuple(axes[k][i] for k, i in enumerate(idx))
        if any(pole and x == 0 for pole, x in zip(poles, point)):
            continue
        v = evaluate(f, point)
        if v == 0:
            return {"zero": point}
        values[idx] = v
        for k in range(f.n):
            if idx[k] == 0 or (poles[k] and axes[k][idx[k] - 1] < 0 < point[k]):
                continue
            prev = idx[:k] + (idx[k] - 1,) + idx[k + 1 :]
            w = values.get(prev)
            if w is not None and (v > 0) != (w > 0):
                q = tuple(axes[t][i] for t, i in enumerate(prev))
                return {"sign_change": (q, point)}
    return None


# the bits of one expanded side, bounded as sum u_i * bitlength(|alpha_i|)
_PRODUCT_MAX_BITS = 2**19


def exact_product_compare(alphas, betas, us, vs) -> int:
    """Sign of prod alpha^u - prod beta^v by full expansion, guarded.

    Each side is bounded before it is expanded by sum u_i *
    bitlength(|alpha_i|); a side above 2^19 bits raises ScaleLimitError.
    A 0^0 term is undefined and a negative exponent is refused; both
    raise PreconditionError.
    """
    if not (len(alphas) == len(betas) == len(us) == len(vs)):
        raise PreconditionError("list length mismatch")
    for base, e in zip(list(alphas) + list(betas), list(us) + list(vs)):
        if base == 0 and e == 0:
            raise PreconditionError("0^0 term is not defined")
        if e < 0:
            raise PreconditionError("negative exponent")
    for bases, exps in ((alphas, us), (betas, vs)):
        bits = sum(e * abs(b).bit_length() for b, e in zip(bases, exps))
        if bits > _PRODUCT_MAX_BITS:
            raise ScaleLimitError(
                f"a product of up to {bits} bits exceeds the expansion guard"
                f" of {_PRODUCT_MAX_BITS}"
            )
    left = prod(a**u for a, u in zip(alphas, us))
    right = prod(b**v for b, v in zip(betas, vs))
    return (left > right) - (left < right)
