"""Exact equality and sign tests for differences of monomial products.

The central question answered here: given integers alpha_i, beta_i and
natural exponents u_i, v_i, what is the sign of

    prod_i alpha_i^{u_i}  -  prod_i beta_i^{v_i}

when the products may be astronomically large?  Input is validated in
one pass of C-level builtins, and checked in detail only when that fails;
the ``FEWNO_MAX_BITS`` budget is read and validated on every sign call.
Each product's bit size is bounded by one sum of u_i * bitlength(alpha_i),
without multiplying.  When both bounds are at most ``_EXPAND_BITS`` =
2^12, the products are expanded and compared.  That is the crossover for
the case least favourable to expansion, small bases with large exponents
(2 vCPUs, Python 3.11, cold log cache, first 32-bit enclosures
deciding): 4,096-bit products expand in 40 us against 49 us for the
logs, 16,384-bit ones in 363 us against 50 us.  Near ties favour
expansion at any size, since the logs then need several precision
doublings and a gcd-free basis.  Above the gate nothing is expanded:
equality is decided combinatorially through a gcd-free basis, and strict
inequality through interval enclosures of logarithms at adaptively
doubled precision.  Refinement terminates because two unequal products
of integers cannot have arbitrarily close logarithms.

Logarithms are computed in integer fixed point (Brent, J. ACM 1976).
With 2^k <= n < 2^(k+1) and z = (n - 2^k)/(n + 2^k) in [0, 1/3),

    ln n = 2k * atanh(1/3) + 2 * atanh(z).

Each atanh series runs on a Python int scaled by 2^guard: for z = p/q the
power starts at floor(p * 2^guard / q) and steps to
floor(power * p^2 / q^2).  Every truncation rounds down, so the series
sum is a lower bound, and the error is counted in ulps (units of
2^-guard): each truncation of the power adds at most 1 ulp, each term at
most 2, and the geometric tail after the last nonzero power (at most 9/8
of the next power) at most 2 more.  A series of t terms is thus exact to
2t + 2 ulps; ``_log_fixed`` scales that by at most 2k + 2 and chooses
guard so the width stays <= 2^(1-bits).  The atanh(1/3) enclosure is
computed once per guard and cached, and ``_log_fixed`` keeps its 4,096
most recently used (n, bits) enclosures.  Each round sums both sides'
enclosures in one loop, as exact integers at their finest dyadic scale.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import gcd, prod
from operator import mul

from .errors import FrozenRecord, PreconditionError, PrecisionLimitError

_MAX_BITS_ENV = "FEWNO_MAX_BITS"
_DEFAULT_MAX_BITS = 1 << 20
# products whose bit-size bounds are both at most this are expanded
_EXPAND_BITS = 1 << 12


class GcdFreeBasis(FrozenRecord):
    """Pairwise-coprime integers > 1 with a factorization of each input.

    input i reconstructs exactly as prod_j gammas[j] ** exponent_matrix[i][j].
    """

    gammas: tuple[int, ...]
    exponent_matrix: tuple[tuple[int, ...], ...]


def _split_powers(a: int, g: int):
    """(k, a / g^k) for the largest k with g^k | a, g > 1: divide by g,
    g^2, g^4, ... while they divide, then by the same powers from the top
    while they still do, the binary digits of the rest of k.  O(log k)
    divisions, each of the quotient so far rather than of a."""
    powers = []
    while True:
        q, r = divmod(a, g)
        if r:
            break
        powers.append(g)
        a = q
        g *= g
    k = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        q, r = divmod(a, powers[i])
        if not r:
            a = q
            k += 1 << i
    return k, a


def gcd_free_basis(alphas) -> GcdFreeBasis:
    """Factor-refinement gcd-free basis of a list of integers >= 1: the
    coarsest pairwise coprime set over which every input factors, as in
    Bach, Driscoll and Shallit (J. Algorithms 1993)."""
    alphas = [int(a) for a in alphas]
    if any(a < 1 for a in alphas):
        raise PreconditionError("gcd_free_basis requires integers >= 1")
    basis = set(alphas) - {1}
    # a pair with g = gcd(a, b) > 1 becomes g and a, b with every power of
    # g split out, whose products give back a and b: every input stays a
    # product of basis elements, so dividing it out below always leaves 1.
    # Each prime's exponents over the set change by an invertible linear
    # map that fixes their gcd, so the coarsest basis is unchanged
    while pair := next((p for p in combinations(basis, 2) if gcd(*p) > 1), None):
        g = gcd(*pair)
        basis = basis - set(pair) | {g, *(_split_powers(a, g)[1] for a in pair)} - {1}
    basis = sorted(basis)
    matrix = []
    for a in alphas:
        row = []
        for g in basis:
            e, a = _split_powers(a, g)
            row.append(e)
        matrix.append(tuple(row))
    return GcdFreeBasis(tuple(basis), tuple(matrix))


def _check_product_lists(alphas, betas, us, vs):
    if not (len(alphas) == len(betas) == len(us) == len(vs)):
        raise PreconditionError("product description lists must share a length")
    if len(alphas) == 0:
        raise PreconditionError("empty product description")
    if any(u < 0 for u in us) or any(v < 0 for v in vs):
        raise PreconditionError("exponents must be natural numbers")
    for base, exp in list(zip(alphas, us)) + list(zip(betas, vs)):
        if base == 0 and exp == 0:
            raise PreconditionError("0^0 term is not defined")


def _expandable(bases, exps) -> bool:
    """Whether prod bases^exps has a bit-size bound of at most _EXPAND_BITS,
    without multiplying; bases of magnitude <= 1 contribute nothing."""
    total = sum(map(mul, exps, map(int.bit_length, bases)))
    if total > _EXPAND_BITS and (1 in bases or -1 in bases):
        total -= sum([exp for base, exp in zip(bases, exps) if base in (1, -1)])
    return total <= _EXPAND_BITS


def _expand(bases, exps) -> int:
    return prod(base**exp for base, exp in zip(bases, exps))


def binomial_vanish(alphas, betas, us, vs) -> bool:
    """Whether prod alpha_i^{u_i} equals prod beta_i^{v_i} as integers.

    Small products are expanded; larger ones are decided without
    expanding: sign parity first, then comparison of exponent vectors over
    a common gcd-free basis of the magnitudes.
    """
    # with no zero base there is no 0^0 term
    if not (0 < len(alphas) == len(betas) == len(us) == len(vs) and min(us) >= 0
            and min(vs) >= 0 and 0 not in alphas and 0 not in betas):
        _check_product_lists(alphas, betas, us, vs)
    if _expandable(alphas, us) and _expandable(betas, vs):
        return _expand(alphas, us) == _expand(betas, vs)
    left_zero = any(a == 0 and u > 0 for a, u in zip(alphas, us))
    right_zero = any(b == 0 and v > 0 for b, v in zip(betas, vs))
    if left_zero or right_zero:
        return left_zero and right_zero
    left_neg = sum(u for a, u in zip(alphas, us) if a < 0) % 2
    right_neg = sum(v for b, v in zip(betas, vs) if b < 0) % 2
    if left_neg != right_neg:
        return False
    rows = gcd_free_basis(list(map(abs, alphas)) + list(map(abs, betas))).exponent_matrix
    n = len(alphas)
    # the exponent of each basis element in each product
    left = [sum(map(mul, us, col)) for col in zip(*rows[:n])]
    right = [sum(map(mul, vs, col)) for col in zip(*rows[n:])]
    return left == right


def _atanh_fixed(p: int, q: int, guard: int):
    """atanh(p/q) for 0 <= p/q <= 1/3 in fixed point: ``(low, width)`` with
    low <= atanh(p/q) * 2^guard <= low + width.

    Every truncation rounds down, so the partial sum never overshoots.
    The power z^(2j+1) * 2^guard loses less than 1 ulp per step, and the
    error it carries shrinks by z^2 <= 1/9, so it stays below 9/8 ulp; a
    term power // (2j+1) therefore loses less than 2 ulps.  The series
    stops at the first power that truncates to 0.  That power is below
    9/8 ulp, and the geometric tail bound (the rest of the series is at
    most 9/8 of the next power) puts the tail below 2 ulps.
    """
    if p == 0:
        return 0, 0
    pp, qq = p * p, q * q
    power = (p << guard) // q
    low = 0
    terms = 0
    while power:
        low += power // (2 * terms + 1)
        terms += 1
        power = power * pp // qq
    return low, 2 * terms + 2


@cache
def _atanh_third(guard: int):
    """_atanh_fixed(1, 3, guard); ln 2 = 2 atanh(1/3)."""
    return _atanh_fixed(1, 3, guard)


@lru_cache(maxsize=4096)
def _log_fixed(n: int, bits: int):
    """ln(n) for n >= 2 in fixed point: ``(low, width, guard)`` with
    low <= ln(n) * 2^guard <= low + width and width <= 2^(guard+1-bits).

    Argument reduction: with 2^k <= n < 2^(k+1) and z = (n-2^k)/(n+2^k),
    ln n = 2k*atanh(1/3) + 2*atanh(z), where z lies in [0, 1/3).  Both
    series run in fixed point with ``guard`` fractional bits; the guard
    bits beyond ``bits`` absorb the factor 2k + 2 and the 2t + 2 ulps of a
    t-term series (t <= guard / 3).
    """
    k = n.bit_length() - 1
    extra = k.bit_length() + (bits + k.bit_length()).bit_length() + 4
    guard = bits + extra
    ln2_low, ln2_width = _atanh_third(guard)
    z_low, z_width = _atanh_fixed(n - (1 << k), n + (1 << k), guard)
    width = 2 * k * ln2_width + 2 * z_width
    return 2 * k * ln2_low + 2 * z_low, width, guard


def _max_bits() -> int:
    text = os.environ.get(_MAX_BITS_ENV)
    if text is None:
        return _DEFAULT_MAX_BITS
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise PreconditionError(f"{_MAX_BITS_ENV} must be an integer >= 1, got {text!r}")
    return value


def binomial_sign(alphas, betas, us, vs) -> int:
    """Exact sign of prod alpha_i^{u_i} - prod beta_i^{v_i}, bases >= 1.

    Products of at most _EXPAND_BITS bits are expanded and compared.
    Larger ones go to interval arithmetic on the logarithms at doubling
    precision, with ties broken exactly by binomial_vanish, so 0 is
    returned iff the products are equal.  Raises PrecisionLimitError past
    the FEWNO_MAX_BITS budget, which is read on every call.
    """
    if not (0 < len(alphas) == len(betas) == len(us) == len(vs) and min(us) >= 0
            and min(vs) >= 0 and min(alphas) >= 1 and min(betas) >= 1):
        _check_product_lists(alphas, betas, us, vs)
        raise PreconditionError("binomial_sign requires bases >= 1")
    max_bits = _max_bits()
    if _expandable(alphas, us) and _expandable(betas, vs):
        left, right = _expand(alphas, us), _expand(betas, vs)
        return (left > right) - (left < right)
    return _log_sign(alphas, betas, us, vs, max_bits)


def _log_sign(alphas, betas, us, vs, max_bits) -> int:
    """binomial_sign by certified logs: enclosures at 32, 64, ... bits up
    to max_bits, and one binomial_vanish call once they first overlap.
    Only an overlap leads to the next round, so the first is at 32 bits.
    With L, R the two sides' log sums, one loop puts L - R in [mid - rw,
    mid + lw]; the enclosures of L and R overlap by min(lw, rw, mid + lw,
    rw - mid)."""
    bits = 32
    while True:
        terms = [(u, _log_fixed(a, bits)) for a, u in zip(alphas, us) if u and a != 1]
        terms += [(-v, _log_fixed(b, bits)) for b, v in zip(betas, vs) if v and b != 1]
        scale = max([log[2] for _, log in terms], default=0)
        mid = lw = rw = 0
        for exp, (low, width, guard) in terms:
            shift = scale - guard
            mid += (exp * low) << shift
            if exp > 0:
                lw += (exp * width) << shift
            else:
                rw -= (exp * width) << shift
        if mid > rw:
            return 1
        if mid + lw < 0:
            return -1
        if bits == 32 and binomial_vanish(alphas, betas, us, vs):
            return 0
        if 2 * bits > max_bits:
            raise PrecisionLimitError(bits, Fraction(min(lw, rw, mid + lw, rw - mid), 1 << scale))
        bits *= 2
