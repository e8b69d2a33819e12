"""Tests for gcd-free bases, binomial vanishing, and certified log signs."""

import itertools
import math
import random
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from sparsefeas import exactsign
from sparsefeas.errors import PrecisionLimitError, PreconditionError
from sparsefeas.exactsign import (
    binomial_sign,
    binomial_vanish,
    gcd_free_basis,
)
from sparsefeas.oracle import exact_product_compare

LOG_BITS = (1, 8, 32, 64, 128, 256, 1024, 2048)


def _log_arguments(seed):
    """Seeded n up to 2^200: random sizes, powers of two and 2^k +- 1."""
    rng = random.Random(seed)
    ns = [1, 2, 3]
    ns += [rng.randint(2, 2 ** rng.randint(2, 200)) for _ in range(4)]
    ns += [2 ** rng.randint(1, 200) for _ in range(2)]
    for k in (rng.randint(2, 200) for _ in range(2)):
        ns += [2**k - 1, 2**k + 1]
    return ns


def _log_enclosure(n, bits):
    """[low, low + width] * 2^-guard from exactsign._log_fixed, the log
    core of binomial_sign, with its width budget 2^(guard+1-bits) checked:
    a radius of at most 2^-bits."""
    low, width, guard = exactsign._log_fixed(n, bits)
    assert 0 <= width <= 1 << (guard + 1 - bits), (n, bits)
    return Fraction(low, 1 << guard), Fraction(low + width, 1 << guard)


def _check_basis(values, basis):
    # pairwise coprime, >= 2 elements only
    b = basis.gammas
    for q in b:
        assert q >= 2
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            assert math.gcd(b[i], b[j]) == 1
    # every input value factors exactly over the basis
    for v, row in zip(values, basis.exponent_matrix):
        prod = 1
        for q, e in zip(b, row):
            prod *= q ** e
        assert prod == v


def test_gcd_free_basis_example():
    basis = gcd_free_basis([4, 6])
    assert list(basis.gammas) == [2, 3]
    assert [list(r) for r in basis.exponent_matrix] == [[2, 0], [1, 1]]


def test_gcd_free_basis_random():
    rng = random.Random(5)
    for _ in range(100):
        values = [rng.randint(2, 10**6) for _ in range(rng.randint(1, 6))]
        _check_basis(values, gcd_free_basis(values))


def test_gcd_free_basis_prime_powers():
    values = [8, 27, 36, 64]
    basis = gcd_free_basis(values)
    _check_basis(values, basis)
    assert set(basis.gammas) == {2, 3}


def _gcd_free_basis_reference(alphas):
    """The gcd-free basis by one split a/g, g, b/g of a pair with
    g = gcd(a, b) > 1 per round, and each exponent by repeated division."""
    basis = sorted(set(alphas) - {1})
    while pair := next((p for p in itertools.combinations(basis, 2) if math.gcd(*p) > 1), None):
        a, b = pair
        g = math.gcd(a, b)
        basis = sorted(set(basis) - {a, b} | {a // g, g, b // g} - {1})
    matrix = []
    for a in alphas:
        row = []
        for g in basis:
            e = 0
            while a % g == 0:
                a //= g
                e += 1
            row.append(e)
        matrix.append(tuple(row))
    return exactsign.GcdFreeBasis(tuple(basis), tuple(matrix))


def _basis_lists(rng, count):
    """Lists of 1 to 6 integers >= 1, by thirds: products of small prime
    powers, random values up to 10^6, and multiples of earlier entries."""
    primes = (2, 3, 5, 7, 11, 13)
    for k in range(count):
        values = []
        for _ in range(rng.randint(1, 6)):
            if k % 3 == 0:
                v = math.prod(rng.choice(primes) ** rng.randint(0, 6) for _ in range(rng.randint(1, 3)))
            elif k % 3 == 1 or not values:
                v = rng.randint(1, 10**6)
            else:
                v = rng.choice(values) * rng.randint(1, 60)
            values.append(v)
        yield values


def _power_chains(rng, count):
    """Lists whose shared factors are powers with exponents up to 400, on
    which one split per round needs hundreds of rounds."""
    for k in range(count):
        p, q, r = rng.sample((2, 3, 5, 7, 11, 13, 17), 3)
        e = rng.randint(2, 400)
        yield [p**e * q ** (e // 2), p ** (e - 1) * q ** (e // 2 + 1) * r, r**e]
        yield [math.prod(b ** rng.randint(0, 400) for b in (p, q, r)) for _ in range(rng.randint(2, 5))]


def test_gcd_free_basis_matches_one_split_per_round():
    # splitting out every power of a shared factor at once reaches the
    # same coarsest basis, with the same exponents
    rng = random.Random(1515)
    for values in itertools.chain(_basis_lists(rng, 40000), _power_chains(rng, 100)):
        assert gcd_free_basis(values) == _gcd_free_basis_reference(values), values


def test_gcd_free_basis_cost_does_not_grow_with_exponents():
    # 2^k 3^(k/2), 2^(k-1) 3^(k/2+1) 5 and 5^k share powers of 2, 3 and 5
    # that one split per round peels off a factor at a time
    k = 6000
    start = time.monotonic()
    basis = gcd_free_basis([2**k * 3 ** (k // 2), 2 ** (k - 1) * 3 ** (k // 2 + 1) * 5, 5**k])
    assert time.monotonic() - start < 0.1
    assert basis.gammas == (2, 3, 5)
    assert basis.exponent_matrix == ((k, k // 2, 0), (k - 1, k // 2 + 1, 1), (0, 0, k))


def _split_powers_reference(a, g):
    """(k, a / g^k) by one division by g at a time."""
    k = 0
    while a % g == 0:
        a //= g
        k += 1
    return k, a


def test_split_powers_matches_one_division_loop():
    # dividing the running quotient by g, g^2, g^4, ... and back down finds
    # every k: 0, 2^i - 1, 2^i, and k of a cofactor that g divides again
    rng = random.Random(1616)
    for _ in range(3000):
        g = rng.choice((2, 3, 6, 10, 21, rng.randint(2, 10**6)))
        k = rng.choice((0, 1, 2, 3, 7, 8, 15, 16, rng.randint(0, 300)))
        a = g**k * rng.choice((1, g + 1, g * rng.randint(1, 50), rng.randint(1, 10**30)))
        assert exactsign._split_powers(a, g) == _split_powers_reference(a, g), (a, g)


def test_binomial_vanish_true():
    assert binomial_vanish([2], [8], [3], [1])
    assert binomial_vanish([4, 6], [12, 1], [1, 2], [2, 1])  # 4 * 36 == 144
    assert binomial_vanish([10, 1], [2, 5], [2, 1], [2, 2])  # 100 == 4 * 25


def test_binomial_vanish_false():
    assert not binomial_vanish([2], [3], [5], [3])
    assert not binomial_vanish([2], [2], [3], [4])


def test_binomial_vanish_above_expansion_gate():
    # past the 2^12-bit gate a zero base or a sign parity decides before
    # any gcd-free basis; every side stays under the oracle's 2^19 bits
    cases = [
        ([0, 3], [0, 5], [1, 5000], [1, 5000]),  # both zero
        ([-3], [3], [5001], [5001]),  # odd against even parity
    ]
    rng = random.Random(24)
    for _ in range(80):
        k = rng.randint(1, 3)
        alphas = [rng.choice((-1, 1)) * rng.randint(2, 40) for _ in range(k)]
        us = [rng.randint(2100, 3000) for _ in range(k)]
        perm = rng.sample(range(k), k)
        betas = [rng.choice((-1, 1)) * abs(alphas[i]) for i in perm]
        vs = [us[i] for i in perm]
        if rng.random() < 0.3:
            vs[rng.randrange(k)] += 2  # the same parity, a larger magnitude
        if rng.random() < 0.2:
            betas[rng.randrange(k)] = 0
        cases.append((alphas, betas, us, vs))
    kinds = set()
    for alphas, betas, us, vs in cases:
        assert not exactsign._expandable(alphas, us)
        truth = exact_product_compare(alphas, betas, us, vs)
        assert binomial_vanish(alphas, betas, us, vs) == (truth == 0), (alphas, betas, us, vs)
        left_neg = sum(u for a, u in zip(alphas, us) if a < 0) % 2
        right_neg = sum(v for b, v in zip(betas, vs) if b < 0) % 2
        if 0 in alphas or 0 in betas:
            kinds.add(("zero", truth == 0))
        else:
            kinds.add(("parity" if left_neg != right_neg else "basis", truth == 0))
    assert kinds == {
        ("zero", True), ("zero", False), ("parity", False), ("basis", True), ("basis", False)
    }


def test_binomial_vanish_signs_and_zero():
    assert binomial_vanish([0, 7], [0, 11], [2, 1], [5, 1])
    assert not binomial_vanish([0], [3], [2], [1])
    assert binomial_vanish([-2], [-8], [3], [1])
    assert not binomial_vanish([-2], [8], [3], [1])
    assert binomial_vanish([-2, 3], [-6, 1], [1, 1], [1, 1])
    with pytest.raises(PreconditionError):
        binomial_vanish([0], [1], [0], [1])


def test_log_interval_encloses_truth():
    for n in [2, 3, 10, 97, 12345, 2**20 + 1]:
        for bits in [8, 16, 40, 80]:
            lo, hi = _log_enclosure(n, bits)
            assert lo < hi
            assert hi - lo <= Fraction(2, 2**bits)
            true = math.log(n)
            assert float(lo) <= true + 1e-12
            assert float(hi) >= true - 1e-12


def test_log_interval_high_precision_consistency():
    # nested refinement: the 200-bit interval lies inside the 50-bit one
    for n in [7, 1000003]:
        coarse = _log_enclosure(n, 50)
        fine = _log_enclosure(n, 200)
        assert coarse[0] <= fine[0] and fine[1] <= coarse[1]


def test_log_interval_contains_decimal_log():
    # decimal's ln is correctly rounded to prec digits: the digits of 2^-bits
    # plus 30; ln n < 10^3 here, so it is off by less than 10^(3 - prec).
    # ln 1 = 0 is enclosed exactly.
    for n in _log_arguments(11):
        for bits in LOG_BITS:
            low, high = _log_enclosure(n, bits)
            if n == 1:
                assert low == high == 0
                continue
            with localcontext() as ctx:
                ctx.prec = math.ceil(bits * math.log10(2)) + 30
                ln = Decimal(n).ln()
                err = Decimal(10) ** (3 - ctx.prec)
                lo, hi = Fraction(ln - err), Fraction(ln + err)
            assert low <= lo and hi <= high, (n, bits)


def test_log_interval_radius_budget():
    # width 0 exactly at n = 1, else a radius in (0, 2^-bits]
    rng = random.Random(12)
    for n in _log_arguments(12):
        for bits in LOG_BITS + tuple(rng.randint(1, 3000) for _ in range(4)):
            lo, hi = _log_enclosure(n, bits)
            if n == 1:
                assert lo == hi == 0
            else:
                assert 0 < (hi - lo) / 2 <= Fraction(1, 2**bits), (n, bits)


def test_log_interval_refinement_nests():
    # binomial_sign doubles its precision; each finer interval must lie
    # inside the coarser one
    for n in _log_arguments(13):
        for bits in (32, 64, 128, 256, 1024):
            coarse = _log_enclosure(n, bits)
            fine = _log_enclosure(n, 2 * bits)
            assert coarse[0] <= fine[0], (n, bits)
            assert fine[1] <= coarse[1], (n, bits)


def test_cached_ln2_nests_in_fresh_lower_precision():
    rng = random.Random(14)
    for _ in range(40):
        coarse_guard = rng.randint(2, 2000)
        fine_guard = coarse_guard + rng.randint(8, 200)
        cached = exactsign._atanh_third(fine_guard)
        assert exactsign._atanh_third(fine_guard) is cached
        assert cached == exactsign._atanh_fixed(1, 3, fine_guard)
        fine_lo = Fraction(cached[0], 2**fine_guard)
        fine_hi = Fraction(cached[0] + cached[1], 2**fine_guard)
        low, width = exactsign._atanh_fixed(1, 3, coarse_guard)
        assert Fraction(low, 2**coarse_guard) <= fine_lo
        assert fine_hi <= Fraction(low + width, 2**coarse_guard)


def test_binomial_sign_basic():
    assert binomial_sign([2], [3], [2], [1]) == 1  # 4 > 3
    assert binomial_sign([2], [3], [1], [1]) == -1  # 2 < 3
    assert binomial_sign([2], [4], [2], [1]) == 0  # 4 == 4
    assert binomial_sign([6, 7], [41, 1], [1, 1], [1, 1]) == 1  # 42 > 41
    with pytest.raises(PreconditionError):
        binomial_sign([-2], [3], [2], [1])


def test_binomial_sign_close_call():
    # 2^1000000 vs 2^999999 * 3: ratio 2/3, clearly determined
    assert binomial_sign([2, 1], [2, 3], [1000000, 1], [999999, 1]) == -1
    # near-tie requiring higher working precision: 3^400 vs 2^634
    assert binomial_sign([3], [2], [400], [634]) == (1 if 400 * math.log(3) > 634 * math.log(2) else -1)


def test_binomial_sign_matches_exact_small():
    rng = random.Random(9)
    for _ in range(200):
        a = rng.randint(1, 50)
        b = rng.randint(1, 50)
        u = rng.randint(1, 6)
        v = rng.randint(1, 6)
        truth = (a**u > b**v) - (a**u < b**v)
        assert binomial_sign([a], [b], [u], [v]) == truth


def test_binomial_sign_precision_limit(monkeypatch):
    # equal products short-circuit through the exact equality check
    monkeypatch.setenv("FEWNO_MAX_BITS", "64")
    assert binomial_sign([2], [4], [2], [1]) == 0
    # products small enough to expand are decided exactly under any budget
    monkeypatch.setenv("FEWNO_MAX_BITS", "32")
    assert binomial_sign([2**200 + 1], [2**200 - 1], [5], [5]) == 1
    # unequal but extremely close, and too large to expand (25,005 bits
    # each): a tiny budget cannot separate the logs
    with pytest.raises(PrecisionLimitError) as info:
        binomial_sign([2**5000 + 1], [2**5000 - 1], [5], [5])
    # the error carries the last precision and the last enclosure overlap
    exc = info.value
    assert exc.bits == 32
    assert isinstance(exc.gap, Fraction)
    # each side is 5 logs of radius <= 2^-32, so the overlap is at most 10 * 2^-32
    assert 0 < exc.gap <= Fraction(10, 2**32)
    message = str(exc)
    assert "32 bits" in message
    bound = int(re.search(r"less than 2\^(-?\d+)", message).group(1))
    assert Fraction(2) ** (bound - 2) <= exc.gap < Fraction(2) ** bound
    monkeypatch.setenv("FEWNO_MAX_BITS", "100")
    with pytest.raises(PrecisionLimitError) as info:
        binomial_sign([2**5000 + 1], [2**5000 - 1], [5], [5])
    assert info.value.bits == 64


@pytest.mark.parametrize("value", ["abc", "", "0", "-8", "1.5"])
def test_binomial_sign_rejects_malformed_max_bits(monkeypatch, value):
    monkeypatch.setenv("FEWNO_MAX_BITS", value)
    with pytest.raises(PreconditionError, match="FEWNO_MAX_BITS"):
        binomial_sign([2], [3], [2], [1])


# ---------------------------------------------------------------------------
# the certified-log path, driven directly, against the expanding oracle

_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p**0.5) + 1))]

# k - j, k and k + j are all 1000-smooth (found by a sieve near 2^40), so
# b = 2k, a = k - j, c = k + j give b^2 - 4ac = 4 j^2 with 41-bit
# coefficients whose factorizations stay inside the oracle's base guard
_SMOOTH_PROGRESSIONS = [
    (1099511737200, 4), (1099519538125, 5), (1099522126084, 4),
    (1099522642660, 5), (1099527144460, 4), (1099527845520, 6),
    (1099514493872, 8), (1099524897350, 10),
]


def _factored(n):
    """(primes, exponents) of a 1000-smooth n >= 1."""
    primes, exps = [], []
    for p in _PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            primes.append(p)
            exps.append(e)
    assert n == 1
    return primes, exps


def _product_pair(left, right):
    """binomial_sign arguments comparing the smooth integers left, right.

    Both sides list the same primes, so the lists share a length."""
    lp, le = _factored(left)
    rp, re_ = _factored(right)
    primes = sorted(set(lp) | set(rp))
    us = [le[lp.index(p)] if p in lp else 0 for p in primes]
    vs = [re_[rp.index(p)] if p in rp else 0 for p in primes]
    return primes, list(primes), us, vs


def _smooth(rng, bits):
    n = 1
    while n.bit_length() < bits:
        n *= rng.choice(_PRIMES)
    return n


def _near_ties(seed, count):
    """Near ties b^2 vs 4ac like the benchmark's: 41- to 121-bit 1000-smooth
    coefficients, a progression above scaled by a smooth t, so the gap is
    4 t^2 j^2 and the relative gap below 2^-73; every fourth one is an
    exact tie b = 2suv, a = su^2, c = sv^2."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 4 == 3:
            s, u, v = _smooth(rng, 8), _smooth(rng, rng.randint(20, 56)), _smooth(rng, 40)
            b, a, c = 2 * s * u * v, s * u * u, s * v * v
        else:
            k, j = rng.choice(_SMOOTH_PROGRESSIONS)
            t = _smooth(rng, rng.randint(0, 80))
            b, a, c = 2 * t * k, t * (k - j), t * (k + j)
        left, right = b * b, 4 * a * c
        out.append((left, right) if rng.random() < 0.5 else (right, left))
    return out


def test_log_sign_matches_oracle():
    rng = random.Random(19)
    cases = []
    for _ in range(150):  # the kind of test_binomial_sign_matches_exact_small
        k = rng.randint(1, 3)
        cases.append((
            [rng.randint(1, 50) for _ in range(k)], [rng.randint(1, 50) for _ in range(k)],
            [rng.randint(0, 6) for _ in range(k)], [rng.randint(0, 6) for _ in range(k)],
        ))
    cases.append(([3], [2], [400], [634]))
    cases += [_product_pair(left, right) for left, right in _near_ties(20, 40)]
    signs = set()
    for alphas, betas, us, vs in cases:
        truth = exact_product_compare(alphas, betas, us, vs)
        got = exactsign._log_sign(alphas, betas, us, vs, exactsign._DEFAULT_MAX_BITS)
        assert got == truth, (alphas, betas, us, vs)
        assert binomial_sign(alphas, betas, us, vs) == truth
        signs.add(truth)
    assert signs == {-1, 0, 1}


def test_near_ties_need_refinement():
    # the near ties are genuine close calls: 32-bit logs cannot split them
    for left, right in _near_ties(21, 12):
        if left == right:
            continue
        with pytest.raises(PrecisionLimitError):
            exactsign._log_sign(*_product_pair(left, right), 32)


def _count_log_sign(monkeypatch):
    calls = []
    real = exactsign._log_sign

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactsign, "_log_sign", counted)
    return calls


def _count_gcd_free_basis(monkeypatch):
    calls = []
    real = exactsign.gcd_free_basis

    def counted(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(exactsign, "gcd_free_basis", counted)
    return calls


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_expansion_gate_boundary(monkeypatch, offset):
    # products 5^x 7^y 3^e with x + y = N have the bit-size bound
    # 3N + 2e = gate + offset (5 and 7 have bit length 3, 3 has 2)
    gate = exactsign._EXPAND_BITS
    assert gate == 1 << 12
    target = gate + offset
    e = 2 * target % 3
    n = (target - 2 * e) // 3
    logs = _count_log_sign(monkeypatch)
    bases = _count_gcd_free_basis(monkeypatch)
    rng = random.Random(22 + offset)
    x = rng.randint(0, n)
    alphas, us = [5, 7, 3], [x, n - x, e]
    rights = [us]
    for _ in range(20):
        m = rng.randint(0, 3)
        x2 = rng.randint(0, n - 2 * m)
        rights.append([x2, n - 2 * m - x2, e + 3 * m])
    signs = set()
    for vs in rights:
        truth = exact_product_compare(alphas, alphas, us, vs)
        assert binomial_sign(alphas, alphas, us, vs) == truth
        assert binomial_vanish(alphas, alphas, us, vs) == (truth == 0)
        signs.add(truth)
    assert signs == {-1, 0, 1}
    # at and below the gate both sides expand; one unit above it, logs
    # decide the sign and a gcd-free basis decides equality
    assert bool(logs) == (offset > 0)
    assert bool(bases) == (offset > 0)
    # a factor 2 lifts the left bound by 2, past the gate: one side above
    # it is enough to leave expansion
    del logs[:]
    small = [0, 0, 0, 1]
    assert binomial_sign(alphas + [2], [5, 7, 3, 2], us + [1], small) == 1
    assert binomial_sign([5, 7, 3, 2], alphas + [2], small, us + [1]) == -1
    assert len(logs) == 2


def test_binomial_vanish_expands_signed_and_zero_bases(monkeypatch):
    bases = _count_gcd_free_basis(monkeypatch)
    assert binomial_vanish([-3, 2], [-6, 1], [3, 3], [3, 5])
    assert not binomial_vanish([-3, 2], [6, 1], [3, 3], [3, 5])
    assert binomial_vanish([0, 5], [7, 0], [1, 2], [3, 4])
    assert not binomial_vanish([0, 5], [7, 1], [1, 2], [3, 4])
    assert bases == []


def test_huge_exponents_never_expand(monkeypatch):
    # exponents near 2^62, as in the huge trinomial discriminants
    def no_expand(bases, exps):
        raise AssertionError("expanded a product with huge exponents")

    monkeypatch.setattr(exactsign, "_expand", no_expand)
    logs = _count_log_sign(monkeypatch)
    rng = random.Random(23)
    for _ in range(10):
        u = rng.randint(2**61, 2**62)
        alphas = [rng.randint(2, 2**16), 1]
        betas = [rng.randint(2, 2**16), rng.randint(2, 9)]
        us, vs = [u, 1], [u, rng.randint(1, 3)]
        sign = binomial_sign(alphas, betas, us, vs)
        assert sign == ((alphas[0] > betas[0]) - (alphas[0] < betas[0]) or -1)
        assert binomial_vanish(alphas, betas, us, vs) == (sign == 0)
    assert len(logs) == 10
    # a huge power on either side against a small product
    assert binomial_sign([2], [3], [2**62], [1]) == 1
    assert binomial_sign([3], [2], [1], [2**62]) == -1
    assert not binomial_vanish([3], [2], [1], [2**62])
    assert not binomial_vanish([2], [1], [2**62], [2**62])
    assert len(logs) == 12


@pytest.mark.parametrize("call, message", [
    (lambda: gcd_free_basis([6, 0]), "gcd_free_basis requires integers >= 1"),
    (lambda: binomial_vanish([2], [3, 5], [1], [1]), "product description lists must share a length"),
    (lambda: binomial_vanish([], [], [], []), "empty product description"),
    (lambda: binomial_sign([2], [3], [-1], [1]), "exponents must be natural numbers"),
], ids=["basis-entry-below-1", "lengths", "empty", "negative-exponent"])
def test_exactsign_input_guards(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert type(info.value) is PreconditionError and str(info.value) == message


# ---------------------------------------------------------------------------
# both entry points against plain expansion, on both sides of the gate


def _expanded(bases, exps):
    return math.prod(b**e for b, e in zip(bases, exps))


def _spread(rng, bits, count):
    """``count`` bases of at most 40 bits, some 1, and exponents, some 0,
    whose product has about ``bits`` bits (2^6 to 2^16)."""
    bases = [rng.choice((1, rng.randint(2, 1 << rng.randint(1, 40)))) for _ in range(count)]
    exps = [rng.choice((0, max(1, bits // (count * max(1, b.bit_length()))))) for b in bases]
    return bases, exps


def _expansion_cases(seed, count, ties):
    """Seeded product pairs: ``count`` of unrelated sides, equal products
    written two ways and sides that differ by one small factor ratio
    (x + 1)/x, then ``ties`` near ties y^k +- 1 against y^k just above
    the gate (each needs logs of some 8,000 bits)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count + ties):
        bits = 1 << rng.randint(6, 16)
        kind = i % 3 if i < count else 3
        if kind == 0:
            alphas, us = _spread(rng, bits, rng.randint(1, 4))
            betas, vs = _spread(rng, bits, len(alphas))
        elif kind == 1:
            # x^e y^e z^f against (xy)^e z^f, with a unit base (at times
            # to the power 2^62) or a zero exponent on the right
            x, y, z = (rng.randint(2, 1 << 30) for _ in range(3))
            e, f = max(1, bits // 64), rng.randint(0, 50)
            alphas, us = [x, y, z], [e, e, f]
            betas, vs = [x * y, z, 1], [e, f, rng.choice((rng.randint(0, 9), 2**62))]
            if rng.random() < 0.5:
                betas[2], vs[2] = rng.randint(2, 99), 0
        elif kind == 2:
            common, es = _spread(rng, bits, 2)
            x = rng.randint(1 << 30, 1 << 40)
            alphas, us = common + [x + 1], es + [1]
            betas, vs = common + [x], es + [1]
        else:
            y = rng.randint(2, 50)
            k = math.ceil(rng.randint(4100, 4400) / math.log2(y))
            alphas, us = [y**k + rng.choice((-1, 1)), 1], [1, rng.randint(0, 5)]
            betas, vs = [y, rng.randint(2, 9)], [k, 0]
        if rng.random() < 0.5:
            alphas, betas, us, vs = betas, alphas, vs, us
        cases.append((alphas, betas, us, vs))
    return cases


def _bit_bound(bases, exps):
    return sum(e * abs(b).bit_length() for b, e in zip(bases, exps) if abs(b) > 1)


def test_binomial_sign_and_vanish_match_expansion(monkeypatch):
    logs = _count_log_sign(monkeypatch)
    seen = set()
    for alphas, betas, us, vs in _expansion_cases(34, 150, 4):
        left, right = _expanded(alphas, us), _expanded(betas, vs)
        truth = (left > right) - (left < right)
        calls = len(logs)
        assert binomial_sign(alphas, betas, us, vs) == truth, (alphas, betas, us, vs)
        # logs exactly when a bound passes the gate; a unit base adds nothing
        gated = max(_bit_bound(alphas, us), _bit_bound(betas, vs)) > exactsign._EXPAND_BITS
        assert (len(logs) > calls) == gated, (alphas, betas, us, vs)
        assert binomial_vanish(alphas, betas, us, vs) == (truth == 0)
        # vanishing with signed bases: flipping a base flips the product's
        # sign when its exponent is odd
        signs = [-1 if k % 3 == 0 else 1 for k in range(len(alphas))]
        signed = [s * a for s, a in zip(signs, alphas)]
        assert binomial_vanish(signed, betas, us, vs) == (_expanded(signed, us) == right)
        big = max(left.bit_length(), right.bit_length())
        seen.add((truth, big > exactsign._EXPAND_BITS))
        if abs(left - right) == 1 and big > exactsign._EXPAND_BITS:
            seen.add("tie by one")
        if 1 in alphas + betas:
            seen.add("unit base")
        if 0 in us + vs:
            seen.add("zero exponent")
    assert seen == {
        (-1, False), (0, False), (1, False), (-1, True), (0, True), (1, True),
        "tie by one", "unit base", "zero exponent",
    }
    # products up to 2^16 bits: the log path ran on those past the gate
    assert len(logs) > 40


@pytest.mark.parametrize("max_bits, bits", [(32, 32), (100, 64), (200, 128)])
def test_precision_limit_gap_is_the_enclosure_overlap(monkeypatch, max_bits, bits):
    # the reported gap is exactly min(l_high, r_high) - max(l_low, r_low)
    # of the two sides' log sums at the last precision tried, at the
    # finest dyadic scale of their terms (the bases differ in size, so
    # their scales differ)
    monkeypatch.setenv("FEWNO_MAX_BITS", str(max_bits))
    alphas, us = [2**3000 + 1, 3, 1], [5, 1, 7]
    betas, vs = [2**3000 - 1, 3, 5], [5, 1, 0]
    with pytest.raises(PrecisionLimitError) as info:
        binomial_sign(alphas, betas, us, vs)
    assert info.value.bits == bits
    # the terms with an exponent and a base other than 1, left then right
    terms = [(2**3000 + 1, 5), (3, 1), (2**3000 - 1, 5), (3, 1)]
    logs = [(e, *exactsign._log_fixed(b, bits)) for b, e in terms]
    scale = max(guard for *_, guard in logs)
    low = [e * lo << (scale - g) for e, lo, _, g in logs]
    high = [e * (lo + w) << (scale - g) for e, lo, w, g in logs]
    l_low, r_low = low[0] + low[1], low[2] + low[3]
    l_high, r_high = high[0] + high[1], high[2] + high[3]
    assert len({g for *_, g in logs}) == 2 and max(l_low, r_low) < min(l_high, r_high)
    assert info.value.gap == Fraction(min(l_high, r_high) - max(l_low, r_low), 1 << scale)


def test_unequal_enclosure_widths_never_decide_a_near_tie(monkeypatch):
    # a^e against a^e - 1: one side's log sum carries e times the width of
    # one log, the other side's one width.  64-bit logs cannot split them,
    # so every call raises, whichever side holds the power; reading a
    # side's bound off the other side's width answers half of them wrongly
    monkeypatch.setenv("FEWNO_MAX_BITS", "64")
    rng = random.Random(34)
    for _ in range(50):
        a = rng.getrandbits(rng.randint(530, 600)) | 1
        e = rng.randint(8, 9)
        for args in (([a], [a**e - 1], [e], [1]), ([a**e - 1], [a], [1], [e])):
            with pytest.raises(PrecisionLimitError) as info:
                binomial_sign(*args)
            assert info.value.bits == 64


@pytest.mark.parametrize("entry", ["sign", "vanish"])
def test_malformed_products_raise_in_order(entry):
    # each input below breaks every check after the one it names, so the
    # message pins the order: lengths, emptiness, exponents, 0^0, bases
    call = binomial_sign if entry == "sign" else binomial_vanish
    cases = [
        (([0, 2], [3], [0, -1], [1]), "product description lists must share a length"),
        (([], [], [], []), "empty product description"),
        (([0, 2], [3, 3], [0, -1], [1, 1]), "exponents must be natural numbers"),
        (([0, 2], [3, 3], [0, 1], [1, 1]), "0^0 term is not defined"),
        (([3, 3], [0, 2], [1, 1], [0, 1]), "0^0 term is not defined"),
    ]
    if entry == "sign":
        cases += [
            (([0, 2], [3, 3], [1, 1], [1, 1]), "binomial_sign requires bases >= 1"),
            (([2], [-3], [1], [1]), "binomial_sign requires bases >= 1"),
        ]
    for args, message in cases:
        with pytest.raises(PreconditionError) as info:
            call(*args)
        assert type(info.value) is PreconditionError and str(info.value) == message, args
