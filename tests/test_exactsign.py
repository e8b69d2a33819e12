"""Tests for gcd-free bases, binomial vanishing, and certified log signs."""

import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from sparsefeas import exactsign
from sparsefeas.errors import PrecisionLimitError, PreconditionError
from sparsefeas.exactsign import (
    binomial_sign,
    binomial_vanish,
    gcd_free_basis,
    log_interval,
)

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


def test_binomial_vanish_true():
    assert binomial_vanish([2], [8], [3], [1])
    assert binomial_vanish([4, 6], [12, 1], [1, 2], [2, 1])  # 4 * 36 == 144
    assert binomial_vanish([10, 1], [2, 5], [2, 1], [2, 2])  # 100 == 4 * 25


def test_binomial_vanish_false():
    assert not binomial_vanish([2], [3], [5], [3])
    assert not binomial_vanish([2], [2], [3], [4])


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
            iv = log_interval(n, bits)
            lo = iv.value - iv.radius
            hi = iv.value + iv.radius
            assert iv.radius > 0
            assert Fraction(iv.radius) <= Fraction(1, 2**bits)
            true = math.log(n)
            assert float(lo) <= true + 1e-12
            assert float(hi) >= true - 1e-12


def test_log_interval_high_precision_consistency():
    # nested refinement: the 200-bit interval lies inside the 50-bit one
    for n in [7, 1000003]:
        coarse = log_interval(n, 50)
        fine = log_interval(n, 200)
        assert coarse.value - coarse.radius <= fine.value - fine.radius
        assert fine.value + fine.radius <= coarse.value + coarse.radius


def test_log_interval_contains_decimal_log():
    # decimal's ln is correctly rounded to prec digits: the digits of 2^-bits
    # plus 30; ln n < 10^3 here, so it is off by less than 10^(3 - prec)
    for n in _log_arguments(11):
        for bits in LOG_BITS:
            with localcontext() as ctx:
                ctx.prec = math.ceil(bits * math.log10(2)) + 30
                ln = Decimal(n).ln()
                err = Decimal(10) ** (3 - ctx.prec)
                lo, hi = Fraction(ln - err), Fraction(ln + err)
            iv = log_interval(n, bits)
            assert iv.value - iv.radius <= lo and hi <= iv.value + iv.radius, (n, bits)


def test_log_interval_radius_budget():
    rng = random.Random(12)
    for n in _log_arguments(12):
        for bits in LOG_BITS + tuple(rng.randint(1, 3000) for _ in range(4)):
            iv = log_interval(n, bits)
            assert iv.bits == bits
            assert 0 < iv.radius <= Fraction(1, 2**bits)


def test_log_interval_refinement_nests():
    # binomial_sign doubles its precision; each finer interval must lie
    # inside the coarser one
    for n in _log_arguments(13):
        for bits in (32, 64, 128, 256, 1024):
            coarse = log_interval(n, bits)
            fine = log_interval(n, 2 * bits)
            assert coarse.value - coarse.radius <= fine.value - fine.radius, (n, bits)
            assert fine.value + fine.radius <= coarse.value + coarse.radius, (n, bits)


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
    # unequal but extremely close: a tiny budget cannot separate the logs
    monkeypatch.setenv("FEWNO_MAX_BITS", "32")
    with pytest.raises(PrecisionLimitError) as info:
        binomial_sign([2**200 + 1], [2**200 - 1], [5], [5])
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
        binomial_sign([2**200 + 1], [2**200 - 1], [5], [5])
    assert info.value.bits == 64


@pytest.mark.parametrize("value", ["abc", "", "0", "-8", "1.5"])
def test_binomial_sign_rejects_malformed_max_bits(monkeypatch, value):
    monkeypatch.setenv("FEWNO_MAX_BITS", value)
    with pytest.raises(PreconditionError, match="FEWNO_MAX_BITS"):
        binomial_sign([2], [3], [2], [1])
