"""Tests for the exact integer linear-algebra kernel."""

import random

import pytest

from sparsefeas import intlattice
from sparsefeas.intlattice import (
    _egcd,
    determinant,
    hermite_factor,
    identity,
    mat_mul,
    primitive_vector,
    smith_factor,
)


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _hermite_kernel(M):
    """The rows of U whose row of H is zero, for U M^T = H: the integer
    kernel {v : M v == 0} as geometry.analyze_support reads it."""
    H, U = hermite_factor([list(col) for col in zip(*M)])
    return [u for u, h in zip(U, H) if not any(h)]


def test_determinant_small():
    assert determinant([[2, 1], [1, 2]]) == 3
    assert determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert determinant(identity(4)) == 1


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)

    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor(minor)
        return total

    for _ in range(50):
        size = rng.randint(1, 4)
        m = _random_matrix(rng, size, size)
        assert determinant(m) == cofactor(m)


def test_hermite_factor_invariants():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        h, u = hermite_factor(m)
        assert mat_mul(u, m) == h
        assert abs(determinant(u)) == 1
        # echelon shape with positive pivots reduced above
        last = -1
        for row in h:
            pivots = [j for j, v in enumerate(row) if v != 0]
            if not pivots:
                continue
            j = pivots[0]
            assert j > last
            last = j
            assert row[j] > 0


def test_hermite_above_pivot_reduction():
    rng = random.Random(13)
    for _ in range(100):
        m = _random_matrix(rng, 4, 4)
        h, _ = hermite_factor(m)
        for i, row in enumerate(h):
            pivots = [j for j, v in enumerate(row) if v != 0]
            if not pivots:
                continue
            j = pivots[0]
            for k in range(i):
                assert 0 <= h[k][j] < row[j]


def test_smith_factor_invariants():
    rng = random.Random(17)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        s, u, v = smith_factor(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i, row in enumerate(s):
            for j, val in enumerate(row):
                if i != j:
                    assert val == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if b != 0:
                assert a != 0 and b % a == 0
        if rows == cols:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(determinant(m))


def test_integer_kernel_spans_null_space():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        kern = _hermite_kernel(m)
        S = smith_factor(m)[0]
        assert len(kern) == cols - sum(1 for i in range(min(rows, cols)) if S[i][i])
        for vec in kern:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_of_circuit_matrix():
    # support of 1 + x^4 + y^4 - 3xy bordered with ones
    m = [[1, 1, 1, 1], [0, 4, 0, 1], [0, 0, 4, 1]]
    kern = _hermite_kernel(m)
    assert len(kern) == 1
    vec = primitive_vector(kern[0])
    if vec[-1] > 0:
        vec = tuple(-x for x in vec)
    assert tuple(vec) == (2, 1, 1, -4)


def test_primitive_vector():
    assert primitive_vector([4, -6, 8]) == [2, -3, 4]
    assert primitive_vector([0, 0, 5]) == [0, 0, 1]


def _egcd_reference(a, b):
    """The extended Euclidean loop that intlattice._egcd replaced."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite_factor_reference(M):
    """The Hermite factorization that clears every entry by a gcd
    rotation of the Euclidean loop's cofactors."""
    H = [list(row) for row in M]
    n = len(H)
    m = len(H[0]) if n else 0
    U = identity(n)
    row = 0
    for col in range(m):
        if row >= n:
            break
        pivot = next((i for i in range(row, n) if H[i][col]), None)
        if pivot is None:
            continue
        H[row], H[pivot] = H[pivot], H[row]
        U[row], U[pivot] = U[pivot], U[row]
        for i in range(row + 1, n):
            if H[i][col] == 0:
                continue
            a, b = H[row][col], H[i][col]
            g, s, t = _egcd_reference(a, b)
            p, q = a // g, b // g
            for R, w in ((H, m), (U, n)):
                R[row], R[i] = (
                    [s * R[row][j] + t * R[i][j] for j in range(w)],
                    [-q * R[row][j] + p * R[i][j] for j in range(w)],
                )
        if H[row][col] < 0:
            H[row] = [-v for v in H[row]]
            U[row] = [-v for v in U[row]]
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                H[i] = [H[i][j] - q * H[row][j] for j in range(m)]
                U[i] = [U[i][j] - q * U[row][j] for j in range(n)]
        row += 1
    return H, U


def _signed(rng, bits):
    return rng.getrandbits(bits) * rng.choice((1, -1))


def test_egcd_matches_euclid_loop():
    # the C-level cofactors must be the loop's exactly: smith_factor's
    # matrices, and through them degenerate points, are built from them
    rng = random.Random(31)
    quotients = set()
    for k in range(100_000):
        bits = rng.randint(1, 1000) if k % 20 == 0 else rng.randint(1, 130)
        g = rng.getrandbits(rng.randint(1, bits)) or 1
        kind = k % 5
        if kind == 0:
            a, b = _signed(rng, bits), _signed(rng, bits)
        elif kind == 1:  # |b/g| in {1, 2}, with a tie on 2
            a, b = g * rng.choice((1, -1, 3, -3, 5)), g * rng.choice((1, -1, 2, -2))
        elif kind == 2:  # a divides b
            a = _signed(rng, bits) or 1
            b = a * _signed(rng, rng.randint(1, 8))
        elif kind == 3:  # zeros
            a, b = rng.choice(((0, _signed(rng, bits)), (_signed(rng, bits), 0), (0, 0)))
        else:  # a shared factor
            a, b = g * _signed(rng, bits), g * _signed(rng, bits)
        got = _egcd(a, b)
        assert got == _egcd_reference(a, b), (a, b)
        assert got[1] * a + got[2] * b == got[0] >= 0
        if b:
            quotients.add(min(abs(b) // (got[0] or 1), 3))
    assert quotients == {1, 2, 3}


def _kernel_lattice(rows):
    """A canonical form of the lattice the rows span: its Hermite form."""
    return _hermite_factor_reference(rows)[0] if rows else []


def test_hermite_factor_matches_reference():
    # H is unique; U differs only by relations (U[r:] spans the same
    # lattice, equal up to sign when it has rank 1)
    rng = random.Random(37)
    shapes = 0
    for k in range(2000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 5)
        if k % 2:  # (1 | a_j), the support shape, with up to 62-bit a_j
            bits = rng.choice((2, 8, 40, 62))
            m = [[1] + [_signed(rng, bits) for _ in range(cols - 1)] for _ in range(rows)]
            shapes += 1
        else:
            bound = rng.choice((1, 3, 9, 10**6))
            m = _random_matrix(rng, rows, cols, bound)
        h, u = hermite_factor(m)
        h0, u0 = _hermite_factor_reference(m)
        assert h == h0
        assert mat_mul(u, m) == h
        assert abs(determinant(u)) == 1
        r = sum(1 for row in h if any(row))
        ker, ker0 = u[r:], u0[r:]
        if len(ker) == 1:
            assert ker[0] in (ker0[0], [-v for v in ker0[0]])
        assert _kernel_lattice(ker) == _kernel_lattice(ker0)
    assert shapes == 1000


def test_smith_factor_matches_euclid_cofactors(monkeypatch):
    rng = random.Random(41)
    cases = []
    for k in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        bound = (9, 10**6, 2**62)[k % 3]
        cases.append(_random_matrix(rng, rows, cols, bound))
    got = [smith_factor(m) for m in cases]
    monkeypatch.setattr(intlattice, "_egcd", _egcd_reference)
    assert got == [smith_factor(m) for m in cases]


@pytest.mark.parametrize("M, det", [
    ([], 1),
    ([[0, 1], [0, 2]], 0),
], ids=["empty", "zero-column"])
def test_determinant_edge_cases(M, det):
    # the empty product, and a column with no pivot to swap in
    assert determinant(M) == det
