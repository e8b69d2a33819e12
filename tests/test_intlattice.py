"""Tests for the exact integer linear-algebra kernel."""

import random

from sparsefeas.intlattice import (
    determinant,
    hermite_factor,
    identity,
    integer_kernel,
    mat_mul,
    primitive_vector,
    smith_factor,
)


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


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
        kern = integer_kernel(m)
        S = smith_factor(m)[0]
        assert len(kern) == cols - sum(1 for i in range(min(rows, cols)) if S[i][i])
        for vec in kern:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_of_circuit_matrix():
    # support of 1 + x^4 + y^4 - 3xy bordered with ones
    m = [[1, 1, 1, 1], [0, 4, 0, 1], [0, 0, 4, 1]]
    kern = integer_kernel(m)
    assert len(kern) == 1
    vec = primitive_vector(kern[0])
    if vec[-1] > 0:
        vec = tuple(-x for x in vec)
    assert tuple(vec) == (2, 1, 1, -4)


def test_primitive_vector():
    assert primitive_vector([4, -6, 8]) == [2, -3, 4]
    assert primitive_vector([0, 0, 5]) == [0, 0, 1]

