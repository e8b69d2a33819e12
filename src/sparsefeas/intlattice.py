"""Exact integer matrix algebra: determinants and Hermite and Smith forms.

Everything here is fraction-free: Bareiss elimination for determinants and
extended-gcd row operations for the normal forms, so intermediate entries
stay integers of modest size.  The one extended gcd takes its cofactors
from C-level gcd and modular inverse; Hermite clears an entry that its
pivot divides with one row operation instead of a gcd rotation.  Matrices
are lists of lists of Python ints, row-major.
"""

from __future__ import annotations

from math import gcd


def _copy(M):
    return [list(row) for row in M]


def mat_mul(A, B):
    """Integer matrix product A @ B."""
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    assert all(len(r) == k for r in A)
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def determinant(M) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(M)
    if n == 0:
        return 1
    assert all(len(row) == n for row in M)
    A = _copy(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def _egcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0: the
    cofactors of the Euclidean remainder sequence, s reduced into
    (-|b/g|/2, |b/g|/2] (sign(b) on the tie |b/g| == 2), from C-level
    gcd and modular inverse."""
    g = gcd(a, b)
    if not b:
        return g, -1 if a < 0 else 1, 0
    q = abs(b) // g
    s = pow(a // g, -1, q)
    if 2 * s > q:
        s -= q
    elif 2 * s == q:
        s = 1 if b > 0 else -1
    return g, s, (g - s * a) // b


def hermite_factor(M):
    """Row-style Hermite normal form: returns (H, U) with U @ M == H,
    U unimodular.

    H is upper echelon with positive pivots and entries above each pivot
    reduced into [0, pivot).  Works for any rectangular integer matrix.
    """
    H = _copy(M)
    n = len(H)
    m = len(H[0]) if n else 0
    U = identity(n)
    row = 0
    for col in range(m):
        if row >= n:
            break
        for pivot in range(row, n):
            if H[pivot][col]:
                break
        else:
            continue
        H[row], H[pivot] = H[pivot], H[row]
        U[row], U[pivot] = U[pivot], U[row]
        # kill entries below: one row operation when the pivot divides
        # the entry, else the unimodular gcd rotation [[s, t], [-q, p]]
        for i in range(row + 1, n):
            a, b = H[row][col], H[i][col]
            if not b:
                continue
            if b % a == 0:
                k = b // a
                H[i] = [y - k * x for x, y in zip(H[row], H[i])]
                U[i] = [y - k * x for x, y in zip(U[row], U[i])]
                continue
            g, s, t = _egcd(a, b)
            p, q = a // g, b // g
            for R in (H, U):
                R[row], R[i] = (
                    [s * x + t * y for x, y in zip(R[row], R[i])],
                    [p * y - q * x for x, y in zip(R[row], R[i])],
                )
        if H[row][col] < 0:
            H[row] = [-v for v in H[row]]
            U[row] = [-v for v in U[row]]
        # reduce entries above the pivot into [0, pivot)
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[row])]
                U[i] = [x - q * y for x, y in zip(U[i], U[row])]
        row += 1
    return H, U


def smith_factor(M):
    """Smith normal form: returns (S, U, V) with U @ M @ V == S.

    U and V are unimodular; S is diagonal with nonnegative entries
    satisfying the divisibility chain s1 | s2 | ... .
    """
    S = _copy(M)
    n = len(S)
    m = len(S[0]) if n else 0
    U = identity(n)
    V = identity(m)

    def row_op(i1, i2, s, t, q, p):
        S[i1], S[i2] = (
            [s * S[i1][j] + t * S[i2][j] for j in range(m)],
            [-q * S[i1][j] + p * S[i2][j] for j in range(m)],
        )
        U[i1], U[i2] = (
            [s * U[i1][j] + t * U[i2][j] for j in range(n)],
            [-q * U[i1][j] + p * U[i2][j] for j in range(n)],
        )

    def col_op(j1, j2, s, t, q, p):
        for i in range(n):
            S[i][j1], S[i][j2] = (
                s * S[i][j1] + t * S[i][j2],
                -q * S[i][j1] + p * S[i][j2],
            )
        for i in range(m):
            V[i][j1], V[i][j2] = (
                s * V[i][j1] + t * V[i][j2],
                -q * V[i][j1] + p * V[i][j2],
            )

    k = 0
    while k < min(n, m):
        # find a pivot
        piv = None
        for i in range(k, n):
            for j in range(k, m):
                if S[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != k:
            S[k], S[i0] = S[i0], S[k]
            U[k], U[i0] = U[i0], U[k]
        if j0 != k:
            for i in range(n):
                S[i][k], S[i][j0] = S[i][j0], S[i][k]
            for i in range(m):
                V[i][k], V[i][j0] = V[i][j0], V[i][k]
        while True:
            # clear column k below the pivot
            for i in range(k + 1, n):
                if S[i][k]:
                    a, b = S[k][k], S[i][k]
                    g, s, t = _egcd(a, b)
                    row_op(k, i, s, t, b // g, a // g)
            if all(S[k][j] % S[k][k] == 0 for j in range(k + 1, m)):
                # plain subtractions leave the cleared column untouched
                for j in range(k + 1, m):
                    if S[k][j]:
                        col_op(k, j, 1, 0, S[k][j] // S[k][k], 1)
                break
            # the pivot strictly shrinks here, so this terminates even
            # though the gcd rotation may disturb the cleared column
            for j in range(k + 1, m):
                if S[k][j]:
                    a, b = S[k][k], S[k][j]
                    g, s, t = _egcd(a, b)
                    col_op(k, j, s, t, b // g, a // g)
        # enforce divisibility: if s_k does not divide some later entry,
        # fold that entry's row into row k and redo the elimination
        fixed = True
        for i in range(k + 1, n):
            for j in range(k + 1, m):
                if S[i][j] % S[k][k] != 0:
                    S[k] = [S[k][t2] + S[i][t2] for t2 in range(m)]
                    U[k] = [U[k][t2] + U[i][t2] for t2 in range(n)]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if S[k][k] < 0:
            S[k] = [-v for v in S[k]]
            U[k] = [-v for v in U[k]]
        k += 1
    return S, U, V


def primitive_vector(v):
    """Scale an integer vector by 1/gcd so that its entries are coprime."""
    g = gcd(*v)
    return [x // g for x in v] if g else list(v)
