"""Exact integer matrix algebra: determinants, echelon elimination, and
Hermite and Smith forms.

Everything here is fraction-free, so intermediate entries stay integers
of modest size: Bareiss elimination for determinants, and one echelon
elimination with primitive rows (each new row divided by its content) of
[M | I], which gives the rank and kernel eagerly and the solution columns
in a second, backward pass.  The support analysis runs on that
elimination alone.  hermite_factor and smith_factor are kept for the
lattice suite of the acceptance tests: extended-gcd row operations with
cofactors from C-level gcd and modular inverse, and Smith from
alternating row and column Hermite forms.  Matrices are lists of lists
of Python ints, row-major.
"""

from __future__ import annotations

from math import gcd, lcm


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
        # kill entries below by the unimodular gcd rotation [[s, t], [-q, p]]
        for i in range(row + 1, n):
            a, b = H[row][col], H[i][col]
            if not b:
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


def _clear(row, pivot, col):
    """primitive(d row - b pivot), d = pivot[col] != 0, b = row[col]: the
    row with its entry in column ``col`` cleared, divided by its content."""
    d, b = pivot[col], row[col]
    new = [d * x - b * y for x, y in zip(row, pivot)]
    g = gcd(*new)
    return new if g == 1 else [x // g for x in new]


def echelon_rows(M):
    """Forward pass of a fraction-free elimination of [M | I] with primitive
    rows: (pivots, rows, kernel).  Column by column, the first remaining
    row with a nonzero entry there clears it by _clear in the later rows
    that have one.  ``pivots`` are the pivot columns (the Hermite form's),
    ``rows`` the pivot rows [L_i | V_i] with V_i M = L_i, and ``kernel``
    the V of the zero rows, a basis over Q of {v : v M = 0}.
    Each row is the Bareiss row of the same pivots (Bareiss, Math. Comp.
    1968) over an integer, so its entries are at most minors of M."""
    n, width = len(M), len(M[0])
    rows = [[*r, *[0] * j, 1, *[0] * (n - 1 - j)] for j, r in enumerate(M)]
    pivots = []
    for col in range(width):
        k = len(pivots)
        for i in range(k, n):
            if rows[i][col]:
                break
        else:
            continue
        rows[i], rows[k] = rows[k], rows[i]
        pivot = rows[k]
        for i in range(k + 1, n):
            if rows[i][col]:
                rows[i] = _clear(rows[i], pivot, col)
        pivots.append(col)
    r = len(pivots)
    return pivots, rows[:r], [row[width:] for row in rows[r:]]


def echelon_solution(pivots, rows, width):
    """Backward pass over echelon_rows' pivot rows for M of ``width``
    columns: _clear reduces each [L_i | V_i] to one pivot d_i among the
    pivot columns, and X[p_i] = (D / d_i) V_i, D = lcm(d_i) > 0, free rows 0.
    Column j of X is D times the x with free coordinates 0 that solves the
    pivot rows' equations of M x = e_j, so M x = e_j when e_j is consistent."""
    rows = list(rows)
    for i in reversed(range(len(rows))):
        for k in range(i):
            if rows[k][pivots[i]]:
                rows[k] = _clear(rows[k], rows[i], pivots[i])
    D = lcm(*(row[p] for row, p in zip(rows, pivots)))
    X = [[0] * (len(rows[0]) - width) for _ in range(width)]
    for p, row in zip(pivots, rows):
        X[p] = [D // row[p] * v for v in row[width:]]
    return X


def smith_factor(M):
    """Smith normal form: returns (S, U, V) with U @ M @ V == S.

    U and V are unimodular; S is diagonal with nonnegative entries
    satisfying the divisibility chain s1 | s2 | ... .  Row and column
    Hermite forms alternate until S is diagonal: each round the leading
    entry divides the last one, and once it stays put its row and column
    are clear.  A diagonal entry that does not divide a later one, or a 0
    before a nonzero one, takes in the later one's row, and the rounds
    bring it down to their gcd.
    """
    S, U = _copy(M), identity(len(M))
    V = identity(len(M[0]) if M else 0)
    while True:
        if all(x >= 0 if i == j else x == 0 for i, row in enumerate(S) for j, x in enumerate(row)):
            d = [S[i][i] for i in range(min(len(U), len(V)))]
            bad = ((i, j) for j in range(len(d)) for i in range(j) if (d[j] % d[i] if d[i] else d[j]))
            i, j = next(bad, (None, None))
            if i is None:
                return S, U, V
            S[i][j] = d[j]
            U[i] = [a + b for a, b in zip(U[i], U[j])]
        T, C = hermite_factor([list(col) for col in zip(*S)])
        S, R = hermite_factor([list(row) for row in zip(*T)])
        U, V = mat_mul(R, U), mat_mul(V, [list(col) for col in zip(*C)])


def primitive_vector(v):
    """Scale an integer vector by 1/gcd so that its entries are coprime."""
    g = gcd(*v)
    return [x // g for x in v] if g else list(v)
