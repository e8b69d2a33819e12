"""Tests for affine circuit geometry and Newton-polytope helpers."""

import ast
import random
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

from sparsefeas.errors import PreconditionError
from sparsefeas.geometry import (
    affine_dim,
    affine_function,
    analyze_support,
    caged_alternation,
    facet_complements,
    facet_normals,
    facet_values,
    find_circuit,
    initial_form,
    interior_point,
)
from sparsefeas.intlattice import integer_kernel, primitive_vector, smith_factor
from sparsefeas.sparsepoly import parse, support


def _rank(M):
    """Rank over Q from the Smith form, an algorithm facet_normals does
    not use."""
    if not M:
        return 0
    S = smith_factor(M)[0]
    return sum(1 for i in range(min(len(S), len(S[0]))) if S[i][i])


def _facet_scan_reference(A, n):
    """All primitive inner facet normals of Conv(A), sorted, by the subset
    scan: every n-subset whose differences have a kernel of dimension 1
    spans a hyperplane, kept when the rest of A lies on one side of it."""
    pts = list(A)
    normals = set()
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        diffs = [[pts[i][k] - base[k] for k in range(n)] for i in sub[1:]]
        ker = integer_kernel(diffs) if diffs else [[1]]
        if len(ker) != 1:
            continue
        w = primitive_vector(ker[0])
        vals = [sum(wk * (p[k] - base[k]) for k, wk in enumerate(w)) for p in pts]
        if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
            normals.add(tuple(w))
        elif all(v <= 0 for v in vals) and any(v < 0 for v in vals):
            normals.add(tuple(-x for x in w))
    return sorted(normals)


def _facet_normal_reference(A, out):
    """Primitive inner normal of the facet Conv(A minus out) by its own
    integer kernel: the kernel of the facet points' differences, oriented
    positive at A[out[0]]."""
    pts = list(A)
    face = [p for j, p in enumerate(pts) if j not in out]
    diffs = [[a - b for a, b in zip(p, face[0])] for p in face[1:]]
    w = primitive_vector(integer_kernel(diffs)[0]) if diffs else [1]
    if sum(wk * (a - b) for wk, a, b in zip(w, pts[out[0]], face[0])) < 0:
        w = [-wk for wk in w]
    return tuple(w)


def _random_support(rng, n, kind):
    """Distinct points spanning R^n: a simplex (n + 1 points), a circuit
    (n + 2), or a pyramid, whose d + 2 base points span only d < n
    coordinates, so that its n - d apexes have relation entry 0."""
    hi = rng.choice((2, 4, 9))

    def point(d):
        return tuple(rng.randint(0, hi) for _ in range(d)) + (0,) * (n - d)

    while True:
        if kind == "pyramid":
            d = rng.randint(1, n - 1)
            pts = [point(d) for _ in range(d + 2)] + [point(n) for _ in range(n - d)]
        else:
            pts = [point(n) for _ in range(n + 1 + (kind == "circuit"))]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        if len(set(pts)) == len(pts) and _rank(diffs) == n:
            return pts


def test_affine_dim():
    assert affine_dim([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_dim([(0, 0), (2, 2), (5, 5)]) == 1
    assert affine_dim([(3, 3)]) == 0


def test_find_circuit_quartic():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    circuit, idx = find_circuit(pts)
    assert sorted(idx) == [0, 1, 2, 3]
    rel = list(circuit.relation)
    if rel[-1] > 0:
        rel = [-x for x in rel]
    assert rel == [2, 1, 1, -4]
    assert sum(rel) == 0


def test_find_circuit_relation_annihilates_points():
    pts = [(0,), (3,), (7,)]
    circuit, idx = find_circuit(pts)
    rel = circuit.relation
    assert sum(rel) == 0
    assert sum(m * pts[i][0] for m, i in zip(rel, idx)) == 0


def test_find_circuit_absent_for_simplex():
    assert find_circuit([(0, 0), (1, 0), (0, 1)]) is None


def test_interior_point_is_unique_sign():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    circuit, idx = find_circuit(pts)
    inner = interior_point(circuit)
    assert pts[idx[inner]] == (1, 1)


def test_interior_point_none_for_degenerate_circuit():
    # (0,), (1,), (2,), relation (1,-2,1): two signs twice -> both
    # orientations have two entries, but the unique-sign rule needs one
    pts = [(0, 0), (1, 1), (2, 0), (1, -1)]
    circuit, _ = find_circuit(pts)
    assert interior_point(circuit) is None


def test_facet_normals_square():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    normals = facet_normals(pts, 2)
    assert set(normals) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_facet_normals_triangle():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    normals = facet_normals(pts, 2)
    assert set(normals) == {(1, 0), (0, 1), (-1, -1)}


def test_facet_normals_segment():
    assert set(facet_normals([(0,), (5,)], 1)) == {(1,), (-1,)}


def test_facet_normals_match_subset_scan():
    rng = random.Random(2024)
    kinds = {}
    for k in range(1200):
        n = 1 + k % 5
        kind = rng.choice(("simplex", "circuit", "pyramid") if n > 1 else ("simplex", "circuit"))
        pts = _random_support(rng, n, kind)
        assert facet_normals(pts, n) == _facet_scan_reference(pts, n), pts
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 300


def test_facet_normal_solves_match_kernel_rule():
    # each facet's normal is one back substitution against the support's
    # Hermite form; it must equal the facet's own kernel, oriented
    rng = random.Random(4242)
    facets = 0
    for k in range(1000):
        n = 1 + k % 5
        kind = ("simplex", "circuit", "pyramid")[k % 3] if n > 1 else ("simplex", "circuit")[k % 2]
        pts = _random_support(rng, n, kind)
        an = analyze_support(pts)
        assert an.rank == n + 1
        # the relation as the (1 | a_j) kernel gives it, unnormalized
        ker = integer_kernel([[1] * len(pts)] + [list(col) for col in zip(*pts)])
        assert [list(row) for row in an.kernel] == ker
        m = ker[0] if ker else [0] * len(pts)
        for out in facet_complements(m):
            c, w = affine_function(an, facet_values(m, out))
            assert w == _facet_normal_reference(pts, out), (pts, out)
            vals = [c + sum(wk * a for wk, a in zip(w, p)) for p in pts]
            assert all(v == 0 for j, v in enumerate(vals) if j not in out)
            assert all(vals[j] > 0 for j in out)
            facets += 1
    assert facets > 4000


def test_affine_function_lower_dimensional():
    # rank-deficient supports have free columns: the solver sets them to
    # 0 and still meets every prescribed value, up to one positive factor
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 5)
        d = rng.randint(1, n - 1)
        M = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        base = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(d + 1)]
        pts = list({tuple(sum(r * b for r, b in zip(row, p)) for row in M) for p in base})
        an = analyze_support(pts)
        if an.kernel:
            continue
        values = [rng.randint(0, 5) for _ in pts]
        if not any(values):
            continue
        c, w = affine_function(an, values)
        got = [c + sum(wk * a for wk, a in zip(w, p)) for p in pts]
        j = next(j for j, v in enumerate(values) if v)
        assert got[j] * values[j] > 0
        assert all(g * values[j] == v * got[j] for g, v in zip(got, values))


def _affine_function_reference(an, values):
    """affine_function by its own back substitution of H x = U values,
    free columns 0, scaled by the product D of the pivots."""
    H, r = an.H, an.rank
    pivots = [next(k for k, h in enumerate(row) if h) for row in H[:r]]
    D = prod(row[p] for row, p in zip(H, pivots))
    x = [0] * len(H[0])
    for p, row, u in reversed(list(zip(pivots, H, an.U))):
        b = sum(uj * v for uj, v in zip(u, values))
        x[p] = (D * b - sum(row[k] * x[k] for k in range(p + 1, len(x)))) // row[p]
    c, *w = primitive_vector(x)
    return c, tuple(w)


def _embedded_support(rng):
    """Distinct points of a random d-dimensional support (a simplex or a
    circuit) mapped into R^n, n > d, by a random integer matrix."""
    n = rng.randint(2, 5)
    d = rng.randint(1, n - 1)
    M = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
    base = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(d + rng.randint(1, 2))]
    return list({tuple(sum(r * b for r, b in zip(row, p)) for row in M) for p in base})


def test_affine_function_matches_back_substitution():
    # the one adjugate solve per support, summed over the nonzero values,
    # equals a fresh back substitution for every facet and every dominant
    # direction 1 - e_j; values that are not orthogonal to the relations
    # are refused
    rng = random.Random(77)
    solves = refused = 0
    for k in range(1200):
        if k % 4 == 3:
            pts = _embedded_support(rng)
        else:
            n = 1 + k % 5
            kind = ("simplex", "circuit", "pyramid")[k % 3] if n > 1 else ("simplex", "circuit")[k % 2]
            pts = _random_support(rng, n, kind)
        an = analyze_support(pts)
        if len(an.kernel) > 1:
            continue
        m = an.kernel[0] if an.kernel else [0] * len(pts)
        vectors = [facet_values(m, out) for out in facet_complements(m)]
        vectors += [[int(i != j) for i in range(len(pts))] for j in range(len(pts))]
        for values in vectors:
            if sum(a * b for a, b in zip(m, values)):
                with pytest.raises(PreconditionError):
                    affine_function(an, values)
                refused += 1
            elif any(values):
                assert affine_function(an, values) == _affine_function_reference(an, values)
                solves += 1
    assert solves > 7000 and refused > 1000, (solves, refused)


def _pivot_product(an):
    """The product D of the pivots of the support's Hermite form."""
    return prod(next(h for h in row if h) for row in an.H[:an.rank])


def _mixed_supports(rng, count):
    """Full-dimensional simplices, circuits and pyramids for n <= 6, and
    every fourth one a lower-dimensional support embedded in R^n."""
    for k in range(count):
        if k % 4 == 3:
            yield _embedded_support(rng)
        else:
            n = 1 + k % 6
            kinds = ("simplex", "circuit", "pyramid") if n > 1 else ("simplex", "circuit")
            yield _random_support(rng, n, kinds[k % len(kinds)])


def test_solution_columns_sum_to_pivot_product():
    # the columns S_j of the adjugate solve sum to (D, 0, ..., 0): the
    # all-ones values, since column 0 of (1 | a_j) is always a pivot
    rng = random.Random(1201)
    lower = 0
    for pts in _mixed_supports(rng, 1200):
        an = analyze_support(pts)
        D = _pivot_product(an)
        assert D > 0
        assert [sum(row) for row in an.solution] == [D] + [0] * len(pts[0]), pts
        lower += an.rank <= len(pts[0])
    assert lower >= 250


def test_column_reads_match_affine_function():
    # a facet normal of a mixed pair (p, q) is primitive(m_p S_q - m_q S_p)
    # and the dominant direction of term j is primitive(D e_0 - S_j), both
    # equal to affine_function's (c, w) for the same values
    rng = random.Random(1202)
    pairs = directions = 0
    for pts in _mixed_supports(rng, 1200):
        an = analyze_support(pts)
        if len(an.kernel) > 1:
            continue
        X, D = an.solution, _pivot_product(an)
        m = an.kernel[0] if an.kernel else [0] * len(pts)
        for out in facet_complements(m):
            if len(out) == 2:
                p, q = out
                read = primitive_vector([m[p] * x[q] - m[q] * x[p] for x in X])
                want = affine_function(an, facet_values(m, out))
                assert (read[0], tuple(read[1:])) == want, pts
                pairs += 1
        for j in (j for j, v in enumerate(m) if v == 0):
            read = primitive_vector([D - X[0][j], *(-x[j] for x in X[1:])])
            values = [int(i != j) for i in range(len(pts))]
            assert (read[0], tuple(read[1:])) == affine_function(an, values), pts
            directions += 1
    assert pairs > 1000 and directions > 2000


def test_affine_function_refuses_values_off_the_relations():
    # 1, 0, 0 on the collinear 0, 1, 2 is no affine function's values
    with pytest.raises(PreconditionError):
        affine_function(analyze_support([(0,), (1,), (2,)]), [1, 0, 0])
    assert affine_function(analyze_support([(0,), (1,), (2,)]), [0, 1, 2]) == (0, (1,))


def test_facet_normals_preconditions():
    with pytest.raises(PreconditionError):
        facet_normals([(0, 0), (1, 1), (2, 2)], 2)  # a segment in R^2
    with pytest.raises(PreconditionError):
        facet_normals([(0,), (1,), (2,), (3,)], 1)  # more than n + 2 points
    with pytest.raises(PreconditionError):
        facet_normals([], 1)


def test_initial_form_selects_face():
    f = parse("1 + x1^4 + x2^4 - 3*x1*x2")
    g = initial_form(f, (-1, -1))
    # the face minimizing <(-1,-1), a> is {(4,0),(0,4)}... actually the
    # maximizing convention keeps the terms supported on the chosen face
    pts = support(g).points
    assert all(p in support(f).points for p in pts)
    assert len(pts) < len(support(f).points)


def test_caged_alternation():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    circuit, idx = find_circuit(pts)
    coeffs = {(0, 0): 1, (4, 0): 1, (0, 4): 1, (1, 1): -3}
    signs = [1 if coeffs[pts[i]] > 0 else -1 for i in idx]
    assert caged_alternation(circuit, signs)
    signs_bad = [1, 1, 1, 1]
    assert not caged_alternation(circuit, signs_bad)


SRC = Path(__file__).resolve().parents[1] / "src" / "sparsefeas"


def _callers(path, name):
    """The functions (dotted through enclosing defs and classes, "" at
    module level) of a source file that call ``name`` or import it."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.add(scope)
        if isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            found.add(f"import in {scope or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_analyze_support_factors():
    # one Hermite factorization per instance: outside intlattice itself,
    # only geometry.analyze_support may compute one (the package also
    # re-exports the function)
    callers = {
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "intlattice"
        for scope in _callers(path, "hermite_factor")
    }
    assert callers == {
        "geometry.analyze_support",
        "geometry.import in module",
        "__init__.import in module",
    }
    # the helper sees a call inside intlattice
    assert "integer_kernel" in _callers(SRC / "intlattice.py", "hermite_factor")
