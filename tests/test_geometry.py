"""Tests for affine circuit geometry and Newton-polytope helpers."""

import ast
import random
from itertools import combinations
from math import prod
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from sparsefeas.errors import PreconditionError
from sparsefeas.feasibility import COMPACT_SPHERE, EMPTY, feas_circuit
from sparsefeas.geometry import (
    affine_dim,
    analyze_support,
    facet_complements,
    find_circuit,
    interior_point,
)
from sparsefeas.intlattice import hermite_factor, primitive_vector, smith_factor
from sparsefeas.sparsepoly import make_polynomial, parse, support


def _rank(M):
    """Rank over Q from the Smith form, an algorithm analyze_support does
    not use."""
    if not M:
        return 0
    S = smith_factor(M)[0]
    return sum(1 for i in range(min(len(S), len(S[0]))) if S[i][i])


def _integer_kernel(M):
    """A lattice basis of {v : M v == 0}, as rows: the columns of V past
    the nonzero diagonal of the Smith form U M V = S, independent of the
    echelon elimination that analyze_support reads its relations from."""
    S, _, V = smith_factor(M)
    r = sum(1 for i in range(min(len(S), len(S[0]))) if S[i][i])
    return [[row[k] for row in V] for k in range(r, len(V))]


def _initial_form(f, w):
    """The subpolynomial of the terms whose exponent minimizes w . a."""
    vals = [sum(wk * e for wk, e in zip(w, t.exponents)) for t in f.terms]
    return make_polynomial(
        f.n, [(t.exponents, t.coefficient) for t, v in zip(f.terms, vals) if v == min(vals)]
    )


def _facet_scan_reference(A, n):
    """All primitive inner facet normals of Conv(A), sorted, by the subset
    scan: every n-subset whose differences have a kernel of dimension 1
    spans a hyperplane, kept when the rest of A lies on one side of it."""
    pts = list(A)
    normals = set()
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        diffs = [[pts[i][k] - base[k] for k in range(n)] for i in sub[1:]]
        ker = _integer_kernel(diffs) if diffs else [[1]]
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
    w = primitive_vector(_integer_kernel(diffs)[0]) if diffs else [1]
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


def test_find_circuit_preconditions():
    # no points, or more than dim + 2 of them, have no one circuit
    with pytest.raises(PreconditionError):
        find_circuit([])
    with pytest.raises(PreconditionError):
        find_circuit([(0,), (1,), (2,), (3,)])
    # a repeated point has the relation (1, -1) with its copy, which is no
    # circuit: as the whole support, or as the circuit part of a pyramid
    for pts in ([(0,), (0,)], [(0,), (0,), (1,)]):
        with pytest.raises(ValueError, match="points not pairwise distinct"):
            find_circuit(pts)


def test_interior_point_is_unique_sign():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    circuit, idx = find_circuit(pts)
    inner = interior_point(circuit.relation)
    assert pts[idx[inner]] == (1, 1)


def test_interior_point_none_for_degenerate_circuit():
    # (0,), (1,), (2,), relation (1,-2,1): two signs twice -> both
    # orientations have two entries, but the unique-sign rule needs one
    pts = [(0, 0), (1, 1), (2, 0), (1, -1)]
    circuit, _ = find_circuit(pts)
    assert interior_point(circuit.relation) is None


def _facet_values(m, out):
    """The values, up to a positive factor, of the inner affine function
    of the facet with complement ``out``: -m_q at p and m_p at q for a
    mixed pair, 1 at an apex z."""
    v = [0] * len(m)
    if len(out) == 1:
        v[out[0]] = 1
    else:
        v[out[0]], v[out[1]] = -m[out[1]], m[out[0]]
    return v


def _column_read(an, values):
    """primitive(sum_j values[j] S_j) over the columns S_j of an.solution,
    as (c, w)."""
    c, *w = primitive_vector([sum(v * x for v, x in zip(values, row)) for row in an.solution])
    return c, tuple(w)


def _meets(pts, cw, values):
    """Whether c + w . a_j is a positive multiple of values[j] at every
    point."""
    c, w = cw
    got = [c + sum(wk * a for wk, a in zip(w, p)) for p in pts]
    j = next(j for j, v in enumerate(values) if v)
    return got[j] * values[j] > 0 and all(g * values[j] == v * got[j] for g, v in zip(got, values))


def _facet_reads(pts):
    """Each facet complement of a full-dimensional support with at most
    one affine relation m, mapped to the primitive (c, w) read off the
    columns S_j of its analysis: primitive(m_p S_q - m_q S_p) for a mixed
    pair (p, q), primitive(S_z) for an apex z (m_z = 0)."""
    an = analyze_support(pts)
    X = an.solution
    m = an.kernel[0] if an.kernel else [0] * len(pts)
    reads = {
        (p, q): primitive_vector([m[p] * x[q] - m[q] * x[p] for x in X])
        for p, q in facet_complements(m)
    }
    reads.update({(z,): primitive_vector([x[z] for x in X]) for z, v in enumerate(m) if v == 0})
    return {out: (c, tuple(w)) for out, (c, *w) in reads.items()}


def _facet_normals(pts):
    return sorted(w for _, w in _facet_reads(pts).values())


def test_facet_normals_square():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    normals = _facet_normals(pts)
    assert set(normals) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_facet_normals_triangle():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    normals = _facet_normals(pts)
    assert set(normals) == {(1, 0), (0, 1), (-1, -1)}


def test_facet_normals_segment():
    assert set(_facet_normals([(0,), (5,)])) == {(1,), (-1,)}


def _points_off_facet(pts, w):
    """How many points lie strictly above the minimum of w . a."""
    vals = [sum(wk * a for wk, a in zip(w, p)) for p in pts]
    return sum(1 for v in vals if v > min(vals))


def test_facet_normals_match_subset_scan():
    # the Gale rule: the mixed-pair reads are the normals of the facets
    # that leave out exactly two points, the apex reads those of the rest
    rng = random.Random(2024)
    kinds = {}
    for k in range(1200):
        n = 1 + k % 5
        kind = rng.choice(("simplex", "circuit", "pyramid") if n > 1 else ("simplex", "circuit"))
        pts = _random_support(rng, n, kind)
        scan = _facet_scan_reference(pts, n)
        reads = _facet_reads(pts)
        pairs = sorted(w for out, (_, w) in reads.items() if len(out) == 2)
        assert pairs == [w for w in scan if _points_off_facet(pts, w) == 2], pts
        assert sorted(w for _, w in reads.values()) == scan, pts
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 300


def test_facet_normal_solves_match_kernel_rule():
    # each facet's normal is a column read of the support's one solution;
    # it must equal the facet's own kernel, oriented
    rng = random.Random(4242)
    facets = 0
    for k in range(1000):
        n = 1 + k % 5
        kind = ("simplex", "circuit", "pyramid")[k % 3] if n > 1 else ("simplex", "circuit")[k % 2]
        pts = _random_support(rng, n, kind)
        an = analyze_support(pts)
        assert an.rank == n + 1
        # the relation of the (1 | a_j) kernel, a lattice of rank <= 1 whose
        # basis is unique up to sign
        ker = _integer_kernel([[1] * len(pts)] + [list(col) for col in zip(*pts)])
        assert len(an.kernel) == len(ker)
        assert all(list(a) in (b, [-x for x in b]) for a, b in zip(an.kernel, ker))
        for out, (c, w) in _facet_reads(pts).items():
            assert w == _facet_normal_reference(pts, out), (pts, out)
            vals = [c + sum(wk * a for wk, a in zip(w, p)) for p in pts]
            assert all(v == 0 for j, v in enumerate(vals) if j not in out)
            assert all(vals[j] > 0 for j in out)
            facets += 1
    assert facets > 4000


def test_affine_function_lower_dimensional():
    # rank-deficient supports have free columns: the solve sets them to 0,
    # and the weighted read of any values and the one-column read
    # primitive(D e_0 - S_j) still meet their values, up to one positive
    # factor, as the reference back substitution does
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
        assert an.rank <= n
        ref = _hermite_analysis_reference(pts)
        X, D = an.solution, sum(an.solution[0])
        for j in range(len(pts)):
            values = [int(i != j) for i in range(len(pts))]
            read = primitive_vector([D - X[0][j], *(-x[j] for x in X[1:])])
            assert (read[0], tuple(read[1:])) == _affine_function_reference(ref, values), pts
            if any(values):
                assert _meets(pts, (read[0], read[1:]), values), pts
        values = [rng.randint(0, 5) for _ in pts]
        if not any(values):
            continue
        cw = _column_read(an, values)
        assert cw == _affine_function_reference(ref, values), pts
        assert _meets(pts, cw, values), pts


def _hermite_analysis_reference(pts):
    """The support analysis by a Hermite factorization U (1 | a_j) = H:
    its rank, pivot columns, kernel U[rank:], and the solution columns of
    H x = U e_j by one back substitution over all right-hand sides, free
    columns 0, scaled by the product D of the pivots."""
    H, U = hermite_factor([[1, *p] for p in pts])
    r = sum(1 for row in H if any(row))
    pivots = [next(k for k, h in enumerate(row) if h) for row in H[:r]]
    D = prod(row[p] for row, p in zip(H, pivots))
    X = [[0] * len(pts) for _ in H[0]]
    for p, row, u in reversed(list(zip(pivots, H, U))):
        acc = [D * uj for uj in u]
        for h, x in zip(row[p + 1:], X[p + 1:]):
            if h:
                acc = [a - h * xj for a, xj in zip(acc, x)]
        X[p] = [a // row[p] for a in acc]
    return SimpleNamespace(H=H, U=U, rank=r, pivots=pivots, kernel=U[r:], D=D, solution=X)


def _affine_function_reference(ref, values):
    """The primitive (c, w) with c + w . a_j a positive multiple of
    values[j] at every point, by its own back substitution of
    H x = U values in the Hermite reference ``ref``, free columns 0,
    scaled by the product D of the pivots."""
    H = ref.H
    x = [0] * len(H[0])
    for p, row, u in reversed(list(zip(ref.pivots, H, ref.U))):
        b = sum(uj * v for uj, v in zip(u, values))
        x[p] = (ref.D * b - sum(row[k] * x[k] for k in range(p + 1, len(x)))) // row[p]
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
    # the one solution per support, summed over the nonzero values, equals
    # a fresh Hermite back substitution for every facet and every dominant
    # direction 1 - e_j; values that are not orthogonal to the relations
    # are no affine function's values
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
        ref = _hermite_analysis_reference(pts)
        m = an.kernel[0] if an.kernel else [0] * len(pts)
        apexes = [(z,) for z, v in enumerate(m) if v == 0]
        vectors = [_facet_values(m, out) for out in facet_complements(m) + apexes]
        vectors += [[int(i != j) for i in range(len(pts))] for j in range(len(pts))]
        for values in vectors:
            if sum(a * b for a, b in zip(m, values)):
                assert not _meets(pts, _column_read(an, values), values), pts
                refused += 1
            elif any(values):
                cw = _column_read(an, values)
                assert cw == _affine_function_reference(ref, values), pts
                assert _meets(pts, cw, values), pts
                solves += 1
    assert solves > 7000 and refused > 1000, (solves, refused)


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
    # the columns S_j of the solution sum to (D, 0, ..., 0) with D > 0:
    # the all-ones values, since column 0 of (1 | a_j) is always a pivot
    rng = random.Random(1201)
    lower = 0
    for pts in _mixed_supports(rng, 1200):
        an = analyze_support(pts)
        D = sum(an.solution[0])
        assert D > 0
        assert [sum(row) for row in an.solution] == [D] + [0] * len(pts[0]), pts
        lower += an.rank <= len(pts[0])
    assert lower >= 250


def test_column_reads_match_affine_function():
    # a facet normal of a mixed pair (p, q) is primitive(m_p S_q - m_q S_p)
    # and the dominant direction of term j is primitive(D e_0 - S_j), both
    # equal to the reference back substitution's (c, w) for the same values
    rng = random.Random(1202)
    pairs = directions = 0
    for pts in _mixed_supports(rng, 1200):
        an = analyze_support(pts)
        if len(an.kernel) > 1:
            continue
        ref = _hermite_analysis_reference(pts)
        X, D = an.solution, sum(an.solution[0])
        m = an.kernel[0] if an.kernel else [0] * len(pts)
        for p, q in facet_complements(m):
            read = primitive_vector([m[p] * x[q] - m[q] * x[p] for x in X])
            want = _affine_function_reference(ref, _facet_values(m, (p, q)))
            assert (read[0], tuple(read[1:])) == want, pts
            pairs += 1
        for j in (j for j, v in enumerate(m) if v == 0):
            read = primitive_vector([D - X[0][j], *(-x[j] for x in X[1:])])
            values = [int(i != j) for i in range(len(pts))]
            assert (read[0], tuple(read[1:])) == _affine_function_reference(ref, values), pts
            directions += 1
    assert pairs > 1000 and directions > 2000


def test_initial_form_selects_face():
    f = parse("1 + x1^4 + x2^4 - 3*x1*x2")
    g = _initial_form(f, (-1, -1))
    # the face minimizing <(-1,-1), a> is {(4,0),(0,4)}... actually the
    # maximizing convention keeps the terms supported on the chosen face
    pts = support(g).points
    assert all(p in support(f).points for p in pts)
    assert len(pts) < len(support(f).points)


def test_caged_alternation():
    # the interior point (1, 1) alone negative cages the alternation, and
    # the discriminant then finds a compact sphere; with one sign
    # throughout there is no alternation, and Z_+ is empty
    assert feas_circuit(parse("1 + x1^4 + x2^4 - 3*x1*x2")).classification == COMPACT_SPHERE
    assert feas_circuit(parse("1 + x1^4 + x2^4 + 3*x1*x2")).classification == EMPTY


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
    # one echelon elimination per instance: outside intlattice itself,
    # only geometry.analyze_support runs its forward pass, and only the
    # analysis's solution its backward pass
    def callers(name):
        return {
            f"{path.stem}.{scope}"
            for path in sorted(SRC.glob("*.py"))
            if path.stem != "intlattice"
            for scope in _callers(path, name)
        }

    imported = {"geometry.import in module"}
    assert callers("echelon_rows") == imported | {"geometry.analyze_support"}
    assert callers("echelon_solution") == imported | {"geometry.SupportAnalysis.solution"}
    # no decider takes a Hermite or a Smith form: the package only
    # re-exports them
    assert callers("hermite_factor") == {"__init__.import in module"}
    assert callers("smith_factor") == {"__init__.import in module"}
    # the helper sees calls inside intlattice
    assert "hermite_factor" in _callers(SRC / "intlattice.py", "_egcd")
    assert "smith_factor" in _callers(SRC / "intlattice.py", "hermite_factor")
    assert {"echelon_rows", "echelon_solution"} <= _callers(SRC / "intlattice.py", "_clear")


def _disc_sign_circuits(rng, count, bits=(40, 62)):
    """Full circuits of n + 2 points in R^n, n = 2, 3, with coordinates of
    ``bits`` bits, the shape of the disc_sign benchmark's circuits."""
    out = []
    while len(out) < count:
        n = 2 + len(out) % 2
        b = rng.randint(*bits)
        pts = [tuple(rng.getrandbits(b) for _ in range(n)) for _ in range(n + 2)]
        ref = _hermite_analysis_reference(pts)
        if ref.rank == n + 1 and all(ref.kernel[0]):
            out.append(pts)
    return out


def _ratios(X, D, values):
    """X values / D: the solution of (1 | a_j) x = values with free
    coordinates 0, the same for every solution matrix when the values are
    orthogonal to the relations."""
    return [Fraction(sum(x * v for x, v in zip(row, values)), D) for row in X]


def test_echelon_analysis_matches_hermite_reference():
    # the primitive-row elimination and the Hermite factorization agree on
    # rank, pivot columns and kernel (up to sign, or as a basis over Q of
    # the same relations), and on everything a decider reads off the
    # solution: facet normals, dominant directions and the exponent
    # ratios E/P of a degenerate point, E = S e for e orthogonal to m
    rng = random.Random(1818)
    supports = list(_mixed_supports(rng, 3000)) + _disc_sign_circuits(rng, 300)
    facets = directions = ratios = 0
    for pts in supports:
        an, ref = analyze_support(pts), _hermite_analysis_reference(pts)
        assert (an.rank, an.pivots) == (ref.rank, ref.pivots), pts
        assert len(an.kernel) == len(ref.kernel), pts
        if len(an.kernel) > 1:
            rows = [[1, *p] for p in pts]
            assert all(not any(sum(v * r[k] for v, r in zip(row, rows)) for k in range(len(rows[0])))
                       for row in an.kernel), pts
            assert _rank(an.kernel + ref.kernel) == len(ref.kernel), pts
            continue
        m = an.kernel[0] if an.kernel else [0] * len(pts)
        if an.kernel:
            assert an.kernel[0] in (ref.kernel[0], [-x for x in ref.kernel[0]]), pts
        X, D, Y = an.solution, sum(an.solution[0]), ref.solution
        for p, q in facet_complements(m):
            got, want = (primitive_vector([m[p] * x[q] - m[q] * x[p] for x in S]) for S in (X, Y))
            assert got == want, pts
            facets += 1
        for j in (j for j, v in enumerate(m) if v == 0):
            got = primitive_vector([D - X[0][j], *(-x[j] for x in X[1:])])
            assert got == primitive_vector([ref.D - Y[0][j], *(-y[j] for y in Y[1:])]), pts
            directions += 1
        mm = sum(v * v for v in m)
        for _ in range(2):
            y = [rng.randint(-9, 9) for _ in pts]
            e = [mm * yj - sum(a * b for a, b in zip(m, y)) * mj for yj, mj in zip(y, m)] if mm else y
            assert _ratios(X[1:], D, e) == _ratios(Y[1:], ref.D, e), pts
            ratios += 1
    assert facets > 3000 and directions > 5000 and ratios > 6000, (facets, directions, ratios)


def _minor_bound_squared(pts, r):
    """The square of the Hadamard bound on the minors of (1 | a_j) of size
    at most r: the product of the r largest squared row norms."""
    return prod(sorted((1 + sum(a * a for a in p) for p in pts), reverse=True)[:r])


def test_echelon_entries_within_hadamard_bound():
    # every stored row is a multiple of a Bareiss row, and the solution
    # is D/d_i times a reduced row with D | the pivot minor, so no entry of
    # the kernel or the solution exceeds the bound on the rank-size minors
    rng = random.Random(1819)
    supports = _disc_sign_circuits(rng, 300, bits=(62, 62))
    for k in range(1500):
        n = 1 + k % 6
        supports.append([tuple(rng.getrandbits(20) for _ in range(n)) for _ in range(n + 1 + k % 2)])
    for pts in supports:
        an = analyze_support(pts)
        bound = _minor_bound_squared(pts, an.rank)
        assert max(x * x for row in an.kernel + an.solution for x in row) <= bound, pts
