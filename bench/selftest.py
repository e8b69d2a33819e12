"""Fast self-test of the benchmark: the references on worked cases, then a
few instances of every workload family through the library and the
reference checks.

    python3 bench/selftest.py

Exits 0 when every check passes.  Runs in a few seconds.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceMismatch, expect  # noqa: E402


def raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ReferenceMismatch:
        return True
    return False


def worked_cases():
    # 1 + x1^4 + x2^4 - 3 x1 x2: caged, |c_int| = 3 above the circuit number
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    expect(ref.expected_circuit_class(pts, [1, 1, 1, -3]) == ref.COMPACT_SPHERE, "sphere case")
    expect(ref.expected_circuit_class(pts, [1, 1, 1, -1]) == ref.EMPTY, "empty case")
    # x1^2 - 2 x1 + 1 = (x1 - 1)^2: on the discriminant, singular at 1
    tri = [((0,), 1), ((1,), -2), ((2,), 1)]
    expect(ref.expected_circuit_class([(0,), (1,), (2,)], [1, -2, 1]) == ref.SINGULAR_POINT, "tie case")
    ref.check_degenerate_point(tri, (Fraction(1),))
    expect(raises(ref.check_degenerate_point, tri, (Fraction(2),)), "wrong point accepted")
    # the radical form: (1, 2, 1) with zeta = 1^(1/2) is the same point
    ref.check_degenerate_point(tri, {"rhos": (Fraction(1),), "orders": (2,), "mixing": ((1,),)})
    expect(raises(ref.check_degenerate_point, tri,
                  {"rhos": (Fraction(4),), "orders": (2,), "mixing": ((1,),)}), "radical accepted")
    # facet faces and sign changes
    f = [((0, 0), 1), ((2, 0), -1), ((0, 2), 1)]
    ref.check_facet_certificate(f, (0, 1))
    expect(raises(ref.check_facet_certificate, f, (1, 0)), "one-sign face accepted")
    ref.check_sign_change(f, (Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(1)), positive=True)
    expect(raises(ref.check_sign_change, f, (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1)),
                  True), "no sign change accepted")
    expect(raises(ref.check_one_sign, f, [(Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(1))]),
           "sign change on an EMPTY verdict accepted")
    # simplex parity rule
    expect(ref.simplex_verdicts([((0, 0), 1), ((2, 0), 1), ((0, 2), 1)]) == ("empty", "empty", "empty"), "even")
    expect(ref.simplex_verdicts([((0, 0), 1), ((1, 0), 1), ((0, 2), 1)]) == ("empty", "nonempty", "nonempty"), "odd")
    expect(ref.simplex_verdicts([((2, 0), 1), ((0, 2), 1)]) == ("empty", "empty", "nonempty"), "origin")
    # the base-power fast path (B = 1 + sum |c| = 4) agrees with the plain sum
    for x in [(Fraction(1, 4 ** 5), -Fraction(4 ** 3)), (Fraction(4), Fraction(1, 4)), (Fraction(1), Fraction(4))]:
        expect(ref._base_powers(x, 4) is not None, "fast path not taken")
        expect(ref.sign_at(f, x) == ref.sign_by_sum(f, x), f"fast path at {x}")


def circuit_number_against_sturm(rng, count=40):
    """The circuit-number classes agree with Sturm root counts, which share
    no code with the deciders, on random trinomials."""
    from sparsefeas import make_polynomial, multiple_root_count, sturm_count

    mapping = {(0, 0): ref.EMPTY, (1, 0): ref.POINT_MULT_1, (1, 1): ref.SINGULAR_POINT,
               (2, 0): ref.COMPACT_SPHERE}
    for _ in range(count):
        exps = sorted(rng.sample(range(0, 31), 3))
        coeffs = [workloads.nonzero(rng, 50) for _ in exps]
        if rng.random() < 0.25:
            # (v x^d - u)^2 style ties, so the singular class is covered
            d, u, v = rng.randint(1, 10), rng.randint(1, 5), rng.randint(1, 5)
            exps, coeffs = [0, d, 2 * d], [u * u, -2 * u * v, v * v]
        f = make_polynomial(1, [((e,), c) for e, c in zip(exps, coeffs)])
        want = mapping[(sturm_count(f, 0, None), multiple_root_count(f, 0, None))]
        got = ref.expected_circuit_class([(e,) for e in exps], coeffs)
        expect(got == want, f"{exps} {coeffs}: {got} != Sturm {want}")


def disc_references_agree(rng, count=40):
    for _ in range(count):
        a, b, c = (workloads.nonzero(rng, 60) for _ in range(3))
        d = b * b - 4 * a * c
        pts, coeffs = [(0,), (1,), (2,)], [c, b, a]
        expect(ref.disc_sign_exact(pts, coeffs) == (d > 0) - (d < 0), "exact vs b^2 - 4ac")
        logs = ref.disc_sign_logs(pts, coeffs)
        expect(logs is None or logs == (d > 0) - (d < 0), "logs vs b^2 - 4ac")
    for _ in range(count):
        n = rng.randint(1, 2)
        pts = workloads.random_points(rng, n, n + 2, 6)
        if not ref.is_full_circuit(pts):
            continue
        coeffs = [workloads.nonzero(rng, 9) for _ in pts]
        logs = ref.disc_sign_logs(pts, coeffs)
        expect(logs is None or logs == ref.disc_sign_exact(pts, coeffs), f"{pts} {coeffs}")


def families(wl, rng, per_family):
    """A few instances of each (family, n) of a workload, checked."""
    wl.PLAN = [(family, n, per_family) for family, n, _ in wl.PLAN]
    raws = wl.generate(rng)
    built = wl.build(raws)
    for raw, item in zip(raws, built):
        wl.check(raw, wl.run(item))
    return len(raws)


def main() -> int:
    rng = random.Random("selftest")
    workloads.load_library()
    worked_cases()
    circuit_number_against_sturm(rng)
    disc_references_agree(rng)
    counts = {}
    for cls in workloads.WORKLOADS.values():
        wl = cls()
        counts[wl.name] = families(wl, rng, per_family=2)
    print("selftest ok:", ", ".join(f"{k} {v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
