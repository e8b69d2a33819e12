"""The benchmark's workloads: instance generators, the timed operation,
and the reference check of each output.

Generators use only ``random.Random`` seeded from the command line, so the
program under test receives nothing but generated inputs.  Each workload
object exposes:

* ``generate(rng)``: the run's raw instances (plain data, no sparsefeas);
* ``build(raws)``: the inputs the operation consumes, built through the
  library (``parse`` / ``make_polynomial`` / ``PointSet``); timed as set-up;
* ``run(item)``: the one timed operation;
* ``check(raw, out)``: the reference check, run outside the timed region;
* ``warm()``: untimed preparation of process state before the passes;
* ``PLAN``: the (family, n, count) make-up of the list.

A run builds one instance list and repeats it for the whole run.
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference as ref
from reference import expect

sf = None  # the sparsefeas package, bound by load_library()


def load_library():
    global sf
    import sparsefeas

    sf = sparsefeas


def nonzero(rng, bound):
    v = rng.randint(1, bound)
    return v if rng.random() < 0.5 else -v


def poly_text(terms) -> str:
    """Polynomial text with every variable written out, so that parse()
    sees the intended number of variables."""
    out = []
    for k, (a, c) in enumerate(terms):
        body = f"{abs(c)}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(a))
        if k == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def random_points(rng, n, count, hi):
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(0, hi) for _ in range(n)))
    return list(pts)


def random_simplex(rng, n, hi):
    while True:
        pts = random_points(rng, n, n + 1, hi)
        if ref.affinely_independent(pts):
            return pts


def caged_support(rng, n, hi):
    """n + 1 simplex vertices and one lattice point in their interior (last),
    with exponents in [0, hi].  Barycentric weights lam_j in 1..3 are drawn
    first, and the last vertex is solved for, so the interior point is
    integral.  Returns the points and their affine relation."""
    spread = {1: 20, 2: 6, 3: 4}.get(n, 3)
    while True:
        lam = [rng.randint(1, 3) for _ in range(n + 1)]
        s = sum(lam)
        q = [rng.randint(0, hi) for _ in range(n)]
        verts = [[qi + rng.randint(-spread, spread) for qi in q] for _ in range(n)]
        last = [s * q[i] - sum(l * v[i] for l, v in zip(lam, verts)) for i in range(n)]
        if any(x % lam[n] for x in last):
            continue
        verts.append([x // lam[n] for x in last])
        pts = verts + [q]
        low = [min(p[i] for p in pts) for i in range(n)]
        pts = [tuple(p[i] - low[i] for i in range(n)) for p in pts]
        top = max(max(p) for p in pts)
        if top > hi:
            continue
        shift = [rng.randint(0, hi - top) for _ in range(n)]
        pts = [tuple(p[i] + shift[i] for i in range(n)) for p in pts]
        m = ref.affine_relation(pts)
        if 0 not in m and ref.interior_index(m) == n + 1:
            return pts, m


def sample_points(rng, n, count=4):
    """Seeded positive rational points for one-sign checks."""
    return [
        tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
        for _ in range(count)
    ]


class Workload:
    def warm(self):
        pass


# ---------------------------------------------------------------------------
# classify: Z_+ classification of small full-dimensional supports


class Classify(Workload):
    name = "classify"
    # counts put p50 inside the n = 2/3 cost class and p90 inside the n = 3/4
    # one, so neither percentile sits in a gap between classes
    PLAN = (
        [("trinomial", 1, 24), ("simplex", 1, 6), ("simplex", 2, 6), ("caged", 1, 4), ("planted", 1, 4)]
        + [("circuit", 2, 10), ("simplex", 3, 6)]
        + [("caged", 2, 20), ("planted", 2, 16), ("simplex", 4, 20), ("circuit", 3, 24)]
        + [("caged", 3, 18), ("planted", 3, 12), ("circuit", 4, 24)]
        + [("caged", 4, 4), ("planted", 4, 2)]
    )

    def generate(self, rng):
        out = []
        for family, n, count in self.PLAN:
            for _ in range(count):
                out.append(getattr(self, "_" + family)(rng, n))
        return out

    def _raw(self, family, terms, rng, **extra):
        n = len(terms[0][0])
        raw = {"family": family, "n": n, "terms": terms, "text": poly_text(terms)}
        raw["samples"] = sample_points(rng, n)
        raw.update(extra)
        return raw

    def _trinomial(self, rng, n):
        exps = sorted(rng.sample(range(0, 61), 3))
        terms = [((e,), nonzero(rng, 100)) for e in exps]
        return self._raw("trinomial", terms, rng, expected=ref.expected_circuit_class(
            [a for a, _ in terms], [c for _, c in terms]))

    def _simplex(self, rng, n):
        pts = random_simplex(rng, n, 60 if n == 1 else 20)
        terms = [(p, nonzero(rng, 100)) for p in pts]
        return self._raw("simplex", terms, rng)

    def _circuit(self, rng, n):
        while True:
            pts = random_points(rng, n, n + 2, 20)
            if ref.is_full_circuit(pts):
                break
        terms = [(p, nonzero(rng, 100)) for p in pts]
        return self._raw("circuit", terms, rng, expected=ref.expected_circuit_class(
            pts, [c for _, c in terms]))

    def _caged(self, rng, n):
        pts, _ = caged_support(rng, n, 60 if n == 1 else 20)
        sign = rng.choice((1, -1))
        coeffs = [sign * rng.randint(1, 20) for _ in pts[:-1]] + [-sign * rng.randint(1, 100)]
        terms = list(zip(pts, coeffs))
        return self._raw("caged", terms, rng, expected=ref.expected_circuit_class(pts, coeffs))

    def _planted(self, rng, n):
        # coefficients proportional to the relation put f and its gradient
        # at zero on (1, ..., 1): exactly on the discriminant
        pts, m = caged_support(rng, n, 60 if n == 1 else 20)
        m = ref.normalized_relation(m)
        k = rng.randint(1, 100 // max(abs(v) for v in m)) * rng.choice((1, -1))
        terms = [(p, k * v) for p, v in zip(pts, m)]
        return self._raw("planted", terms, rng, expected=ref.SINGULAR_POINT)

    def build(self, raws):
        return [(r["family"], sf.parse(r["text"])) for r in raws]

    def run(self, item):
        family, f = item
        if family == "simplex":
            return sf.feas_simplex(f)
        return sf.feas_circuit(f)

    def check(self, raw, rep):
        terms = raw["terms"]
        if raw["family"] == "simplex":
            check_simplex_report(raw, rep)
            return
        cls = raw["expected"]
        expect(rep.classification == cls, f"{raw['text']}: {rep.classification} != {cls}")
        expect(rep.positive_orthant == ("empty" if cls == ref.EMPTY else "nonempty"),
               f"{raw['text']}: positive verdict {rep.positive_orthant}")
        cert = rep.certificate
        if cls == ref.EMPTY:
            ref.check_one_sign(terms, raw["samples"])
        elif cls == ref.ALL_NONCOMPACT and isinstance(cert, dict) and "facet_normal" in cert:
            ref.check_facet_certificate(terms, cert["facet_normal"])
        elif cls == ref.SINGULAR_POINT:
            expect(cert is not None, "singular point without a degenerate point")
            ref.check_degenerate_point(terms, degenerate_form(cert))


def degenerate_form(dp):
    if dp.coordinates is not None:
        return tuple(dp.coordinates)
    return {"rhos": dp.rhos, "orders": dp.orders, "mixing": dp.mixing}


def check_simplex_report(raw, rep):
    terms = raw["terms"]
    n = raw["n"]
    pos, nonzero_v, real = ref.simplex_verdicts(terms)
    got = (rep.positive_orthant, rep.nonzero_reals, rep.all_reals)
    expect(got == (pos, nonzero_v, real), f"{raw['text']}: verdicts {got}")
    if pos == "nonempty":
        cls = ref.POINT_MULT_1 if n == 1 and len(terms) == 2 else ref.ALL_NONCOMPACT
        expect(rep.classification == cls, f"{raw['text']}: {rep.classification}")
        p, q = rep.certificate
        ref.check_sign_change(terms, p, q, positive=True)
        return
    expect(rep.classification == ref.EMPTY, f"{raw['text']}: {rep.classification}")
    ref.check_one_sign(terms, raw["samples"])
    cert = rep.certificate
    if nonzero_v == "nonempty":
        p, q = cert
        ref.check_sign_change(terms, p, q, positive=False)
    elif real == "nonempty":
        expect(all(v == 0 for v in cert), "origin certificate expected")
        expect(ref.evaluate(terms, cert) == 0, "f does not vanish at the origin")


# ---------------------------------------------------------------------------
# disc_sign: circuit A-discriminant signs on big exponents and near ties


class DiscSign(Workload):
    name = "disc_sign"
    PLAN = (
        ("huge_trinomial", 1, 24),
        ("circuit", 2, 12),
        ("circuit_huge", 2, 12),
        ("circuit", 3, 12),
        ("near_tie", 1, 24),
        ("exact_tie", 1, 24),
    )
    FILL_BASE = (1 << 64) + 1

    def warm(self):
        """Fill the process-wide log cache with logs of unrelated bases.

        The cache keeps the first 4096 (base, bits) entries and accepts no
        more, so after this every logarithm of a measured instance is
        computed, on every pass: the state of a long-running process that
        has already served other instances.
        """
        for k in range(2048):
            p = self.FILL_BASE + 2 * k
            sf.binomial_sign([p], [2 * p], [1], [1])

    def generate(self, rng):
        out = []
        for family, n, count in self.PLAN:
            for i in range(count):
                if family == "near_tie":
                    # coefficient sizes on an even grid over 40..120 bits,
                    # since the tie's cost grows with them
                    out.append(self._near_tie(rng, n, 40 + (80 * i) // max(count - 1, 1)))
                else:
                    out.append(getattr(self, "_" + family)(rng, n))
        return out

    def _decided(self, points, coeffs):
        """Reference sign, or None when the instance is rejected: the two
        products must share a sign (otherwise the sign is read off without
        any logarithm) and the decimal reference must decide."""
        if not ref.products_share_sign(points, coeffs):
            return None
        return ref.disc_sign_logs(points, coeffs)

    def _huge_trinomial(self, rng, n):
        while True:
            exps = sorted(rng.sample(range(0, 1 << 62), 3))
            points = [(e,) for e in exps]
            coeffs = [nonzero(rng, 1 << 16) for _ in exps]
            s = self._decided(points, coeffs)
            if s is not None:
                return {"family": "huge_trinomial", "points": points, "coeffs": coeffs, "sign": s}

    def _circuit(self, rng, n, bits=None):
        bits = bits or {2: 20, 3: 40}[n]
        while True:
            points = random_points(rng, n, n + 2, (1 << bits) - 1)
            if not ref.is_full_circuit(points):
                continue
            coeffs = [nonzero(rng, 1 << 16) for _ in points]
            s = self._decided(points, coeffs)
            if s is not None:
                return {"family": f"circuit{n}_{bits}", "points": points, "coeffs": coeffs, "sign": s}

    def _circuit_huge(self, rng, n):
        return self._circuit(rng, n, bits=62)

    def _near_tie(self, rng, n, bits):
        # b^2 - 4ac is a few units against coefficients of `bits` bits
        while True:
            a = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            b = math.isqrt(4 * a * c) + rng.randint(-1, 2)
            d = b * b - 4 * a * c
            if d:
                break
        s = rng.choice((1, -1))
        coeffs = [s * c, rng.choice((1, -1)) * b, s * a]
        return {"family": "near_tie", "points": [(0,), (1,), (2,)], "coeffs": coeffs,
                "sign": 1 if d > 0 else -1}

    def _exact_tie(self, rng, n):
        # s (v x - u)^2 with 40-bit u, v: the discriminant is exactly zero
        u = rng.getrandbits(40) | (1 << 39)
        v = rng.getrandbits(40) | (1 << 39)
        s = nonzero(rng, 100)
        coeffs = [s * u * u, -2 * s * u * v, s * v * v]
        return {"family": "exact_tie", "points": [(0,), (1,), (2,)], "coeffs": coeffs, "sign": 0}

    def build(self, raws):
        return [(sf.PointSet(tuple(r["points"])), tuple(r["coeffs"])) for r in raws]

    def run(self, item):
        # the path of `sparsefeas disc sign`, in-process
        pts, coeffs = item
        C, idx = sf.find_circuit(pts)
        return sf.adisc_sign(sf.CircuitDiscriminant(C, tuple(coeffs[i] for i in idx)))

    def check(self, raw, out):
        if raw["family"] in ("near_tie", "exact_tie"):
            c, b, a = raw["coeffs"]
            d = b * b - 4 * a * c
            expect(raw["sign"] == (d > 0) - (d < 0), "generated sign disagrees with b^2 - 4ac")
        expect(out == raw["sign"], f"{raw['family']} {raw['points']} {raw['coeffs']}: {out} != {raw['sign']}")


# ---------------------------------------------------------------------------
# real_dispatch: Z_+, Z* and Z_R through the sign/zero strata


class RealDispatch(Workload):
    name = "real_dispatch"
    # planted roots stop at n = 4: at n = 5, 6 one planted instance costs
    # 0.02 to 0.8 s depending on its support, too uneven to average out in
    # a run.  The instances that cost more than x^e +- c at n = 6 (planted
    # n = 4, even n = 5 and 6) are kept to about 6 % of the list, so that
    # the 90th percentile falls among the 18 n = 6 binomials, whose cost is
    # the bare 3^6 stratum loop and barely varies.
    PLAN = (
        [("planted", 2, 12), ("planted", 3, 12), ("planted", 4, 2)]
        + [("even", 2, 8), ("even", 3, 8), ("even", 4, 8), ("even", 5, 4), ("even", 6, 2)]
        + [("product", n, 7) for n in (2, 3, 4, 5)]
        + [("product", 6, 18)]
    )

    def generate(self, rng):
        out = []
        for family, n, count in self.PLAN:
            for i in range(count):
                out.append(getattr(self, "_" + family)(rng, n, i))
        return out

    def _support(self, rng, n, count, hi, with_origin):
        """``count`` (n + 1 or n + 2) points spanning R^n, so that every
        restriction keeps at most dim + 2 terms; the origin is one of them
        exactly when ``with_origin``."""
        origin = (0,) * n
        while True:
            pts = random_points(rng, n, count, hi)
            if with_origin and origin not in pts:
                pts[0] = origin
            if not with_origin and origin in pts or len(set(pts)) != count:
                continue
            if count == n + 1 and ref.affinely_independent(pts):
                return pts
            if count == n + 2 and any(ref.affine_relation(pts)):
                return pts

    def _planted(self, rng, n, i):
        # where the root lies and the support size cycle with i, so every
        # list has the same make-up
        where = ("positive", "nonzero", "hyperplane")[i % 3]
        count = n + 1 + (i // 3) % 2
        while True:
            pts = self._support(rng, n, count, 3, with_origin=True)
            if where == "positive":
                root = [rng.randint(1, 2) for _ in range(n)]
            elif where == "nonzero":
                root = [rng.choice((1, 2, -1, -2)) for _ in range(n)]
                root[rng.randrange(n)] = -rng.randint(1, 2)
            else:
                root = [rng.choice((0, 1, 2, -1, -2)) for _ in range(n)]
                root[rng.randrange(n)] = 0
            terms = [(p, nonzero(rng, 20)) for p in pts if any(p)]
            c0 = -ref.evaluate(terms, root)
            if c0:
                terms.append(((0,) * n, int(c0)))
                break
        return {"family": "planted", "where": where, "root": tuple(root), "terms": terms,
                "text": poly_text(terms)}

    def _even(self, rng, n, i):
        const = i % 2 == 0
        pts = self._support(rng, n, n + 1 + (i // 2) % 2, 2, with_origin=const)
        terms = [(tuple(2 * e for e in p), rng.randint(1, 20)) for p in pts]
        real = "empty" if const else "nonempty"
        return {"family": "even", "terms": terms, "text": poly_text(terms),
                "verdicts": ("empty", "empty", real)}

    def _product(self, rng, n, i):
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        s = -1 if i % 2 else 1
        terms = [(exps, rng.randint(1, 9)), ((0,) * n, s * rng.randint(1, 9))]
        if s < 0:
            verdicts = ("nonempty", "nonempty", "nonempty")
        else:
            odd = "nonempty" if any(e % 2 for e in exps) else "empty"
            verdicts = ("empty", odd, odd)
        return {"family": "product", "terms": terms, "text": poly_text(terms), "verdicts": verdicts}

    def build(self, raws):
        return [sf.parse(r["text"]) for r in raws]

    def run(self, f):
        return sf.feas_real_full(f)

    def check(self, raw, rep):
        got = (rep.positive_orthant, rep.nonzero_reals, rep.all_reals)
        expect(all(v in ("empty", "nonempty") for v in got), f"{raw['text']}: {got}")
        if got[0] == "nonempty":
            expect(got[1] == "nonempty", f"{raw['text']}: positive without nonzero")
        if got[1] == "nonempty":
            expect(got[2] == "nonempty", f"{raw['text']}: nonzero without real")
        if raw["family"] == "planted":
            root = raw["root"]
            expect(ref.evaluate(raw["terms"], root) == 0, "planted root does not vanish")
            if all(v > 0 for v in root):
                expect(got[0] == "nonempty", f"{raw['text']}: planted positive root missed")
            if all(v != 0 for v in root):
                expect(got[1] == "nonempty", f"{raw['text']}: planted nonzero root missed")
            expect(got[2] == "nonempty", f"{raw['text']}: planted real root missed")
        else:
            expect(got == raw["verdicts"], f"{raw['text']}: {got} != {raw['verdicts']}")


WORKLOADS = {wl.name: wl for wl in (Classify, DiscSign, RealDispatch)}
