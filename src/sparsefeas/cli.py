"""Command-line front end.

One subcommand per capability, one JSON document per invocation on
stdout; human diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error (bad input values, undecidable within precision), 2 usage error.
Each ``_cmd_*`` handler returns its payload, and ``run`` writes it, or
the one-line error, once.  The ``reduce`` and ``oracle`` handlers import
their modules themselves, so that no other subcommand loads them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import groupby, product

from .discriminant import (
    CircuitDiscriminant,
    DegeneratePoint,
    adisc_sign,
    adisc_vanish,
)
from .errors import PreconditionError, ScaleLimitError, SparseFeasError, without_digit_limit
from .feasibility import EMPTY, DominantPair, classify_positive, feas_real_full, topology_report
from .geometry import analyze_support
from .sparsepoly import (
    PointSet,
    SparsePolynomial,
    evaluate,
    from_json,
    parse,
    to_json,
    to_text,
)


def _encode(obj):
    """The JSON form of the values json does not know."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, DegeneratePoint):
        if obj.coordinates is not None:
            coords = [str(c) for c in obj.coordinates]
            return coords[0] if len(coords) == 1 else coords
        return {"rhos": obj.rhos, "orders": obj.orders, "mixing": obj.mixing}
    if isinstance(obj, DominantPair):  # never expanded
        return {"t": str(obj.t), "w": obj.w, "flip": obj.flip}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _load_poly(args) -> SparsePolynomial:
    if args.expr:
        return parse(args.expr)
    if args.file:
        with open(args.file) as fh:
            return from_json(json.load(fh))
    raise SparseFeasError("one of --expr or --file is required")


def _required(value, option: str):
    """The value of a per-subcommand option that argparse leaves optional."""
    if value is None:
        raise SparseFeasError(f"{option} is required")
    return value


def _emit(payload) -> None:
    text = without_digit_limit(lambda: json.dumps(payload, default=_encode))
    sys.stdout.write(text + "\n")


def _cmd_parse(args) -> dict:
    f = _load_poly(args)
    payload = to_json(f)
    payload["text"] = to_text(f)
    return payload


def _cmd_feas(args) -> dict:
    f = _load_poly(args)
    if args.set == "positive":
        cls, cert = classify_positive(f)
        verdict = "empty" if cls == EMPTY else "nonempty"
    else:
        rep = feas_real_full(f)
        cls, cert = rep.classification, rep.certificate
        verdict = rep.nonzero_reals if args.set == "nonzero" else rep.all_reals
    # an empty verdict may come with a point of another set (a sign-change
    # pair in another orthant, or the origin), which certifies nothing here
    return {
        "set": args.set,
        "verdict": verdict,
        "classification": cls,
        "witness": None if verdict == "empty" else cert,
    }


def _parse_points(text: str):
    pts = tuple(tuple(int(v) for v in c.split(",")) for c in text.split(";"))
    if len({len(p) for p in pts}) != 1:
        raise SparseFeasError("support points have mixed dimensions")
    return PointSet(pts)


def _cmd_disc(args) -> dict:
    pts = _parse_points(args.support)
    coeffs = tuple(int(v) for v in args.coeffs.split(","))
    D = CircuitDiscriminant(analyze_support(pts), coeffs)
    if args.which == "vanish":
        return {"vanish": adisc_vanish(D)}
    return {"sign": adisc_sign(D)}


def _cmd_topology(args) -> dict:
    f = _load_poly(args)
    return topology_report(f)


# each variable adds a binomial with two exponent vectors of length n: at
# this bound the output has 2 * 10^6 exponent entries, about 6 MB of JSON
_SAT3_MAX_VARS = 1000


def _read_dimacs(path: str) -> Sat3Formula:
    from .reductions import Sat3Formula

    num_vars, num_clauses = 0, None
    lits = []  # the literals as one stream: each 0 ends a clause
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("%"):
                break  # the SATLIB end marker
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise SparseFeasError(
                        f"bad DIMACS header {line!r}: expected 'p cnf <vars> <clauses>'"
                    )
                num_vars, num_clauses = int(parts[2]), int(parts[3])
                if num_vars < 0:
                    raise PreconditionError(
                        f"bad DIMACS header {line!r}: negative variable count"
                    )
                if num_vars > _SAT3_MAX_VARS:
                    raise ScaleLimitError(
                        f"{num_vars} variables exceed the reduce sat3 guard of {_SAT3_MAX_VARS}"
                    )
                continue
            lits += map(int, line.split())
    clauses = tuple(tuple(c) for nz, c in groupby(lits, key=bool) if nz)
    if num_clauses is not None and num_clauses != len(clauses):
        raise SparseFeasError(
            f"DIMACS header declares {num_clauses} clauses, the file holds {len(clauses)}"
        )
    return Sat3Formula(num_vars, clauses)


def _system_json(F: PolySystem):
    return {"n": F.n, "polynomials": [to_json(p) for p in F.polynomials]}


def _load_system(args) -> PolySystem:
    from .reductions import PolySystem

    with open(_required(args.file, "--file")) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "polynomials" in data:
        data = data["polynomials"]
    if not isinstance(data, list):
        raise PreconditionError('a system file holds [...] or {"polynomials": [...]}')
    return PolySystem(tuple(from_json(p) for p in data))


# 2^16 assignments, within the grid oracle's budget of 10^5 points
_BRUTE_FORCE_MAX_VARS = 16


def _cmd_reduce(args) -> dict:
    from .reductions import sat3_to_system, shor_normal_form, sos_aggregate

    if args.gadget == "sat3":
        phi = _read_dimacs(_required(args.dimacs, "--dimacs"))
        n = phi.num_vars
        if args.brute_force and n > _BRUTE_FORCE_MAX_VARS:
            raise ScaleLimitError(
                f"{n} variables exceed the --brute-force guard of {_BRUTE_FORCE_MAX_VARS}"
            )
        F = sat3_to_system(phi)
        payload = _system_json(F)
        if args.brute_force:
            payload["satisfiable"] = any(
                all(evaluate(p, bits[: p.n]) == 0 for p in F.polynomials)
                for bits in product((0, 1), repeat=n)
            )
        return payload
    F = _load_system(args)
    if args.gadget == "shor":
        return _system_json(shor_normal_form(F))
    g = sos_aggregate(F)
    payload = to_json(g)
    payload["term_count"] = len(g.terms)
    return payload


def _rational(text, option: str):
    """The rational value of an option (None when it is left out)."""
    try:
        return None if text is None else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SparseFeasError(f"{option} takes a rational such as -1/2, not {text!r}") from None


def _cmd_oracle(args) -> dict:
    from .oracle import exact_product_compare, grid_scan, sturm_count

    if args.probe == "sturm":
        f = _load_poly(args)
        count = sturm_count(f, _rational(args.lower, "--lower"), _rational(args.upper, "--upper"))
        return {"count": count}
    if args.probe == "grid":
        f = _load_poly(args)
        box = [
            tuple(_rational(v, "--box") for v in chunk.split(","))
            for chunk in _required(args.box, "--box").split(";")
        ]
        step = _rational(_required(args.resolution, "--resolution"), "--resolution")
        return {"certificate": grid_scan(f, box, step)}
    alphas, betas, us, vs = (
        [int(v) for v in _required(getattr(args, name), f"--{name}").split(",")]
        for name in ("alphas", "betas", "us", "vs")
    )
    return {"sign": exact_product_compare(alphas, betas, us, vs)}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsefeas",
        description="Exact feasibility and topology for sparse polynomials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_args(p):
        p.add_argument("--expr", help="polynomial expression text")
        p.add_argument("--file", help="polynomial JSON file")

    p = sub.add_parser("parse", help="parse and canonicalize a polynomial")
    add_poly_args(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("feas", help="decide a root set")
    p.add_argument("--set", choices=("positive", "nonzero", "real"), required=True)
    add_poly_args(p)
    p.set_defaults(func=_cmd_feas)

    p = sub.add_parser("disc", help="circuit discriminant tests")
    p.add_argument("which", choices=("vanish", "sign"))
    p.add_argument("--support", required=True, help="points, ';'-separated")
    p.add_argument("--coeffs", required=True, help="comma-separated integers")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("topology", help="positive zero set topology report")
    add_poly_args(p)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("reduce", help="hardness reduction gadgets")
    p.add_argument("gadget", choices=("sat3", "shor", "sos"))
    p.add_argument("--dimacs", help="DIMACS CNF file (sat3)")
    p.add_argument("--file", help="polynomial system JSON file (shor, sos)")
    p.add_argument("--brute-force", action="store_true", dest="brute_force")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="independent brute-force checks")
    p.add_argument("probe", choices=("sturm", "grid", "product"))
    add_poly_args(p)
    p.add_argument("--lower")
    p.add_argument("--upper")
    p.add_argument("--box", help="per-variable lo,hi pairs, ';'-separated")
    p.add_argument("--resolution")
    p.add_argument("--alphas")
    p.add_argument("--betas")
    p.add_argument("--us")
    p.add_argument("--vs")
    p.set_defaults(func=_cmd_oracle)
    return ap


# the options that take no value; every other option takes exactly one
_FLAGS = ("--help", "--brute-force")


def _bind_dash_values(argv):
    """Rewrite ``--opt -v`` as ``--opt=-v``: argparse would read a value
    such as ``-3,28,-12`` or ``-1/2`` as an option and fail."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev not in _FLAGS
        if takes_value and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(_bind_dash_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        _emit(args.func(args))
    except (SparseFeasError, ValueError, OSError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
