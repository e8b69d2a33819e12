"""End-to-end tests of the command line interface."""

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sparsefeas.cli import run
from sparsefeas.geometry import analyze_support
from sparsefeas.sparsepoly import to_text
from test_feasibility import _random_real_instance

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_parse_round_trip(capsys):
    code, payload = _run(capsys, "parse", "--expr", "x1 + 1 + x1")
    assert code == 0
    assert payload["n"] == 1
    assert payload["text"] == "1 + 2*x1"


def test_parse_error_exit_code(capsys):
    code = run(["parse", "--expr", "1 + + x1"])
    assert code == 1


def test_usage_error_exit_code():
    assert run(["feas", "--set", "bogus", "--expr", "1 + x1"]) == 2
    assert run(["no-such-command"]) == 2


def test_feas_positive_singular(capsys):
    code, payload = _run(
        capsys, "feas", "--set", "positive", "--expr", "x1^2 - 2*x1 + 1"
    )
    assert code == 0
    assert payload["classification"] == "SINGULAR_POINT"
    assert payload["witness"] == "1"


def test_feas_positive_rational_singular_point_is_coordinates(capsys):
    # the singular point (1, 1) is rational, so it prints as coordinates
    code, payload = _run(
        capsys, "feas", "--set", "positive", "--expr", "1 + x1^3 + x2^3 - 3*x1*x2"
    )
    assert code == 0
    assert payload["classification"] == "SINGULAR_POINT"
    assert payload["witness"] == ["1", "1"]


def test_feas_positive_irrational_witness(capsys):
    # (x1^2 - 2)^2: the singular point sqrt(2) is reported as rho^(1/s)
    code, payload = _run(
        capsys, "feas", "--set", "positive", "--expr", "x1^4 - 4*x1^2 + 4"
    )
    assert code == 0
    assert payload["witness"] == {"rhos": ["2"], "orders": [2], "mixing": [[1]]}


def test_feas_positive_perfect_power_witness_is_coordinates(capsys):
    # the basis element 4 has order 2 and is 2^2, so the singular point
    # (1, 2) is rational and prints as coordinates
    code, payload = _run(
        capsys, "feas", "--set", "positive", "--expr",
        "4*x1^3*x2^4 + 320*x1^7 - 64*x1^8*x2^4 + 10*x1^9*x2^6",
    )
    assert code == 0
    assert payload["classification"] == "SINGULAR_POINT"
    assert payload["witness"] == ["1", "2"]


def test_feas_positive_empty(capsys):
    code, payload = _run(capsys, "feas", "--set", "positive", "--expr", "1 + x1 + x1^3")
    assert code == 0
    assert payload["classification"] == "EMPTY"


def test_feas_positive_empty_has_no_witness(capsys):
    # feas_simplex's sign-change pair for this support lies outside the
    # positive orthant, so it must not be reported as a witness here
    code, payload = _run(capsys, "feas", "--set", "positive", "--expr", "1 + x1 + x2^2")
    assert code == 0
    assert payload["verdict"] == "empty"
    assert payload["witness"] is None


def test_feas_real_verdicts(capsys):
    code, payload = _run(capsys, "feas", "--set", "real", "--expr", "x1^2 - 4")
    assert code == 0
    assert payload["verdict"] == "nonempty"
    code, payload = _run(capsys, "feas", "--set", "nonzero", "--expr", "1 + x1^2")
    assert code == 0
    assert payload["verdict"] == "empty"
    assert payload["witness"] is None
    # the origin is a real root, but it is not in (R*)^2
    code, payload = _run(capsys, "feas", "--set", "nonzero", "--expr", "x1^2 + x2^2")
    assert payload["verdict"] == "empty"
    assert payload["witness"] is None
    code, payload = _run(capsys, "feas", "--set", "real", "--expr", "x1^2 + x2^2")
    assert payload["verdict"] == "nonempty"
    assert payload["witness"] == ["0", "0"]


def test_feas_real_refuses_laurent_simplex(capsys):
    code = run(["feas", "--set", "real", "--expr", "x1^-1 - 2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: real-set dispatch requires polynomial exponents\n"


def test_disc_vanish_and_sign(capsys):
    code, payload = _run(
        capsys, "disc", "vanish", "--support", "0;1;2", "--coeffs", "1,-2,1"
    )
    assert code == 0
    assert payload["vanish"] is True
    code, payload = _run(
        capsys, "disc", "sign", "--support", "0;1;2", "--coeffs", "1,-3,1"
    )
    assert code == 0
    assert payload["sign"] == 1


def test_disc_sign_bivariate(capsys):
    code, payload = _run(
        capsys,
        "disc",
        "sign",
        "--support",
        "0,0;4,0;0,4;1,1",
        "--coeffs",
        "1,1,1,-3",
    )
    assert code == 0
    assert payload["sign"] in (-1, 1)


def test_disc_negative_coeffs(capsys):
    expected = _run(
        capsys, "disc", "sign", "--support", "0;1;2", "--coeffs=-3,28,-12"
    )
    assert expected[0] == 0
    got = _run(capsys, "disc", "sign", "--support", "0;1;2", "--coeffs", "-3,28,-12")
    assert got == expected


@pytest.mark.parametrize(
    "support, coeffs",
    [
        ("0;1;2", "1,-2"),
        ("0,1;2;3", "1,-2,1"),
        ("0;1", "1,-1"),  # affinely independent: not a circuit
        ("0,0;1,0;2,0;0,1", "1,-2,1,1"),  # a pyramid over a circuit
    ],
)
def test_disc_malformed_input(capsys, support, coeffs):
    code = run(["disc", "sign", "--support", support, "--coeffs", coeffs])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_disc_sign_malformed_max_bits(capsys, monkeypatch):
    monkeypatch.setenv("FEWNO_MAX_BITS", "abc")
    code = run(["disc", "sign", "--support", "0;1;2", "--coeffs", "1,-3,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "FEWNO_MAX_BITS" in err


def test_topology(capsys):
    code, payload = _run(
        capsys, "topology", "--expr", "1 + x1^4 + x2^4 - 3*x1*x2"
    )
    assert code == 0
    assert payload["classification"] == "COMPACT_SPHERE"
    assert payload["bounds"] == {"N_comp": 1, "N_non": 2}
    # an EMPTY class reports no certificate: feas_simplex's pair for this
    # support lies outside the positive orthant
    code, payload = _run(capsys, "topology", "--expr", "1 + x1 + x2^2")
    assert code == 0
    assert payload["classification"] == "EMPTY"
    assert "certificate" not in payload


def test_reduce_sat3_with_brute_force(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(
        "c tiny unsatisfiable formula\n"
        "p cnf 1 2\n"
        "1 1 1 0\n"
        "-1 -1 -1 0\n"
    )
    code, payload = _run(
        capsys, "reduce", "sat3", "--dimacs", str(cnf), "--brute-force"
    )
    assert code == 0
    assert payload["satisfiable"] is False
    assert payload["polynomials"]


def test_reduce_sat3_satisfiable(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 2 0\n")
    code, payload = _run(
        capsys, "reduce", "sat3", "--dimacs", str(cnf), "--brute-force"
    )
    assert code == 0
    assert payload["satisfiable"] is True


def test_reduce_sat3_brute_force_size_guard(tmp_path, capsys):
    # 2^40 assignments; the reduction alone returns at once
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 40 1\n1 2 3 0\n")
    code = run(["reduce", "sat3", "--dimacs", str(cnf), "--brute-force"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert run(["reduce", "sat3", "--dimacs", str(cnf)]) == 0


@pytest.mark.parametrize("header, named", [
    ("p cnf 1000000000 1", "guard of 1000"),
    ("p cnf -3 1", "bad DIMACS header 'p cnf -3 1'"),
])
@pytest.mark.parametrize("flags", [[], ["--brute-force"]])
def test_reduce_sat3_header_guard(tmp_path, capsys, monkeypatch, header, named, flags):
    # the header alone is refused, before any polynomial is built; the
    # handler imports the gadget from its module when it runs
    monkeypatch.setattr(
        "sparsefeas.reductions.sat3_to_system", lambda phi: pytest.fail("system built")
    )
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(f"{header}\n1 2 3 0\n")
    code = run(["reduce", "sat3", "--dimacs", str(cnf), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_reduce_sat3_output_guard(tmp_path, capsys, monkeypatch):
    # 1,000 variables pass the header guard, but two clauses (8 and 1
    # terms) take the output past 2 * 10^6 exponent entries: refused
    # before any polynomial is densified
    monkeypatch.setattr("sparsefeas.reductions._poly", lambda d, n: pytest.fail("densified"))
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1000 2\n1 2 3 0\n-1 -2 -3 0\n")
    code = run(["reduce", "sat3", "--dimacs", str(cnf)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: 2009000 exponent entries exceed the reduce sat3 guard of 2000000\n"
    )


@pytest.mark.parametrize("body", [
    "1 -2 3 0 -1 2 -3 0\n",
    "1 -2\n3 0 -1 2\n-3 0\n",
    "1 -2 3 0\n-1 2 -3 0\n%\n0\n",
    "1 -2 3 0 0\n\n-1 2 -3\n",
], ids=["two-clauses-one-line", "split-clauses", "end-marker", "empty-clause-no-last-0"])
def test_reduce_sat3_reads_dimacs_as_one_literal_stream(tmp_path, capsys, body):
    one_per_line = tmp_path / "lines.cnf"
    one_per_line.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("c layout\np cnf 3 2\n" + body)
    code, payload = _run(capsys, "reduce", "sat3", "--dimacs", str(cnf))
    assert code == 0
    assert payload == _run(capsys, "reduce", "sat3", "--dimacs", str(one_per_line))[1]


@pytest.mark.parametrize("header, body, named", [
    ("p cnf 3 5", "1 -2 3 0\n", "declares 5 clauses, the file holds 1"),
    ("p cnf 3 1", "1 -2 3 0\n-1 2 -3 0\n", "declares 1 clauses, the file holds 2"),
    ("p cnf 3 2", "1 -2 3 0\n", "declares 2 clauses, the file holds 1"),
], ids=["truncated", "extra-clause", "one-short"])
def test_reduce_sat3_checks_the_clause_count(tmp_path, capsys, header, body, named):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(f"{header}\n{body}")
    code = run(["reduce", "sat3", "--dimacs", str(cnf)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: DIMACS header {named}\n"


@pytest.mark.parametrize("expr, box, resolution, certificate", [
    ("x1^-1", "-1,1", "2/3", None),
    ("x1^-1 + x1 - 3", "-2,2", "1/2", None),
    ("x1^-1 + x1 - 3", "-2,2", "1/4", {"sign_change": [["1/4"], ["1/2"]]}),
    ("x1^-1 - 1", "-1,1", "1", {"zero": ["1"]}),
    ("x1^2 - 2", "-2,2", "1/2", {"sign_change": [["-3/2"], ["-1"]]}),
], ids=["pole-straddled", "zero-on-grid", "root-found", "root-at-grid-point", "polynomial"])
def test_oracle_grid_skips_laurent_poles(capsys, expr, box, resolution, certificate):
    # grid points at 0 under a negative exponent are skipped, and no sign
    # change is paired across such a pole
    code, payload = _run(
        capsys, "oracle", "grid", "--expr", expr, "--box", box, "--resolution", resolution
    )
    assert code == 0 and payload == {"certificate": certificate}


def test_reduce_shor(tmp_path, capsys):
    src = tmp_path / "system.json"
    src.write_text(json.dumps({
        "n": 2,
        "polynomials": [
            {"n": 2, "terms": [{"c": "1", "a": [0, 1]}, {"c": "-1", "a": [7, 0]}]}
        ],
    }))
    code, payload = _run(capsys, "reduce", "shor", "--file", str(src))
    assert code == 0
    for poly in payload["polynomials"]:
        assert len(poly["terms"]) <= 3
        for t in poly["terms"]:
            assert sum(abs(e) for e in t["a"]) <= 2


def test_reduce_shor_size_guard(tmp_path, capsys, monkeypatch):
    # 400 terms: 997 variables x 2,392 output terms = 2,384,824 entries;
    # refused after the sparse rewrite, before any dense polynomial
    monkeypatch.setattr(
        "sparsefeas.reductions._poly", lambda d, n: pytest.fail("polynomial built")
    )
    src = tmp_path / "system.json"
    src.write_text(json.dumps({"polynomials": [
        {"n": 1, "terms": [{"c": "1", "a": [2 * i]} for i in range(400)]}
    ]}))
    code = run(["reduce", "shor", "--file", str(src)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "reduce shor guard" in captured.err


def test_reduce_sos_size_guard(tmp_path, capsys, monkeypatch):
    # 400 terms in 50 variables bound 50 x 80,200 = 4,010,000 entries
    monkeypatch.setattr("sparsefeas.reductions._mul", lambda a, b: pytest.fail("product taken"))
    src = tmp_path / "system.json"
    src.write_text(json.dumps({"polynomials": [{"n": 50, "terms": [
        {"c": "1", "a": [(k // 50 + 1) * (i == k % 50) for i in range(50)]} for k in range(400)
    ]}]}))
    code = run(["reduce", "sos", "--file", str(src)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "reduce sos guard" in captured.err


def test_variable_index_guard_is_one_error_line(capsys):
    code = run(["feas", "--set", "positive", "--expr", "x100000000 + 1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: variable index must be <= 10000 (at position 0)\n"


def test_long_digit_run_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    code = run(["parse", "--expr", "x" + "1" * 5000])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: digit run longer than 4300 digits (at position 1)\n"


def test_too_many_points_names_count_dimension_and_excess(capsys):
    code = run(["feas", "--set", "positive", "--expr", "1 + x1 + x1^2 + x1^3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: point set has 4 points in dimension 1: 1 more than dim + 2\n"


def test_reduce_sos(tmp_path, capsys):
    src = tmp_path / "system.json"
    src.write_text(json.dumps({
        "n": 1,
        "polynomials": [
            {"n": 1, "terms": [{"c": "1", "a": [1]}, {"c": "-1", "a": [0]}]},
            {"n": 1, "terms": [{"c": "1", "a": [1]}, {"c": "1", "a": [0]}]},
        ],
    }))
    code, payload = _run(capsys, "reduce", "sos", "--file", str(src))
    assert code == 0
    # (x-1)^2 + (x+1)^2 = 2 + 2x^2
    assert payload["terms"] == [{"c": "2", "a": [0]}, {"c": "2", "a": [2]}]


def test_oracle_sturm(capsys):
    code, payload = _run(
        capsys, "oracle", "sturm", "--expr", "x1^2 - 3*x1 + 2",
        "--lower", "0", "--upper", "10",
    )
    assert code == 0
    assert payload["count"] == 2


def test_oracle_sturm_negative_bound(capsys):
    code, payload = _run(
        capsys, "oracle", "sturm", "--expr", "4*x1 + 1", "--lower", "-1/2",
        "--upper", "0",
    )
    assert code == 0
    assert payload["count"] == 1


def test_oracle_grid_negative_box(capsys):
    code, payload = _run(
        capsys, "oracle", "grid", "--expr", "x1 + x2 + 1",
        "--box", "-1,1;-1,1", "--resolution", "1/2",
    )
    assert code == 0
    assert payload["certificate"] is not None


def test_oracle_grid(capsys):
    code, payload = _run(
        capsys, "oracle", "grid", "--expr", "x1*x2 - x1 - x2 + 1",
        "--box", "0,3;0,3", "--resolution", "1/4",
    )
    assert code == 0
    assert "zero" in payload["certificate"] or "sign_change" in payload["certificate"]


def test_oracle_grid_size_guard(capsys):
    code = run([
        "oracle", "grid", "--expr", "x1 - x8",
        "--box", ";".join(["0,100"] * 8), "--resolution", "1",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_sturm_degree_guard(capsys):
    code = run(["oracle", "sturm", "--expr", "x1^1000000000000 - 1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_sturm_reversed_bounds_is_one_error_line(capsys):
    code = run(["oracle", "sturm", "--expr", "x1^2 - 2", "--lower", "3", "--upper", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "3" in captured.err and "1" in captured.err


def test_oracle_product(capsys):
    code, payload = _run(
        capsys, "oracle", "product",
        "--alphas", "2", "--betas", "3", "--us", "2", "--vs", "1",
    )
    assert code == 0
    assert payload["sign"] == 1


def test_oracle_product_expansion_guard(capsys):
    # 2^(2^18 + 1) is bounded at just over 2^19 bits
    code = run([
        "oracle", "product", "--alphas", "2", "--betas", "3",
        "--us", str(2**18 + 1), "--vs", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "expansion guard" in captured.err


def test_oracle_product_rejects_zero_to_the_zero(capsys):
    code = run([
        "oracle", "product", "--alphas", "0", "--betas", "1", "--us", "0", "--vs", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "0^0" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["reduce", "sat3"], "--dimacs"),
    (["reduce", "sat3", "--dimacs", "{cnf}"], "p cnf"),
    (["reduce", "shor"], "--file"),
    (["reduce", "sos"], "--file"),
    (["oracle", "product", "--betas", "3", "--us", "2", "--vs", "1"], "--alphas"),
    (["oracle", "product", "--alphas", "2", "--us", "2", "--vs", "1"], "--betas"),
    (["oracle", "product", "--alphas", "2", "--betas", "3", "--vs", "1"], "--us"),
    (["oracle", "product", "--alphas", "2", "--betas", "3", "--us", "2"], "--vs"),
    (["oracle", "grid", "--expr", "x1 - 1", "--resolution", "1/2"], "--box"),
    (["oracle", "grid", "--expr", "x1 - 1", "--box", "0,2"], "--resolution"),
    (["feas", "--set", "positive"], "--expr or --file"),
    # a malformed rational names its option
    (["oracle", "sturm", "--expr", "x1 - 1", "--lower", "1/0"], "--lower"),
    (["oracle", "sturm", "--expr", "x1 - 1", "--upper", "one"], "--upper"),
    (["oracle", "grid", "--expr", "x1 - 1", "--box", "0,1", "--resolution", "1/0"],
     "--resolution"),
    (["oracle", "grid", "--expr", "x1 - 1", "--box", "0,1/0", "--resolution", "1"], "--box"),
])
def test_missing_option_is_one_error_line(tmp_path, capsys, argv, named):
    cnf = tmp_path / "header.cnf"
    cnf.write_text("p cnf\n1 -1 1 0\n")
    code = run([a.replace("{cnf}", str(cnf)) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, doc", [
    (["feas", "--set", "positive"], {"n": 1, "terms": 5}),
    (["feas", "--set", "positive"], [1, 2]),
    (["feas", "--set", "positive"], {"n": 1, "terms": [{"c": None, "a": [1]}]}),
    (["feas", "--set", "positive"], {"n": 1, "terms": [[1]]}),
    (["reduce", "sos"], {"polynomials": 5}),
    (["reduce", "shor"], {"polynomials": [5]}),
    (["feas", "--set", "positive"],
     {"n": 2, "terms": [{"c": "1", "a": "12"}, {"c": 2.9, "a": [0, 0]}]}),
    (["feas", "--set", "positive"], {"n": 2.7, "terms": [{"c": True, "a": [1, 0]}]}),
])
def test_malformed_json_is_one_error_line(tmp_path, capsys, argv, doc):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    code = run([*argv, "--file", str(src)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_missing_file_exit_code():
    assert run(["feas", "--set", "positive", "--file", "/nonexistent.json"]) == 1


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sparsefeas.cli", "parse", "--expr", "x1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["text"] == "x1"


def _private_imports(module):
    tree = ast.parse((SRC / "sparsefeas" / f"{module}.py").read_text())
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_names():
    assert _private_imports("cli") == []


def test_feasibility_imports_only_the_degenerate_point_privately():
    # the circuit rule reads no private sign from discriminant; the
    # singular point comes from _degenerate_point, which does not check
    # vanishing a second time
    assert _private_imports("feasibility") == ["discriminant._degenerate_point"]


@pytest.mark.parametrize("command", [("feas", "--set", "positive"), ("topology",)])
def test_witness_beyond_int_str_digit_limit(capsys, command):
    # 1 + y1^3 + 8 y2^3 - 6 y1 y2 is singular at y = (1, 1/2); under
    # y1 = x1 x2^15000, y2 = x2 that point is x = (2^15000, 1/2), whose
    # 4516 digits pass the interpreter's 4300-digit int-to-str guard; the
    # guard is lifted only while writing the output, and restored afterwards
    limit = sys.get_int_max_str_digits()
    expr = "1 + x1^3*x2^45000 + 8*x2^3 - 6*x1*x2^15001"
    code = run([*command, "--expr", expr])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["classification"] == "SINGULAR_POINT"
    assert sys.get_int_max_str_digits() == limit
    point = payload["witness" if command[0] == "feas" else "certificate"]
    sys.set_int_max_str_digits(0)
    try:
        assert point == [str(2**15000), "1/2"] and len(point[0]) > limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_answers_match_recorded_hash(capsys):
    # the answer-hash recipe (ROADMAP), cut to its first 200 instances and
    # run through the CLI: parse, topology and feas on every set, then disc
    # where the support's relation has no zero entry; sha256 over each
    # call's argv, exit code and output, so any changed byte of JSON shows.
    # Sign-change pairs print as {"t", "w", "flip"}; 228 of the 1174
    # outputs carry one
    rng = random.Random(24)
    digest, calls = hashlib.sha256(), 0
    for k in range(200):
        f = _random_real_instance(rng, 1 + k % 6)
        text = to_text(f)
        argvs = [["parse", "--expr", text], ["topology", "--expr", text]]
        argvs += [["feas", "--set", s, "--expr", text] for s in ("positive", "nonzero", "real")]
        m = analyze_support(t.exponents for t in f.terms).relation
        if m and all(m):
            points = ";".join(",".join(map(str, t.exponents)) for t in f.terms)
            coeffs = ",".join(str(t.coefficient) for t in f.terms)
            argvs += [["disc", w, "--support", points, "--coeffs", coeffs] for w in ("sign", "vanish")]
        for argv in argvs:
            code = run(argv)
            out, err = capsys.readouterr()
            assert code == 0, (argv, err)
            digest.update(repr((argv, code, out, err)).encode())
            calls += 1
    assert calls == 1174
    assert digest.hexdigest()[:16] == "279158a950a009b5"
