"""Tests for the satisfiability encodings and normal-form rewrites."""

import itertools
import random
from fractions import Fraction

import pytest

from sparsefeas.errors import PreconditionError, ScaleLimitError
from sparsefeas.reductions import (
    PolySystem,
    Sat3Formula,
    sat3_to_system,
    shor_normal_form,
    sos_aggregate,
)
from sparsefeas.sparsepoly import evaluate, make_polynomial, parse, to_text


def _eval_at(f, assignment):
    return evaluate(f, [Fraction(v) for v in assignment])


def _system_zero_at(system, assignment):
    return all(_eval_at(f, assignment) == 0 for f in system.polynomials)


def _solve_auxiliaries(system, base_values):
    """Pin the auxiliary variables from their defining binomials by
    repeated forward substitution; returns the full evaluation point."""
    values = dict(base_values)
    pending = list(system.polynomials)
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for f in pending:
            vars_in = {i + 1 for t in f.terms for i, e in enumerate(t.exponents) if e}
            unknown = [v for v in vars_in if v not in values]
            if len(unknown) == 1 and len(f.terms) == 2:
                var = unknown[0]
                known_part = None
                coeff = None
                for t in f.terms:
                    if t.exponents[var - 1]:
                        if t.exponents[var - 1] != 1:
                            coeff = None
                            break
                        coeff = Fraction(t.coefficient)
                        for i, e in enumerate(t.exponents):
                            if e and i + 1 != var:
                                coeff *= values[i + 1] ** e
                    else:
                        prod = Fraction(t.coefficient)
                        for i, e in enumerate(t.exponents):
                            if e:
                                prod *= values[i + 1] ** e
                        known_part = prod
                if coeff is not None and known_part is not None:
                    values[var] = -known_part / coeff
                    progress = True
                    continue
            rest.append(f)
        pending = rest
    return [values[i + 1] for i in range(system.n)]


def _sat_eval(phi, assignment):
    for clause in phi.clauses:
        ok = False
        for lit in clause:
            v = assignment[abs(lit) - 1]
            if (lit > 0 and v) or (lit < 0 and not v):
                ok = True
                break
        if not ok:
            return False
    return True


def test_sat3_worked_clause():
    phi = Sat3Formula(8, [(-3, 1, 8)])
    system = sat3_to_system(phi)
    clause_polys = [f for f in system.polynomials if len(f.terms) > 2]
    assert len(clause_polys) == 1
    # the system stores the OR-polynomial minus one, so adding the
    # constant back recovers the clause's indicator polynomial
    or_poly = make_polynomial(
        8, [(t.exponents, t.coefficient) for t in clause_polys[0].terms] + [((0,) * 8, 1)]
    )
    assert or_poly == parse("1 - x3 + x1*x3 + x3*x8 - x1*x3*x8")


def test_sat3_solutions_match():
    rng = random.Random(31)
    for _ in range(20):
        nv = rng.randint(2, 5)
        clauses = []
        for _ in range(rng.randint(1, 6)):
            vs = rng.sample(range(1, nv + 1), min(3, nv))
            while len(vs) < 3:
                vs.append(vs[0])
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        phi = Sat3Formula(nv, clauses)
        system = sat3_to_system(phi)
        for bits in itertools.product([0, 1], repeat=nv):
            pad = list(bits) + [0] * (system.n - nv)
            # boolean-consistency polynomials force x in {0,1};
            # clause polynomials vanish iff the clause is satisfied
            assert _system_zero_at(system, pad) == _sat_eval(phi, bits)


def test_sat3_boolean_constraints_present():
    phi = Sat3Formula(3, [(1, 2, 3)])
    system = sat3_to_system(phi)
    booleans = [f for f in system.polynomials if len(f.terms) == 2]
    assert len(booleans) == 3
    for f in booleans:
        # x - x^2 vanishes exactly on {0, 1}
        assert _eval_at(f, [0, 0, 0]) == 0
        assert _eval_at(f, [1, 1, 1]) == 0
        assert _eval_at(f, [2, 2, 2]) != 0


def test_shor_shapes():
    system = PolySystem((parse("x2 - x1^7"),))
    out = shor_normal_form(system)
    for f in out.polynomials:
        assert len(f.terms) <= 3
        for t in f.terms:
            assert sum(abs(e) for e in t.exponents) <= 2
    # new variables are paired one-to-one with new defining equations
    assert out.n - system.polynomials[0].n == len(out.polynomials) - len(system.polynomials)


def test_shor_preserves_positive_solutions():
    # x2 = x1^7 at x1 = 2 -> x2 = 128; defining equations pin the new vars
    system = PolySystem((parse("x2 - x1^7"),))
    out = shor_normal_form(system)
    point = _solve_auxiliaries(out, {1: Fraction(2), 2: Fraction(128)})
    for f in out.polynomials:
        assert evaluate(f, point) == 0


def test_shor_random_roundtrip():
    rng = random.Random(63)
    for _ in range(20):
        e = rng.randint(2, 40)
        system = PolySystem((parse(f"x2 - x1^{e}"),))
        out = shor_normal_form(system)
        x1 = Fraction(rng.randint(1, 5))
        point = _solve_auxiliaries(out, {1: x1, 2: x1**e})
        for f in out.polynomials:
            assert evaluate(f, point) == 0


def test_shor_rejects_laurent():
    with pytest.raises(PreconditionError):
        shor_normal_form(PolySystem((parse("x1^-1 + 1"),)))


def test_sos_aggregate():
    system = PolySystem((parse("x1 - 1"), parse("x1 + 1")))
    g = sos_aggregate(system)
    # (x-1)^2 + (x+1)^2 = 2x^2 + 2
    assert g == parse("2*x1^2 + 2")
    # nonnegative everywhere, zero exactly on common roots (here: none)
    assert evaluate(g, [Fraction(0)]) == 2


def _linear_form(n, m):
    """x1 + ... + xm in n variables: its square has m(m + 1)/2 terms."""
    return make_polynomial(n, [([int(i == k) for i in range(n)], 1) for k in range(m)])


def test_sos_aggregate_size_guard(monkeypatch):
    # 62 terms in 1,000 variables: 1,953 output terms, 1,953,000 dense
    # exponent entries, under the guard of 2 * 10^6; 63 terms bound
    # 2,016,000 entries and are refused before any product
    g = sos_aggregate(PolySystem((_linear_form(1000, 62),)))
    assert g.n * len(g.terms) == 1_953_000
    monkeypatch.setattr("sparsefeas.reductions._mul", lambda a, b: pytest.fail("product taken"))
    with pytest.raises(ScaleLimitError, match="2016000 exponent entries exceed the reduce sos guard"):
        sos_aggregate(PolySystem((_linear_form(1000, 63),)))


def test_sos_aggregate_shares_roots():
    system = PolySystem((parse("x1 - 2"), parse("x1*x2 - 4")))
    g = sos_aggregate(system)
    assert evaluate(g, [Fraction(2), Fraction(2)]) == 0
    assert evaluate(g, [Fraction(2), Fraction(3)]) > 0


@pytest.mark.parametrize("expr, n, texts", [
    ("x2 - x1^7", 5, ["-x4*x5 + x2", "x3 - x1^2", "x4 - x1*x3", "x5 - x3^2"]),
    # five terms: the linear form is chained through partial sums x11..x13
    ("x1^3*x2 + 2*x1*x2^2 - x3^4 + x1 - 5", 13, [
        "5 + x11 + x5", "x12 - x11 - x1", "x13 - x12 - 2*x7", "x13 + x10",
        "x4 - x3^2", "x5 - x4^2", "x6 - x2^2", "x7 - x1*x6", "x8 - x1^2",
        "x9 - x1*x2", "x10 - x8*x9",
    ]),
    # a binomial keeps the product of its monomial's two halves
    ("x1^2*x2^3 - 7", 5, ["-7 + x3*x5", "x3 - x1^2", "x4 - x2^2", "x5 - x2*x4"]),
    # three terms: the linear form is one trinomial, with no partial sums
    ("x1^2*x2 - 3*x2^2 + x1", 5, ["x5 - 3*x3 + x1", "x3 - x2^2", "x4 - x1*x2", "x5 - x1*x4"]),
])
def test_shor_exact_output(expr, n, texts):
    # fresh variables are numbered post-order, one per distinct monomial
    # of degree >= 2, then one per partial sum; definitions come last
    out = shor_normal_form(PolySystem((parse(expr),)))
    assert out.n == n
    assert [to_text(f) for f in out.polynomials] == texts


def test_shor_below_size_guard():
    # 300 terms: 747 variables and 747 polynomials, 1,338,624 dense
    # exponent entries, under the guard of 2 * 10^6
    f = make_polynomial(1, [((2 * i,), 1) for i in range(300)])
    out = shor_normal_form(PolySystem((f,)))
    assert out.n == len(out.polynomials) == 747
    assert out.n * sum(len(g.terms) for g in out.polynomials) == 1_338_624


def test_sat3_exact_output():
    out = sat3_to_system(Sat3Formula(3, ((-3, 1, 1),)))
    assert out.n == 3
    assert [to_text(f) for f in out.polynomials] == [
        "-x3 + 2*x1*x3 - x1^2*x3", "x1 - x1^2", "x2 - x2^2", "x3 - x3^2",
    ]


def test_sat3_size_guard(monkeypatch):
    # 1,000 variables' binomials alone hold the 2 * 10^6 dense exponent
    # entries the guard allows; one clause of 8 terms, or 3,000 variables,
    # go past it and are refused before any polynomial is densified
    assert len(sat3_to_system(Sat3Formula(1000, ())).polynomials) == 1000
    monkeypatch.setattr("sparsefeas.reductions._poly", lambda d, n: pytest.fail("densified"))
    with pytest.raises(ScaleLimitError, match="^2008000 exponent entries exceed the reduce sat3 guard"):
        sat3_to_system(Sat3Formula(1000, ((1, 2, 3),)))
    with pytest.raises(ScaleLimitError, match="^18000000 exponent entries"):
        sat3_to_system(Sat3Formula(3000, ()))


@pytest.mark.parametrize("call, message", [
    (lambda: Sat3Formula(3, ((1, -2),)), "every clause needs exactly 3 literals"),
    (lambda: Sat3Formula(2, ((1, -2, 3),)), "literal 3 out of range"),
    (lambda: PolySystem(()), "empty polynomial system"),
], ids=["two-literal-clause", "literal-out-of-range", "empty-system"])
def test_reductions_input_guards(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert type(info.value) is PreconditionError and str(info.value) == message
