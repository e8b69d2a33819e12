"""The contract of the eleven frozen value types, all ``errors.FrozenRecord``
subclasses: what the package and its callers relied on when ten of them
were frozen dataclasses, and the eleventh, ``DominantPair``, keeps too."""

import sys
from fractions import Fraction

import pytest

from sparsefeas import geometry
from sparsefeas.discriminant import CircuitDiscriminant, DegeneratePoint
from sparsefeas.errors import FrozenRecord, NotACircuitError, PreconditionError
from sparsefeas.exactsign import GcdFreeBasis
from sparsefeas.feasibility import DominantPair, FeasibilityReport, feas_real_full
from sparsefeas.geometry import SupportAnalysis, analyze_support
from sparsefeas.reductions import PolySystem, Sat3Formula
from sparsefeas.sparsepoly import PointSet, SparsePolynomial, Term, parse

LINE = analyze_support(((0,), (1,), (2,)))

# each type with its fields, in order, and a valid value for each
RECORDS = [
    (Term, {"exponents": (1, 2), "coefficient": 3}),
    (SparsePolynomial, {"n": 2, "terms": (Term((0, 0), 1), Term((1, 2), -3))}),
    (PointSet, {"points": ((0, 0), (1, 0))}),
    (GcdFreeBasis, {"gammas": (2, 3), "exponent_matrix": ((1, 0), (0, 2))}),
    (SupportAnalysis, {name: getattr(LINE, name) for name in ("points", "pivots", "rows", "kernel")}),
    (CircuitDiscriminant, {"circuit": LINE, "coefficients": (1, -2, 1)}),
    (DegeneratePoint, {"rhos": (Fraction(2),), "orders": (2,), "mixing": ((1,),), "coordinates": None}),
    (FeasibilityReport, {
        "positive_orthant": "nonempty", "nonzero_reals": None, "all_reals": None,
        "classification": "COMPACT_SPHERE", "certificate": ((1,), (2,)),
    }),
    (DominantPair, {"t": Fraction(1, 6), "w": ((4, 5), (-1, 0)), "flip": None}),
    (Sat3Formula, {"num_vars": 3, "clauses": ((1, -2, 3),)}),
    (PolySystem, {"polynomials": (parse("x1 - 1"), parse("x1*x2 + 2"))}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_value_type_contract(cls, fields):
    values = tuple(fields.values())
    x = cls(*values)
    assert isinstance(x, FrozenRecord)
    assert x == cls(**fields)
    assert tuple(getattr(x, name) for name in fields) == values
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)

    first = next(iter(fields))
    for assign in (lambda: setattr(x, first, values[0]), lambda: setattr(x, "other", 1)):
        with pytest.raises(AttributeError):
            assign()
    with pytest.raises(AttributeError):
        delattr(x, first)
    assert getattr(x, first) is values[0]

    # equal fields in another class, even one of the same name, are not equal
    twin = type(cls.__name__, (FrozenRecord,), {"__annotations__": dict.fromkeys(fields, "object")})
    assert x != twin(*values)
    assert x.__eq__(twin(*values)) is NotImplemented

    try:
        want = hash(values)
    except TypeError:  # SupportAnalysis holds lists, as it did as a dataclass
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want
        assert {x, cls(*values)} == {x}

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(x) == f"{cls.__name__}({shown})"


def test_class_values_are_defaults():
    report = FeasibilityReport("empty", None, None, "EMPTY")
    assert report.certificate is None
    assert report == FeasibilityReport("empty", None, None, "EMPTY", None)
    assert report != FeasibilityReport("empty", None, None, "EMPTY", certificate=0)


def test_support_analysis_caches_relation_and_solution(monkeypatch):
    calls = []
    solve = geometry.echelon_solution
    monkeypatch.setattr(geometry, "echelon_solution", lambda *a: calls.append(a) or solve(*a))
    an = analyze_support(((0, 0), (1, 0), (0, 1), (1, 1)))
    assert an.relation == (1, -1, -1, 1)
    assert an.relation is an.relation
    assert an.solution is an.solution
    assert len(calls) == 1
    assert {"relation", "solution"} <= set(vars(an))


@pytest.mark.parametrize("build, error, match", [
    (lambda: Term((1,), 0), ValueError, "zero coefficient"),
    (lambda: SparsePolynomial(1, (Term((1,), 1), Term((1,), 2))), ValueError, "duplicate exponent"),
    (lambda: PointSet(((0,), (1,), (0,))), ValueError, "not pairwise distinct"),
    (lambda: CircuitDiscriminant(analyze_support(((0,), (1,))), (1, 1)), NotACircuitError, "not a circuit"),
    (lambda: Sat3Formula(2, ((1, -2, 3),)), PreconditionError, "literal 3 out of range"),
], ids=["Term", "SparsePolynomial", "PointSet", "CircuitDiscriminant", "Sat3Formula"])
def test_post_init_guards_still_raise(build, error, match):
    with pytest.raises(error, match=match):
        build()



def test_repr_writes_integers_past_the_digit_guard():
    # the singular point (2^15000, 1/2) of 1 + y1^3 + 8 y2^3 - 6 y1 y2 under
    # y1 = x1 x2^15000, y2 = x2 has a 4516-digit coordinate, past the
    # interpreter's 4300-digit int-to-str guard; repr lifts the guard only
    # while it writes, and restores it
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 4516
    rep = feas_real_full(parse("1 + x1^3*x2^45000 + 8*x2^3 - 6*x1*x2^15001"))
    text = repr(rep)
    assert sys.get_int_max_str_digits() == limit
    assert rep.classification == "SINGULAR_POINT"
    assert text.startswith("FeasibilityReport(positive_orthant='nonempty', ")
    sys.set_int_max_str_digits(0)
    try:
        assert repr(2**15000) in text and len(repr(2**15000)) > limit
    finally:
        sys.set_int_max_str_digits(limit)
    # a guard already lifted stays lifted
    sys.set_int_max_str_digits(0)
    try:
        assert repr(rep) == text and sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(limit)
