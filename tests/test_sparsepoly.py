"""Tests for the polynomial data model, parser, and serializers."""

from fractions import Fraction

import pytest

from sparsefeas.errors import ParseError, PreconditionError, ZeroPolynomialError
from sparsefeas.sparsepoly import (
    evaluate,
    from_json,
    make_polynomial,
    parse,
    support,
    to_json,
    to_text,
)


def test_parse_canonical_order():
    f = parse("x1^2 - 2*x1 + 1")
    assert [t.exponents for t in f.terms] == [(0,), (1,), (2,)]
    assert [t.coefficient for t in f.terms] == [1, -2, 1]


def test_parse_infers_variable_count():
    f = parse("1 + x3")
    assert f.n == 3
    assert support(f).points == ((0, 0, 0), (0, 0, 1))


def test_parse_merges_like_terms():
    f = parse("x1 + x1 + 1")
    assert [t.coefficient for t in f.terms] == [1, 2]


def test_parse_laurent_exponent():
    f = parse("x1^-2 + 1")
    assert f.is_laurent
    assert evaluate(f, [Fraction(2)]) == Fraction(5, 4)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("1 + + x1")
    with pytest.raises(ParseError):
        parse("x1 ^ y")
    with pytest.raises(ParseError):
        parse("")


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        parse("x1 - x1")


def test_text_round_trip():
    for text in ["1 - 2*x1 + x1^2", "x1*x2 - x1 - x2 + 1", "3*x1^-1 + x2^5"]:
        f = parse(text)
        assert parse(to_text(f)) == f


def test_json_round_trip():
    f = parse("1 + x1^4 + x2^4 - 3*x1*x2")
    assert from_json(to_json(f)) == f


def test_evaluate_exact():
    f = parse("x1^2 - 2*x1 + 1")
    assert evaluate(f, [Fraction(1)]) == 0
    assert evaluate(f, [Fraction(1, 2)]) == Fraction(1, 4)


def test_evaluate_laurent_at_zero_fails():
    f = parse("x1^-1 + 1")
    with pytest.raises(ZeroDivisionError):
        evaluate(f, [0])


@pytest.mark.parametrize("doc", [
    {"n": 1, "terms": 5},
    [1, 2],
    {"n": 1, "terms": [{"c": None, "a": [1]}]},
    {"n": 1, "terms": [[1]]},
    {"terms": [{"c": "1", "a": [1]}]},
    {"n": "one", "terms": []},
    "5",
    {"n": 2, "terms": [{"c": "1", "a": "12"}, {"c": 2.9, "a": [0, 0]}]},
    {"n": 2.7, "terms": [{"c": True, "a": [1, 0]}]},
])
def test_from_json_rejects_malformed_shapes(doc):
    with pytest.raises(PreconditionError, match="malformed polynomial JSON"):
        from_json(doc)


def test_make_polynomial_rejects_cancellation():
    with pytest.raises(ZeroPolynomialError):
        make_polynomial(1, [((0,), 1), ((0,), -1)])
