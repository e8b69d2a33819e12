"""Tests for the polynomial data model, parser, and serializers."""

import random
import re
import sys
from fractions import Fraction

import pytest

from sparsefeas.errors import ParseError, PreconditionError, ZeroPolynomialError
from sparsefeas.sparsepoly import (
    _MAX_INDEX,
    SparsePolynomial,
    Term,
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
    with pytest.raises(ZeroDivisionError, match="x1 = 0"):
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
    '{"n":0,"terms":[{"c":"1","a":[]}]}',
    {"n": 2, "terms": [{"c": "1", "a": [1]}]},
])
def test_from_json_rejects_malformed_shapes(doc):
    with pytest.raises(PreconditionError, match="malformed polynomial JSON"):
        from_json(doc)


def test_make_polynomial_rejects_cancellation():
    with pytest.raises(ZeroPolynomialError):
        make_polynomial(1, [((0,), 1), ((0,), -1)])


@pytest.mark.parametrize("text, canonical", [
    ("2x1", "2*x1"),
    ("x1x2", "x1*x2"),
    ("x1 ^ - 2", "x1^-2"),
    ("2 x1 x2^-1 - x2", "-x2 + 2*x1*x2^-1"),
])
def test_juxtaposed_and_spaced_forms_round_trip(text, canonical):
    f = parse(text)
    assert to_text(f) == canonical
    assert parse(to_text(f)) == f


@pytest.mark.parametrize("text, message, position", [
    ("", "empty input", 0),
    ("3*4", "expected variable after '*'", 2),
    ("x1 * ", "expected variable after '*'", 5),
    ("x0 + 1", "variable index must be >= 1", 0),
    ("x1^+2", "expected integer exponent after '^'", 3),
    ("1 + + x1", "expected term", 4),
    ("-", "expected term", 1),
    ("x1^2^3", "expected '+' or '-' between terms", 4),
    ("x1 +", "dangling sign", 4),
    ("x1^y", "unexpected character 'y'", 3),
    ("1 + x1 (", "unexpected character '('", 7),
])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_variable_index_guard(monkeypatch):
    assert parse(f"x{_MAX_INDEX} + 1").n == _MAX_INDEX
    monkeypatch.setattr(
        "sparsefeas.sparsepoly.make_polynomial",
        lambda n, terms: pytest.fail("polynomial built"),
    )
    for text, position in [("x100000000 + 1", 0), (f"1 + 2*x{_MAX_INDEX + 1}", 6)]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        assert str(info.value) == (
            f"variable index must be <= {_MAX_INDEX} (at position {position})"
        )


def test_digit_run_guard():
    # int() refuses a run past Python's digit limit with a bare ValueError;
    # parse refuses it first, at the run, for every kind of integer
    old = sys.get_int_max_str_digits()
    run = "1" * 4301
    try:
        sys.set_int_max_str_digits(4300)
        for text, position in [(f"2 + {run}*x1", 4), (f"x1^-{run} + 1", 4), (f"x{run} + 1", 1)]:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == f"digit run longer than 4300 digits (at position {position})"
        assert parse(run[1:] + "*x1").terms[0].coefficient == int(run[1:])
        sys.set_int_max_str_digits(0)
        assert parse(run + "*x1").terms[0].coefficient == int(run)
    finally:
        sys.set_int_max_str_digits(old)


_REFERENCE_TOKEN = re.compile(r"\s*(?:(\d+)|(x)(\d+)|(\^)|(\*)|(\+)|(-))")


def _tokenize_reference(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("var", int(m.group(3)), m.start(2)))
        elif m.group(4):
            tokens.append(("pow", None, m.start(4)))
        elif m.group(5):
            tokens.append(("mul", None, m.start(5)))
        elif m.group(6):
            tokens.append(("plus", None, m.start(6)))
        else:
            tokens.append(("minus", None, m.start(7)))
        pos = m.end()
    return tokens


def _reference_terms(text: str):
    """The token-list state machine the parser replaced, kept as the
    reference for the differential test: the ({var: exp}, coeff) pairs of
    the text.  It has no index guard and reports an unexpected character
    at the whitespace before it."""
    tokens = _tokenize_reference(text)
    if not tokens:
        raise ParseError("empty input", 0)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else ("end", None, len(text))

    raw_terms = []
    sign = 1
    kind, _, pos = peek()
    if kind in ("plus", "minus"):
        sign = 1 if kind == "plus" else -1
        idx += 1
    while True:
        coeff = sign
        exps = {}
        kind, val, pos = peek()
        saw_factor = False
        if kind == "int":
            coeff *= val
            idx += 1
            saw_factor = True
            kind, val, pos = peek()
            if kind == "mul":
                idx += 1
                kind, val, pos = peek()
                if kind != "var":
                    raise ParseError("expected variable after '*'", pos)
        while True:
            kind, val, pos = peek()
            if kind != "var":
                break
            idx += 1
            var = val
            if var < 1:
                raise ParseError("variable index must be >= 1", pos)
            exp = 1
            kind2, _, pos2 = peek()
            if kind2 == "pow":
                idx += 1
                esign = 1
                kind3, val3, pos3 = peek()
                if kind3 == "minus":
                    esign = -1
                    idx += 1
                    kind3, val3, pos3 = peek()
                if kind3 != "int":
                    raise ParseError("expected integer exponent after '^'", pos3)
                exp = esign * val3
                idx += 1
            exps[var] = exps.get(var, 0) + exp
            saw_factor = True
            kind4, _, _ = peek()
            if kind4 == "mul":
                idx += 1
                kind5, _, pos5 = peek()
                if kind5 != "var":
                    raise ParseError("expected variable after '*'", pos5)
        if not saw_factor:
            raise ParseError("expected term", pos)
        raw_terms.append((exps, coeff))
        kind, _, pos = peek()
        if kind == "end":
            break
        if kind not in ("plus", "minus"):
            raise ParseError("expected '+' or '-' between terms", pos)
        sign = 1 if kind == "plus" else -1
        idx += 1
        kind, _, pos = peek()
        if kind == "end":
            raise ParseError("dangling sign", pos)
    return raw_terms


def _parse_reference(text: str):
    raw_terms = _reference_terms(text)
    n = max((v for exps, _ in raw_terms for v in exps), default=1)
    pairs = []
    for exps, c in raw_terms:
        vec = tuple(exps.get(i, 0) for i in range(1, n + 1))
        pairs.append((vec, c))
    return make_polynomial(n, pairs)


_ATOMS = "x0 x1 x2 x3 x10 x x01 2 13 0 ^ ^- * + - ( y".split() + [" ", "  "]


def _random_text(rng):
    return "".join(rng.choice(_ATOMS) for _ in range(rng.randint(0, 12)))


def _well_formed_text(rng):
    """Leading signs, mixed spacing, juxtaposed factors, Laurent exponents."""
    parts = []
    for k in range(rng.randint(1, 5)):
        factors = []
        for _ in range(rng.randint(0, 3)):
            factor = f"x{rng.randint(1, 4)}"
            r = rng.random()
            if r < 0.3:
                factor += f"^{rng.randint(0, 5)}"
            elif r < 0.45:
                factor += rng.choice(["^-", " ^ - ", "^ -"]) + str(rng.randint(1, 4))
            factors.append(factor)
        if not factors or rng.random() < 0.5:
            factors.insert(0, str(rng.randint(0, 20)))
        body = factors[0] + "".join(rng.choice(["*", " * ", "", " "]) + f for f in factors[1:])
        sign = rng.choice(["+", "-"] if k else ["", "+", "-"])
        parts.append(rng.choice(["", " "]) + sign + rng.choice(["", " "]) + body)
    return "".join(parts)


def _outcome(text, parser):
    try:
        return parser(text)
    except (ParseError, ZeroPolynomialError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parse_matches_reference():
    rng = random.Random(1515)
    guarded = parsed = 0
    for i in range(100_000):
        text = _random_text(rng) if i % 5 else _well_formed_text(rng)
        got = _outcome(text, parse)
        if isinstance(got, tuple) and got[1].startswith(f"variable index must be <= {_MAX_INDEX}"):
            # the reference reads past that variable to a later error, or
            # to an index above the guard (its vectors are not built here)
            guarded += 1
            terms = _outcome(text, _reference_terms)
            if isinstance(terms, tuple):
                assert terms[0] is ParseError and terms[2] > got[2], text
            else:
                assert max(v for exps, _ in terms for v in exps) > _MAX_INDEX, text
            continue
        want = _outcome(text, _parse_reference)
        if isinstance(want, tuple) and want[1].startswith("unexpected character"):
            # the reference reports the whitespace before the character
            pos = want[2]
            skipped = pos + len(text[pos:]) - len(text[pos:].lstrip())
            message = want[1].replace(f"(at position {pos})", f"(at position {skipped})")
            want = (ParseError, message, skipped)
        assert got == want, text
        parsed += not isinstance(want, tuple)
    assert guarded > 0 and parsed > 20_000, (guarded, parsed)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Term((1,), 0), ValueError, "zero coefficient in Term"),
    (lambda: SparsePolynomial(1, ()), ZeroPolynomialError, "polynomial has no terms"),
    (lambda: SparsePolynomial(1, (Term((1,), 1), Term((1,), 2))), ValueError,
     "duplicate exponent vector (1,)"),
    (lambda: evaluate(parse("x1 + 1"), (1, 2)), ValueError, "point dimension mismatch"),
], ids=["zero-coefficient", "no-terms", "repeated-exponent", "point-dimension"])
def test_sparsepoly_input_guards(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
