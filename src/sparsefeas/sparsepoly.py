"""Sparse integer Laurent polynomials: data model, parsing, exact evaluation.

A polynomial is stored as an ordered list of terms, each a pair of an
integer exponent vector (Laurent exponents allowed) and a nonzero
arbitrary-precision integer coefficient.  The canonical term order is
lexicographic on exponent vectors, which makes printing deterministic and
``parse(print(f)) == f`` hold for canonical polynomials.

Text grammar (whitespace allowed between tokens, not inside them)::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := integer | [integer] ['*'] factor (['*'] factor)*
    factor := var ['^' ['-'] integer]
    var    := 'x' index          (index in 1..10000)

so factors may also be juxtaposed, as in ``2x1`` or ``2 x1 x2^-1``.  The
number of variables of a parsed polynomial is the largest variable index
occurring in the text (at least 1); an index above 10,000 is refused
before any exponent vector is built.  The JSON form is
``{"n": int, "terms": [{"c": "<decimal>", "a": [int, ...]}]}``; a
coefficient may also be a JSON integer, and bools are not integers.

The zero polynomial is rejected everywhere: every downstream algorithm
assumes at least one term with a nonzero coefficient.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import FrozenRecord, ParseError, PreconditionError, ZeroPolynomialError


class Term(FrozenRecord):
    """One monomial: coefficient times x^exponents, coefficient != 0."""

    exponents: tuple[int, ...]
    coefficient: int

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("zero coefficient in Term")


class SparsePolynomial(FrozenRecord):
    """An n-variate polynomial with pairwise distinct exponent vectors."""

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if not self.terms:
            raise ZeroPolynomialError("polynomial has no terms")
        seen = set()
        for t in self.terms:
            if len(t.exponents) != self.n:
                raise ValueError("exponent vector length mismatch")
            if t.exponents in seen:
                raise ValueError(f"duplicate exponent vector {t.exponents}")
            seen.add(t.exponents)

    @property
    def is_laurent(self) -> bool:
        return any(min(t.exponents) < 0 for t in self.terms)


class PointSet(FrozenRecord):
    """An ordered list of pairwise distinct integer points in Z^n."""

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points not pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def make_polynomial(n: int, terms: Iterable[tuple[Sequence[int], int]]) -> SparsePolynomial:
    """Build a canonical polynomial from (exponent vector, coefficient) pairs.

    Like terms are merged; terms that cancel to zero are dropped; the result
    is sorted lexicographically by exponent vector.  Raises
    ZeroPolynomialError if everything cancels.
    """
    acc: dict[tuple[int, ...], int] = {}
    for exps, c in terms:
        key = tuple(int(e) for e in exps)
        acc[key] = acc.get(key, 0) + int(c)
    merged = [Term(e, c) for e, c in sorted(acc.items()) if c != 0]
    if not merged:
        raise ZeroPolynomialError("all terms cancel: zero polynomial rejected")
    return SparsePolynomial(n, tuple(merged))


# a polynomial is dense in its largest index: x10000 + 1 parses in 6 ms and
# classify_positive takes 83 ms more, and both grow linearly with the index
# (x1000000: 0.54 s, then 8.7 s at 261 MB peak), on 2 vCPUs, Python 3.11
_MAX_INDEX = 10_000
_TOKEN = re.compile(r"\s*((\d+)|x(\d+)|[-+*^]|\S)")


def parse(text: str) -> SparsePolynomial:
    """Parse polynomial text into canonical form.

    Raises ParseError with a position on malformed input, and
    ZeroPolynomialError when all terms cancel.
    """
    # int() raises a bare ValueError past Python's digit limit (0: none)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    tokens = []  # (kind, value, position); a symbol is its own kind
    for m in _TOKEN.finditer(text):
        tok, digits, index = m.groups()
        if digits or index:
            if 0 < limit < len(digits or index):
                at = m.start(2 if digits else 3)
                raise ParseError(f"digit run longer than {limit} digits", at)
            tokens.append(("int" if digits else "var", int(digits or index), m.start(1)))
        elif tok in "+-*^":
            tokens.append((tok, None, m.start(1)))
        else:
            raise ParseError(f"unexpected character {tok!r}", m.start(1))
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append(("end", None, len(text)))
    at = 0

    def take(*kinds):
        """Consume and return the next token if it has one of these kinds."""
        nonlocal at
        if tokens[at][0] not in kinds:
            return None
        at += 1
        return tokens[at - 1]

    def need(ok, message):
        if not ok:
            raise ParseError(message, tokens[at][2])

    raw_terms: list[tuple[dict[int, int], int]] = []  # ({var: exp}, coeff)
    sign = take("+", "-")
    while True:
        coeff = -1 if sign and sign[0] == "-" else 1
        exps: dict[int, int] = {}
        num = take("int")
        if num:
            coeff *= num[1]
        need(num or tokens[at][0] == "var", "expected term")
        while True:  # factors, joined by '*' or juxtaposed
            if take("*"):
                need(tokens[at][0] == "var", "expected variable after '*'")
            elif tokens[at][0] != "var":
                break
            var = tokens[at][1]
            need(var >= 1, "variable index must be >= 1")
            need(var <= _MAX_INDEX, f"variable index must be <= {_MAX_INDEX}")
            take("var")
            exp = 1
            if take("^"):
                exp = -1 if take("-") else 1
                need(tokens[at][0] == "int", "expected integer exponent after '^'")
                exp *= take("int")[1]
            exps[var] = exps.get(var, 0) + exp
        raw_terms.append((exps, coeff))
        if take("end"):
            break
        sign = take("+", "-")
        need(sign, "expected '+' or '-' between terms")
        need(tokens[at][0] != "end", "dangling sign")

    n = max((v for exps, _ in raw_terms for v in exps), default=1)
    pairs = [(tuple(exps.get(i, 0) for i in range(1, n + 1)), c) for exps, c in raw_terms]
    return make_polynomial(n, pairs)


def to_text(f: SparsePolynomial) -> str:
    """Canonical text form; parse(to_text(f)) == f."""
    parts = []
    for i, t in enumerate(f.terms):
        c = t.coefficient
        factors = [
            f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
            for j, e in enumerate(t.exponents)
            if e != 0
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def support(f: SparsePolynomial) -> PointSet:
    """The set of exponent vectors, in term order."""
    return PointSet(tuple(t.exponents for t in f.terms))


def evaluate(f: SparsePolynomial, x: Sequence) -> Fraction:
    """Exact value of f at a rational point.

    Coordinates must be nonzero wherever a term carries a negative exponent
    (ZeroDivisionError naming the coordinate otherwise).
    """
    if len(x) != f.n:
        raise ValueError("point dimension mismatch")
    total = Fraction(0)
    for t in f.terms:
        val = Fraction(t.coefficient)
        for i, (xi, e) in enumerate(zip(x, t.exponents)):
            if e < 0 and xi == 0:
                raise ZeroDivisionError(f"x{i + 1} = 0 under the negative exponent {e}")
            if e:
                val *= Fraction(xi) ** e
        total += val
    return total


def to_json(f: SparsePolynomial) -> dict:
    return {
        "n": f.n,
        "terms": [{"c": str(t.coefficient), "a": list(t.exponents)} for t in f.terms],
    }


def _json_int(v, text: bool = False) -> int:
    """A JSON integer (not a bool) or, with text, a decimal integer string."""
    if type(v) is int:
        return v
    if text and isinstance(v, str) and re.fullmatch(r"[+-]?[0-9]+", v):
        return int(v)
    raise TypeError(f"{v!r} is not an integer")


def from_json(obj) -> SparsePolynomial:
    """The polynomial of a JSON document, or of its text, in the form of
    the module docstring; a document of another shape or with values of
    other types raises PreconditionError."""
    if isinstance(obj, str):
        import json  # only text needs it; deciding never reads JSON

        obj = json.loads(obj)
    try:
        n = _json_int(obj["n"])
        pairs = []
        for t in obj["terms"]:
            if not isinstance(t["a"], list):
                raise TypeError("exponents are not an array")
            pairs.append(([_json_int(e) for e in t["a"]], _json_int(t["c"], text=True)))
        return make_polynomial(n, pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed polynomial JSON ({exc})") from None
