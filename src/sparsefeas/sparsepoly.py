"""Sparse integer Laurent polynomials: data model, parsing, exact evaluation.

A polynomial is stored as an ordered list of terms, each a pair of an
integer exponent vector (Laurent exponents allowed) and a nonzero
arbitrary-precision integer coefficient.  The canonical term order is
lexicographic on exponent vectors, which makes printing deterministic and
``parse(print(f)) == f`` hold for canonical polynomials.

Text grammar (whitespace insignificant)::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := integer | [integer] ['*'] factor ('*' factor)*
    factor := var ['^' integer]
    var    := 'x' index          (index in 1..n)

The number of variables of a parsed polynomial is the largest variable
index occurring in the text (at least 1).  The JSON form is
``{"n": int, "terms": [{"c": "<decimal>", "a": [int, ...]}]}``; a
coefficient may also be a JSON integer, and bools are not integers.

The zero polynomial is rejected everywhere: every downstream algorithm
assumes at least one term with a nonzero coefficient.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError, PreconditionError, ZeroPolynomialError


@dataclass(frozen=True)
class Term:
    """One monomial: coefficient times x^exponents, coefficient != 0."""

    exponents: tuple[int, ...]
    coefficient: int

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("zero coefficient in Term")


@dataclass(frozen=True)
class SparsePolynomial:
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
        return any(e < 0 for t in self.terms for e in t.exponents)


@dataclass(frozen=True)
class PointSet:
    """An ordered list of pairwise distinct integer points in Z^n."""

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points not pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


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


_TOKEN = re.compile(r"\s*(?:(\d+)|(x)(\d+)|(\^)|(\*)|(\+)|(-))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
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


def parse(text: str) -> SparsePolynomial:
    """Parse polynomial text into canonical form.

    Raises ParseError with a position on malformed input, and
    ZeroPolynomialError when all terms cancel.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else ("end", None, len(text))

    raw_terms: list[tuple[dict[int, int], int]] = []  # ({var: exp}, coeff)
    sign = 1
    kind, _, pos = peek()
    if kind in ("plus", "minus"):
        sign = 1 if kind == "plus" else -1
        idx += 1
    while True:
        # one term
        coeff = sign
        exps: dict[int, int] = {}
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

    n = max((v for exps, _ in raw_terms for v in exps), default=1)
    pairs = []
    for exps, c in raw_terms:
        vec = tuple(exps.get(i, 0) for i in range(1, n + 1))
        pairs.append((vec, c))
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
    (ZeroDivisionError otherwise, via exact rational arithmetic).
    """
    if len(x) != f.n:
        raise ValueError("point dimension mismatch")
    xs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x]
    total = Fraction(0)
    for t in f.terms:
        val = Fraction(t.coefficient)
        for xi, e in zip(xs, t.exponents):
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
        obj = json.loads(obj)
    try:
        n = _json_int(obj["n"])
        pairs = []
        for t in obj["terms"]:
            if not isinstance(t["a"], list):
                raise TypeError("exponents are not an array")
            pairs.append(([_json_int(e) for e in t["a"]], _json_int(t["c"], text=True)))
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed polynomial JSON ({exc})") from None
    return make_polynomial(n, pairs)
