"""Hardness gadgets as executable transformations.

Three constructions: 3-SAT formulas become polynomial systems whose real
roots are exactly the satisfying {0,1} assignments; arbitrary polynomial
systems are rewritten in a normal form of linear trinomials and
binomials of degree at most two; and a system collapses to a single
sum-of-squares polynomial with the same real zero set.

The gadgets need sums and products, which the core data model
deliberately does not provide, so they share one internal algebra: a
polynomial is a dict from sparse monomials -- sorted tuples of
(variable index, nonzero exponent) pairs, variables counted from 0 -- to
integer coefficients.
"""

from __future__ import annotations


from .errors import FrozenRecord, PreconditionError, ScaleLimitError
from .sparsepoly import SparsePolynomial, make_polynomial


class Sat3Formula(FrozenRecord):
    """A 3-CNF formula: positive literal i is +i, negated is -i."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise PreconditionError("every clause needs exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise PreconditionError(f"literal {lit} out of range")


class PolySystem(FrozenRecord):
    """A non-empty list of polynomials over shared variables."""

    polynomials: tuple[SparsePolynomial, ...]

    def __post_init__(self):
        if not self.polynomials:
            raise PreconditionError("empty polynomial system")

    @property
    def n(self) -> int:
        return max(p.n for p in self.polynomials)


# -- the sparse monomial algebra -------------------------------------------


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two monomials."""
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted((i, e) for i, e in acc.items() if e))


def _add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
        if out[k] == 0:
            del out[k]
    return out


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = _times(ka, kb)
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _from(f: SparsePolynomial) -> dict:
    return {tuple((i, e) for i, e in enumerate(t.exponents) if e): t.coefficient
            for t in f.terms}


def _poly(d: dict, n: int) -> SparsePolynomial:
    pairs = []
    for mono, c in d.items():
        vec = [0] * n
        for i, e in mono:
            vec[i] = e
        pairs.append((vec, c))
    return make_polynomial(n, pairs)


def _halves(m: tuple) -> tuple[tuple, tuple]:
    """Split a monomial of degree >= 2 into two of positive degree, as
    balanced as possible: the first takes floor(deg/2) from the front."""
    rest = sum(e for _, e in m) // 2
    left, right = [], []
    for i, e in m:
        take = min(e, rest)
        rest -= take
        if take:
            left.append((i, take))
        if e > take:
            right.append((i, e - take))
    return tuple(left), tuple(right)


def _literal(lit: int) -> dict:
    x = {((abs(lit) - 1, 1),): 1}
    return x if lit > 0 else _add({(): 1}, x, scale=-1)


# the output is dense in all its variables; this bounds its exponent
# entries in reduce sat3 (1,000 variables' binomials hold 2 * 10^6), shor
# (one 300-term univariate polynomial gives 1,338,624, 400 terms 2,384,824)
# and sos (400 terms in 50 variables: 4,010,000, 13.6 MB of JSON)
_MAX_ENTRIES = 2 * 10**6


def sat3_to_system(phi: Sat3Formula) -> PolySystem:
    """Encode a 3-CNF formula as a polynomial system.

    Literals map to x_i or 1-x_i, disjunction composes as
    f OR g = f + g - f*g (left associated), and each clause contributes
    f_C - 1 while each variable contributes x_i(1-x_i).  Real roots of
    the system are exactly the satisfying assignments.  Above 2 * 10^6
    dense exponent entries (variables x output terms) it raises
    ScaleLimitError before any polynomial is densified.
    """
    n = phi.num_vars
    polys = []
    for clause in phi.clauses:
        acc = _literal(clause[0])
        for lit in clause[1:]:
            g = _literal(lit)
            acc = _add(_add(acc, g), _mul(acc, g), scale=-1)
        polys.append(_add(acc, {(): 1}, scale=-1))
    entries = n * (sum(map(len, polys)) + 2 * n)  # each variable adds a binomial
    if entries > _MAX_ENTRIES:
        raise ScaleLimitError(
            f"{entries} exponent entries exceed the reduce sat3 guard of {_MAX_ENTRIES}"
        )
    polys += ({((i, 1),): 1, ((i, 2),): -1} for i in range(n))
    return PolySystem(tuple(_poly(d, n) for d in polys))


def shor_normal_form(F: PolySystem) -> PolySystem:
    """Rewrite a system so every polynomial has <= 3 terms and degree <= 2.

    Fresh variables are introduced for monomial values (balanced binary
    splitting, one defining binomial each) and for partial sums of long
    linear polynomials (one linear trinomial each).  Roots of the input
    extend uniquely to roots of the output, and output roots project to
    input roots.  Raises ScaleLimitError when the dense output would hold
    more than 2 * 10^6 exponent entries.
    """
    for p in F.polynomials:
        if p.is_laurent:
            raise PreconditionError("normal form requires polynomial exponents")
    total = F.n
    memo: dict[tuple, tuple] = {}
    equations = []

    def fresh() -> tuple:
        nonlocal total
        total += 1
        return ((total - 1, 1),)

    def rep(m: tuple) -> tuple:
        """A monomial of degree <= 1 equal to m, introducing a variable
        and its defining binomial on the first use of each m of degree
        >= 2 (its halves first)."""
        if sum(e for _, e in m) < 2:
            return m
        if m not in memo:
            left, right = _halves(m)
            prod = _times(rep(left), rep(right))
            memo[m] = fresh()
            equations.append({memo[m]: 1, prod: -1})
        return memo[m]

    rewritten = []
    for p in F.polynomials:
        terms = list(_from(p).items())
        if len(terms) <= 2:
            # a binomial keeps a product of two representatives
            rewritten.append({_times(*map(rep, _halves(m))): c for m, c in terms})
            continue
        lin = [(rep(m), c) for m, c in terms]
        if len(lin) <= 3:
            rewritten.append(dict(lin))
            continue
        # chain the partial sums w_k of a long linear polynomial
        (m1, c1), (m2, c2), *middle, (ml, cl) = lin
        w = fresh()
        rewritten.append({w: 1, m1: -c1, m2: -c2})
        for m, c in middle:
            w2 = fresh()
            rewritten.append({w2: 1, w: -1, m: -c})
            w = w2
        rewritten.append({w: 1, ml: cl})
    output = rewritten + equations
    entries = total * sum(len(d) for d in output)
    if entries > _MAX_ENTRIES:
        raise ScaleLimitError(
            f"{entries} exponent entries exceed the reduce shor guard of {_MAX_ENTRIES}"
        )
    return PolySystem(tuple(_poly(d, total) for d in output))


def sos_aggregate(F: PolySystem) -> SparsePolynomial:
    """Sum of squares of the system: one polynomial, same real zero set.

    The square of m terms has at most m(m + 1)/2, so the dense output has
    at most n * sum m_i(m_i + 1)/2 exponent entries; above 2 * 10^6 that
    bound raises ScaleLimitError before any product is taken.
    """
    bound = F.n * sum(len(p.terms) * (len(p.terms) + 1) // 2 for p in F.polynomials)
    if bound > _MAX_ENTRIES:
        raise ScaleLimitError(
            f"up to {bound} exponent entries exceed the reduce sos guard of {_MAX_ENTRIES}"
        )
    acc: dict = {}
    for p in F.polynomials:
        d = _from(p)
        acc = _add(acc, _mul(d, d))
    return _poly(acc, F.n)
