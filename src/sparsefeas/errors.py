"""Exception hierarchy shared across the package, and the base of its
frozen value types."""

import sys


class SparseFeasError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SparseFeasError):
    """Malformed polynomial text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroPolynomialError(SparseFeasError):
    """All terms cancelled; the zero polynomial is rejected as input."""


class PreconditionError(SparseFeasError):
    """An operation was called outside its stated input domain."""


class NotACircuitError(SparseFeasError):
    """The given point set is not a circuit."""


class NoRealSolutionError(SparseFeasError):
    """A binomial system has no real solution in the requested orthant."""


class ScaleLimitError(SparseFeasError):
    """An input would expand beyond a size guard (an oracle or an output)."""


class PrecisionLimitError(SparseFeasError):
    """Adaptive precision exceeded FEWNO_MAX_BITS without reaching a verdict.

    ``bits`` is the last precision tried; ``gap`` is the width of the last
    overlap of the two log enclosures, as a ``Fraction``.
    """

    def __init__(self, bits: int, gap):
        # a power-of-two bound: the exact gap can have ~bits digits
        size = "0"
        if gap:
            size = f"less than 2^{gap.numerator.bit_length() - gap.denominator.bit_length() + 1}"
        super().__init__(
            f"sign undecided at {bits} bits: the log enclosures still overlap"
            f" by {size}; raise FEWNO_MAX_BITS"
        )
        self.bits = bits
        self.gap = gap


def without_digit_limit(write):
    """write(), with Python's int-to-str digit guard (3.10.7+) lifted and
    then restored: exact witnesses may pass it, and parsing keeps it.  The
    guard is process-wide, so it is lifted for other threads meanwhile."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        return write()
    sys.set_int_max_str_digits(0)
    try:
        return write()
    finally:
        sys.set_int_max_str_digits(limit)


class FrozenRecord:
    """Base of the package's immutable value types, standing in for
    ``dataclasses.dataclass(frozen=True)``, whose import loads ``inspect``
    and took nearly a third of ``import sparsefeas``.

    The fields are the class's annotations, in order, and a class-level
    value is a field's default.  Each subclass gets an ``__init__``
    compiled once, taking the fields by position or keyword, that stores
    them straight into the instance ``__dict__`` and then calls
    ``__post_init__`` if the class has one.  As for a frozen dataclass,
    assigning or deleting an attribute raises AttributeError, an instance
    equals only instances of its own class with equal fields, hashes as
    the tuple of its fields and prints as ``Name(field=value, ...)``, with
    integers of any length written in full (see without_digit_limit); the
    ``__dict__`` also holds what ``functools.cached_property`` stores.
    """

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        params = ", ".join(f"{f}=__cls.{f}" if f in vars(cls) else f for f in names)
        body = "".join(f"    __d[{f!r}] = {f}\n" for f in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"__cls": cls}
        exec(f"def __init__(self, {params}):\n    __d = self.__dict__\n{body}", namespace)
        cls.__init__ = namespace["__init__"]

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = without_digit_limit(
            lambda: ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
