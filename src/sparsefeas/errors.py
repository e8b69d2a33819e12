"""Exception hierarchy shared across the package."""


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
