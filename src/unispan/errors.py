"""Exception hierarchy shared by all unispan modules."""


class UnispanError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(UnispanError):
    """Operands or spec layouts disagree on the ambient dimension."""


class NotSelfAdjoint(UnispanError):
    """A self-adjoint matrix was required but ``x - x*`` is too large."""


class NormExceedsOne(UnispanError):
    """A contraction was required but the operator norm exceeds 1."""


class NotTraceZero(UnispanError):
    """A trace-zero matrix was required."""


class NotDivisibleBy4(UnispanError):
    """The quadrant construction needs a dimension divisible by 4."""


class DiagonalNotZero(UnispanError):
    """A zero-diagonal matrix was required."""


class SinglePiece(UnispanError):
    """At least two pieces are required."""


class NotInComplement(UnispanError):
    """The input does not lie in the orthogonal complement of the subalgebra."""


class UnsupportedConfiguration(UnispanError):
    """The subalgebra falls outside the supported construction envelope.

    ``rule`` carries a short machine-readable name of the violated rule.
    """

    def __init__(self, rule: str, detail: str = ""):
        self.rule = rule
        self.detail = detail
        msg = rule if not detail else f"{rule}: {detail}"
        super().__init__(msg)


class ParseError(UnispanError):
    """An input file is malformed."""
