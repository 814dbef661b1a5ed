"""Typed errors raised across the library."""


class GapsymError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(GapsymError):
    """A nonempty collection was required."""


class GcdNotOne(GapsymError):
    """Generators do not have greatest common divisor 1."""


class NotAGap(GapsymError):
    """The value is not a gap of the semigroup."""


class OutOfTriangle(GapsymError):
    """Lattice coordinates do not label a gap cell."""


class NotTwoGenerated(GapsymError):
    """Operation needs a semigroup with exactly two minimal generators."""


class PrincipalModule(GapsymError):
    """Operation needs a semimodule with at least two minimal generators."""


class BoundTooSmall(GapsymError):
    """A brute-force scan bound was too small to be conclusive."""


class Ambiguous(GapsymError):
    """A search produced more than one admissible answer."""

    def __init__(self, message, matches):
        super().__init__(message)
        self.matches = list(matches)


class InconsistentInput(GapsymError):
    """Untrusted input data failed an internal consistency check."""


class PartitionViolation(GapsymError):
    """The five-block gap partition failed to cover the gap set exactly."""


class XNotInGaps(GapsymError):
    """The candidate set is not a subset of the semigroup's gaps."""


class NotASemigroup(GapsymError):
    """The values are not the fundamental gaps of any semigroup."""
