"""Exception hierarchy.

Two families matter for the CLI exit code: problems with the input
(bad syntax, non-convenient support, violated preconditions) and
internal consistency failures (two routes to the same quantity
disagreeing, a series whose mass is not the normalized volume).
"""


class NewtonSpecError(Exception):
    """Base class for all package errors."""


class InputError(NewtonSpecError):
    """The input polynomial or the requested options are unusable."""


class InternalCheckError(NewtonSpecError):
    """A built-in cross check failed; the result would be untrustworthy."""


class PolynomialSyntaxError(InputError):
    """Raised by the parser, carries the byte offset of the bad token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NotConvenientError(InputError):
    """Some coordinate axis carries no pure power of its variable."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        axes = ", ".join(str(m) for m in self.missing)
        super().__init__(f"polynomial is not convenient: no pure power on axis {axes}")


class NotSimplexError(InputError):
    """Box-point enumeration asked for on a non-simplex face."""


class NotSimplicialError(InputError):
    """An operation that needs a simplicial fan met a non-simplex face."""


class HintError(InputError):
    """A user-supplied basis hint does not span the graded quotient."""


class TruncationError(InternalCheckError):
    """The oracle's series or the per-degree dimensions miss the volume as mass."""


class MismatchError(InternalCheckError):
    """Two independent computations of one invariant disagree."""


class DimensionMismatchError(InternalCheckError):
    """A graded-quotient dimension differs from the spectrum coefficient."""


class NegativeDeltaError(InternalCheckError):
    """Ehrhart inversion produced a negative entry; the counts are wrong."""


class ExponentRangeError(InternalCheckError):
    """A spectrum exponent fell outside the admissible range [0, n]."""
