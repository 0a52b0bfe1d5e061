"""Exception types shared across the package."""


class PsolvError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(PsolvError, ValueError):
    """Operands act on different point sets."""


class CapExceeded(PsolvError, RuntimeError):
    """An enumeration grew past its configured cap."""


class NotNormal(PsolvError, ValueError):
    """An operation required a normal subgroup and got something else."""


class NotAPGroup(PsolvError, ValueError):
    """An operation required a group of prime-power order."""


class NotPSolvable(PsolvError, ValueError):
    """An operation is only defined for p-solvable groups."""


class PreconditionViolated(PsolvError, ValueError):
    """A statement's stated precondition does not hold for the input."""


class UnsupportedParameters(PsolvError, ValueError):
    """A recipe or operation was given parameters outside its supported range."""


class LengthCapExceeded(PsolvError, RuntimeError):
    """A descending chain failed to terminate within the length cap."""


class KernelNotElementaryAbelian(PsolvError, ValueError):
    """A linear action was requested over a kernel that is not a vector space."""


class GroupParseError(PsolvError, ValueError):
    """Malformed group or report document.

    line/column are set for syntax errors; location describes the offending
    field for semantic errors.
    """

    def __init__(self, message, line=None, column=None, location=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.location = location


class InternalMismatch(PsolvError, RuntimeError):
    """Two independent computations of the same quantity disagreed.

    This is a suite canary: it always indicates a bug in this package,
    never a mathematical finding.
    """
