"""Exception types shared across the package."""


class DiscreteFdrError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateDataError(DiscreteFdrError):
    """No conditional test exists for the given counts (e.g. a total of zero)."""


class InvalidTableError(DiscreteFdrError):
    """The observed count is impossible under the given margins."""


class InvalidComparisonError(DiscreteFdrError):
    """Conditioning statistics of different kinds cannot be compared."""


class GroupingDidNotConvergeError(DiscreteFdrError):
    """Radius adaptation exceeded its restart budget.

    Carries the radius/branch trace of every restart so the failure can be
    inspected.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class EmptyStudyError(DiscreteFdrError):
    """An operation that needs at least one hypothesis received none."""


class InvalidConfigError(DiscreteFdrError, ValueError):
    """Configuration or constructor values violate their documented constraints.

    Also a ``ValueError``, the built-in type for an invalid argument value.
    """


class InvalidEstimateError(DiscreteFdrError):
    """A proportion estimate lies outside [0, 1]."""


class NotApplicableError(DiscreteFdrError):
    """The requested comparison is undefined for these inputs."""


class SchemaError(DiscreteFdrError):
    """An input file is missing required columns or is otherwise unusable."""


class ParseError(DiscreteFdrError):
    """A data row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
