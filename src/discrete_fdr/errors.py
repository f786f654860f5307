"""Exception types shared across the package, and the checks that raise them."""

from numbers import Real

import numpy as np


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


# the elementwise test, which NaN fails, of each rule a number must satisfy
RULES = {
    "be in [0, 1]": lambda x: (x >= 0.0) & (x <= 1.0),
    "be in (0, 1)": lambda x: (x > 0.0) & (x < 1.0),
    "be in (1, 1e5]": lambda x: (x > 1.0) & (x <= 1e5),
    "lie in (0, 1]": lambda x: (x > 0.0) & (x <= 1.0),
    "be nonnegative": lambda x: x >= 0.0,
    "be positive": lambda x: x > 0.0,
    "be finite": np.isfinite,
    "not be NaN": lambda x: ~np.isnan(x),
    "be finite and nonnegative": lambda x: (x >= 0.0) & (x < np.inf),
    "be nonnegative integers": lambda x: (x >= 0.0) & (x <= 2.0**63) & (np.floor(x) == x),
    "be positive integers": lambda x: (x >= 1.0) & (x <= 2.0**63) & (np.floor(x) == x),
    # each point above its predecessor, the first above 0, and none above 1
    "lie in (0, 1], strictly increasing":
        lambda x: (x > np.concatenate(([0.0], x[:-1]))) & (x <= 1.0),
}


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an int too long to print."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def check_array(name: str, value, must: str | None = None, ndim: int | None = 1,
                error: type = InvalidConfigError) -> np.ndarray:
    """``value`` as a float array of ``ndim`` dimensions (of any number if it
    is None) whose every element satisfies the rule ``must``; ``error`` names
    the first that does not, by its index unless the array is a scalar."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        form = "an array" if ndim is None else f"a {ndim}-d array"
        raise error(f"{name} must form {form} of numbers: {exc}") from None
    if ndim is not None and array.ndim != ndim:
        raise error(f"{name} must form a {ndim}-d array, got {array.ndim} dimensions")
    if must is not None:
        ok = RULES[must](array)
        if not ok.all():
            i = int(np.argmin(ok))  # the first failing element, flat
            at = i if array.ndim == 1 else tuple(map(int, np.unravel_index(i, array.shape)))
            where = f" at index {at}" if array.ndim else ""
            raise error(f"{name} must {must}; got {array.flat[i]!r}{where}")
    return array


def check_sequence(name: str, value) -> list:
    """The items of ``value`` as a list; ``InvalidConfigError`` if it is not
    iterable, such as None in place of a sequence."""
    try:
        return list(value)
    except TypeError:
        raise InvalidConfigError(
            f"{name} must be a sequence, got {type(value).__name__}") from None


def check_scalar(name: str, value, must: str, error: type = InvalidConfigError):
    """Raise ``error`` unless ``value`` is a real number satisfying ``must``."""
    if not (isinstance(value, Real) and RULES[must](value)):
        raise error(f"{name} must {must}, got {_shown(value)}")


def check_count(name: str, value, minimum: int | None = 0):
    """``value``, if it is an ``int`` or numpy integer >= ``minimum`` (if set)."""
    if not isinstance(value, (int, np.integer)) or (
            minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise InvalidConfigError(f"{name} must be an integer{at_least}, got {_shown(value)}")
    return value
