"""Exception types shared across the package.

Every error raised on purpose is an LrlabError with a one-line message, and
a hostile argument to a public function ends in one (_args).  The CLI maps
InvalidArgumentError (UnsupportedCaseError included: a value of the wrong
kind or outside the domain) onto exit 2, and every other LrlabError onto 3.
"""


class LrlabError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(LrlabError, ValueError):
    """An argument is outside the operation's domain."""


class UnsupportedCaseError(InvalidArgumentError):
    """The requested case tag does not support this operation."""


class PreconditionError(LrlabError, ValueError):
    """A computational precondition (cutoffs, rigor requirements) is not met."""


class ResourceLimitError(LrlabError, RuntimeError):
    """The request exceeds the configured desk-scale limits."""


class ConsistencyError(LrlabError, RuntimeError):
    """Two internally computed routes disagree beyond their combined budgets."""
