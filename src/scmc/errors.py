"""Exception hierarchy shared across the package."""

import functools


class ScmcError(Exception):
    """Base class for everything this package raises on purpose."""


class UnboundRefError(ScmcError):
    def __init__(self, var):
        self.var = var
        super().__init__(f"unbound reference: {var}")


class DomainError(ScmcError):
    pass


class DivisionByZeroError(ScmcError):
    pass


class UnknownVariableError(ScmcError):
    def __init__(self, var):
        self.var = var
        super().__init__(f"unknown variable: {var}")


class EnumerationTooLargeError(ScmcError):
    pass


class InterventionNotAllowedError(ScmcError):
    pass


class EmptySpaceError(ScmcError):
    """The explicit intervention space lists no set, not even the empty one
    (`validate`'s `EmptySpace` finding), so no check has a case."""

    def __init__(self, message="the explicit intervention space lists no set, not even the empty one"):
        super().__init__(message)


class InvalidPartitionError(ScmcError):
    pass


class InvalidTargetError(ScmcError):
    pass


class NonDeterministicModelError(ScmcError):
    pass


class PassBudgetExceededError(ScmcError):
    pass


class ModelTooDeepError(ScmcError):
    """An expression nests deeper than the recursive tree walkers can follow."""

    def __init__(self, message="expression nesting exceeds the recursion limit"):
        super().__init__(message)


def recursion_as_too_deep(fn):
    """Decorate an entry point so a `RecursionError` escaping it, raised by
    the recursive tree walkers on a deeply nested model, surfaces as
    `ModelTooDeepError` instead."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError as exc:
            raise ModelTooDeepError() from exc

    return wrapper


class InvalidParameterError(ScmcError):
    pass


class EquivalenceFailedError(ScmcError):
    """Raised when a claimed closed form does not match its base model.

    Carries the counterexample report so callers can print the witness.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"equivalence check failed: {report.counterexample}")


class ParseError(ScmcError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
