"""Exception types shared across the package."""

from __future__ import annotations


class UcfError(Exception):
    """Base class for all package-specific errors."""


class NoNonemptyMember(UcfError):
    """The family has no nonempty member, so T(F) is undefined and the
    conjectures say nothing about it."""


class PreconditionViolation(UcfError):
    """An input violates a documented precondition."""


class NotInScope(UcfError):
    """The family is outside the domain of the requested statement or
    classification (e.g. T(F) = 1 for the at-least-T form)."""


class WitnessUnavailable(UcfError):
    """No abundance witness of the required size exists for this family."""


class InfeasibleScale(UcfError):
    """The requested computation is outside the supported envelope."""


class ParseError(UcfError):
    """A family file is malformed. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
