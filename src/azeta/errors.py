"""Exception taxonomy shared across the package."""

from __future__ import annotations


class AzetaError(Exception):
    """Base class for all azeta-specific failures."""


class DomainError(AzetaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NotPositiveSpectrumError(DomainError):
    """The matrix has an eigenvalue with nonpositive real part."""


class DegenerateSystemError(AzetaError):
    """A linear system needed internally is numerically singular."""


class DivergenceError(DomainError):
    """A series evaluation was requested where the series diverges."""


class StripError(DomainError):
    """The requested point lies outside the certified continuation strip."""


class BudgetExceededError(AzetaError):
    """A resource cap was hit before the accuracy target was met."""


class InternalInvariantError(AzetaError):
    """A structural invariant failed; indicates a corrupted input object."""
