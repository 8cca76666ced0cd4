"""Shared exception taxonomy.

Two failure families matter to callers: precondition violations (bad inputs,
unusable parameter combinations) and resource exhaustion (enumeration or
search budgets).  The CLI maps the former to exit code 2 and the latter to
exit code 3.
"""

from __future__ import annotations

__all__ = [
    "ArtifactError",
    "PreconditionError",
    "ResourceError",
    "InvalidField",
    "DimensionMismatch",
    "GroupMismatch",
    "NotInKernel",
    "DomainError",
    "MissingArtifact",
    "BetaNotAdmissible",
    "UnsupportedField",
    "PreconditionViolated",
    "StateDimensionMismatch",
    "BudgetExceeded",
    "GenerationFailure",
    "SearchExhausted",
    "ConvergenceFailure",
]


class ArtifactError(Exception):
    """Base class for all package errors."""


class PreconditionError(ArtifactError):
    """Input fails a documented precondition.  CLI exit code 2."""


class ResourceError(ArtifactError):
    """A budget or convergence limit was exhausted.  CLI exit code 3."""


class InvalidField(PreconditionError):
    """Field modulus is not a supported prime."""


class DimensionMismatch(PreconditionError):
    """Shapes or lengths do not line up."""


class GroupMismatch(PreconditionError):
    """Two group handles disagree on (prime, level)."""


class NotInKernel(PreconditionError):
    """Matrix is not in the congruence kernel (not = I mod p, or det != 1)."""


class DomainError(PreconditionError):
    """Numeric argument outside the function's domain."""


class MissingArtifact(PreconditionError):
    """A referenced pipeline artifact or manifest entry does not exist."""


class BetaNotAdmissible(PreconditionError):
    """Right-hand side is not a representative of a nontrivial logical class."""


class UnsupportedField(PreconditionError):
    """Operation only defined over GF(2)."""


class PreconditionViolated(PreconditionError):
    """Operator-algebra precondition fails (carries the offending norm)."""

    def __init__(self, message: str, norm: float | None = None):
        super().__init__(message)
        self.norm = norm


class StateDimensionMismatch(PreconditionError):
    """Quantum state does not live on the code's qubit count."""


class BudgetExceeded(ResourceError):
    """Enumeration would exceed the configured budget."""


class GenerationFailure(ResourceError):
    """Candidate generator multisets never generated the group."""


class SearchExhausted(ResourceError):
    """Randomized search used its whole budget without a certified result."""


class ConvergenceFailure(ResourceError):
    """Lanczos (ARPACK `eigsh`) did not converge on the second eigenvalue."""
