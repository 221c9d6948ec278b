"""Shared exception types.

The CLI maps these onto exit codes: config problems and other transport
errors (MassMismatchError, size guards) -> 2, failed certification checks
-> 1, numerical failures (DivergenceError, EscapeError, OutOfDomainError,
SingularityError, SinkhornError) -> 3.
"""


class VptwinError(Exception):
    """Base class for all package errors."""


class ConfigError(VptwinError):
    """Invalid or unparseable scenario configuration."""


class CheckFailure(VptwinError):
    """A certification check failed."""


class TransportError(VptwinError):
    """Optimal-transport solver failure (infeasibility, size guard, ...)."""


class MassMismatchError(TransportError):
    """Source and target clouds do not carry the same total mass."""


class SinkhornError(TransportError):
    """Entropic solver did not reach the marginal tolerance."""

    def __init__(self, message, marginal_violation):
        super().__init__(message)
        self.marginal_violation = marginal_violation


class EscapeError(VptwinError):
    """Particles left the deposition box."""

    def __init__(self, indices, label=""):
        self.indices = list(indices)
        self.label = label
        where = f" [{label}]" if label else ""
        super().__init__(
            f"{len(self.indices)} particle(s) outside the grid box{where}: "
            f"indices {self.indices[:10]}{'...' if len(self.indices) > 10 else ''}"
        )


class OutOfDomainError(VptwinError):
    """Field evaluation requested outside the field box."""

    def __init__(self, points):
        self.points = points
        super().__init__(f"{len(points)} evaluation point(s) outside the field box")


class SingularityError(VptwinError):
    """Unsoftened kernel evaluated exactly on a source point."""


class DivergenceError(VptwinError):
    """Non-finite phase-space coordinates during time stepping."""

    def __init__(self, step, label=""):
        self.step = step
        self.label = label
        where = f" [{label}]" if label else ""
        super().__init__(f"non-finite coordinates after step {step}{where}")
