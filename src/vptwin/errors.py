"""Shared exception types, each with its CLI exit code and stderr prefix.

cli.main prints "<prefix>: <message>" and exits with the class's
exit_code: EXIT_CHECK for a failed certification check and any other
package error, EXIT_USAGE for a bad config or OT input (ConfigError,
TransportError), EXIT_DIVERGED for a numerical failure (NumericalFailure
and its subclasses, SinkhornError).
"""

EXIT_PASS = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class VptwinError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_CHECK
    prefix = "error"


class ConfigError(VptwinError):
    """Invalid or unparseable scenario configuration."""

    exit_code = EXIT_USAGE
    prefix = "config error"


class CheckFailure(VptwinError):
    """A certification check failed."""

    prefix = "check failure"


class TransportError(VptwinError):
    """Optimal-transport solver failure (infeasibility, size guard, ...)."""

    exit_code = EXIT_USAGE


class MassMismatchError(TransportError):
    """Source and target clouds do not carry the same total mass."""


class NumericalFailure(VptwinError):
    """A run that cannot continue: the base of the exit-3 errors."""

    exit_code = EXIT_DIVERGED
    prefix = "numerical failure"


class SinkhornError(TransportError):
    """Entropic solver did not reach the marginal tolerance."""

    exit_code = EXIT_DIVERGED
    prefix = "numerical failure"

    def __init__(self, message, marginal_violation):
        super().__init__(message)
        self.marginal_violation = marginal_violation


class EscapeError(NumericalFailure):
    """Particles left the deposition box."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(
            f"{len(self.indices)} particle(s) outside the grid box: "
            f"indices {self.indices[:10]}{'...' if len(self.indices) > 10 else ''}"
        )


class OutOfDomainError(NumericalFailure):
    """Field evaluation requested outside the field box."""

    def __init__(self, points):
        self.points = points
        super().__init__(f"{len(points)} evaluation point(s) outside the field box")


class SingularityError(NumericalFailure):
    """Unsoftened kernel evaluated exactly on a source point."""


class DivergenceError(NumericalFailure):
    """Non-finite phase-space coordinates during time stepping."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"non-finite coordinates after step {step}")


class TwinError(NumericalFailure):
    """Failure inside one branch of a twin run, labeled A or B."""

    def __init__(self, branch, cause):
        self.branch = branch
        self.cause = cause
        super().__init__(f"twin branch {branch} failed: {cause}")
