"""Exception types shared across the package."""

from contextlib import contextmanager


class BeamforgeError(Exception):
    """Base class for all library errors."""


class InstanceFormatError(BeamforgeError):
    """Raised when an instance document cannot be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class ValidationError(BeamforgeError):
    """Raised when instance data violates a structural invariant."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))


class HorizonError(BeamforgeError):
    """Raised when a decoded schedule does not fit inside the planning horizon."""


class UnknownPatternError(BeamforgeError):
    """Raised when a chromosome references a pattern id outside the pattern set."""


class InfeasibleChromosomeError(BeamforgeError):
    """Raised when a fitness evaluation is requested for an infeasible chromosome."""

    def __init__(self, report):
        super().__init__(f"chromosome is infeasible: {report.summary()}")
        self.report = report


class InfeasibleInstanceError(BeamforgeError):
    """Raised when an instance cannot be solved: a structural cause, or no
    feasible solution found by construction."""


class BudgetExceededError(BeamforgeError):
    """Raised when the exhaustive search exceeds its configured node budget."""


class DimensionMismatchError(BeamforgeError):
    """Raised when an assignment is not dimensioned to the model it is checked
    against, or a pattern set to the instance it is used with."""


@contextmanager
def naming(subject: str):
    """Prefix `subject: ` to a library or value error's message; its type stays."""
    try:
        yield
    except (BeamforgeError, ValueError) as exc:
        exc.args = (f"{subject}: {exc}",)
        raise
