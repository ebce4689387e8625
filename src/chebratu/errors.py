"""Exception hierarchy for the chebratu package.

Solver failures that occur after iterations have started carry the partial
Newton trace on the exception (``exc.trace``) so callers can report how the
iteration behaved before it failed.
"""


class ChebratuError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(ChebratuError, ValueError):
    """An argument violates a documented precondition."""


class SingularMatrixError(ChebratuError):
    """A linear system is exactly or numerically singular."""


class SingularNonlinearityError(ChebratuError):
    """A nonlinearity was evaluated at a pole of its definition."""


class NumericalFailureError(ChebratuError):
    """A dense linear-algebra routine failed to converge."""


class NewtonError(ChebratuError):
    """Base class for Newton-Kantorovich failures; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class SingularJacobianError(NewtonError):
    """The Jacobian was singular at some iterate."""


class NonConvergenceError(NewtonError):
    """The iteration cap was reached without meeting a tolerance."""


class DivergenceError(NewtonError):
    """An iterate or residual became non-finite."""
