"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """A configuration value violates a precondition of the scheme."""


class ContractionConditionError(InvalidConfigError):
    """The time step is too large for the inner fixed-point map to contract.

    The alternating linear-heat / nonlinear solve contracts only when
    dt < 1 + coercivity(alpha).  Violations are configuration errors, not
    runtime failures.
    """


class FieldShapeError(ValueError):
    """A nodal field does not match the operators or grid it is used with."""


class ExpressionError(ValueError):
    """An integrand or initial-data expression is outside the built-in grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)
        self.position = position


class NumericalError(RuntimeError):
    """A linear or nonlinear solve failed to reach its tolerance.

    ``step`` (the step from t_n to t_{n+1} is step n) and ``path_id`` say
    where it happened; ``run_additive`` fills them in, and they are None on
    errors raised by a single solve.  ``row`` is the row of the failing
    field when a solve works on an (M, P) batch of fields.
    """

    def __init__(self, message, residual=None, step=None, path_id=None, row=None):
        self.reason = message
        if step is not None:
            message = f"{message} at step {step} of path {path_id}"
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.path_id = path_id
        self.row = row


class NonConvergenceError(NumericalError):
    """An iteration hit its cap before meeting the requested tolerance."""


class NonFiniteError(NumericalError):
    """A solve met a NaN or infinite value, typically alpha or alpha'
    evaluated outside the range where they are finite."""


class ConfigValidationError(InvalidConfigError):
    """One or more validation failures in a run configuration file."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))
