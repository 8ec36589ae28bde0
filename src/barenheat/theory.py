"""Explicit constants of the paper's estimates, shared by the solver and the harness.

Kept apart from the Monte Carlo harness in ``diagnostics`` so that the
configuration loader and the multiplicative fixed point, which need the
stability constant for the Picard weight condition, do not import it.
"""

import math
from dataclasses import dataclass

from .errors import InvalidConfigError


@dataclass(frozen=True)
class StabilityConstants:
    """Explicit constants of the continuous-dependence estimate.

    ``gronwall_exponent`` is the rate ((lipschitz^2 + 1)/(2 coercivity + 1)
    + 2) that drives the Gronwall factor, and ``stability_constant`` is the
    constant assembled from the three inequality chains of the estimate:
    with E = 1 + g T e^{g T} (g the exponent) and
    F = (lipschitz^2 + 1)/(coercivity + 1/2) + T/2,

        C = (1/(coercivity + 1/2) + 1) (T/2 E F + 1) + E F + 1/2.

    It bounds the ratio tested by ``stability_check`` from above; any slack
    in it only loosens that one-sided test.
    """

    lipschitz: float
    coercivity: float
    horizon: float
    gronwall_exponent: float
    stability_constant: float


def compute_stability_constant(lipschitz, coercivity, horizon):
    """Assemble the continuous-dependence constants from alpha's constants and T."""
    if not (lipschitz > 0 and coercivity > 0 and horizon > 0):
        raise InvalidConfigError(
            "stability constants need positive lipschitz, coercivity, and horizon; "
            f"got {lipschitz}, {coercivity}, {horizon}"
        )
    squares = lipschitz**2 + 1.0
    exponent = squares / (2.0 * coercivity + 1.0) + 2.0
    growth = 1.0 + exponent * horizon * math.exp(exponent * horizon)
    forcing = squares / (coercivity + 0.5) + horizon / 2.0
    constant = (
        (1.0 / (coercivity + 0.5) + 1.0) * (horizon / 2.0 * growth * forcing + 1.0)
        + growth * forcing
        + 0.5
    )
    return StabilityConstants(
        lipschitz=float(lipschitz),
        coercivity=float(coercivity),
        horizon=float(horizon),
        gronwall_exponent=exponent,
        stability_constant=constant,
    )
