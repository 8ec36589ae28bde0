"""Explicit constants of the paper's estimates, shared by the solver and the harness.

Kept apart from the Monte Carlo harness in ``diagnostics`` so that the
configuration loader and the multiplicative fixed point, which need the
stability constant for the Picard weight condition, do not import it.
The record keeps only the inputs of the estimate and checks them when it is
built, however it is built; its constants are derived from them on read, so
a record cannot hold constants of other inputs or of invalid ones.  Its
inputs must be finite and its stability constant too: a horizon long
enough for the constant, with its Gronwall factor exp(g T), to overflow is
an invalid configuration, not a bound that every ratio passes.
"""

import math
from dataclasses import dataclass

from .errors import InvalidConfigError


@dataclass(frozen=True)
class StabilityConstants:
    """Explicit constants of the continuous-dependence estimate.

    Only alpha's ``lipschitz`` and ``coercivity`` and the ``horizon`` T are
    stored, as floats.  All three must be positive and finite, and the
    stability constant they give must be finite, or InvalidConfigError is
    raised however the record is built; the two constants are derived from
    them on read.
    """

    lipschitz: float
    coercivity: float
    horizon: float

    def __post_init__(self):
        if not all(0 < value < math.inf
                   for value in (self.lipschitz, self.coercivity, self.horizon)):
            raise InvalidConfigError(
                "stability constants need positive, finite lipschitz, coercivity, and horizon; "
                f"got {self.lipschitz}, {self.coercivity}, {self.horizon}")
        for name in ("lipschitz", "coercivity", "horizon"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Float arithmetic overflows to inf, but math.exp and ** raise.
        exponent = constant = math.inf
        try:
            exponent = self.gronwall_exponent
            constant = self.stability_constant
        except OverflowError:
            pass
        if constant == math.inf:
            raise InvalidConfigError(
                f"the stability constant overflows: its Gronwall factor exp(g T) has exponent "
                f"g = {exponent:.6g} and horizon T = {self.horizon:.6g}")

    @property
    def gronwall_exponent(self):
        """The rate (lipschitz^2 + 1)/(2 coercivity + 1) + 2 that drives the
        Gronwall factor."""
        return (self.lipschitz**2 + 1.0) / (2.0 * self.coercivity + 1.0) + 2.0

    @property
    def stability_constant(self):
        """The constant assembled from the three inequality chains of the
        estimate: with E = 1 + g T e^{g T} (g the exponent) and
        F = (lipschitz^2 + 1)/(coercivity + 1/2) + T/2,

            C = (1/(coercivity + 1/2) + 1) (T/2 E F + 1) + E F + 1/2.

        It bounds the ratio tested by ``stability_check`` from above; any
        slack in it only loosens that one-sided test.
        """
        coercivity, horizon, exponent = self.coercivity, self.horizon, self.gronwall_exponent
        growth = 1.0 + exponent * horizon * math.exp(exponent * horizon)
        forcing = (self.lipschitz**2 + 1.0) / (coercivity + 0.5) + horizon / 2.0
        return ((1.0 / (coercivity + 0.5) + 1.0) * (horizon / 2.0 * growth * forcing + 1.0)
                + growth * forcing + 0.5)


def compute_stability_constant(lipschitz, coercivity, horizon):
    """The continuous-dependence constants of alpha's constants and T, all
    of which ``StabilityConstants`` checks to be positive and finite."""
    return StabilityConstants(lipschitz, coercivity, horizon)
