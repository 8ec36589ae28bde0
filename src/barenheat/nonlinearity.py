"""The pointwise nonlinearity and conformance checks on its declared constants.

The implicit solves assume alpha is Lipschitz with constant ``lipschitz``,
monotone with coercivity constant ``coercivity`` and alpha(0) = 0; the
shifted map x + alpha(x) then has coercivity 1 + coercivity, which is what
bounds the inner fixed-point contraction factor.  Wrong declared constants
silently break those bounds, so ``check_properties`` samples difference
quotients against the declarations; it is advisory at load time and asserted
in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

_FD_STEP = 1e-6


@dataclass(frozen=True)
class Nonlinearity:
    """A scalar nonlinearity with declared Lipschitz and coercivity constants."""

    name: str
    alpha: callable
    alpha_prime: callable
    lipschitz: float
    coercivity: float

    @property
    def tilde_coercivity(self):
        """Coercivity constant of x + alpha(x)."""
        return 1.0 + self.coercivity

    def alpha_tilde(self, x):
        """Evaluate x + alpha(x) elementwise."""
        return x + self.alpha(x)

    def alpha_tilde_prime(self, x):
        return 1.0 + self.alpha_prime(x)


def _fd_derivative(alpha):
    def prime(x):
        x = np.asarray(x, dtype=float)
        h = _FD_STEP * np.maximum(1.0, np.abs(x))
        return (alpha(x + h) - alpha(x - h)) / (2.0 * h)

    return prime


def make_nonlinearity(name, alpha, lipschitz, coercivity, alpha_prime=None):
    """Wrap a scalar map with declared constants, both finite and positive;
    derivative falls back to a central finite difference with step
    1e-6 * max(1, |x|)."""
    if not 0 < lipschitz < math.inf or not 0 < coercivity < math.inf:
        raise InvalidConfigError(
            f"Lipschitz and coercivity constants must be finite and positive, got {lipschitz}, "
            f"{coercivity}")
    if alpha_prime is None:
        alpha_prime = _fd_derivative(alpha)
    return Nonlinearity(
        name=name,
        alpha=alpha,
        alpha_prime=alpha_prime,
        lipschitz=float(lipschitz),
        coercivity=float(coercivity),
    )


def linear(slope):
    """alpha(x) = slope * x with exact constants slope, slope."""
    slope = float(slope)
    return make_nonlinearity(
        name=f"linear(c={slope})",
        alpha=lambda x: slope * x,
        alpha_prime=lambda x: np.full_like(np.asarray(x, dtype=float), slope),
        lipschitz=slope,
        coercivity=slope,
    )


def saturating(gain):
    """alpha(x) = x + gain * x / (1 + |x|).

    The derivative is 1 + gain / (1 + |x|)^2, so the exact constants are
    Lipschitz 1 + gain and coercivity 1.
    """
    if not gain >= 0:
        raise InvalidConfigError(f"saturating gain must be nonnegative, got {gain}")
    gain = float(gain)

    def alpha(x):
        x = np.asarray(x, dtype=float)
        return x + gain * x / (1.0 + np.abs(x))

    def alpha_prime(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + gain / (1.0 + np.abs(x)) ** 2

    return make_nonlinearity(
        name=f"saturating(a={gain})",
        alpha=alpha,
        alpha_prime=alpha_prime,
        lipschitz=1.0 + gain,
        coercivity=1.0,
    )


def ramp(inner_slope, outer_slope, knee):
    """Piecewise-linear odd map: slope ``inner_slope`` on [-knee, knee],
    ``outer_slope`` outside.  Kinks exercise the Newton line search."""
    # The constants are the max and min of the slopes, which could hide a
    # NaN slope, so the slopes are checked here.
    if not inner_slope > 0 or not outer_slope > 0:
        raise InvalidConfigError("ramp slopes must be positive")
    if not 0 < knee < math.inf:
        raise InvalidConfigError(f"ramp knee must be finite and positive, got {knee}")
    inner_slope, outer_slope, knee = float(inner_slope), float(outer_slope), float(knee)

    def alpha(x):
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, -knee, knee)
        return inner_slope * clipped + outer_slope * (x - clipped)

    def alpha_prime(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= knee, inner_slope, outer_slope)

    return make_nonlinearity(
        name=f"ramp(s_in={inner_slope}, s_out={outer_slope}, knee={knee})",
        alpha=alpha,
        alpha_prime=alpha_prime,
        lipschitz=max(inner_slope, outer_slope),
        coercivity=min(inner_slope, outer_slope),
    )


_BUILTINS = {
    "linear": (linear, ("c",)),
    "saturating": (saturating, ("a",)),
    "ramp": (ramp, ("inner_slope", "outer_slope", "knee")),
}


def from_name(kind, **params):
    """Instantiate a built-in nonlinearity by name with keyword parameters."""
    if kind not in _BUILTINS:
        raise InvalidConfigError(
            f"unknown nonlinearity {kind!r}; built-ins are {sorted(_BUILTINS)}"
        )
    factory, names = _BUILTINS[kind]
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise InvalidConfigError(
            f"nonlinearity {kind!r} takes parameters {names}; "
            f"missing {missing}, unexpected {extra}"
        )
    return factory(*(params[p] for p in names))


@dataclass(frozen=True)
class ConformanceReport:
    """Sampled worst-case difference quotients against declared constants."""

    worst_lipschitz_quotient: float
    worst_coercivity_quotient: float
    alpha_at_zero: float
    monotone: bool
    lipschitz_ok: bool
    coercivity_ok: bool
    zero_ok: bool

    @property
    def passed(self):
        return self.lipschitz_ok and self.coercivity_ok and self.zero_ok


def check_properties(nl, sample_range, samples, seed):
    """Sample pairs in [-range, range]^2 and report worst difference quotients.

    Passes when the worst Lipschitz quotient stays below the declared
    constant and the worst coercivity quotient stays above it, both with a
    1e-9 relative slack, and alpha(0) = 0.
    """
    if not sample_range > 0:
        raise InvalidConfigError(f"sample range must be positive, got {sample_range}")
    if samples < 1:
        raise InvalidConfigError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-sample_range, sample_range, size=samples)
    ys = rng.uniform(-sample_range, sample_range, size=samples)
    keep = xs != ys
    xs, ys = xs[keep], ys[keep]
    quotients = (nl.alpha(xs) - nl.alpha(ys)) / (xs - ys)
    worst_lip = float(np.max(np.abs(quotients))) if quotients.size else 0.0
    worst_coer = float(np.min(quotients)) if quotients.size else np.inf
    at_zero = float(nl.alpha(0.0))
    return ConformanceReport(
        worst_lipschitz_quotient=worst_lip,
        worst_coercivity_quotient=worst_coer,
        alpha_at_zero=at_zero,
        monotone=bool(quotients.size == 0 or np.min(quotients) >= 0.0),
        lipschitz_ok=worst_lip <= nl.lipschitz * (1.0 + 1e-9),
        coercivity_ok=worst_coer >= nl.coercivity * (1.0 - 1e-9),
        zero_ok=at_zero == 0.0,
    )
