"""The pointwise nonlinearity and conformance checks on its declared constants.

The implicit solves assume alpha is Lipschitz with constant ``lipschitz``,
monotone with coercivity constant ``coercivity`` and alpha(0) = 0; the
shifted map x + alpha(x) then has coercivity 1 + coercivity, which is what
bounds the inner fixed-point contraction factor.  Wrong declared constants
silently break those bounds, so ``check_properties`` samples difference
quotients against the declarations; it is advisory at load time and asserted
in the test suite.  Its report keeps the measured quotients and the declared
constants, and derives every verdict from them on read.  A ``Nonlinearity``
rejects constants that are not finite and positive when it is built, by
``make_nonlinearity``, its own constructor or ``dataclasses.replace``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

_FD_STEP = 1e-6


@dataclass(frozen=True)
class Nonlinearity:
    """A scalar nonlinearity with declared Lipschitz and coercivity constants,
    stored as floats; however it is built, both must be finite and
    positive, or InvalidConfigError is raised."""

    name: str
    alpha: callable
    alpha_prime: callable
    lipschitz: float
    coercivity: float

    def __post_init__(self):
        if not 0 < self.lipschitz < math.inf or not 0 < self.coercivity < math.inf:
            raise InvalidConfigError(
                "Lipschitz and coercivity constants must be finite and positive, got "
                f"{self.lipschitz}, {self.coercivity}")
        object.__setattr__(self, "lipschitz", float(self.lipschitz))
        object.__setattr__(self, "coercivity", float(self.coercivity))

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
    """Wrap a scalar map with declared constants, which ``Nonlinearity``
    checks; the derivative falls back to a central finite difference with
    step 1e-6 * max(1, |x|)."""
    if alpha_prime is None:
        alpha_prime = _fd_derivative(alpha)
    return Nonlinearity(
        name=name,
        alpha=alpha,
        alpha_prime=alpha_prime,
        lipschitz=lipschitz,
        coercivity=coercivity,
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
    """Sampled worst-case difference quotients and alpha(0), and the declared
    ``lipschitz`` and ``coercivity`` they were checked against; the verdicts
    are derived from them on read.

    The Lipschitz quotient passes at most the declared constant and the
    coercivity quotient at least it, both with a 1e-9 relative slack, and
    alpha(0) must be 0.  alpha is ``monotone`` when no quotient is negative:
    a NaN quotient is not, and no sampled pair (an infinite coercivity
    quotient) is.
    """

    worst_lipschitz_quotient: float
    worst_coercivity_quotient: float
    alpha_at_zero: float
    lipschitz: float
    coercivity: float

    @property
    def monotone(self):
        return self.worst_coercivity_quotient >= 0.0

    @property
    def lipschitz_ok(self):
        return self.worst_lipschitz_quotient <= self.lipschitz * (1.0 + 1e-9)

    @property
    def coercivity_ok(self):
        return self.worst_coercivity_quotient >= self.coercivity * (1.0 - 1e-9)

    @property
    def zero_ok(self):
        return self.alpha_at_zero == 0.0

    @property
    def passed(self):
        return self.lipschitz_ok and self.coercivity_ok and self.zero_ok


def check_sample_count(samples):
    """Raise InvalidConfigError unless ``samples``, the draws of a sampled
    audit, is an integer of at least 1."""
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise InvalidConfigError(f"need an integer count of at least one sample, got {samples}")


def check_properties(nl, sample_range, samples, seed):
    """Sample pairs in [-range, range]^2 and report worst difference quotients
    against ``nl``'s declared constants (see ``ConformanceReport``)."""
    if not sample_range > 0:
        raise InvalidConfigError(f"sample range must be positive, got {sample_range}")
    check_sample_count(samples)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-sample_range, sample_range, size=samples)
    ys = rng.uniform(-sample_range, sample_range, size=samples)
    keep = xs != ys
    xs, ys = xs[keep], ys[keep]
    quotients = (nl.alpha(xs) - nl.alpha(ys)) / (xs - ys)
    # With no pair left, the worst quotients are 0 and inf.
    return ConformanceReport(
        worst_lipschitz_quotient=float(np.max(np.abs(quotients), initial=0.0)),
        worst_coercivity_quotient=float(np.min(quotients, initial=np.inf)),
        alpha_at_zero=float(nl.alpha(0.0)), lipschitz=nl.lipschitz, coercivity=nl.coercivity)
