import math

import numpy as np
import pytest

import barenheat as bh
from barenheat.errors import InvalidConfigError


class TestAlphaTilde:
    def test_identity_alpha(self):
        nl = bh.linear(1.0)
        assert nl.alpha_tilde(3.0) == 6.0

    def test_half_slope(self):
        nl = bh.linear(0.5)
        assert nl.alpha_tilde(2.0) == 3.0

    @pytest.mark.parametrize(
        "nl", [bh.linear(2.0), bh.saturating(0.25), bh.ramp(0.5, 2.0, 1.0)]
    )
    def test_zero_is_fixed(self, nl):
        assert nl.alpha(0.0) == 0.0
        assert nl.alpha_tilde(0.0) == 0.0

    def test_tilde_coercivity(self):
        assert bh.linear(1.0).tilde_coercivity == 2.0
        assert bh.saturating(0.25).tilde_coercivity == 2.0


class TestCheckProperties:
    def test_linear_exact_constants_pass(self):
        report = bh.check_properties(bh.linear(0.7), sample_range=5.0, samples=4000, seed=0)
        assert report.passed
        assert report.worst_lipschitz_quotient == pytest.approx(0.7, rel=1e-12)
        assert report.worst_coercivity_quotient == pytest.approx(0.7, rel=1e-12)

    def test_cubic_with_unit_lipschitz_fails(self):
        # Difference quotients of x^3 reach x^2 + x y + y^2, up to 300 on
        # [-10, 10]; a declared constant of 1 cannot survive sampling.
        cubic = bh.make_nonlinearity(
            "cubic", alpha=lambda x: np.asarray(x, dtype=float) ** 3,
            lipschitz=1.0, coercivity=1.0,
        )
        report = bh.check_properties(cubic, sample_range=10.0, samples=4000, seed=1)
        assert not report.lipschitz_ok
        assert report.worst_lipschitz_quotient > 50.0

    def test_saturating_declared_constants_pass(self):
        report = bh.check_properties(bh.saturating(0.25), sample_range=10.0, samples=4000, seed=2)
        assert report.passed
        assert 1.0 <= report.worst_coercivity_quotient
        assert report.worst_lipschitz_quotient <= 1.25 * (1 + 1e-9)

    def test_monotonicity_sampled(self):
        for nl in (bh.linear(0.3), bh.saturating(1.0), bh.ramp(0.2, 3.0, 0.5)):
            report = bh.check_properties(nl, sample_range=20.0, samples=3000, seed=3)
            assert report.monotone

    def test_shifted_map_inherits_constants(self):
        # x + alpha(x) is Lipschitz with 1 + lipschitz and coercive with
        # 1 + coercivity; the same sampler accepts those declarations.
        base = bh.saturating(0.25)
        shifted = bh.make_nonlinearity(
            "shifted", alpha=base.alpha_tilde,
            lipschitz=1.0 + base.lipschitz, coercivity=1.0 + base.coercivity,
        )
        report = bh.check_properties(shifted, sample_range=10.0, samples=4000, seed=4)
        assert report.passed

    def test_invalid_sampling_arguments(self):
        with pytest.raises(InvalidConfigError):
            bh.check_properties(bh.linear(1.0), sample_range=0.0, samples=10, seed=0)
        with pytest.raises(InvalidConfigError):
            bh.check_properties(bh.linear(1.0), sample_range=1.0, samples=0, seed=0)


class TestDerivatives:
    def test_finite_difference_fallback(self):
        base = bh.saturating(0.4)
        fallback = bh.make_nonlinearity(
            "fd", alpha=base.alpha, lipschitz=1.4, coercivity=1.0
        )
        xs = np.array([-3.0, -0.5, 0.2, 1.0, 7.5])
        assert np.allclose(fallback.alpha_prime(xs), base.alpha_prime(xs), rtol=1e-6, atol=1e-8)

    def test_ramp_derivative_switches_at_knee(self):
        nl = bh.ramp(0.5, 2.0, 1.0)
        assert nl.alpha_prime(0.3) == 0.5
        assert nl.alpha_prime(4.0) == 2.0

    def test_ramp_values(self):
        nl = bh.ramp(0.5, 2.0, 1.0)
        assert nl.alpha(0.5) == 0.25
        assert nl.alpha(2.0) == pytest.approx(0.5 + 2.0 * 1.0)
        assert nl.alpha(-2.0) == pytest.approx(-(0.5 + 2.0))


class TestFactories:
    def test_from_name(self):
        nl = bh.nonlinearity.from_name("linear", c=2.0)
        assert nl.lipschitz == 2.0

    def test_from_name_rejects_unknown(self):
        with pytest.raises(InvalidConfigError):
            bh.nonlinearity.from_name("cubic")

    def test_from_name_rejects_bad_params(self):
        with pytest.raises(InvalidConfigError):
            bh.nonlinearity.from_name("linear", gain=1.0)

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(InvalidConfigError):
            bh.linear(0.0)
        with pytest.raises(InvalidConfigError):
            bh.make_nonlinearity("bad", alpha=lambda x: x, lipschitz=1.0, coercivity=0.0)

    @pytest.mark.parametrize("build", [
        lambda: bh.linear(math.inf),
        lambda: bh.saturating(math.inf),
        lambda: bh.ramp(1.0, math.inf, 1.0),
        lambda: bh.ramp(1.0, 2.0, math.inf),
        lambda: bh.make_nonlinearity("x", lambda x: x, math.inf, 1.0),
        lambda: bh.make_nonlinearity("x", lambda x: x, 1.0, math.inf),
    ], ids=["linear", "saturating", "ramp-slope", "ramp-knee", "lipschitz", "coercivity"])
    def test_non_finite_constants_rejected(self, build):
        with pytest.raises(InvalidConfigError, match="finite and positive"):
            build()
