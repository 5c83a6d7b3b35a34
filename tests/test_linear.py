"""Amplitude recovery, residuals, autocorrelation."""

import math
import warnings

import numpy as np
import pytest

from fundfreq import (
    DomainError,
    LinearProcessSpec,
    Signal,
    lse_linear,
    residuals,
    sample_acf,
    synthesize,
)


def amplitude_matrix(pairs):
    return np.array([[a, b] for a, b in pairs])


def per_harmonic(sig, lam, p):
    """Each harmonic's own 2x2 solve: the p = 1 amplitudes at j*lam."""
    return [lse_linear(sig, j * lam, 1)[0] for j in range(1, p + 1)]


class TestLse:
    def test_zero_signal(self):
        assert lse_linear(Signal(np.zeros(100)), 0.3, 2) == [(0.0, 0.0), (0.0, 0.0)]

    def test_pure_tone_exact(self):
        # single harmonic: the 2x2 solve is the full normal-equation solve,
        # so a clean tone is recovered to rounding accuracy
        t = np.arange(1, 1001)
        sig = Signal(2.0 * np.cos(0.3 * t))
        (a, b), = lse_linear(sig, 0.3, 1)
        assert a == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_model1_per_harmonic_leakage(self, model1, m1_clean_1000):
        # the per-harmonic solve ignores the O(1) cross-harmonic design
        # moments, leaving an O(1/n) leakage error (~5e-2 at n=1000)
        got = amplitude_matrix(per_harmonic(m1_clean_1000, 0.25, 4))
        truth = amplitude_matrix(model1.amplitudes)
        err = np.abs(got - truth).max()
        assert 1e-3 < err < 0.1

    def test_noiseless_model1_joint_exact(self, model1, m1_clean_1000):
        # the 2p-column joint solve removes the leakage entirely
        got = amplitude_matrix(lse_linear(m1_clean_1000, 0.25, 4))
        truth = amplitude_matrix(model1.amplitudes)
        assert np.abs(got - truth).max() < 1e-9

    def test_linearity(self, model1):
        sig = synthesize(model1, 400, LinearProcessSpec((1.0, 0.5), 0.25), seed=17)
        base = amplitude_matrix(lse_linear(sig, 0.2503, 4))
        scaled = amplitude_matrix(lse_linear(Signal(5.0 * sig.samples), 0.2503, 4))
        assert np.allclose(scaled, 5.0 * base, rtol=1e-10)

    def test_domain(self, m1_clean_1000):
        with pytest.raises(DomainError):
            lse_linear(m1_clean_1000, 0.8, 4)

    def test_amplitudes_near_the_float_limit(self, model1):
        # the solve reads X'X and X'Y alone: T*y, which overflows at this
        # scale (t up to 200), must not be formed
        self._check_scaled_amplitudes(model1, 1e306)

    @pytest.mark.parametrize("top", [1e307, 1.7e308])
    def test_amplitudes_at_the_top_of_the_float_range(self, model1, top):
        # the solve runs on y 2^-e: unscaled, X'Y overflowed from
        # max|y| = 1e307 on
        self._check_scaled_amplitudes(model1, top)

    @staticmethod
    def _check_scaled_amplitudes(model1, top):
        """MODEL1 at n = 200 scaled to max|y| = top: amplitudes within 1e-9
        relative, with no warning."""
        clean = synthesize(model1, 200)
        scale = top / np.abs(clean.samples).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = amplitude_matrix(lse_linear(Signal(scale * clean.samples), 0.25, 4))
        truth = amplitude_matrix(model1.amplitudes)
        assert np.allclose(got / scale, truth, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("factor", [1e150, 1e160, 1e-170])
    def test_out_of_range_fit_equals_the_scaled_fit(self, m1_clean_512, factor):
        # the fit runs on y 2^-e and scales its amplitudes back by 2^e exactly
        sig = Signal(factor * m1_clean_512.samples)
        e = sig._exponent
        unit = lse_linear(Signal(np.ldexp(sig.samples, -e)), 0.25, 4)
        assert e != 0
        assert lse_linear(sig, 0.25, 4) == [(math.ldexp(a, e), math.ldexp(b, e)) for a, b in unit]


class TestResiduals:
    def test_exact_fit_leaves_nothing(self, model1, m1_clean_1000):
        res = residuals(m1_clean_1000, 0.25, list(model1.amplitudes))
        assert np.abs(res).max() < 1e-9

    def test_zero_amplitudes_return_signal(self, m1_clean_1000):
        res = residuals(m1_clean_1000, 0.25, [(0.0, 0.0)] * 4)
        assert np.array_equal(res, m1_clean_1000.samples)

    def test_noise_variance_recovered(self, model1):
        # MA(1) with sigma2 = 1 has process variance 1.25
        sig = synthesize(model1, 2000, LinearProcessSpec((1.0, 0.5), 1.0), seed=77)
        amps = lse_linear(sig, 0.25, 4)
        res = residuals(sig, 0.25, amps)
        assert res.var() == pytest.approx(1.25, rel=0.15)

    def test_joint_fit_residuals_orthogonal(self, m1_clean_1000):
        # residuals of the joint fit are orthogonal to every design column
        sig = m1_clean_1000
        amps = lse_linear(sig, 0.25, 4)
        res = residuals(sig, 0.25, amps)
        t = np.arange(1, sig.n + 1)
        for j in range(1, 5):
            assert abs(res @ np.cos(j * 0.25 * t)) < 1e-6 * sig.n
            assert abs(res @ np.sin(j * 0.25 * t)) < 1e-6 * sig.n

    def test_per_harmonic_normal_equations_hold(self, model1):
        # subtracting harmonic j's own fit leaves a residual orthogonal to
        # harmonic j's two columns (the defining normal equations)
        sig = synthesize(model1, 800, LinearProcessSpec((1.0, 0.5), 0.25), seed=55)
        t = np.arange(1, sig.n + 1)
        amps = per_harmonic(sig, 0.2501, 4)
        for j, (a, b) in enumerate(amps, start=1):
            c = np.cos(j * 0.2501 * t)
            s = np.sin(j * 0.2501 * t)
            own_residual = sig.samples - (a * c + b * s)
            assert abs(own_residual @ c) < 1e-6 * sig.n
            assert abs(own_residual @ s) < 1e-6 * sig.n


class TestSampleAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(5)
        acf = sample_acf(rng.normal(size=500), 10)
        assert acf[0] == 1.0

    def test_iid_lag1_small(self):
        rng = np.random.default_rng(6)
        acf = sample_acf(rng.normal(size=5000), 5)
        assert abs(acf[1]) < 4.0 / math.sqrt(5000)

    def test_ma1_lag1_value(self):
        from fundfreq import generate_linear_process

        e = generate_linear_process(LinearProcessSpec((1.0, 0.5), 1.0), 5000, seed=8)
        acf = sample_acf(e, 3)
        assert acf[1] == pytest.approx(0.4, abs=0.05)  # 0.5/1.25

    def test_constant_series_rejected(self):
        with pytest.raises(DomainError):
            sample_acf(np.ones(100), 5)

    def test_max_lag_bounds(self):
        with pytest.raises(DomainError):
            sample_acf(np.arange(10.0), 10)

    @pytest.mark.parametrize("k", [700, -700])
    def test_scale_free(self, model1, k):
        # the ACF is taken on the 2^-e view, so y 2^k gives the ACF of y;
        # its sums of squares would leave the float range at 2^700
        y = synthesize(model1, 300, LinearProcessSpec((1.0, 0.5), 0.25), seed=4).samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_acf(np.ldexp(y, k), 5).tobytes() == sample_acf(y, 5).tobytes()
            assert np.all(np.isfinite(sample_acf(y * 1e200, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            sample_acf([1.0, bad, 2.0, 3.0], 2)
