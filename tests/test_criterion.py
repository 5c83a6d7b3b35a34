"""Projection criterion and its analytic derivatives.

The finite-difference oracle here is the ground truth for g' and g'':
central differences of g evaluate the derivative definition directly,
independently of the moment-block assembly under test.
"""

import math
import warnings

import numpy as np
import pytest

import fundfreq.criterion as criterion
import fundfreq.mnr as mnr
import fundfreq.spectrum as spectrum
from fundfreq import (
    DomainError,
    LinearProcessSpec,
    Signal,
    estimate_fundamental,
    g,
    lse_linear,
    synthesize,
)
from fundfreq.criterion import compute_moments, g_derivatives, g_with_derivatives
from fundfreq.signal import _admissible, _phase_angles
from conftest import fd_derivatives

BETA_STAR_1 = 377.5625  # sum j^2 (A_j^2+B_j^2) for benchmark model 1
POWER_SUM_1 = 78.3125   # sum (A_j^2+B_j^2) for benchmark model 1


class TestMoments:
    def test_zero_signal_projections(self):
        sig = Signal(np.zeros(128))
        m_xx, _, _, v_xy, v_dxy, v_d2xy = compute_moments(sig, 1, 0.4)
        assert np.allclose(v_xy, 0) and np.allclose(v_dxy, 0)
        assert np.allclose(v_d2xy, 0)
        assert m_xx[0, 0] > 0  # design moments independent of y

    def test_m_xx_limit(self, m1_clean_2000):
        # (1/n) X'X -> I/2 with O(1/n) remainder
        n = 2000
        m_xx = compute_moments(m1_clean_2000, 1, 0.25)[0]
        assert np.abs(m_xx / n - 0.5 * np.eye(2)).max() < 5.0 / n

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_m_xdx_limit(self, m1_clean_2000, j):
        # (1/n^2) X'DX -> (j/4) I; measured deviation is O(j/n)
        n = 2000
        m_xdx = compute_moments(m1_clean_2000, j, 0.25)[1]
        assert np.abs(m_xdx / n**2 - (j / 4.0) * np.eye(2)).max() < 5.0 * j / n

    @pytest.mark.parametrize("j", [1, 4])
    def test_m_xd2x_limit(self, m1_clean_2000, j):
        # (1/n^3) X'D^2X -> (j^2/6) I
        n = 2000
        m_xd2x = compute_moments(m1_clean_2000, j, 0.25)[2]
        assert np.abs(m_xd2x / n**3 - (j * j / 6.0) * np.eye(2)).max() < 5.0 * j * j / n

    def test_symmetry(self, m1_clean_1000):
        m_xx, m_xdx, m_xd2x = compute_moments(m1_clean_1000, 2, 0.3)[:3]
        assert m_xx[0, 1] == m_xx[1, 0]
        assert m_xdx[0, 1] == m_xdx[1, 0]
        assert m_xd2x[0, 1] == m_xd2x[1, 0]

    def test_domain(self, m1_clean_1000):
        with pytest.raises(DomainError):
            compute_moments(m1_clean_1000, 4, 0.8)  # j*lam > pi


class TestProjection:
    """g; harmonic j's own projection norm R_j is the p = 1 case at j*lam."""

    def test_zero_signal(self):
        assert g(Signal(np.zeros(64)), 1, 0.5) == 0.0

    def test_pure_tone_projection_norm(self):
        # R_1(lam) = (n/2)(A^2+B^2) + O(1) for a tone at lam
        n = 2000
        t = np.arange(1, n + 1)
        sig = Signal(3.0 * np.cos(0.7 * t) + 1.5 * np.sin(0.7 * t))
        target = (n / 2.0) * (9.0 + 2.25)
        assert g(sig, 1, 0.7) == pytest.approx(target, rel=1e-2)

    def test_sign_flip_invariance(self, m1_clean_1000):
        flipped = Signal(-m1_clean_1000.samples)
        assert g(flipped, 1, 2 * 0.25) == pytest.approx(
            g(m1_clean_1000, 1, 2 * 0.25), rel=1e-12
        )
        assert g(flipped, 4, 0.24) == pytest.approx(g(m1_clean_1000, 4, 0.24), rel=1e-12)

    def test_zero_signal_criterion(self):
        assert g(Signal(np.zeros(64)), 4, 0.3) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        sig = Signal(rng.normal(size=256))
        for lam in np.linspace(0.05, 0.7, 9):
            assert g(sig, 4, lam) >= 0.0

    def test_g_sums_harmonic_projections(self, m1_clean_2000):
        # g at the true frequency ~ (n/2) * sum (A_j^2 + B_j^2)
        val = g(m1_clean_2000, 4, 0.25)
        assert val == pytest.approx(1000.0 * POWER_SUM_1, rel=1e-2)

    def test_quadratic_scaling_exact(self, m1_clean_1000):
        base = g(m1_clean_1000, 4, 0.26)
        scaled = g(Signal(7.0 * m1_clean_1000.samples), 4, 0.26)
        assert scaled == pytest.approx(49.0 * base, rel=1e-12)

    def test_degenerate_frequency_guarded(self):
        sig = Signal(np.ones(100))
        with pytest.raises(DomainError):
            g(sig, 1, 1e-9)


class TestDerivatives:
    def test_matches_finite_differences_noisy(self, model1):
        # the spec'd oracle configuration: model-1 signal, n=500, sigma2=.25
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=12)
        h = 1e-6 * max(1.0, 0.24)
        fd1, fd2 = fd_derivatives(lambda lam: g(sig, 4, lam), 0.24, h)
        gp, gpp = g_derivatives(sig, 4, 0.24)
        assert gp == pytest.approx(fd1, rel=1e-4)
        assert gpp == pytest.approx(fd2, rel=1e-3)

    def test_matches_finite_differences_grid(self):
        # 20 lambda points x 5 random signals (acceptance criterion 5 config)
        lams = np.linspace(0.05, math.pi / 4 - 0.02, 20)
        worst_gp, worst_gpp = 0.0, 0.0
        for seed in range(5):
            sig = synthesize(
                _random_model(seed), 400, LinearProcessSpec((1.0, 0.5), 0.25), seed=seed
            )
            for lam in lams:
                h = 1e-6 * max(1.0, abs(lam))
                fd1, fd2 = fd_derivatives(lambda x: g(sig, 4, x), lam, h)
                gp, gpp = g_derivatives(sig, 4, lam)
                worst_gp = max(worst_gp, abs(gp - fd1) / abs(fd1))
                worst_gpp = max(worst_gpp, abs(gpp - fd2) / abs(fd2))
        assert worst_gp < 1e-4
        assert worst_gpp < 1e-3

    def test_near_stationary_at_true_frequency(self, m1_clean_1000):
        # noiseless: the true frequency is the least squares maximizer, so
        # |g'/g''| there is at rounding level
        gp, gpp = g_derivatives(m1_clean_1000, 4, 0.25)
        assert abs(gp / gpp) < 5e-5

    def test_curvature_limit(self, m1_clean_1000):
        # g''(lam)/(2 n^3) -> -beta*/24 (within 5% at n=1000)
        _, gpp = g_derivatives(m1_clean_1000, 4, 0.25)
        target = -BETA_STAR_1 / 24.0
        assert gpp / (2.0 * 1000.0**3) == pytest.approx(target, rel=0.05)

    def test_newton_ratio_scale_invariant(self, model1):
        sig = synthesize(model1, 300, LinearProcessSpec((1.0,), 1.0), seed=5)
        gp, gpp = g_derivatives(sig, 4, 0.251)
        gp_s, gpp_s = g_derivatives(Signal(1e3 * sig.samples), 4, 0.251)
        assert gp_s / gpp_s == pytest.approx(gp / gpp, rel=1e-12)

    def test_domain(self, m1_clean_1000):
        with pytest.raises(DomainError):
            g_derivatives(m1_clean_1000, 4, math.pi / 4)


class TestDenseOracle:
    """The 2p-column criterion against one dense n x 2p solve, at sizes
    from 1023 to 3079."""

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 3 * 1024 + 7])
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_lstsq(self, model1, n, p, noisy):
        noise = LinearProcessSpec((1.0, 0.5), 0.25) if noisy else None
        sig = synthesize(model1, n, noise, seed=n)
        lam = 0.2503  # off the peak, so g' is far from zero

        def dense(x):
            t = np.arange(1, n + 1, dtype=float)
            phase = np.outer(t, np.arange(1, p + 1) * x)
            design = np.empty((n, 2 * p))
            design[:, 0::2] = np.cos(phase)
            design[:, 1::2] = np.sin(phase)
            coef = np.linalg.lstsq(design, sig.samples, rcond=None)[0]
            return float(sig.samples @ (design @ coef)), coef

        g_ref, coef_ref = dense(lam)
        fd1, fd2 = fd_derivatives(lambda x: dense(x)[0], lam, 1e-6 * lam)
        gv, gp, gpp = g_with_derivatives(sig, p, lam)
        assert g(sig, p, lam) == pytest.approx(g_ref, rel=1e-11)
        assert gv == pytest.approx(g_ref, rel=1e-11)
        assert gp == pytest.approx(fd1, rel=1e-4)
        assert gpp == pytest.approx(fd2, rel=1e-3)
        coef = np.ravel(lse_linear(sig, lam, p))
        assert np.abs(coef - coef_ref).max() < 1e-9 * np.abs(coef_ref).max()


class TestMomentOracle:
    """Per-harmonic moment blocks against direct O(n) cos/sin sums."""

    @pytest.mark.parametrize("n", [1000, 1023, 1025, 3 * 1024 + 7])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_direct_sums(self, model1, n, noisy):
        noise = LinearProcessSpec((1.0, 0.5), 0.25) if noisy else None
        sig = synthesize(model1, n, noise, seed=n)
        for j in range(1, 5):
            mom = compute_moments(sig, j, 0.2503)
            ref = _direct_moments(sig.samples, j, 0.2503)
            for (name, want), got in zip(ref.items(), mom, strict=True):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _start_pass(signal, p, lam):
    """The estimate's start pass, on a start of ``lam``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mnr, "fourier_grid_init", lambda *args: lam)
        return estimate_fundamental(signal, p)


def _amplitudes(signal, p, lam):
    """The amplitude solve, in the argument order of the criterion."""
    return lse_linear(signal, lam, p)


_FACTORING = {"g": g, "g_with_derivatives": g_with_derivatives,
              "g_derivatives": g_derivatives, "lse_linear": _amplitudes}


def _outside_domain(n, p):
    """(n, lam) pairs outside the domain of the entries that factor X'X:
    lambda at and just past both edges of (lo, hi), and n below 10p."""
    lo, hi = _admissible(n, p)
    lams = [math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, math.pi / p)]
    mid = (lo + hi) / 2
    return [*((n, lam) for lam in lams), (10 * p - 1, mid), (5, mid)]


class TestDegeneracyGuard:
    def test_inverse_factor_matches_numpy_linalg(self, model1):
        # the gufuncs called directly give np.linalg's results bit for bit,
        # from the solve product and from the X rows of the derivative one
        sig = synthesize(model1, 700, LinearProcessSpec((1.0, 0.5), 0.25), seed=5)
        for p, lam in [(1, 0.4), (4, 0.2503)]:
            q = 2 * p
            for mom in (criterion._moments(sig.samples, p, lam, False),
                        criterion._moments(sig.samples, p, lam, True)[q : 2 * q, q:]):
                want = np.linalg.inv(np.linalg.cholesky(mom[:, :q]))
                linv, z = criterion._whitened(mom)
                assert np.array_equal(linv, want)
                assert np.array_equal(z, want @ mom[:, q])

    @pytest.mark.parametrize("lam", [1e-6, math.pi / 4 - 1e-9])
    @pytest.mark.parametrize("fn", [g, g_with_derivatives, _amplitudes, _start_pass])
    def test_joint_criterion_raises_near_edges(self, model1, fn, lam):
        # harmonic 1 near frequency 0, or harmonic 4 near pi: X'X is singular
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        with pytest.raises(DomainError):
            fn(sig, 4, lam)

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("entry", sorted(_FACTORING))
    def test_one_domain_for_every_factoring_entry(self, entry, p):
        # the admissible interval (lo, hi) of the estimator, at n >= 10p, is
        # the whole domain: the edges themselves and n = 10p - 1 used to
        # compute, and n = 5 at p = 4 met the pivot floor
        n = 200
        y = np.random.default_rng(p).normal(size=n)
        fn = _FACTORING[entry]
        for m, lam in _outside_domain(n, p):
            with pytest.raises(DomainError, match=r"admissible interval|need n >= 10\*p"):
                fn(Signal(y[:m]), p, lam)
        lo, hi = _admissible(n, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (math.nextafter(lo, 1.0), math.nextafter(hi, 0.0)):
                assert np.isfinite(np.ravel(fn(Signal(y), p, lam))).all(), lam


class TestCaches:
    """Arrays kept per n or per p are read-only, and the per-n caches of
    the criterion pass are bounded."""

    def test_cached_arrays_are_read_only(self, model1):
        g_with_derivatives(synthesize(model1, 100), 4, 0.25)
        for cached in (criterion._ramp(100), _phase_angles(100),
                       *criterion._harmonic_operators(3)):
            assert not cached.flags.writeable

    @pytest.mark.parametrize("cached", [criterion._ramp, _phase_angles, spectrum._smooth_length])
    def test_per_n_caches_are_bounded(self, cached):
        # a long run over many n must not grow the process
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, 3 * maxsize + 1):
            cached(n)
        assert cached.cache_info().currsize <= maxsize

    def test_mutating_products_leaves_next_call_unchanged(self, model1):
        y = synthesize(model1, 300, LinearProcessSpec((1.0, 0.5), 0.25), seed=2).samples
        for derivatives in (True, False):
            want = criterion._moments(y, 4, 0.2503, derivatives).copy()
            criterion._moments(y, 4, 0.2503, derivatives)[...] = np.nan
            assert np.array_equal(criterion._moments(y, 4, 0.2503, derivatives), want)


def _direct_moments(y, j, lam):
    """The six blocks of harmonic j from explicit cos/sin columns, D = diag(j t)."""
    t = np.arange(1, y.size + 1, dtype=float)
    c = np.cos((j * lam) * t)
    s = np.sin((j * lam) * t)
    d = j * t
    dc = d * c
    ds = d * s
    cs = c @ s
    dcs = dc @ s
    d2cs = dc @ ds
    return {
        "m_xx": np.array([[c @ c, cs], [cs, s @ s]]),
        "m_xdx": np.array([[dc @ c, dcs], [dcs, ds @ s]]),
        "m_xd2x": np.array([[dc @ dc, d2cs], [d2cs, ds @ ds]]),
        "v_xy": np.array([c @ y, s @ y]),
        "v_dxy": np.array([dc @ y, ds @ y]),
        "v_d2xy": np.array([(d * dc) @ y, (d * ds) @ y]),
    }


def _random_model(seed):
    """Random 4-harmonic model with unit-scale amplitudes."""
    from fundfreq import HarmonicModel

    rng = np.random.default_rng(1000 + seed)
    amps = tuple((float(a), float(b)) for a, b in rng.uniform(0.5, 3.0, size=(4, 2)))
    lam = float(rng.uniform(0.1, 0.6))
    return HarmonicModel(4, lam, amps)
