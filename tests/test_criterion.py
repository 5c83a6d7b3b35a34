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
from fundfreq import (
    DegenerateFrequencyError,
    DomainError,
    LinearProcessSpec,
    Signal,
    g,
    lse_linear,
    synthesize,
)
from fundfreq.criterion import (
    compute_moments,
    g_and_prefix_derivatives,
    g_derivatives,
    g_with_derivatives,
)
from fundfreq.signal import _phase_angles
from conftest import fd_derivatives

BETA_STAR_1 = 377.5625  # sum j^2 (A_j^2+B_j^2) for benchmark model 1
POWER_SUM_1 = 78.3125   # sum (A_j^2+B_j^2) for benchmark model 1


class TestMoments:
    def test_zero_signal_projections(self):
        sig = Signal(np.zeros(128))
        mom = compute_moments(sig, 1, 0.4)
        assert np.allclose(mom.v_xy, 0) and np.allclose(mom.v_dxy, 0)
        assert np.allclose(mom.v_d2xy, 0)
        assert mom.m_xx[0, 0] > 0  # design moments independent of y

    def test_m_xx_limit(self, m1_clean_2000):
        # (1/n) X'X -> I/2 with O(1/n) remainder
        n = 2000
        mom = compute_moments(m1_clean_2000, 1, 0.25)
        assert np.abs(mom.m_xx / n - 0.5 * np.eye(2)).max() < 5.0 / n

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_m_xdx_limit(self, m1_clean_2000, j):
        # (1/n^2) X'DX -> (j/4) I; measured deviation is O(j/n)
        n = 2000
        mom = compute_moments(m1_clean_2000, j, 0.25)
        assert np.abs(mom.m_xdx / n**2 - (j / 4.0) * np.eye(2)).max() < 5.0 * j / n

    @pytest.mark.parametrize("j", [1, 4])
    def test_m_xd2x_limit(self, m1_clean_2000, j):
        # (1/n^3) X'D^2X -> (j^2/6) I
        n = 2000
        mom = compute_moments(m1_clean_2000, j, 0.25)
        assert np.abs(mom.m_xd2x / n**3 - (j * j / 6.0) * np.eye(2)).max() < 5.0 * j * j / n

    def test_symmetry(self, m1_clean_1000):
        mom = compute_moments(m1_clean_1000, 2, 0.3)
        assert mom.m_xx[0, 1] == mom.m_xx[1, 0]
        assert mom.m_xdx[0, 1] == mom.m_xdx[1, 0]
        assert mom.m_xd2x[0, 1] == mom.m_xd2x[1, 0]

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
        with pytest.raises(DegenerateFrequencyError):
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


class TestPrefixPass:
    """g over all n and (g', g'') over the first n1 samples from one pass."""

    @pytest.mark.parametrize("n, n1", [(100, 51), (500, 205), (3251, 1024),
                                       (3300, 1025), (4000, 1223), (9000, 2450)])
    @pytest.mark.parametrize("p", [1, 4])
    def test_matches_separate_passes(self, model1, n, n1, p):
        sig = synthesize(model1, n, LinearProcessSpec((1.0, 0.5), 0.25), seed=n)
        lam = 0.2503
        g_full, prefix_derivatives = g_and_prefix_derivatives(sig, p, lam, n1)
        assert prefix_derivatives() == g_derivatives(Signal(sig.samples[:n1]), p, lam)
        assert g_full == pytest.approx(g(sig, p, lam), rel=1e-13)

    @pytest.mark.parametrize("n1", [0, 500, -1])
    def test_split_must_leave_both_parts_nonempty(self, model1, n1):
        with pytest.raises(DomainError):
            g_and_prefix_derivatives(synthesize(model1, 500), 4, 0.25, n1)

    def test_singular_prefix_raises_only_when_read(self, model1):
        # harmonic 4 near pi: 25 samples leave X'X below its pivot floor,
        # 3000 samples do not
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        lam = math.pi / 4 - 1e-7
        g_full, prefix_derivatives = g_and_prefix_derivatives(sig, 4, lam, 25)
        assert g_full == pytest.approx(g(sig, 4, lam), rel=1e-13)
        with pytest.raises(DegenerateFrequencyError):
            prefix_derivatives()


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
            for name, want in ref.items():
                got = getattr(mom, name)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _start_pass(signal, p, lam):
    """The shared start pass with its subsample split at n1 = 1000."""
    return g_and_prefix_derivatives(signal, p, lam, 1000)


def _amplitudes(signal, p, lam):
    """The amplitude solve, in the argument order of the criterion."""
    return lse_linear(signal, lam, p)


class TestDegeneracyGuard:
    def test_inverse_factor_matches_numpy_linalg(self, model1):
        # the gufuncs called directly give np.linalg's results bit for bit,
        # from the tail product and from the X rows of the head product
        sig = synthesize(model1, 700, LinearProcessSpec((1.0, 0.5), 0.25), seed=5)
        for p, lam in [(1, 0.4), (4, 0.2503)]:
            q = 2 * p
            head, tail = criterion._moments(sig.samples, p, lam, 300)
            for mom in (tail, head[q : 2 * q, q:]):
                want = np.linalg.inv(np.linalg.cholesky(mom[:, :q]))
                linv, z = criterion._whitened(mom, sig.n, lam)
                assert np.array_equal(linv, want)
                assert np.array_equal(z, want @ mom[:, q])

    @pytest.mark.parametrize("m", [-np.eye(4), np.zeros((4, 4)), np.full((4, 4), np.nan),
                                   np.diag([1.0, 1.0, 1.0, 1e-12])],
                             ids=["negative", "zero", "nan", "below-floor"])
    def test_inverse_factor_rejects_without_warning(self, m):
        # a failed factorization leaves NaN pivots; they, like a small
        # pivot, must fail the floor, and nothing may warn on the way
        mom = np.column_stack([m, np.ones(4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFrequencyError):
                criterion._whitened(mom, 100, 0.25)

    @pytest.mark.parametrize("lam", [1e-6, math.pi / 4 - 1e-9])
    @pytest.mark.parametrize("fn", [g, g_with_derivatives, _amplitudes, _start_pass])
    def test_joint_criterion_raises_near_edges(self, model1, fn, lam):
        # harmonic 1 near frequency 0, or harmonic 4 near pi: X'X is singular
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        with pytest.raises(DegenerateFrequencyError):
            fn(sig, 4, lam)


class TestCaches:
    """Arrays kept per n or per p are read-only, and the per-n caches of
    the criterion pass are bounded."""

    def test_cached_arrays_are_read_only(self, model1):
        solve = criterion._solve(synthesize(model1, 100), 4, 0.25)
        for cached in (criterion._ramp(100), _phase_angles(100), *criterion._harmonic_operators(3),
                       *solve):
            assert not cached.flags.writeable
        assert criterion._solve.cache_info().maxsize == 1

    @pytest.mark.parametrize("cached", [criterion._ramp, _phase_angles])
    def test_per_n_caches_are_bounded(self, cached):
        # a long run over many n must not grow the process
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, 3 * maxsize + 1):
            cached(n)
        assert cached.cache_info().currsize <= maxsize

    def test_mutating_products_leaves_next_call_unchanged(self, model1):
        y = synthesize(model1, 300, LinearProcessSpec((1.0, 0.5), 0.25), seed=2).samples
        want = [m.copy() for m in criterion._moments(y, 4, 0.2503, 100)]
        for m in criterion._moments(y, 4, 0.2503, 100):
            m[...] = np.nan
        got = criterion._moments(y, 4, 0.2503, 100)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


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
