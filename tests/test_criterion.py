"""Projection criterion and its analytic derivatives.

The finite-difference oracle here is the ground truth for g' and g'':
central differences of g evaluate the derivative definition directly,
independently of the moment-block assembly under test.
"""

import math
import warnings
import weakref

import numpy as np
import pytest

import fundfreq.criterion as criterion
import fundfreq.spectrum as spectrum
from fundfreq import (
    DegenerateFrequencyError,
    DomainError,
    LinearProcessSpec,
    Signal,
    estimate_fundamental,
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
        g_full, derivatives = g_and_prefix_derivatives(sig, p, lam, n1)
        assert derivatives == g_derivatives(Signal(sig.samples[:n1]), p, lam)
        assert g_full == pytest.approx(g(sig, p, lam), rel=1e-13)

    @pytest.mark.parametrize("n1", [0, 500, -1])
    def test_split_must_leave_both_parts_nonempty(self, model1, n1):
        with pytest.raises(DomainError):
            g_and_prefix_derivatives(synthesize(model1, 500), 4, 0.25, n1)

    def test_singular_prefix_gives_no_derivatives(self, model1):
        # harmonic 4 near pi: 25 samples leave X'X below its pivot floor,
        # 3000 samples do not
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        lam = math.pi / 4 - 1e-7
        with pytest.raises(DegenerateFrequencyError, match="pivot floor"):
            g_derivatives(Signal(sig.samples[:25]), 4, lam)
        g_full, derivatives = g_and_prefix_derivatives(sig, 4, lam, 25)
        assert g_full == pytest.approx(g(sig, 4, lam), rel=1e-13)
        assert derivatives is None

    @pytest.mark.parametrize("p, n, n1", [(1, 100, 51), (4, 500, 205), (4, 4000, 1223)])
    def test_repeated_start_gives_what_a_fresh_one_gives(self, model1, p, n, n1):
        # replications of one cell share their start: the first takes a
        # fresh pass, the second a fresh pass that keeps its rows and
        # factors, the third reads them; each gives what a fresh pass
        # gives, bit for bit
        noise = LinearProcessSpec((1.0, 0.5), 0.25)
        sigs = [synthesize(model1, n, noise, seed=seed) for seed in (1, 2, 3)]
        fresh = []
        for sig in sigs:
            criterion._last_start = (None, None)
            fresh.append(g_and_prefix_derivatives(sig, p, 0.2503, n1))
            assert criterion._last_start[1] is None
        criterion._last_start = (None, None)
        kept = []
        for sig, want in zip(sigs, fresh, strict=True):
            assert g_and_prefix_derivatives(sig, p, 0.2503, n1) == want
            kept.append(criterion._last_start[1])
        assert kept[0] is None and kept[1] is not None and kept[2] is kept[1]

    def test_repeated_start_builds_no_phases_and_factors_nothing(self, model1, monkeypatch):
        # from the third replication of a cell on, the start pass reads the
        # design rows and both factors of X'X that the second one kept
        noise = LinearProcessSpec((1.0, 0.5), 0.25)
        for seed in (1, 2):
            g_and_prefix_derivatives(synthesize(model1, 500, noise, seed=seed), 4, 0.2503, 205)
        kept = criterion._last_start[1]
        calls = []
        for name in ("_phases", "_whitened", "_moments"):
            inner = getattr(criterion, name)
            monkeypatch.setattr(criterion, name,
                                lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
        for seed in (3, 4):
            g_and_prefix_derivatives(synthesize(model1, 500, noise, seed=seed), 4, 0.2503, 205)
        assert calls == []
        assert kept is not None and criterion._last_start[1] is kept

    def test_singular_full_sample_raises_on_a_repeated_start(self, model1):
        # a singular X'X is never kept: the fresh pass and every later
        # call at that start raise
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        g_and_prefix_derivatives(sig, 4, 0.2503, 955)
        for _ in range(3):
            with pytest.raises(DegenerateFrequencyError):
                g_and_prefix_derivatives(sig, 4, math.pi / 4 - 1e-9, 955)
            assert criterion._last_start[1] is None

    def test_singular_prefix_gives_no_derivatives_on_a_repeated_start(self, model1):
        # the fresh pass, the one that keeps its rows and factors and the
        # ones that read them all give g and no derivatives
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        lam = math.pi / 4 - 1e-7
        kept = []
        for _ in range(4):
            g_full, derivatives = g_and_prefix_derivatives(sig, 4, lam, 25)
            assert g_full == pytest.approx(g(sig, 4, lam), rel=1e-13)
            assert derivatives is None
            kept.append(criterion._last_start[1])
        assert kept[0] is None and kept[1][2] is None
        assert kept[2] is kept[1] and kept[3] is kept[1]

    def test_interleaved_starts_keep_at_most_one_design(self, model1):
        # starts A, A, A, B, A, A, A: the second A of each run keeps its
        # rows and factors and the third reads them; the single B keeps
        # nothing and lets the first run's arrays go
        noise = LinearProcessSpec((1.0, 0.5), 0.25)
        starts = [0.2503, 0.2503, 0.2503, 0.2611, 0.2503, 0.2503, 0.2503]
        sigs = [synthesize(model1, 500, noise, seed=seed) for seed in range(len(starts))]
        fresh = []
        for sig, lam in zip(sigs, starts, strict=True):
            criterion._last_start = (None, None)
            fresh.append(g_and_prefix_derivatives(sig, 4, lam, 205))
        criterion._last_start = (None, None)
        held = []  # weak references to every kept row array
        kept = []
        for sig, lam, want in zip(sigs, starts, fresh, strict=True):
            assert g_and_prefix_derivatives(sig, 4, lam, 205) == want
            memo = criterion._last_start[1]
            if memo is not None and not (held and held[-1]() is memo[0]):
                held.append(weakref.ref(memo[0]))
            kept.append(None if memo is None else len(held))
            del memo
            assert sum(ref() is not None for ref in held) <= 1
        assert kept == [None, 1, 1, None, None, 2, 2]
        assert held[0]() is None
        # a single estimate on a new start keeps nothing either
        estimate_fundamental(synthesize(model1, 300, noise, seed=9), 4)
        assert criterion._last_start[1] is None
        assert all(ref() is None for ref in held)


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
            _, head, tail = criterion._moments(sig.samples, p, lam, 300)
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
        sig = synthesize(model1, 100)
        for _ in range(2):
            g_and_prefix_derivatives(sig, 4, 0.25, 51)
        for cached in (criterion._ramp(100), _phase_angles(100),
                       *criterion._harmonic_operators(3), *criterion._last_start[1]):
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
        # the rows' T-weighted part past n1 is left unset, so only the
        # products are compared
        y = synthesize(model1, 300, LinearProcessSpec((1.0, 0.5), 0.25), seed=2).samples
        want = [m.copy() for m in criterion._moments(y, 4, 0.2503, 100)[1:]]
        for m in criterion._moments(y, 4, 0.2503, 100):
            m[...] = np.nan
        got = criterion._moments(y, 4, 0.2503, 100)[1:]
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_start_design_is_bounded(self, model1):
        # a long run over many starts, each met three times in a row, keeps
        # the rows of the last start only
        held = []
        for n in range(100, 106):
            sig = synthesize(model1, n)
            for _ in range(3):
                g_and_prefix_derivatives(sig, 4, 0.25, 51)
            held.append(weakref.ref(criterion._last_start[1][0]))
        assert [ref() is not None for ref in held] == [False] * 5 + [True]

    def test_start_design_cannot_be_poisoned(self, model1):
        # writing the kept rows or factors fails, also through a view's
        # base, and a writable copy of them is the caller's own
        sig = synthesize(model1, 300, LinearProcessSpec((1.0, 0.5), 0.25), seed=2)
        want = g_and_prefix_derivatives(sig, 4, 0.2503, 100)
        assert g_and_prefix_derivatives(sig, 4, 0.2503, 100) == want
        kept = criterion._last_start[1]
        for cached in kept:
            for array in (cached, cached.base):
                if array is not None:
                    with pytest.raises(ValueError):
                        array[...] = np.nan
            mine = cached.copy()
            mine[...] = np.nan
        assert g_and_prefix_derivatives(sig, 4, 0.2503, 100) == want
        assert criterion._last_start[1] is kept


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
