"""Periodogram, harmonic criterion, and grid initializer."""

import math
import warnings

import numpy as np
import pytest

from fundfreq import (
    DomainError,
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    fourier_grid_init,
    grid_spectrum,
    synthesize,
)
from fundfreq import spectrum
from fundfreq.spectrum import fourier_grid, harmonic_criterion_qn, periodogram
from fundfreq.montecarlo import MODEL1, MODEL2
from fundfreq.signal import _admissible


class TestPeriodogram:
    def test_zero_signal(self):
        sig = Signal(np.zeros(64))
        for lam in (0.1, 1.0, 3.0):
            assert periodogram(sig, lam) == 0.0

    def test_on_grid_cosine_closed_form(self):
        # y(t) = cos(lam0 t) with lam0 on the Fourier grid: the exponential
        # sum collapses by orthogonality and I(lam0) = n/4 exactly.
        n, k0 = 512, 10
        lam0 = 2 * math.pi * k0 / n
        t = np.arange(1, n + 1)
        sig = Signal(np.cos(lam0 * t))
        assert periodogram(sig, lam0) == pytest.approx(n / 4.0, rel=1e-12)

    def test_peaks_at_harmonics(self, m1_clean_512):
        # brute-force scan: peaks near 0.25, 0.5, 0.75, 1.0
        lams = np.linspace(0.02, 1.2, 2400)
        vals = np.array([periodogram(m1_clean_512, lam) for lam in lams])
        for j in range(1, 5):
            window = (lams > j * 0.25 - 0.05) & (lams < j * 0.25 + 0.05)
            peak_lam = lams[window][np.argmax(vals[window])]
            assert abs(peak_lam - j * 0.25) < 0.01

    def test_matches_fft_on_grid(self):
        # against an independent DFT: I(2 pi k / n) == |fft(y)[k]|^2 / n
        rng = np.random.default_rng(8)
        n = 256
        y = rng.normal(size=n)
        sig = Signal(y)
        fft = np.fft.fft(y)
        for k in (1, 7, 50, 127):
            lam = 2 * math.pi * k / n
            direct = abs(fft[k]) ** 2 / n
            assert periodogram(sig, lam) == pytest.approx(direct, rel=1e-9)

    def test_scaling_quadratic(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=100)
        a = periodogram(Signal(y), 0.7)
        b = periodogram(Signal(3.0 * y), 0.7)
        assert b == pytest.approx(9.0 * a, rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(14)
        sig = Signal(rng.normal(size=128))
        for lam in np.linspace(0.05, 0.75, 15):
            assert periodogram(sig, lam) >= 0.0
            assert harmonic_criterion_qn(sig, lam, 4) >= 0.0

    def test_domain(self):
        sig = Signal(np.ones(16))
        with pytest.raises(DomainError):
            periodogram(sig, 0.0)
        with pytest.raises(DomainError):
            periodogram(sig, math.pi)


class TestHarmonicCriterion:
    def test_zero_signal(self):
        assert harmonic_criterion_qn(Signal(np.zeros(32)), 0.3, 4) == 0.0

    def test_p1_consistency_with_periodogram(self):
        rng = np.random.default_rng(2)
        sig = Signal(rng.normal(size=200))
        for lam in (0.3, 1.1, 2.5):
            q = harmonic_criterion_qn(sig, lam, 1)
            assert q == pytest.approx(periodogram(sig, lam) / 200, rel=1e-12)

    def test_argmax_near_fundamental(self, m1_clean_512):
        lams = np.linspace(0.05, math.pi / 4 - 0.01, 3000)
        vals = [harmonic_criterion_qn(m1_clean_512, lam, 4) for lam in lams]
        best = lams[int(np.argmax(vals))]
        assert abs(best - 0.25) < (lams[1] - lams[0]) * 2

    def test_domain(self):
        sig = Signal(np.ones(64))
        with pytest.raises(DomainError):
            harmonic_criterion_qn(sig, math.pi / 4, 4)  # j*lam hits pi at j=4


def _exact_grid_sum(y: np.ndarray, m: int) -> complex:
    """sum_t y(t) e^{2 pi i m t/n}, each phase reduced as the integer m*t mod n."""
    n = y.size
    ang = 2.0 * math.pi * ((m * np.arange(1, n + 1, dtype=np.int64)) % n) / n
    return complex(math.fsum(y * np.cos(ang)), math.fsum(y * np.sin(ang)))


@pytest.mark.parametrize("n", [1000, 4000, 8000, 20000])
def test_point_functions_keep_phase_accuracy(n):
    # against exact-phase sums on Fourier frequencies, relative to the value
    # or 1e-3 if smaller: a phase lam*t rounded at |lam t| was 9.0e-10 off
    # at n = 20000
    y = synthesize(MODEL2, n).samples
    sig = Signal(y)
    worst = 0.0
    for k in np.unique(np.linspace(1, (n - 1) // 8, 40).astype(int)).tolist():
        powers = [abs(_exact_grid_sum(y, j * k)) ** 2 for j in range(1, 5)]
        pairs = [(harmonic_criterion_qn(sig, 2 * math.pi * k / n, 4), sum(powers) / n**2)]
        pairs += [(periodogram(sig, 2 * math.pi * j * k / n), power / n)
                  for j, power in enumerate(powers, start=1)]
        for got, exact in pairs:
            worst = max(worst, abs(got - exact) / max(exact, 1e-3))
    assert worst <= 2e-11


def _start_offset(sig: Signal, p: int) -> tuple[int, float]:
    """(k, delta): the start is 2*pi*(k + delta)/L on the start grid,
    with k its nearest grid index."""
    length = spectrum._smooth_length(spectrum._START_PAD * sig.n)
    x = fourier_grid_init(sig, p) * length / (2 * math.pi)
    return round(x), x - round(x)


class TestFourierGridInit:
    def test_exact_grid_tone(self):
        # the start's nearest grid index is the tone's; the vertex moves
        # it by 0.015 Fourier bin, the bias of the parabola on a tone
        n, k0 = 512, 10
        lam0 = 2 * math.pi * k0 / n
        t = np.arange(1, n + 1)
        sig = Signal(np.cos(lam0 * t))
        assert _start_offset(sig, 1)[0] == 8 * k0
        assert abs(fourier_grid_init(sig, 1) - lam0) < 0.02 * 2 * math.pi / n
        lams, i_vals, q_vals = grid_spectrum(sig, 1)
        assert lams[int(np.argmax(i_vals))] == lam0
        assert lams[int(np.argmax(q_vals))] == lam0

    def test_model1_noisy_within_one_bin(self, model1):
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.01), seed=3)
        lam0 = fourier_grid_init(sig, 4)
        assert abs(lam0 - 0.25) < 2 * math.pi / 500

    def test_dominant_second_harmonic_separates_modes(self):
        # fundamental on the grid with a tiny first and huge second harmonic:
        # the Q_N argmax finds lambda, the plain periodogram's locks onto 2*lambda
        n = 256
        lam = 2 * math.pi * 12 / n
        model = HarmonicModel(2, lam, ((0.1, 0.0), (5.0, 0.0)))
        sig = synthesize(model, n)
        assert _start_offset(sig, 2)[0] == 8 * 12
        assert abs(fourier_grid_init(sig, 2) - lam) < 0.01 * 2 * math.pi / n
        lams, i_vals, q_vals = grid_spectrum(sig, 2)
        assert lams[int(np.argmax(q_vals))] == pytest.approx(lam, abs=1e-12)
        assert lams[int(np.argmax(i_vals))] == pytest.approx(2 * lam, abs=1e-12)

    def test_result_rounds_to_grid_point(self, model1):
        # 8n = 2400 is 5-smooth: the start lies within half a step of the
        # grid 2*pi*k/2400 of fourier_grid, at the Q_N argmax
        sig = synthesize(model1, 300, LinearProcessSpec((1.0,), 1.0), seed=9)
        lam0 = fourier_grid_init(sig, 4)
        k, delta = _start_offset(sig, 4)
        assert abs(delta) <= 0.5
        assert 0.0 < lam0 < math.pi / 4
        grid = fourier_grid(spectrum._smooth_length(8 * 300), 4)
        vals = [harmonic_criterion_qn(sig, float(lam), 4) for lam in grid]
        assert grid[k - 1] == grid[int(np.argmax(vals))]

    @pytest.mark.parametrize("n, p, seed", [(300, 4, 9), (250, 1, 3), (1009, 4, 6)])
    def test_start_is_the_vertex_of_the_direct_criterion(self, model1, n, p, seed):
        # oracle: the vertex of the parabola through the direct-sum Q_N at
        # the nearest grid point and its two neighbours
        sig = synthesize(model1, n, LinearProcessSpec((1.0, 0.5), 0.25), seed=seed)
        length = spectrum._smooth_length(8 * n)
        k, delta = _start_offset(sig, p)
        a, b, c = (harmonic_criterion_qn(sig, 2 * math.pi * j / length, p)
                   for j in (k - 1, k, k + 1))
        assert b > max(a, c)
        assert delta == pytest.approx((a - c) / (2 * (a - 2 * b + c)), rel=0, abs=1e-9)
        assert delta != 0.0

    @pytest.mark.parametrize("sums, k", [
        ([5.0, 4.0, 3.0, 2.0], 1),                        # argmax at the first point
        ([1.0, 2.0, 3.0, 4.0], 4),                        # argmax at the last point
        ([0.5, 1.0 - 2.0**-53, 1.0, 1.0, 0.5], 3),        # a - 2b + c rounds to 0
    ])
    def test_grid_point_kept_at_an_edge_or_a_flat_triple(self, monkeypatch, sums, k):
        # there the start is the grid point of fourier_grid bit for bit
        sig = Signal(np.ones(40))
        length = spectrum._smooth_length(8 * 40)
        monkeypatch.setattr(spectrum, "_grid_power",
                            lambda *args: (None, np.array(sums)))
        assert fourier_grid_init(sig, 1) == fourier_grid(length, 1)[k - 1]

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_start_lies_inside_the_admissible_interval(self, p):
        # the start is taken over the grid points above lo.  The last grid
        # point lies at least pi/(p L) below pi/p, so below hi too
        for n in range(10 * p, 10 * p + 40):
            assert fourier_grid(spectrum._smooth_length(8 * n), p)[-1] < _admissible(n, p)[1]
        # a ramp holds its power near 0: Q_N peaks at the first grid
        # point, not above lo from p = 2 on (at p = 2, L = 8n puts it on lo)
        n = 200
        sig = Signal(np.arange(1.0, n + 1))
        length = spectrum._smooth_length(8 * n)
        lo, hi = _admissible(n, p)
        assert np.argmax(spectrum._grid_power(sig, p, length)[1]) == 0
        assert (fourier_grid(length, p)[0] <= lo) == (p > 1)
        assert lo < fourier_grid_init(sig, p) < hi

    def test_scaling_leaves_argmax_unchanged(self, model1):
        sig = synthesize(model1, 200, LinearProcessSpec((1.0,), 0.5), seed=4)
        scaled = Signal(1000.0 * sig.samples)
        assert fourier_grid_init(sig, 4) == fourier_grid_init(scaled, 4)

    def test_grid_restriction(self):
        grid = fourier_grid(100, 4)
        assert grid[0] == pytest.approx(2 * math.pi / 100)
        assert grid[-1] < math.pi / 4
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize(
        "n, p, size", [(44, 1, 21), (44, 2, 10), (480, 1, 239), (480, 2, 119)]
    )
    def test_grid_excludes_pi_over_p(self, n, p, size):
        # 2pk = n puts grid point k on pi/p itself; a float filter
        # 2*pi*k/n < pi/p kept it where the product rounds below pi/p
        grid = fourier_grid(n, p)
        assert grid.size == size
        assert np.all(2 * p * np.arange(1, size + 1) < n)
        assert grid[-1] == 2.0 * math.pi * size / n
        assert grid[-1] < math.pi / p

    @pytest.mark.parametrize("mode", ["plain", "harmonic_sum"])
    def test_padded_grid_matches_direct_scan(self, model2, mode):
        # oracle: direct exponential sums over the grid 2*pi*k/L; the start
        # takes the Q_N argmax at the start length L >= 8n, grid_spectrum
        # gives I and Q_N at L = n.  8n is 5-smooth at n = 250; 1009 is
        # prime and 8*1150 = 9200 has the factor 23.
        for n, start_length in ((250, 2000), (1009, 8100), (1150, 9216)):
            sig = synthesize(model2, n, LinearProcessSpec((1.0, 0.5), 0.25), seed=6)
            lengths = (n,) if mode == "plain" else (start_length, n)
            for p in (4, 1):
                for length in lengths:
                    grid = fourier_grid(length, p)
                    if mode == "plain":
                        vals = [periodogram(sig, float(lam)) for lam in grid]
                    else:
                        vals = [harmonic_criterion_qn(sig, float(lam), p) for lam in grid]
                    if length == start_length:
                        # the vertex start's nearest grid point
                        got = grid[_start_offset(sig, p)[0] - 1]
                    else:
                        lams, i_vals, q_vals = grid_spectrum(sig, p)
                        got = lams[int(np.argmax(i_vals if mode == "plain" else q_vals))]
                    assert got == grid[int(np.argmax(vals))], (n, p, length)

    @pytest.mark.parametrize("n, length", [
        (10, 80), (250, 2000), (300, 2400), (512, 4096), (1000, 8000),
        (1009, 8100), (1150, 9216), (2053, 16875), (10007, 81000),
        (99991, 800000), (100003, 810000),
    ])
    def test_start_length_is_smallest_5_smooth(self, n, length):
        # where 8n is 5-smooth (250, 300, 512, 1000) the grid is 2*pi*k/(8n);
        # the start's nearest index on it is the argmax of the sums there
        assert spectrum._smooth_length(spectrum._START_PAD * n) == length
        sig = Signal(np.cos(0.3 * np.arange(1, n + 1)))
        k, delta = _start_offset(sig, 1)
        assert abs(delta) <= 0.5
        assert k == 1 + int(np.argmax(spectrum._grid_power(sig, 1, length)[1]))

    def test_smooth_length_against_a_scan(self):
        def smooth(m):
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            return m == 1

        want = [next(x for x in range(m, 2 * m + 1) if smooth(x)) for m in range(1, 3000)]
        assert [spectrum._smooth_length(m) for m in range(1, 3000)] == want

    def test_too_small_sample_rejected(self):
        sig = Signal(np.ones(20))
        with pytest.raises(DomainError):
            fourier_grid_init(sig, 4)  # n < 10 p


class TestGridSpectrum:
    def test_matches_point_functions(self, model1):
        sig = synthesize(model1, 200, LinearProcessSpec((1.0, 0.5), 0.25), seed=5)
        lams, i_vals, q_vals = grid_spectrum(sig, 4)
        np.testing.assert_array_equal(lams, fourier_grid(sig.n, 4))
        for lam, i_val, q_val in zip(lams, i_vals, q_vals):
            assert i_val == pytest.approx(periodogram(sig, float(lam)), rel=1e-9)
            assert q_val == pytest.approx(
                harmonic_criterion_qn(sig, float(lam), 4), rel=1e-9
            )


    @pytest.mark.parametrize("factor", [1e152, 1e-150])
    def test_out_of_range_signal_scales_back(self, model1, factor):
        # the spectrum of y 2^-e times 2^(2e): at 1e152 |X_k|^2 of y itself
        # overflowed to inf, with a numpy warning
        clean = synthesize(model1, 200)
        sig = Signal(factor * clean.samples)
        assert sig._exponent != 0
        _, i_base, q_base = grid_spectrum(clean, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lams, i_vals, q_vals = grid_spectrum(sig, 4)
        np.testing.assert_array_equal(lams, fourier_grid(200, 4))
        f2 = factor * factor
        for got, base in ((i_vals, i_base), (q_vals, q_base)):
            assert np.isfinite(got).all() and got.size == 24
            np.testing.assert_allclose(got, base * f2, rtol=1e-13, atol=0.0)


def _grid_power_by_temporaries(y, p, length):
    """The power sums as ``abs(rfft) ** 2`` and ``sum`` over the strided views."""
    size = (length - 1) // (2 * p)
    power = np.abs(np.fft.rfft(y, length)) ** 2
    return power[1 : size + 1], sum(power[j : j * size + 1 : j] for j in range(1, p + 1))


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "ma1"])
@pytest.mark.parametrize("preset", [1, 2])
@pytest.mark.parametrize("n", [100, 137, 1009, 2050, 4001])
def test_grid_power_in_place_is_bit_identical(n, preset, noisy):
    # the in-place square and the sums into a copy of the j = 1 view give
    # the temporaries' results bit for bit, at length n and at the start's
    noise = LinearProcessSpec((1.0, 0.5), 0.25) if noisy else None
    sig = synthesize(MODEL1 if preset == 1 else MODEL2, n, noise, seed=n)
    for p in range(1, 5):
        for length in (n, spectrum._smooth_length(8 * n)):
            got = spectrum._grid_power(sig, p, length)
            want = _grid_power_by_temporaries(sig.samples, p, length)
            for a, b in zip(got, want, strict=True):
                assert a.tobytes() == b.tobytes()
