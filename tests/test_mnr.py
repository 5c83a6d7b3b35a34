"""Newton refinement: the start pass, full runs, curvature guard, trace integrity."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fundfreq.criterion as criterion
import fundfreq.mnr as mnr
from fundfreq import spectrum
from fundfreq import (
    DegenerateFrequencyError,
    DomainError,
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    asymptotic_variances,
    estimate_fundamental,
    g,
    lse_linear,
    synthesize,
)
from fundfreq.criterion import g_with_derivatives
from fundfreq.montecarlo import MODEL1, MODEL2
from fundfreq.signal import _admissible

# Recorded traces of estimate_fundamental on both presets; regenerate with
# PYTHONPATH=src python tests/test_mnr.py only when a change to the
# estimator is meant to move them.
PRESET_TRACES = Path(__file__).parent / "data" / "preset_traces.json"


def _start_on_the_grid(monkeypatch):
    """Start estimates from the grid point nearest the vertex start: the
    argmax of Q_N on the 8x grid, the start these inputs were chosen on."""
    vertex_start = spectrum.fourier_grid_init

    def grid_point(signal, p):
        length = spectrum._smooth_length(spectrum._START_PAD * signal.n)
        return 2.0 * math.pi * round(vertex_start(signal, p) * length / (2 * math.pi)) / length

    monkeypatch.setattr(mnr, "fourier_grid_init", grid_point)


class TestStartPass:
    """The one pass at the start: record 0's g and the first step's g', g''."""

    def test_near_zero_correction_from_true_frequency(self, m1_clean_1000, monkeypatch):
        # noiseless data: the true frequency maximizes g, so a start there
        # closes the run with its first step, on the start's pass alone
        monkeypatch.setattr(mnr, "fourier_grid_init", lambda *args: 0.25)
        _, trace = estimate_fundamental(m1_clean_1000, 4)
        assert trace.records[0].lam == 0.25
        assert abs(trace.records[1].correction) < 1e-12
        assert (trace.status, trace.evaluations, len(trace.records)) == ("converged_tol", 1, 2)

    @pytest.mark.parametrize("n", [500, 4000])
    def test_shared_start_pass(self, model1, n):
        # record 0's g and the first full step come from one pass at the
        # start, the same g_with_derivatives a later iterate takes
        sig = synthesize(model1, n, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        _, trace = estimate_fundamental(sig, 4)
        lam0 = trace.records[0].lam
        g0, gp, gpp = g_with_derivatives(sig, 4, lam0)
        assert trace.records[0].g_value == g0
        assert trace.records[1].correction == -gp / gpp
        assert trace.records[1].lam == lam0 + trace.records[1].correction


class TestEstimateFundamental:
    def test_noisy_model1(self, model1):
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert abs(lam_hat - 0.25) < 1e-3
        assert trace.status in ("converged_tol", "max_iter")

    def test_noiseless_model1_512(self, m1_clean_512):
        # The true frequency sits 0.37 Fourier bins off the grid 2*pi*k/512.
        # The start searches the 8x padded grid, whose nearest point is
        # 2*pi*163/4096, and moves to the vertex of Q_N there, nearer the
        # truth; the refinement then reaches the least squares maximizer,
        # which for noiseless data is the true frequency.
        lam_hat, trace = estimate_fundamental(m1_clean_512, 4)
        lam0, grid_point = trace.records[0].lam, 2 * math.pi * 163 / 4096
        assert round(lam0 * 4096 / (2 * math.pi)) == 163
        assert abs(lam0 - 0.25) < abs(grid_point - 0.25)
        assert abs(lam_hat - 0.25) < 1e-8
        assert trace.status == "converged_tol"

    @pytest.mark.parametrize("preset, n", [(2, 250), (1, 2000)])
    def test_noiseless_exact_where_grid_start_failed(self, model1, model2, preset, n):
        # From the plain Fourier grid both cells started at the octave
        # 2*lambda and converged there.
        model = model1 if preset == 1 else model2
        lam_hat, trace = estimate_fundamental(synthesize(model, n), 4)
        assert abs(lam_hat - model.lam) < 1e-8
        assert trace.status == "converged_tol"

    def test_trace_integrity(self, model1):
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=31)
        lam_hat, trace = estimate_fundamental(sig, 4)
        iters = [r.iteration for r in trace.records]
        assert iters == list(range(len(iters)))
        assert all(0.0 < r.lam < math.pi / 4 for r in trace.records)
        # every record but the start is the step before it plus its correction
        for before, after in zip(trace.records, trace.records[1:]):
            assert after.lam == before.lam + after.correction
        assert trace.records[0].correction == 0.0
        # a converged_tol run returns the landing point of its closing step,
        # the last record, which carries the largest g of the trace
        assert trace.status == "converged_tol"
        assert _returns_the_last_record(lam_hat, trace)

    def test_full_trace_scale_invariance(self, model1):
        # acceptance: y -> 1000 y must reproduce the iterate sequence
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=32)
        scaled = Signal(1000.0 * sig.samples)
        lam_a, tr_a = estimate_fundamental(sig, 4)
        _, tr_b = estimate_fundamental(scaled, 4)
        assert len(tr_a.records) == len(tr_b.records)
        for ra, rb in zip(tr_a.records, tr_b.records):
            assert rb.lam == pytest.approx(ra.lam, abs=1e-10)
        # y -> 2^k y, inside and outside the unscaled range 2^+-128, scales
        # exactly: the same run bit for bit, with g in the signal's units
        for k in (-300, -131, -7, 7, 131, 300):
            lam_b, tr_b = estimate_fundamental(Signal(np.ldexp(sig.samples, k)), 4)
            assert lam_b == lam_a
            assert (tr_b.status, tr_b.evaluations) == (tr_a.status, tr_a.evaluations)
            for ra, rb in zip(tr_a.records, tr_b.records, strict=True):
                assert (rb.lam, rb.correction) == (ra.lam, ra.correction)
                assert rb.g_value == ra.g_value * 4.0**k
        # extreme amplitudes: without the scaling the start's FFT power
        # over- or underflowed and the run ended degenerate at the first
        # grid point; g past the float range reads inf or 0, with no warning
        clean = synthesize(model1, 200)
        amps = lse_linear(clean, estimate_fundamental(clean, 4)[0], 4)
        for factor in (1e160, 1e-170):
            scaled = Signal(factor * clean.samples)
            lam_hat, trace = estimate_fundamental(scaled, 4)
            assert trace.status == "converged_tol"
            assert abs(lam_hat - 0.25) <= 1e-12
            got = np.asarray(lse_linear(scaled, lam_hat, 4)) / factor
            assert np.allclose(got, amps, rtol=1e-9, atol=0.0)

    def test_estimates_stay_inside_interval(self, model2):
        for seed in range(10):
            sig = synthesize(model2, 120, LinearProcessSpec((1.0, 0.5), 1.0), seed=seed)
            lam_hat, _ = estimate_fundamental(sig, 4)
            assert 0.0 < lam_hat < math.pi / 4

    def test_sample_too_small(self, model1):
        sig = synthesize(model1, 30)
        with pytest.raises(DomainError):
            estimate_fundamental(sig, 4)

    def test_zero_signal_reports_degenerate(self):
        # exactly zero data: g' = g'' = 0, so no Newton step exists; the run
        # ends with the grid start and a degenerate status instead of raising
        lam_hat, trace = estimate_fundamental(Signal(np.zeros(100)), 2)
        assert trace.status == "degenerate"
        assert lam_hat == trace.records[0].lam

    @pytest.mark.parametrize("n", [100, 51])
    def test_factors_of_the_start_pass(self, model1, monkeypatch, n):
        # the start pass factors X'X once, over all n samples, and each
        # later pass once more; a patched singular X'X at the start raises
        # out of the estimate
        whitened = criterion._whitened
        sizes = []

        def counted(mom, n, lam):
            sizes.append(n)
            return whitened(mom, n, lam)

        monkeypatch.setattr(criterion, "_whitened", counted)
        sig = synthesize(model1, n, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        _, trace = estimate_fundamental(sig, 4)
        assert sizes == [n] * trace.evaluations

        def singular(mom, n, lam):
            sizes.append(n)
            raise DegenerateFrequencyError(f"singular over {n} samples")

        sizes.clear()
        monkeypatch.setattr(criterion, "_whitened", singular)
        with pytest.raises(DegenerateFrequencyError):
            estimate_fundamental(sig, 4)
        assert sizes == [n]

    def test_inadmissible_grid_point_not_used_as_start(self):
        # pure noise whose spectrum peaks at the top of the grid: the start
        # used to be pi itself, where X'X is singular and record 0's g raised
        y = np.random.default_rng(9).normal(0.0, 1.0, 60)
        lam_hat, trace = estimate_fundamental(Signal(y), 1)
        assert 0.0 < trace.records[0].lam < math.pi
        assert 0.0 < lam_hat < math.pi


class TestStage3:
    """Full Newton steps (the third stage of the paper's scheme), the
    curvature guard and the evaluation count."""

    def test_positive_curvature_steps_uphill(self, model1, monkeypatch):
        # with g'' > 0 at every iterate no Newton step points uphill: each
        # step is a quarter Fourier bin in the direction of g', halved like
        # a Newton step while it lowers g.  The steps climb to the maximum
        # of g, where one halved below _TOL ends the run boundary, never
        # converged_tol
        def convex(signal, p, lam):
            g_val, gp, gpp = g_with_derivatives(signal, p, lam)
            return g_val, gp, abs(gpp) + 1.0

        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lse, _ = estimate_fundamental(sig, 4)
        monkeypatch.setattr(mnr, "g_with_derivatives", convex)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "boundary"
        assert _returns_the_last_record(lam_hat, trace)
        assert abs(lam_hat - lse) < 1e-6
        uphill = 0.25 * 2.0 * math.pi / 500
        for before, after in zip(trace.records, trace.records[1:]):
            gp = g_with_derivatives(sig, 4, before.lam)[1]
            halvings = math.log2(uphill / abs(after.correction))
            assert halvings == int(halvings) and math.copysign(1.0, gp) * after.correction > 0.0
            assert after.g_value >= before.g_value

    @pytest.mark.parametrize("preset", [1, 2])
    @pytest.mark.parametrize("n", [100, 512, 2000])
    def test_noiseless_estimate_is_a_maximum(self, model1, model2, preset, n):
        model = model1 if preset == 1 else model2
        sig = synthesize(model, n)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "converged_tol"
        assert g_with_derivatives(sig, 4, lam_hat)[2] < 0.0

    @pytest.mark.parametrize("n, seed", [(60, 49), (100, 67)])
    def test_pure_noise_tol_only_at_a_maximum(self, n, seed):
        # without the curvature guard, halved steps walked these inputs to a
        # point with g'' > 0 and reported converged_tol there; g'' > 0 at
        # the start then ended them with no step.  Now the start steps a
        # quarter Fourier bin uphill, and Newton steps from g'' < 0 take the
        # run on to a maximum of g, 1.9x and 1.3x the start's g
        sig = Signal(np.random.default_rng(seed).normal(0.0, 1.0, n))
        lam_hat, trace = estimate_fundamental(sig, 1)
        start, first = trace.records[:2]
        gp, gpp = g_with_derivatives(sig, 1, start.lam)[1:]
        assert gpp > 0.0 and first.correction == math.copysign(0.25 * 2.0 * math.pi / n, gp)
        assert trace.status == "converged_tol"
        assert g_with_derivatives(sig, 1, lam_hat)[2] < 0.0
        assert g(sig, 1, lam_hat) > 1.3 * start.g_value
        assert _is_local_maximum(sig, 1, lam_hat)

    def test_pure_noise_estimates_are_local_maxima(self):
        # p = 4, n = 200, seeds 0-99: every run that ends converged_tol or
        # max_iter returns a local maximum of g.  Ten of these runs met
        # g'' > 0 and stopped there, and eight of those had a higher g
        # within 4/64 Fourier bin
        for seed in range(100):
            sig = Signal(np.random.default_rng(seed).standard_normal(200))
            lam_hat, trace = estimate_fundamental(sig, 4)
            if trace.status not in ("boundary", "degenerate"):
                assert _is_local_maximum(sig, 4, lam_hat), (seed, trace.status)

    @staticmethod
    def _count_calls(monkeypatch) -> list[float]:
        """Log the frequency of every criterion call that
        ``estimate_fundamental`` makes."""
        calls = []
        inner = mnr.g_with_derivatives

        def counted(signal, p, lam):
            calls.append(lam)
            return inner(signal, p, lam)

        monkeypatch.setattr(mnr, "g_with_derivatives", counted)
        return calls

    def test_evaluations_count_every_criterion_call(self, monkeypatch):
        # pure noise, p = 1, n = 60, seed 177: the first step is halved
        # three times, so the trace has more evaluations than records.  The
        # run ends converged_tol, whose closing record takes no pass: the
        # start's pass is the first call and the step before the closing
        # one the last
        calls = self._count_calls(monkeypatch)
        sig = Signal(np.random.default_rng(177).normal(0.0, 1.0, 60))
        _, trace = estimate_fundamental(sig, 1)
        assert trace.evaluations == len(calls)
        assert trace.evaluations > len(trace.records)
        assert trace.status == "converged_tol"
        assert calls[0] == trace.records[0].lam
        assert calls[-1] == trace.records[-2].lam
        assert len(set(calls)) == len(calls)

    def test_pass_budget_at_the_table_sizes(self, model1):
        # MODEL1, MA(1), sigma2 = 0.25, seeds 0-99 at each n: from the
        # vertex start 201 of the 400 runs took 2 evaluations when measured
        # and the rest 3 (mean 2.50); from the grid point the mean was
        # 3.26 and the max 4
        noise = LinearProcessSpec((1.0, 0.5), 0.25)
        counts = [estimate_fundamental(synthesize(model1, n, noise, seed=seed), 4)[1].evaluations
                  for n in (100, 200, 400, 500) for seed in range(100)]
        assert np.mean(counts) <= 2.6
        assert max(counts) <= 3

    @pytest.mark.parametrize("noise", [None, LinearProcessSpec((1.0, 0.5), 0.25)],
                             ids=["noiseless", "ma1"])
    def test_each_pass_builds_the_phases_once(self, model1, monkeypatch, noise):
        # one routine builds the design of every pass: the start pass, each
        # later pass and the amplitude fit call _phases once each
        calls = []
        inner = criterion._phases
        monkeypatch.setattr(criterion, "_phases", lambda *args: calls.append(args) or inner(*args))
        sig = synthesize(model1, 500, noise, seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert calls[0] == (trace.records[0].lam, 500, 4)
        assert len(calls) == trace.evaluations
        lse_linear(sig, lam_hat, 4)
        assert len(calls) == trace.evaluations + 1
        assert calls[-1] == (lam_hat, 500, 4)

    def test_step_cap_ends_max_iter(self, model1, monkeypatch):
        # one Newton step allowed, and it is longer than _TOL: the run stops
        # there and returns that step's iterate, the last record
        monkeypatch.setattr(mnr, "_MAX_ITER", 1)
        calls = self._count_calls(monkeypatch)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert abs(trace.records[1].correction) >= mnr._TOL
        assert trace.status == "max_iter"
        assert len(trace.records) == 2
        assert _returns_the_last_record(lam_hat, trace)
        assert trace.evaluations == len(calls)

    @pytest.mark.parametrize("preset", [1, 2])
    def test_noiseless_sweep_returns_landing_point(self, model1, model2, preset):
        # every run returns its last record, here the landing point of the
        # closing step.  At preset 1, n = 500 that point is lambda exactly,
        # but a measured g there rounds below the previous iterate's: picking
        # the record by measured g would return that iterate, 5.1e-11 off
        model = model1 if preset == 1 else model2
        for n in [*range(100, 2051, 50), 4000, 8000]:
            lam_hat, trace = estimate_fundamental(synthesize(model, n), 4)
            assert trace.status == "converged_tol", n
            assert lam_hat == trace.records[-1].lam
            assert abs(lam_hat - model.lam) <= 2.2e-13, n

    def test_step_leaving_interval_is_halved(self, monkeypatch):
        # pure noise, p = 1, n = 60, seed 141, from the grid start: the
        # first full step, 1.28, overshoots pi; the halved steps reach a
        # maximum of g inside (0, pi)
        _start_on_the_grid(monkeypatch)
        calls = self._count_calls(monkeypatch)
        sig = Signal(np.random.default_rng(141).normal(0.0, 1.0, 60))
        lam_hat, trace = estimate_fundamental(sig, 1)
        g0, gp, gpp = g_with_derivatives(sig, 1, trace.records[0].lam)
        assert trace.records[0].lam - gp / gpp > math.pi
        assert all(0.0 < lam < math.pi for lam in calls)
        assert trace.status == "converged_tol"
        assert 0.0 < lam_hat < math.pi
        assert g_with_derivatives(sig, 1, lam_hat)[2] < 0.0

    @staticmethod
    def _failing_from(monkeypatch, call, fail):
        """Patch g_with_derivatives so that from the ``call``-th pass after
        the start's on (0: the start's), ``fail(values)`` replaces the true
        (g, g', g'')."""
        calls = []

        def patched(signal, p, lam):
            calls.append(lam)
            values = g_with_derivatives(signal, p, lam)
            return fail(values) if len(calls) > call else values

        monkeypatch.setattr(mnr, "g_with_derivatives", patched)
        return calls

    @pytest.mark.parametrize("call", [1, 2])
    def test_singular_trial_point_is_halved(self, model1, monkeypatch, call):
        # the step from the call-th pass (call 2 from the grid start, which
        # takes three passes) aims past the edge of (lo, hi) on its side, at
        # pi/p - 1e-9 or lo/64, where X'X is singular: it is halved with no
        # pass at or past the edge, as for a point outside (0, pi/p), and
        # the run goes on to converge
        _start_on_the_grid(monkeypatch)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lo, hi = _admissible(500, 4)
        calls, aimed = [], []

        def patched(signal, p, lam):
            calls.append(lam)
            g_val, gp, gpp = g_with_derivatives(signal, p, lam)
            if len(calls) == call:
                target = math.pi / p - 1e-9 if gp > 0.0 else lo / 64
                gpp = -gp / (target - lam)
                aimed.extend([target, -gp / gpp])
            return g_val, gp, gpp

        monkeypatch.setattr(mnr, "g_with_derivatives", patched)
        lam_hat, trace = estimate_fundamental(sig, 4)
        target, full_step = aimed
        with pytest.raises(DegenerateFrequencyError):
            g(sig, 4, target)
        assert trace.status == "converged_tol"
        assert abs(lam_hat - 0.25) < 1e-3
        assert trace.evaluations == len(calls)
        assert all(lo < lam < hi for lam in calls)
        halvings = math.log2(full_step / trace.records[call].correction)
        assert halvings == int(halvings) >= 1

    def test_singular_at_every_trial_point_ends_boundary(self, model1, monkeypatch):
        # a start 8e-8 above lo whose step points down, past 0: every trial
        # point of length _TOL or more lies at or below lo, in the band
        # where X'X degrades, and takes no pass.  The step is judged by its
        # unhalved target, outside (lo, hi): the run ends boundary, though
        # the last halved step, 2^-24, would land 2e-8 inside the edge
        lo = _admissible(500, 4)[0]
        monkeypatch.setattr(mnr, "fourier_grid_init", lambda *args: lo + 8e-8)
        calls = self._failing_from(monkeypatch, 0, lambda v: (v[0], -1.0, -1.0))
        lam_hat, trace = estimate_fundamental(synthesize(model1, 500), 4)
        assert lo < lo + 8e-8 - 2.0**-24
        assert trace.status == "boundary"
        assert (trace.evaluations, len(calls), len(trace.records)) == (1, 1, 1)
        assert lam_hat == trace.records[0].lam == lo + 8e-8

    def test_patched_singular_trial_pass_raises(self, model1, monkeypatch):
        # inside (lo, hi) X'X is well conditioned, so the loop has no branch
        # for a singular pass: a patched one propagates the guard's error
        def singular(values):
            raise DegenerateFrequencyError("singular normal equations")

        calls = self._failing_from(monkeypatch, 1, singular)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        with pytest.raises(DegenerateFrequencyError):
            estimate_fundamental(sig, 4)
        assert len(calls) == 2

    def test_singular_trial_point_near_pi_is_halved(self, monkeypatch):
        # pure noise, p = 1, n = 200, seed 100: g peaks within 3e-7 of pi,
        # past hi = pi - 2e-5, and a trial point 3.6e-8 below pi once met a
        # singular X'X.  Every step toward the peak is halved with no pass
        # at or past hi, and the run ends boundary inside (lo, hi), where
        # the amplitudes solve
        calls = self._count_calls(monkeypatch)
        sig = Signal(np.random.default_rng(100).normal(0.0, 1.0, 200))
        lo, hi = _admissible(200, 1)
        with pytest.raises(DegenerateFrequencyError):
            g(sig, 1, math.pi - 3.6e-8)
        lam_hat, trace = estimate_fundamental(sig, 1)
        assert all(lo < lam < hi for lam in calls)
        assert trace.status == "boundary"
        assert 0.0 < hi - lam_hat < 1e-7
        assert np.isfinite(lse_linear(sig, lam_hat, 1)).all()

    @pytest.mark.parametrize("p, seeds", [
        (1, [10, 100, 116, 155, 191, 287]),
        (2, [83, 146, 186, 268, 299]),
        (4, [6, 78, 146, 161, 186, 191, 200, 214, 218, 231, 238, 262, 279, 299]),
    ])
    def test_pure_noise_near_a_singular_band_fits(self, p, seeds):
        # the pure-noise inputs (n = 200, seeds 0-299) whose runs ended
        # degenerate at a singular trial point: none does now, and the
        # amplitudes solve at every estimate, a boundary one included
        for seed in seeds:
            sig = Signal(np.random.default_rng(seed).normal(0.0, 1.0, 200))
            lam_hat, trace = estimate_fundamental(sig, p)
            assert trace.status != "degenerate", seed
            assert np.isfinite(lse_linear(sig, lam_hat, p)).all(), seed

    def test_pure_noise_landing_point_below_pi_over_3_fits(self):
        # pure noise, p = 3, n = 200, seed 202: Newton steps shrinking about
        # 4x each creep up on pi/3.  With (0, pi/3) as the interval the run
        # ended converged_tol 9.3e-9 below pi/3, where X'X is singular, and
        # `fundfreq estimate --p 3` exited 1.  Now it stops at hi
        sig = Signal(np.random.default_rng(202).standard_normal(200))
        lo, hi = _admissible(200, 3)
        lam_hat, trace = estimate_fundamental(sig, 3)
        assert trace.status == "boundary"
        assert lo < lam_hat < hi and hi - lam_hat < 1e-6
        assert np.isfinite(lse_linear(sig, lam_hat, 3)).all()

    def test_pure_noise_pass_budget(self):
        # pure noise, p = 1-4, n = 200, seeds 0-299: no run raises, every
        # start and estimate lies inside (lo, hi), no record's g is below
        # the one before it, and no run takes more than 11 evaluations
        # (measured: at most 11, mean 2.89).  With the interval narrowed at
        # each singular trial point instead, runs halved into the band near
        # 0 and took up to 28
        counts = []
        for p in (1, 2, 3, 4):
            lo, hi = _admissible(200, p)
            for seed in range(300):
                sig = Signal(np.random.default_rng(seed).normal(0.0, 1.0, 200))
                lam_hat, trace = estimate_fundamental(sig, p)
                assert lo < trace.records[0].lam < hi and lo < lam_hat < hi, (p, seed)
                assert trace.status in ("converged_tol", "boundary"), (p, seed)
                assert _g_never_falls(trace), (p, seed)
                counts.append(trace.evaluations)
        assert max(counts) <= 11

    def test_stopped_pure_noise_runs_are_scale_free(self):
        # the 16 pure-noise runs above (p = 1-4, n = 200, seeds 0-299) that
        # end other than converged_tol, all boundary: y -> 2^+-600 y gives
        # the same estimate, status and evaluation count bit for bit.  When
        # such a run returned the record with the largest g, the records'
        # g values, scaled back, all read inf (or 0) and tied, and every
        # one of these runs returned its start
        stopped = []
        for p in (1, 2, 3, 4):
            for seed in range(300):
                y = np.random.default_rng(seed).normal(0.0, 1.0, 200)
                lam_hat, trace = estimate_fundamental(Signal(y), p)
                if trace.status != "converged_tol":
                    stopped.append((p, seed))
                    for k in (-600, 600):
                        lam_k, trace_k = estimate_fundamental(Signal(np.ldexp(y, k)), p)
                        assert (lam_k, trace_k.status, trace_k.evaluations) == (
                            lam_hat, trace.status, trace.evaluations), (p, seed, k)
        assert len(stopped) == 16

    # pure noise, n = 200, whose runs, with the interval narrowed at each
    # singular trial point, halved into the singular band near 0 and ended
    # there, at or below lo, in 18-21 evaluations: (p, seed, status, lambda_hat)
    # of those runs
    SINGULAR_BAND_RUNS = [
        (2, 146, "converged_tol", 0.00040418608337544854),
        (2, 186, "converged_tol", 0.0004040495633292648),
        (2, 268, "boundary", 0.00040408116620143096),
        (2, 299, "boundary", 0.00040409025703424276),
        (4, 146, "converged_tol", 0.0031784617566483903),
        (4, 200, "converged_tol", 0.0031769672025530257),
        (4, 231, "converged_tol", 0.003176862692508148),
    ]

    @pytest.mark.parametrize("p, seed, old_status, old_lam_hat", SINGULAR_BAND_RUNS)
    def test_singular_band_pass_budget(self, p, seed, old_status, old_lam_hat):
        # the old estimate lay at or below lo; now the run ends inside
        # (lo, hi), converged or stopped at an edge, in at most 11
        # evaluations (3-11 measured)
        sig = Signal(np.random.default_rng(seed).normal(0.0, 1.0, 200))
        lo, hi = _admissible(200, p)
        lam_hat, trace = estimate_fundamental(sig, p)
        assert old_lam_hat <= lo < lam_hat < hi
        assert trace.status in ("converged_tol", "boundary")
        assert trace.evaluations <= 11

    @pytest.mark.parametrize("p, seed", [run[:2] for run in SINGULAR_BAND_RUNS])
    def test_no_pass_at_or_past_a_singular_point(self, monkeypatch, p, seed):
        # pure noise, n = 200, whose runs once halved into the singular band
        # near 0 and met a singular X'X there (18-21 evaluations with the
        # interval narrowed at each such point): every pass now lies inside
        # (lo, hi), and the criterion's pivot floor never fires
        calls = []

        def logged(signal, p, lam):
            values = g_with_derivatives(signal, p, lam)
            calls.append(lam)
            return values

        monkeypatch.setattr(mnr, "g_with_derivatives", logged)
        sig = Signal(np.random.default_rng(seed).normal(0.0, 1.0, 200))
        lo, hi = _admissible(200, p)
        _, trace = estimate_fundamental(sig, p)
        assert all(lo < lam < hi for lam in calls)
        assert trace.evaluations == len(calls) <= 11

    def test_tone_far_below_lo_ends_boundary(self):
        # a tone of p = 4 at lambda = 0.00179, n = 46 (lambda n = 0.08, an
        # eightieth of a cycle) in noise: lambda is not identifiable, and
        # with (0, pi/4) as the interval the run ended converged_tol at
        # 0.0164, 9x lambda, where the pivot test and g had lost their
        # digits.  Now it ends boundary at lo
        model = HarmonicModel(4, 0.00179, ((1.0, 0.5), (-0.8, 0.6), (0.7, -0.4), (0.5, 0.3)))
        sig = synthesize(model, 46, LinearProcessSpec((1.0,), 0.01), seed=3)
        lo, hi = _admissible(46, 4)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "boundary"
        assert lo < lam_hat < lo + 1e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the start skips the grid "
                       "points at or below lo, and this tone's Q_N peak lies on one")
    def test_low_tone_whose_peak_lies_below_lo_is_found(self):
        # a noiseless tone, p = 2, n = 186, lambda = 0.014562 (lambda n =
        # 2.71, inside (lo, hi)): the argmax of the 8x Q_N is the first grid
        # point, 2 pi/1500 = 0.0041888, at or below lo = 0.0042226, so the
        # start skips it.  The run starts at another peak and ends
        # converged_tol at 0.0426472, 2.93x lambda, after 3 evaluations, with
        # g = 597.47 against g(lambda) = ||y||^2 = 847.50
        model = HarmonicModel(2, 0.014562, ((-0.67, -2.78), (-3.09, 1.37)))
        lam_hat, _ = estimate_fundamental(synthesize(model, 186), 2)
        assert abs(lam_hat - model.lam) < math.pi / 186

    def test_overflowing_step_ends_degenerate(self, model1, monkeypatch):
        # g' = 1e300 and g'' = -1e-300 are finite but -g'/g'' is not; halved,
        # an infinite step stays infinite, so the run never ended.  No
        # Newton step exists there: the run ends degenerate at the start
        calls = self._failing_from(monkeypatch, 0, lambda v: (v[0], 1e300, -1e-300))
        lam_hat, trace = estimate_fundamental(synthesize(model1, 500), 4)
        assert trace.status == "degenerate"
        assert (len(trace.records), trace.evaluations, len(calls)) == (1, 1, 1)
        assert lam_hat == trace.records[0].lam

    @pytest.mark.parametrize("call", [1, 2])
    def test_nan_curvature_ends_degenerate(self, model1, monkeypatch, call):
        # a NaN g'' gives no Newton step: at the first (call 1) or second
        # (call 2, from the grid start) iterate after the start the run ends
        # degenerate
        _start_on_the_grid(monkeypatch)
        self._failing_from(monkeypatch, call, lambda v: (v[0], v[1], math.nan))
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "degenerate"
        assert len(trace.records) == call + 1
        assert _returns_the_last_record(lam_hat, trace)

    @pytest.mark.parametrize("call", [0, 2])
    @pytest.mark.parametrize("gpp", [0.0, math.inf])
    def test_zero_or_infinite_curvature_ends_degenerate(self, model1, monkeypatch, call, gpp):
        # g'' of exactly 0 or +inf gives no Newton step, at the start (call
        # 0) as at a later iterate (call 2, from the grid start): neither
        # steps uphill
        _start_on_the_grid(monkeypatch)
        self._failing_from(monkeypatch, call, lambda v: (v[0], v[1], gpp))
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "degenerate"
        assert (len(trace.records), trace.evaluations) == (call + 1, call + 1)
        assert _returns_the_last_record(lam_hat, trace)

    @pytest.mark.parametrize("gp", [math.nan, math.inf])
    @pytest.mark.parametrize("gpp", [-1.0, 1.0])
    def test_non_finite_slope_ends_degenerate(self, model1, monkeypatch, gp, gpp):
        # a NaN or infinite g' gives no step, Newton (g'' < 0) or uphill
        # (g'' > 0), though copysign would give the uphill step a length
        self._failing_from(monkeypatch, 0, lambda v: (v[0], gp, gpp))
        lam_hat, trace = estimate_fundamental(synthesize(model1, 500), 4)
        assert trace.status == "degenerate"
        assert (len(trace.records), trace.evaluations) == (1, 1)
        assert lam_hat == trace.records[0].lam

    def test_closing_step_leaving_interval_ends_boundary(self, model1, monkeypatch):
        # a step shorter than _TOL is not halved further: when the start's
        # step leaves (0, pi/p) the run ends boundary, without evaluating
        # there
        monkeypatch.setattr(mnr, "_TOL", 1.0)
        calls = self._failing_from(monkeypatch, 0, lambda v: (v[0], -0.5, -1.0))
        lam_hat, trace = estimate_fundamental(synthesize(model1, 500), 4)
        assert trace.status == "boundary"
        assert len(calls) == 1
        assert trace.evaluations == 1
        assert len(trace.records) == 1
        assert _returns_the_last_record(lam_hat, trace)

    @pytest.mark.parametrize("preset", [1, 2])
    @pytest.mark.parametrize("n", [100, 512, 2000, 8000])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_step_count_regression_guard(self, model1, model2, preset, n, noisy):
        # full steps from the start: at most 5 records measured over these
        # inputs, against 20-30 with quarter steps
        model = model1 if preset == 1 else model2
        noise = LinearProcessSpec((1.0, 0.5), 0.25) if noisy else None
        _, trace = estimate_fundamental(synthesize(model, n, noise, seed=0), 4)
        assert trace.status == "converged_tol"
        assert len(trace.records) <= 8
        assert trace.evaluations <= 8


class TestLargeSampleStop:
    """At n = 1e5 the run closes on a step shorter than 1e-2 n^(-3/2) =
    3.2e-10, not 1e-7."""

    N = 100_000

    @pytest.mark.parametrize("preset", [1, 2])
    def test_landing_point_is_the_polished_estimate(self, model1, model2, preset):
        # 4 more Newton steps polish the estimate.  With a fixed 1e-7 the
        # runs of preset 1 closed on the start's pass alone, 3.0e-6 to
        # 2.0e-5 sd from it, and preset 2's seed 4 1.1e-3 sd; on this rule
        # every gap is 0, at 2 evaluations
        model = model1 if preset == 1 else model2
        noise = LinearProcessSpec((1.0, 0.5), 0.25)
        sd = math.sqrt(asymptotic_variances(model, noise, self.N).var_lse)
        for seed in range(5):
            sig = synthesize(model, self.N, noise, seed)
            lam_hat, trace = estimate_fundamental(sig, 4)
            polished = lam_hat
            for _ in range(4):
                _, gp, gpp = g_with_derivatives(sig, 4, polished)
                polished -= gp / gpp
            assert trace.status == "converged_tol", seed
            assert abs(lam_hat - polished) <= 1e-6 * sd, seed

    @pytest.mark.parametrize("preset", [1, 2])
    def test_noiseless_estimate_within_the_bound(self, model1, model2, preset):
        # README's bound on noiseless data; measured 0 for both presets
        # (5.9e-14 for preset 1 with a fixed 1e-7)
        model = model1 if preset == 1 else model2
        lam_hat, trace = estimate_fundamental(synthesize(model, self.N), 4)
        assert trace.status == "converged_tol"
        assert abs(lam_hat - model.lam) <= 2.2e-13


class TestStartBasin:
    """A run that converges never ends below the start it came from."""

    def test_pure_noise_ends_above_its_start(self, monkeypatch):
        # p = 1, n = 60, from the grid start: a quarter step on the first
        # 33 samples once took this run from g = 7.158 to 4.151, and it
        # ended converged_tol at g = 6.734, below its own start; full steps
        # climb to 7.249
        _start_on_the_grid(monkeypatch)
        sig = Signal(np.random.default_rng(0).normal(0.0, 1.0, 60))
        _, trace = estimate_fundamental(sig, 1)
        assert trace.status == "converged_tol"
        assert trace.records[0].g_value == pytest.approx(7.1577, abs=1e-4)
        assert trace.records[-1].g_value == pytest.approx(7.2494, abs=1e-4)

    def test_pure_noise_sweep_never_ends_below_its_start(self):
        # 200 pure-noise inputs, p 1..3, n 40..299: no converged_tol run may
        # end below record 0's g (7 did with the subsample step)
        below = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 300))
            p = 1 + seed % 3
            _, trace = estimate_fundamental(Signal(rng.normal(0.0, 1.0, n)), p)
            if (trace.status == "converged_tol"
                    and trace.records[-1].g_value < trace.records[0].g_value):
                below.append((seed, p, n))
        assert below == []


class TestMetamorphic:
    """Transforms of y that leave the least squares estimate where it is."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "ma1"])
    @pytest.mark.parametrize("preset", [1, 2])
    def test_time_reversal_and_sign_flip(self, model1, model2, preset, noisy):
        model = model1 if preset == 1 else model2
        noise = LinearProcessSpec((1.0, 0.5), 0.25) if noisy else None
        _check_time_reversal_and_sign_flip(
            (n, synthesize(model, n, noise, seed=n).samples, 4) for n in range(100, 2051, 50))

    def test_time_reversal_and_sign_flip_on_random_inputs(self):
        _check_time_reversal_and_sign_flip(_random_inputs(300, 12345))


def _check_time_reversal_and_sign_flip(inputs):
    """Estimate each (key, samples, p) of ``inputs`` as given, reversed in
    time and negated.  y(n + 1 - t) spans the same column space as y(t), so
    the LSE is the same, to rounding; -y gives the same run bit for bit."""
    worst = 0.0
    for key, y, p in inputs:
        lam, trace = estimate_fundamental(Signal(y), p)
        assert _g_never_falls(trace), key
        lam_r, trace_r = estimate_fundamental(Signal(y[::-1].copy()), p)
        assert trace_r.status == trace.status, key
        worst = max(worst, abs(lam_r - lam) / lam)
        lam_f, trace_f = estimate_fundamental(Signal(-y), p)
        assert (lam_f, trace_f.status, trace_f.evaluations) == (
            lam, trace.status, trace.evaluations), key
    assert worst <= 1e-12


def _g_never_falls(trace):
    """Whether no record of ``trace`` has a g below the one before it."""
    gs = [r.g_value for r in trace.records]
    return all(before <= after for before, after in zip(gs, gs[1:]))


def _returns_the_last_record(lam_hat, trace):
    """Whether ``lam_hat`` is the last record of ``trace`` and that record
    carries the trace's largest g."""
    last = trace.records[-1]
    return lam_hat == last.lam and last.g_value == max(r.g_value for r in trace.records)


def _is_local_maximum(signal, p, lam):
    """Whether g at ``lam`` is within 1e-12 relative of the highest g at
    ``lam`` +- k/64 Fourier bin, k = 1..4; a neighbour outside (0, pi/p) or
    where X'X is singular counts as lower."""
    peak = g(signal, p, lam)
    for k in (-4, -3, -2, -1, 1, 2, 3, 4):
        try:
            if g(signal, p, lam + k * 2.0 * math.pi / (64 * signal.n)) > peak * (1 + 1e-12):
                return False
        except (DegenerateFrequencyError, DomainError):
            pass
    return True


def _random_inputs(count, seed):
    """(key, samples, p) for ``count`` random harmonic signals: p 1..5,
    log-normal amplitudes with random signs, n uniform on 10p+20..1200,
    lambda uniform on (6 pi/n, 0.9 pi/p); every second input adds i.i.d.
    noise of sd 0.3, 1 or 3."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(10 * p + 20, 1201))
        lam = float(rng.uniform(6 * math.pi / n, 0.9 * math.pi / p))
        amps = rng.choice([-1.0, 1.0], (p, 2)) * rng.lognormal(0.0, 1.0, (p, 2))
        model = HarmonicModel(p, lam, tuple(map(tuple, amps.tolist())))
        sd = float(rng.choice([0.3, 1.0, 3.0])) if i % 2 else 0.0
        noise = LinearProcessSpec((1.0,), sd**2) if sd else None
        y = synthesize(model, n, noise, seed=i).samples
        yield f"#{i} p={p} n={n} lambda={lam!r} sd={sd}", y, p


class TestStatisticalGuards:
    """Seeded regression guards over many replications (slower)."""

    def test_model2_low_noise_mean(self, model2):
        # benchmark: model 2 at n=400, sigma2=0.01 averages ~0.3141
        from fundfreq import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            model=model2,
            noise_coeffs=(1.0, 0.5),
            sample_sizes=(400,),
            sigma2_values=(0.01,),
            replications=150,
            master_seed=0,
        )
        row = run_experiment(spec)[0]
        assert row.mean_estimate == pytest.approx(0.3141, abs=5e-4)

    def test_variance_shrinks_with_sample_size(self, model1):
        # n = 250 -> 1000 should cut the variance by at least 8x
        from fundfreq import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            model=model1,
            noise_coeffs=(1.0, 0.5),
            sample_sizes=(250, 1000),
            sigma2_values=(0.25,),
            replications=300,
            master_seed=100,
        )
        rows = {r.n: r for r in run_experiment(spec)}
        assert rows[250].empirical_variance / rows[1000].empirical_variance >= 8.0


def _preset_trace_inputs():
    """(key, signal): both presets at five n, noiseless and MA(1) noise."""
    for preset, model in ((1, MODEL1), (2, MODEL2)):
        for n in (100, 137, 500, 1009, 2050):
            yield f"p{preset} n={n} clean", synthesize(model, n)
            noise = LinearProcessSpec((1.0, 0.5), 0.25)
            yield f"p{preset} n={n} ma1", synthesize(model, n, noise, seed=n)


def _trace_summary(signal):
    lam_hat, trace = estimate_fundamental(signal, 4)
    records = [[r.iteration, r.lam, r.g_value, r.correction]
               for r in trace.records]
    return {"lambda_hat": lam_hat, "status": trace.status,
            "evaluations": trace.evaluations, "records": records}


def _closing_record_inputs():
    """The preset-trace inputs, then both presets noiseless at n = 100..2050."""
    yield from _preset_trace_inputs()
    for preset, model in ((1, MODEL1), (2, MODEL2)):
        for n in range(100, 2051, 50):
            yield f"p{preset} n={n} sweep", synthesize(model, n)


class TestClosingRecord:
    """The closing record of a converged_tol run carries the Newton model's g."""

    @pytest.mark.parametrize(
        "key, signal", [pytest.param(k, s, id=k) for k, s in _closing_record_inputs()]
    )
    def test_closing_g_is_the_measured_g(self, key, signal):
        # the step s < 1e-7 goes uphill and g'' < 0, so the prediction
        # g + s (g' + g'' s/2) is no lower than the g the step left
        _, trace = estimate_fundamental(signal, 4)
        assert trace.status == "converged_tol"
        before, last = trace.records[-2:]
        assert last.g_value == pytest.approx(g(signal, 4, last.lam), rel=1e-13, abs=0)
        assert last.g_value >= before.g_value


class TestPresetTraces:
    """Whole traces against the recorded ones.  The tolerances leave room
    for another BLAS's rounding; on one host the traces agree bit for bit."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(PRESET_TRACES.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "key, signal", [pytest.param(k, s, id=k) for k, s in _preset_trace_inputs()]
    )
    def test_trace_matches_recorded(self, recorded, key, signal):
        got, want = _trace_summary(signal), recorded[key]
        assert (got["status"], got["evaluations"]) == (want["status"], want["evaluations"])
        assert got["lambda_hat"] == pytest.approx(want["lambda_hat"], rel=0, abs=1e-12)
        assert len(got["records"]) == len(want["records"])
        for (it, lam, g_value, _), (w_it, w_lam, w_g, _) in zip(
            got["records"], want["records"]
        ):
            assert it == w_it
            assert lam == pytest.approx(w_lam, rel=0, abs=1e-12)
            assert g_value == pytest.approx(w_g, rel=1e-12, abs=0)


if __name__ == "__main__":
    PRESET_TRACES.parent.mkdir(exist_ok=True)
    traces = {key: _trace_summary(sig) for key, sig in _preset_trace_inputs()}
    PRESET_TRACES.write_text(json.dumps(traces, indent=1) + "\n", encoding="utf-8")
