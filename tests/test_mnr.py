"""Newton refinement: the stage-2 step, full runs, curvature guard, trace integrity."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fundfreq.criterion as criterion
import fundfreq.mnr as mnr
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
from fundfreq.criterion import g_derivatives, g_with_derivatives
from fundfreq.montecarlo import MODEL1, MODEL2

# Recorded traces of estimate_fundamental on both presets; regenerate with
# PYTHONPATH=src python tests/test_mnr.py only when a change to the
# estimator is meant to move them.
PRESET_TRACES = Path(__file__).parent / "data" / "preset_traces.json"


class TestStage2:
    """The one reduced Newton step on the first n1 samples."""

    @pytest.mark.parametrize("step_factor", [0.25, 0.5])
    def test_correction_is_reduced_newton_on_prefix(self, model1, step_factor, monkeypatch):
        monkeypatch.setattr(mnr, "_STEP_FACTOR", step_factor)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        _, trace = estimate_fundamental(sig, 4)
        lam0 = trace.records[0].lam
        n1 = int(500 ** (6.0 / 7.0))
        gp, gpp = g_derivatives(Signal(sig.samples[:n1]), 4, lam0)
        assert trace.records[1].correction == -step_factor * gp / gpp
        assert trace.records[1].lam == lam0 + trace.records[1].correction
        assert trace.records[1].sample_size_used == n1

    def test_near_zero_correction_from_true_frequency(self, m1_clean_1000, monkeypatch):
        # noiseless data: the true frequency maximizes g on the subsample
        # too, so a start there barely moves
        monkeypatch.setattr(mnr, "fourier_grid_init", lambda *args: 0.25)
        _, trace = estimate_fundamental(m1_clean_1000, 4)
        assert trace.records[0].lam == 0.25
        assert abs(trace.records[1].correction) < 1e-5

    @pytest.mark.parametrize("n", [500, 4000])
    def test_shared_start_pass(self, model1, n):
        # record 0's g and the stage-2 derivatives share one pass; the step
        # equals the one from a separate subsample pass.
        sig = synthesize(model1, n, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        _, trace = estimate_fundamental(sig, 4)
        lam0 = trace.records[0].lam
        n1 = trace.records[1].sample_size_used
        assert n1 == int(n ** (6.0 / 7.0))
        gp, gpp = g_derivatives(Signal(sig.samples[:n1]), 4, lam0)
        assert trace.records[1].correction == -0.25 * gp / gpp
        assert trace.records[0].g_value == pytest.approx(g(sig, 4, lam0), rel=1e-13)

    @pytest.mark.parametrize("n, n1", [(128, 64), (2187, 729), (16384, 4096), (127, 63), (500, 205)])
    def test_subsample_size_is_exact_floor(self, n, n1):
        # int(128 ** (6/7)) is 63: the float power rounds down past the root
        assert mnr._subsample_size(n) == n1

    def test_subsample_at_a_seventh_power(self, model1):
        _, trace = estimate_fundamental(synthesize(model1, 128), 4)
        assert trace.records[1].sample_size_used == 64

    def test_step_leaving_interval_ends_boundary(self, model1, monkeypatch):
        # unlike a stage-3 step, the stage-2 step is not halved: leaving
        # (0, pi/p) ends the run with the grid start
        start = mnr.g_and_prefix_derivatives

        def steep(signal, p, lam, n1):
            return start(signal, p, lam, n1)[0], (1.0, -1e-9)

        monkeypatch.setattr(mnr, "g_and_prefix_derivatives", steep)
        lam_hat, trace = estimate_fundamental(synthesize(model1, 500), 4)
        assert trace.status == "boundary"
        assert len(trace.records) == 1
        assert lam_hat == trace.records[0].lam


class TestEstimateFundamental:
    def test_noisy_model1(self, model1):
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert abs(lam_hat - 0.25) < 1e-3
        assert trace.status in ("converged_tol", "converged_objective", "max_iter")

    def test_noiseless_model1_512(self, m1_clean_512):
        # The true frequency sits 0.37 Fourier bins off the grid 2*pi*k/512.
        # The start searches the 8x padded grid, whose nearest point is
        # 2*pi*163/4096; the refinement then reaches the least squares
        # maximizer, which for noiseless data is the true frequency.
        lam_hat, trace = estimate_fundamental(m1_clean_512, 4)
        assert trace.records[0].lam == pytest.approx(2 * math.pi * 163 / 4096, abs=1e-12)
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
        # sample sizes: full for the grid start, n1 for stage 2, full after
        n1 = int(500 ** (6.0 / 7.0))
        sizes = [r.sample_size_used for r in trace.records]
        assert sizes[0] == 500 and sizes[1] == n1
        assert all(s == 500 for s in sizes[2:])
        # a converged_tol run returns the landing point of its closing step,
        # whose g ties the largest g seen to rounding
        assert trace.status == "converged_tol"
        assert lam_hat == trace.records[-1].lam
        best = max(r.g_value for r in trace.records)
        assert trace.records[-1].g_value >= best * (1 - 1e-12)

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

    def test_singular_subsample_reports_degenerate(self, model1, monkeypatch):
        # singular normal equations on the stage-2 subsample: the run ends
        # with the grid start and a degenerate status
        start = mnr.g_and_prefix_derivatives

        def singular_prefix(signal, p, lam, n1):
            return start(signal, p, lam, n1)[0], None

        monkeypatch.setattr(mnr, "g_and_prefix_derivatives", singular_prefix)
        sig = synthesize(model1, 100, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "degenerate"
        assert len(trace.records) == 1
        assert trace.evaluations == 2
        assert lam_hat == trace.records[0].lam

    @pytest.mark.parametrize("failing", [100, 51])
    def test_factors_of_the_start_pass(self, model1, monkeypatch, failing):
        # the shared pass factors X'X twice, full sample first: a singular
        # full sample raises out of the estimate, a singular 51-sample
        # prefix ends the run degenerate after record 0
        whitened = criterion._whitened
        sizes = []

        def guarded(mom, n, lam):
            sizes.append(n)
            if n == failing:
                raise DegenerateFrequencyError(f"singular over {n} samples")
            return whitened(mom, n, lam)

        monkeypatch.setattr(criterion, "_whitened", guarded)
        sig = synthesize(model1, 100, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        if failing == 100:
            with pytest.raises(DegenerateFrequencyError):
                estimate_fundamental(sig, 4)
            assert sizes == [100]
        else:
            _, trace = estimate_fundamental(sig, 4)
            assert trace.status == "degenerate"
            assert len(trace.records) == 1
            assert sizes == [100, 51]

    def test_singular_subsample_ends_degenerate_on_a_repeated_start(self, model1, monkeypatch):
        # harmonic 4 near pi: X'X over the first 955 samples is below its
        # pivot floor, over all 3000 it is not.  The run that keeps the
        # start's rows and factors and the one that reads them end
        # degenerate after record 0, as the fresh one does
        monkeypatch.setattr(mnr, "fourier_grid_init", lambda *args: math.pi / 4 - 4e-9)
        sig = synthesize(model1, 3000, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        kept = []
        for _ in range(3):
            lam_hat, trace = estimate_fundamental(sig, 4)
            assert trace.status == "degenerate"
            assert len(trace.records) == 1
            assert trace.evaluations == 2
            assert lam_hat == math.pi / 4 - 4e-9
            kept.append(criterion._last_start[1])
        assert kept[0] is None and kept[1] is not None and kept[2] is kept[1]

    def test_inadmissible_grid_point_not_used_as_start(self):
        # pure noise whose spectrum peaks at the top of the grid: the start
        # used to be pi itself, where X'X is singular and record 0's g raised
        y = np.random.default_rng(9).normal(0.0, 1.0, 60)
        lam_hat, trace = estimate_fundamental(Signal(y), 1)
        assert 0.0 < trace.records[0].lam < math.pi
        assert 0.0 < lam_hat < math.pi


class TestStage3:
    """Full Newton steps, the curvature guard and the evaluation count."""

    def test_positive_curvature_ends_converged_objective(self, model1, monkeypatch):
        # with g'' > 0 at the stage-2 iterate no Newton step points uphill:
        # the run takes none and must not claim converged_tol
        def convex(signal, p, lam):
            g_val, gp, gpp = g_with_derivatives(signal, p, lam)
            return g_val, gp, abs(gpp) + 1.0

        monkeypatch.setattr(mnr, "g_with_derivatives", convex)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "converged_objective"
        assert len(trace.records) == 2
        assert trace.evaluations == 3
        assert lam_hat == trace.best().lam

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
        # point with g'' > 0 and reported converged_tol there
        sig = Signal(np.random.default_rng(seed).normal(0.0, 1.0, n))
        lam_hat, trace = estimate_fundamental(sig, 1)
        gpp = g_with_derivatives(sig, 1, lam_hat)[2]
        assert trace.status == "converged_objective" or gpp < 0.0
        assert lam_hat == trace.best().lam

    @staticmethod
    def _count_calls(monkeypatch) -> list[str]:
        """Log every criterion call that ``estimate_fundamental`` makes."""
        calls = []
        inner = mnr.g_with_derivatives

        def counted(*args):
            calls.append("g_with_derivatives")
            return inner(*args)

        monkeypatch.setattr(mnr, "g_with_derivatives", counted)
        start = mnr.g_and_prefix_derivatives

        def counted_start(*args):
            # record 0's g and the stage-2 derivatives
            calls.extend(["g", "g_derivatives"])
            return start(*args)

        monkeypatch.setattr(mnr, "g_and_prefix_derivatives", counted_start)
        return calls

    def test_evaluations_count_every_criterion_call(self, monkeypatch):
        # pure noise, p = 1, n = 60, seed 1: three halved stage-3 steps, so
        # the trace has more evaluations than records.  The run ends
        # converged_tol, whose closing record takes no pass: g runs once,
        # for record 0, and a derivative pass is the last call
        calls = self._count_calls(monkeypatch)
        sig = Signal(np.random.default_rng(1).normal(0.0, 1.0, 60))
        _, trace = estimate_fundamental(sig, 1)
        assert trace.evaluations == len(calls)
        assert trace.evaluations > len(trace.records)
        assert trace.status == "converged_tol"
        assert calls.count("g") == 1
        assert calls[:2] == ["g", "g_derivatives"]
        assert calls[-1] == "g_with_derivatives"

    def test_pass_budget_at_the_table_sizes(self, model1):
        # MODEL1, MA(1), sigma2 = 0.25, seeds 0-99 at each n: every run took
        # 5 evaluations when measured (4 at n = 100 for 2 of seeds 0-199);
        # a change that adds a pass back moves the median to 6
        noise = LinearProcessSpec((1.0, 0.5), 0.25)
        counts = [estimate_fundamental(synthesize(model1, n, noise, seed=seed), 4)[1].evaluations
                  for n in (100, 200, 400, 500) for seed in range(100)]
        assert np.median(counts) == 5
        assert max(counts) <= 5

    @pytest.mark.parametrize("noise", [None, LinearProcessSpec((1.0, 0.5), 0.25)],
                             ids=["noiseless", "ma1"])
    def test_each_pass_builds_the_phases_once(self, model1, monkeypatch, noise):
        # one routine builds the design of every pass: on a fresh start the
        # start pass, each stage-3 pass and the amplitude fit call _phases
        # once each
        calls = []
        inner = criterion._phases
        monkeypatch.setattr(criterion, "_phases", lambda *args: calls.append(args) or inner(*args))
        sig = synthesize(model1, 500, noise, seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert calls[0] == (trace.records[0].lam, 500, 4)
        assert len(calls) == 1 + (trace.evaluations - 2)
        lse_linear(sig, lam_hat, 4)
        assert len(calls) == trace.evaluations
        assert calls[-1] == (lam_hat, 500, 4)

    def test_step_cap_ends_max_iter(self, model1, monkeypatch):
        # one stage-3 step allowed, and it is longer than _TOL: the run stops
        # there and returns the best iterate
        monkeypatch.setattr(mnr, "_MAX_ITER", 1)
        calls = self._count_calls(monkeypatch)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert abs(trace.records[2].correction) >= mnr._TOL
        assert trace.status == "max_iter"
        assert len(trace.records) == 3
        assert lam_hat == trace.best().lam
        assert trace.evaluations == len(calls)

    @pytest.mark.parametrize("preset", [1, 2])
    def test_noiseless_sweep_returns_landing_point(self, model1, model2, preset):
        # at preset 1, n = 500 the closing step lands on lambda exactly but a
        # measured g there rounds below the previous iterate's; a best-g rule
        # returned that earlier iterate, 5.1e-11 off
        model = model1 if preset == 1 else model2
        for n in [*range(100, 2051, 50), 4000, 8000]:
            lam_hat, trace = estimate_fundamental(synthesize(model, n), 4)
            assert trace.status == "converged_tol", n
            assert lam_hat == trace.records[-1].lam
            assert abs(lam_hat - model.lam) <= 1e-12, n

    def test_step_leaving_interval_is_halved(self):
        # pure noise, p = 1, n = 60, seed 0: the first full stage-3 step
        # overshoots 0; the halved steps reach a maximum of g inside (0, pi)
        sig = Signal(np.random.default_rng(0).normal(0.0, 1.0, 60))
        lam_hat, trace = estimate_fundamental(sig, 1)
        assert trace.status == "converged_tol"
        assert 0.0 < lam_hat < math.pi
        assert g_with_derivatives(sig, 1, lam_hat)[2] < 0.0

    @staticmethod
    def _failing_from(monkeypatch, call, fail):
        """Patch stage 3's g_with_derivatives so that from its ``call``-th
        call on, ``fail(values)`` replaces the true (g, g', g'')."""
        calls = []

        def patched(signal, p, lam):
            calls.append(lam)
            values = g_with_derivatives(signal, p, lam)
            return fail(values) if len(calls) >= call else values

        monkeypatch.setattr(mnr, "g_with_derivatives", patched)
        return calls

    @pytest.mark.parametrize("call", [1, 2])
    def test_singular_stage3_iterate_ends_degenerate(self, model1, monkeypatch, call):
        # singular normal equations at the stage-2 iterate (call 1) or at a
        # stage-3 trial point (call 2): the run ends with the best iterate
        def singular(values):
            raise DegenerateFrequencyError("singular normal equations")

        calls = self._failing_from(monkeypatch, call, singular)
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "degenerate"
        assert len(calls) == call
        assert trace.evaluations == 2 + call
        # the stage-2 iterate is recorded only once its g is known
        assert len(trace.records) == call
        assert lam_hat == trace.best().lam

    @pytest.mark.parametrize("call", [1, 2])
    def test_nan_curvature_ends_degenerate(self, model1, monkeypatch, call):
        # a NaN g'' is not >= 0, so it passes the converged_objective test;
        # the Newton step then finds no curvature and the run ends degenerate
        self._failing_from(monkeypatch, call, lambda v: (v[0], v[1], math.nan))
        sig = synthesize(model1, 500, LinearProcessSpec((1.0, 0.5), 0.25), seed=30)
        lam_hat, trace = estimate_fundamental(sig, 4)
        assert trace.status == "degenerate"
        assert len(trace.records) == call + 1
        assert lam_hat == trace.best().lam

    def test_closing_step_leaving_interval_ends_boundary(self, model1, monkeypatch):
        # a stage-3 step shorter than _TOL is not halved further: when it
        # leaves (0, pi/p) the run ends boundary, without evaluating there
        monkeypatch.setattr(mnr, "_TOL", 1.0)
        calls = self._failing_from(monkeypatch, 1, lambda v: (v[0], -0.5, -1.0))
        lam_hat, trace = estimate_fundamental(synthesize(model1, 500), 4)
        assert trace.status == "boundary"
        assert len(calls) == 1
        assert trace.evaluations == 3
        assert len(trace.records) == 2
        assert lam_hat == trace.best().lam

    @pytest.mark.parametrize("preset", [1, 2])
    @pytest.mark.parametrize("n", [100, 512, 2000, 8000])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_step_count_regression_guard(self, model1, model2, preset, n, noisy):
        # full steps from the stage-2 iterate: at most 6 records measured
        # over these inputs, against 20-30 with quarter steps
        model = model1 if preset == 1 else model2
        noise = LinearProcessSpec((1.0, 0.5), 0.25) if noisy else None
        _, trace = estimate_fundamental(synthesize(model, n, noise, seed=0), 4)
        assert trace.status == "converged_tol"
        assert len(trace.records) <= 8
        assert trace.evaluations <= 8


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

    def test_step_factor_quarter_not_worse(self, model1, monkeypatch):
        # Regression guard, not a theorem-level claim: stage-2 factors 1/8
        # and 1/2 must not beat 1/4 materially.  The factor scales only the
        # subsample step; stage 3 then takes full Newton steps to the same
        # criterion maximizer, so the paired MSEs tie (measured: 2.2185e-10
        # for all three, equal to 6 digits); the guard allows that tie but
        # catches a real regression.
        from fundfreq import ExperimentSpec, run_experiment

        mse = {}
        for sf in (0.125, 0.25, 0.5):
            monkeypatch.setattr(mnr, "_STEP_FACTOR", sf)
            spec = ExperimentSpec(
                model=model1,
                noise_coeffs=(1.0, 0.5),
                sample_sizes=(500,),
                sigma2_values=(0.25,),
                replications=300,
                master_seed=200,
            )
            row = run_experiment(spec)[0]
            mse[sf] = row.empirical_variance + (row.mean_estimate - 0.25) ** 2
        assert mse[0.125] >= mse[0.25] * 0.98
        assert mse[0.5] >= mse[0.25] * 0.98


def _preset_trace_inputs():
    """(key, signal): both presets at five n, noiseless and MA(1) noise."""
    for preset, model in ((1, MODEL1), (2, MODEL2)):
        for n in (100, 137, 500, 1009, 2050):
            yield f"p{preset} n={n} clean", synthesize(model, n)
            noise = LinearProcessSpec((1.0, 0.5), 0.25)
            yield f"p{preset} n={n} ma1", synthesize(model, n, noise, seed=n)


def _trace_summary(signal):
    lam_hat, trace = estimate_fundamental(signal, 4)
    records = [[r.iteration, r.lam, r.sample_size_used, r.g_value, r.correction]
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
        return json.loads(PRESET_TRACES.read_text())

    @pytest.mark.parametrize(
        "key, signal", [pytest.param(k, s, id=k) for k, s in _preset_trace_inputs()]
    )
    def test_trace_matches_recorded(self, recorded, key, signal):
        got, want = _trace_summary(signal), recorded[key]
        assert (got["status"], got["evaluations"]) == (want["status"], want["evaluations"])
        assert got["lambda_hat"] == pytest.approx(want["lambda_hat"], rel=0, abs=1e-12)
        assert len(got["records"]) == len(want["records"])
        for (it, lam, size, g_value, _), (w_it, w_lam, w_size, w_g, _) in zip(
            got["records"], want["records"]
        ):
            assert (it, size) == (w_it, w_size)
            assert lam == pytest.approx(w_lam, rel=0, abs=1e-12)
            assert g_value == pytest.approx(w_g, rel=1e-12, abs=0)


if __name__ == "__main__":
    PRESET_TRACES.parent.mkdir(exist_ok=True)
    traces = {key: _trace_summary(sig) for key, sig in _preset_trace_inputs()}
    PRESET_TRACES.write_text(json.dumps(traces, indent=1) + "\n")
