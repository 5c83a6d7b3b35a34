"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 3 and 4 run 500-replication Monte Carlo cells with the
harness default master seed (0) and are deterministic; tolerances are
asserted exactly as stated, not tuned to the implementation.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fundfreq import (
    ExperimentSpec,
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    asymptotic_variances,
    estimate_fundamental,
    g,
    lse_linear,
    run_experiment,
    summary_csv_lines,
    synthesize,
)
from fundfreq.criterion import g_derivatives
from fundfreq.montecarlo import MODEL1, MODEL2
from conftest import fd_derivatives

IID = (1.0,)
MA1 = (1.0, 0.5)


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_1_asymptotic_variance_tables():
    """Closed-form variances match the benchmark tables to 1%."""
    t0 = time.time()
    cases = [
        (MODEL1, IID, 0.01, 100, 6.36e-10, 1.59e-10),
        (MODEL1, MA1, 0.01, 100, 1.25e-9, 3.13e-10),
        (MODEL2, IID, 0.01, 100, 1.63e-9, 4.08e-10),
        (MODEL2, MA1, 1.0, 1000, 3.09e-10, 7.73e-11),
    ]
    worst = 0.0
    for model, coeffs, sigma2, n, lse_ref, mnr_ref in cases:
        rep = asymptotic_variances(model, LinearProcessSpec(coeffs, sigma2), n)
        worst = max(
            worst,
            abs(rep.var_lse - lse_ref) / lse_ref,
            abs(rep.var_mnr - mnr_ref) / mnr_ref,
        )
    ok = worst <= 0.01
    report(1, ok, f"worst relative deviation {worst:.2e} (tol 1e-2), "
                  f"{time.time() - t0:.2f}s")
    assert ok


def test_criterion_2_variance_ratio_exactly_four():
    """var_lse / var_mnr = 4 for 100 randomized models (tol 1e-12)."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 7))
        amps = tuple((float(a), float(b)) for a, b in rng.uniform(0.2, 5.0, (p, 2)))
        model = HarmonicModel(p, float(rng.uniform(0.03, 0.9) * math.pi / p), amps)
        spec = LinearProcessSpec(
            tuple(float(c) for c in rng.uniform(-1.0, 1.0, int(rng.integers(1, 5)))
                  ) if rng.random() < 0.5 else (1.0,),
            float(rng.uniform(0.005, 3.0)),
        )
        rep = asymptotic_variances(model, spec, int(rng.integers(40, 3000)))
        worst = max(worst, abs(rep.var_lse / rep.var_mnr - 4.0))
    ok = worst <= 1e-12
    report(2, ok, f"worst |ratio - 4| = {worst:.2e} (tol 1e-12), "
                  f"{time.time() - t0:.2f}s")
    assert ok


def test_criterion_3_monte_carlo_model1():
    """Model 1, MA(1), n=500, sigma2=0.25, 500 reps: mean and variance bands.

    The upper variance bound asserts strict super-efficiency relative to the
    least squares asymptote.  The refinement run to convergence lands on the
    least squares estimate, whose measured variance at this cell sits on
    that asymptote (5000-replication ratios 1.067 +- 0.021 and
    1.091 +- 0.022 for master seeds 0 and 1), so the strict bound is not
    met; see the "Known numerical limits" section of the README.
    """
    t0 = time.time()
    spec = ExperimentSpec(
        model=MODEL1, noise_coeffs=MA1, sample_sizes=(500,), sigma2_values=(0.25,),
        replications=500, master_seed=0,
    )
    row = run_experiment(spec)[0]
    elapsed = time.time() - t0
    mean_ok = 0.2495 <= row.mean_estimate <= 0.2505
    upper_ok = row.empirical_variance < row.asym_var_lse
    lower_ok = row.empirical_variance > 0.5 * row.asym_var_mnr
    ok = mean_ok and upper_ok and lower_ok and elapsed <= 120.0
    report(3, ok,
           f"mean {row.mean_estimate:.6f} in [0.2495, 0.2505]: {mean_ok}; "
           f"variance {row.empirical_variance:.4e} < lse {row.asym_var_lse:.4e}: {upper_ok}; "
           f"> half-mnr {0.5 * row.asym_var_mnr:.4e}: {lower_ok}; {elapsed:.0f}s")
    assert mean_ok
    assert upper_ok
    assert lower_ok
    assert elapsed <= 120.0


def test_criterion_4_monte_carlo_model2():
    """Model 2, MA(1), n=400, sigma2=0.25, 500 reps: mean band, LSE bound."""
    t0 = time.time()
    spec = ExperimentSpec(
        model=MODEL2, noise_coeffs=MA1, sample_sizes=(400,), sigma2_values=(0.25,),
        replications=500, master_seed=0,
    )
    row = run_experiment(spec)[0]
    elapsed = time.time() - t0
    mean_ok = 0.3136 <= row.mean_estimate <= 0.3146
    var_ok = row.empirical_variance < 1.21e-9
    ok = mean_ok and var_ok and elapsed <= 120.0
    report(4, ok,
           f"mean {row.mean_estimate:.6f} in [0.3136, 0.3146]: {mean_ok}; "
           f"variance {row.empirical_variance:.4e} < 1.21e-9: {var_ok}; {elapsed:.0f}s")
    assert mean_ok
    assert var_ok
    assert elapsed <= 120.0


def test_criterion_5_derivative_correctness():
    """Analytic derivatives vs central differences: g' < 1e-4, g'' < 1e-3."""
    t0 = time.time()
    rng = np.random.default_rng(55)
    lams = np.linspace(0.05, math.pi / 4 - 0.02, 20)
    worst_gp = worst_gpp = 0.0
    for seed in range(5):
        amps = tuple((float(a), float(b)) for a, b in rng.uniform(0.5, 3.0, (4, 2)))
        model = HarmonicModel(4, float(rng.uniform(0.15, 0.6)), amps)
        sig = synthesize(model, 400, LinearProcessSpec(MA1, 0.25), seed=seed)
        for lam in lams:
            h = 1e-6 * max(1.0, abs(lam))
            fd1, fd2 = fd_derivatives(lambda x: g(sig, 4, x), lam, h)
            gp, gpp = g_derivatives(sig, 4, lam)
            worst_gp = max(worst_gp, abs(gp - fd1) / abs(fd1))
            worst_gpp = max(worst_gpp, abs(gpp - fd2) / abs(fd2))
    ok = worst_gp < 1e-4 and worst_gpp < 1e-3
    report(5, ok, f"worst rel err g' {worst_gp:.2e} (tol 1e-4), "
                  f"g'' {worst_gpp:.2e} (tol 1e-3), {time.time() - t0:.1f}s")
    assert worst_gp < 1e-4
    assert worst_gpp < 1e-3


def test_criterion_6_curvature_limit():
    """Noiseless model 1, n=1000: g''(0.25)/(2n^3) within 5% of -beta*/24."""
    t0 = time.time()
    sig = synthesize(MODEL1, 1000)
    _, gpp = g_derivatives(sig, 4, 0.25)
    beta_star = sum(j * j * (a * a + b * b)
                    for j, (a, b) in enumerate(MODEL1.amplitudes, start=1))
    assert beta_star == pytest.approx(377.5625, abs=1e-12)
    target = -beta_star / 24.0
    value = gpp / (2.0 * 1000.0**3)
    rel = abs(value - target) / abs(target)
    ok = rel < 0.05
    report(6, ok, f"g''/(2n^3) = {value:.4f} vs {target:.4f} "
                  f"(rel {rel:.3f}, tol 0.05), {time.time() - t0:.1f}s")
    assert ok


def test_criterion_7_noiseless_exactness():
    """|lambda_hat - lambda| < 1e-8 and amplitude error < 1e-6, both presets,
    n=512.

    Stated tolerances are asserted as written.  Both preset frequencies fall
    ~0.4 Fourier bins off the grid 2*pi*k/512; the padded-grid start, the
    exact least squares criterion (whose noiseless maximizer is the true
    frequency), the full Newton steps of stage 3 (quadratic convergence)
    and the joint amplitude solve together recover both to rounding
    accuracy.
    """
    t0 = time.time()
    details = []
    all_ok = True
    for name, model in (("preset-1", MODEL1), ("preset-2", MODEL2)):
        sig = synthesize(model, 512)
        lam_hat, _ = estimate_fundamental(sig, model.p)
        amps = lse_linear(sig, lam_hat, model.p)
        amp_err = max(
            max(abs(a - ta), abs(b - tb))
            for (a, b), (ta, tb) in zip(amps, model.amplitudes)
        )
        lam_err = abs(lam_hat - model.lam)
        details.append(f"{name}: |dlam| = {lam_err:.2e}, amp err = {amp_err:.2e}")
        all_ok = all_ok and lam_err < 1e-8 and amp_err < 1e-6
    report(7, all_ok, "; ".join(details) +
           f" (tol 1e-8 / 1e-6), {time.time() - t0:.1f}s")
    assert all_ok


def test_criterion_8_scale_invariant_trace():
    """Full trace identical (<= 1e-10 per iterate) under y -> 1000 y."""
    t0 = time.time()
    sig = synthesize(MODEL1, 500, LinearProcessSpec(MA1, 0.25), seed=32)
    scaled = Signal(1000.0 * sig.samples)
    _, tr_a = estimate_fundamental(sig, 4)
    _, tr_b = estimate_fundamental(scaled, 4)
    same_len = len(tr_a.records) == len(tr_b.records)
    worst = max(
        (abs(ra.lam - rb.lam) for ra, rb in zip(tr_a.records, tr_b.records)),
        default=math.inf,
    ) if same_len else math.inf
    ok = same_len and worst <= 1e-10
    report(8, ok, f"iterates {len(tr_a.records)} vs {len(tr_b.records)}, "
                  f"worst |dlam| = {worst:.2e} (tol 1e-10), {time.time() - t0:.1f}s")
    assert ok


def test_criterion_9_simulate_determinism():
    """Same master seed: the grid's CSV is byte-identical to its cells run
    one by one, and to a repeat run."""
    t0 = time.time()
    spec = ExperimentSpec(
        model=MODEL1, noise_coeffs=MA1, sample_sizes=(100, 200),
        sigma2_values=(0.25,), replications=50, master_seed=17,
    )
    csv_grid = "\n".join(summary_csv_lines(run_experiment(spec)))
    csv_cells = "\n".join(summary_csv_lines([
        row for n in spec.sample_sizes
        for row in run_experiment(dataclasses.replace(spec, sample_sizes=(n,)))
    ]))
    csv_again = "\n".join(summary_csv_lines(run_experiment(spec)))
    ok = csv_grid == csv_cells == csv_again
    report(9, ok, f"byte-identical across runs and against cells run alone: {ok}, "
                  f"{time.time() - t0:.1f}s")
    assert ok
