"""Fundamental frequency estimation for harmonic signals in correlated noise.

The package synthesizes p-harmonic signals with stationary moving-average
noise, estimates the fundamental frequency with a Newton-Raphson refinement
(a Fourier-grid start, then full Newton steps) of the least squares
projection criterion, recovers amplitudes, evaluates closed-form asymptotic
variances, and reproduces simulation tables with a deterministic Monte Carlo
harness.  Of the two variance laws, ``var_lse`` is the least squares one,
which this estimator reaches; ``var_mnr`` is the one the paper claims for
its reduced step, which no step schedule here has been shown to reach.
"""

from .asymptotics import AsymptoticReport, asymptotic_variances, spectral_weight_c
from .criterion import g
from .errors import DegenerateFrequencyError, DomainError, FundfreqError
from .linear import lse_linear, residuals, sample_acf
from .mnr import EstimationTrace, TraceRecord, estimate_fundamental
from .montecarlo import (
    MA1_NOISE_COEFFS,
    MODEL1,
    MODEL2,
    ExperimentSpec,
    SummaryRow,
    replication_seed,
    run_experiment,
    summary_csv_lines,
)
from .signal import (
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    generate_linear_process,
    mean_correct,
    read_signal,
    synthesize,
    write_signal,
)
from .spectrum import fourier_grid_init, grid_spectrum

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "DegenerateFrequencyError",
    "DomainError",
    "EstimationTrace",
    "ExperimentSpec",
    "FundfreqError",
    "HarmonicModel",
    "LinearProcessSpec",
    "MA1_NOISE_COEFFS",
    "MODEL1",
    "MODEL2",
    "Signal",
    "SummaryRow",
    "TraceRecord",
    "asymptotic_variances",
    "estimate_fundamental",
    "fourier_grid_init",
    "g",
    "generate_linear_process",
    "grid_spectrum",
    "lse_linear",
    "mean_correct",
    "read_signal",
    "replication_seed",
    "residuals",
    "run_experiment",
    "sample_acf",
    "spectral_weight_c",
    "summary_csv_lines",
    "synthesize",
    "write_signal",
]
