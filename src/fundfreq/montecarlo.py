"""Deterministic Monte Carlo replication harness.

Every replication draws its noise from a stream seed derived by hashing
(master_seed, n, sigma2, replication index) with BLAKE2b, so a cell's
results do not depend on execution order or on which other cells run in
the same process.  The noiseless samples are built once per sample size
and each replication adds its own noise draw to them, with the same
arithmetic as :func:`~fundfreq.signal.synthesize`, so every replication's
samples equal ``synthesize(model, n, noise, seed)`` bit for bit.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass

import numpy as np

from .asymptotics import asymptotic_variances
from .errors import DomainError, FundfreqError
from .mnr import estimate_fundamental
from .signal import (
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    _integer,
    generate_linear_process,
    synthesize,
)
from .spectrum import _check_sample_size

__all__ = [
    "MODEL1",
    "MODEL2",
    "MA1_NOISE_COEFFS",
    "ExperimentSpec",
    "SummaryRow",
    "replication_seed",
    "run_experiment",
    "summary_csv_lines",
]

log = logging.getLogger(__name__)

# Benchmark parameter sets used throughout the test suite and CLI presets.
MODEL1 = HarmonicModel(
    p=4,
    lam=0.25,
    amplitudes=((5.0, 3.0), (4.0, 2.5), (3.0, 2.25), (2.0, 2.0)),
)
MODEL2 = HarmonicModel(
    p=4,
    lam=0.3141,
    amplitudes=((4.0, 2.0), (3.0, 1.5), (2.0, 1.25), (1.0, 1.0)),
)

# First-order moving average e(t) = eps(t) + 0.5 eps(t-1).
MA1_NOISE_COEFFS = (1.0, 0.5)


def _int64(name: str, value) -> int:
    """value as a Python int (see ``signal._integer``) that fits in int64,
    the width at which :func:`replication_seed` packs it."""
    value = _integer(name, value)
    if not -(2**63) <= value < 2**63:
        raise DomainError(f"{name} must fit in int64, got {value}")
    return value


def replication_seed(master_seed: int, n: int, sigma2: float, rep: int) -> int:
    """64-bit stream seed for one replication.

    BLAKE2b digest of the little-endian packing (int64 master_seed,
    int64 n, float64 sigma2, int64 rep), truncated to 8 bytes.  Stable
    across platforms and releases; documented so results can be
    regenerated independently.  The three counts must be integers that
    fit in int64: anything else raises :class:`DomainError` naming it.
    """
    payload = struct.pack("<qqdq", _int64("master_seed", master_seed), _int64("n", n),
                          float(sigma2), _int64("rep", rep))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation experiment: a grid of (n, sigma2) cells.

    ``noise_coeffs`` are the moving-average weights a(0..q); ``(1.0,)``
    gives i.i.d. noise.  Innovation variances come from ``sigma2_values``.
    """

    model: HarmonicModel
    noise_coeffs: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    sigma2_values: tuple[float, ...]
    replications: int = 500
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _int64("master_seed", self.master_seed))
        object.__setattr__(self, "replications", _integer("replications", self.replications, 1))
        if not self.sample_sizes or not self.sigma2_values:
            raise DomainError("sample_sizes and sigma2_values must be nonempty")
        object.__setattr__(self, "noise_coeffs", tuple(float(c) for c in self.noise_coeffs))
        object.__setattr__(self, "sample_sizes",
                           tuple(_integer("sample size", n) for n in self.sample_sizes))
        object.__setattr__(self, "sigma2_values", tuple(float(s) for s in self.sigma2_values))
        _check_sample_size(min(self.sample_sizes), self.model.p, " in every cell")
        for sigma2 in self.sigma2_values:  # fail before any cell runs
            LinearProcessSpec(self.noise_coeffs, sigma2)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregated cell result (mean/variance over successful replications)."""

    n: int
    sigma2: float
    mean_estimate: float
    empirical_variance: float
    asym_var_lse: float
    asym_var_mnr: float
    failure_count: int
    replications: int

    @property
    def high_failure_rate(self) -> bool:
        """Flag for cells where more than 10% of replications failed."""
        return self.failure_count > 0.1 * self.replications


def _run_one(
    spec: ExperimentSpec, clean: np.ndarray, noise: LinearProcessSpec, rep: int
) -> float | None:
    n = clean.size
    seed = replication_seed(spec.master_seed, n, noise.sigma2, rep)
    # synthesize's arithmetic, with the noiseless part built once per n
    y = Signal(clean + generate_linear_process(noise, n, seed))
    try:
        lam_hat, trace = estimate_fundamental(y, spec.model.p)
    except FundfreqError:
        return None
    if trace.status in ("boundary", "degenerate"):
        return None
    return lam_hat


def run_experiment(spec: ExperimentSpec) -> list[SummaryRow]:
    """Run every (n, sigma2) cell of the experiment.

    Replications run one after another in index order and are aggregated
    in that order; each draws its noise from its own seed, so a
    cell's row is the same whether it runs alone or within a larger grid.
    The noiseless samples are built once per n and the noise spec once per
    (n, sigma2) cell; each replication is estimated by one call to
    ``estimate_fundamental``.
    """
    rows = []
    for n in spec.sample_sizes:
        clean = synthesize(spec.model, n).samples
        for sigma2 in spec.sigma2_values:
            noise = LinearProcessSpec(spec.noise_coeffs, sigma2)
            results = [_run_one(spec, clean, noise, r) for r in range(spec.replications)]
            estimates = np.array([x for x in results if x is not None])
            failures = spec.replications - estimates.size
            if estimates.size >= 2:
                mean = float(estimates.mean())
                var = float(estimates.var(ddof=1))
            elif estimates.size == 1:
                mean, var = float(estimates[0]), 0.0
            else:
                mean, var = float("nan"), float("nan")
            report = asymptotic_variances(spec.model, noise, n)
            row = SummaryRow(
                n=n,
                sigma2=sigma2,
                mean_estimate=mean,
                empirical_variance=var,
                asym_var_lse=report.var_lse,
                asym_var_mnr=report.var_mnr,
                failure_count=failures,
                replications=spec.replications,
            )
            if row.high_failure_rate:
                log.warning(
                    "cell n=%d sigma2=%g: %d/%d replications failed",
                    n, sigma2, failures, spec.replications,
                )
            rows.append(row)
    return rows


def summary_csv_lines(rows: list[SummaryRow]) -> list[str]:
    """Render rows as CSV (6 significant digits, scientific notation)."""
    lines = ["n,sigma2,average,variance,asym_var_lse,asym_var_mnr,failures"]
    for r in rows:
        lines.append(
            f"{r.n},{r.sigma2:.5e},{r.mean_estimate:.5e},{r.empirical_variance:.5e},"
            f"{r.asym_var_lse:.5e},{r.asym_var_mnr:.5e},{r.failure_count}"
        )
    return lines
