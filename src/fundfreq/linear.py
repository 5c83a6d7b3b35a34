"""Amplitude recovery at a fixed frequency estimate, residuals, and the ACF.

The least squares amplitudes solve the normal equations of all 2p design
columns together, the same cached solve that defines the criterion g.
After an estimate that ends ``converged_tol``, the amplitudes at
lambda_hat read the solve of its closing g evaluation instead of repeating
it.  Harmonic j's own 2x2 solve is the p = 1 case at j*lambda_hat,
``lse_linear(signal, j * lambda_hat, 1)``.
"""

from __future__ import annotations

import numpy as np

from .criterion import _solve
from .errors import DomainError
from .signal import Signal, harmonic_sum

__all__ = ["lse_linear", "residuals", "sample_acf"]


def lse_linear(signal: Signal, lambda_hat: float, p: int) -> list[tuple[float, float]]:
    """Least squares amplitudes (A_j, B_j) at frequencies j*lambda_hat.

    The full 2p-column normal equations are solved, which recovers
    noiseless amplitudes to rounding accuracy.  Solving each harmonic from
    its own 2x2 normal equations instead would ignore the cross-harmonic
    design moments X_j'X_k, which are O(1) rather than O(n), and leave an
    O(1/n) leakage error.  The solve is scale-free: it runs on the
    signal's ``_unit`` view y 2^-e (see :class:`Signal`), the one the
    estimate runs on, and its amplitudes are scaled back by 2^e, so it
    holds up to the largest float and, after an out-of-range estimate,
    still reads its closing solve.
    """
    linv, z = _solve(signal._unit, p, lambda_hat)
    theta = np.ldexp(linv.T.dot(z), signal._exponent)
    return [(float(theta[2 * i]), float(theta[2 * i + 1])) for i in range(p)]


def residuals(
    signal: Signal, lambda_hat: float, amplitudes: list[tuple[float, float]]
) -> np.ndarray:
    """y(t) minus the fitted harmonic sum at lambda_hat."""
    return signal.samples - harmonic_sum(lambda_hat, amplitudes, signal.n)


def sample_acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelations r_0..r_max_lag (biased covariance convention).

    The divide-by-n convention keeps the implied covariance sequence
    positive semidefinite.  A constant series has no ACF.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if not (0 < max_lag < n):
        raise DomainError(f"need 0 < max_lag < n, got max_lag={max_lag}, n={n}")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise DomainError("ACF undefined for a constant series")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(xc[:-k] @ xc[k:]) / denom
    return out
