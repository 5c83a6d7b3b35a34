"""Closed-form asymptotic variances of the frequency estimators.

With beta* = sum_j j^2 (A_j^2 + B_j^2), the noise-spectrum weights
c(j) = |sum_k a(k) exp(-i j k lambda)|^2 and delta_G = sum_j j^2
(A_j^2 + B_j^2) c(j), the limiting distributions give per-observation
variances at sample size n:

    var_lse = 24 sigma^2 delta_G / (beta*^2 n^3)
    var_mnr =  6 sigma^2 delta_G / (beta*^2 n^3)

These divide the limiting variances of n^{3/2}(lambda_hat - lambda) by
n^3, so they compare directly against Monte Carlo variances of lambda_hat.
The mnr/lse ratio is exactly 1/4 for every model and noise spectrum.

var_lse is the law of the least squares estimate, the one
:func:`~fundfreq.mnr.estimate_fundamental` returns.  var_mnr is the law
the paper claims for its reduced-step estimator, not one this package's
estimator reaches: run to convergence, the estimate's variance sits on
var_lse (README, "Known numerical limits").
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .signal import HarmonicModel, LinearProcessSpec, _check_band, _integer

__all__ = ["AsymptoticReport", "spectral_weight_c", "asymptotic_variances"]


@dataclass(frozen=True)
class AsymptoticReport:
    """Variance report for one (model, noise, n) configuration.

    ``var_lse`` is the least squares law, the one the estimator reaches;
    ``var_mnr`` = var_lse/4 is the paper's claimed law for its reduced
    step, which no step schedule here has been shown to reach.
    """

    n: int
    sigma2: float
    beta_star: float
    delta_g: float
    c_weights: tuple[float, ...]
    var_lse: float
    var_mnr: float


def spectral_weight_c(spec: LinearProcessSpec, j: int, lam: float) -> float:
    """c(j) = |sum_k a(k) exp(-i j k lambda)|^2 (i.i.d. noise gives 1)."""
    j, lam = _check_band(j, lam)
    z = sum(a * cmath.exp(-1j * j * k * lam) for k, a in enumerate(spec.coeffs))
    return abs(z) * abs(z)  # ** raises OverflowError where * gives inf


def asymptotic_variances(
    model: HarmonicModel, spec: LinearProcessSpec, n: int
) -> AsymptoticReport:
    """Populate an :class:`AsymptoticReport` by direct summation over j."""
    n = _integer("n", n, 1)
    beta_star = delta_g = 0.0
    weights = []
    for j, power in enumerate(model.power_per_harmonic.tolist(), start=1):
        weights.append(spectral_weight_c(spec, j, model.lam))
        beta_star += j * j * power
        delta_g += j * j * power * weights[-1]
    try:  # Python floats and *, not **: out of range gives inf or 0, no warning
        denom = beta_star * beta_star * (float(n) * float(n) * float(n))
    except OverflowError:  # float(n) past the float range
        denom = math.inf
    if not 0.0 < denom < math.inf:
        raise DomainError(f"beta*^2 n^3 is out of the float range (beta* = {beta_star:.3e})")
    base = spec.sigma2 * delta_g / denom
    var_lse = 24.0 * base
    if not math.isfinite(var_lse):
        raise DomainError(f"var_lse is not finite ({var_lse}) at n = {n}")
    return AsymptoticReport(
        n=n,
        sigma2=spec.sigma2,
        beta_star=beta_star,
        delta_g=delta_g,
        c_weights=tuple(weights),
        var_lse=var_lse,
        var_mnr=6.0 * base,
    )
