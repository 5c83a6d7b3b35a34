"""Full estimation walkthrough: frequency, amplitudes, residuals.

Runs the two-stage refinement (padded-grid start, then full Newton steps
until a step is shorter than 1e-7, the tolerance up to n = 2154) and prints
the iterate trace and its count of criterion evaluations, then recovers amplitudes at the estimated frequency
and checks the residual spectrum.
"""

import numpy as np

from fundfreq import (
    LinearProcessSpec,
    estimate_fundamental,
    lse_linear,
    residuals,
    sample_acf,
    synthesize,
)
from fundfreq.montecarlo import MODEL1

noise = LinearProcessSpec((1.0, 0.5), 0.25)
sig = synthesize(MODEL1, n=500, noise=noise, seed=11)

lam_hat, trace = estimate_fundamental(sig, p=4)
print(f"lambda_hat = {lam_hat:.8f}   (true 0.25)   status = {trace.status}")
print(f"trace ({trace.evaluations} criterion evaluations; "
      "iteration, lambda, correction):")
for r in trace.records:
    print(f"  {r.iteration:2d}  lam={r.lam:.10f}  corr={r.correction:+.2e}")

# Amplitudes: the 2p-column solve (exact normal equations) and each
# harmonic's own 2x2 solve, the p = 1 case at j*lambda_hat, which leaks
# O(1/n) between harmonics.
per = [lse_linear(sig, j * lam_hat, 1)[0] for j in range(1, 5)]
full = lse_linear(sig, lam_hat, 4)
print("\nharmonic   truth            per-harmonic      2p-column")
for j, (truth, a, b) in enumerate(zip(MODEL1.amplitudes, per, full), 1):
    print(f"  {j}      ({truth[0]:.2f}, {truth[1]:.2f})   "
          f"({a[0]:5.2f}, {a[1]:5.2f})   ({b[0]:5.2f}, {b[1]:5.2f})")

# Residual diagnostics: variance near the noise process variance (0.3125)
# and short-memory autocorrelation (MA(1) lag-1 correlation 0.4).
res = residuals(sig, lam_hat, full)
acf = sample_acf(res, 5)
print(f"\nresidual variance {res.var():.4f} (noise process variance "
      f"{noise.process_variance:.4f})")
print("residual ACF:", np.round(acf, 3))
