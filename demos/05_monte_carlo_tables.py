"""Reproduce a simulation summary table with the deterministic harness.

Each (n, sigma2) cell runs seeded replications whose streams derive from
(master seed, n, sigma2, replication index), so rows are reproducible
bit-for-bit on any machine, whether a cell runs alone or within the grid.
The desk-scale default below uses 200 replications per cell; raise
``REPS`` to 5000 for a full reproduction run (about 1.6 s per cell at
n = 100 and 2.1 s at n = 500 on a 2-core x86 host; see the README).
"""

import time

from fundfreq import ExperimentSpec, run_experiment, summary_csv_lines
from fundfreq.montecarlo import MODEL1

REPS = 200

spec = ExperimentSpec(
    model=MODEL1,
    noise_coeffs=(1.0, 0.5),        # e(t) = eps(t) + 0.5 eps(t-1)
    sample_sizes=(100, 200, 400, 500),
    sigma2_values=(0.01, 0.25),
    replications=REPS,
    master_seed=0,
)

t0 = time.perf_counter()
rows = run_experiment(spec)
elapsed = time.perf_counter() - t0
print("\n".join(summary_csv_lines(rows)))
print(f"\n{len(rows)} cells x {REPS} replications in {elapsed:.1f}s "
      f"({len(rows) * REPS / elapsed:.0f} replications/s)")
print("the averages track the true frequency (0.25) to about 1e-5; the\n"
      "empirical variances land near the asym_var_lse column because the\n"
      "refinement, run to convergence, settles on the least squares\n"
      "estimate (see the README section \"Known numerical limits\")")
