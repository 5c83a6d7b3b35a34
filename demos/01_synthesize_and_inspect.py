"""Synthesize a harmonic signal with correlated noise and inspect it.

The observation model is a sum of p sinusoids at frequencies
lambda, 2*lambda, ..., p*lambda plus a stationary moving-average noise
process.  This script builds the benchmark 4-harmonic signal, shows the
deterministic part, the noise level, and round-trips it through the
plain-text serialization.
"""

import numpy as np

from fundfreq import (
    LinearProcessSpec,
    generate_linear_process,
    mean_correct,
    read_signal,
    synthesize,
    write_signal,
)
from fundfreq.montecarlo import MODEL1

noise = LinearProcessSpec(coeffs=(1.0, 0.5), sigma2=0.25)
sig = synthesize(MODEL1, n=500, noise=noise, seed=42)

print("model: p =", MODEL1.p, " lambda =", MODEL1.lam)
print("amplitude pairs:", MODEL1.amplitudes)
print("first five samples:", np.round(sig.samples[:5], 4))

# The noise process has stationary variance sigma2 * sum a(k)^2 = 0.3125.
e = generate_linear_process(noise, 20_000, seed=7)
print(f"noise variance: theoretical {noise.process_variance:.4f}, "
      f"sample {e.var():.4f}")

# Signal power dwarfs the noise here: per-harmonic powers A_j^2 + B_j^2.
print("per-harmonic power:", MODEL1.power_per_harmonic)

# Serialization round trip through a text file in the working directory.
write_signal(sig, "demo_signal.txt")
back = read_signal("demo_signal.txt")
print("round trip exact:", bool(np.array_equal(back.samples, sig.samples)))

# Mean correction is the standard preprocessing step for recorded data.
centered = mean_correct(sig)
print(f"mean before {sig.samples.mean():+.4f}, after {centered.samples.mean():+.1e}")
