"""Spectral views of a harmonic signal and the coarse frequency start.

Compares the plain periodogram I(lambda) with the harmonic criterion
Q_N(lambda), and shows why the grid start maximizes the harmonic sum:
when one harmonic dominates, the plain periodogram peaks at that
harmonic instead of the fundamental.
"""

import math

import numpy as np

from fundfreq import (
    HarmonicModel,
    LinearProcessSpec,
    fourier_grid_init,
    grid_spectrum,
    synthesize,
)
from fundfreq.montecarlo import MODEL1

sig = synthesize(MODEL1, n=500, noise=LinearProcessSpec((1.0, 0.5), 0.25), seed=3)

# Periodogram peaks appear at every harmonic j * 0.25.  I on the Fourier grid
# 2*pi*k/n comes from one FFT, by the routine the start uses.
lams, i_vals, _ = grid_spectrum(sig, 1)
for j in range(1, 5):
    near = (lams > 0.25 * j - 0.04) & (lams < 0.25 * j + 0.04)
    peak = lams[near][np.argmax(i_vals[near])]
    print(f"periodogram peak near harmonic {j}: {peak:.4f} (true {0.25 * j})")

# The harmonic criterion concentrates all four peaks at the fundamental.
grid, _, q_vals = grid_spectrum(sig, 4)
print(f"\nQ_N argmax over the Fourier grid: {grid[int(np.argmax(q_vals))]:.6f}")
print("grid spacing 2*pi/n =", f"{2 * math.pi / sig.n:.6f}")
print("padded grid start, FFT length >= 8n (used by estimate_fundamental):",
      f"{fourier_grid_init(sig, 4):.6f}")

# A dominant second harmonic fools the plain periodogram but not Q_N.
lam = 2 * math.pi * 12 / 256
tricky = synthesize(HarmonicModel(2, lam, ((0.1, 0.0), (5.0, 0.0))), 256)
grid, i_vals, q_vals = grid_spectrum(tricky, 2)
print(f"\ndominant-2nd-harmonic example (true lambda {lam:.4f}):")
print(f"  Q_N argmax over the Fourier grid : {grid[int(np.argmax(q_vals))]:.4f}")
print(f"  I argmax over the Fourier grid   : {grid[int(np.argmax(i_vals))]:.4f}"
      f"  <- locks onto 2*lambda = {2 * lam:.4f}")
print(f"  padded grid start (length >= 8n) : {fourier_grid_init(tricky, 2):.4f}")
