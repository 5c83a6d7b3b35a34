"""Periodogram, harmonic criterion, and the coarse Fourier-grid initializer.

:func:`periodogram` and :func:`harmonic_criterion_qn` evaluate I and Q_N
at any admissible frequency by direct exponential sums.  On the grid
2*pi*k/(L*n) both come from one real FFT of length L*n, where Q_N reads
harmonic j of grid point k from FFT bin j*k.  L = 1 is the Fourier grid
2*pi*k/n itself: :func:`grid_spectrum` returns the spectrum there (the
``fundfreq periodogram`` CSV), and :func:`fourier_grid_init` takes its
start from the same FFT code on any L.  A padded grid (L >= 4) keeps every
harmonic within a fraction of a bin of its peak, so an off-grid
fundamental does not lose the start to its octave 2*lambda (Rife &
Boorstyn, 1974, on padded-DFT starts).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .signal import Signal

__all__ = [
    "periodogram",
    "harmonic_criterion_qn",
    "fourier_grid",
    "fourier_grid_init",
    "grid_spectrum",
]


def periodogram(signal: Signal, lam: float) -> float:
    """Classical periodogram I(lam) = (1/n) |sum_t y(t) exp(-i lam t)|^2."""
    if not (0.0 < lam < math.pi):
        raise DomainError(f"lambda must lie in (0, pi), got {lam}")
    y = signal.samples
    n = y.size
    if n < 2:
        raise DomainError("periodogram needs n >= 2")
    t = np.arange(1, n + 1)
    z = y @ np.exp(-1j * lam * t)
    return float(abs(z) ** 2) / n


def harmonic_criterion_qn(signal: Signal, lam: float, p: int) -> float:
    """Harmonic periodogram sum Q_N(lam) = sum_j |(1/n) sum_t y(t) e^{i t j lam}|^2.

    For p = 1 this equals I(lam)/n.  Its maximizer over (0, pi/p) is the
    approximate least squares estimate of the fundamental frequency.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if not (0.0 < lam < math.pi / p):
        raise DomainError(
            f"need 0 < j*lambda < pi for all j <= p; got lambda = {lam}, p = {p}"
        )
    y = signal.samples
    n = y.size
    t = np.arange(1, n + 1)
    total = 0.0
    for j in range(1, p + 1):
        z = y @ np.exp(1j * (j * lam) * t)
        total += float(abs(z) ** 2)
    return total / n**2


def fourier_grid(n: int, p: int) -> np.ndarray:
    """Fourier frequencies 2*pi*k/n in (0, pi/p): k = 1..floor((n-1)/(2p)).

    Admissibility is the exact integer test 2pk < n; a float test on
    2*pi*k/n would keep the inadmissible point pi/p whenever 2pk = n and
    the product rounds below it.
    """
    ks = np.arange(1, (n - 1) // (2 * p) + 1)
    return 2.0 * math.pi * ks / n


def _grid_power(
    signal: Signal, p: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid 2*pi*k/(pad*n) in (0, pi/p) with the unscaled power sums on it.

    Returns ``(lams, plain, harmonic)``: ``plain[k-1]`` is |X_k|^2 and
    ``harmonic[k-1]`` is sum_{j<=p} |X_{jk}|^2, where X is the real FFT of
    the signal zero-padded to length ``pad*n``.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if not (isinstance(pad, int) and pad >= 1):
        raise DomainError(f"pad must be an integer >= 1, got {pad!r}")
    n = signal.n
    lams = fourier_grid(pad * n, p)
    if lams.size == 0:
        raise DomainError(f"no Fourier frequency lies in (0, pi/{p}) for n = {n}")
    # |sum_t y(t) e^{-i 2 pi k t/(pad n)}|^2 for bins k = 0..pad*n/2; the
    # time origin and the sign of the exponent drop out of the modulus.
    # Every j*k with j <= p stays below pad*n/2 because lams < pi/p.
    power = np.abs(np.fft.rfft(signal.samples, pad * n)) ** 2
    # Row j-1 holds the bins j*k; summing over axis 0 adds the rows in
    # order j = 1..p, at every k.
    bins = power[np.arange(1, p + 1)[:, None] * np.arange(1, lams.size + 1)]
    return lams, bins[0], bins.sum(axis=0)


def grid_spectrum(
    signal: Signal, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I and Q_N on every Fourier frequency 2*pi*k/n in (0, pi/p), from one FFT.

    Returns ``(lams, I, Q_N)`` with ``lams`` the grid of
    :func:`fourier_grid`, I = |X_k|^2/n and Q_N = sum_{j<=p} |X_{jk}|^2/n^2,
    the values :func:`periodogram` and :func:`harmonic_criterion_qn` give
    at those frequencies.  Raises :class:`DomainError` when no grid point
    is admissible.
    """
    n = signal.n
    lams, plain, harmonic = _grid_power(signal, p, 1)
    return lams, plain / n, harmonic / n**2


def fourier_grid_init(
    signal: Signal, p: int, mode: str = "harmonic_sum", pad: int = 1
) -> float:
    """Coarse initializer: argmax over the grid 2*pi*k/(pad*n) restricted to (0, pi/p).

    ``mode="plain"`` maximizes the periodogram I; ``mode="harmonic_sum"``
    (default) maximizes Q_N, which cannot lock onto a bare harmonic of the
    fundamental the way a plain periodogram can.  Both are read from the
    FFT code of :func:`grid_spectrum`, zero-padded to length ``pad*n`` and
    taken before the scaling by 1/n or 1/n^2 (which could round two
    neighbours into a tie); ``pad=1`` is the Fourier grid of
    :func:`fourier_grid`.  The result is exactly a grid point; ties
    break toward the smaller frequency.
    """
    if mode not in ("plain", "harmonic_sum"):
        raise DomainError(f"unknown init mode {mode!r}")
    n = signal.n
    if n < 10 * p:
        raise DomainError(f"need n >= 10*p = {10 * p}, got n = {n}")
    lams, plain, harmonic = _grid_power(signal, p, pad)
    vals = plain if mode == "plain" else harmonic
    return float(lams[int(np.argmax(vals))])  # argmax keeps the first of ties
