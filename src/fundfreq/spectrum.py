"""Periodogram, harmonic criterion, and the coarse Fourier-grid initializer.

:func:`periodogram` and :func:`harmonic_criterion_qn` evaluate I and Q_N
at any admissible frequency by direct exponential sums.  On the grid
2*pi*k/L both come from one real FFT of length L >= n, where Q_N reads
harmonic j of grid point k from FFT bin j*k.  L = n is the Fourier grid
2*pi*k/n itself: :func:`grid_spectrum` returns the spectrum there (the
``fundfreq periodogram`` CSV).  :func:`fourier_grid_init` takes its start
from the same FFT code at L the smallest 5-smooth length >= 8n, where
numpy's FFT stays fast whatever the factors of n.  There harmonic j lies
at most j/16 Fourier bin from the nearest grid multiple, against j/2 bin
at L = n, where an off-grid fundamental can lose the start to its octave
2*lambda.  The start is the vertex of the parabola through Q_N at the
argmax and its two neighbours, which mostly sits nearer the least
squares maximizer than the grid point does, at no extra transform (Rife & Boorstyn,
1974, on padded-DFT starts; Quinn, 1994, on interpolating DFT peaks).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .signal import Signal, _admissible, _check_band, _check_sample_size, _integer

__all__ = ["fourier_grid_init", "grid_spectrum"]

# periodogram and harmonic_criterion_qn serve only the tests, and
# fourier_grid only grid_spectrum and the tests.  They keep public names
# because the LAYER_FUNCTIONS of perfbench/tracing.py look them up on this
# module with no default; once that lookup falls back, move the first two
# into the tests and make fourier_grid private.

# Least zero-padding factor of the start grid 2*pi*k/L: L >= _START_PAD * n.
_START_PAD = 8


def periodogram(signal: Signal, lam: float) -> float:
    """Classical periodogram I(lam) = (1/n) |sum_t y(t) exp(-i lam t)|^2."""
    return _direct_power(signal, lam, 1) / signal.n


def harmonic_criterion_qn(signal: Signal, lam: float, p: int) -> float:
    """Harmonic periodogram sum Q_N(lam) = sum_j |(1/n) sum_t y(t) e^{i t j lam}|^2.

    For p = 1 this equals I(lam)/n.  Its maximizer over (0, pi/p) is the
    approximate least squares estimate of the fundamental frequency.
    """
    return _direct_power(signal, lam, p) / signal.n**2


def _direct_power(signal: Signal, lam: float, p: int) -> float:
    """sum_{j<=p} |sum_t y(t) e^{i j lam t}|^2 by direct sums, for any lam in (0, pi/p).

    The off-grid counterpart of the sums of :func:`_grid_power` on a
    signal that is its own ``_unit`` view.
    """
    p, lam = _check_band(p, lam)
    y = signal.samples
    t = np.arange(1.0, y.size + 1)
    return float(sum(abs(y @ _exp_i(lam, j * t)) ** 2 for j in range(1, p + 1)))


def _exp_i(lam: float, t: np.ndarray) -> np.ndarray:
    """exp(i lam t) at integers t < 2**29, the phase rounded only in lo*t.

    lam = hi + lo with hi rounded to 24 bits, so hi*t is exact.
    """
    hi = float(np.float32(lam))
    return np.exp(1j * (hi * t)) * np.exp(1j * ((lam - hi) * t))


def fourier_grid(n: int, p: int) -> np.ndarray:
    """Fourier frequencies 2*pi*k/n in (0, pi/p): k = 1..floor((n-1)/(2p)).

    Admissibility is the exact integer test 2pk < n; a float test on
    2*pi*k/n would keep the inadmissible point pi/p whenever 2pk = n and
    the product rounds below it.
    """
    n = _integer("n", n, 1)
    p = _integer("harmonic order", p, 1)
    ks = np.arange(1, (n - 1) // (2 * p) + 1)
    return 2.0 * math.pi * ks / n


@functools.lru_cache(maxsize=1)  # every estimate of a Monte Carlo cell starts at one n
def _smooth_length(m: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c that is at least m >= 1,
    kept for the last m.

    numpy's FFT is fast at these lengths and falls to a slow path on
    lengths with a large prime factor.
    """
    best = 1 << (m - 1).bit_length()  # the power of 2
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power-of-2 multiple of odd that is >= m
            candidate = odd << ((m - 1) // odd).bit_length()
            if candidate < best:
                best = candidate
            odd *= 3
        odd5 *= 5
    return best


def _grid_power(signal: Signal, p: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled power sums of the signal's ``_unit`` view on the grid
    2*pi*k/length in (0, pi/p).

    Returns ``(plain, harmonic)`` over k = 1..(length-1)//(2p), the grid
    of :func:`fourier_grid`: ``plain[k-1]`` is |X_k|^2 and
    ``harmonic[k-1]`` is sum_{j<=p} |X_{jk}|^2, where X is the real FFT of
    the ``_unit`` view (see :class:`Signal`) zero-padded to ``length`` >= n.
    """
    p = _integer("harmonic order", p, 1)
    size = (length - 1) // (2 * p)
    if size == 0:
        raise DomainError(f"no Fourier frequency lies in (0, pi/{p}) for n = {signal.n}")
    # |sum_t y(t) e^{-i 2 pi k t/length}|^2 for bins k = 0..length/2; the
    # time origin and the sign of the exponent drop out of the modulus.
    # Every j*k with j <= p stays below length/2 because 2pk < length.
    power = np.abs(np.fft.rfft(signal._unit.samples, length))
    np.square(power, out=power)
    # harmonic j of grid point k is bin j*k: the strided view from bin j,
    # added in order j = 2..p to a copy of the j = 1 view (0 + a is exact,
    # so this is the sum from 0 in order j = 1..p)
    plain = power[1 : size + 1]
    harmonic = plain.copy()
    for j in range(2, p + 1):
        harmonic += power[j : j * size + 1 : j]
    return plain, harmonic


def grid_spectrum(
    signal: Signal, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I and Q_N on every Fourier frequency 2*pi*k/n in (0, pi/p), from one FFT.

    Returns ``(lams, I, Q_N)`` with ``lams`` the grid of
    :func:`fourier_grid`, I = |X_k|^2/n and Q_N = sum_{j<=p} |X_{jk}|^2/n^2,
    the values :func:`periodogram` and :func:`harmonic_criterion_qn` give
    at those frequencies.  They are computed on the ``_unit`` view and
    return through ``_scale_back`` (see :class:`Signal`): they read inf
    only where they exceed the float range, as the estimate's g values
    do.  Raises :class:`DomainError` when no grid point is admissible.
    """
    n = signal.n
    plain, harmonic = _grid_power(signal, p, n)
    return (fourier_grid(n, p), signal._scale_back(plain / n, 2),
            signal._scale_back(harmonic / n**2, 2))


def fourier_grid_init(signal: Signal, p: int) -> float:
    """Coarse initializer: the argmax of Q_N over the grid points 2*pi*k/L
    inside the admissible interval (lo, hi) of the estimator (see
    ``signal._admissible``), moved to the vertex of the parabola through
    its neighbours, so every start lies inside (lo, hi).

    L is the smallest 5-smooth length >= ``_START_PAD*n`` = 8n.  Q_N,
    unlike the plain periodogram, adds the power at all p harmonics of a
    grid point, so one strong harmonic alone does not pick the start; but
    when harmonic p dominates, the point near 2*lambda can still win (see
    README, "Known numerical limits").  Q_N is read from the FFT code of
    :func:`grid_spectrum` at length L, before the scaling by 1/n^2 that
    could round two neighbours into a tie; ties break toward the smaller
    frequency.  With a, b, c the sums at k-1, k, k+1 the start is
    2*pi*(k + delta)/L, delta = (a - c)/(2(a - 2b + c)) clamped to
    [-1/2, 1/2], so k stays its nearest grid index.  At the first or last
    grid point inside (lo, hi), or where a - 2b + c is not negative, delta
    is 0 and the result is exactly the grid point of :func:`fourier_grid`,
    2*pi*k/L rounded in the same two operations.
    """
    p = _integer("harmonic order", p, 1)
    _check_sample_size(signal.n, p)
    length = _smooth_length(_START_PAD * signal.n)
    # skip the grid points at or below lo, each rounded as fourier_grid
    # rounds it: fewer than 9, as lo n < 2 pi and L < 9n.  The last grid
    # point lies at least pi/(p L) below pi/p, so below hi as well
    lo, first = _admissible(signal.n, p)[0], 0
    while 2.0 * math.pi * (first + 1) / length <= lo:
        first += 1
    harmonic = _grid_power(signal, p, length)[1][first:]
    i = int(np.argmax(harmonic))  # the first of ties
    delta = 0.0
    if 0 < i < harmonic.size - 1:
        a, b, c = harmonic[i - 1 : i + 2].tolist()
        curvature = a - 2.0 * b + c
        if curvature < 0.0:
            delta = min(max((a - c) / (2.0 * curvature), -0.5), 0.5)
    return 2.0 * math.pi * (first + i + 1 + delta) / length
