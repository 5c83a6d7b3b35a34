"""Least squares criterion g, its analytic derivatives, and the amplitude solve.

At trial frequency ``lam`` the design matrix has 2p columns,

    X = [cos(lam t), sin(lam t), .., cos(p lam t), sin(p lam t)],  t = 1..n,

and estimation maximizes the projection norm g(lam) = Y'X (X'X)^{-1} X'Y,
which is ||Y||^2 minus the least squares residual sum of squares over all
2p columns.  For noiseless data its maximizer is the true frequency.

Derivatives never form an n x n matrix: with T = diag(1, .., n) and
K = blockdiag(j E), E = [[0,1],[-1,0]], the frequency derivatives of the
design are dX/dlam = T X K and d2X/dlam2 = T^2 X K^2, so g' and g'' contract
to the 2p x 2p moments X'T^kX and the 2p-vectors X'T^kY, k = 0, 1, 2
(Nielsen et al., Signal Processing 135, 2017, on the exact least squares
pitch criterion).  All of them are blocks of one Gram-type product over
the samples, built in one pass: the phases e^{i lam t} from
``signal._phases`` (about n/32 + 32 complex exponentials and one complex
multiply per sample), whose running powers give every harmonic's cos and
sin.  X'X is factored by Cholesky in one place, :func:`_whitened`, with
one pivot floor and one error, and its inverse factor serves every solve:
g, the amplitudes, the start pass and the derivatives.
The pass can split after a sample n1: the moments over y(1..n1) then
carry the derivative blocks while the rest adds only to X'X and X'Y, so
one pass gives g over all n samples and g', g'' over the first n1
(:func:`g_and_prefix_derivatives`).

A single harmonic j is the p = 1 case at frequency j*lam: its projection
norm R_j is g(signal, 1, j*lam), its own 2x2 amplitude solve is
lse_coefficients(signal, 1, j*lam), and ``compute_moments`` reads its six
moment blocks off the same kernel, with D = jT in place of T.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs behind np.linalg

from .errors import DegenerateFrequencyError, DomainError
from .signal import Signal, _check_band, _phases

__all__ = ["g", "g_and_prefix_derivatives", "g_with_derivatives", "lse_coefficients"]

# HarmonicDesignMoments, compute_moments and g_derivatives serve only the
# tests.  They stay defined here because the LAYER_FUNCTIONS of
# perfbench/tracing.py look compute_moments and g_derivatives up on this
# module with no default; once that lookup falls back, move them into the tests.

# Floor on each squared Cholesky pivot of X'X, relative to n (a squared
# pivot is ~ n/2 away from degenerate frequencies).
_PIVOT_FLOOR = 1e-10


@dataclass(frozen=True)
class HarmonicDesignMoments:
    """Moment blocks of harmonic j alone for fixed (j, lam, n).

    Here X = [cos(j lam t), sin(j lam t)] and D = diag(j t).

    Attributes
    ----------
    m_xx : 2x2 ndarray
        X'X (symmetric positive semidefinite).
    m_xdx : 2x2 ndarray
        X'DX (symmetric).
    m_xd2x : 2x2 ndarray
        X'D^2X (symmetric).
    v_xy, v_dxy, v_d2xy : 2-vectors
        X'Y, X'DY, X'D^2Y.
    """

    j: int
    lam: float
    n: int
    m_xx: np.ndarray
    m_xdx: np.ndarray
    m_xd2x: np.ndarray
    v_xy: np.ndarray
    v_dxy: np.ndarray
    v_d2xy: np.ndarray


def compute_moments(signal: Signal, j: int, lam: float) -> HarmonicDesignMoments:
    """The six moment blocks of harmonic j: the p = 1 kernel at j*lam, D = jT."""
    _check_band(j, lam)
    # Rows (tc, ts, c, s) against columns (tc, ts, c, s, y, ty).
    mom = _moments(signal.samples, 1, j * lam, signal.n)[0]
    blocks = (mom[2:4, 2:4], j * mom[2:4, :2], j * j * mom[:2, :2])
    for b in blocks:
        b[1, 0] = b[0, 1]   # the product's two triangles differ in the last bit
    return HarmonicDesignMoments(
        j, lam, signal.n, *blocks, mom[2:4, 4], j * mom[2:4, 5], j * j * mom[:2, 5]
    )


def g(signal: Signal, p: int, lam: float) -> float:
    """Criterion g(lam) = Y'X (X'X)^{-1} X'Y over all 2p design columns."""
    _check_band(p, lam)
    z = _whitened(_moments(signal.samples, p, lam, 0)[1], signal.n, lam)[1]
    return float(z @ z)


def g_derivatives(signal: Signal, p: int, lam: float) -> tuple[float, float]:
    """Analytic (g'(lam), g''(lam)) from the exact design moments.

    No approximation of (X'X)^{-1} is involved, so the values match finite
    differences of :func:`g` to rounding accuracy.
    """
    return g_with_derivatives(signal, p, lam)[1:]


def g_with_derivatives(signal: Signal, p: int, lam: float) -> tuple[float, float, float]:
    """(g, g', g'') in one pass over the design.

    With M = X'X, A = X'TX, B = X'T^2X, u = X'Y, v = X'TY, w = X'T^2Y,
    a = M^{-1}u (the least squares amplitudes), r = K'(v - Aa) - AKa and
    J^2 = -K^2 = blockdiag(j^2 I):

        g   = u'a
        g'  = 2 (Ka)'(v - Aa)
        g'' = 2 [r'M^{-1}r - (J^2 a)'(w - Ba) - (Ka)'B(Ka)].
    """
    _check_band(p, lam)
    return _with_derivatives(_moments(signal.samples, p, lam, signal.n)[0], p, signal.n, lam)


def g_and_prefix_derivatives(
    signal: Signal, p: int, lam: float, n1: int
) -> tuple[float, Callable[[], tuple[float, float]]]:
    """g over all n samples and (g', g'') over the first n1, from one pass.

    Returns ``(g, prefix_derivatives)``.  A singular X'X over all n
    samples raises :class:`DegenerateFrequencyError` here; the derivatives
    of the subsample y(1..n1) are solved, and raise, only when
    ``prefix_derivatives()`` is called.  They come from the same product
    as ``g_derivatives(Signal(signal.samples[:n1]), p, lam)``,
    and g agrees with :func:`g` to rounding.
    """
    _check_band(p, lam)
    n = signal.n
    if not 0 < n1 < n:
        raise DomainError(f"need 0 < n1 < n = {n}, got n1 = {n1}")
    head, tail = _moments(signal.samples, p, lam, n1)
    q = 2 * p
    tail += head[q : 2 * q, q:]  # X'X, X'Y and X'TY over all n samples
    z = _whitened(tail, n, lam)[1]
    return float(z @ z), lambda: _with_derivatives(head, p, n1, lam)[1:]


def lse_coefficients(signal: Signal, p: int, lam: float) -> np.ndarray:
    """Joint least squares coefficients (A_1, B_1, .., A_p, B_p) at ``lam``."""
    _check_band(p, lam)
    linv, z = _whitened(_moments(signal.samples, p, lam, 0)[1], signal.n, lam)
    return linv.T @ z


def _whitened(mom: np.ndarray, n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(L^{-1}, L^{-1} X'Y) for the lower Cholesky factor L of X'X = LL'.

    ``mom`` holds X'X in its leading square block and X'Y in the next
    column, as the tail product of :func:`_moments` and the X rows of its
    head product do.  This is the one place X'X is factored.  X'X is
    singular when some j*lam nears 0 or pi; the guard is a floor on every
    squared pivot, scaled by n.  The factor and its inverse come from the
    gufuncs that np.linalg.cholesky and np.linalg.inv call, with the same
    results bit for bit: at 2p x 2p those wrappers' argument checks cost
    more than the LAPACK work.  Where the factorization fails, the gufunc
    returns NaN, which fails the floor; without the errstate it would also
    warn.
    """
    q = mom.shape[0]
    floor = _PIVOT_FLOOR * n
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        chol = _umath_linalg.cholesky_lo(mom[:, :q])
    if not all(d * d >= floor for d in chol.diagonal().tolist()):
        raise DegenerateFrequencyError(
            f"X'X singular at lambda={lam:.6g} over {q} columns (pivot floor {floor:.3e})"
        )
    linv = _umath_linalg.inv(chol)
    return linv, linv @ mom[:, q]


def _with_derivatives(
    mom: np.ndarray, p: int, n: int, lam: float
) -> tuple[float, float, float]:
    """:func:`g_with_derivatives` from the head product of :func:`_moments`
    over n samples."""
    q = 2 * p
    u, v, w = mom[q : 2 * q, 2 * q], mom[:q, 2 * q], mom[:q, 2 * q + 1]
    linv, zu = _whitened(mom[q : 2 * q, q:], n, lam)  # X rows: [X'X | X'Y | X'TY]
    a = linv.T @ zu
    ik, k, j2 = _harmonic_operators(p)
    a_ka = (ik @ a).reshape(2, q)                  # rows a, Ka
    ba_a, ba_ka = a_ka @ mom[: 2 * q, :q].T         # rows [B; A]a, [B; A]Ka
    ka = a_ka[1]
    v_res = v - ba_a[q:]                           # X'T(Y - Xa)
    z = linv @ (v_res @ k - ba_ka[q:])             # L^{-1} r, with K'x = x @ K
    gpp = 2.0 * (z @ z - (j2 * a) @ (w - ba_a[:q]) - ka @ ba_ka[:q])
    return float(u @ a), float(2.0 * (ka @ v_res)), float(gpp)


@functools.lru_cache(maxsize=None)
def _harmonic_operators(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """([I; K], K, diag J^2) for p harmonics, read-only and built once per p."""
    q = 2 * p
    j = np.diag(np.arange(1.0, p + 1))
    ik = np.vstack([np.eye(q), np.zeros((q, q))])
    ik[q::2, 1::2] = j      # K maps each (cos, sin) pair (c, s) to j (s, -c)
    ik[q + 1 :: 2, 0::2] = -j
    j2 = np.repeat(np.diag(j) ** 2, 2)
    ik.setflags(write=False)
    j2.setflags(write=False)
    return ik, ik[q:], j2


def _moments(
    y: np.ndarray, p: int, lam: float, n1: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Products of the design rows with the data, split after sample n1.

    Returns ``(head, tail)``.  The head sums, over t <= n1, the products
    D S' of the rows D = [(TX)'; X'] with S = [D; Y'; (TY)']: X'T^2X, X'TX
    and X'X are its square blocks, X'T^2Y, X'TY and X'Y its last two
    columns.  The tail sums X'[X Y TY] over t > n1; the T-weighted design
    rows are filled only for the head.  Either is None when its range is
    empty.  The head is the product that a pass over y[:n1] alone takes.
    """
    q = 2 * p
    n = y.size
    t = np.arange(1, n + 1, dtype=float)
    z = np.empty((p, n), dtype=complex)
    z[0] = _phases(lam, n)
    for j in range(1, p):
        np.multiply(z[j - 1], z[0], out=z[j])
    s = np.empty((2 * q + 2, n))  # rows TX, X, Y, TY
    s[q : 2 * q : 2] = z.real
    s[q + 1 : 2 * q : 2] = z.imag
    s[-2] = y
    np.multiply(t, y, out=s[-1])
    if n1:
        np.multiply(s[q : 2 * q, :n1], t[:n1], out=s[:q, :n1])
    head = s[: 2 * q, :n1] @ s[:, :n1].T if n1 else None
    tail = s[q : 2 * q, n1:] @ s[q:, n1:].T if n1 < n else None
    return head, tail
