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
pitch criterion).  All of them are blocks of one Gram-type product, summed
over chunks of samples; each chunk takes one complex exponential
e^{i lam t} per sample, whose running powers give every harmonic's cos and
sin.  X'X is factored once by Cholesky, and the inverse factor serves
every solve.

A single harmonic j is the p = 1 case at frequency j*lam: its projection
norm R_j is g(signal, 1, j*lam), its own 2x2 amplitude solve is
lse_coefficients(signal, 1, j*lam), and ``compute_moments`` reads its six
moment blocks off the same kernel, with D = jT in place of T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrequencyError, DomainError
from .signal import Signal

__all__ = [
    "HarmonicDesignMoments",
    "compute_moments",
    "g",
    "g_derivatives",
    "g_with_derivatives",
    "lse_coefficients",
]

# Floor on each squared Cholesky pivot of X'X, relative to n (a squared
# pivot is ~ n/2 away from degenerate frequencies).
_PIVOT_FLOOR = 1e-10

# Rows of the design built at a time; bounds the working memory at large n.
_CHUNK = 1024


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
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j}")
    if not (0.0 < j * lam < math.pi):
        raise DomainError(f"need 0 < j*lambda < pi, got j={j}, lambda={lam}")
    # Rows (c, s, tc, ts) against columns (c, s, tc, ts, y, ty).
    mom = _moments(signal, 1, j * lam, True)
    blocks = (mom[:2, :2], j * mom[:2, 2:4], j * j * mom[2:, 2:4])
    for b in blocks:
        b[1, 0] = b[0, 1]   # the product's two triangles differ in the last bit
    return HarmonicDesignMoments(
        j, lam, signal.n, *blocks, mom[:2, 4], j * mom[:2, 5], j * j * mom[2:, 5]
    )


def g(signal: Signal, p: int, lam: float) -> float:
    """Criterion g(lam) = Y'X (X'X)^{-1} X'Y over all 2p design columns."""
    z = _whitened(signal, p, lam)[1]
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
    _check_p_lam(p, lam)
    q = 2 * p
    mom = _moments(signal, p, lam, True)
    u, v, w = mom[:q, 2 * q], mom[q : 2 * q, 2 * q], mom[q : 2 * q, 2 * q + 1]
    linv = _inverse_factor(mom[:q, :q], signal.n, lam)
    a = linv.T @ (linv @ u)
    ik, k, j2 = _harmonic_operators(p)
    a_ka = (ik @ a).reshape(2, q)                  # rows a, Ka
    ab_a, ab_ka = a_ka @ mom[: 2 * q, q : 2 * q].T  # rows [A; B]a, [A; B]Ka
    ka = a_ka[1]
    v_res = v - ab_a[:q]                           # X'T(Y - Xa)
    z = linv @ (v_res @ k - ab_ka[:q])             # L^{-1} r, with K'x = x @ K
    gpp = 2.0 * (z @ z - (j2 * a) @ (w - ab_a[q:]) - ka @ ab_ka[q:])
    return float(u @ a), float(2.0 * (ka @ v_res)), float(gpp)


def lse_coefficients(signal: Signal, p: int, lam: float) -> np.ndarray:
    """Joint least squares coefficients (A_1, B_1, .., A_p, B_p) at ``lam``."""
    linv, z = _whitened(signal, p, lam)
    return linv.T @ z


def _whitened(signal: Signal, p: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(L^{-1}, L^{-1} X'Y) for the Cholesky factor L of X'X = LL'."""
    _check_p_lam(p, lam)
    q = 2 * p
    mom = _moments(signal, p, lam, False)
    linv = _inverse_factor(mom[:q, :q], signal.n, lam)
    return linv, linv @ mom[:q, q]


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


def _moments(signal: Signal, p: int, lam: float, derivatives: bool) -> np.ndarray:
    """Products D S' of the design rows D = [X'; (TX)'] with S = [D; Y'; (TY)'].

    X'X, X'TX and X'T^2X are its square blocks, X'Y, X'TY and X'T^2Y its
    last two columns; the (TX)' rows are left out unless ``derivatives``.
    """
    y = signal.samples
    q = 2 * p
    rows = 2 * q if derivatives else q
    mom = 0.0
    for lo in range(0, y.size, _CHUNK):
        t = np.arange(lo + 1, min(lo + _CHUNK, y.size) + 1, dtype=float)
        z = np.empty((p, t.size), dtype=complex)
        np.exp((1j * lam) * t, out=z[0])
        for j in range(1, p):
            np.multiply(z[j - 1], z[0], out=z[j])
        s = np.empty((rows + 2, t.size))
        s[0:q:2] = z.real
        s[1:q:2] = z.imag
        if derivatives:
            np.multiply(s[:q], t, out=s[q:rows])
        s[-2] = y[lo : lo + t.size]
        np.multiply(t, s[-2], out=s[-1])
        mom = mom + s[:rows] @ s.T
    return mom


def _inverse_factor(m: np.ndarray, n: int, lam: float) -> np.ndarray:
    """Inverse L^{-1} of the lower Cholesky factor of X'X = LL'.

    X'X is singular when some j*lam nears 0 or pi; the guard is a floor on
    every squared pivot, scaled by n.
    """
    floor = _PIVOT_FLOOR * n
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not chol.diagonal().min() ** 2 >= floor:
        raise DegenerateFrequencyError(
            f"X'X singular at lambda={lam:.6g} over {m.shape[0]} columns "
            f"(pivot floor {floor:.3e})"
        )
    return np.linalg.inv(chol)


def _check_p_lam(p: int, lam: float) -> None:
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if not (0.0 < lam < math.pi / p):
        raise DomainError(f"lambda must lie in (0, pi/{p}), got {lam}")
