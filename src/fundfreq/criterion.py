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
the samples, built in one pass: every harmonic's cos and sin are the rows
of ``signal._phases`` (one exp over about n/32 + 32 angles, then one
complex multiply per sample and harmonic), and the ramp t is built once
per n and kept read-only.  X'X is factored by Cholesky in one place,
:func:`_whitened`, with one pivot floor and one error, and its inverse
factor serves every solve: g, the amplitudes and the derivatives.  g and
the amplitudes share one solve, :func:`_solve`.  The 2p x 2p algebra after
the pass applies K and J^2 by permuting and scaling entries, not by matrix
products.

Every pass builds the design and takes its product in one routine,
:func:`_moments`, over all n samples: with the derivative rows it is the
pass of g and its derivatives (:func:`g_with_derivatives`, which serves
the start and every Newton step of an estimate); without them it is the
solve of g and the amplitudes, which never forms T*y.

A single harmonic j is the p = 1 case at frequency j*lam: its projection
norm R_j is g(signal, 1, j*lam), and ``compute_moments`` reads its six
moment blocks off the same kernel, with D = jT in place of T.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs behind np.linalg

from .errors import DegenerateFrequencyError
from .signal import Signal, _check_band, _phases

__all__ = ["g", "g_with_derivatives"]

# compute_moments and g_derivatives serve only the tests.  They stay
# defined here because the LAYER_FUNCTIONS of perfbench/tracing.py look
# them up on this module with no default; once that lookup falls back,
# move them into the tests.

# Floor on each squared Cholesky pivot of X'X, relative to n (a squared
# pivot is ~ n/2 away from degenerate frequencies).
_PIVOT_FLOOR = 1e-10


def compute_moments(
    signal: Signal, j: int, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The six moment blocks of harmonic j alone: the p = 1 kernel at j*lam.

    With X = [cos(j lam t), sin(j lam t)] and D = diag(j t), returns
    ``(m_xx, m_xdx, m_xd2x, v_xy, v_dxy, v_d2xy)``: the symmetric 2x2
    blocks X'X, X'DX and X'D^2X and the 2-vectors X'Y, X'DY and X'D^2Y.
    """
    j = _check_band(j, lam)
    # Rows (tc, ts, c, s) against columns (tc, ts, c, s, y, ty).
    mom = _moments(signal.samples, 1, j * lam, True)
    blocks = (mom[2:4, 2:4], j * mom[2:4, :2], j * j * mom[:2, :2])
    for b in blocks:
        b[1, 0] = b[0, 1]   # the product's two triangles differ in the last bit
    return (*blocks, mom[2:4, 4], j * mom[2:4, 5], j * j * mom[:2, 5])


def g(signal: Signal, p: int, lam: float) -> float:
    """Criterion g(lam) = Y'X (X'X)^{-1} X'Y over all 2p design columns."""
    z = _solve(signal, p, lam)[1]
    return float(z.dot(z))


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
    p = _check_band(p, lam)
    q = 2 * p
    mom = _moments(signal.samples, p, lam, True)
    return _with_derivatives(mom, p, *_whitened(mom[q : 2 * q, q:], signal.n, lam))


def _solve(signal: Signal, p: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(L^{-1}, L^{-1}X'Y) over all n samples.

    g is ||L^{-1}X'Y||^2 and the least squares amplitudes are
    L^{-T} L^{-1}X'Y.
    """
    p = _check_band(p, lam)
    return _whitened(_moments(signal.samples, p, lam, False), signal.n, lam)


def _whitened(mom: np.ndarray, n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(L^{-1}, L^{-1} X'Y) for the lower Cholesky factor L of X'X = LL'.

    ``mom`` holds X'X in its leading square block and X'Y in the next
    column, as the solve product of :func:`_moments` and the X rows of its
    derivative product do.  This is the one place X'X is factored.  X'X is
    singular when some j*lam nears 0 or pi; the guard is a floor on every
    squared pivot, scaled by n.  The factor and its inverse come from the
    gufuncs that np.linalg.cholesky and np.linalg.inv call, with the same
    results bit for bit: at 2p x 2p those wrappers' argument checks cost
    more than the LAPACK work.  Where the factorization fails, the gufunc
    returns NaN in every entry, which fails the floor; the gufunc would
    also warn, and :func:`_cholesky` silences that.
    """
    q = len(mom)
    floor = _PIVOT_FLOOR * n
    chol = _cholesky(mom[:, :q])
    least = min(chol.diagonal().tolist())  # pivots are positive or all NaN
    if not least * least >= floor:
        raise DegenerateFrequencyError(
            f"X'X singular at lambda={lam:.6g} over {q} columns (pivot floor {floor:.3e})"
        )
    linv = _umath_linalg.inv(chol)
    return linv, linv.dot(mom[:, q])


# As a decorator the errstate costs about half what a with-block does.
@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of m, or all NaN where m is not positive definite."""
    return _umath_linalg.cholesky_lo(m)


def _with_derivatives(
    mom: np.ndarray, p: int, linv: np.ndarray, zu: np.ndarray
) -> tuple[float, float, float]:
    """:func:`g_with_derivatives` from the derivative product of
    :func:`_moments` and ``(linv, zu)``, what :func:`_whitened` returns for
    its X rows.

    K, K' and J^2 act by permuting and scaling entries, which gives what
    products with them give, bit for bit.  ``ndarray.dot`` dispatches in
    about half the time of ``@``; at these sizes the two agree bit for
    bit (the sample products of :func:`_moments` keep ``@``: there they
    do not).
    """
    q = 2 * p
    a = linv.T.dot(zu)
    pick, scale, swap, kt = _harmonic_operators(p)
    aks = (a[pick] * scale).reshape(3, q)           # rows a, Ka, J^2 a
    ka = aks[1]
    ba = aks[:2].dot(mom[: 2 * q, :q].T).reshape(4, q)  # rows Ba, Aa, BKa, AKa
    v_res = mom[:q, 2 * q] - ba[1]                   # X'T(Y - Xa)
    z = linv.dot(v_res[swap] * kt - ba[3])          # L^{-1} r
    gpp = z.dot(z) - aks[2].dot(mom[:q, 2 * q + 1] - ba[0]) - ka.dot(ba[2])
    return float(mom[q : 2 * q, 2 * q].dot(a)), 2.0 * float(ka.dot(v_res)), 2.0 * float(gpp)


@functools.lru_cache(maxsize=None)
def _harmonic_operators(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index and scale vectors of K and J^2 for p harmonics, read-only and
    built once per p.

    K maps each (cos, sin) pair (c, s) of harmonic j to j (s, -c), so
    Kx = x[swap] * k and K'x = x[swap] * -k, where swap exchanges the two
    entries of each pair and k is (j, -j) on pair j.  Returns ``(pick,
    scale, swap, -k)``, where ``a[pick] * scale`` stacks a (times an exact
    1), Ka and J^2 a.
    """
    q = 2 * p
    swap = np.arange(q) ^ 1
    k = np.repeat(np.arange(1.0, p + 1), 2) * np.tile([1.0, -1.0], p)
    ops = (np.concatenate([np.arange(q), swap, np.arange(q)]),
           np.concatenate([np.ones(q), k, k * k]), swap, -k)
    for op in ops:
        op.setflags(write=False)
    return ops


def _moments(y: np.ndarray, p: int, lam: float, derivatives: bool) -> np.ndarray:
    """The products of the design with the data, summed over all n samples.

    This is the one place the design is built and multiplied.  The rows
    are S = [D; Y'; (TY)'] with D = [(TX)'; X'], every harmonic's cos and
    sin from one :func:`_phases` call.  With ``derivatives`` the product
    is D S': X'T^2X, X'TX and X'X are its square blocks, X'T^2Y, X'TY and
    X'Y its last two columns.  Without, it is X'[X Y], and the T-weighted
    rows are never filled.
    """
    q = 2 * p
    n = y.size
    z = _phases(lam, n, p)
    s = np.empty((2 * q + 2, n))
    s[q : 2 * q : 2] = z.real
    s[q + 1 : 2 * q : 2] = z.imag
    s[2 * q] = y
    if not derivatives:
        return s[q : 2 * q] @ s[q : 2 * q + 1].T
    np.multiply(s[q : 2 * q], _ramp(n), out=s[:q])
    np.multiply(_ramp(n), y, out=s[-1])
    return s[: 2 * q] @ s.T


@functools.lru_cache(maxsize=1)  # every evaluation of an estimate runs at one n
def _ramp(n: int) -> np.ndarray:
    """t = 1..n as floats, read-only, built once per n and kept for the
    last n."""
    t = np.arange(1.0, n + 1)
    t.setflags(write=False)
    return t
