"""Step-reduced Newton-Raphson refinement of the fundamental frequency.

The estimator runs in three stages:

1. coarse start: argmax of the harmonic criterion on the 8x zero-padded
   Fourier grid 2*pi*k/(8n),
2. one Newton step with step factor 1/4 computed on a consecutive
   subsample of size n1 = floor(n^(6/7)),
3. repeated 1/4-steps on the full sample until the iterate difference
   drops below ``tol``, the criterion g stops improving, or ``max_iter``
   refinement steps have run.  A run that converges on ``tol`` takes one
   more, full Newton step from its last iterate: quarter steps contract
   the error by 3/4 per step and so stop about 3*tol short of the
   maximizer, which the full step reaches to rounding accuracy.

The quarter step damps the classical Newton update, whose full step
overshoots badly on oscillatory criteria like g far from the peak; the
shrunken subsample in stage 2 widens the curvature basin around the start.
On the padded grid harmonic j lies at most j/16 Fourier bin from the
nearest grid multiple, against j/2 bin on the grid 2*pi*k/n, where an
off-grid fundamental can lose the start to its octave 2*lambda.
The returned estimate is the iterate with the largest g seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .criterion import g, g_derivatives, g_with_derivatives
from .errors import BoundaryError, CurvatureError, DegenerateFrequencyError, DomainError
from .signal import Signal
from .spectrum import fourier_grid_init

# Zero-padding factor of the start grid 2*pi*k/(_START_PAD * n).
_START_PAD = 8

__all__ = [
    "MnrConfig",
    "TraceRecord",
    "EstimationTrace",
    "mnr_step",
    "estimate_fundamental",
]


@dataclass(frozen=True)
class MnrConfig:
    """Tunables for :func:`estimate_fundamental`.

    ``max_iter`` caps the stage-3 full-sample refinement steps; the stage-2
    subsample step is always taken and does not count against it.
    """

    step_factor: float = 0.25
    tol: float = 1e-7
    max_iter: int = 50
    subsample_exponent: float = 6.0 / 7.0
    subsample_start: int = 0
    init_mode: str = "harmonic_sum"

    def __post_init__(self):
        if not (0.0 < self.step_factor <= 1.0):
            raise DomainError(f"step_factor must be in (0, 1], got {self.step_factor}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.subsample_exponent <= 1.0):
            raise DomainError(
                f"subsample_exponent must be in (0, 1], got {self.subsample_exponent}"
            )
        if self.subsample_start < 0:
            raise DomainError(f"subsample_start must be >= 0, got {self.subsample_start}")
        if self.init_mode not in ("plain", "harmonic_sum"):
            raise DomainError(f"unknown init_mode {self.init_mode!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One iterate: which sample size produced it and how good it is."""

    iteration: int
    lam: float
    sample_size_used: int
    g_value: float
    correction: float


@dataclass
class EstimationTrace:
    """Full iterate history plus the terminal status.

    Statuses: ``converged_tol`` (iterate difference below tol),
    ``converged_objective`` (g stopped improving), ``max_iter``,
    ``boundary`` (a proposed iterate left (0, pi/p)), ``degenerate``
    (curvature or normal equations broke down).
    """

    records: list[TraceRecord] = field(default_factory=list)
    status: str = "max_iter"

    def best(self) -> TraceRecord:
        return max(self.records, key=lambda r: r.g_value)

    @property
    def iterations(self) -> int:
        return len(self.records) - 1


def mnr_step(
    signal: Signal, p: int, lam: float, step_factor: float = 0.25
) -> tuple[float, float]:
    """One reduced-step Newton update: lam - step_factor * g'(lam)/g''(lam).

    Returns (lam_next, correction).  Raises :class:`CurvatureError` when
    g'' vanishes or is non-finite, and :class:`BoundaryError` (carrying the
    raw value) when the proposed iterate leaves (0, pi/p).
    """
    gp, gpp = g_derivatives(signal, p, lam)
    return _newton(p, lam, gp, gpp, step_factor)


def estimate_fundamental(
    signal: Signal, p: int, config: MnrConfig | None = None
) -> tuple[float, EstimationTrace]:
    """Estimate the fundamental frequency of a p-harmonic signal.

    Returns (lambda_hat, trace) where lambda_hat is the trace iterate with
    the largest criterion value.  A boundary, curvature or normal-equation
    breakdown after the start ends the run with the best iterate seen so
    far rather than raising.
    """
    if config is None:
        config = MnrConfig()
    n = signal.n
    if n < 10 * p:
        raise DomainError(f"need n >= 10*p = {10 * p}, got n = {n}")

    lam0 = fourier_grid_init(signal, p, config.init_mode, _START_PAD)
    trace = EstimationTrace()
    trace.records.append(TraceRecord(0, lam0, n, g(signal, p, lam0), 0.0))

    n1 = int(n**config.subsample_exponent)
    start = config.subsample_start
    if start + n1 > n:
        raise DomainError(
            f"subsample [{start}, {start + n1}) exceeds the sample length {n}"
        )
    subsample = Signal(signal.samples[start : start + n1], signal.sample_rate)

    try:
        # Stage 2: one step on the shrunken sample.
        lam_k, correction = mnr_step(subsample, p, lam0, config.step_factor)
        # Stage 3: full-sample refinement.  Each iterate needs the criterion
        # value (trace + objective stop) and both derivatives (next step),
        # so they come from one pass over the moment blocks.
        g_k, gp, gpp = g_with_derivatives(signal, p, lam_k)
        trace.records.append(TraceRecord(1, lam_k, n1, g_k, correction))
        for k in range(2, config.max_iter + 2):
            lam_next, correction = _newton(p, lam_k, gp, gpp, config.step_factor)
            g_next, gp, gpp = g_with_derivatives(signal, p, lam_next)
            trace.records.append(TraceRecord(k, lam_next, n, g_next, correction))
            if abs(lam_next - lam_k) < config.tol:
                trace.status = "converged_tol"
                _newton_finish(trace, signal, p, lam_next, gp, gpp)
                break
            if g_next <= g_k:
                trace.status = "converged_objective"
                break
            lam_k, g_k = lam_next, g_next
    except BoundaryError:
        trace.status = "boundary"
    except (CurvatureError, DegenerateFrequencyError):
        trace.status = "degenerate"
    return trace.best().lam, trace


def _newton(
    p: int, lam: float, gp: float, gpp: float, factor: float
) -> tuple[float, float]:
    """(lam + correction, correction) for correction = -factor * g'/g''.

    Raises :class:`CurvatureError` when g'' is zero or g', g'' are not
    finite, and :class:`BoundaryError` when the target leaves (0, pi/p).
    """
    if gpp == 0.0 or not math.isfinite(gpp) or not math.isfinite(gp):
        raise CurvatureError(
            f"degenerate curvature at lambda={lam:.8g}: g'={gp:.3e}, g''={gpp:.3e}"
        )
    correction = -factor * gp / gpp
    lam_next = lam + correction
    if not (0.0 < lam_next < math.pi / p):
        raise BoundaryError(lam_next)
    return lam_next, correction


def _newton_finish(
    trace: EstimationTrace, signal: Signal, p: int, lam: float, gp: float, gpp: float
) -> None:
    """Record one full Newton step from the converged iterate ``lam``.

    The best-g rule decides whether the step is kept; a step that cannot
    be taken leaves the trace and its ``converged_tol`` status as they are.
    """
    try:
        lam_next, correction = _newton(p, lam, gp, gpp, 1.0)
        g_next = g(signal, p, lam_next)
    except (BoundaryError, CurvatureError, DegenerateFrequencyError):
        return
    trace.records.append(
        TraceRecord(len(trace.records), lam_next, signal.n, g_next, correction)
    )
