"""Newton-Raphson refinement of the fundamental frequency.

The estimator runs in three stages:

1. coarse start: argmax of the harmonic criterion Q_N on the grid 2*pi*k/L,
   L the smallest 5-smooth length >= 8n (at most about 1/16 Fourier bin
   from any frequency),
2. one Newton step with step factor 1/4 computed on the first
   n1 = floor(n^(6/7)) samples; the run ends ``boundary`` if it leaves
   (0, pi/p),
3. full Newton steps -g'/g'' on the full sample.  A step that lowers the
   criterion g or leaves (0, pi/p) is halved until it does neither or is
   shorter than ``_TOL``; an iterate with g'' >= 0 takes no step (the run
   ends ``converged_objective``).  The run ends ``converged_tol`` once a
   step shorter than ``_TOL`` has been taken, ``boundary`` if even that step
   leaves (0, pi/p), or ``max_iter`` after ``_MAX_ITER`` Newton steps.

Every exit of stages 2 and 3 is a status that :func:`_refine` returns.  A
zero or non-finite g'' (or a non-finite g') at any iterate ends the run
``degenerate``, and so does the one exception caught: the criterion's
:class:`DegenerateFrequencyError` for a singular X'X.

Run to convergence, stage 3 returns the least squares estimate, the
maximizer of g near the start.  Full steps converge to it quadratically,
in about four full-sample criterion evaluations, and the step shorter than
``_TOL`` that ends a run lands on it to rounding accuracy, so no extra
closing step follows and the landing point needs g alone (Nielsen et al.,
Signal Processing 135, 2017, on Newton refinement of the exact least
squares pitch criterion).  The quarter step of stage 2 damps the
classical Newton update on the shrunken subsample, which widens the
curvature basin around the start.  A ``converged_tol`` run returns that
landing point: within about 1e-10 of the maximizer g differs from its
peak by less than its own rounding, so comparing g values there could
keep the iterate before the last step.  Every other status returns the
iterate with the largest g seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .criterion import g, g_and_prefix_derivatives, g_with_derivatives
from .errors import DegenerateFrequencyError
from .signal import Signal
from .spectrum import fourier_grid_init

__all__ = ["TraceRecord", "EstimationTrace", "estimate_fundamental"]

# Constants, not options: stage 3 runs to the least squares maximizer, so
# these set how a run gets there, not where it lands.
_STEP_FACTOR = 0.25  # stage-2 subsample step; stage 3 takes full steps
_TOL = 1e-7
_MAX_ITER = 50  # stage-3 Newton steps, halvings excluded


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
    """Iterate history, terminal status and criterion evaluation count.

    Statuses: ``converged_tol`` (a Newton step shorter than _TOL, taken from
    an iterate with g'' < 0), ``converged_objective`` (g'' >= 0 at an
    iterate, so no Newton step points uphill), ``max_iter``, ``boundary``
    (the stage-2 step, or a stage-3 step shorter than _TOL, left (0, pi/p)),
    ``degenerate`` (curvature or normal equations broke down).

    ``records`` holds the start, the stage-2 iterate and each stage-3 step
    as finally taken; ``evaluations`` counts every criterion call, the
    trial points of halved steps included.  The estimate is the last
    record on ``converged_tol`` and :meth:`best` otherwise.
    """

    records: list[TraceRecord] = field(default_factory=list)
    status: str = "max_iter"
    evaluations: int = 0

    def best(self) -> TraceRecord:
        return max(self.records, key=lambda r: r.g_value)


def estimate_fundamental(signal: Signal, p: int) -> tuple[float, EstimationTrace]:
    """Estimate the fundamental frequency of a p-harmonic signal.

    Returns (lambda_hat, trace).  On ``converged_tol`` lambda_hat is the
    landing point of the closing step shorter than ``_TOL``, the last trace
    record; on any other status it is the trace iterate with the largest
    criterion value.  A boundary, curvature or normal-equation breakdown
    after the start ends the run with the best iterate seen so far rather
    than raising; the start search raises :class:`DomainError` when
    n < 10*p.

    The estimate is scale-free: the run sees the signal's ``_unit`` view
    y 2^-e (see :class:`Signal`), so every iterate is the one at scale 1.
    The records' g values are scaled back by 2^(2e) and read inf past the
    float range.
    """
    e = signal._exponent
    signal = signal._unit
    n = signal.n
    lam0 = fourier_grid_init(signal, p)
    n1 = _subsample_size(n)
    # Record 0's g over all n samples and the stage-2 derivatives over the
    # first n1 come from one pass over the design: two evaluations.  A
    # singular full sample raises here, a singular subsample in stage 2.
    g0, prefix_derivatives = g_and_prefix_derivatives(signal, p, lam0, n1)
    trace = EstimationTrace(evaluations=2)
    trace.records.append(TraceRecord(0, lam0, n, g0, 0.0))
    try:
        trace.status = _refine(signal, p, n1, prefix_derivatives(), trace)
    except DegenerateFrequencyError:
        trace.status = "degenerate"
    if e:
        h = 2.0 ** (e // 2)  # 2^(2e) = h^4, four exact products
        trace.records = [replace(r, g_value=r.g_value * h * h * h * h) for r in trace.records]
    if trace.status == "converged_tol":
        return trace.records[-1].lam, trace
    return trace.best().lam, trace


def _refine(
    signal: Signal, p: int, n1: int, prefix: tuple[float, float], trace: EstimationTrace
) -> str:
    """Stages 2 and 3 from the start in ``trace``, given the subsample's
    (g', g'') there; appends their iterates and returns the status."""
    n = signal.n
    # Stage 2: one reduced step on the first n1 samples.
    correction = _newton(*prefix, _STEP_FACTOR)
    if correction is None:
        return "degenerate"
    lam_k = trace.records[0].lam + correction
    if not (0.0 < lam_k < math.pi / p):
        return "boundary"
    # Stage 3: full Newton steps on the full sample.  Each iterate needs the
    # criterion value (backtracking) and both derivatives (next step), so
    # they come from one pass over the moment blocks; the closing step's
    # point needs the value alone.
    trace.evaluations += 1
    g_k, gp, gpp = g_with_derivatives(signal, p, lam_k)
    trace.records.append(TraceRecord(1, lam_k, n1, g_k, correction))
    for k in range(2, _MAX_ITER + 2):
        if gpp >= 0.0:
            return "converged_objective"
        correction = _newton(gp, gpp, 1.0)
        if correction is None:
            return "degenerate"
        # Halve a step that leaves (0, pi/p) or lowers g.  A step shorter
        # than _TOL closes the run, and nothing reads its derivatives.
        while True:
            lam_next = lam_k + correction
            inside = 0.0 < lam_next < math.pi / p
            if abs(correction) < _TOL:
                if not inside:
                    return "boundary"
                trace.evaluations += 1
                trace.records.append(
                    TraceRecord(k, lam_next, n, g(signal, p, lam_next), correction)
                )
                return "converged_tol"
            if inside:
                trace.evaluations += 1
                g_next, gp_next, gpp_next = g_with_derivatives(signal, p, lam_next)
                if g_next >= g_k:
                    break
            correction *= 0.5
        trace.records.append(TraceRecord(k, lam_next, n, g_next, correction))
        lam_k, g_k, gp, gpp = lam_next, g_next, gp_next, gpp_next
    return "max_iter"


def _subsample_size(n: int) -> int:
    """n1 = floor(n^(6/7)), from the integer test n1^7 <= n^6 < (n1 + 1)^7.

    The float power alone rounds down past exact roots: int(128 ** (6/7))
    is 63, not 64.
    """
    n1 = int(n ** (6.0 / 7.0))
    while n1**7 > n**6:
        n1 -= 1
    while (n1 + 1) ** 7 <= n**6:
        n1 += 1
    return n1


def _newton(gp: float, gpp: float, factor: float) -> float | None:
    """The correction -factor * g'/g'', or None when g'' is zero or g', g''
    are not finite: no Newton step exists there."""
    if gpp == 0.0 or not math.isfinite(gpp) or not math.isfinite(gp):
        return None
    return -factor * gp / gpp
