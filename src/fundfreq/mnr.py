"""Newton-Raphson refinement of the fundamental frequency.

The estimator runs in two stages:

1. coarse start: the argmax of the harmonic criterion Q_N on the grid
   2*pi*k/L, L the smallest 5-smooth length >= 8n, moved to the vertex of
   the parabola through Q_N there and at its two neighbours,
2. steps on the full sample, inside one open admissible interval
   (lo, hi) that starts as (0, pi/p): the Newton step -g'/g'' from an
   iterate with g'' < 0, and from one with g'' > 0, where the Newton step
   points downhill, a step of a quarter Fourier bin 2*pi/n in the
   direction of g'.  A trial point outside (lo, hi) takes no pass; a
   trial point where X'X is singular (the criterion's
   :class:`DegenerateFrequencyError`) becomes the edge of (lo, hi) on its
   side of the iterate, so no point at or past it is measured again.  A
   step whose trial point is outside, singular or lowers the criterion g
   is halved until it is none of these or is shorter than ``_TOL``.  The
   run ends ``converged_tol`` once a Newton step shorter than ``_TOL``
   has been taken, ``boundary`` if even that step leaves (lo, hi) or
   lands where X'X is singular, or if an uphill step is halved below
   ``_TOL``, and ``max_iter`` after ``_MAX_ITER`` steps.

At every iterate, the start included, a zero or non-finite g'', a
non-finite g' or a non-finite step (a Newton quotient that overflows)
ends the run ``degenerate``: no step exists there.  A singular X'X at the
start raises.

Run to convergence, the full steps return the least squares estimate, the
maximizer of g near the start.  They converge to it quadratically: from
the vertex start most runs take two or three criterion evaluations, the
start's included, and the step shorter
than ``_TOL`` that ends a run lands on it to rounding accuracy, so no
extra closing step follows and the landing point's g is the Newton
model's (Nielsen et al., Signal Processing 135, 2017, on Newton refinement
of the exact least squares pitch criterion).  A ``converged_tol`` run
returns that landing point: within about 1e-10 of the maximizer g differs
from its peak by less than its own rounding, so comparing g values there
could keep the iterate before the last step.  Every other status returns
the iterate with the largest g seen.

Every pass is one :func:`~fundfreq.criterion.g_with_derivatives` call:
the one at the start gives record 0's g and the first step's g' and g''.
The paper's reduced step on a subsample is not part of this estimator: it
cannot change where a run to convergence lands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .criterion import g_with_derivatives
from .errors import DegenerateFrequencyError
from .signal import Signal
from .spectrum import fourier_grid_init

__all__ = ["TraceRecord", "EstimationTrace", "estimate_fundamental"]

# Constants, not options: the run goes to the least squares maximizer, so
# these set how it gets there, not where it lands; the uphill step can set
# only which maximum a run that meets g'' > 0 climbs to.
_TOL = 1e-7
_MAX_ITER = 50  # steps, halvings excluded
_UPHILL = 0.25 * 2.0 * math.pi  # n times the step where g'' > 0: 1/4 Fourier bin


@dataclass(frozen=True)
class TraceRecord:
    """One iterate: its frequency, its g and the step that reached it."""

    iteration: int
    lam: float
    g_value: float
    correction: float


@dataclass
class EstimationTrace:
    """Iterate history, terminal status and criterion evaluation count.

    Statuses: ``converged_tol`` (a Newton step shorter than _TOL, taken from
    an iterate with g'' < 0), ``max_iter``, ``boundary`` (a Newton step
    shorter than _TOL left the admissible interval, (0, pi/p) cut at each
    singular trial point of the run, or landed where X'X is singular; or
    an uphill step from an iterate with g'' > 0 was halved below _TOL),
    ``degenerate`` (no step: g'' zero or not finite, g' not finite, or
    -g'/g'' not finite).

    ``records`` holds the start and each step as finally taken;
    ``evaluations`` counts every criterion call: one at the start and one
    at each trial point of a step, those of halved steps included.  The
    closing record of a ``converged_tol`` run costs none, unless a
    singular trial point narrowed the admissible interval, when one pass
    checks its landing point: its g is the Newton model's value
    g + s (g' + g'' s/2) at the landing point, from the (g, g', g'') of
    the iterate the step s left.  The estimate is the last record on
    ``converged_tol`` and :meth:`best` otherwise.
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
    criterion value.  A boundary or curvature breakdown after the start
    ends the run with the best iterate seen so far rather than raising; the
    start search raises :class:`DomainError` when n < 10*p, and a singular
    X'X at the start :class:`DegenerateFrequencyError`.

    The estimate is scale-free: the run sees the signal's ``_unit`` view,
    so every iterate is the one at scale 1, and the records' g values
    return through ``_scale_back`` (see :class:`Signal`), inf past the
    float range.
    """
    unit = signal._unit
    lam0 = fourier_grid_init(unit, p)
    # Record 0's g and the first step's g', g'' come from one pass; a
    # singular X'X at the start raises here.
    g0, gp, gpp = g_with_derivatives(unit, p, lam0)
    trace = EstimationTrace(evaluations=1)
    trace.records.append(TraceRecord(0, lam0, g0, 0.0))
    trace.status = _refine(unit, p, gp, gpp, trace)
    if unit is not signal:
        trace.records = [replace(r, g_value=signal._scale_back(r.g_value, 2))
                         for r in trace.records]
    if trace.status == "converged_tol":
        return trace.records[-1].lam, trace
    return trace.best().lam, trace


def _refine(signal: Signal, p: int, gp: float, gpp: float, trace: EstimationTrace) -> str:
    """Steps from the start in ``trace``, given (g', g'') there; appends
    their iterates and returns the status."""
    lam_k, g_k = trace.records[0].lam, trace.records[0].g_value
    band = lo, hi = 0.0, math.pi / p  # the admissible interval
    for k in range(1, _MAX_ITER + 1):
        # a Newton step where g'' < 0, a fixed step in the direction of g'
        # where g'' > 0; none where g'' is 0 or g', g'' or the step is not
        # finite
        step = -gp / gpp if gpp < 0.0 else math.copysign(_UPHILL / signal.n, gp)
        if gpp == 0.0 or not all(map(math.isfinite, (gp, gpp, step))):
            return "degenerate"
        # Halve a step that leaves (lo, hi), meets a singular X'X or lowers
        # g.  A singular trial point becomes the edge of (lo, hi) on its
        # side of the iterate, so no point at or past it is measured again.
        # Each trial point needs the criterion value (backtracking) and
        # both derivatives (next step), so they come from one pass.
        while abs(step) >= _TOL:
            lam_next = lam_k + step
            if lo < lam_next < hi:
                values = _measure(signal, p, lam_next, trace)
                if values is None:
                    lo, hi = (lo, lam_next) if step > 0.0 else (lam_next, hi)
                elif values[0] >= g_k:
                    break
            step *= 0.5
        else:
            # A Newton step shorter than _TOL closes the run with no pass:
            # the Newton model's g at its landing point is within rounding
            # of a measured one there.  Once (lo, hi) was narrowed the
            # landing point may be singular too, and one pass rules that
            # out; a singular one ends the run like a landing point
            # outside.  An uphill step that short lands at no maximum.
            lam_next = lam_k + step
            if gpp > 0.0 or not lo < lam_next < hi or (
                    (lo, hi) != band and _measure(signal, p, lam_next, trace) is None):
                return "boundary"
            g_next = g_k + step * (gp + gpp * step / 2.0)
            trace.records.append(TraceRecord(k, lam_next, g_next, step))
            return "converged_tol"
        g_k, gp, gpp = values
        trace.records.append(TraceRecord(k, lam_next, g_k, step))
        lam_k = lam_next
    return "max_iter"


def _measure(signal: Signal, p: int, lam: float,
             trace: EstimationTrace) -> tuple[float, float, float] | None:
    """(g, g', g'') at a trial point, counted in ``trace``; None where X'X
    is singular."""
    trace.evaluations += 1
    try:
        return g_with_derivatives(signal, p, lam)
    except DegenerateFrequencyError:
        return None
