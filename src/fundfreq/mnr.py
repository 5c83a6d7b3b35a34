"""Newton-Raphson refinement of the fundamental frequency.

The estimator runs in two stages:

1. coarse start: the argmax of the harmonic criterion Q_N on the grid
   2*pi*k/L inside the admissible interval (lo, hi), L the smallest
   5-smooth length >= 8n, moved to the vertex of the parabola through Q_N
   there and at its two neighbours, which stays inside (lo, hi),
2. steps on the full sample, inside (lo, hi).  From an
   iterate with g'' < 0 the step is the Newton step -g'/g'', and from one
   with g'' > 0, where the Newton step points downhill, a step of a
   quarter Fourier bin 2*pi/n in the direction of g'.  A trial point
   outside (lo, hi) takes no pass.  A step whose trial point is outside
   or lowers the criterion g is halved until it is neither or is shorter
   than the tolerance.  The run ends ``converged_tol`` once a Newton step
   shorter than the tolerance has been taken, ``boundary`` if the
   unhalved target of that step lies outside (lo, hi), or if an uphill
   step is halved below the tolerance, and ``max_iter`` after
   ``_MAX_ITER`` steps.

The tolerance is ``_TOL * min(1, 1e5 n^(-3/2))``: 1e-7 up to n = 2154,
then 1e-2 n^(-3/2).  The closing step takes no pass, and the error of its
landing point grows like its square times n, so past n = 2154 the
tolerance falls as the estimate's standard deviation does, like n^(-3/2).

At every iterate, the start included, a zero or non-finite g'', a
non-finite g' or a non-finite step (a Newton quotient that overflows)
ends the run ``degenerate``: no step exists there.

(lo, hi) is ``signal._admissible(n, p)``, decided once from (n, p) before
any pass: the part of (0, pi/p) where X'X is well conditioned and g keeps
about 10 digits.  The criterion's pivot floor never fires inside it, so
no pass of a run raises.

Run to convergence, the full steps return the least squares estimate, the
maximizer of g near the start.  They converge to it quadratically: from
the vertex start most runs take two or three criterion evaluations, the
start's included, and the step shorter
than the tolerance that ends a run lands on it to rounding accuracy, so no
extra closing step follows and the landing point's g is the Newton
model's (Nielsen et al., Signal Processing 135, 2017, on Newton refinement
of the exact least squares pitch criterion).

Every run returns its last record, whatever its status.  A step is kept
only when its g is not below the iterate it left, and the closing record's
Newton-model g is never below it either, so the last record holds the
largest g with no comparison.  A comparison could not pick it: within
about 1e-10 of the maximizer a measured g differs from its peak by less
than its own rounding, and past the float range the records' g values
read inf or 0.

Every pass is one :func:`~fundfreq.criterion.g_with_derivatives` call:
the one at the start gives record 0's g and the first step's g' and g''.
The paper's reduced step on a subsample is not part of this estimator: it
cannot change where a run to convergence lands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .criterion import g_with_derivatives
from .signal import Signal, _admissible
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

    Statuses: ``converged_tol`` (a Newton step shorter than the
    tolerance, taken from an iterate with g'' < 0), ``max_iter``,
    ``boundary`` (the unhalved target of a Newton step shorter than the
    tolerance lies outside the admissible interval (lo, hi), or an uphill
    step from an iterate with g'' > 0 was halved below the tolerance),
    ``degenerate`` (no step: g'' zero or not finite, g' not finite, or
    -g'/g'' not finite).

    ``records`` holds the start and each step as finally taken;
    ``evaluations`` counts every criterion call: one at the start and one
    at each trial point of a step inside (lo, hi), those of halved steps
    included.  The closing record of a ``converged_tol`` run costs none:
    its g is the Newton model's value g + s (g' + g'' s/2) at the landing
    point, from the (g, g', g'') of the iterate the step s left.  No
    record's g is below the one before it, and the estimate is the last
    record, whatever the status.
    """

    records: list[TraceRecord] = field(default_factory=list)
    status: str = "max_iter"
    evaluations: int = 0


def estimate_fundamental(signal: Signal, p: int) -> tuple[float, EstimationTrace]:
    """Estimate the fundamental frequency of a p-harmonic signal.

    Returns (lambda_hat, trace), lambda_hat being the last trace record:
    on ``converged_tol`` the landing point of the closing step shorter than
    the tolerance (see :mod:`fundfreq.mnr`), on any other status the last
    iterate kept, which has the largest criterion value seen.  A boundary or curvature breakdown after
    the start ends the run there rather than raising; the start search
    raises :class:`DomainError` when n < 10*p.  Every iterate lies inside
    the admissible interval of ``signal._admissible``.

    The estimate is scale-free: the run sees the signal's ``_unit`` view,
    so every iterate, the status and the returned record are the ones at
    scale 1, and the records' g values return through ``_scale_back`` (see
    :class:`Signal`), inf past the float range.
    """
    unit = signal._unit
    lam0 = fourier_grid_init(unit, p)
    # Record 0's g and the first step's g', g'' come from one pass
    g0, gp, gpp = g_with_derivatives(unit, p, lam0)
    trace = EstimationTrace(evaluations=1)
    trace.records.append(TraceRecord(0, lam0, g0, 0.0))
    trace.status = _refine(unit, p, gp, gpp, trace)
    if unit is not signal:
        trace.records = [replace(r, g_value=signal._scale_back(r.g_value, 2))
                         for r in trace.records]
    return trace.records[-1].lam, trace


def _refine(signal: Signal, p: int, gp: float, gpp: float, trace: EstimationTrace) -> str:
    """Steps from the start in ``trace``, given (g', g'') there; appends
    their iterates and returns the status."""
    lam_k, g_k = trace.records[0].lam, trace.records[0].g_value
    lo, hi = _admissible(signal.n, p)
    tol = _TOL * min(1.0, 1e5 * signal.n**-1.5)
    for k in range(1, _MAX_ITER + 1):
        # a Newton step where g'' < 0, a fixed step in the direction of g'
        # where g'' > 0; none where g'' is 0 or g', g'' or the step is not
        # finite
        step = -gp / gpp if gpp < 0.0 else math.copysign(_UPHILL / signal.n, gp)
        if gpp == 0.0 or not all(map(math.isfinite, (gp, gpp, step))):
            return "degenerate"
        # Halve a step that leaves (lo, hi) or lowers g.  Each trial point
        # needs the criterion value (backtracking) and both derivatives
        # (next step), so they come from one pass.
        target = lam_k + step
        while abs(step) >= tol:
            lam_next = lam_k + step
            if lo < lam_next < hi:
                trace.evaluations += 1
                values = g_with_derivatives(signal, p, lam_next)
                if values[0] >= g_k:
                    break
            step *= 0.5
        else:
            # A Newton step shorter than tol closes the run with no pass:
            # the Newton model's g at its landing point is within rounding
            # of a measured one there.  The step is judged by its unhalved
            # target: one outside (lo, hi) ends the run at the edge, not
            # at a maximum.  An uphill step that short lands at no maximum.
            if gpp > 0.0 or not lo < target < hi:
                return "boundary"
            lam_next = lam_k + step
            g_next = g_k + step * (gp + gpp * step / 2.0)
            trace.records.append(TraceRecord(k, lam_next, g_next, step))
            return "converged_tol"
        g_k, gp, gpp = values
        trace.records.append(TraceRecord(k, lam_next, g_k, step))
        lam_k = lam_next
    return "max_iter"
