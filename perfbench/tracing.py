"""Spans around calls into the package's layers, kept in memory.

A layer is one module of the package.  :meth:`Tracer.instrument` replaces,
for the duration of a ``with`` block, every reference that one module (or
the package namespace) holds to a public function of another module with a
wrapper that records a span.  Calls inside a module stay unwrapped, so the
spans mark layer boundaries only and the package source is never touched.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from time import perf_counter

# Public functions whose cross-module calls are layer boundaries, by layer.
LAYER_FUNCTIONS = {
    "signal": ("synthesize", "write_signal", "read_signal"),
    "spectrum": ("fourier_grid_init", "fourier_grid", "periodogram", "harmonic_criterion_qn"),
    "criterion": ("compute_moments", "g", "g_derivatives", "g_with_derivatives"),
    "mnr": ("estimate_fundamental",),
    "linear": ("lse_linear", "residuals"),
    "asymptotics": ("asymptotic_variances",),
    "montecarlo": ("run_experiment",),
}

NAME, START, END, PARENT = range(4)


class Tracer:
    """Collects spans ``[name, start, end, parent_index]`` in call order.

    Spans that share a root ``op`` span belong to one operation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[END] = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(self, package: str = "fundfreq"):
        """Route cross-module calls to the layer functions through spans."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        patched = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module is not home and getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        patched.append((module, fname, original))
        try:
            yield self
        finally:
            for module, fname, original in patched:
                setattr(module, fname, original)


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from the spans of traced operations.

    A figure is present only when its layer ran.  Self time is a span's
    duration minus the durations of its direct children.
    """
    dur = [s[END] - s[START] for s in spans]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def of(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def child_time(i, prefix):
        return sum(dur[c] for c in children.get(i, ()) if spans[c][NAME].startswith(prefix))

    def self_time(i):
        return dur[i] - sum(dur[c] for c in children.get(i, ()))

    ops = of("op")
    op_total = sum(dur[i] for i in ops)
    out: dict[str, float] = {}
    if not ops:
        return out

    def put(name, value, scale=1.0):
        if value is not None:
            out[name] = value * scale

    put("spectrum.grid_init_ms", _median([dur[i] for i in of("spectrum.fourier_grid_init")]), 1e3)
    spectrum_self = sum(self_time(i) for i, s in enumerate(spans) if s[NAME].startswith("spectrum."))
    if spectrum_self:
        out["spectrum.share"] = spectrum_self / op_total
    put("spectrum.periodogram_ms",
        _median([child_time(i, "spectrum.") for i in of("cli.periodogram")]), 1e3)

    put("criterion.eval_us", _median([dur[i] for i in of("criterion.g_with_derivatives")]), 1e6)
    estimates = of("mnr.estimate_fundamental")
    refine = [dur[i] - child_time(i, "spectrum.fourier_grid_init") for i in estimates]
    if estimates:
        criterion_in_refine = sum(child_time(i, "criterion.") for i in estimates)
        out["criterion.share_of_refine"] = criterion_in_refine / sum(refine)
        out["mnr.refine_ms"] = statistics.median(refine) * 1e3

    put("linear.lse_ms", _median([dur[i] for i in of("linear.lse_linear")]), 1e3)
    put("linear.residuals_ms", _median([dur[i] for i in of("linear.residuals")]), 1e3)
    put("asymptotics.asymvar_us", _median([dur[i] for i in of("asymptotics.asymptotic_variances")]), 1e6)

    cells = of("montecarlo.run_experiment")
    if cells:
        cell_time = sum(dur[i] for i in cells)
        inner = sum(child_time(i, "signal.synthesize") + child_time(i, "mnr.estimate_fundamental")
                    for i in cells)
        out["montecarlo.harness_share"] = (cell_time - inner) / cell_time
        out["montecarlo.rep_ms"] = statistics.median(
            dur[i] / max(1, sum(spans[c][NAME] == "mnr.estimate_fundamental" for c in children.get(i, ())))
            for i in cells) * 1e3
    for key, name in (("signal.synthesize_ms", "signal.synthesize"),
                      ("signal.write_ms", "signal.write_signal"),
                      ("signal.read_ms", "signal.read_signal")):
        put(key, _median([dur[i] for i in of(name)]), 1e3)
    for command in sorted({s[NAME] for s in spans if s[NAME].startswith("cli.")}):
        out[f"{command}_ms"] = statistics.median(dur[i] for i in of(command)) * 1e3

    attributed = sum(dur[i] - self_time(i) for i in ops)
    out["trace.unattributed_share"] = 1.0 - attributed / op_total
    return out
