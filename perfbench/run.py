"""Benchmark of the fundfreq package: closed-loop workloads, checked outputs.

Run from the root of a source checkout; the package is imported from ``src``:

    python3 perfbench/run.py --workload estimate-sweep --seed 1 --seconds 30 --trace 0

One caller runs one workload's operations back to back for ``--seconds``
(always at least one full pass over the inputs), checks every output, and
prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that raised, exited non-zero or failed an output check.  The metrics are
END_TO_END with ``--trace 0``.  ``--trace 1`` runs every input untraced and
traced in turn and reports PER_LAYER from the spans.  The full result, with
the environment, every figure of the workload and one accuracy record per
estimate, is written to ``.perfbench_out/`` in the checkout.

Times are calibrated: each operation is timed in CPU time of the calling
thread, a reference kernel from ``calibration.py`` runs between operations,
and each operation's time is scaled by the kernel's speed around it to
seconds on the reference host.  This takes the shared host's drift in speed
out of the figures.  The wall-clock figures are in the full result as
``op_p50_wall_ms``, ``ops_per_s_wall`` and ``setup_wall_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Metrics of the final JSON line, with units.  BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "right_fundamental_share": "share",
}
PER_LAYER = {
    "spectrum.grid_init_ms": "ms",
    "spectrum.share": "share",
    "criterion.eval_us": "us",
    "criterion.share_of_refine": "share",
    "mnr.refine_ms": "ms",
    "mnr.steps_p50": "count",
    "mnr.steps_max": "count",
    "mnr.useful_step_ratio": "share",
    "mnr.status.converged_tol": "share",
    "asymptotics.asymvar_us": "us",
    "trace.overhead_share": "share",
}
OTHER_UNITS = {"noiseless_err_max": "rad", "err_z_p50": "sd", "mc_var_ratio": "ratio",
               "montecarlo.failed_reps": "count", "ops_per_s_wall": "1/s", "setup_wall_s": "s",
               "host_speed": "ratio"}
UNITS = {**END_TO_END, **PER_LAYER, **OTHER_UNITS}

SETUP_REPEATS = 9
SETUP_BLOCK_S = 0.05  # kernel time after each set-up
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "w, t = time.perf_counter(), time.thread_time(); import fundfreq; "
                "print(time.perf_counter() - w, time.thread_time() - t)")


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_share", "share")):
        if name.endswith(suffix):
            return unit
    if ".status." in name:
        return "share"
    raise KeyError(f"no unit for metric {name!r}")


def import_seconds() -> tuple[float, float]:
    """Wall and thread CPU time to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    wall, cpu = done.stdout.split()
    return float(wall), float(cpu)


def make_workload(name: str):
    import workloads

    if name == "estimate-sweep":
        return workloads.EstimateSweep()
    if name == "mc-table":
        return workloads.McTable()
    return workloads.CliLong(str(OUT / f"work-{name}-{os.getpid()}"))


class Measurement:
    """Calibrated and wall timings and checked outcomes of every operation a run made."""

    def __init__(self, n_items: int):
        self.untraced = [[] for _ in range(n_items)]
        self.traced = [[] for _ in range(n_items)]
        self.wall = [[] for _ in range(n_items)]
        self.first = [None] * n_items
        self.attempted = 0
        self.failed = 0
        self.status_failed = 0
        self.problems: list[str] = []
        self.passes = 0


def run_once(wl, item, tracer):
    """One operation; returns (wall seconds, thread CPU seconds, Outcome).  Checks run untimed."""
    from workloads import Outcome

    with tracer.instrument() if tracer else contextlib.nullcontext():
        start, cpu_start = perf_counter(), thread_time()
        try:
            with tracer.span("op") if tracer else contextlib.nullcontext():
                output = wl.run(item, tracer)
        except Exception:  # the operation failed; record it and go on with the next
            output = None
            outcome = Outcome(problems=[traceback.format_exc(limit=4)], failed=wl.units(item))
        wall, cpu = perf_counter() - start, thread_time() - cpu_start
    return wall, cpu, outcome if output is None else wl.check(item, output)


def measure(wl, items, seconds: float, tracer, cal) -> Measurement:
    """Closed loop over the inputs until ``seconds`` have passed, at least one pass.

    With a tracer each input runs untraced and traced back to back, the
    order alternating from pass to pass.  Calibrator ``cal`` scales each
    operation's time to the reference host.
    """
    m = Measurement(len(items))
    deadline = perf_counter() + seconds
    while True:
        for i, item in enumerate(items):
            modes = (None, tracer) if tracer else (None,)
            for mode in modes[::-1] if m.passes % 2 else modes:
                wall, cpu, outcome = run_once(wl, item, mode)
                (m.traced if mode else m.untraced)[i].append(cal.scale(cpu))
                if not mode:
                    m.wall[i].append(wall)
                if m.first[i] is None:
                    m.first[i] = outcome
                m.attempted += wl.units(item)
                m.failed += outcome.failed
                m.status_failed += outcome.status_failed
                m.problems += outcome.problems
            if m.passes and perf_counter() >= deadline:
                return m
        m.passes += 1
        if perf_counter() >= deadline:
            return m


def timing_metrics(samples: list[list[float]], units: list[int]) -> dict:
    """Latency and throughput from each input's median time.

    ``op_p50_ms`` is the median over inputs of the input's median time per
    operation; ``ops_per_s`` is one full pass over the inputs, timed by the
    same medians.  ``op_p90_ms`` is over every operation timed, reported
    only when at least 10 lie beyond it.
    """
    medians = [statistics.median(s) for s in samples]
    out = {
        "op_p50_ms": statistics.median(t / u for t, u in zip(medians, units)) * 1e3,
        "ops_per_s": sum(units) / sum(medians),
    }
    every = sorted(t / u for s, u in zip(samples, units) for t in s)
    p90 = statistics.quantiles(every, n=10)[-1] if len(every) >= 2 else math.inf
    if sum(t > p90 for t in every) >= 10:
        out["op_p90_ms"] = p90 * 1e3
    return out


def accuracy_metrics(records: list[dict]) -> dict:
    """Accuracy and refinement figures over one run of every input."""
    out = {}
    wrong = sum(bool(r["wrong"]) for r in records) / len(records)
    out["wrong_fundamental_share"] = wrong
    out["right_fundamental_share"] = 1.0 - wrong
    noiseless = [r["err"] for r in records if r["noise"] == "none"]
    if noiseless:
        out["noiseless_err_max"] = max(noiseless)
    z = [r["err_z"] for r in records if r["err_z"] is not None]
    if z:
        out["err_z_p50"] = statistics.median(z)
    cells: dict[tuple, list[dict]] = {}
    for r in records:
        if "rep" in r and r["status"] not in ("boundary", "degenerate"):
            cells.setdefault((r["n"], r["sigma2"]), []).append(r)
    if cells:
        out["mc_var_ratio"] = statistics.mean(
            statistics.variance([r["lambda_hat"] for r in rs]) / rs[0]["var_lse"]
            for rs in cells.values() if len(rs) >= 2)
    steps = [r["steps"] for r in records]
    out["mnr.steps_p50"] = statistics.median(steps)
    out["mnr.steps_max"] = max(steps)
    out["mnr.useful_step_ratio"] = sum(r["useful_steps"] for r in records) / max(1, sum(steps))
    for status in ("converged_tol", "converged_objective", "max_iter", "boundary", "degenerate"):
        out[f"mnr.status.{status}"] = sum(r["status"] == status for r in records) / len(records)
    if any("rep" in r for r in records):
        out["montecarlo.failed_reps"] = sum(r["status"] in ("boundary", "degenerate") for r in records)
    return out


def blas_info() -> dict:
    import ctypes

    import numpy

    info = {"blas": "unknown", "blas_threads": None}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    with contextlib.suppress(Exception):
        lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["blas_threads"] = int(getattr(lib, symbol)())
                break
    return info


def environment() -> dict:
    """What the numbers depend on, so results from other machines are not mixed up."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def benchmark(wl, seed: int, seconds: float, tracer=None) -> dict:
    """Set up and measure workload ``wl``, traced when given a tracer; returns the full result."""
    import calibration
    import tracing

    trace = tracer is not None
    cal = calibration.Calibrator()
    try:
        setups_cpu, setups_wall = [], []
        for _ in range(SETUP_REPEATS):
            start, cpu_start = perf_counter(), thread_time()
            items = wl.make_inputs(seed)
            wall, cpu = perf_counter() - start, thread_time() - cpu_start
            import_wall, import_cpu = import_seconds()
            setups_wall.append(wall + import_wall)
            setups_cpu.append(cpu + import_cpu)
            cal.sample(SETUP_BLOCK_S)
        setup_s = statistics.median(setups_cpu) * cal.host_speed()
        m = measure(wl, items, seconds, tracer, cal)
    finally:
        wl.close()

    units = [wl.units(item) for item in items]
    records = [r for outcome in m.first for r in outcome.records]
    wall = timing_metrics(m.wall, units)
    failed_share = (m.failed + m.status_failed) / m.attempted
    figures = {
        "setup_s": setup_s,
        **timing_metrics(m.untraced, units),
        "setup_wall_s": statistics.median(setups_wall),
        "op_p50_wall_ms": wall["op_p50_ms"],
        "ops_per_s_wall": wall["ops_per_s"],
        "host_speed": cal.host_speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed_share,
        "ok_share": 1.0 - failed_share,
        **accuracy_metrics(records),
    }
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": max(len(s) for s in m.untraced), "inputs": len(items),
        "correct": not m.problems, "attempted": m.attempted, "failed": m.failed,
        "environment": environment(),
        "problems": m.problems[:20],
    }
    if hasattr(wl, "summary_csv"):
        result["summary_csv"] = wl.summary_csv()
    if trace:
        layers = tracing.layer_metrics(tracer.spans)
        speed = cal.host_speed()  # span times are wall times; scale them like the operations
        layers = {k: v * speed if unit_of(k) in ("ms", "us") else v for k, v in layers.items()}
        untraced, traced = (sum(statistics.median(s) for s in side) for side in (m.untraced, m.traced))
        layers["trace.overhead_share"] = traced / untraced - 1.0
        figures.update(layers)
        result["spans"] = len(tracer.spans)
        metrics = {name: figures[name] for name in PER_LAYER}
    else:
        metrics = {name: figures[name] for name in END_TO_END}
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    result["figures"] = {k: {"value": v, "unit": unit_of(k)} for k, v in figures.items()}
    result["op_samples"] = sum(len(s) for s in m.untraced)
    result["samples_ms"] = [[round(t * 1e3, 3) for t in ts] for ts in m.untraced]
    result["wall_samples_ms"] = [[round(t * 1e3, 3) for t in ts] for ts in m.wall]
    result["setup_samples_s"] = {"thread_cpu": setups_cpu, "wall": setups_wall}
    result["octave_locks"] = [f"p{r['preset']} {r['noise']} n={r['n']}" for r in records
                              if r["wrong"] == "octave" and "rep" not in r]
    result["accuracy"] = records
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["estimate-sweep", "mc-table", "cli-long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    sys.path.insert(0, str(SRC))
    try:
        import fundfreq
    except ImportError as exc:
        print(f"perfbench: cannot import fundfreq from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(fundfreq.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: fundfreq came from {fundfreq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    result = benchmark(make_workload(args.workload), args.seed, args.seconds, tracer)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(tracer.spans))
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")

    for name, fig in result["figures"].items():
        print(f"{args.workload:15s} {name:28s} {fig['value']:.6g} {fig['unit']}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
