"""Tests of the benchmark itself: metric names, smoke runs, seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Per-layer figures the traced run must report, for each workload where the layer runs.
LAYER_FIGURES = {
    "estimate-sweep": {"linear.lse_ms", "linear.residuals_ms"},
    "mc-table": {"montecarlo.rep_ms", "montecarlo.harness_share", "montecarlo.failed_reps",
                 "signal.synthesize_ms"},
    "cli-long": {"spectrum.periodogram_ms", "signal.synthesize_ms", "signal.write_ms",
                 "signal.read_ms", "linear.lse_ms", "linear.residuals_ms", "cli.synth_ms",
                 "cli.estimate_ms", "cli.periodogram_ms", "cli.asymvar_ms"},
}
STATUS_FIGURES = {f"mnr.status.{s}" for s in workloads.STATUSES}
WALL_FIGURES = {"setup_wall_s", "op_p50_wall_ms", "ops_per_s_wall", "host_speed"}


def smoke_workload(name, tmp_path):
    if name == "estimate-sweep":
        return workloads.EstimateSweep(sizes=(100, 150))
    if name == "mc-table":
        return workloads.McTable(sizes=(100,), sigma2s=(0.25,), reps=3)
    return workloads.CliLong(str(tmp_path / "work"), sizes=(200,))


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["estimate-sweep", "mc-table", "cli-long"]
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.OTHER_UNITS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", ["estimate-sweep", "mc-table", "cli-long"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    tracer = tracing.Tracer() if trace else None
    result = run.benchmark(smoke_workload(name, tmp_path), seed=3, seconds=0.01, tracer=tracer)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result["problems"]
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    figures = set(result["figures"])
    assert set(run.END_TO_END) | STATUS_FIGURES | WALL_FIGURES <= figures
    if trace:
        assert set(run.PER_LAYER) | LAYER_FIGURES[name] <= figures
    for figure in figures:
        assert NAME.fullmatch(figure), figure
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu_model"} <= set(result["environment"])
    assert result["accuracy"] and {"workload", "preset", "noise", "n", "lambda_hat", "status", "steps",
                                   "wrong"} <= set(result["accuracy"][0])
    assert not (tmp_path / "work").exists()


def test_mc_table_summary_is_identical_traced_and_untraced(tmp_path):
    csv = [run.benchmark(smoke_workload("mc-table", tmp_path), 5, 0.01, tracer)["summary_csv"]
           for tracer in (None, tracing.Tracer())]
    assert csv[0] == csv[1]
    assert len(csv[0].splitlines()) == 2


def test_same_seed_same_inputs_and_noiseless_inputs_ignore_the_seed(tmp_path):
    sweep = workloads.EstimateSweep(sizes=(100, 250))
    a, b, c = sweep.make_inputs(1), sweep.make_inputs(1), sweep.make_inputs(2)
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x.signal.samples, y.signal.samples)
        assert np.array_equal(x.signal.samples, z.signal.samples) == (x.noise == "none")

    table = workloads.McTable()
    assert table.make_inputs(1) == table.make_inputs(1)
    assert table.make_inputs(1)[0].spec.master_seed != table.make_inputs(2)[0].spec.master_seed

    cli = workloads.CliLong(str(tmp_path / "work"))
    assert [i.commands for i in cli.make_inputs(1)] == [i.commands for i in cli.make_inputs(1)]
    assert [i.commands for i in cli.make_inputs(1)] != [i.commands for i in cli.make_inputs(2)]
    cli.close()


def test_wrong_fundamental_flags_octaves():
    def flag(lam_hat):
        return workloads.accuracy_record("w", 1, "none", 500, 0.25, lam_hat, "converged_tol",
                                         [1.0, 2.0])["wrong"]

    assert flag(0.25 + 0.5 * math.pi / 500) == ""
    assert flag(0.5 + 0.5 * math.pi / 500) == "octave"
    assert flag(0.125) == "octave"
    assert flag(0.4) == "other"


def test_checks_reject_bad_estimates():
    assert workloads.check_estimate(0.3, "converged_tol") == []
    assert workloads.check_estimate(math.nan, "converged_tol")
    assert workloads.check_estimate(math.pi / 4, "converged_tol")
    assert workloads.check_estimate(0.3, "stalled")


def test_failed_estimates_count_in_ok_share_not_in_failed():
    sweep = workloads.EstimateSweep(sizes=(100,))
    item = sweep.make_inputs(1)[0]
    lam_hat, trace, amps, report = sweep.run(item)
    boundary = SimpleNamespace(status="boundary", records=trace.records)
    outcome = sweep.check(item, (lam_hat, boundary, amps, report))
    assert (outcome.failed, outcome.status_failed, outcome.problems) == (0, 1, [])
    outcome = sweep.check(item, (math.nan, trace, amps, report))
    assert (outcome.failed, outcome.status_failed) == (1, 0) and outcome.problems


def test_calibrator_scales_by_the_kernel_runs_around_the_work():
    cal = calibration.Calibrator()
    before = len(cal.kernel_times)
    scaled = cal.scale(0.05)
    assert len(cal.kernel_times) > before
    assert scaled == pytest.approx(0.05 * calibration.REFERENCE_S / statistics.median(cal.kernel_times))
    assert cal.host_speed() > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-table", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
