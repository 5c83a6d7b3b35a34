"""The benchmark's closed-loop workloads: seeded inputs, operations, output checks.

Each workload has one caller: the next operation starts only when the
previous one returns.  Inputs derive from the benchmark seed alone, and the
package receives only the generated samples, specs or command lines.
Every call uses the package's default arguments.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import fundfreq as ff
from fundfreq import cli, montecarlo

P = 4
MA1 = (1.0, 0.5)
SIGMA2 = 0.25
PRESETS = {1: ff.MODEL1, 2: ff.MODEL2}
STATUSES = ("converged_tol", "converged_objective", "max_iter", "boundary", "degenerate")
FAILED_STATUSES = ("boundary", "degenerate")
ESTIMATE_KEYS = {"lambda_hat", "amplitudes", "residual_summary", "asym", "trace", "config"}
ASYMVAR_KEYS = {"n", "sigma2", "beta_star", "delta_g", "c_weights", "var_lse", "var_mnr"}


def sub_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def reference_var_lse(model, coeffs, sigma2: float, n: int) -> float:
    """24 sigma2 delta_G / (beta*^2 n^3), computed here independently of the package."""
    j = np.arange(1, model.p + 1)
    power = model.power_per_harmonic
    c = np.abs(np.exp(-1j * model.lam * np.outer(j, np.arange(len(coeffs)))) @ np.asarray(coeffs)) ** 2
    beta_star = float(np.sum(j**2 * power))
    return 24.0 * sigma2 * float(np.sum(j**2 * power * c)) / (beta_star**2 * float(n) ** 3)


def harmonic_samples(model, n: int, noise_seed: int | None) -> np.ndarray:
    """y(1..n) of ``model``, plus MA(1) noise of innovation variance SIGMA2 when seeded."""
    t = np.arange(1, n + 1, dtype=float)
    y = np.zeros(n)
    for j, (a, b) in enumerate(model.amplitudes, start=1):
        y += a * np.cos(j * model.lam * t) + b * np.sin(j * model.lam * t)
    if noise_seed is not None:
        eps = np.random.default_rng(noise_seed).normal(0.0, math.sqrt(SIGMA2), n + 1)
        y += MA1[0] * eps[1:] + MA1[1] * eps[:-1]
    return y


def check_estimate(lam_hat, status) -> list[str]:
    problems = []
    if not (isinstance(lam_hat, float) and math.isfinite(lam_hat) and 0.0 < lam_hat < math.pi / P):
        problems.append(f"lambda_hat {lam_hat!r} is not a finite value in (0, pi/{P})")
    if status not in STATUSES:
        problems.append(f"status {status!r} is not a documented status")
    return problems


def accuracy_record(workload, preset, noise, n, lam, lam_hat, status, g_values, var=None, **extra):
    """One estimate's accuracy, with its wrong-fundamental flag.

    ``wrong`` is "" for |lambda_hat - lambda| <= pi/n, "octave" when the
    estimate lies within pi/n of 2*lambda or lambda/2, and "other" otherwise.
    """
    err = abs(lam_hat - lam)
    wrong = ""
    if not err <= math.pi / n:
        near_octave = min(abs(lam_hat - 2 * lam), abs(lam_hat - lam / 2)) <= math.pi / n
        wrong = "octave" if near_octave else "other"
    steps = len(g_values) - 1
    return {
        "workload": workload, "preset": preset, "noise": noise, "n": n, **extra,
        "lambda": lam, "lambda_hat": lam_hat, "status": status, "steps": steps,
        "useful_steps": sum(b > a for a, b in zip(g_values, g_values[1:])),
        "wrong": wrong, "err": err, "var_lse": var,
        "err_z": err / math.sqrt(var) if var else None,
    }


@dataclass
class Outcome:
    """What the checks made of one operation's output."""

    records: list = field(default_factory=list)   # accuracy records, one per estimate
    problems: list = field(default_factory=list)  # output checks that failed
    failed: int = 0                               # operations that raised or failed a check
    status_failed: int = 0                        # other operations with a failed estimate


@dataclass
class SweepInput:
    preset: int
    noise: str
    n: int
    signal: object
    var: float | None


class EstimateSweep:
    """estimate_fundamental + lse_linear + residuals + asymptotic_variances per input.

    This is the in-process form of ``fundfreq estimate``, over n = 100..2050
    in steps of 50, both presets, noiseless and MA(1) noise.
    """

    name = "estimate-sweep"

    def __init__(self, sizes=tuple(range(100, 2051, 50))):
        self.sizes = tuple(sizes)

    def make_inputs(self, seed: int) -> list[SweepInput]:
        items = []
        for preset, model in PRESETS.items():
            for noise in ("none", "ma1"):
                for n in self.sizes:
                    noise_seed = None if noise == "none" else sub_seed(seed, 1, preset, n)
                    var = None if noise == "none" else reference_var_lse(model, MA1, SIGMA2, n)
                    signal = ff.Signal(harmonic_samples(model, n, noise_seed))
                    items.append(SweepInput(preset, noise, n, signal, var))
        return items

    def units(self, item) -> int:
        return 1

    def run(self, item: SweepInput, tracer=None):
        sig = item.signal
        lam_hat, trace = ff.estimate_fundamental(sig, P)
        amps = ff.lse_linear(sig, lam_hat, P)
        resid = ff.residuals(sig, lam_hat, amps)
        coeffs = MA1 if item.noise == "ma1" else (1.0,)
        sigma2_hat = float(resid.var()) / sum(c * c for c in coeffs)
        report = ff.asymptotic_variances(
            ff.HarmonicModel(P, lam_hat, tuple(amps)),
            ff.LinearProcessSpec(coeffs, max(sigma2_hat, 1e-300)),
            sig.n,
        )
        return lam_hat, trace, amps, report

    def check(self, item: SweepInput, output) -> Outcome:
        lam_hat, trace, amps, report = output
        problems = check_estimate(lam_hat, trace.status)
        if len(amps) != P or not np.all(np.isfinite(amps)):
            problems.append(f"amplitudes {amps!r} are not {P} finite pairs")
        if not (math.isfinite(report.var_lse) and report.var_lse >= 0.0
                and math.isclose(report.var_lse, 4.0 * report.var_mnr, rel_tol=1e-12)):
            problems.append(f"variance report var_lse={report.var_lse!r} var_mnr={report.var_mnr!r}")
        model = PRESETS[item.preset]
        record = accuracy_record(self.name, item.preset, item.noise, item.n, model.lam, lam_hat,
                                 trace.status, [r.g_value for r in trace.records], item.var)
        return Outcome([record], [f"{self.name} p{item.preset} {item.noise} n={item.n}: {m}"
                                  for m in problems], int(bool(problems)),
                       int(not problems and trace.status in FAILED_STATUSES))

    def close(self):
        pass


@dataclass
class McCell:
    n: int
    sigma2: float
    spec: object
    var: float


class McTable:
    """run_experiment on one cell of the paper's table grid per operation.

    Preset 1, MA(1) noise, n in {100, 200, 400, 500}, sigma2 in {0.25, 1.0}.
    Per-replication seeds hash the cell, so running the grid cell by cell
    gives the same rows as one call on the whole grid.
    """

    name = "mc-table"

    def __init__(self, sizes=(100, 200, 400, 500), sigma2s=(0.25, 1.0), reps=20):
        self.sizes, self.sigma2s, self.reps = tuple(sizes), tuple(sigma2s), reps
        self.csv_rows: dict[tuple, str] = {}

    def make_inputs(self, seed: int) -> list[McCell]:
        master_seed = sub_seed(seed, 2)
        return [
            McCell(n, s2, ff.ExperimentSpec(ff.MODEL1, MA1, (n,), (s2,), self.reps, master_seed),
                   reference_var_lse(ff.MODEL1, MA1, s2, n))
            for n in self.sizes for s2 in self.sigma2s
        ]

    def units(self, item) -> int:
        return self.reps

    def run(self, item: McCell, tracer=None):
        """Run the cell, recording each replication's estimate for the checks."""
        estimates = []
        inner = montecarlo.estimate_fundamental

        def recorded(*args, **kwargs):
            estimates.append(None)  # stays None if the estimate raises
            estimates[-1] = inner(*args, **kwargs)
            return estimates[-1]

        montecarlo.estimate_fundamental = recorded
        try:
            rows = ff.run_experiment(item.spec)
        finally:
            montecarlo.estimate_fundamental = inner
        return rows, estimates

    def check(self, item: McCell, output) -> Outcome:
        rows, estimates = output
        where = f"{self.name} n={item.n} sigma2={item.sigma2}"
        outcome = Outcome()
        for rep, est in enumerate(estimates):
            if est is None:  # the harness counts a raising replication as failed
                continue
            lam_hat, trace = est
            outcome.problems += [f"{where} rep {rep}: {m}" for m in check_estimate(lam_hat, trace.status)]
            outcome.records.append(accuracy_record(
                self.name, 1, "ma1", item.n, ff.MODEL1.lam, lam_hat, trace.status,
                [r.g_value for r in trace.records], item.var, sigma2=item.sigma2, rep=rep))
        failures = sum(est is None or est[1].status in FAILED_STATUSES for est in estimates)
        if len(estimates) != self.reps:
            outcome.problems.append(f"{where}: {len(estimates)} estimates for {self.reps} replications")
        if len(rows) != 1 or rows[0].replications != self.reps or rows[0].failure_count != failures:
            outcome.problems.append(f"{where}: summary rows {rows!r} disagree with the replications")
        else:
            line = ff.summary_csv_lines(rows)[1]
            expected = self.csv_rows.setdefault((item.n, item.sigma2), line)
            if line != expected:
                outcome.problems.append(f"{where}: summary CSV row {line!r} differs from {expected!r}")
        if outcome.problems:
            outcome.failed = self.reps
        else:
            outcome.status_failed = failures
        return outcome

    def summary_csv(self) -> str:
        """The grid's summary CSV, from the first run of each cell."""
        header = ff.summary_csv_lines([])[0]
        return "\n".join([header, *self.csv_rows.values()]) + "\n"

    def close(self):
        pass


@dataclass
class CliInput:
    preset: int
    n: int
    var: float
    files: dict
    commands: list


class CliLong:
    """In-process ``fundfreq synth``, ``estimate``, ``periodogram``, ``asymvar``.

    n in {4000, 8000}, both presets, MA(1) noise.  Files live in ``workdir``.
    """

    name = "cli-long"

    def __init__(self, workdir: str, sizes=(4000, 8000)):
        self.workdir, self.sizes = workdir, tuple(sizes)

    def make_inputs(self, seed: int) -> list[CliInput]:
        os.makedirs(self.workdir, exist_ok=True)
        items = []
        noise = ["--noise", "ma:" + ",".join(str(c) for c in MA1)]
        for n in self.sizes:
            for preset in PRESETS:
                files = {kind: os.path.join(self.workdir, f"p{preset}-n{n}-{kind}")
                         for kind in ("signal.txt", "estimate.json", "residuals.txt",
                                      "periodogram.csv", "asymvar.json")}
                model = ["--preset", str(preset)]
                commands = [
                    ("synth", ["synth", *model, "--n", str(n), *noise, "--sigma2", str(SIGMA2),
                               "--seed", str(sub_seed(seed, 3, preset, n)),
                               "--out", files["signal.txt"]]),
                    ("estimate", ["estimate", "--input", files["signal.txt"], "--p", str(P), *noise,
                                  "--json", "--residuals-out", files["residuals.txt"],
                                  "--out", files["estimate.json"]]),
                    ("periodogram", ["periodogram", "--input", files["signal.txt"], "--p", str(P),
                                     "--out", files["periodogram.csv"]]),
                    ("asymvar", ["asymvar", *model, *noise, "--sigma2", str(SIGMA2), "--n", str(n),
                                 "--out", files["asymvar.json"]]),
                ]
                var = reference_var_lse(PRESETS[preset], MA1, SIGMA2, n)
                items.append(CliInput(preset, n, var, files, commands))
        return items

    def units(self, item) -> int:
        return 1

    def run(self, item: CliInput, tracer=None):
        codes = []
        for command, argv in item.commands:
            with tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext():
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:  # argparse rejects a command line by exiting
                    codes.append(exc.code)
        return codes

    def check(self, item: CliInput, codes) -> Outcome:
        where = f"{self.name} p{item.preset} n={item.n}"
        problems = [f"{command} exited {code}" for (command, _), code in zip(item.commands, codes)
                    if code != 0]
        records = []
        try:
            problems += self._check_files(item, records)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed output: {type(exc).__name__}: {exc}")
        finally:
            for path in item.files.values():  # the next run must write them afresh
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        return Outcome(records, [f"{where}: {m}" for m in problems], int(bool(problems)),
                       int(not problems and any(r["status"] in FAILED_STATUSES for r in records)))

    def _check_files(self, item: CliInput, records: list) -> list[str]:
        problems = []
        with open(item.files["estimate.json"]) as fh:
            report = json.load(fh)
        if set(report) != ESTIMATE_KEYS:
            problems.append(f"estimate keys {sorted(report)}")
        lam_hat, status = report["lambda_hat"], report["trace"]["status"]
        problems += check_estimate(lam_hat, status)
        records.append(accuracy_record(
            self.name, item.preset, "ma1", item.n, PRESETS[item.preset].lam, lam_hat, status,
            [r["g_value"] for r in report["trace"]["records"]], item.var))

        with open(item.files["residuals.txt"]) as fh:
            resid = [float(v) for v in fh.read().split()]
        if len(resid) != item.n or not all(math.isfinite(v) for v in resid):
            problems.append(f"{len(resid)} residuals for n = {item.n}")

        with open(item.files["periodogram.csv"]) as fh:
            lines = fh.read().splitlines()
        admissible = sum(2.0 * math.pi * k / item.n < math.pi / P for k in range(1, item.n // 2 + 1))
        if lines[0] != "lambda,I,Q_N" or len(lines) - 1 != admissible:
            problems.append(f"periodogram has {len(lines) - 1} rows for {admissible} grid points")
        for k, line in enumerate(lines[1:], start=1):
            lam, i_val, q_val = (float(v) for v in line.split(","))
            if not (math.isclose(lam, 2.0 * math.pi * k / item.n, rel_tol=1e-5)
                    and i_val >= 0.0 and q_val >= 0.0 and math.isfinite(i_val + q_val)):
                problems.append(f"periodogram row {k} {line!r}")
                break

        with open(item.files["asymvar.json"]) as fh:
            asym = json.load(fh)
        if set(asym) != ASYMVAR_KEYS or asym["n"] != item.n:
            problems.append(f"asymvar report {asym!r}")
        elif not math.isclose(asym["var_lse"], item.var, rel_tol=1e-9):
            problems.append(f"asymvar var_lse {asym['var_lse']!r}, expected {item.var!r}")
        return problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
