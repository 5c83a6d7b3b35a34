"""Command-line interface: flags, files, exit codes, output schemas."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fundfreq
from fundfreq import Signal, read_signal, residuals, write_signal
from fundfreq.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_interpreter_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fundfreq.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


class TestSynth:
    def test_writes_n_lines(self, tmp_path, capsys):
        out = tmp_path / "sig.txt"
        code, _, _ = run_cli(["synth", "--preset", "1", "--n", "100",
                              "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 100

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run_cli(
                ["synth", "--preset", "2", "--n", "64", "--noise", "ma:1,0.5",
                 "--sigma2", "0.25", "--seed", "11", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "sig.txt"
        code, _, err = run_cli(["synth", "--n", "50", "--noise", "iid", "--seed", "-1",
                                "--out", str(out)], capsys)
        assert code == 1
        assert "seed must be >= 0, got -1" in err
        assert not out.exists()

    def test_n_zero_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["synth", "--preset", "1", "--n", "0", "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 2

    def test_bad_model_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"p": 4, "lambda": 2.0,
                                   "amplitudes": [[1, 0]] * 4}), encoding="utf-8")
        code, _, err = run_cli(
            ["synth", "--model-file", str(bad), "--n", "50",
             "--out", str(tmp_path / "y")],
            capsys,
        )
        assert code == 1
        assert "lambda" in err

    @pytest.mark.parametrize("p", [1.9, True, "2"])
    def test_model_file_p_must_be_a_json_integer(self, tmp_path, capsys, p):
        # int() read 1.9 and true as p = 1 and "2" as 2, each with exit 0
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"p": p, "lambda": 0.25, "amplitudes": [[1, 0]] * 2}),
                       encoding="utf-8")
        for argv in (["synth", "--model-file", str(bad), "--n", "50",
                      "--out", str(tmp_path / "y")],
                     ["asymvar", "--model-file", str(bad), "--sigma2", "1",
                      "--n", "100", "--csv"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert out == ""
            assert err.startswith(f"fundfreq: {bad}: expected a JSON object")
            assert f"p must be a JSON integer, got {json.dumps(p)}" in err
        assert not (tmp_path / "y").exists()

    def test_non_text_model_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_bytes(b'{"p": 1, "lambda": 0.25, "amplitudes": [[1, 0]]}\xff')
        code, out, err = run_cli(
            ["asymvar", "--model-file", str(bad), "--sigma2", "1", "--n", "100"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"fundfreq: {bad}: not a text file")
        assert err.count("\n") == 1

    def test_non_json_model_file_names_the_file(self, tmp_path, capsys):
        # the decoder's message reached stderr alone: "fundfreq: Expecting
        # value: line 1 column 1 (char 0)"
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        code, out, err = run_cli(
            ["asymvar", "--model-file", str(bad), "--sigma2", "1", "--n", "100"], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"fundfreq: {bad}: expected a JSON object with p, lambda and amplitudes "
                       "[[A_1, B_1], ...] (JSONDecodeError: Expecting value: line 1 column 1 "
                       "(char 0))\n")

    @pytest.mark.parametrize("model", [
        {"p": 2, "lambda": 0.25, "amplitudes": [1, 2]},
        {"p": "two", "lambda": 0.25, "amplitudes": [[1, 0], [1, 0]]},
        [2, 0.25, [[1, 0], [1, 0]]],
        {"lambda": 0.25, "amplitudes": [[1, 0], [1, 0]]},
        {"p": 1, "lambda": True, "amplitudes": [[1, 0]]},
        {"p": 1, "lambda": "0.25", "amplitudes": [[1, 0]]},
        {"p": 1, "lambda": 0.25, "amplitudes": [["1", False]]},
        {"p": 1, "lambda": 0.25, "amplitudes": [[1, True]]},
        {"p": 1, "lambda": 10**400, "amplitudes": [[1, 0]]},
    ], ids=["flat-amplitudes", "p-not-a-number", "top-level-list", "missing-p",
            "lambda-bool", "lambda-string", "amplitude-string", "amplitude-bool",
            "lambda-int-past-float-range"])
    def test_malformed_model_file_is_runtime_error(self, tmp_path, capsys, model):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code, _, err = run_cli(
            ["synth", "--model-file", str(bad), "--n", "50",
             "--out", str(tmp_path / "y")],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"fundfreq: {bad}: expected a JSON object")


class TestEstimate:
    @pytest.fixture()
    def clean_file(self, tmp_path, capsys):
        path = tmp_path / "m1.txt"
        run_cli(["synth", "--preset", "1", "--n", "256", "--out", str(path)], capsys)
        return path

    def test_report_schema(self, clean_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--input", str(clean_file), "--p", "4", "--json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "lambda_hat", "amplitudes", "residual_summary", "asym", "trace", "config",
        }
        assert len(report["amplitudes"]) == 4
        assert isinstance(report["trace"]["records"], list)
        assert report["trace"]["records"][0]["iteration"] == 0
        # one call per record but the closing one, record 0's included,
        # when no step is halved
        assert report["trace"]["evaluations"] == len(report["trace"]["records"]) - 1
        assert set(report["trace"]["records"][0]) == {
            "iteration", "lambda", "g_value", "correction"}
        assert 0.0 < report["lambda_hat"] < math.pi / 4

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--input", "/nonexistent/sig.txt", "--p", "4"], capsys
        )
        assert code == 2
        assert "not found" in err

    def test_all_zero_noise_coefficients_are_runtime_error(self, clean_file, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(clean_file), "--p", "4", "--noise", "ma:0"], capsys
        )
        assert code == 1
        assert out == ""
        assert "coeffs must not all be zero" in err

    def test_config_block_holds_the_mnr_config(self, clean_file, capsys):
        # the estimator has no settings; the block holds the run's inputs
        code, out, _ = run_cli(["estimate", "--input", str(clean_file), "--p", "4"], capsys)
        assert code == 0
        assert list(json.loads(out)["config"].items()) == [
            ("p", 4), ("mean_correct", False), ("noise_coeffs", [1.0]),
        ]

    def test_residuals_export(self, clean_file, tmp_path, capsys):
        res_path = tmp_path / "resid.txt"
        code, out, _ = run_cli(
            ["estimate", "--input", str(clean_file), "--p", "4",
             "--residuals-out", str(res_path)],
            capsys,
        )
        assert code == 0
        values = [float(x) for x in res_path.read_text(encoding="utf-8").split()]
        assert len(values) == 256
        # the file is the signal file write_signal makes of the residuals
        report = json.loads(out)
        resid = residuals(read_signal(str(clean_file)), report["lambda_hat"],
                          [tuple(ab) for ab in report["amplitudes"]])
        assert report["residual_summary"]["variance"] == float(resid.var())
        expected = tmp_path / "expected.txt"
        write_signal(Signal(resid), str(expected))
        assert res_path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("k", [600, -600])
    def test_out_of_range_signal_reports_the_variances_at_scale_one(
        self, tmp_path, capsys, monkeypatch, k
    ):
        # MODEL1 with MA(1) noise times 2^600 overflowed in the residual
        # variance, and times 2^-600 gave beta* = 0; the command exited 1.
        # var_lse and var_mnr are y's bit for bit, the squared scales read
        # inf or 0 past the float range, and the amplitudes and residuals
        # are y's times 2^k, from a single amplitude solve
        solves = []
        solve = fundfreq.linear._solve
        monkeypatch.setattr(fundfreq.linear, "_solve",
                            lambda *args: solves.append(args) or solve(*args))
        y = fundfreq.synthesize(fundfreq.MODEL1, 200,
                                fundfreq.LinearProcessSpec((1.0, 0.5), 0.25), seed=4).samples
        reports, resids = [], []
        for name, samples in (("y.txt", y), ("scaled.txt", np.ldexp(y, k))):
            write_signal(Signal(samples), str(tmp_path / name))
            solves.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(["estimate", "--input", str(tmp_path / name), "--p", "4",
                                          "--noise", "ma:1,0.5",
                                          "--residuals-out", str(tmp_path / f"res-{name}")],
                                         capsys)
            assert (code, err, len(solves)) == (0, "", 1)
            reports.append(json.loads(out))
            resids.append(read_signal(str(tmp_path / f"res-{name}")).samples)
        ref, got = reports
        assert got["lambda_hat"] == ref["lambda_hat"]
        assert resids[1].tobytes() == np.ldexp(resids[0], k).tobytes()
        assert got["amplitudes"] == [[math.ldexp(a, k), math.ldexp(b, k)]
                                     for a, b in ref["amplitudes"]]
        for key in ("var_lse", "var_mnr", "c_weights"):
            assert got["asym"][key] == ref["asym"][key]
        assert got["residual_summary"]["mean"] == math.ldexp(ref["residual_summary"]["mean"], k)
        beyond = math.inf if k > 0 else 0.0
        assert [got["residual_summary"]["variance"], got["residual_summary"]["sigma2_hat"],
                got["asym"]["sigma2"], got["asym"]["beta_star"], got["asym"]["delta_g"]] == [beyond] * 5

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_noiseless_out_of_range_signal_has_a_variance_report(self, tmp_path, capsys, scale):
        # "beta*^2 n^3 is out of the float range" (beta* = inf or 0) and exit 1
        path = tmp_path / "sig.txt"
        write_signal(Signal(scale * fundfreq.synthesize(fundfreq.MODEL1, 200).samples), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["estimate", "--input", str(path), "--p", "4"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert abs(report["lambda_hat"] - fundfreq.MODEL1.lam) < 1e-10
        assert math.isfinite(report["asym"]["var_lse"]) and report["asym"]["var_lse"] > 0.0

    def test_estimate_stopped_at_the_upper_edge_fits(self, tmp_path, capsys):
        # pure noise, p = 3, n = 200, seed 202: the run presses on pi/3 and
        # ends boundary at the edge of the admissible interval, where the
        # amplitudes solve.  It once ended 9.3e-9 below pi/3, where X'X is
        # singular, and the command exited 1
        path = tmp_path / "noise.txt"
        write_signal(Signal(np.random.default_rng(202).standard_normal(200)), str(path))
        code, out, err = run_cli(["estimate", "--input", str(path), "--p", "3"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["trace"]["status"] == "boundary"
        assert 0.0 < math.pi / 3 - report["lambda_hat"] < 1e-4

    def test_estimate_stopped_at_the_upper_edge_is_scale_free(self, tmp_path, capsys):
        # the same noise times 2^600: the same run, so the same lambda_hat
        # and variances as at scale 1.  When a boundary run returned the
        # record with the largest g, the records' g values, scaled back,
        # all read inf and the run returned its start: lambda_hat 1.044580
        # against 1.047191, and var_lse 5.2e-6 against 1.4e-10
        y = np.random.default_rng(202).standard_normal(200)
        reports = []
        for k in (0, 600):
            path = tmp_path / f"noise{k}.txt"
            write_signal(Signal(np.ldexp(y, k)), str(path))
            code, out, err = run_cli(["estimate", "--input", str(path), "--p", "3"], capsys)
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
        unit, scaled = reports
        assert scaled["lambda_hat"] == unit["lambda_hat"]
        assert scaled["trace"]["status"] == unit["trace"]["status"] == "boundary"
        assert scaled["trace"]["evaluations"] == unit["trace"]["evaluations"]
        assert scaled["asym"]["var_lse"] == unit["asym"]["var_lse"]
        assert scaled["asym"]["var_mnr"] == unit["asym"]["var_mnr"]

    def test_mean_correct_flag(self, tmp_path, capsys):
        # a large DC offset: removable preprocessing, the tone still found
        path = tmp_path / "shifted.txt"
        path.write_text("\n".join(str(5.0 + math.cos(0.3 * t)) for t in range(1, 151)),
                        encoding="utf-8")
        code, out, _ = run_cli(
            ["estimate", "--input", str(path), "--p", "1", "--mean-correct"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["mean_correct"] is True
        assert abs(report["lambda_hat"] - 0.3) < 0.01


class TestPeriodogram:
    def test_row_count_matches_grid(self, tmp_path, capsys):
        n, p = 200, 4
        path = tmp_path / "sig.txt"
        run_cli(["synth", "--preset", "1", "--n", str(n), "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["periodogram", "--input", str(path), "--p", str(p)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,I,Q_N"
        expected = sum(
            1 for k in range(1, n // 2 + 1) if 2 * math.pi * k / n < math.pi / p
        )
        assert len(lines) - 1 == expected

    def test_no_row_at_pi_over_p(self, tmp_path, capsys):
        # n = 44, p = 1: k = 22 is pi itself, which 2*pi*22/44 rounds below
        path = tmp_path / "sig.txt"
        run_cli(["synth", "--preset", "1", "--n", "44", "--out", str(path)], capsys)
        code, out, _ = run_cli(["periodogram", "--input", str(path), "--p", "1"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) - 1 == 21

    @staticmethod
    def _exact_row(y, k, p):
        """(lambda, I, Q_N) at 2*pi*k/n from direct sums with exact phases.

        The phase 2*pi*((m*t) mod n)/n reduces m*t in integers before any
        rounding, so it keeps full accuracy at large t.
        """
        n = y.size
        t = np.arange(1, n + 1)

        def power(m):
            phase = 2.0 * math.pi * ((m * t) % n) / n
            re, im = math.fsum(y * np.cos(phase)), math.fsum(y * np.sin(phase))
            return re * re + im * im

        q_val = math.fsum(power(j * k) for j in range(1, p + 1)) / n**2
        return 2.0 * math.pi * k / n, power(k) / n, q_val

    def _periodogram_rows(self, tmp_path, capsys, synth_args, p):
        path = tmp_path / "sig.txt"
        run_cli(["synth", *synth_args, "--out", str(path)], capsys)
        code, out, _ = run_cli(
            ["periodogram", "--input", str(path), "--p", str(p)], capsys
        )
        assert code == 0
        return np.loadtxt(path, encoding="utf-8"), out.strip().splitlines()[1:]

    def test_values_match_exact_phase_reference(self, tmp_path, capsys):
        p = 4
        y, rows = self._periodogram_rows(
            tmp_path, capsys,
            ["--preset", "1", "--n", "200", "--noise", "ma:1,0.5",
             "--sigma2", "0.25", "--seed", "2"],
            p,
        )
        assert len(rows) == 24
        for k, row in enumerate(rows, start=1):
            expected = ",".join(f"{v:.5e}" for v in self._exact_row(y, k, p))
            assert row == expected

    def test_large_t_row_matches_exact_phase_reference(self, tmp_path, capsys):
        # exact I = 6.384754999979e-03 (40-digit arithmetic): a direct sum
        # with phases lam*t rounded at large t printed 6.38476e-03
        y, rows = self._periodogram_rows(
            tmp_path, capsys, ["--preset", "2", "--n", "4000"], 1
        )
        k = 946
        i_field = rows[k - 1].split(",")[1]
        assert i_field == "6.38475e-03"
        assert i_field == f"{self._exact_row(y, k, 1)[1]:.5e}"

    def test_out_of_range_signal_prints_finite_rows(self, tmp_path):
        # MODEL1 times 1e152: the FFT power of y itself overflowed, and numpy
        # warned; under -W error the command then failed with a traceback
        path, per = tmp_path / "sig.txt", tmp_path / "periodogram.csv"
        clean = fundfreq.synthesize(fundfreq.MODEL1, 200)
        write_signal(Signal(1e152 * clean.samples), str(path))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fundfreq.cli", "periodogram",
             "--input", str(path), "--p", "4", "--out", str(per)],
            env=_fresh_interpreter_env(), capture_output=True, text=True, encoding="utf-8",
            timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        rows = [line.split(",") for line in per.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 24
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_empty_grid_is_runtime_error(self, tmp_path, capsys):
        # n = 5: the first Fourier frequency 2*pi/5 already exceeds pi/4
        path = tmp_path / "short.txt"
        path.write_text("\n".join(["0.5", "-1.0", "2.0", "0.25", "1.5"]) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            ["periodogram", "--input", str(path), "--p", "4"], capsys
        )
        assert code == 1
        assert out == ""
        assert "no Fourier frequency lies in (0, pi/4)" in err
        code, _, _ = run_cli(["estimate", "--input", str(path), "--p", "4"], capsys)
        assert code == 1


@pytest.mark.parametrize("command", ["estimate", "periodogram"])
@pytest.mark.parametrize("row", ["abc", "1.0 2.0"])
def test_malformed_signal_file_is_runtime_error(tmp_path, capsys, command, row):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(["0.5", "-1.0", row, "2.0"]) + "\n", encoding="utf-8")
    code, out, err = run_cli([command, "--input", str(path), "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fundfreq: ")
    assert f"bad.txt: line 3: cannot read a number from {row!r}" in err


@pytest.mark.parametrize("command", ["estimate", "periodogram"])
@pytest.mark.parametrize("row", ["nan", "-inf", "1e999"])
def test_non_finite_sample_is_runtime_error(tmp_path, capsys, command, row):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(["0.5", "-1.0", row, "2.0"]) + "\n", encoding="utf-8")
    code, out, err = run_cli([command, "--input", str(path), "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"fundfreq: {path}: line 3: cannot read a finite number from {row!r}\n"


@pytest.mark.parametrize("command", ["estimate", "periodogram"])
def test_non_text_signal_file_is_runtime_error(tmp_path, capsys, command):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff" * 8)
    code, out, err = run_cli([command, "--input", str(path), "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"fundfreq: {path}: not a text file")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["estimate", "periodogram"])
def test_header_only_csv_is_runtime_error(tmp_path, capsys, command):
    path = tmp_path / "header.csv"
    path.write_text("y\n", encoding="utf-8")
    code, out, err = run_cli([command, "--input", str(path), "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"fundfreq: {path}: no data rows\n"


@pytest.mark.parametrize("command", ["estimate", "periodogram"])
def test_input_that_is_a_directory_is_runtime_error(tmp_path, capsys, command):
    code, out, err = run_cli([command, "--input", str(tmp_path), "--p", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fundfreq: ") and str(tmp_path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["asymvar", "--sigma2", "0", "--n", "100"], "argument --sigma2: must be positive, got 0"),
    (["synth", "--n", "10", "--noise", "iid", "--sigma2", "nan", "--out", "x.txt"],
     "argument --sigma2: must be positive, got nan"),
    (["simulate", "--n", "100,abc", "--sigma2", "1"],
     "argument --n: bad integer list '100,abc'"),
    (["simulate", "--n", "100", "--sigma2", "1,,2"],
     "argument --sigma2: bad number list '1,,2'"),
    (["asymvar", "--noise", "white", "--sigma2", "1", "--n", "100"],
     "argument --noise: expected 'iid' or 'ma:<coeffs>', got 'white'"),
    (["simulate", "--noise", "ma:1,x", "--n", "100", "--sigma2", "1"],
     "argument --noise: bad number list '1,x'"),
], ids=["positive-float", "positive-float-nan", "int-list", "float-list", "noise-spec",
        "noise-coeffs"])
def test_malformed_values_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--preset", "1", "--n", "100", "--out", "x.txt", "--sample-rate", "8000"],
    ["estimate", "--input", "x.txt", "--p", "4", "--init-mode", "plain"],
    ["estimate", "--input", "x.txt", "--p", "4", "--subsample-exponent", "0.3"],
    ["estimate", "--input", "x.txt", "--p", "4", "--tol", "1e-9"],
    ["estimate", "--input", "x.txt", "--p", "4", "--max-iter", "10"],
    ["estimate", "--input", "x.txt", "--p", "4", "--step-factor", "0.5"],
])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every main() call; no value may carry over."""

    def test_store_true_flag_does_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "shifted.txt"
        path.write_text("\n".join(str(5.0 + math.cos(0.3 * t)) for t in range(1, 151)),
                        encoding="utf-8")
        args = ["estimate", "--input", str(path), "--p", "1"]
        _, first, _ = run_cli(args + ["--mean-correct"], capsys)
        _, second, _ = run_cli(args, capsys)
        assert json.loads(first)["config"]["mean_correct"] is True
        assert json.loads(second)["config"]["mean_correct"] is False

    def test_noise_does_not_carry_over(self, tmp_path, capsys):
        noisy, clean, fresh = (tmp_path / f"{k}.txt" for k in ("noisy", "clean", "fresh"))
        args = ["synth", "--preset", "1", "--n", "80"]
        assert main(args + ["--noise", "ma:1,0.5", "--seed", "2", "--out", str(noisy)]) == 0
        assert main(args + ["--out", str(clean)]) == 0
        write_signal(fundfreq.synthesize(fundfreq.MODEL1, 80), str(fresh))
        assert clean.read_bytes() == fresh.read_bytes() != noisy.read_bytes()

    def test_usage_error_after_a_successful_call(self, tmp_path, capsys):
        assert main(["asymvar", "--preset", "1", "--sigma2", "0.25", "--n", "100"]) == 0
        with pytest.raises(SystemExit) as exc_info:
            main(["asymvar", "--preset", "1", "--n", "100"])  # --sigma2 is required
        assert exc_info.value.code == 2
        assert "--sigma2" in capsys.readouterr().err


def test_module_entry_point_in_a_fresh_interpreter(tmp_path):
    """``python -m fundfreq.cli`` end to end, outside the in-process parser."""
    env = _fresh_interpreter_env()
    sig, resid, est, per = (tmp_path / name for name in
                            ("sig.txt", "resid.txt", "estimate.json", "periodogram.csv"))
    for argv in (["synth", "--preset", "2", "--n", "200", "--noise", "ma:1,0.5",
                  "--sigma2", "0.25", "--seed", "1", "--out", str(sig)],
                 ["estimate", "--input", str(sig), "--p", "4", "--residuals-out", str(resid),
                  "--out", str(est)],
                 ["periodogram", "--input", str(sig), "--p", "4", "--out", str(per)]):
        done = subprocess.run([sys.executable, "-m", "fundfreq.cli", *argv], env=env,
                              capture_output=True, text=True, encoding="utf-8", timeout=60)
        assert done.returncode == 0, done.stderr
    assert read_signal(str(sig)).n == read_signal(str(resid)).n == 200
    lam_hat = json.loads(est.read_text(encoding="utf-8"))["lambda_hat"]
    assert abs(lam_hat - fundfreq.MODEL2.lam) < 1e-3
    lines = per.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lambda,I,Q_N" and len(lines) - 1 == 24


class TestSimulate:
    def test_single_rep_runs(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--preset", "1", "--noise", "iid", "--n", "100",
             "--sigma2", "0.25", "--reps", "1", "--seed", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,sigma2,average,variance,asym_var_lse,asym_var_mnr,failures"
        assert len(lines) == 2

    def test_grid_output_matches_cells_run_alone(self, capsys):
        args = ["simulate", "--preset", "1", "--noise", "ma:1,0.5", "--n", "100",
                "--reps", "16", "--seed", "9", "--sigma2"]
        code, whole, _ = run_cli(args + ["0.25,1.0"], capsys)
        assert code == 0
        _, cell_a, _ = run_cli(args + ["0.25"], capsys)
        _, cell_b, _ = run_cli(args + ["1.0"], capsys)
        assert whole.splitlines() == cell_a.splitlines() + cell_b.splitlines()[1:]
        _, again, _ = run_cli(args + ["0.25,1.0"], capsys)
        assert again == whole

    def test_model_flag_accepts_preset_and_file(self, tmp_path, capsys):
        args = ["--noise", "iid", "--n", "100", "--sigma2", "0.25",
                "--reps", "2", "--seed", "3"]
        _, via_preset, _ = run_cli(["simulate", "--preset", "2"] + args, capsys)
        model_file = tmp_path / "m2.json"
        model_file.write_text(json.dumps({
            "p": 4, "lambda": 0.3141,
            "amplitudes": [[4, 2], [3, 1.5], [2, 1.25], [1, 1]],
        }), encoding="utf-8")
        _, via_file, _ = run_cli(
            ["simulate", "--model-file", str(model_file)] + args, capsys
        )
        assert via_preset == via_file
        # a file saved with a UTF-8 byte order mark reads the same
        model_file.write_bytes(b"\xef\xbb\xbf" + model_file.read_bytes())
        code, via_bom, _ = run_cli(["simulate", "--model-file", str(model_file)] + args, capsys)
        assert (code, via_bom) == (0, via_preset)
        # there is no --model flag, and no prefix stands for --model-file
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--model", "2"] + args)
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --model 2" in capsys.readouterr().err

    def test_invalid_sigma2_fails_before_any_cell_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(fundfreq.montecarlo, "estimate_fundamental",
                            lambda *args: calls.append(args))
        code, out, err = run_cli(
            ["simulate", "--n", "100", "--sigma2", "0.25,-1", "--reps", "3"], capsys
        )
        assert code == 1
        assert out == ""
        assert "sigma2 must be positive and finite, got -1.0" in err
        assert calls == []

    def test_master_seed_outside_int64_is_runtime_error(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--n", "100", "--sigma2", "1", "--reps", "1",
             "--seed", "99999999999999999999"], capsys
        )
        assert code == 1
        assert out == ""
        assert "master_seed must fit in int64, got 99999999999999999999" in err

    def test_negative_master_seed_runs(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--n", "100", "--sigma2", "1", "--reps", "1", "--seed", "-5"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_sample_size_below_ten_p_is_runtime_error(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--n", "100,20", "--sigma2", "1", "--reps", "3"], capsys
        )
        assert code == 1
        assert out == ""
        assert "need n >= 10*p = 40 in every cell, got n = 20" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "sig.txt", "--p", "4", "--json"],
    ["periodogram", "--input", "sig.txt", "--p", "4"],
    ["simulate", "--n", "40,60", "--sigma2", "0.5", "--reps", "3"],
    ["asymvar", "--sigma2", "0.5", "--n", "100", "--csv"],
], ids=lambda argv: argv[0])
def test_report_goes_to_stdout_or_out(tmp_path, capsys, monkeypatch, argv):
    # main alone writes a report: --out gets the bytes stdout gets, and an
    # empty --out prints
    monkeypatch.chdir(tmp_path)
    write_signal(fundfreq.synthesize(fundfreq.MODEL1, 100), "sig.txt")
    code, printed, err = run_cli(argv, capsys)
    assert (code, err) == (0, "") and printed.endswith("\n")
    assert run_cli(argv + ["--out", ""], capsys) == (0, printed, "")
    assert run_cli(argv + ["--out", "report"], capsys) == (0, "", "")
    assert (tmp_path / "report").read_bytes() == printed.encode()


class TestAsymvar:
    def test_benchmark_values(self, capsys):
        code, out, _ = run_cli(
            ["asymvar", "--preset", "1", "--noise", "iid", "--sigma2", "0.01",
             "--n", "100"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["var_lse"] == pytest.approx(6.36e-10, rel=0.01)
        assert report["var_mnr"] == pytest.approx(1.59e-10, rel=0.01)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            ["asymvar", "--preset", "2", "--noise", "ma:1,0.5", "--sigma2", "1.0",
             "--n", "1000", "--csv"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,sigma2,beta_star,delta_g,var_lse,var_mnr"
        fields = row.split(",")
        assert float(fields[4]) == pytest.approx(3.09e-10, rel=0.01)

    def test_all_zero_noise_coefficients_are_runtime_error(self, capsys):
        code, out, err = run_cli(
            ["asymvar", "--noise", "ma:0,0", "--sigma2", "1", "--n", "100"], capsys
        )
        assert code == 1
        assert out == ""
        assert "coeffs must not all be zero" in err

    @pytest.mark.parametrize("args", [
        ["--sigma2", "1", "--noise", "ma:1e200"],
        ["--sigma2", "1e300", "--noise", "ma:1e10,1", "--csv"],
    ], ids=["weight-overflows", "variance-overflows"])
    def test_overflowing_noise_variance_is_runtime_error(self, capsys, args):
        # an OverflowError traceback, and an exit 0 with inf variances
        code, out, err = run_cli(["asymvar", "--n", "100"] + args, capsys)
        assert code == 1
        assert out == ""
        assert "sum(a(k)^2) is not finite" in err

    @pytest.mark.parametrize("n, amplitude", [
        ("1" + "0" * 102, None), ("1" + "0" * 103, None), ("1" + "0" * 400, None),
        ("100", 1e160), ("100", 1e-160),
    ], ids=["n-1e102", "n-1e103", "n-1e400", "amplitude-1e160", "amplitude-1e-160"])
    def test_out_of_range_denominator_is_runtime_error(self, tmp_path, capsys, n, amplitude):
        # a zero variance, an OverflowError traceback or a RuntimeWarning
        # before the exit; the preset has beta* = 377.6
        model = ["--preset", "1"]
        if amplitude is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"p": 1, "lambda": 0.25, "amplitudes": [[amplitude, 0]]}),
                            encoding="utf-8")
            model = ["--model-file", str(path)]
        code, out, err = run_cli(["asymvar", *model, "--sigma2", "1", "--n", n], capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("fundfreq: beta*^2 n^3 is out of the float range")

    def test_idempotent(self, capsys):
        args = ["asymvar", "--preset", "1", "--noise", "iid", "--sigma2", "0.25",
                "--n", "500"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
