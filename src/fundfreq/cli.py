"""Command-line front end.

Subcommands: ``synth`` (write a synthetic signal file), ``estimate``
(frequency + amplitudes + variances as JSON), ``periodogram`` (spectral CSV
over the Fourier grid, read from one FFT by the same routine as the
estimator's start), ``simulate`` (Monte Carlo summary CSV), ``asymvar``
(closed-form variance report).

Each command but ``synth``, which writes its signal file, returns its
report as text, and :func:`main` alone writes it, to stdout or to
``--out``.

Exit codes: 0 success, 1 runtime or numerical failure (including a malformed
signal file), 2 usage error.

:func:`main` can be called many times in one process; the argument parser
is built on the first call and reused by the later ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .asymptotics import asymptotic_variances
from .errors import DomainError, FundfreqError
from .linear import lse_linear, residuals
from .mnr import estimate_fundamental
from .montecarlo import (
    MA1_NOISE_COEFFS,
    MODEL1,
    MODEL2,
    ExperimentSpec,
    run_experiment,
    summary_csv_lines,
)
from .signal import (
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    _read_text,
    _write_text,
    mean_correct,
    read_signal,
    synthesize,
    write_signal,
)
from .spectrum import grid_spectrum

_PRESETS = {"1": MODEL1, "2": MODEL2}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _noise_spec(text: str) -> tuple[float, ...]:
    """Parse --noise: 'iid' or 'ma:<a0,a1,...>'."""
    if text == "iid":
        return (1.0,)
    if text.startswith("ma:"):
        return _float_list(text[3:])
    raise argparse.ArgumentTypeError(f"expected 'iid' or 'ma:<coeffs>', got {text!r}")


def _model_from_args(args) -> HarmonicModel:
    if args.model_file:
        return _load_model_file(args.model_file)
    return _PRESETS[args.preset]


def _load_model_file(path: str) -> HarmonicModel:
    text = _read_text(path)
    try:
        raw = json.loads(text)  # a JSONDecodeError is a ValueError
        # rejects 1.9 and "2", and true, a bool; lambda and the amplitudes
        # go through HarmonicModel's own rules, whose DomainError is a
        # ValueError
        if type(raw["p"]) is not int:
            raise TypeError(f"p must be a JSON integer, got {json.dumps(raw['p'])}")
        return HarmonicModel(raw["p"], raw["lambda"], raw["amplitudes"])
    except (TypeError, ValueError, KeyError) as exc:
        raise DomainError(
            f"{path}: expected a JSON object with p, lambda and amplitudes "
            f"[[A_1, B_1], ...] ({type(exc).__name__}: {exc})"
        ) from None


def cmd_synth(args) -> None:
    model = _model_from_args(args)
    noise = None if args.noise is None else LinearProcessSpec(args.noise, args.sigma2)
    sig = synthesize(model, args.n, noise, args.seed)
    write_signal(sig, args.out)


def cmd_estimate(args) -> str:
    noise = LinearProcessSpec(args.noise)  # sigma2 = 1: the noise shape alone
    sig = read_signal(args.input)
    if args.mean_correct:
        sig = mean_correct(sig)
    lam_hat, trace = estimate_fundamental(sig, args.p)
    # The fit, the residuals and the variances are taken on the unit view
    # (see Signal), where var_lse and var_mnr do not change with the scale;
    # the rest returns through _scale_back.
    unit = sig._unit
    amps = lse_linear(unit, lam_hat, args.p)
    resid = residuals(unit, lam_hat, amps)
    variance = float(resid.var())
    # innovation variance from the residuals: var(e) = sigma2 * sum a(k)^2
    sigma2_hat = variance / noise.process_variance
    model_hat = HarmonicModel(args.p, lam_hat, tuple(amps))
    # a perfect noiseless fit gives sigma2_hat == 0; keep the spec valid
    asym = asymptotic_variances(
        model_hat, LinearProcessSpec(noise.coeffs, max(sigma2_hat, 1e-300)), sig.n
    )
    report = {
        "lambda_hat": lam_hat,
        "amplitudes": sig._scale_back(amps).tolist(),
        "residual_summary": {
            "n": sig.n,
            "mean": sig._scale_back(float(resid.mean())),
            "variance": sig._scale_back(variance, 2),
            "sigma2_hat": sig._scale_back(sigma2_hat, 2),
        },
        "asym": dataclasses.asdict(dataclasses.replace(
            asym, sigma2=sig._scale_back(asym.sigma2, 2),
            beta_star=sig._scale_back(asym.beta_star, 2),
            delta_g=sig._scale_back(asym.delta_g, 2),
        )),
        "trace": {
            "status": trace.status,
            "evaluations": trace.evaluations,
            "records": [
                {
                    "iteration": r.iteration,
                    "lambda": r.lam,
                    "g_value": r.g_value,
                    "correction": r.correction,
                }
                for r in trace.records
            ],
        },
        "config": {
            "p": args.p,
            "mean_correct": bool(args.mean_correct),
            "noise_coeffs": list(noise.coeffs),
        },
    }
    if args.residuals_out:
        write_signal(Signal(sig._scale_back(resid)), args.residuals_out)
    return json.dumps(report, indent=2 if args.json else None)


def cmd_periodogram(args) -> str:
    sig = read_signal(args.input)
    rows = zip(*(column.tolist() for column in grid_spectrum(sig, args.p)))
    return "\n".join(["lambda,I,Q_N", *map("%.5e,%.5e,%.5e".__mod__, rows)])


def cmd_simulate(args) -> str:
    model = _model_from_args(args)
    spec = ExperimentSpec(
        model=model,
        noise_coeffs=args.noise,
        sample_sizes=args.n,
        sigma2_values=args.sigma2,
        replications=args.reps,
        master_seed=args.seed,
    )
    return "\n".join(summary_csv_lines(run_experiment(spec)))


def cmd_asymvar(args) -> str:
    model = _model_from_args(args)
    report = asymptotic_variances(model, LinearProcessSpec(args.noise, args.sigma2), args.n)
    if args.csv:
        return (
            "n,sigma2,beta_star,delta_g,var_lse,var_mnr\n"
            f"{report.n},{report.sigma2:.5e},{report.beta_star:.5e},"
            f"{report.delta_g:.5e},{report.var_lse:.5e},{report.var_mnr:.5e}"
        )
    return json.dumps(dataclasses.asdict(report), indent=2)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=sorted(_PRESETS), default="1",
                       help="built-in benchmark model (default 1)")
    group.add_argument("--model-file", help="JSON file with p, lambda, amplitudes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fundfreq`` argument parser, built once per process.

    Every call returns the same parser, so callers must not modify it;
    each ``parse_args`` call still returns a fresh namespace.
    """
    # allow_abbrev=False on every parser: a prefix such as --model must not
    # stand for --model-file
    parser = argparse.ArgumentParser(
        prog="fundfreq",
        description="Fundamental frequency estimation for harmonic signals",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_synth = add_parser("synth", help="write a synthetic signal file")
    _add_model_flags(p_synth)
    p_synth.add_argument("--n", type=_positive_int, required=True)
    p_synth.add_argument("--noise", type=_noise_spec, default=None,
                         help="'iid' or 'ma:<a0,a1,...>' (omit for noiseless)")
    p_synth.add_argument("--sigma2", type=_positive_float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_est = add_parser("estimate", help="estimate frequency and amplitudes")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--p", type=_positive_int, required=True)
    p_est.add_argument("--mean-correct", action="store_true")
    p_est.add_argument("--noise", type=_noise_spec, default=(1.0,),
                       help="noise shape for the variance report (default iid)")
    p_est.add_argument("--json", action="store_true", help="pretty-print the report")
    p_est.add_argument("--residuals-out", default=None,
                       help="also write residuals, one value per line")
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_per = add_parser("periodogram", help="spectral CSV over the Fourier grid")
    p_per.add_argument("--input", required=True)
    p_per.add_argument("--p", type=_positive_int, default=1)
    p_per.add_argument("--out", default=None)
    p_per.set_defaults(func=cmd_periodogram)

    p_sim = add_parser("simulate", help="Monte Carlo summary CSV")
    _add_model_flags(p_sim)
    p_sim.add_argument("--noise", type=_noise_spec, default=MA1_NOISE_COEFFS,
                       help="'iid' or 'ma:<a0,a1,...>' (default ma:1,0.5)")
    p_sim.add_argument("--n", type=_int_list, required=True,
                       help="comma-separated sample sizes")
    p_sim.add_argument("--sigma2", type=_float_list, required=True,
                       help="comma-separated innovation variances")
    p_sim.add_argument("--reps", type=_positive_int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_av = add_parser("asymvar", help="closed-form asymptotic variances")
    _add_model_flags(p_av)
    p_av.add_argument("--noise", type=_noise_spec, default=(1.0,),
                      help="'iid' or 'ma:<a0,a1,...>' (default iid)")
    p_av.add_argument("--sigma2", type=_positive_float, required=True)
    p_av.add_argument("--n", type=_positive_int, required=True)
    p_av.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")
    p_av.add_argument("--out", default=None)
    p_av.set_defaults(func=cmd_asymvar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)  # None from synth, which writes its own file
        if report is not None:
            _write_text(args.out or None, report)  # an empty --out prints too
        return 0
    except FileNotFoundError as exc:
        print(f"fundfreq: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (FundfreqError, OSError) as exc:
        print(f"fundfreq: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
