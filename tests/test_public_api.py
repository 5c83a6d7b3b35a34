"""The public surface: the package namespace and the names the bench tracer wraps."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import fundfreq

PUBLIC = [
    "AsymptoticReport",
    "DegenerateFrequencyError",
    "DomainError",
    "EstimationTrace",
    "ExperimentSpec",
    "FundfreqError",
    "HarmonicDesignMoments",
    "HarmonicModel",
    "LinearProcessSpec",
    "MA1_NOISE_COEFFS",
    "MODEL1",
    "MODEL2",
    "MnrConfig",
    "Signal",
    "SummaryRow",
    "TraceRecord",
    "asymptotic_variances",
    "compute_moments",
    "estimate_fundamental",
    "fourier_grid",
    "fourier_grid_init",
    "g",
    "g_derivatives",
    "generate_linear_process",
    "grid_spectrum",
    "harmonic_criterion_qn",
    "lse_linear",
    "mean_correct",
    "periodogram",
    "read_signal",
    "replication_seed",
    "residuals",
    "run_experiment",
    "sample_acf",
    "spectral_weight_c",
    "summary_csv_lines",
    "synthesize",
    "write_signal",
]

REMOVED = ["BoundaryError", "CurvatureError", "mnr_step", "polar_to_cartesian",
           "cartesian_to_polar", "alse_linear"]

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions() -> dict:
    """LAYER_FUNCTIONS read from the tracer's source, without importing it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACING}")


def test_all_lists_exactly_the_public_names():
    assert sorted(fundfreq.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(fundfreq, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    assert not hasattr(fundfreq, name)


def test_removed_members_stay_removed():
    assert [f.name for f in dataclasses.fields(fundfreq.MnrConfig)] == [
        "step_factor", "tol", "max_iter"]
    assert [f.name for f in dataclasses.fields(fundfreq.Signal)] == ["samples"]
    assert "sample_rate" not in inspect.signature(fundfreq.synthesize).parameters
    for params in (inspect.signature(fundfreq.read_signal).parameters,
                   inspect.signature(fundfreq.write_signal).parameters):
        assert "column" not in params
    for owner, member in [(fundfreq.EstimationTrace, "iterations"),
                          (fundfreq.HarmonicModel, "a"),
                          (fundfreq.HarmonicModel, "b"),
                          (fundfreq.LinearProcessSpec, "order"),
                          (fundfreq.AsymptoticReport, "as_dict"),
                          (fundfreq.signal, "IID")]:
        assert not hasattr(owner, member), f"{owner.__name__}.{member}"


def test_tracer_layer_functions_exist():
    # the bench tracer looks each name up on its home module; a missing one
    # crashes every traced run
    for layer, names in _layer_functions().items():
        module = importlib.import_module(f"fundfreq.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fundfreq.{layer}.{name}"
