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
    "HarmonicModel",
    "LinearProcessSpec",
    "MA1_NOISE_COEFFS",
    "MODEL1",
    "MODEL2",
    "Signal",
    "SummaryRow",
    "TraceRecord",
    "asymptotic_variances",
    "estimate_fundamental",
    "fourier_grid_init",
    "g",
    "generate_linear_process",
    "grid_spectrum",
    "lse_linear",
    "mean_correct",
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

# Names that only the tests and the bench tracer use: off the package and
# its modules' __all__, still defined on their home modules.
TRACER_ONLY = {
    "criterion": ["HarmonicDesignMoments", "compute_moments", "g_derivatives"],
    "spectrum": ["fourier_grid", "harmonic_criterion_qn", "periodogram"],
}

REMOVED = ["BoundaryError", "CurvatureError", "mnr_step", "polar_to_cartesian",
           "cartesian_to_polar", "alse_linear", "MnrConfig",
           *(name for names in TRACER_ONLY.values() for name in names)]

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_errors_module_defines_three_classes():
    # the estimator reports every other way a run ends as a trace status
    errors = importlib.import_module("fundfreq.errors")
    defined = [name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert sorted(defined) == ["DegenerateFrequencyError", "DomainError", "FundfreqError"]


def test_removed_members_stay_removed():
    assert list(inspect.signature(fundfreq.estimate_fundamental).parameters) == ["signal", "p"]
    assert [f.name for f in dataclasses.fields(fundfreq.ExperimentSpec)] == [
        "model", "noise_coeffs", "sample_sizes", "sigma2_values", "replications",
        "master_seed"]
    assert [f.name for f in dataclasses.fields(fundfreq.Signal)] == ["samples"]
    assert "sample_rate" not in inspect.signature(fundfreq.synthesize).parameters
    assert list(inspect.signature(fundfreq.fourier_grid_init).parameters) == ["signal", "p"]
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


@pytest.mark.parametrize("layer", sorted(TRACER_ONLY))
def test_tracer_only_names_stay_on_their_home_module(layer):
    module = importlib.import_module(f"fundfreq.{layer}")
    for name in TRACER_ONLY[layer]:
        assert callable(getattr(module, name)), f"fundfreq.{layer}.{name}"
        assert name not in module.__all__


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demos_import_only_public_names(demo):
    # read the way _layer_functions reads the tracer: from the source, by ast
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fundfreq"):
            public = importlib.import_module(node.module).__all__
            for alias in node.names:
                assert alias.name in fundfreq.__all__ or alias.name in public, (
                    f"{demo.name} imports {alias.name} from {node.module}")


def test_tracer_layer_functions_exist():
    # the bench tracer looks each name up on its home module; a missing one
    # crashes every traced run
    for layer, names in _layer_functions().items():
        module = importlib.import_module(f"fundfreq.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fundfreq.{layer}.{name}"
