"""The public surface: the package namespace and the names the bench tracer wraps."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import fundfreq
from fundfreq import criterion, spectrum

PUBLIC = [
    "AsymptoticReport",
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
    "criterion": ["compute_moments", "g_derivatives"],
    "spectrum": ["fourier_grid", "harmonic_criterion_qn", "periodogram"],
}

REMOVED = ["BoundaryError", "CurvatureError", "DegenerateFrequencyError", "mnr_step", "polar_to_cartesian",
           "cartesian_to_polar", "alse_linear", "MnrConfig", "HarmonicDesignMoments",
           *(name for names in TRACER_ONLY.values() for name in names)]

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SOURCES = {path: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted((ROOT / "src" / "fundfreq").glob("*.py"))}


def _layer_functions() -> dict:
    """LAYER_FUNCTIONS read from the tracer's source, without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
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


def test_errors_module_defines_two_classes():
    # the estimator reports every other way a run ends as a trace status,
    # and the criterion's one domain is the estimator's admissible interval
    errors = importlib.import_module("fundfreq.errors")
    defined = [name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert sorted(defined) == ["DomainError", "FundfreqError"]


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
    assert [f.name for f in dataclasses.fields(fundfreq.TraceRecord)] == [
        "iteration", "lam", "g_value", "correction"]
    for owner, member in [(fundfreq.EstimationTrace, "iterations"),
                          (fundfreq.EstimationTrace, "best"),
                          (fundfreq.HarmonicModel, "a"),
                          (fundfreq.HarmonicModel, "b"),
                          (fundfreq.LinearProcessSpec, "order"),
                          (fundfreq.AsymptoticReport, "as_dict"),
                          (fundfreq.signal, "IID"),
                          (fundfreq.signal, "_check_order")]:
        assert not hasattr(owner, member), f"{owner.__name__}.{member}"


@pytest.mark.parametrize("layer", sorted(TRACER_ONLY))
def test_tracer_only_names_stay_on_their_home_module(layer):
    module = importlib.import_module(f"fundfreq.{layer}")
    for name in TRACER_ONLY[layer]:
        assert callable(getattr(module, name)), f"fundfreq.{layer}.{name}"
        assert name not in module.__all__


def _private_definitions(kind: type) -> list:
    """Every module-level function (``kind`` ast.FunctionDef) or assigned
    name (ast.Assign) of the package that starts with one underscore, as
    (path, name, defining node)."""
    found = []
    for path, tree in SOURCES.items():
        for node in tree.body:
            if kind is ast.FunctionDef and isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif kind is ast.Assign and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [pytest.param(path, name, node, id=f"{path.stem}-{name}") for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


def _reads():
    """(path, name, node) for every name or attribute some module of the
    package reads (an import, or a store, does not count)."""
    for source, tree in SOURCES.items():
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Name):
                found = ref.id
            elif isinstance(ref, ast.Attribute):
                found = ref.attr
            else:
                continue
            if isinstance(ref.ctx, ast.Load):
                yield source, found, ref


def _read_outside(path: Path, name: str, node: ast.stmt) -> bool:
    """Whether some module of the package reads ``name`` outside the lines
    of ``node``, its definition."""
    for source, found, ref in _reads():
        inside = source == path and node.lineno <= ref.lineno <= node.end_lineno
        if found == name and not inside:
            return True
    return False


@pytest.mark.parametrize("path, name, func", _private_definitions(ast.FunctionDef))
def test_private_function_has_a_caller(path, name, func):
    # a helper folded into another, or left with no caller, must go: some
    # module of the package names it outside its own def
    assert _read_outside(path, name, func), f"{path.name}: {name} is never referenced in src/"


@pytest.mark.parametrize("path, name, assign", _private_definitions(ast.Assign))
def test_private_name_is_read(path, name, assign):
    # a private module-level constant or memo that nothing reads must go:
    # some module of the package reads it outside its own assignment
    assert _read_outside(path, name, assign), f"{path.name}: {name} is never read in src/"


def test_scale_rule_stays_in_signal():
    # the other modules compute on Signal._unit and return through
    # Signal._scale_back: none reads the exponent or scales by a power of two
    outside = sorted({(source.name, found) for source, found, _ in _reads()
                      if found in ("_exponent", "ldexp") and source.name != "signal.py"})
    assert outside == []


def _open_calls():
    """(path, call) for every call of the builtin ``open`` in the package."""
    return [(path, node) for path, tree in SOURCES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"]


def test_every_open_names_its_encoding():
    # without encoding= a file is read and written in the platform's default
    # encoding, which is not UTF-8 on every host
    calls = _open_calls()
    assert calls
    unnamed = [f"{path.name}:{call.lineno}" for path, call in calls
               if "encoding" not in {k.arg for k in call.keywords}]
    assert unnamed == []


def test_one_open_writes():
    # every file the package writes leaves through signal._write_text
    def mode(call):
        given = call.args[1:2] or [k.value for k in call.keywords if k.arg == "mode"]
        return ast.literal_eval(given[0]) if given else "r"

    writers = [(path.name, call.lineno) for path, call in _open_calls()
               if set(mode(call)) & set("wax+")]
    assert len(writers) == 1 and writers[0][0] == "signal.py", writers


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demos_import_only_public_names(demo):
    # read the way _layer_functions reads the tracer: from the source, by ast
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
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


def _takes_p(sig=None, lam=0.25):
    """Every public entry that takes a harmonic order, as a call on p, on
    the signal ``sig`` (MODEL1 noiseless at n = 200 when None) and at the
    frequency ``lam``."""
    if sig is None:
        sig = fundfreq.synthesize(fundfreq.MODEL1, 200)
    noise = fundfreq.LinearProcessSpec((1.0,), 1.0)
    return {
        "estimate_fundamental": lambda p: fundfreq.estimate_fundamental(sig, p),
        "fourier_grid_init": lambda p: fundfreq.fourier_grid_init(sig, p),
        "grid_spectrum": lambda p: fundfreq.grid_spectrum(sig, p),
        "fourier_grid": lambda p: spectrum.fourier_grid(sig.n, p),
        "harmonic_criterion_qn": lambda p: spectrum.harmonic_criterion_qn(sig, lam, p),
        "HarmonicModel": lambda p: fundfreq.HarmonicModel(p, lam, ((1.0, 0.0), (1.0, 0.0))),
        "g": lambda p: fundfreq.g(sig, p, lam),
        "g_with_derivatives": lambda p: criterion.g_with_derivatives(sig, p, lam),
        "g_derivatives": lambda p: criterion.g_derivatives(sig, p, lam),
        "compute_moments": lambda p: criterion.compute_moments(sig, p, lam),
        "lse_linear": lambda p: fundfreq.lse_linear(sig, lam, p),
        "spectral_weight_c": lambda p: fundfreq.spectral_weight_c(noise, p, lam),
    }


@pytest.mark.parametrize("entry", sorted(_takes_p()))
@pytest.mark.parametrize("p", [2.0, 2.5, True, "2"], ids=repr)
def test_harmonic_order_must_be_an_integer(entry, p):
    # p = 2.0 reached numpy as a slice bound or a shape (a bare TypeError),
    # or was accepted by HarmonicModel and failed later; True ran as p = 1
    call = _takes_p()[entry]
    with pytest.raises(fundfreq.DomainError, match=f"harmonic order must be an integer, got {p!r}"):
        call(p)


@pytest.mark.parametrize("entry", sorted(_takes_p()))
def test_numpy_integer_harmonic_order_accepted(entry):
    _takes_p()[entry](np.int64(2))


def _outcome(call, p):
    """call(p), or the type and message of the FundfreqError it raises."""
    try:
        return call(p)
    except fundfreq.FundfreqError as exc:
        return type(exc), str(exc)


def _same(a, b) -> bool:
    """a equals b, with the same types all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return _same(*([getattr(x, f.name) for f in dataclasses.fields(x)] for x in (a, b)))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("entry", sorted(_takes_p()))
@pytest.mark.parametrize("p", [np.uint8(26), np.uint8(130), np.int8(13), np.int8(64)], ids=repr)
@pytest.mark.parametrize("n", [200, 1000])
def test_narrow_numpy_order_computes_as_its_python_int(entry, p, n):
    # 10p (the start's n >= 10p) or 2p (the design's columns) leaves the
    # range of these orders' types.  Each entry used to compute on the
    # caller's type once the order had passed the check: n < 10 * p read
    # 10 * uint8(26) as 4, so estimate_fundamental let n = 200 through
    # and died with an OverflowError, and g, g_with_derivatives and
    # lse_linear at uint8(130) and n = 1000 built 2 rows for 260 columns
    noise = fundfreq.LinearProcessSpec(fundfreq.MA1_NOISE_COEFFS, 0.25) if n == 1000 else None
    call = _takes_p(fundfreq.synthesize(fundfreq.MODEL1, n, noise, seed=1), 0.02)[entry]
    assert _same(_outcome(call, p), _outcome(call, int(p)))


@pytest.mark.parametrize("entry", sorted(_takes_p()))
def test_order_past_the_float_range(entry):
    # math.pi / p met the order with a bare OverflowError in the band check:
    # HarmonicModel, the criterion entries, compute_moments, lse_linear,
    # harmonic_criterion_qn and spectral_weight_c died with it.  fourier_grid
    # takes no lambda and finds no grid point in (0, pi/p)
    call = _takes_p()[entry]
    if entry == "fourier_grid":
        assert call(10**400).size == 0
    else:
        with pytest.raises(fundfreq.DomainError):
            call(10**400)


def test_harmonic_model_stores_a_python_int_order():
    model = fundfreq.HarmonicModel(np.int8(4), 0.25, fundfreq.MODEL1.amplitudes)
    assert type(model.p) is int
    assert model == fundfreq.MODEL1


def _takes_count():
    """Every public entry that takes a count, as (the name its message gives,
    a call on the count)."""
    noise = fundfreq.LinearProcessSpec((1.0, 0.5), 1.0)
    x = fundfreq.synthesize(fundfreq.MODEL1, 200, noise).samples

    def spec(**count):
        return fundfreq.ExperimentSpec(fundfreq.MODEL1, (1.0,), (100,), (1.0,), **count)

    return {
        "synthesize-n": ("n", lambda k: fundfreq.synthesize(fundfreq.MODEL1, k)),
        # noiseless samples do not depend on the seed, which is checked all the same
        "synthesize-seed": ("seed", lambda k: fundfreq.synthesize(fundfreq.MODEL1, 100, None, k)),
        "generate_linear_process-n": ("n", lambda k: fundfreq.generate_linear_process(noise, k, 0)),
        "generate_linear_process-seed": (
            "seed", lambda k: fundfreq.generate_linear_process(noise, 10, k)),
        "asymptotic_variances-n": (
            "n", lambda k: fundfreq.asymptotic_variances(fundfreq.MODEL1, noise, k)),
        "fourier_grid-n": ("n", lambda k: spectrum.fourier_grid(k, 1)),
        "sample_acf-max_lag": ("max_lag", lambda k: fundfreq.sample_acf(x, k)),
        "ExperimentSpec-replications": ("replications", lambda k: spec(replications=k)),
        "ExperimentSpec-master_seed": ("master_seed", lambda k: spec(master_seed=k)),
        "replication_seed-master_seed": (
            "master_seed", lambda k: fundfreq.replication_seed(k, 100, 1.0, 0)),
        "replication_seed-n": ("n", lambda k: fundfreq.replication_seed(0, k, 1.0, 0)),
        "replication_seed-rep": ("rep", lambda k: fundfreq.replication_seed(0, 100, 1.0, k)),
    }


@pytest.mark.parametrize("entry", sorted(_takes_count()))
@pytest.mark.parametrize("count", [100.0, 100.5, True, "3"], ids=repr)
def test_count_must_be_an_integer(entry, count):
    # synthesize sliced with 100.0 (a bare TypeError) and made 1 sample from
    # True; asymptotic_variances reported at n = 100.5; the seed "3" met a
    # bare TypeError from <; sample_acf ran True as max_lag 1; fourier_grid
    # gave 49 points at n = 100.5; replication_seed packed True as 1 and
    # met 100.0 with a bare struct.error
    name, call = _takes_count()[entry]
    with pytest.raises(fundfreq.DomainError, match=f"^{name} must be an integer, got {count!r}$"):
        call(count)


@pytest.mark.parametrize("entry", sorted(_takes_count()))
@pytest.mark.parametrize("count", [np.int64(100), np.uint32(100)], ids=repr)
def test_numpy_integer_count_accepted(entry, count):
    _takes_count()[entry][1](count)


@pytest.mark.parametrize("entry, count, message", [
    ("synthesize-n", 0, "n must be >= 1, got 0"),
    ("synthesize-seed", -1, "seed must be >= 0, got -1"),
    ("generate_linear_process-n", 0, "n must be >= 1, got 0"),
    ("generate_linear_process-seed", -1, "seed must be >= 0, got -1"),
    ("asymptotic_variances-n", 0, "n must be >= 1, got 0"),
    ("fourier_grid-n", 0, "n must be >= 1, got 0"),
    ("sample_acf-max_lag", 0, "need 0 < max_lag < n, got max_lag=0, n=200"),
    ("sample_acf-max_lag", 200, "need 0 < max_lag < n, got max_lag=200, n=200"),
    ("ExperimentSpec-replications", 0, "replications must be >= 1, got 0"),
    ("ExperimentSpec-master_seed", 2**63, f"master_seed must fit in int64, got {2**63}"),
    # replication_seed raised struct.error: argument out of range
    ("replication_seed-master_seed", 2**63, f"master_seed must fit in int64, got {2**63}"),
    ("replication_seed-n", -(2**63) - 1, f"n must fit in int64, got {-(2**63) - 1}"),
    ("replication_seed-rep", 2**63, f"rep must fit in int64, got {2**63}"),
])
def test_count_out_of_range_message(entry, count, message):
    with pytest.raises(fundfreq.DomainError, match=f"^{re.escape(message)}$"):
        _takes_count()[entry][1](count)


def _takes_real():
    """Every public entry that takes a real number, as (the name its message
    gives, a call on the value), on MODEL1 noiseless at n = 200 and p = 1."""
    sig = fundfreq.synthesize(fundfreq.MODEL1, 200)
    noise = fundfreq.LinearProcessSpec((1.0, 0.5), 1.0)

    def spec(coeffs=(1.0,), sigma2=1.0):
        return fundfreq.ExperimentSpec(fundfreq.MODEL1, coeffs, (100,), (sigma2,))

    return {
        "HarmonicModel-lam": ("lambda", lambda x: fundfreq.HarmonicModel(1, x, ((1.0, 1.0),))),
        "HarmonicModel-A": (
            "amplitude", lambda x: fundfreq.HarmonicModel(1, 0.25, ((x, 1.0),))),
        "HarmonicModel-B": (
            "amplitude", lambda x: fundfreq.HarmonicModel(1, 0.25, ((1.0, x),))),
        "g-lam": ("lambda", lambda x: fundfreq.g(sig, 1, x)),
        "g_with_derivatives-lam": ("lambda", lambda x: criterion.g_with_derivatives(sig, 1, x)),
        "g_derivatives-lam": ("lambda", lambda x: criterion.g_derivatives(sig, 1, x)),
        "compute_moments-lam": ("lambda", lambda x: criterion.compute_moments(sig, 1, x)),
        "lse_linear-lambda_hat": ("lambda", lambda x: fundfreq.lse_linear(sig, x, 1)),
        "periodogram-lam": ("lambda", lambda x: spectrum.periodogram(sig, x)),
        "harmonic_criterion_qn-lam": (
            "lambda", lambda x: spectrum.harmonic_criterion_qn(sig, x, 1)),
        "spectral_weight_c-lam": ("lambda", lambda x: fundfreq.spectral_weight_c(noise, 1, x)),
        "residuals-lambda_hat": (
            "lambda_hat", lambda x: fundfreq.residuals(sig, x, [(1.0, 1.0)])),
        "residuals-amplitude": (
            "amplitude", lambda x: fundfreq.residuals(sig, 0.25, [(1.0, x)])),
        "LinearProcessSpec-coeffs": (
            "coefficient", lambda x: fundfreq.LinearProcessSpec((1.0, x), 1.0)),
        "LinearProcessSpec-sigma2": ("sigma2", lambda x: fundfreq.LinearProcessSpec((1.0,), x)),
        "ExperimentSpec-noise_coeffs": ("coefficient", lambda x: spec(coeffs=(1.0, x))),
        "ExperimentSpec-sigma2_values": ("sigma2", lambda x: spec(sigma2=x)),
        "replication_seed-sigma2": ("sigma2", lambda x: fundfreq.replication_seed(0, 100, x, 0)),
    }


@pytest.mark.parametrize("entry", sorted(_takes_real()))
@pytest.mark.parametrize("value", ["0.25", b"1", True, np.True_, 1j, None], ids=repr)
def test_real_must_be_a_real_number(entry, value):
    # float() read True, np.True_ and "0.25" as numbers (g, lse_linear and
    # HarmonicModel ran at lambda = 1), and 1j and None met bare TypeErrors;
    # residuals took any lambda_hat and amplitudes numpy would multiply
    name, call = _takes_real()[entry]
    with pytest.raises(fundfreq.DomainError,
                       match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(_takes_real()))
def test_real_past_the_float_range(entry):
    # float(10**400) raises OverflowError; the band check read 10**400 as
    # out of band, and residuals met the OverflowError
    name, call = _takes_real()[entry]
    with pytest.raises(fundfreq.DomainError,
                       match=f"^{name} must lie in the float range, got {10**400}$"):
        call(10**400)


@pytest.mark.parametrize("entry", sorted(_takes_real()))
@pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.25), 1], ids=repr)
def test_numpy_real_computes_as_its_python_float(entry, value):
    # HarmonicModel kept a numpy or int lambda as it came
    call = _takes_real()[entry][1]
    assert _same(_outcome(call, value), _outcome(call, float(value)))
