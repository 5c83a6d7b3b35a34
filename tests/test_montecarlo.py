"""Replication harness: seeding, determinism, aggregation, CSV rendering."""

import math

import numpy as np
import pytest

import fundfreq.montecarlo as mc
from fundfreq import (
    DegenerateFrequencyError,
    DomainError,
    EstimationTrace,
    ExperimentSpec,
    LinearProcessSpec,
    SummaryRow,
    replication_seed,
    run_experiment,
    summary_csv_lines,
    synthesize,
)
from fundfreq.montecarlo import MA1_NOISE_COEFFS, MODEL1, MODEL2


def small_spec(**kw):
    base = dict(
        model=MODEL1,
        noise_coeffs=(1.0, 0.5),
        sample_sizes=(100,),
        sigma2_values=(0.25,),
        replications=24,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSeeding:
    def test_deterministic(self):
        a = replication_seed(1, 500, 0.25, 3)
        b = replication_seed(1, 500, 0.25, 3)
        assert a == b

    def test_distinct_across_components(self):
        base = replication_seed(1, 500, 0.25, 3)
        assert replication_seed(2, 500, 0.25, 3) != base
        assert replication_seed(1, 501, 0.25, 3) != base
        assert replication_seed(1, 500, 0.26, 3) != base
        assert replication_seed(1, 500, 0.25, 4) != base

    def test_64_bit_range(self):
        for rep in range(50):
            s = replication_seed(0, 100, 0.01, rep)
            assert 0 <= s < 2**64

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 10**20])
    def test_master_seed_outside_int64_rejected(self, seed):
        # replication_seed packs it as int64, which raised struct.error
        with pytest.raises(DomainError, match="master_seed must fit in int64"):
            small_spec(master_seed=seed)

    @pytest.mark.parametrize("seed", [-5, 2**63 - 1, -(2**63)])
    def test_int64_master_seeds_accepted(self, seed):
        assert small_spec(master_seed=seed).master_seed == seed

    def test_numpy_integer_counts_give_the_python_int_seed(self):
        want = replication_seed(-3, 500, 0.25, 7)
        assert replication_seed(np.int8(-3), np.uint16(500), 0.25, np.int64(7)) == want
        # the int64 edges pass
        assert replication_seed(-(2**63), 2**63 - 1, 0.25, 2**63 - 1) != want


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        rows_a = run_experiment(small_spec())
        rows_b = run_experiment(small_spec())
        assert rows_a == rows_b

    def test_grid_matches_cells_run_alone(self):
        # per-replication seeds: a cell's row does not depend on the grid
        spec = small_spec(sample_sizes=(100, 120), sigma2_values=(0.25, 1.0))
        whole = summary_csv_lines(run_experiment(spec))
        cells = [
            summary_csv_lines(run_experiment(
                small_spec(sample_sizes=(n,), sigma2_values=(s2,))))[1]
            for n in spec.sample_sizes for s2 in spec.sigma2_values
        ]
        assert whole[1:] == cells
        assert summary_csv_lines(run_experiment(spec)) == whole

    @pytest.mark.parametrize("model", [MODEL1, MODEL2])
    def test_replication_samples_match_synthesize(self, model, monkeypatch):
        # the noiseless part is built once per cell; every replication must
        # still see synthesize's samples bit for bit
        seen = []
        real = mc.estimate_fundamental

        def capture(sig, p):
            seen.append(sig)
            return real(sig, p)

        monkeypatch.setattr(mc, "estimate_fundamental", capture)
        spec = small_spec(model=model, noise_coeffs=MA1_NOISE_COEFFS, sample_sizes=(100, 257),
                          sigma2_values=(0.25, 1.0), replications=5)
        run_experiment(spec)
        expected = [
            synthesize(model, n, LinearProcessSpec(MA1_NOISE_COEFFS, s2),
                       replication_seed(spec.master_seed, n, s2, rep))
            for n in spec.sample_sizes for s2 in spec.sigma2_values
            for rep in range(spec.replications)
        ]
        assert len(seen) == len(expected) == 20
        for sig, ref in zip(seen, expected):
            assert np.array_equal(sig.samples, ref.samples)

    def test_master_seed_changes_results(self):
        a = run_experiment(small_spec())[0]
        b = run_experiment(small_spec(master_seed=8))[0]
        assert a.mean_estimate != b.mean_estimate


class TestAggregation:
    def test_variance_shrinks_from_n100_to_n1000(self):
        spec = small_spec(sample_sizes=(100, 1000), replications=50, master_seed=3)
        rows = {r.n: r for r in run_experiment(spec)}
        assert rows[1000].empirical_variance < rows[100].empirical_variance

    def test_variance_monotone_in_sigma2(self):
        # benchmark noise levels; statistical but wide (sigma2 spans 100x)
        spec = small_spec(
            sigma2_values=(0.01, 0.25, 0.75, 1.0), replications=500, master_seed=0
        )
        rows = run_experiment(spec)
        variances = [r.empirical_variance for r in rows]
        assert variances == sorted(variances)

    def test_model1_n1000_chain_stall(self):
        # At n=1000 the model-1 start on the grid 2*pi*k/n erred +1.33e-3, a
        # quarter step on a subsample left it outside the full-sample
        # curvature basin, and every replication stalled there with a
        # deterministic +9e-4 bias.
        # From the padded-grid start the estimates are unbiased: the mean sits
        # within a few standard errors of the true frequency.
        spec = small_spec(
            sample_sizes=(1000,), sigma2_values=(0.01,),
            replications=200, master_seed=0,
        )
        row = run_experiment(spec)[0]
        std_err = math.sqrt(row.empirical_variance / row.replications)
        assert abs(row.mean_estimate - 0.25) < 4.0 * std_err
        assert row.failure_count == 0

    def test_failures_excluded_and_flagged(self, monkeypatch):
        # fail a fixed subset of replications at the estimator level
        real = mc.estimate_fundamental
        calls = {"i": 0}

        def flaky(sig, p):
            calls["i"] += 1
            if calls["i"] % 3 == 0:
                raise DegenerateFrequencyError("singular normal equations")
            return real(sig, p)

        monkeypatch.setattr(mc, "estimate_fundamental", flaky)
        row = run_experiment(small_spec(replications=12))[0]
        assert row.failure_count == 4
        assert row.high_failure_rate

    def test_failure_count_is_boundary_and_degenerate(self, monkeypatch):
        # 1, 2, 4 and 8 replications end converged_tol, max_iter, boundary
        # and degenerate: of the sums of these counts only 4 + 8 is 12, so
        # the failures are exactly the last two statuses
        statuses = ["converged_tol"] + ["max_iter"] * 2 + ["boundary"] * 4 + ["degenerate"] * 8
        ended = iter(statuses)

        def fake(sig, p):
            return 0.25, EstimationTrace(status=next(ended))

        monkeypatch.setattr(mc, "estimate_fundamental", fake)
        row = run_experiment(small_spec(replications=len(statuses)))[0]
        assert row.failure_count == 12
        assert (row.mean_estimate, row.empirical_variance) == (0.25, 0.0)

    def test_cell_where_every_replication_fails(self, monkeypatch, caplog):
        monkeypatch.setattr(mc, "estimate_fundamental",
                            lambda sig, p: (0.25, EstimationTrace(status="boundary")))
        with caplog.at_level("WARNING", logger="fundfreq.montecarlo"):
            rows = run_experiment(small_spec(replications=3))
        (row,) = rows
        assert math.isnan(row.mean_estimate) and math.isnan(row.empirical_variance)
        assert (row.failure_count, row.replications) == (3, 3)
        assert row.high_failure_rate
        assert caplog.messages == ["cell n=100 sigma2=0.25: 3/3 replications failed"]
        assert summary_csv_lines(rows)[1] == (
            f"100,2.50000e-01,nan,nan,{row.asym_var_lse:.5e},{row.asym_var_mnr:.5e},3")

    def test_flag_threshold(self):
        row = SummaryRow(100, 0.25, 0.25, 1e-10, 1e-10, 2.5e-11, 10, 100)
        assert not row.high_failure_rate  # exactly 10% is not flagged
        row = SummaryRow(100, 0.25, 0.25, 1e-10, 1e-10, 2.5e-11, 11, 100)
        assert row.high_failure_rate

    def test_asymptotic_columns_attached(self):
        row = run_experiment(small_spec(replications=2))[0]
        assert row.asym_var_lse == pytest.approx(4.0 * row.asym_var_mnr, rel=1e-12)

    def test_validation(self):
        with pytest.raises(Exception):
            small_spec(replications=0)
        with pytest.raises(Exception):
            small_spec(sample_sizes=())

    @pytest.mark.parametrize("sigma2_values", [(0.25, -1), (0.25, 0.0), (float("nan"),)])
    def test_every_sigma2_validated_at_construction(self, sigma2_values):
        # run_experiment used to finish the first cell before raising
        with pytest.raises(DomainError, match="sigma2 must be positive and finite"):
            small_spec(sigma2_values=sigma2_values)

    def test_sample_size_below_ten_p_rejected(self):
        # every replication of such a cell would fail the estimator's own
        # n >= 10*p check, leaving a row of nan
        with pytest.raises(DomainError, match=r"need n >= 10\*p = 40 in every cell, got n = 39"):
            small_spec(sample_sizes=(100, 39))
        assert small_spec(sample_sizes=(40,)).sample_sizes == (40,)

    def test_non_integer_sample_size_rejected(self):
        # 100.7 used to run as n = 100, and True as n = 1
        for bad, text in ((100.7, r"100\.7"), (True, "True")):
            with pytest.raises(DomainError, match=rf"sample size must be an integer, got {text}"):
                small_spec(sample_sizes=(200, bad))

    def test_non_integer_replications_rejected(self):
        # 2.5 used to pass here and fail later inside range with a TypeError,
        # and True was kept, so SummaryRow.replications read True.  The seed,
        # the spec's other integer scalar, is read the same way: 3.5 used to
        # pass and fail inside run_experiment with a struct.error
        for name, bad, text in (("replications", 2.5, r"2\.5"), ("replications", True, "True"),
                                ("master_seed", 3.5, r"3\.5"), ("master_seed", True, "True")):
            with pytest.raises(DomainError, match=rf"{name} must be an integer, got {text}"):
                small_spec(**{name: bad})

    def test_numpy_integers_accepted(self):
        spec = small_spec(sample_sizes=(np.int64(100), np.int32(120)), replications=np.int64(2),
                          master_seed=np.int64(7))
        assert spec.sample_sizes == (100, 120)
        assert all(type(n) is int for n in spec.sample_sizes)
        assert type(spec.replications) is int and type(spec.master_seed) is int
        assert spec.master_seed == 7
        row = run_experiment(spec)[0]
        assert row.replications == 2 and type(row.replications) is int


class TestCsv:
    def test_header_and_shape(self):
        rows = run_experiment(small_spec(replications=3))
        lines = summary_csv_lines(rows)
        assert lines[0] == "n,sigma2,average,variance,asym_var_lse,asym_var_mnr,failures"
        assert len(lines) == 1 + len(rows)
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert fields[0] == "100"
        assert fields[-1] == "0"

    def test_six_significant_digits(self):
        rows = [SummaryRow(100, 0.25, 0.2501234567, 1.23456789e-10,
                           2.5e-10, 6.25e-11, 0, 500)]
        line = summary_csv_lines(rows)[1]
        assert "2.50123e-01" in line
        assert "1.23457e-10" in line
