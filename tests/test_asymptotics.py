"""Closed-form variance formulas and their structural identities."""

import cmath
import math

import numpy as np
import pytest

from fundfreq import (
    DomainError,
    HarmonicModel,
    LinearProcessSpec,
    asymptotic_variances,
    spectral_weight_c,
)
from fundfreq.montecarlo import MODEL1, MODEL2

IID = LinearProcessSpec((1.0,), 1.0)
MA1 = LinearProcessSpec((1.0, 0.5), 1.0)


def beta_star_oracle(model):
    """Independent summation of sum j^2 (A_j^2 + B_j^2)."""
    return sum(
        j * j * (a * a + b * b) for j, (a, b) in enumerate(model.amplitudes, start=1)
    )


class TestSpectralWeight:
    def test_iid_weight_is_one(self):
        for j in (1, 2, 5):
            assert spectral_weight_c(IID, j, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_ma1_expansion(self):
        # |1 + 0.5 e^{-i j lam}|^2 = 1.25 + cos(j lam)
        assert spectral_weight_c(MA1, 1, 0.25) == pytest.approx(
            1.25 + math.cos(0.25), abs=1e-12
        )
        assert spectral_weight_c(MA1, 4, 0.25) == pytest.approx(
            1.25 + math.cos(1.0), abs=1e-12
        )

    def test_general_coeffs_against_direct_sum(self):
        spec = LinearProcessSpec((0.7, -0.3, 0.2), 2.0)
        j, lam = 3, 0.41
        direct = abs(sum(a * cmath.exp(-1j * j * k * lam)
                         for k, a in enumerate(spec.coeffs))) ** 2
        assert spectral_weight_c(spec, j, lam) == pytest.approx(direct, rel=1e-14)

    def test_overflowing_weight_is_inf_and_variance_rejected(self):
        # sum a(k)^2 is finite, but |a(0) + a(1) e^{-i lam}|^2 ~ 3.2e308 is
        # not: ** raised OverflowError there
        spec = LinearProcessSpec((9e153, 9e153), 1e-300)
        assert spectral_weight_c(spec, 1, 0.01) == math.inf
        with pytest.raises(DomainError, match="var_lse is not finite"):
            asymptotic_variances(MODEL1, spec, 100)


OUT_OF_RANGE = [
    (MODEL1, 10**102),   # var_lse read 0.0, after a numpy RuntimeWarning
    (MODEL1, 10**103),   # ** raised OverflowError
    (MODEL1, 10**400),   # float(n) raised OverflowError
    (HarmonicModel(1, 0.25, ((1e160, 0.0),)), 100),   # beta* overflows
    (HarmonicModel(1, 0.25, ((1e-160, 0.0),)), 100),  # beta*^2 underflows
]
OUT_OF_RANGE_IDS = ["n-1e102", "n-1e103", "n-1e400", "amplitude-1e160", "amplitude-1e-160"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, n", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
def test_out_of_range_denominator_is_domain_error(model, n):
    with pytest.raises(DomainError, match=r"beta\*\^2 n\^3 is out of the float range"):
        asymptotic_variances(model, IID, n)


class TestBetaStar:
    def test_model1(self):
        rep = asymptotic_variances(MODEL1, IID, 100)
        assert rep.beta_star == pytest.approx(beta_star_oracle(MODEL1), abs=1e-12)
        assert rep.beta_star == pytest.approx(377.5625, abs=1e-12)

    def test_model2(self):
        rep = asymptotic_variances(MODEL2, IID, 100)
        assert rep.beta_star == pytest.approx(147.0625, abs=1e-12)

    def test_iid_collapses_delta_g(self):
        rep = asymptotic_variances(MODEL1, IID, 50)
        assert rep.delta_g == pytest.approx(rep.beta_star, rel=1e-14)


class TestVarianceValues:
    """Benchmark variance values (1% tolerance, matching table rounding)."""

    def test_model1_iid(self):
        rep = asymptotic_variances(MODEL1, LinearProcessSpec((1.0,), 0.01), 100)
        assert rep.var_lse == pytest.approx(6.36e-10, rel=0.01)
        assert rep.var_mnr == pytest.approx(1.59e-10, rel=0.01)

    def test_model1_ma1(self):
        rep = asymptotic_variances(MODEL1, LinearProcessSpec((1.0, 0.5), 0.01), 100)
        assert rep.var_lse == pytest.approx(1.25e-9, rel=0.01)
        assert rep.var_mnr == pytest.approx(3.13e-10, rel=0.01)

    def test_model2_iid(self):
        rep = asymptotic_variances(MODEL2, LinearProcessSpec((1.0,), 0.01), 100)
        assert rep.var_lse == pytest.approx(1.63e-9, rel=0.01)

    def test_model2_ma1_large_n(self):
        rep = asymptotic_variances(MODEL2, LinearProcessSpec((1.0, 0.5), 1.0), 1000)
        assert rep.var_lse == pytest.approx(3.09e-10, rel=0.01)
        assert rep.var_mnr == pytest.approx(7.73e-11, rel=0.01)


class TestStructure:
    def test_ratio_exactly_four(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            amps = tuple(
                (float(a), float(b)) for a, b in rng.uniform(0.1, 4.0, size=(p, 2))
            )
            model = HarmonicModel(p, float(rng.uniform(0.05, math.pi / p * 0.95)), amps)
            q = int(rng.integers(1, 4))
            spec = LinearProcessSpec(
                tuple(float(c) for c in rng.uniform(0.2, 1.0, size=q + 1)),
                float(rng.uniform(0.01, 2.0)),
            )
            rep = asymptotic_variances(model, spec, int(rng.integers(50, 2000)))
            assert abs(rep.var_lse / rep.var_mnr - 4.0) <= 1e-12

    def test_amplitude_homogeneity(self):
        scaled = HarmonicModel(
            MODEL1.p, MODEL1.lam, tuple((3 * a, 3 * b) for a, b in MODEL1.amplitudes)
        )
        base = asymptotic_variances(MODEL1, MA1, 200)
        big = asymptotic_variances(scaled, MA1, 200)
        assert big.beta_star == pytest.approx(9.0 * base.beta_star, rel=1e-14)
        assert big.delta_g == pytest.approx(9.0 * base.delta_g, rel=1e-14)
        assert big.var_lse == pytest.approx(base.var_lse / 9.0, rel=1e-14)

    def test_cubic_sample_size_scaling(self):
        a = asymptotic_variances(MODEL1, MA1, 300)
        b = asymptotic_variances(MODEL1, MA1, 600)
        assert b.var_lse == pytest.approx(a.var_lse / 8.0, rel=1e-15)
        assert b.var_mnr == pytest.approx(a.var_mnr / 8.0, rel=1e-15)
