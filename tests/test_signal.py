"""Signal model, noise generation, and serialization."""

import copy
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fundfreq import (
    DomainError,
    HarmonicModel,
    LinearProcessSpec,
    Signal,
    generate_linear_process,
    mean_correct,
    read_signal,
    synthesize,
    write_signal,
)
from fundfreq import criterion, signal
from fundfreq.montecarlo import MODEL1, MODEL2


class TestHarmonicModel:
    def test_valid(self):
        m = HarmonicModel(2, 0.5, ((1.0, 0.0), (0.5, 0.5)))
        assert m.p == 2
        assert np.allclose(m.power_per_harmonic, [1.0, 0.5])

    def test_lambda_above_pi_over_p(self):
        with pytest.raises(DomainError):
            HarmonicModel(4, math.pi / 4 + 0.01, tuple((1.0, 0.0) for _ in range(4)))

    def test_lambda_nonpositive(self):
        with pytest.raises(DomainError):
            HarmonicModel(1, 0.0, ((1.0, 0.0),))

    def test_zero_amplitude_pair(self):
        with pytest.raises(DomainError):
            HarmonicModel(2, 0.3, ((1.0, 0.0), (0.0, 0.0)))
        with pytest.raises(DomainError, match="harmonic 1 has zero amplitude"):
            HarmonicModel(1, 0.3, ((0.0, -0.0),))
        # A^2 + B^2 underflows to 0 here, but the pairs are not zero
        m = HarmonicModel(2, 0.3, ((1e-170, 1e-170), (0.0, -1e-170)))
        assert m.amplitudes[1] == (0.0, -1e-170)

    def test_wrong_pair_count(self):
        with pytest.raises(DomainError):
            HarmonicModel(3, 0.3, ((1.0, 0.0),))

    @pytest.mark.parametrize("pair", [(math.inf, 0.0), (1.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_amplitude_rejected(self, pair):
        with pytest.raises(DomainError, match="^amplitudes of harmonic 2 are not finite$"):
            HarmonicModel(2, 0.3, ((1.0, 0.0), pair))


def _gram_condition(n, p, lam):
    """cond(X'X) of the 2p columns cos(j lam t), sin(j lam t), t = 1..n,
    as the squared condition number of X from its singular values."""
    t = np.arange(1, n + 1)
    x = np.column_stack([f(j * lam * t) for j in range(1, p + 1) for f in (np.cos, np.sin)])
    return np.linalg.cond(x) ** 2


def _gram_factors(n, p, lam):
    """(cond(X'X), the least squared Cholesky pivot of X'X over n) for the
    X'X that the criterion factors, from its eigenvalues and its factor:
    accurate wherever cond(X'X) is far below 1/eps."""
    m = criterion._moments(np.zeros(n), p, lam, False)[:, : 2 * p]
    eig = np.linalg.eigvalsh(m)
    return eig[-1] / eig[0], np.linalg.cholesky(m).diagonal().min() ** 2 / n


class TestAdmissibleInterval:
    """The estimator's admissible interval (lo, hi): one closed form in (n, p)."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64, 128])
    def test_well_conditioned_between_the_edges_and_not_far_past_them(self, p):
        # cond(X'X) <= 1e6 at both edges and at points between them, and
        # above 1e6 at lo/2 and halfway from hi to pi/p: the edges lie less
        # than a factor 2 inside where X'X degrades.  At every point inside,
        # every squared pivot of the Cholesky factor of X'X is at least
        # n/(2 10^6), which is what lets the criterion factor X'X with no
        # floor (see signal._admissible)
        for n in sorted({10 * p, 47, 200, 1009}):
            if n < 10 * p:
                continue
            lo, hi = signal._admissible(n, p)
            assert 0.0 < lo * n < 2.0 * math.pi and (math.pi - p * hi) * n == pytest.approx(0.004)
            near_lo = lo * np.geomspace(1.0, 4.0 * math.pi / (lo * n), 12)
            near_hi = (math.pi - (math.pi - p * hi) * np.geomspace(1.0, 1e3, 12)) / p
            for lam in [*near_lo, *np.linspace(lo, hi, 12), *near_hi]:
                cond, pivot = _gram_factors(n, p, lam)
                assert cond <= 1e6 and pivot >= 0.5e-6, (n, lam)
            assert _gram_condition(n, p, lo / 2) > 1e6, n
            assert _gram_condition(n, p, (math.pi / p + hi) / 2) > 1e6, n

    def test_edges_in_units_of_n(self):
        # lo n grows with p toward, and never past, 2 pi: at lambda = 2 pi/n
        # X'X is n/2 times the identity
        lo_n = [signal._admissible(200, p)[0] * 200 for p in (1, 2, 3, 4, 8, 32, 1000)]
        assert lo_n[0] == pytest.approx(0.004)
        assert lo_n == sorted(lo_n) and lo_n[-1] < 2.0 * math.pi
        assert _gram_condition(320, 32, 2.0 * math.pi / 320) == pytest.approx(1.0)


class TestSynthesize:
    def test_pure_cosine_quarter_pi(self):
        # y(t) = cos(pi/4 * t), t = 1..4
        model = HarmonicModel(1, math.pi / 4, ((1.0, 0.0),))
        sig = synthesize(model, 4)
        expected = [math.sqrt(0.5), 0.0, -math.sqrt(0.5), -1.0]
        assert np.allclose(sig.samples, expected, atol=1e-12)

    def test_model2_single_sample_matches_scalar_sum(self, model2):
        # independent scalar evaluation of the harmonic sum at t = 1
        sig = synthesize(model2, 1)
        expected = sum(
            a * math.cos(j * model2.lam) + b * math.sin(j * model2.lam)
            for j, (a, b) in enumerate(model2.amplitudes, start=1)
        )
        assert sig.samples[0] == pytest.approx(expected, abs=1e-12)

    def test_seeded_noise_reproducible_bit_exact(self, model1):
        noise = LinearProcessSpec((1.0, 0.5), 0.01)
        a = synthesize(model1, 100, noise, seed=42)
        b = synthesize(model1, 100, noise, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize(model1, 100, noise, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_first_sample_is_harmonic_sum_plus_noise_draw(self, model1):
        # regenerate the t=1 value from the deterministic sum and the same
        # seeded noise stream
        noise = LinearProcessSpec((1.0, 0.5), 0.01)
        sig = synthesize(model1, 100, noise, seed=7)
        det = sum(
            a * math.cos(j * 0.25) + b * math.sin(j * 0.25)
            for j, (a, b) in enumerate(model1.amplitudes, start=1)
        )
        e = generate_linear_process(noise, 100, seed=7)
        assert sig.samples[0] == pytest.approx(det + e[0], abs=1e-12)

    def test_noise_free_periodicity(self):
        # lambda = 2 pi / T with integer T makes the clean signal T-periodic
        T = 16
        model = HarmonicModel(1, 2 * math.pi / T, ((1.0, 0.5),))
        sig = synthesize(model, 3 * T)
        assert np.allclose(sig.samples[:T], sig.samples[T : 2 * T], atol=1e-12)

    def test_n_zero_rejected(self, model1):
        with pytest.raises(DomainError):
            synthesize(model1, 0)

    @pytest.mark.parametrize("model", [MODEL1, MODEL2])
    @pytest.mark.parametrize("n", [1, 100, 8000, 100_000])
    def test_matches_trig_form(self, model, n):
        # reference: the 2p cos/sin arrays.  Both forms round the phase
        # j*lam*t to relative eps, so they may differ by a few eps * j*lam*t
        # times the amplitude; measured at n = 1e5: 7.1e-15 for lam = 0.25
        # (exact in binary), 3.5e-11 for lam = 0.3141
        t = np.arange(1, n + 1, dtype=float)
        reference = np.zeros(n)
        bound = 1e-13
        for j, (a, b) in enumerate(model.amplitudes, start=1):
            reference += a * np.cos(j * model.lam * t) + b * np.sin(j * model.lam * t)
            bound += 2 * np.finfo(float).eps * j * model.lam * n * math.hypot(a, b)
        samples = synthesize(model, n).samples
        assert np.abs(samples - reference).max() <= bound


class TestPhases:
    """signal._phases: e^{i j lam t} from block products, one per sample and
    harmonic."""

    @pytest.mark.parametrize("n", [100, 1000, 8000, 100_000])
    @pytest.mark.parametrize("target", [0.006, 0.25, 0.3141, math.pi / 4 - 1e-3])
    def test_matches_exact_phase_reference(self, n, target):
        # The double lam is 2 pi k/N + delta with N = 2^20.  The exact phase
        # of t is then 2 pi (k t mod N)/N, reduced in integers, plus
        # delta*t, with delta found from 2 pi in two parts; the bound allows
        # for rounding lam*t in the routine.
        big_n = 2**20
        k = round(target * big_n / (2 * math.pi))
        lam = 2 * math.pi * k / big_n
        two_pi = Fraction(2 * math.pi) + Fraction(2.4492935982947064e-16)
        delta = float(Fraction(lam) - two_pi * k / big_n)
        t = np.arange(1, n + 1, dtype=np.int64)
        angle = 2 * math.pi * ((k * t) % big_n) / big_n
        exact = np.exp(1j * angle) * np.exp(1j * (delta * t))
        err = np.abs(signal._phases(lam, n)[0] - exact)
        assert np.all(err <= 2.2e-16 * lam * t + 1e-15)

    def test_prefix_is_the_shorter_call(self):
        # the criterion's prefix pass relies on a block width that does
        # not depend on n, for every harmonic
        z = signal._phases(0.3141, 1000, 4)
        for m in (1, 31, 32, 33, 500, 999):
            assert np.array_equal(z[:, :m], signal._phases(0.3141, m, 4))

    def test_mutating_returned_phases_leaves_next_call_unchanged(self):
        want = signal._phases(0.3141, 100, 3).copy()
        signal._phases(0.3141, 100, 3)[...] = 0.0
        assert np.array_equal(signal._phases(0.3141, 100, 3), want)


class TestLinearProcess:
    def test_iid_variance(self):
        e = generate_linear_process(LinearProcessSpec((1.0,), 1.0), 10000, seed=1)
        assert e.var() == pytest.approx(1.0, rel=0.05)

    def test_ma1_variance_matches_sum_of_squares(self):
        # theoretical variance sigma2 * sum a(k)^2 = 1.25
        e = generate_linear_process(LinearProcessSpec((1.0, 0.5), 1.0), 10000, seed=2)
        assert e.var() == pytest.approx(1.25, rel=0.05)

    def test_ma1_lag1_autocovariance(self):
        # MA(1) autocovariance at lag 1 is a0*a1*sigma2 = 0.5
        e = generate_linear_process(LinearProcessSpec((1.0, 0.5), 1.0), 50000, seed=3)
        ec = e - e.mean()
        acov1 = float(ec[:-1] @ ec[1:]) / e.size
        assert acov1 == pytest.approx(0.5, abs=0.05)

    def test_iid_lag_autocorrelations_small(self):
        # |r_k| < 4/sqrt(n) for most seeds; check a batch
        n = 4000
        bound = 4.0 / math.sqrt(n)
        ok = 0
        for seed in range(20):
            e = generate_linear_process(LinearProcessSpec((1.0,), 1.0), n, seed=seed)
            ec = e - e.mean()
            r1 = float(ec[:-1] @ ec[1:]) / float(ec @ ec)
            ok += abs(r1) < bound
        assert ok >= 19  # 95%-style bound

    def test_burn_in_gives_stationary_start(self):
        # e(1) must already mix q innovations: with coeffs summing large lag
        # influence, the first value differs from the innovation alone
        spec = LinearProcessSpec((1.0, 0.9), 4.0)
        e = generate_linear_process(spec, 5, seed=11)
        rng = np.random.default_rng(11)
        eps = rng.normal(0.0, 2.0, size=6)
        assert e[0] == pytest.approx(eps[1] + 0.9 * eps[0], abs=1e-12)

    def test_sigma2_positive_required(self):
        with pytest.raises(DomainError):
            LinearProcessSpec((1.0,), 0.0)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(DomainError):
            LinearProcessSpec((), 1.0)

    @pytest.mark.parametrize("coeffs", [(1.0, math.nan), (math.inf,), (1.0, 0.5, -math.inf)])
    def test_non_finite_coeffs_rejected(self, coeffs):
        with pytest.raises(DomainError, match="^coeffs must all be finite$"):
            LinearProcessSpec(coeffs, 1.0)

    @pytest.mark.parametrize("coeffs", [(0.0,), (0.0, -0.0, 0.0)])
    def test_all_zero_coeffs_rejected(self, coeffs):
        # the process would be identically zero, with no variance to report
        with pytest.raises(DomainError, match="must not all be zero"):
            LinearProcessSpec(coeffs, 1.0)

    @pytest.mark.parametrize("coeffs, sigma2", [((1e200,), 1.0), ((1e10, 1.0), 1e300)])
    def test_overflowing_process_variance_rejected(self, coeffs, sigma2):
        with pytest.raises(DomainError, match="is not finite"):
            LinearProcessSpec(coeffs, sigma2)

    def test_negative_seed_rejected(self):
        # default_rng raised a bare ValueError
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            generate_linear_process(LinearProcessSpec(), 10, seed=-1)


class TestSignalSamples:
    """A Signal owns its samples: nothing can change them after construction."""

    def test_caller_array_stays_writable_and_apart(self):
        a = np.arange(5.0)
        sig = Signal(a)
        assert a.flags.writeable
        a[0] = 7.0
        assert sig.samples[0] == 0.0

    def test_aliases_of_the_input_cannot_write_the_samples(self):
        a = np.arange(5.0)
        alias = a[:]
        sig = Signal(a)
        alias[0] = 7.0
        assert sig.samples[0] == 0.0
        base = np.arange(10.0)
        sliced = Signal(base[2:8])
        base[2] = 7.0
        assert np.array_equal(sliced.samples, np.arange(2.0, 8.0))

    def test_samples_cannot_be_made_writable(self):
        sig = Signal(np.arange(5.0))
        assert not sig.samples.flags.writeable
        with pytest.raises(ValueError):
            sig.samples.setflags(write=True)
        with pytest.raises(ValueError):
            sig.samples[0] = 7.0

    def test_copies_and_unpickled_signals_stay_immutable(self):
        sig = Signal(np.array([0.1, -2.5, 3e-300]))
        for other in (pickle.loads(pickle.dumps(sig)), copy.deepcopy(sig), copy.copy(sig)):
            assert other != sig  # a new signal
            assert other.samples.tobytes() == sig.samples.tobytes()
            with pytest.raises(ValueError):
                other.samples.setflags(write=True)

    def test_samples_keep_every_bit(self):
        y = np.array([5e-324, -0.0, 1.7976931348623157e308, -1e-300, 0.1])
        assert Signal(y).samples.tobytes() == y.tobytes()
        assert Signal(y[::-2]).samples.tobytes() == y[::-2].copy().tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(DomainError, match="samples must all be finite"):
            Signal(np.array([0.5, bad, 1.0]))

    @pytest.mark.parametrize("samples", [[], np.empty(0), np.zeros((2, 3)), np.zeros((4, 1)), 1.0],
                             ids=["empty-list", "empty-array", "2x3", "4x1", "scalar"])
    def test_empty_or_not_1d_samples_rejected(self, samples):
        with pytest.raises(DomainError, match="^samples must be a nonempty 1-d sequence$"):
            Signal(samples)

    @pytest.mark.parametrize("samples", [np.array([1 + 1j, 2, 3]), np.array([1 + 0j, 2]),
                                         [1.0, 2j], np.array([1, 2], dtype=np.complex64)],
                             ids=["complex", "zero-imaginary", "list", "complex64"])
    def test_complex_samples_rejected(self, samples):
        # the cast to float kept [1, 2, 3] of [1+1j, 2, 3], with only a
        # ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^samples must be real, got complex values$"):
                Signal(samples)


    @pytest.mark.parametrize("samples, what", [
        (["1.5", "2"], "str96"), ([True, False], "bool"), (np.array([True]), "bool"),
        ([b"1"], "bytes8"), (np.array([1.0, 2.0], dtype=object), "object"),
        ([1.0, None], "object"),
    ], ids=["strings", "bools", "bool-array", "bytes", "object-floats", "none"])
    def test_non_numeric_samples_rejected(self, samples, what):
        # the cast to float read ["1.5", "2"] as [1.5, 2.0] and [True,
        # False] as [1.0, 0.0]
        with pytest.raises(DomainError, match=f"^samples must be real, got {what} values$"):
            Signal(samples)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.float16, np.float32, np.longdouble])
    def test_integer_and_float_samples_pass_as_floats(self, dtype):
        samples = Signal(np.array([1, 2, 3], dtype=dtype)).samples
        assert samples.dtype == np.float64
        assert samples.tolist() == [1.0, 2.0, 3.0]


class TestSignalIdentity:
    """A Signal compares and hashes by identity."""

    def test_equal_samples_make_unequal_signals(self):
        y = np.arange(5.0)
        sig = Signal(y)
        assert (Signal(y) == Signal(y)) is False
        assert sig == sig

    def test_signals_are_set_members_and_dict_keys(self):
        y = np.arange(5.0)
        a, b = Signal(y), Signal(y)
        assert len({a, b, a}) == 2
        keyed = {a: 1, b: 2}
        assert keyed[a] == 1 and keyed[b] == 2


class TestScaleExponent:
    """e is the multiple of 256 nearest the binary exponent of max|y|."""

    @pytest.mark.parametrize("top, e", [
        (0.0, 0), (2.0**127, 0), (2.0**128, 256), (-(2.0**128), 256), (1.7e308, 1024),
        (2.0**-129, 0), (2.0**-130, -256), (5e-324, -1024), (1e160, 512), (1e-170, -512),
    ])
    def test_rule_at_its_edges(self, top, e):
        assert Signal(np.array([top / 4, top]))._exponent == e

    def test_unit_is_the_signal_in_range(self):
        sig = synthesize(MODEL1, 50)
        assert sig._unit is sig

    @pytest.mark.parametrize("factor", [1e160, 1e-170, 1.7e308, 5e-324])
    def test_unit_is_one_scaled_twin_out_of_range(self, factor):
        sig = Signal(factor * np.array([0.25, -1.0, 0.5]))
        unit = sig._unit
        assert unit is not sig and unit._exponent == 0 and unit._unit is unit
        assert unit.samples.tobytes() == np.ldexp(sig.samples, -sig._exponent).tobytes()


class TestMeanCorrect:
    def test_simple(self):
        out = mean_correct(Signal(np.array([1.0, 2.0, 3.0])))
        assert np.allclose(out.samples, [-1.0, 0.0, 1.0])

    def test_constant(self):
        out = mean_correct(Signal(np.array([3.14, 3.14, 3.14])))
        assert np.allclose(out.samples, 0.0)

    def test_idempotent(self):
        sig = Signal(np.array([0.5, -1.5, 2.0, 4.0]))
        once = mean_correct(sig)
        twice = mean_correct(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-15)
        assert abs(once.samples.mean()) < 1e-15

    def test_scale_free_near_the_top_of_the_float_range(self):
        # the sum of the samples of MODEL1 times 1e307 overflows; centring
        # the 2^-e view does not, and a power of two scales exactly
        y = synthesize(MODEL1, 200, LinearProcessSpec((1.0, 0.5), 0.25), seed=4).samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = mean_correct(Signal(np.ldexp(y, 1000)))
            assert big.samples.tobytes() == np.ldexp(mean_correct(Signal(y)).samples, 1000).tobytes()
            assert np.all(np.isfinite(mean_correct(Signal(y * 1e307)).samples))


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        sig = synthesize(MODEL1, 50, LinearProcessSpec((1.0, 0.5), 0.25), seed=5)
        path = tmp_path / "sig.txt"
        write_signal(sig, str(path))
        back = read_signal(str(path))
        assert np.array_equal(back.samples, sig.samples)
        # a UTF-8 byte order mark before the first sample is not part of it
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_signal(str(path)).samples.tobytes() == sig.samples.tobytes()

    def test_csv_round_trip(self, tmp_path):
        sig = synthesize(MODEL2, 30, seed=1)
        path = tmp_path / "sig.csv"
        write_signal(sig, str(path))
        back = read_signal(str(path))
        assert np.array_equal(back.samples, sig.samples)
        # a spreadsheet's "CSV UTF-8" starts with a byte order mark; before
        # the header it read as '\ufeffy', and column 'y' was not found
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_signal(str(path)).samples.tobytes() == sig.samples.tobytes()

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_signal(str(path))

    def test_csv_row_without_the_column_rejected(self, tmp_path):
        # a row shorter or longer than the header, named or one unnamed column
        path = tmp_path / "short.csv"
        for text, line, row in [("x,y\n1,2\n3\n", 3, "3"),
                                ("t,y\n1,0.5,9\n", 2, "1,0.5,9"),
                                ("1.0\n2.0,3.0\n", 2, "2.0,3.0")]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DomainError, match=rf"short\.csv: line {line}: .*'{row}'"):
                read_signal(str(path))

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        scaled = rng.normal(size=1000) * 10.0 ** rng.integers(-30, 31, size=1000)
        samples = np.concatenate(
            [[5e-324, 1.7976931348623157e308, -0.0, 1e16, 1e-5], scaled]
        )
        path = tmp_path / "sig.txt"
        write_signal(Signal(samples), str(path))
        back = read_signal(str(path)).samples
        assert back.tobytes() == samples.tobytes()  # bitwise: keeps -0.0 apart from 0.0

    def test_written_format_is_one_repr_per_line(self, tmp_path):
        samples = synthesize(MODEL2, 40, LinearProcessSpec((1.0, 0.5), 0.25), seed=3).samples
        path = tmp_path / "sig.txt"
        write_signal(Signal(samples), str(path))
        assert path.read_text(encoding="utf-8") == "\n".join(map(repr, samples.tolist())) + "\n"

    @staticmethod
    def _line_by_line(text):
        """Reference reader: strip each line, skip blanks and comments, float the rest."""
        lines = (line.strip() for line in text.split("\n"))
        return [float(line) for line in lines if line and not line.startswith("#")]

    def test_comments_blank_lines_whitespace_and_crlf(self, tmp_path):
        text = ("# made by hand\n"
                "\n"
                "  1.5\n"
                "\t-2.25e-3  \n"
                "   \n"
                "# sample_rate=44100.0\n"
                "  # an indented comment\n"
                "3\n"
                "\x0c\n"
                "-0.0")
        expected = self._line_by_line(text)
        assert expected == [1.5, -2.25e-3, 3.0, -0.0]
        for newline in ("\n", "\r\n"):
            path = tmp_path / "hand.txt"
            path.write_bytes(text.replace("\n", newline).encode())
            back = read_signal(str(path))
            assert back.samples.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("row", ["abc", "1.0 2.0", "1.0\t2.0", "1.0\x0c2.0", "1.0 # note"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"# sample_rate=10.0\n0.5\n\n{row}\n-1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"bad\.txt: line 4: "):
            read_signal(str(path))
        path.write_text(f"0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"bad\.txt: line 2: "):
            read_signal(str(path))

    @pytest.mark.parametrize("row", ["nan", "inf", "-inf", "1e999", " NaN "])
    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    def test_non_finite_row_names_file_and_line(self, tmp_path, row, suffix):
        path = tmp_path / f"bad{suffix}"
        head = "x,y\n" if suffix == ".csv" else ""
        cell = f"1,{row}" if suffix == ".csv" else row
        ok = "2,0.5" if suffix == ".csv" else "0.5"
        path.write_text(f"# made by hand\n{head}{ok}\n\n{cell}\n{ok}\n{cell}\n", encoding="utf-8")
        line = 4 + bool(head)
        with pytest.raises(DomainError, match=(
                rf"^{re.escape(str(path))}: line {line}: cannot read a finite number "
                rf"from {re.escape(repr(cell.strip()))}$")):
            read_signal(str(path))

    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    def test_non_text_file_names_the_file(self, tmp_path, suffix):
        path = tmp_path / f"binary{suffix}"
        path.write_bytes(b"0.5\n\xff\x00\n")
        with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}: not a text file"):
            read_signal(str(path))

    @pytest.mark.parametrize("header", ["# sample_rate=8000.0", "# sample_rate=fast"])
    @pytest.mark.parametrize("suffix", [".txt", ".csv"])
    def test_sample_rate_header_is_a_plain_comment(self, tmp_path, header, suffix):
        # files written with a sample rate header read as the same samples
        sig = synthesize(MODEL2, 40, LinearProcessSpec((1.0, 0.5), 0.25), seed=3)
        plain, headed = tmp_path / f"plain{suffix}", tmp_path / f"headed{suffix}"
        write_signal(sig, str(plain))
        text = plain.read_text(encoding="utf-8")
        headed.write_text(f"{header}\n{text}", encoding="utf-8")
        assert read_signal(str(headed)).samples.tobytes() == sig.samples.tobytes()

    # One signal in each file form read_signal takes.  Each form lays out
    # the samples as rows after an optional header.
    _FORMS = {
        "text": (".txt", None, lambda i, v: v),
        "csv-y": (".csv", "y", lambda i, v: v),
        "csv-y-second": (".csv", "t, y ,note", lambda i, v: f"{i}, {v} ,s{i}"),
        "csv-unnamed": (".csv", None, lambda i, v: v),
    }

    @pytest.mark.parametrize("comments", [False, True], ids=["plain", "comments"])
    @pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_every_form_reads_the_same_samples(self, tmp_path, form, newline, bom, comments):
        samples = np.concatenate([[-0.0, 5e-324, 1.7976931348623157e308, 1e16],
                                  synthesize(MODEL2, 40, LinearProcessSpec((1.0, 0.5), 0.25),
                                             seed=3).samples])
        suffix, header, row = self._FORMS[form]
        lines = [row(i, repr(v)) for i, v in enumerate(samples.tolist())]
        if comments:
            lines[20:20] = ["", "# a note", "   ", "  # an indented note"]
            lines[:0] = ["# made by hand", ""]
        if header is not None:
            lines.insert(2 if comments else 0, header)
        path = tmp_path / f"sig{suffix}"
        path.write_bytes(b"\xef\xbb\xbf" * bom + (newline.join(lines) + newline).encode())
        assert read_signal(str(path)).samples.tobytes() == samples.tobytes()

    @pytest.mark.parametrize("suffix, text, message", [
        (".txt", "0.5\nabc\n-1.0\n", "line 2: cannot read a number from 'abc'"),
        (".txt", "# c\r\n0.5\r\n\r\n1.0 2.0\r\n", "line 4: cannot read a number from '1.0 2.0'"),
        (".csv", "x,y\n1,0.5\n2,abc\n", "line 3: cannot read a number from '2,abc'"),
        (".csv", "0.5\n1,\n", "line 2: cannot read a row as wide as the header from '1,'"),
        (".csv", "x,y\n1,0.5\n2,\n", "line 3: cannot read a number from '2,'"),
        (".txt", "0.5\nnan\n", "line 2: cannot read a finite number from 'nan'"),
        (".txt", "0.5\n-inf\n", "line 2: cannot read a finite number from '-inf'"),
        (".csv", "y\n0.5\n1e999\n", "line 3: cannot read a finite number from '1e999'"),
        (".csv", "x,y\n1,2\n3\n", "line 3: cannot read a row as wide as the header from '3'"),
        (".csv", "t,y\n1,0.5,9\n", "line 2: cannot read a row as wide as the header from '1,0.5,9'"),
        # the first bad line, whatever its defect
        (".csv", "x,y\n1,2.0\n1,abc\n1,3.0\n1\n", "line 3: cannot read a number from '1,abc'"),
        (".csv", "x,y\n1\n1,abc\n", "line 2: cannot read a row as wide as the header from '1'"),
        # a line that is no number is named before one that is not finite
        (".txt", "0.5\nnan\nabc\n", "line 3: cannot read a number from 'abc'"),
        (".csv", "a,b\n1,2\n", "column 'y' not found in header ['a', 'b']"),
        (".csv", "y\n", "no data rows"),
        (".csv", "# c\ny\n\n", "no data rows"),
        (".csv", "", "no data rows"),
        (".txt", "", "no data rows"),
        (".txt", "\n# c\n", "no data rows"),
    ])
    def test_malformed_file_message(self, tmp_path, suffix, text, message):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(text.encode())
        with pytest.raises(DomainError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_signal(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        for text in ("", "\n\n", "# sample_rate=10.0\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DomainError, match="no data rows"):
                read_signal(str(path))
        # a CSV file holding only its header has no data rows either
        path = tmp_path / "empty.csv"
        for text in ("y\n", "y\n\n", "# c\ny\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: no data rows$"):
                read_signal(str(path))


def test_presets_match_published_parameters():
    assert MODEL1.lam == 0.25 and MODEL2.lam == 0.3141
    assert MODEL1.amplitudes == ((5.0, 3.0), (4.0, 2.5), (3.0, 2.25), (2.0, 2.0))
    assert MODEL2.amplitudes == ((4.0, 2.0), (3.0, 1.5), (2.0, 1.25), (1.0, 1.0))
