"""Harmonic signal model and synthetic data generation.

The observation model is

    y(t) = sum_{j=1..p} [A_j cos(j*lambda*t) + B_j sin(j*lambda*t)] + e(t),
    t = 1..n,

where ``lambda`` is the fundamental angular frequency (radians per sample,
0 < lambda < pi/p) and e(t) is a stationary finite-order linear process
e(t) = sum_k a(k) eps(t-k) driven by i.i.d. Gaussian innovations.

Synthesis, residuals and the criterion take the phases e^{i j lambda t}
from one routine, :func:`_phases`: one exp over an angle vector that is
built once per n and kept read-only, then one complex multiply per
sample and harmonic.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "HarmonicModel",
    "Signal",
    "LinearProcessSpec",
    "synthesize",
    "generate_linear_process",
    "mean_correct",
    "read_signal",
    "write_signal",
]


def _integer(name: str, value, low: int | None = None) -> int:
    """value as a Python int: Python and numpy integers pass, anything else
    (a float such as 100.7 or 2.0, a string or a bool) raises DomainError,
    and so does an integer below ``low`` when ``low`` is given."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


def _real(name: str, value) -> float:
    """value as a Python float: Python and numpy reals (ints and floats)
    pass, anything else (a bool, a string, bytes, a complex or None)
    raises DomainError, and so does an int past the float range."""
    if type(value) is float:  # the common case: returned as itself
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        # float() would read True as 1.0 and "0.25" as 0.25
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must lie in the float range, got {value}") from None


def _check_band(p: int, lam: float) -> tuple[int, float]:
    """(p, lam) as a Python int and float (see :func:`_integer` and
    :func:`_real`); raises unless p >= 1 and 0 < lam < pi/p, where every
    j*lam, j <= p, is in (0, pi).  An order past the float range has no
    such lambda.

    A check of harmonic j alone passes p = j.
    """
    p, lam = _integer("harmonic order", p, 1), _real("lambda", lam)
    try:
        top = math.pi / p
    except OverflowError:  # int too large to convert to float
        top = 0.0
    if not (0.0 < lam < top):
        raise DomainError(f"lambda must lie in (0, pi/{p}) = (0, {top:.6g}), got {lam}")
    return p, lam


def _check_sample_size(n: int, p: int, where: str = "") -> None:
    """Raise :class:`DomainError` unless n >= 10*p, the least sample size
    of the start search and of :func:`_admissible`; ``where`` extends the
    message."""
    if n < 10 * p:
        raise DomainError(f"need n >= 10*p = {10 * p}{where}, got n = {n}")


# n times the least distance of an admissible lambda from 0 (p = 1) and of
# an admissible p*lambda from pi: there one harmonic's cos and sin columns
# are 0.004 rad from collapsing onto each other over the record
_EDGE = 0.004


def _admissible(n: int, p: int) -> tuple[float, float]:
    """The admissible interval (lo, hi) of the estimator: where in (0, pi/p)
    X'X of the 2p design columns (see :mod:`fundfreq.criterion`) has a
    condition number of at most 1e6, so g keeps about 10 digits.

    One closed form, decided from (n, p) alone:

        lo n = max(2 pi (1 - 1/p)^3, 0.004),   (pi - p hi) n = 0.004.

    Near 0 the 2p columns close in on polynomials in t, more of them the
    larger p: measured by SVD, the condition number reaches 1e6 at lo n =
    0.0035, 0.548, 1.46, 2.24, 2.82, 3.27, 3.91, 4.63, 5.02 and 5.64 for
    p = 1-6, 8, 12, 16 and 32, at n = 10p, where these edges are widest.
    The form lies above them by 43 % at p = 2, 28 % at 3, 19 % at 4, under
    8 % from p = 8 on and 13 % at p = 1, and below twice them, so X'X is
    still ill-conditioned at lo/2.  lo n stays below 2 pi: at lambda =
    2 pi/n, X'X is n/2 times the identity.  Near pi/p the top harmonic
    nears pi, and there the edge is (pi - p hi) n = 0.0035 for every p,
    13 % inside 0.004.  Between the edges no two columns meet, and the
    condition number is largest at the edges.  The bound is measured for
    n >= 10p (see :func:`_check_sample_size`) only.

    Inside (lo, hi), X'X therefore has a Cholesky factor, and no pass
    needs a floor on its pivots: the trace of X'X is pn over 2p
    eigenvalues, so the largest is at least n/2 and, with the condition
    number at most 1e6, the least at least n/(2 10^6).  The squared pivot
    that ends a leading block M_k of the factorization is 1/(M_k^{-1})_kk,
    at least the least eigenvalue of M_k and so of X'X: every squared
    pivot is at least n/(2 10^6).
    """
    lo = max(2.0 * math.pi * (1.0 - 1.0 / p) ** 3, _EDGE) / n
    return lo, (math.pi - _EDGE / n) / p


@dataclass(frozen=True)
class HarmonicModel:
    """True or estimated parameters of a p-harmonic signal.

    Parameters
    ----------
    p : int
        Number of harmonics, >= 1, stored as a Python int.
    lam : float
        Fundamental frequency in radians per sample, 0 < lam < pi/p,
        stored as a Python float.
    amplitudes : tuple of (A_j, B_j) pairs
        Cosine/sine amplitudes for harmonics j = 1..p, stored as Python
        floats.  No pair may be identically (0, 0).
    """

    p: int
    lam: float
    amplitudes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        p, lam = _check_band(self.p, self.lam)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", lam)
        if len(self.amplitudes) != p:
            raise DomainError(f"expected {p} amplitude pairs, got {len(self.amplitudes)}")
        amps = tuple((_real("amplitude", a), _real("amplitude", b)) for a, b in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        for j, (a, b) in enumerate(amps, start=1):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"amplitudes of harmonic {j} are not finite")
            if a == 0.0 and b == 0.0:
                raise DomainError(f"harmonic {j} has zero amplitude")

    @property
    def power_per_harmonic(self) -> np.ndarray:
        """A_j^2 + B_j^2 for j = 1..p."""
        return np.array([a * a + b * b for a, b in self.amplitudes])


@dataclass(frozen=True, eq=False)
class Signal:
    """A finite sample y(1..n) of real numbers: samples of a numpy integer
    or float dtype pass and are stored as floats.  Any other dtype raises
    :class:`DomainError`: a cast to float would drop a complex sample's
    imaginary part, and read strings such as "1.5" and bools as numbers.

    The samples are a copy of the input over an immutable buffer: writing
    the input, or any alias of it, leaves the signal unchanged, the input
    stays writable, and ``samples.setflags(write=True)`` raises.  A
    signal's samples therefore never change after construction, and a
    signal compares and hashes by identity: two signals over the same
    samples are unequal, and a pickled or deep-copied signal is a new one.

    The one scale rule of the package, kept in this class: ``_exponent``
    is e, the multiple of 256 nearest the binary exponent of max|y|, 0 for
    max|y| inside 2^+-128.  ``_unit`` is the signal y 2^-e, whose squares
    and every sum of n of them stay in the float range: the signal itself
    when e = 0, else a new signal built when it is read.  Every other
    module computes on ``_unit`` and returns its results through
    ``_scale_back``, by 2^e for a value in y's units and by 2^(2e) for one
    in their squares.  A power of two scales exactly, so inside 2^+-128
    nothing changes, and outside it every answer is the one at scale 1.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "iuf":
            what = "complex" if samples.dtype.kind == "c" else samples.dtype.name
            raise DomainError(f"samples must be real, got {what} values")
        samples = samples.astype(float, copy=False)
        if samples.ndim != 1 or samples.size < 1:
            raise DomainError("samples must be a nonempty 1-d sequence")
        top = float(np.abs(samples).max())
        if not math.isfinite(top):
            raise DomainError("samples must all be finite")
        object.__setattr__(self, "samples", np.frombuffer(samples.tobytes(), dtype=float))
        object.__setattr__(self, "_exponent", 256 * round(math.frexp(top)[1] / 256))

    def __reduce__(self):
        # pickle and deepcopy would restore the samples as a writable array;
        # rebuilding through the constructor keeps them immutable
        return Signal, (self.samples,)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def _unit(self) -> Signal:
        """y 2^-e, whose own exponent is 0: this signal when e = 0."""
        e = self._exponent
        return Signal(np.ldexp(self.samples, -e)) if e else self

    def _scale_back(self, x, power: int = 1):
        """x 2^(power e), a result of ``_unit`` in this signal's units.

        Exact inside the float range, inf or 0 past it, with no warning.
        A scalar comes back as a Python float, an array as an array.
        """
        with np.errstate(over="ignore", under="ignore"):
            out = np.ldexp(x, power * self._exponent)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinearProcessSpec:
    """Finite moving-average representation of the noise process.

    ``coeffs`` are a(0..q); ``sigma2`` is the innovation variance.  The
    process variance is sigma2 * sum(a(k)^2), and must be finite.
    """

    coeffs: tuple[float, ...] = (1.0,)
    sigma2: float = 1.0

    def __post_init__(self):
        coeffs = tuple(_real("coefficient", c) for c in self.coeffs)
        sigma2 = _real("sigma2", self.sigma2)
        if len(coeffs) == 0:
            raise DomainError("coeffs must be nonempty")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("coeffs must all be finite")
        if not any(coeffs):
            raise DomainError("coeffs must not all be zero")
        if not (sigma2 > 0 and math.isfinite(sigma2)):
            raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma2", sigma2)
        if not math.isfinite(self.process_variance):
            raise DomainError(
                f"noise variance sigma2 * sum(a(k)^2) is not finite: sigma2 = {sigma2}, "
                f"coeffs = {coeffs}"
            )

    @property
    def process_variance(self) -> float:
        """Stationary variance sigma2 * sum a(k)^2."""
        return self.sigma2 * sum(c * c for c in self.coeffs)


def harmonic_sum(lam: float, amplitudes, n: int) -> np.ndarray:
    """Deterministic part sum_j A_j cos(j lam t) + B_j sin(j lam t), t = 1..n.

    Evaluated as Re sum_j (A_j - i B_j) z^j with z = e^{i lam t} from
    :func:`_phases`, by Horner's rule on the coefficients.
    """
    z = _phases(lam, n)[0]
    out = np.zeros_like(z)
    for a, b in reversed(amplitudes):
        out += complex(a, -b)
        out *= z
    return out.real.copy()


# Width of the blocks of t that share one coarse phase in _phases.  It is a
# constant so that _phases(lam, n)[:, :m] equals _phases(lam, m) bit for bit.
_PHASE_BLOCK = 32


@functools.lru_cache(maxsize=1)  # an estimate and its synthesis run at one n
def _phase_angles(n: int) -> np.ndarray:
    """i*(0, 32, .., 32(m-1)) then i*(1, .., 32), m = ceil(n/32): the coarse
    and fine angles of :func:`_phases` per unit lam, read-only, built once
    per n and kept for the last n."""
    angles = 1j * np.concatenate(
        [np.arange(0.0, n, _PHASE_BLOCK), np.arange(1.0, _PHASE_BLOCK + 1)]
    )
    angles.setflags(write=False)
    return angles


def _phases(lam: float, n: int, p: int = 1) -> np.ndarray:
    """e^{i j lam t} in row j-1 for j = 1..p and t = 1..n.

    Row 0 comes from about n/32 + 32 complex exponentials, all from one
    exp over :func:`_phase_angles`: each t = 32a + b (b = 1..32) takes the
    product e^{i lam 32a} e^{i lam b} of a coarse and a fine phase, one
    complex multiply per sample.  The angles lam*(32a) and lam*b each
    round once, as lam*t does, so the error stays below about
    eps * lam * t.  Row j is row j-1 times row 0.  The rows are filled to
    the end of the last block, written in place, and returned cut to n.
    """
    e = np.exp(lam * _phase_angles(n))
    m = e.size - _PHASE_BLOCK
    z = np.empty((p, m * _PHASE_BLOCK), dtype=complex)
    np.multiply(e[:m, None], e[m:], out=z[0].reshape(m, _PHASE_BLOCK))
    for j in range(1, p):
        np.multiply(z[j - 1], z[0], out=z[j])
    return z[:, :n]


def generate_linear_process(spec: LinearProcessSpec, n: int, seed: int) -> np.ndarray:
    """Draw e(1..n) with e(t) = sum_k a(k) eps(t-k), eps ~ N(0, sigma2) i.i.d.

    A burn-in of q = len(coeffs)-1 pre-samples makes e(1) use a full
    innovation history, so the output is stationary from the first sample.
    Deterministic in ``seed``, which must be >= 0.
    """
    n, seed = _integer("n", n, 1), _integer("seed", seed, 0)
    q = len(spec.coeffs) - 1
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(spec.sigma2), size=n + q)
    # e[t] = sum_k a(k) eps[t-k]; with eps covering times 1-q..n this is the
    # 'full' convolution sliced to drop the q ramp-up samples.
    e = np.convolve(eps, np.asarray(spec.coeffs))[q : q + n]
    return e


def synthesize(
    model: HarmonicModel,
    n: int,
    noise: LinearProcessSpec | None = None,
    seed: int = 0,
) -> Signal:
    """Generate y(1..n) from the harmonic model, optionally plus noise.

    Identical (model, n, noise, seed) always yield bit-identical samples.
    ``seed`` must be an integer >= 0 with or without noise, though
    noiseless samples do not depend on it.
    """
    n, seed = _integer("n", n, 1), _integer("seed", seed, 0)
    y = harmonic_sum(model.lam, model.amplitudes, n)
    if noise is not None:
        y = y + generate_linear_process(noise, n, seed)
    return Signal(y)


def mean_correct(signal: Signal) -> Signal:
    """Subtract the arithmetic mean from every sample.

    The mean is taken and subtracted on the ``_unit`` view, so the sum of
    the samples cannot overflow, and the result is scaled back.
    """
    unit = signal._unit.samples
    return Signal(signal._scale_back(unit - unit.mean()))


def write_signal(signal: Signal, path: str) -> None:
    """Write a signal to ``path``, one sample per line.

    Each sample is written as ``repr`` of its Python float, the shortest
    text that reads back to the same double, so :func:`read_signal`
    returns the samples bit for bit.  ``.csv`` paths get a one-column
    header ``y``.  Like every file the package writes, the file is UTF-8
    with ``"\\n"`` line ends on every platform.
    """
    lines = []
    if str(path).endswith(".csv"):
        lines.append("y")
    lines.extend(map(repr, signal.samples.tolist()))
    _write_text(path, "\n".join(lines))


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` and a final newline to the file ``path`` as UTF-8
    with ``"\\n"`` line ends, or print them when ``path`` is None."""
    if path is None:
        print(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _read_text(path: str) -> str:
    """The whole of the file ``path`` as UTF-8 text, past a leading byte
    order mark such as a spreadsheet's "CSV UTF-8" writes.  A file that is
    not UTF-8 text raises :class:`DomainError` naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a text file ({exc})") from None


def read_signal(path: str) -> Signal:
    """Read a signal written by :func:`write_signal` (text or CSV).

    The file is read in one piece as UTF-8, past a leading byte order mark
    such as a spreadsheet's "CSV UTF-8" writes.  Blank lines are skipped,
    and so is a line whose first non-blank character is ``#``, a comment.
    Every other line of a text file is one sample; a ``.csv`` file is read
    from the column its header names ``y``, or is one unnamed column of
    numbers, and each of its rows has as many cells as the header.  One
    rule reads every sample, text line and CSV cell alike: Python's
    ``float``, in one numpy call.  A file that is not UTF-8 text raises
    :class:`DomainError` naming the file.  A file that does not read
    raises one naming the file and its first bad line: the first line that
    is not a number, or in a CSV file not a row as wide as the header;
    when every line is a number, the first that is not finite, such as
    ``nan``, ``inf`` or ``1e999``.
    """
    text = _read_text(path)
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
    rows = lines
    # a file write_signal wrote has neither comments nor blank lines, and
    # skips this line-by-line pass
    if "#" in text or not all(map(str.strip, lines)):
        rows = [line for line in lines if (body := line.strip()) and not body.startswith("#")]
    if not rows:
        raise DomainError(f"{path}: no data rows")
    data, cells, start, width = rows, rows, 0, 0
    if str(path).endswith(".csv"):
        header = [c.strip() for c in rows[0].split(",")]
        width = len(header)
        if "y" in header:
            idx, data, start = header.index("y"), rows[1:], lines.index(rows[0]) + 1
        elif width == 1 and _is_number(header[0]):
            idx = 0
        else:
            raise DomainError(f"{path}: column 'y' not found in header {header}")
        if not data:
            raise DomainError(f"{path}: no data rows")
        # a row of another width gives the cell "", which float rejects
        cells = [c[idx] if len(c := row.split(",")) == width else "" for row in data]
    try:
        # a list of str converts element by element through float(), so a
        # row like "1.0 2.0" is rejected as float("1.0 2.0") is
        samples = np.array(cells, dtype=float)
    except ValueError:
        row = next(row for row, cell in zip(data, cells) if not _is_number(cell))
        what = "a number"
        if width and row.count(",") + 1 != width:
            what = "a row as wide as the header"
        raise _bad_line(path, lines, row, start, what) from None
    try:
        return Signal(samples)
    except DomainError:  # a row such as nan, inf or 1e999
        first = int(np.argmin(np.isfinite(samples)))
        raise _bad_line(path, lines, data[first], start, "a finite number") from None


def _bad_line(path: str, lines: list[str], line: str, start: int, what: str) -> DomainError:
    """A :class:`DomainError` naming the first line equal to ``line`` from ``start`` on.

    Lines with equal text are read alike, so that is the first bad line
    when ``line`` is.
    """
    number = lines.index(line, start) + 1
    return DomainError(f"{path}: line {number}: cannot read {what} from {line.strip()!r}")


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
