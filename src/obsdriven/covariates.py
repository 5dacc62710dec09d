"""Stationary ergodic covariate environments and coefficient maps.

The environment menu (constant, i.i.d., AR(1), finite-state Markov) covers
bounded, unbounded and dependent exogenous processes.  Paths are generated
from per-time-index counter-based streams, so regenerating a path over a
longer backward range reproduces the original values on the shared suffix
bit for bit; backward-iteration experiments rely on that.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _special as special
from ._codec import Spec
from .errors import DegenerateMap, EmptyRange, InvalidSpec
from .rngstream import IndexedStream, split_seed

LOG_FLOOR = 1e-300
Z99 = 2.576  # 99% two-sided normal quantile
MAX_DIMENSION = 4096  # the largest covariate dimension or multinomial category count

# word-slot tags inside the per-index stream
_TAG_ENV = 101
# |ndtri(u)| at the stream's extreme uniforms, u = 2**-54 and 1 - 2**-53, is at most
# -ndtri(2**-54); a literal, so that building a Gaussian does not import scipy.special
_NDTRI_TAIL = 8.292361075813597


def _require_finite(what: str, values) -> None:
    """Refuse NaN or infinite spec values (NaN or inf paths) and an empty list of them (paths of width 0)."""
    values = list(values)
    if not values or not all(math.isfinite(v) for v in values):
        raise InvalidSpec(f"{what} needs one or more finite values")


# ---------------------------------------------------------------------------
# marginal distributions for IID / AR1 noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian(Spec):
    tag = ("name", "gaussian")
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require_finite("Gaussian", (self.mu, self.sigma))
        if self.sigma < 0:
            raise InvalidSpec("Gaussian sigma must be >= 0")
        reach = self.sigma * _NDTRI_TAIL
        if not (math.isfinite(self.mu - reach) and math.isfinite(self.mu + reach)):
            raise InvalidSpec("Gaussian draws overflow float64 in the tails (mu +- 8.3 sigma)")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return self.mu + self.sigma * special.ndtri(u)


@dataclass(frozen=True)
class Uniform(Spec):
    tag = ("name", "uniform")
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        _require_finite("Uniform", (self.a, self.b))
        if not self.a <= self.b:
            raise InvalidSpec("Uniform requires a <= b")
        if not math.isfinite(self.b - self.a):
            raise InvalidSpec("Uniform width b - a overflows float64")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return self.a + (self.b - self.a) * u


@dataclass(frozen=True)
class PointMass(Spec):
    tag = ("name", "point")
    value: float = 0.0

    def __post_init__(self):
        _require_finite("PointMass", (self.value,))

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=float), self.value)


def _mean_of(marginal) -> float:
    """The mean of non-Gaussian AR(1) noise; Gaussian noise takes its exact stationary law."""
    if isinstance(marginal, Uniform):
        return 0.5 * (marginal.a + marginal.b)
    return marginal.value


# ---------------------------------------------------------------------------
# process specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant(Spec):
    """Deterministic environment; the degenerate stationary process."""

    tag = ("kind", "constant")
    value: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in np.atleast_1d(self.value)))
        _require_finite("Constant", self.value)

    @property
    def dimension(self) -> int:
        return len(self.value)


@dataclass(frozen=True)
class IID(Spec):
    tag = ("kind", "iid")
    marginal: Gaussian | Uniform | PointMass
    dimension: int = 1

    def __post_init__(self):
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise InvalidSpec(f"dimension must be in 1..{MAX_DIMENSION}")


@dataclass(frozen=True)
class AR1(Spec):
    """x_t = a x_{t-1} + eps_t with i.i.d. noise per component; |a| < 1."""

    tag = ("kind", "ar1")
    a: float
    noise: Gaussian | Uniform | PointMass
    dimension: int = 1

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise InvalidSpec(f"AR1 needs |a| < 1 for stationarity, got a={self.a}")
        e = self.noise  # its largest magnitude, grown by up to 1 / (1 - |a|) in the recursion
        peak = (max(abs(e.a), abs(e.b)) if isinstance(e, Uniform) else
                abs(e.mu) + _NDTRI_TAIL * e.sigma if isinstance(e, Gaussian) else abs(e.value))
        if not math.isfinite(peak / (1.0 - abs(self.a))):
            raise InvalidSpec("AR1 paths overflow float64: the stationary reach max|noise| / (1 - |a|) is not finite")
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise InvalidSpec(f"dimension must be in 1..{MAX_DIMENSION}")

    @property
    def burn_in(self) -> int:
        return 10 * math.ceil(1.0 / (1.0 - abs(self.a)))


@dataclass(frozen=True)
class FiniteStateMarkov(Spec):
    """Irreducible finite-state chain started from its stationary vector."""

    tag = ("kind", "finite_markov")
    states: tuple[tuple[float, ...], ...]
    transition: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        states = tuple(tuple(float(v) for v in np.atleast_1d(s)) for s in self.states)
        object.__setattr__(self, "states", states)
        _require_finite("FiniteStateMarkov", itertools.chain.from_iterable(states))
        if len({len(s) for s in states}) > 1:
            raise InvalidSpec("FiniteStateMarkov states must all have the same length")
        P = np.asarray(self.transition, dtype=float)
        k = len(states)
        if P.shape != (k, k):
            raise InvalidSpec("transition matrix shape must match the state count")
        if np.any(P < -1e-15):
            raise InvalidSpec("transition probabilities must be nonnegative")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidSpec("transition rows must sum to 1 within 1e-12")
        # irreducibility via reachability closure
        reach = (P > 0).astype(bool) | np.eye(k, dtype=bool)
        for _ in range(k):
            reach = reach | (reach @ reach)
        if not reach.all():
            raise InvalidSpec("chain is not irreducible")
        object.__setattr__(self, "transition", tuple(tuple(row) for row in P))

    @property
    def dimension(self) -> int:
        return len(self.states[0])

    def stationary_vector(self) -> np.ndarray:
        """Stationary row vector by (damped) power iteration, to an l1 step below 1e-12
        within 200000 iterations."""
        P = np.asarray(self.transition)
        k = P.shape[0]
        # damping keeps periodic chains convergent without moving the fixed point
        Q = 0.5 * (P + np.eye(k))
        pi = np.full(k, 1.0 / k)
        for _ in range(200000):
            nxt = pi @ Q
            nxt /= nxt.sum()
            if np.abs(nxt - pi).sum() < 1e-12:
                return nxt
            pi = nxt
        raise InvalidSpec("power iteration for the stationary vector did not converge")


CovariateProcessSpec = Constant | IID | AR1 | FiniteStateMarkov


def spec_hash(spec: CovariateProcessSpec) -> str:
    payload = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariatePath:
    """A sampled environment realization on [t_min, t_max]."""

    t_min: int
    t_max: int
    values: np.ndarray  # shape (length, d), read-only
    seed: int
    spec_hash: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if len(v) != self.t_max - self.t_min + 1:
            raise InvalidSpec("path length does not match its time range")

    def __len__(self) -> int:
        return self.t_max - self.t_min + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.t_min, self.t_max + 1)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def window(self, t_lo: int, t_hi: int) -> np.ndarray:
        if t_lo < self.t_min or t_hi > self.t_max:
            raise EmptyRange(f"window [{t_lo}, {t_hi}] outside path range")
        return self.values[t_lo - self.t_min : t_hi - self.t_min + 1]

    def to_csv(self, fileobj) -> None:
        """Columns t, x_1 .. x_d (x_1 also when d = 1)."""
        write_csv(fileobj, [("t", self.times)] + [(f"x_{j + 1}", self.values[:, j]) for j in range(self.dimension)])


# Exact "%.17g" text of doubles in [1e-4, 1e15) and of +-0, in numpy passes of at
# most _PASS cells.  For X the decimal exponent of |v|, i = searchsorted(_T10, |v|,
# "right") is X + 6 exactly: the doubles nearest 10**-5 .. 10**-1 lie above their
# powers.  Its 17 digits D, |v| * 10**(16 - X) rounded half to even, are dtoa's:
# Dekker's product gives |v| * _P10[i] exactly as x + e, and x >= 2**53 is an even
# integer, so D = x + rint(e).
_PASS = 1024
_T10 = np.array([float(f"1e{k}") for k in range(-5, 17)])
_P10 = np.array([float(10**k) for k in range(22, -1, -1)])  # 10**(16 - X) at i, exact


def _split(a):
    """Veltkamp split of a into 26-bit halves hi + lo."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


_P10_HI, _P10_LO = _split(_P10)
# 4-digit groups 0000 .. 9999 as little-endian ASCII words; word 10000 is "-." and NULs
_DIG4 = (np.arange(10_001)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_DIG4[10_000] = (45, 46, 0, 0)
_TZ4 = 2 * (_DIG4[:10_000, ::-1] == 48).cumprod(axis=1).sum(axis=1)  # twice the trailing zeros
_DIG4 = _DIG4.view("<u4").ravel()
# A cell's 24 source bytes are "000", its 17 digits, "-", "." and NULs; row 34 i + 2 z
# + sign of _PATTERNS picks its text from them, for z trailing zeros in its digits.
_X, _Z, _NEG, _J = np.ogrid[-6:15, 0:17, 0:2, 0:24]
_Q, _S = _J - _NEG, 17 - _Z
_LEN = _NEG + np.where(_X < 0, 1 - _X + _S, np.where(_S <= _X + 1, _X + 1, _S + 1))
_BODY = np.where(_X >= 0, np.select([_Q <= _X, _Q == _X + 1], [3 + _Q, 21], 2 + _Q),
                 np.select([_Q == 1, _Q < 1 - _X], [21, 0], 2 + _Q + _X))
_PATTERNS = np.where(_J < _LEN, np.where(_Q < 0, 20, _BODY), 22).reshape(-1, 24)
del _X, _Z, _NEG, _J, _Q, _S, _LEN, _BODY


def _fast_cells(v):
    """Rows of 24 NUL-padded ASCII bytes, the %.17g text of each float64 cell
    with 1e-4 <= |v| < 1e15 or v = +-0, and a mask of the other cells."""
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 1.0)
    i = np.searchsorted(_T10, a, "right")
    x = a * _P10[i]
    ah, al = _split(a)
    ph, pl = _P10_HI[i], _P10_LO[i]
    e = al * pl - (((x - ah * ph) - al * ph) - ah * pl)
    D = x.astype(np.int64) + np.rint(e).astype(np.int64)
    fast &= (D >= 10**16) & (D < 10**17)
    D[zero] = 0
    hi, lo = np.divmod(D, 10**8)
    d0, hi = np.divmod(hi, 10**8)
    (g1, g2), (g3, g4) = np.divmod(hi, 10**4), np.divmod(lo, 10**4)
    src = _DIG4[np.column_stack((d0, g1, g2, g3, g4, np.full(len(v), 10_000)))]
    zeros = np.where(lo, np.where(g4, _TZ4[g4], 8 + _TZ4[g3]), np.where(g2, _TZ4[g2], 8 + _TZ4[g1]) + 16)
    index = np.take(_PATTERNS, 34 * i + zeros + np.signbit(v), axis=0)
    index += 24 * np.arange(len(v))[:, None]
    return np.take(src.view(np.uint8), index), ~(fast | zero)


def write_csv(fileobj, columns) -> None:
    """Write (name, values) column blocks, values (n,) or (n, k), as one CSV table.

    k > 1 columns are headed name_1 .. name_k.  The one format of every
    result file: ints and bools as ints, other values with 17 significant
    digits, cells never quoted, lines ending in csv's \\r\\n.  Cells are
    formatted in exact numpy passes (``_fast_cells``); NaN, infinities,
    |v| < 1e-4, |v| >= 1e15 and ints past 1e15 go through ``%.17g`` / ``%d``.
    """
    header, cols = [], []
    for name, values in columns:
        v = np.asarray(values)
        v = (v if v.ndim == 2 else v[:, None]).T
        header += [name] if len(v) == 1 else [f"{name}_{j + 1}" for j in range(len(v))]
        cols += list(v.astype(np.int64) if v.dtype.kind in "biu" else v.astype(np.float64))
    csv.writer(fileobj).writerow(header)
    if not cols or not len(cols[0]):
        return
    # passes of whole rows (one at least), up to _PASS cells; a cell is 24 text bytes and "," or "\r\n"
    m = len(cols)
    rows = max(1, _PASS // m)
    ints = np.array([c.dtype == np.int64 for c in cols])
    block = np.column_stack(cols).astype(np.float64)
    block[ints & (np.abs(block) >= 1e15)] = np.nan  # past 1e15 an int may not be its float
    text = np.zeros((rows * m, 26), np.uint8)
    text[:, 24:] = np.tile([(44, 0)] * (m - 1) + [(13, 10)], (rows, 1))
    for lo in range(0, len(block), rows):
        flat = block[lo:lo + rows].ravel()
        cells = text[:len(flat)]
        cells[:, :24], slow = _fast_cells(flat)
        slow = np.flatnonzero(slow)
        if len(slow):
            texts = [("%d" if ints[i % m] else "%.17g") % cols[i % m][lo + i // m].item() for i in slow.tolist()]
            padded = "".join(t.ljust(24, "\0") for t in texts).encode("ascii")
            cells[slow, :24] = np.frombuffer(padded, np.uint8).reshape(-1, 24)
        fileobj.write(cells.tobytes().translate(None, b"\0").decode("ascii"))


def _gaussian_ar1_law(spec: AR1) -> tuple[float, float]:
    """Mean and standard deviation of a Gaussian AR(1)'s stationary law."""
    return spec.noise.mu / (1.0 - spec.a), spec.noise.sigma / math.sqrt(1.0 - spec.a * spec.a)


def _burn_in(spec: AR1) -> tuple[np.ndarray, float]:
    """Weights a^0 .. a^B of a burn-in window, and the transient a^(B+1) times the stationary mean."""
    a, B = spec.a, spec.burn_in
    return a ** np.arange(B + 1), (a ** (B + 1)) * (_mean_of(spec.noise) / (1.0 - a))


def _words_per_index(spec: CovariateProcessSpec) -> int:
    # one noise word per component (an AR(1) anchor reuses index words); a Markov chain takes one
    # inverse-cdf uniform per step, and a Constant's unused stream keeps the layout uniform
    return spec.dimension if isinstance(spec, (IID, AR1)) else 1


def generate_path(
    spec: CovariateProcessSpec, t_min: int, t_max: int, seed: int
) -> CovariatePath:
    """Sample the environment on [t_min, t_max], stationary at every index.

    Deterministic in (spec, seed, range).  Values at index t are a function
    of per-index stream words at indices >= t only (plus the anchored
    suffix for dependent processes), so extending the range backward never
    perturbs the values already generated: the path on [a, b] equals the
    restriction of the path on [a-k, b].
    """
    if t_max < t_min:
        raise EmptyRange(f"empty range [{t_min}, {t_max}]")
    n = t_max - t_min + 1
    h = spec_hash(spec)

    if isinstance(spec, Constant):
        vals = np.tile(np.asarray(spec.value, dtype=float), (n, 1))
        return CovariatePath(t_min, t_max, vals, seed, h)

    stream = IndexedStream(seed, _TAG_ENV, _words_per_index(spec))

    if isinstance(spec, IID):
        u = stream.uniforms(t_min, n)[:, : spec.dimension]
        vals = spec.marginal.from_uniform(u)
        return CovariatePath(t_min, t_max, vals, seed, h)

    if isinstance(spec, AR1):
        return _generate_ar1(spec, t_min, t_max, seed, stream, h)

    return _generate_markov(spec, t_min, t_max, seed, stream, h)


def _generate_ar1(
    spec: AR1, t_min: int, t_max: int, seed: int, stream: IndexedStream, h: str
) -> CovariatePath:
    n = t_max - t_min + 1
    a = spec.a
    if isinstance(spec.noise, Gaussian):
        # A stationary Gaussian AR(1) is time-reversible: running the same
        # recursion backward from a stationary anchor at t_max yields the
        # exact joint law, and extending the range backward only continues
        # the recursion, which keeps the shared suffix identical.
        m_stat, s_stat = _gaussian_ar1_law(spec)
        u = stream.uniforms(t_min, n)[:, : spec.dimension]
        z = special.ndtri(u)
        anchor = m_stat + s_stat * z[-1]
        centered = spec.noise.sigma * z[:-1][::-1]  # innovations for t_max-1 ... t_min
        # y_t = c_t + a y_{t-1} from y_{-1} = anchor - m_stat, per column on
        # Python floats: the same bits as lfilter([1], [1, -a], zi=a y_{-1})
        out = np.array([list(itertools.accumulate(col, lambda y, c: c + a * y, initial=y0))[1:]
                        for col, y0 in zip(centered.T.tolist(), (anchor - m_stat).tolist())])
        vals = np.concatenate([(m_stat + out.T)[::-1], anchor[None, :]], axis=0)
        return CovariatePath(t_min, t_max, vals, seed, h)

    # Non-Gaussian noise: no closed stationary law.  Each index gets its own
    # burn-in window of B steps started at the stationary mean, evaluated as
    # a truncated moving average; the transient weight a^(B+1) ~ e^-10.
    B = spec.burn_in
    u = stream.uniforms(t_min - B, n + B)[:, : spec.dimension]
    eps = spec.noise.from_uniform(u)  # index t_min-B .. t_max
    weights, offset = _burn_in(spec)
    vals = np.empty((n, spec.dimension))
    for j in range(spec.dimension):
        # window sum_{k=0..B} a^k eps_{t-k}: correlate leaves per-output
        # windows independent of the array offset, keeping restriction exact
        vals[:, j] = np.correlate(eps[:, j], weights[::-1], mode="valid")
    vals += offset
    return CovariatePath(t_min, t_max, vals, seed, h)


def _generate_markov(
    spec: FiniteStateMarkov, t_min: int, t_max: int, seed: int, stream: IndexedStream, h: str
) -> CovariatePath:
    n = t_max - t_min + 1
    P = np.asarray(spec.transition)
    pi = spec.stationary_vector()
    # time-reversed kernel; running it forward in reversed time anchored at
    # t_max gives the exact stationary chain and backward-extension stability
    Pr = (P.T * pi[None, :]) / pi[:, None]
    Pr = Pr / Pr.sum(axis=1, keepdims=True)
    cdf_rev = np.cumsum(Pr, axis=1)
    cdf_pi = np.cumsum(pi)
    u = stream.uniforms(t_min, n)[:, 0]
    idx = np.empty(n, dtype=np.int64)
    idx[-1] = int(np.searchsorted(cdf_pi, u[-1]))
    for k in range(n - 2, -1, -1):
        idx[k] = int(np.searchsorted(cdf_rev[idx[k + 1]], u[k]))
    states = np.asarray(spec.states, dtype=float)
    return CovariatePath(t_min, t_max, states[idx], seed, h)


def stationary_draws(spec: CovariateProcessSpec, n: int, seed: int) -> np.ndarray:
    """n independent draws from the stationary marginal of X_0, shape (n, d).

    The i.i.d. twin of ``generate_path`` used for Monte Carlo moment
    estimation; AR(1) with non-Gaussian noise uses independent burn-in
    windows of the same length as the path construction.
    """
    if n < 1:
        raise InvalidSpec("need n >= 1 draws")
    if isinstance(spec, Constant):
        return np.tile(np.asarray(spec.value), (n, 1))
    stream = IndexedStream(seed, _TAG_ENV + 1, _words_per_index(spec))
    if isinstance(spec, IID):
        return spec.marginal.from_uniform(stream.uniforms(0, n))
    if isinstance(spec, AR1) and isinstance(spec.noise, Gaussian):
        m, s = _gaussian_ar1_law(spec)
        return m + s * special.ndtri(stream.uniforms(0, n))
    if isinstance(spec, AR1):
        weights, offset = _burn_in(spec)
        u = stream.uniforms(0, n * len(weights)).reshape(n, len(weights), spec.dimension)
        eps = spec.noise.from_uniform(u)
        return np.tensordot(weights, np.moveaxis(eps, 1, 0), axes=(0, 0)) + offset
    idx = np.searchsorted(np.cumsum(spec.stationary_vector()), stream.uniforms(0, n)[:, 0])
    return np.asarray(spec.states, dtype=float)[idx]


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------

class CoefficientMapBase(Spec):
    """Nonnegative (or signed) scalar functions of the covariate value."""

    nonnegative: bool = False

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """x of shape (d,) or (n, d); returns a float for one row, else shape (n,)."""
        x = np.asarray(x, dtype=float)
        out = self._table(np.atleast_2d(x))
        return float(out[0]) if x.ndim <= 1 else out

    def _table(self, rows: np.ndarray) -> np.ndarray:
        """The map at each row of an (n, d) covariate array: shape (n,)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMap(CoefficientMapBase):
    tag = ("kind", "constant")
    c: float = field(metadata={"key": "value"})
    nonnegative: bool = False

    def __post_init__(self):
        if self.nonnegative and self.c < 0:
            raise InvalidSpec("nonnegative map with negative constant")

    def _table(self, rows):
        return np.full(len(rows), self.c)


@dataclass(frozen=True)
class AffineAbsMap(CoefficientMapBase):
    """c0 + sum_k c1_k |x_k|; with the nonnegative flag, all coefficients >= 0."""

    tag = ("kind", "affine_abs")
    c0: float
    c1: tuple[float, ...]
    nonnegative: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(float(v) for v in np.atleast_1d(self.c1)))
        if self.nonnegative and (self.c0 < 0 or any(v < 0 for v in self.c1)):
            raise InvalidSpec("nonnegative AffineAbs requires c0, c1 >= 0")

    def _table(self, rows):
        c1 = np.asarray(self.c1)
        # several slopes: product and row sum, as ``@`` on a matrix rounds rows unlike a 1-d dot
        if c1.size == 1:
            return self.c0 + c1[0] * np.abs(rows).sum(axis=1)
        return self.c0 + (np.abs(rows) * c1).sum(axis=1)


@dataclass(frozen=True)
class ExpAffineMap(CoefficientMapBase):
    """exp(c0 + sum_k c1_k x_k); strictly positive, hence always nonnegative."""

    tag = ("kind", "exp_affine")
    c0: float
    c1: tuple[float, ...]
    nonnegative: bool = field(default=True, init=False)

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(float(v) for v in np.atleast_1d(self.c1)))

    def _table(self, rows):
        c1 = np.asarray(self.c1)
        return np.exp(self.c0 + (c1[0] * rows.sum(axis=1) if c1.size == 1 else (rows * c1).sum(axis=1)))


@dataclass(frozen=True)
class TableMap(CoefficientMapBase):
    """One value per finite environment state, matched by state value."""

    tag = ("kind", "table")
    states: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    nonnegative: bool = False

    def __post_init__(self):
        states = tuple(tuple(float(v) for v in np.atleast_1d(s)) for s in self.states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.states) != len(self.values):
            raise InvalidSpec("table needs one value per state")
        if self.nonnegative and any(v < 0 for v in self.values):
            raise InvalidSpec("nonnegative table with negative entries")

    def _table(self, rows):
        # sup distance of every row to every state, (n, k); a NaN row matches none
        dist = np.max(np.abs(np.asarray(self.states)[None, :, :] - rows[:, None, :]), axis=2)
        j = np.argmin(dist, axis=1)
        off = np.flatnonzero(~(dist[np.arange(len(rows)), j] <= 1e-9))
        if off.size:
            raise InvalidSpec(f"covariate value {rows[off[0]]} not in table states")
        return np.asarray(self.values)[j]


@dataclass(frozen=True)
class DerivedMap(CoefficientMapBase):
    """Internal combinator (max, sum, abs, ...) over other maps.

    Not part of the JSON menu; used for contraction extraction, growth
    envelopes and drift certificates, where exact pointwise algebra on the
    user's maps is needed.  ``fn`` maps an (n, d) covariate array to (n,)
    values in one call; a single covariate row is the n = 1 case.
    """

    label: str
    fn: object  # callable (n, d) covariate array -> (n,) array
    nonnegative: bool = True

    def _table(self, rows):
        return np.asarray(self.fn(rows), dtype=float)

    def to_dict(self):
        return {"kind": "derived", "label": self.label}


CoefficientMap = ConstantMap | AffineAbsMap | ExpAffineMap | TableMap | DerivedMap


def abs_map(m: CoefficientMap) -> CoefficientMap:
    if m.nonnegative:
        return m
    if isinstance(m, ConstantMap):
        return ConstantMap(abs(m.c), nonnegative=True)
    return DerivedMap(f"|{type(m).__name__}|", lambda x, _m=m: np.abs(_m.evaluate(x)))


def sum_map(label: str, *maps: CoefficientMap) -> CoefficientMap:
    consts = [m for m in maps if isinstance(m, ConstantMap)]
    if len(consts) == len(maps):
        return ConstantMap(sum(m.c for m in consts), nonnegative=all(m.c >= 0 for m in consts))
    return DerivedMap(label, lambda x, _ms=maps: sum(m.evaluate(x) for m in _ms))


def max_map(label: str, *maps: CoefficientMap) -> CoefficientMap:
    consts = [m for m in maps if isinstance(m, ConstantMap)]
    if len(consts) == len(maps):
        return ConstantMap(max(m.c for m in consts), nonnegative=all(m.c >= 0 for m in consts))
    return DerivedMap(label, lambda x, _ms=maps: np.maximum.reduce([m.evaluate(x) for m in _ms]))


def provable_sup(m: CoefficientMap) -> float | None:
    """A structural supremum of the map, when one is derivable; else None."""
    if isinstance(m, ConstantMap):
        return abs(m.c)
    if isinstance(m, TableMap):
        return max(abs(v) for v in m.values)
    if isinstance(m, AffineAbsMap) and all(v == 0 for v in m.c1):
        return abs(m.c0)
    return None


# ---------------------------------------------------------------------------
# log-moment estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of E log map(X_0) with a 99% three-way verdict."""

    mean: float
    std_error: float
    n_samples: int
    verdict: str = field(init=False)
    n_floored: int = 0

    def __post_init__(self):
        if self.mean + Z99 * self.std_error < 0:
            v = "negative"
        elif self.mean - Z99 * self.std_error > 0:
            v = "nonnegative"
        else:
            v = "inconclusive"
        object.__setattr__(self, "verdict", v)

    def to_dict(self):
        return asdict(self)


def _abs_draws(name: str, coeff_map: CoefficientMap, spec: CovariateProcessSpec, n: int, seed: int) -> np.ndarray:
    """|map(X_0)| at n >= 100 independent stationary draws."""
    if n < 100:
        raise InvalidSpec(f"{name} needs n >= 100")
    x = stationary_draws(spec, n, seed)
    return np.abs(np.asarray(coeff_map.evaluate(x), dtype=float))


def _mean_estimate(logs: np.ndarray, n_floored: int = 0) -> MomentEstimate:
    """Sample mean of logs with its standard error (0 when every value is equal)."""
    se = 0.0 if np.ptp(logs) == 0.0 else float(logs.std(ddof=1) / math.sqrt(len(logs)))
    return MomentEstimate(float(logs.mean()), se, len(logs), n_floored=n_floored)


def log_moment_estimate(
    coeff_map: CoefficientMap, spec: CovariateProcessSpec, n: int, seed: int
) -> MomentEstimate:
    """Sample average of log map(X_0) over n independent stationary draws.

    Zero map values are floored at 1e-300 and counted; a map that is zero
    on every draw is degenerate.  Flooring only helps a negativity verdict,
    matching the convention that kappa(x) = 0 contracts perfectly.
    """
    vals = _abs_draws("log_moment_estimate", coeff_map, spec, n, seed)
    n_floored = int((vals < LOG_FLOOR).sum())
    if n_floored == n:
        raise DegenerateMap("coefficient map is zero on the environment support")
    return _mean_estimate(np.log(np.maximum(vals, LOG_FLOOR)), n_floored)


def log_plus_moment_estimate(
    coeff_map: CoefficientMap, spec: CovariateProcessSpec, n: int, seed: int
) -> MomentEstimate:
    """Same sampling scheme for E log^+ |map(X_0)| = E max(log|map|, 0)."""
    vals = _abs_draws("log_plus_moment_estimate", coeff_map, spec, n, seed)
    return _mean_estimate(np.log(np.maximum(vals, 1.0)))
