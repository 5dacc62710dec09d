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
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

from .errors import DegenerateMap, EmptyRange, InvalidSpec
from .rngstream import IndexedStream, split_seed

LOG_FLOOR = 1e-300

# word-slot tags inside the per-index stream
_TAG_ENV = 101


# ---------------------------------------------------------------------------
# marginal distributions for IID / AR1 noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidSpec("Gaussian sigma must be >= 0")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return self.mu + self.sigma * ndtri(u)

    def to_dict(self) -> dict:
        return {"name": "gaussian", "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class Uniform:
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.a <= self.b:
            raise InvalidSpec("Uniform requires a <= b")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return self.a + (self.b - self.a) * u

    def to_dict(self) -> dict:
        return {"name": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class PointMass:
    value: float = 0.0

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=float), self.value)

    def to_dict(self) -> dict:
        return {"name": "point", "value": self.value}


_MARGINALS = {"gaussian": Gaussian, "uniform": Uniform, "point": PointMass}


def marginal_from_dict(d: dict):
    kind = d.get("name")
    if kind not in _MARGINALS:
        raise InvalidSpec(f"unknown marginal {kind!r}")
    args = {k: v for k, v in d.items() if k != "name"}
    return _MARGINALS[kind](**args)


def _mean_of(marginal) -> float:
    if isinstance(marginal, Gaussian):
        return marginal.mu
    if isinstance(marginal, Uniform):
        return 0.5 * (marginal.a + marginal.b)
    return marginal.value


# ---------------------------------------------------------------------------
# process specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Deterministic environment; the degenerate stationary process."""

    value: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in np.atleast_1d(self.value)))

    @property
    def dimension(self) -> int:
        return len(self.value)

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": list(self.value)}


@dataclass(frozen=True)
class IID:
    marginal: Gaussian | Uniform | PointMass
    dimension: int = 1

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidSpec("dimension must be >= 1")

    def to_dict(self) -> dict:
        return {"kind": "iid", "marginal": self.marginal.to_dict(), "dimension": self.dimension}


@dataclass(frozen=True)
class AR1:
    """x_t = a x_{t-1} + eps_t with i.i.d. noise per component; |a| < 1."""

    a: float
    noise: Gaussian | Uniform | PointMass
    dimension: int = 1

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise InvalidSpec(f"AR1 needs |a| < 1 for stationarity, got a={self.a}")
        if self.dimension < 1:
            raise InvalidSpec("dimension must be >= 1")

    @property
    def burn_in(self) -> int:
        return 10 * math.ceil(1.0 / (1.0 - abs(self.a)))

    def to_dict(self) -> dict:
        return {"kind": "ar1", "a": self.a, "noise": self.noise.to_dict(), "dimension": self.dimension}


@dataclass(frozen=True)
class FiniteStateMarkov:
    """Irreducible finite-state chain started from its stationary vector."""

    states: tuple[tuple[float, ...], ...]
    transition: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        states = tuple(tuple(float(v) for v in np.atleast_1d(s)) for s in self.states)
        object.__setattr__(self, "states", states)
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

    def stationary_vector(self, tol: float = 1e-12, max_iter: int = 200000) -> np.ndarray:
        """Stationary row vector by (damped) power iteration to ``tol``."""
        P = np.asarray(self.transition)
        k = P.shape[0]
        # damping keeps periodic chains convergent without moving the fixed point
        Q = 0.5 * (P + np.eye(k))
        pi = np.full(k, 1.0 / k)
        for _ in range(max_iter):
            nxt = pi @ Q
            nxt /= nxt.sum()
            if np.abs(nxt - pi).sum() < tol:
                return nxt
            pi = nxt
        raise InvalidSpec("power iteration for the stationary vector did not converge")

    def to_dict(self) -> dict:
        return {
            "kind": "finite_markov",
            "states": [list(s) for s in self.states],
            "transition": [list(r) for r in self.transition],
        }


CovariateProcessSpec = Constant | IID | AR1 | FiniteStateMarkov


def spec_from_dict(d: dict) -> CovariateProcessSpec:
    kind = d.get("kind")
    if kind == "constant":
        return Constant(tuple(d["value"]))
    if kind == "iid":
        return IID(marginal_from_dict(d["marginal"]), d.get("dimension", 1))
    if kind == "ar1":
        return AR1(d["a"], marginal_from_dict(d["noise"]), d.get("dimension", 1))
    if kind == "finite_markov":
        return FiniteStateMarkov(tuple(map(tuple, d["states"])), tuple(map(tuple, d["transition"])))
    raise InvalidSpec(f"unknown covariate spec kind {kind!r}")


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
    state_index: np.ndarray | None = None  # finite-state chains only

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.state_index is not None:
            si = np.asarray(self.state_index)
            si.setflags(write=False)
            object.__setattr__(self, "state_index", si)
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

    def value_at(self, t: int) -> np.ndarray:
        if not self.t_min <= t <= self.t_max:
            raise EmptyRange(f"time {t} outside path range [{self.t_min}, {self.t_max}]")
        return self.values[t - self.t_min]

    def window(self, t_lo: int, t_hi: int) -> np.ndarray:
        if t_lo < self.t_min or t_hi > self.t_max:
            raise EmptyRange(f"window [{t_lo}, {t_hi}] outside path range")
        return self.values[t_lo - self.t_min : t_hi - self.t_min + 1]

    def to_csv(self, fileobj) -> None:
        """Columns t, x_1 .. x_d (x_1 also when d = 1)."""
        write_csv(fileobj, [("t", self.times)] + [(f"x_{j + 1}", self.values[:, j]) for j in range(self.dimension)])


def write_csv(fileobj, columns) -> None:
    """Write (name, values) column blocks, values (n,) or (n, k), as one CSV table.

    k > 1 columns are headed name_1 .. name_k.  The one format of every
    result file: ints and bools as ints, other values with 17 significant
    digits, cells never quoted, lines ending in csv's \\r\\n.
    """
    header, cells, fmt = [], [], []
    for name, values in columns:
        v = np.asarray(values)
        v = (v if v.ndim == 2 else v[:, None]).T
        k = len(v)
        header += [name] if k == 1 else [f"{name}_{j + 1}" for j in range(k)]
        integer = v.dtype.kind in "biu"
        cells += (v.astype(np.int64) if integer else v).tolist()
        fmt += ["%d" if integer else "%.17g"] * k
    csv.writer(fileobj).writerow(header)
    # numbers never need csv quoting, so one template renders each row
    row = ",".join(fmt) + "\r\n"
    fileobj.writelines(row % r for r in zip(*cells))


def _words_per_index(spec: CovariateProcessSpec) -> int:
    if isinstance(spec, Constant):
        return 1  # stream unused but keep layout uniform
    if isinstance(spec, IID):
        return spec.dimension
    if isinstance(spec, AR1):
        return spec.dimension  # one noise word per component; anchor reuses index words
    return 1  # FiniteStateMarkov: one inverse-cdf uniform per step


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
        mu, sig = spec.noise.mu, spec.noise.sigma
        m_stat = mu / (1.0 - a)
        s_stat = sig / math.sqrt(1.0 - a * a)
        u = stream.uniforms(t_min, n)[:, : spec.dimension]
        z = ndtri(u)
        anchor = m_stat + s_stat * z[-1]
        centered = sig * z[:-1][::-1]  # innovations for t_max-1 ... t_min
        if len(centered):
            out = lfilter([1.0], [1.0, -a], centered, axis=0, zi=(a * (anchor - m_stat))[None, :])[0]
            vals = np.concatenate([ (m_stat + out)[::-1], anchor[None, :] ], axis=0)
        else:
            vals = anchor[None, :]
        return CovariatePath(t_min, t_max, vals, seed, h)

    # Non-Gaussian noise: no closed stationary law.  Each index gets its own
    # burn-in window of B steps started at the stationary mean, evaluated as
    # a truncated moving average; the transient weight a^(B+1) ~ e^-10.
    B = spec.burn_in
    u = stream.uniforms(t_min - B, n + B)[:, : spec.dimension]
    eps = spec.noise.from_uniform(u)  # index t_min-B .. t_max
    weights = a ** np.arange(B + 1)  # j = 0 .. B
    m_stat = _mean_of(spec.noise) / (1.0 - a)
    vals = np.empty((n, spec.dimension))
    for j in range(spec.dimension):
        # window sum_{k=0..B} a^k eps_{t-k}: correlate leaves per-output
        # windows independent of the array offset, keeping restriction exact
        vals[:, j] = np.correlate(eps[:, j], weights[::-1], mode="valid")
    vals += (a ** (B + 1)) * m_stat
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
    return CovariatePath(t_min, t_max, states[idx], seed, h, state_index=idx)


def stationary_draws(spec: CovariateProcessSpec, n: int, seed: int) -> np.ndarray:
    """n independent draws from the stationary marginal of X_0, shape (n, d).

    The i.i.d. twin of ``generate_path`` used for Monte Carlo moment
    estimation; AR(1) with non-Gaussian noise uses independent burn-in
    windows of the same length as the path construction.
    """
    if n < 1:
        raise InvalidSpec("need n >= 1 draws")
    stream = IndexedStream(seed, _TAG_ENV + 1, 1)
    if isinstance(spec, Constant):
        return np.tile(np.asarray(spec.value), (n, 1))
    if isinstance(spec, IID):
        stream = IndexedStream(seed, _TAG_ENV + 1, spec.dimension)
        return spec.marginal.from_uniform(stream.uniforms(0, n)[:, : spec.dimension])
    if isinstance(spec, AR1):
        a = spec.a
        if isinstance(spec.noise, Gaussian):
            m = spec.noise.mu / (1.0 - a)
            s = spec.noise.sigma / math.sqrt(1.0 - a * a)
            stream = IndexedStream(seed, _TAG_ENV + 1, spec.dimension)
            return m + s * ndtri(stream.uniforms(0, n)[:, : spec.dimension])
        B = spec.burn_in
        stream = IndexedStream(seed, _TAG_ENV + 1, spec.dimension)
        u = stream.uniforms(0, n * (B + 1)).reshape(n, B + 1, spec.dimension)
        eps = spec.noise.from_uniform(u)
        weights = a ** np.arange(B + 1)
        m_stat = _mean_of(spec.noise) / (1.0 - a)
        return np.tensordot(weights, np.moveaxis(eps, 1, 0), axes=(0, 0)) + (a ** (B + 1)) * m_stat
    pi = spec.stationary_vector()
    u = stream.uniforms(0, n)[:, 0]
    idx = np.searchsorted(np.cumsum(pi), u)
    return np.asarray(spec.states, dtype=float)[idx]


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------

class CoefficientMapBase:
    """Nonnegative (or signed) scalar functions of the covariate value."""

    nonnegative: bool = False

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """x of shape (d,) or (n, d); returns scalar or shape (n,)."""
        raise NotImplementedError

    def __call__(self, x):
        return self.evaluate(x)


@dataclass(frozen=True)
class ConstantMap(CoefficientMapBase):
    c: float
    nonnegative: bool = False

    def __post_init__(self):
        if self.nonnegative and self.c < 0:
            raise InvalidSpec("nonnegative map with negative constant")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            return self.c
        return np.full(x.shape[0], self.c)

    def to_dict(self):
        return {"kind": "constant", "value": self.c, "nonnegative": self.nonnegative}


@dataclass(frozen=True)
class AffineAbsMap(CoefficientMapBase):
    """c0 + sum_k c1_k |x_k|; with the nonnegative flag, all coefficients >= 0."""

    c0: float
    c1: tuple[float, ...]
    nonnegative: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(float(v) for v in np.atleast_1d(self.c1)))
        if self.nonnegative and (self.c0 < 0 or any(v < 0 for v in self.c1)):
            raise InvalidSpec("nonnegative AffineAbs requires c0, c1 >= 0")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        c1 = np.asarray(self.c1)
        # several slopes: product and row sum, as ``@`` on a matrix rounds rows unlike a 1-d dot
        if x.ndim <= 1:
            xa = np.abs(np.atleast_1d(x))
            if c1.size == 1:
                return self.c0 + float(c1[0] * xa.sum())
            return self.c0 + float((xa * c1).sum())
        if c1.size == 1:
            return self.c0 + c1[0] * np.abs(x).sum(axis=1)
        return self.c0 + (np.abs(x) * c1).sum(axis=1)

    def to_dict(self):
        return {"kind": "affine_abs", "c0": self.c0, "c1": list(self.c1), "nonnegative": self.nonnegative}


@dataclass(frozen=True)
class ExpAffineMap(CoefficientMapBase):
    """exp(c0 + sum_k c1_k x_k); strictly positive, hence always nonnegative."""

    c0: float
    c1: tuple[float, ...]
    nonnegative: bool = True

    def __post_init__(self):
        object.__setattr__(self, "c1", tuple(float(v) for v in np.atleast_1d(self.c1)))
        object.__setattr__(self, "nonnegative", True)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        c1, rows = np.asarray(self.c1), np.atleast_2d(x)
        out = np.exp(self.c0 + (c1[0] * rows.sum(axis=1) if c1.size == 1 else (rows * c1).sum(axis=1)))
        return float(out[0]) if x.ndim <= 1 else out

    def to_dict(self):
        return {"kind": "exp_affine", "c0": self.c0, "c1": list(self.c1)}


@dataclass(frozen=True)
class TableMap(CoefficientMapBase):
    """One value per finite environment state, matched by state value."""

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

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        rows = np.atleast_2d(x)
        # sup distance of every row to every state, (n, k); a NaN row matches none
        dist = np.max(np.abs(np.asarray(self.states)[None, :, :] - rows[:, None, :]), axis=2)
        j = np.argmin(dist, axis=1)
        off = np.flatnonzero(~(dist[np.arange(len(rows)), j] <= 1e-9))
        if off.size:
            raise InvalidSpec(f"covariate value {rows[off[0]]} not in table states")
        out = np.asarray(self.values)[j]
        return float(out[0]) if x.ndim <= 1 else out

    def to_dict(self):
        return {
            "kind": "table",
            "states": [list(s) for s in self.states],
            "values": list(self.values),
            "nonnegative": self.nonnegative,
        }


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

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            return float(self.fn(np.atleast_1d(x)[None, :])[0])
        return np.asarray(self.fn(x), dtype=float)

    def to_dict(self):
        return {"kind": "derived", "label": self.label}


CoefficientMap = ConstantMap | AffineAbsMap | ExpAffineMap | TableMap | DerivedMap


def map_from_dict(d: dict) -> CoefficientMap:
    kind = d.get("kind")
    if kind == "constant":
        return ConstantMap(d["value"], d.get("nonnegative", False))
    if kind == "affine_abs":
        return AffineAbsMap(d["c0"], tuple(d["c1"]), d.get("nonnegative", False))
    if kind == "exp_affine":
        return ExpAffineMap(d["c0"], tuple(d["c1"]))
    if kind == "table":
        return TableMap(tuple(map(tuple, d["states"])), tuple(d["values"]), d.get("nonnegative", False))
    raise InvalidSpec(f"unknown coefficient map kind {kind!r}")


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
        z = 2.576  # 99% two-sided normal quantile
        if self.mean + z * self.std_error < 0:
            v = "negative"
        elif self.mean - z * self.std_error > 0:
            v = "nonnegative"
        else:
            v = "inconclusive"
        object.__setattr__(self, "verdict", v)

    def to_dict(self):
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "verdict": self.verdict,
            "n_floored": self.n_floored,
        }


def log_moment_estimate(
    coeff_map: CoefficientMap, spec: CovariateProcessSpec, n: int, seed: int
) -> MomentEstimate:
    """Sample average of log map(X_0) over n independent stationary draws.

    Zero map values are floored at 1e-300 and counted; a map that is zero
    on every draw is degenerate.  Flooring only helps a negativity verdict,
    matching the convention that kappa(x) = 0 contracts perfectly.
    """
    if n < 100:
        raise InvalidSpec("log_moment_estimate needs n >= 100")
    x = stationary_draws(spec, n, seed)
    vals = np.abs(np.asarray(coeff_map.evaluate(x), dtype=float))
    floored = vals < LOG_FLOOR
    n_floored = int(floored.sum())
    if n_floored == n:
        raise DegenerateMap("coefficient map is zero on the environment support")
    vals[floored] = LOG_FLOOR
    logs = np.log(vals)
    mean = float(logs.mean())
    se = 0.0 if np.ptp(logs) == 0.0 else float(logs.std(ddof=1) / math.sqrt(n))
    return MomentEstimate(mean, se, n, n_floored=n_floored)


def plain_moment(
    coeff_map: CoefficientMap, spec: CovariateProcessSpec, n: int, seed: int
) -> float:
    """Monte Carlo mean of map(X_0) itself (used by drift fixed points)."""
    x = stationary_draws(spec, n, seed)
    return float(np.mean(coeff_map.evaluate(x)))


def log_plus_moment_estimate(
    coeff_map: CoefficientMap, spec: CovariateProcessSpec, n: int, seed: int
) -> MomentEstimate:
    """Same sampling scheme for E log^+ |map(X_0)| = E max(log|map|, 0)."""
    if n < 100:
        raise InvalidSpec("log_plus_moment_estimate needs n >= 100")
    x = stationary_draws(spec, n, seed)
    vals = np.abs(np.asarray(coeff_map.evaluate(x), dtype=float))
    logs = np.log(np.maximum(vals, 1.0))
    mean = float(logs.mean())
    se = 0.0 if np.ptp(logs) == 0.0 else float(logs.std(ddof=1) / math.sqrt(n))
    return MomentEstimate(mean, se, n)
