"""Forward simulation, maximal coupling of chains, and backward iterations.

Two chains coupled here share one environment path and draw observations
from the maximal coupling at their current latent pair, so their
disagreement probability at each step equals the total-variation distance
of the two conditional laws.  Backward iterations run the recursion from
time -n to 0 along a fixed path; their empirical laws are compared in
Wasserstein-1 distance under the truncated metric min(|s-s'|, 1).

Observation randomness for backward runs is addressed per (time index,
replica) by counter-based streams: runs with the same seed but different
start states or different n share every uniform on common indices, which
realizes the coupling the backward Cauchy argument is built on, and which
keeps a path extension from perturbing the shared suffix.

Two stepping cores, each fed and checked by ``_start_states``, serve every
entry point.  ``_forward_steps`` steps on Python floats from a sequential
generator (a coupled draw takes a variable number of words, which no counter
can address): a coupled pair until its states have the same bits, then one
glued chain, which draws its noise in one call where the words do not depend
on the state.  The link's float step, the family's draw and its lower domain
bound are fixed once per run; ``_step`` reports a state outside the bound.
``_backward_steps`` steps replica batches by inverse transform from
counter-addressed uniforms, with the family's ``sample_inverse``, the link's
``batch_step`` and the kernel's ``domain_contains`` fixed once per run;
``_check_state`` reports a batch outside the domain.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _codec, links as links_mod
from .covariates import AffineAbsMap, CovariatePath, CovariateProcessSpec, ExpAffineMap, generate_path, write_csv
from .errors import (
    DomainViolation,
    EmptyRange,
    InvalidSpec,
    PathTooShort,
    SizeMismatch,
    StateOverflow,
    UnsupportedCombination,
)
from .kernels import KernelSpec, PhiSpec, state_distance
# every loop steps a coefficient table; link_apply stays importable for callers that patch it
from .links import LinkSpec, apply as link_apply, coefficient_table, contraction_map
from .rngstream import IndexedStream, generator, split_seed

_SEED_ENV = 11
_SEED_OBS = 12
_SEED_COUPLE = 13
_TAG_BACKWARD = 201
_W_BLOCK = 256  # times per block of w_stats' w4 windows; bounds their memory at long paths
_U_BLOCK = 8  # times per uniforms call of a backward loop; bounds the block's memory

MAX_EXACT_ASSIGNMENT = 4096
# _line_hub_coupling's certificate: this margin, while 2n (span + 1) <= this scale
_SORTED_MARGIN = 2.0**-20
_SORTED_SCALE = 2.0**28


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Kernel + link + environment; the complete recursion specification."""

    kernel: KernelSpec
    link: LinkSpec
    covariates: CovariateProcessSpec

    def __post_init__(self):
        if self.link.order != self.kernel.moment_order:
            raise UnsupportedCombination(
                f"link order {self.link.order} incompatible with "
                f"{self.kernel.family} (needs {self.kernel.moment_order})"
            )
        table = links_mod.category_table(self.link)
        if self.kernel.state_dim > 1 or self.kernel.family == "multinomial":
            if table is None:
                raise UnsupportedCombination("multinomial kernels need a category-table link")
            if table.n_categories != self.kernel.n_categories:
                raise UnsupportedCombination("category table width must match the kernel")
            if table.array.shape[0] != self.kernel.state_dim:
                raise UnsupportedCombination("category table height must match the state dimension")
        elif table is not None:
            raise UnsupportedCombination("category-table links require a multinomial kernel")
        d = self.covariates.dimension
        for m in links_mod.coefficient_maps(self.link):
            if isinstance(m, (AffineAbsMap, ExpAffineMap)) and len(m.c1) not in (1, d):
                raise InvalidSpec(f"{m.tag[1]} map has {len(m.c1)} slopes c1 for a {d}-d covariate: give 1 or {d}")

    @property
    def norm(self) -> str:
        """The state norm, fixed by the kernel: "abs", or "inf" for vector states."""
        return self.kernel.state_norm

    def start_state(self):
        if self.kernel.state_dim > 1:
            return np.zeros(self.kernel.state_dim)
        floor = self.kernel.domain_floor()
        return 0.0 if floor is None else float(floor)

    def to_dict(self):
        return {**_codec.to_dict(self), "norm": self.norm}


def model_from_dict(d: dict) -> ModelSpec:
    """The model of a manifest's model object, read by ``_codec``; an optional "norm" key
    must name the kernel's state norm."""
    model = _codec.from_dict(ModelSpec, {k: v for k, v in d.items() if k != "norm"}
                             if isinstance(d, dict) else d, "model")
    if d.get("norm", model.norm) != model.norm:
        raise InvalidSpec(f"norm {d['norm']!r} does not match the {model.kernel.family} state norm "
                          f"{model.norm!r}")
    return model


def _check_state(model: ModelSpec, s, where: str, t=None, previous=None, y=None):
    """Raise StateOverflow for a non-finite state, DomainViolation for one outside the domain;
    the text of ``where`` ({t}: the time index) and a batch's failing replica are found only then."""
    kernel = model.kernel
    if kernel.domain_contains(s):
        return
    overflow = not np.all(np.isfinite(s))
    replica = None
    if np.ndim(s) > (kernel.state_dim > 1):
        inside = (lambda r: np.all(np.isfinite(r))) if overflow else kernel.domain_contains
        replica = next(i for i, r in enumerate(s) if not inside(r))
        s, previous, y = (v[replica] if np.ndim(v) else v for v in (s, previous, y))
    what = "state overflowed float64" if overflow else f"state left the {kernel.family} domain"
    raise (StateOverflow if overflow else DomainViolation)(
        f"{where.format(t=t)}: {what}", t, replica, previous, y, s)


def _step(model: ModelSpec, row, s, y, where: str, t: int):
    """One step of one chain's float or vector state from a coefficient-table row, then the
    domain check."""
    if type(s) is float:  # one table row; the float step never warns
        new = links_mod.float_step(model.link)(row, s, y)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_state
            new = links_mod.step(model.link, row, s, y)
    _check_state(model, new, where, t, s, y)
    return new


def _start_states(model: ModelSpec, starts, where: str, replicas: int | None = None) -> list:
    """Each start of one chain or a pair as a float or a (state_dim,) vector, or with ``replicas``
    as that many copies (a measure's points are a batch as they are), checked by ``_check_state``
    with t=None, the second with " (prime)"; a start of the wrong shape raises InvalidSpec."""
    shape, out = (model.kernel.state_dim,) if model.kernel.state_dim > 1 else (), []
    for s0, name in zip(starts, (where, where + " (prime)")):
        batch = isinstance(s0, EmpiricalMeasure)
        s = s0.points if batch else s0
        try:
            if np.shape(s)[1 if batch else 0:] != shape:
                raise ValueError
            s = s if batch else np.array(s, dtype=float) if shape else float(s)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the floats
            raise InvalidSpec(f"{name} must be {f'{shape[0]} numbers' if shape else 'a number'}; "
                              f"got {s0!r:.80}") from None
        if replicas is not None:
            s = np.tile(s, (replicas, 1)) if shape else np.full(replicas, s)
        _check_state(model, s, name)
        out.append(s)
    return out


def _forward_steps(model: ModelSpec, starts, path: CovariatePath, rng):
    """Step one chain, or a maximally coupled pair, along the path with the generator rng;
    returns the histories (lam, y, lam', y', met), the primed ones a copy for one chain.
    A pair draws one ``couple_batch`` pair per step (one shared ``sample`` at distance 0)
    until its two states have the same bits; from then on, and from the start for one chain,
    it is glued: one chain, whose draws are the family's ``_chain_draws`` (one ``kernel._noise``
    call where the words do not depend on the state).  Both phases step a scalar state by the
    link's ``float_step`` and keep it while lo <= new < inf, lo the family's ``domain_lower``;
    a vector state, or one outside, steps by ``_step``, which raises for the latter."""
    kernel, n, t0 = model.kernel, len(path), path.t_min
    lam, lamp = _start_states(model, (starts * 2)[:2], "initial state")  # a lone chain is a glued pair
    rows = zip(*coefficient_table(model.link, path.values).T.tolist())
    fstep = links_mod.float_step(model.link) if kernel.state_dim == 1 else None  # None: a vector state
    lo, inf = kernel.domain_lower, math.inf

    def advance(row, s, y, where, t):  # the glued loop below inlines it
        if fstep is None or not lo <= (new := fstep(row, s, y)) < inf:  # a vector state, or a failure
            new = _step(model, row, s, y, where, t)
        return new

    lam_h, y_h, lamp_h, yp_h, met_h = [], [], [], [], np.ones(n, dtype=bool)
    while (i := len(lam_h)) < n and np.asarray(lam).tobytes() != np.asarray(lamp).tobytes():
        row = next(rows)
        lam_h.append(lam)
        lamp_h.append(lamp)
        if kernel.state_distance(lam, lamp) == 0.0:  # +0.0 and -0.0
            y = yp = kernel.sample(lam, rng)
        else:
            (y,), (yp,), (met_h[i],) = kernel.couple_batch(lam, lamp, 1, rng)
        y_h.append(y)
        yp_h.append(yp)
        lam = advance(row, lam, y, "step t={t}", t0 + i)
        lamp = advance(row, lamp, yp, "step t={t} (prime)", t0 + i)
    draw, words = kernel._chain_draws(n - i, rng)
    for row, w in zip(rows, words):
        lam_h.append(lam)
        y_h.append(y := draw(lam, w))
        if fstep is None or not lo <= (lam := fstep(row, lam, y)) < inf:
            lam = _step(model, row, lam_h[-1], y, "step t={t}", t0 + len(lam_h) - 1)
    lam_h, y_h = np.array(lam_h, dtype=float), np.array(y_h, dtype=float)
    pair, lamp_h, yp_h = (lamp_h, yp_h), lam_h.copy(), y_h.copy()  # the glued tail is one chain
    if i:
        lamp_h[:i], yp_h[:i] = pair
    return lam_h, y_h, lamp_h, yp_h, met_h


# ---------------------------------------------------------------------------
# forward simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    t_min: int
    t_max: int
    x: np.ndarray        # (n, d)
    lam: np.ndarray      # (n,) or (n, state_dim)
    y: np.ndarray        # (n,)
    seed: int

    def __len__(self):
        return self.t_max - self.t_min + 1

    @property
    def times(self):
        return np.arange(self.t_min, self.t_max + 1)

    def to_csv(self, fileobj):
        write_csv(fileobj, [("t", self.times), ("x", self.x), ("lambda", self.lam), ("y", self.y)])


def simulate(model: ModelSpec, s0, t_min: int, t_max: int, seed: int) -> Trajectory:
    """Run the recursion forward on [t_min, t_max]; deterministic in seed.

    The environment path comes from the seed's environment sub-stream, the
    observations from a sequential sub-stream; lambda is recorded before
    the observation at each time, so lam[t+1] = f(lam[t], y[t], x[t]).
    """
    if t_max < t_min:
        raise EmptyRange(f"empty range [{t_min}, {t_max}]")
    path = generate_path(model.covariates, t_min, t_max, split_seed(seed, _SEED_ENV))
    lam, y, *_ = _forward_steps(model, (s0,), path, generator(seed, _SEED_OBS))
    return Trajectory(t_min, t_max, path.values, lam, y, seed)


# ---------------------------------------------------------------------------
# maximal coupling of two chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingTrace:
    t_min: int
    t_max: int
    lam: np.ndarray
    lam_prime: np.ndarray
    y: np.ndarray
    y_prime: np.ndarray
    met: np.ndarray            # bool per step
    meet_time: int | None      # first T with agreement through the horizon
    censored: bool             # True when no such T was observed
    lambda_gap_sum: float      # sum of state gaps from meet_time on
    seed: int

    @property
    def times(self):
        return np.arange(self.t_min, self.t_max + 1)

    def gap(self) -> np.ndarray:
        """Per-step state gap; the sup-norm across coordinates for vector states."""
        return state_distance(self.lam, self.lam_prime, self.lam.ndim > 1)

    def to_csv(self, fileobj, x_values: np.ndarray | None = None):
        xcols = [] if x_values is None else [("x", x_values)]
        write_csv(fileobj, [("t", self.times), *xcols, ("lambda", self.lam), ("y", self.y),
                            ("lambda_prime", self.lam_prime), ("y_prime", self.y_prime), ("met", self.met)])


def couple_forward(model: ModelSpec, s0, s0_prime, path: CovariatePath, seed: int) -> CouplingTrace:
    """Advance two chains through the same environment under maximal coupling.

    At each step the observation pair is drawn so that disagreement happens
    with exactly the total-variation probability at the current state pair;
    both chains then move through the shared link and covariate.  Identical
    states take a glued fast path (zero TV keeps the chains together).
    """
    lam_h, y_h, lamp_h, yp_h, met_h = _forward_steps(model, (s0, s0_prime), path, generator(seed, _SEED_COUPLE))
    # first time from which every recorded draw agreed; unmet residual
    # draws come from disjoint supports, so met is equivalent to Y-equality
    not_met = np.flatnonzero(~met_h)
    meet_idx = int(not_met[-1]) + 1 if len(not_met) else 0
    if meet_idx == len(path):  # the last draw disagreed
        meet_time, censored, gap_sum = None, True, float("nan")
    else:
        meet_time, censored = path.t_min + meet_idx, False
        gap_sum = float(model.kernel.state_distance(lam_h[meet_idx:], lamp_h[meet_idx:]).sum())
    return CouplingTrace(
        path.t_min, path.t_max, lam_h, lamp_h, y_h, yp_h, met_h,
        meet_time, censored, gap_sum, seed,
    )


# ---------------------------------------------------------------------------
# empirical measures and backward iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted sample approximation of a backward law."""

    points: np.ndarray  # (n,) scalar or (n, dim) vector states
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise InvalidSpec("empirical measure must be nonempty")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def to_csv(self, fileobj):
        write_csv(fileobj, [("point", self.points)])


def _obs_stream(seed: int, replicas: int) -> IndexedStream:
    return IndexedStream(split_seed(seed, _SEED_OBS), _TAG_BACKWARD, replicas)


def _refuse_small_run(where: str, n: int, replicas: int):
    if n < 1:
        raise InvalidSpec(f"{where} needs n >= 1")
    if replicas < 100:
        raise InvalidSpec(f"{where} needs replicas >= 100")


def _backward_steps(model: ModelSpec, starts, replicas: int | None, t_start: int, t_end: int,
                    path: CovariatePath, seed: int, where: str):
    """Step one chain's batch, or a pair's, from t_start to t_end along the path: yields
    (None, None, lam) for the start (``_start_states``), then (row, y, lam) per time.

    Each time t draws y by inverse transform from the per-(t, replica) uniforms,
    fetched ``_U_BLOCK`` times per call (counter addressing makes each row the one
    ``stream.uniforms(t, 1)`` would give); a pair stacks its two batches, which share
    every uniform (copied twice into one buffer), and steps them as one.  The family's
    ``sample_inverse`` (read on its class), the link's ``batch_step`` and the kernel's
    ``domain_contains`` are fixed once per run; a batch outside the domain is reported by
    ``_check_state``, a pair's main half first, then its " (prime)" half.
    """
    kernel, halves = model.kernel, len(starts)
    lam = np.concatenate(_start_states(model, starts, "start state", replicas))
    yield None, None, lam
    if path.t_min > t_start or path.t_max < t_end - 1:
        raise PathTooShort(f"path [{path.t_min}, {path.t_max}] does not cover [{t_start}, {t_end - 1}]")
    m = len(lam) // halves
    stream = _obs_stream(seed, m)
    blocks = (stream.uniforms(t, min(_U_BLOCK, t_end - t)) for t in range(t_start, t_end, _U_BLOCK))
    draw, fstep, contains = type(kernel).sample_inverse, links_mod.batch_step(model.link), kernel.domain_contains
    shared = np.empty(len(lam)) if halves == 2 else None  # a pair's uniforms, u twice
    for t, row, u in zip(range(t_start, t_end), coefficient_table(model.link, path.window(t_start, t_end - 1)),
                         itertools.chain.from_iterable(blocks)):
        if shared is not None:
            shared[:m] = shared[m:] = u
            u = shared
        y = draw(kernel, lam, u)
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_state
            new = fstep(row, lam, y)
        if not contains(new):
            for h, name in enumerate((where, where + " (prime)")[:halves]):
                half = slice(h * m, (h + 1) * m)
                _check_state(model, new[half], name, t, lam[half], y[half])
        lam = new
        yield row, y, lam


def backward_measure(
    model: ModelSpec, s0, n: int, path: CovariatePath, replicas: int, seed: int,
    t_end: int = 0,
) -> EmpiricalMeasure:
    """Empirical law of the state at t_end after n backward-started steps.

    Every replica starts at s0 at time t_end - n and runs to t_end along
    the fixed path.  Observations are drawn by inverse transform from
    per-(time, replica) uniforms, so runs sharing a seed are coupled on
    common time indices regardless of n or s0.
    """
    _refuse_small_run("backward_measure", n, replicas)
    (_, _, lam), = deque(_backward_steps(model, (s0,), replicas, t_end - n, t_end, path, seed,
                                         "backward step t={t}"), maxlen=1)
    meta = {
        "n_backward": n, "t_end": t_end, "replicas": replicas, "seed": seed,
        "start_state": np.asarray(s0).tolist() if model.kernel.state_dim > 1 else float(s0),
        "path_hash": path.spec_hash,
    }
    return EmpiricalMeasure(lam, meta)


def coupled_backward_cost(
    model: ModelSpec, s0, s0_prime, n: int, path: CovariatePath, replicas: int, seed: int,
) -> float:
    """Transport cost of the synchronized coupling of two backward runs from -n to 0.

    Both chains consume the same per-(time, replica) uniforms, as one
    stacked batch of 2 * replicas states; their state gap is propagated
    multiplicatively through the link's exact state coefficient whenever
    the coupled observations agree, so separations stay representable far
    below the resolution of the states themselves.
    The mean of min(gap, 1) is the cost of an explicit coupling of the two
    backward laws and hence an upper bound for their W1 distance.  States
    are checked at the start and at every step as in ``backward_measure``:
    StateOverflow for a non-finite one, DomainViolation for one outside the domain.
    """
    if model.kernel.state_dim > 1:
        raise InvalidSpec("gap tracking is defined for scalar-state models")
    _refuse_small_run("coupled_backward_cost", n, replicas)
    link, floor = model.link, model.link.floor
    steps = _backward_steps(model, (s0, s0_prime), replicas, -n, 0, path, seed,
                            "coupled backward step t={t}")
    _, _, lam = next(steps)  # the main chain, then the prime one
    gap = np.abs(lam[replicas:] - lam[:replicas])
    for row, y, lam in steps:
        y, yp, main, prime = y[:replicas], y[replicas:], lam[:replicas], lam[replicas:]
        mult = y == yp
        if floor is not None:
            mult &= (main > floor) & (prime > floor)
        # multiplied only where mult, so a replica whose gap is not kept cannot overflow
        coef = np.abs(links_mod.state_multiplier(link, row, y))  # one scalar unless it depends on y
        gap = np.multiply(coef, gap, out=np.abs(prime - main), where=mult)
    return float(np.minimum(gap, 1.0).mean())


def push_measure(
    model: ModelSpec, measure: EmpiricalMeasure, path: CovariatePath, t: int, seed: int
) -> EmpiricalMeasure:
    """Push an empirical law one step through the random kernel at time t.

    Uses the same per-(time, replica) uniforms as a backward run with this
    seed would use at index t, so pushed and directly-computed measures
    stay coupled.  Its points are checked as a start state.
    """
    *_, (_, _, lam) = _backward_steps(model, (measure,), None, t, t + 1, path, seed, "push step t={t}")
    meta = dict(measure.meta)
    meta["t_end"] = t + 1
    meta["pushed"] = True
    return EmpiricalMeasure(lam, meta)


# ---------------------------------------------------------------------------
# Wasserstein-1 under the truncated metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class W1Result:
    value: float
    n_used: int

    def __float__(self):
        return self.value


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(sup_j |a_j - b_j|, 1) for every pair, one coordinate at a time (no n x n x d array).
    A gap past the float range is inf, which costs 1: no overflow warning."""
    c = np.zeros((len(a), len(b)))
    with np.errstate(over="ignore"):
        for aj, bj in zip(a.reshape(len(a), -1).T, b.reshape(len(b), -1).T):
            np.maximum(c, np.abs(aj[:, None] - bj[None, :]), out=c)
    return np.minimum(c, 1.0, out=c)


def _assignment_cost(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment  # first use only: vector states alone get here
    c = _cost_matrix(a, b)
    r, col = linear_sum_assignment(c)
    # exactly-rounded sum: optimal assignments tied in exact arithmetic
    # (common for collinear transport) then report identical costs
    return math.fsum(c[r, col]) / len(a)


def _line_hub_coupling(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal coupling of scalar point sets under min(|s-s'|, 1), as index pairs.

    min(|s-s'|, 1) is the shortest-path metric of the line plus a hub at
    distance 1/2 from every point, so W1 is a min-cost flow along the merged
    sorted points: a gap of length L carrying flow f costs L|f|, and each
    a-point adds 1 to f or goes to the hub at cost 1/2 (each b-point
    subtracts 1 or comes from the hub).  The sorted coupling uses no hub,
    with f_g = #a - #b up to gap g; as |f| is convex, it is optimal iff no
    cycle "a-point i -> hub -> b-point j -> line back to i" costs below 0.
    A cycle costs 1 plus its line part, where a gap crossed rightward costs
    +L if f_g >= 0, else -L, and leftward +L if f_g <= 0, else -L.  Two
    running maxima of these signed sums check every cycle against the margin
    ``_SORTED_MARGIN``.  A running sum of m = 2n gaps rounds by at most m
    2**-53 span, so while m (span + 1) <= ``_SORTED_SCALE`` the check and
    the pass err by at most 2**-23: every hub-using flow then costs at least
    2**-21 more, the pass would mark no hub point, and the sorted pairs are
    its pairs.  Otherwise ``_slope_trick_pass`` solves the flow.
    """
    n = len(a)
    pts = np.concatenate([a, b])
    order = np.argsort(pts, kind="stable")
    z, from_a = pts[order], order < n
    if 2 * n * (float(z[-1]) - float(z[0]) + 1.0) <= _SORTED_SCALE:  # Python floats: no overflow warning
        gap = np.diff(z)
        f = np.cumsum(np.where(from_a, 1, -1))[:-1]  # the sorted flow across each gap
        right = np.concatenate(([0.0], np.cumsum(np.where(f >= 0, gap, -gap))))
        left = np.concatenate(([0.0], np.cumsum(np.where(f <= 0, gap, -gap))))
        b_max = np.maximum.accumulate(np.where(from_a, -np.inf, right))  # over the b-points so far
        a_max = np.maximum.accumulate(np.where(from_a, left, -np.inf))
        if max((b_max - right)[from_a].max(), (a_max - left)[~from_a].max()) < 1.0 - _SORTED_MARGIN:
            return order[from_a], order[~from_a] - n
    return _slope_trick_pass(z, from_a, order, n)


def _slope_trick_pass(z: np.ndarray, from_a: np.ndarray, order: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flow of ``_line_hub_coupling`` by one pass over ``z = pts[order]``, ``from_a = order < n``.

    The value function V(f) stays convex, so it is kept as its sorted slope
    sequence (the "slope trick"): an a-point inserts the slope -1/2, a
    b-point +1/2, and a gap moves the slopes left of f = 0 down by L and
    those right of it up by L.  A slope enters the left side at most +1/2
    and then only falls; one enters the right side at least -1/2 and then
    only rises; and a slope crosses sides only from within [-1/2, 1/2].  So
    only the slopes in [-1/2, 1/2] are kept, one deque per side: insertions
    land at its ends and slopes leave it at its ends, so the pass after the
    sort is amortized O(n).  The number of slopes below -1/2 (all on the
    left) and above +1/2 (all on the right) then follows from the deque
    sizes, and gives where the slope crosses -1/2 (resp. +1/2), which
    decides hub or line for each point and flow; backtracking from f = 0
    marks the hub points.  The line points pair in sorted order (their cost
    is then the sum of L|f|), and so do the hub points, each such pair being
    at distance >= 1.  Slopes are stored against the position where they
    entered their side (left: v + z, right: v - z, with z measured from the
    smallest point), so no lazy offset accumulates rounding.
    """
    with np.errstate(over="ignore"):  # a span past the float range: its inf gaps cost 1, as min(|.|, 1) says
        zs, a_list = (z - z[0]).tolist(), from_a.tolist()
    # slopes of V in [-1/2, 1/2] on f <= 0 (left) and on f >= 0 (right), in
    # increasing order; at position z the actual slope is key - z on the
    # left and key + z on the right
    left, right = deque(), deque()
    cross = [0] * len(zs)
    for k, (z, is_a) in enumerate(zip(zs, a_list)):
        lo, hi = z - 0.5, 0.5 - z  # keys of -1/2 on the left, +1/2 on the right
        while left and left[0] < lo:
            left.popleft()
        while right and right[-1] > hi:
            right.pop()
        if is_a:
            # the a-point goes to the hub iff the flow after it is <= cross,
            # the start of V's domain plus its slopes below -1/2
            cross[k] = -len(left)
            # insert -1/2; the right side grows, taking the left maximum
            # when that exceeds -1/2
            if left and left[-1] > lo:
                right.appendleft(left.pop() - 2 * z)
                left.appendleft(lo)
            else:
                right.appendleft(-0.5 - z)
        else:
            # the b-point comes from the hub iff the flow after it is >= cross,
            # the start of V's domain plus its slopes up to +1/2
            cross[k] = len(right)
            # insert +1/2; the left side grows, taking the right minimum
            # when that is below +1/2
            if right and right[0] < hi:
                left.append(right.popleft() + 2 * z)
                right.append(hi)
            else:
                left.append(z + 0.5)
    hub = [False] * len(zs)
    f = 0
    for k in range(len(zs) - 1, -1, -1):
        if a_list[k]:
            if f <= cross[k]:
                hub[k] = True
            else:
                f -= 1
        elif f >= cross[k]:
            hub[k] = True
        else:
            f += 1
    hub = np.array(hub)
    ia = np.concatenate([order[from_a & ~hub], order[from_a & hub]])
    ib = np.concatenate([order[~from_a & ~hub], order[~from_a & hub]]) - n
    return ia, ib


def wasserstein1(mu, nu) -> W1Result:
    """Exact W1 under min(|s-s'|, 1) between two uniform empirical measures.

    Scalar states are solved at any size from one sort of the merged points
    (``_line_hub_coupling``), in O(n log n) time and O(n) memory: the sorted
    coupling where a certificate proves it optimal with a margin, else a
    slope-trick pass.  Vector states (sup-norm) use an assignment solve on
    the full cost matrix, up to ``MAX_EXACT_ASSIGNMENT`` points; more raise
    ``InvalidSpec``.  Either way the value is the exactly-rounded sum of the
    optimal coupling's costs.  NaN or infinite points, and an empty measure,
    raise ``InvalidSpec``; measures of different sizes or state spaces raise
    ``SizeMismatch``.
    """
    a = mu.points if isinstance(mu, EmpiricalMeasure) else np.asarray(mu, dtype=float)
    b = nu.points if isinstance(nu, EmpiricalMeasure) else np.asarray(nu, dtype=float)
    if (a.ndim == 1) != (b.ndim == 1) or (a.ndim > 1 and a.shape[1] != b.shape[1]):
        raise SizeMismatch("measures live in different state spaces")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidSpec("W1 needs finite points; got NaN or infinite states")
    if len(a) == 0 or len(b) == 0:
        raise InvalidSpec("W1 needs at least one point in each measure")
    if len(a) != len(b):
        raise SizeMismatch(f"point counts differ ({len(a)} vs {len(b)})")
    n = len(a)
    if a.ndim == 1:
        ia, ib = _line_hub_coupling(a, b)
        with np.errstate(over="ignore"):  # an inf distance is clipped to 1
            return W1Result(math.fsum(np.minimum(np.abs(a[ia] - b[ib]), 1.0)) / n, n)
    if n > MAX_EXACT_ASSIGNMENT:
        raise InvalidSpec(f"vector-state W1 is solved exactly up to {MAX_EXACT_ASSIGNMENT} points; got {n}")
    return W1Result(_assignment_cost(a, b), n)


# ---------------------------------------------------------------------------
# stationary sampling by doubling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryResult:
    measure: EmpiricalMeasure
    converged: bool
    achieved_gap: float
    n_final: int
    history: tuple[tuple[int, float], ...]  # (n, gap to the n/2 measure)
    reason: str  # "tolerance", "max_n", or the overflow that ended the doubling

    def to_dict(self):
        return {
            "converged": self.converged,
            # None when no doubling finished (the first one overflowed)
            "achieved_gap": self.achieved_gap if math.isfinite(self.achieved_gap) else None,
            "n_final": self.n_final,
            "history": [[n, g] for n, g in self.history],
            "reason": self.reason,
        }


def stationary_sampler(
    model: ModelSpec, tol: float, max_n: int, replicas: int, seed: int, s0=None
) -> StationaryResult:
    """Approximate the quenched stationary law at time 0 by backward doubling.

    Doubles the backward horizon from 25 along one environment path, each
    run of n steps generating only [-n, -1] (counter-based streams make it
    the suffix of every longer run's path, so no run reads more), until
    consecutive measures are within ``tol`` in W1 (reason ``"tolerance"``).
    Vector states with more than ``MAX_EXACT_ASSIGNMENT`` replicas, which
    W1 refuses, are refused before any run.  Non-convergence returns the last measure with a
    diagnostic rather than raising: ``converged=False`` with reason
    ``"max_n"`` when the budget runs out, or with the overflow message
    (the doubled n and the time index) when a doubled run overflows
    float64, in which case the last finite measure, its n and its gap are
    returned.  Two cases still raise ``DomainViolation``: a finite state
    outside the kernel's domain (a model error), and an overflow in the
    first run (n = 25), which leaves no finite measure to return.
    """
    if not tol > 0:  # NaN too
        raise InvalidSpec("tol must be positive")
    # NaN, inf and ints beyond the float range fail the bounds, before max_n / 25 is taken
    if not 50 <= max_n <= float(np.finfo(float).max) or abs((k := max_n / 25.0) - 2 ** round(math.log2(k))) > 1e-9:
        raise InvalidSpec("max_n must be 25 times a power of 2, at least 50")
    if model.kernel.state_dim > 1 and replicas > MAX_EXACT_ASSIGNMENT:
        raise InvalidSpec(f"vector-state W1 is solved exactly up to {MAX_EXACT_ASSIGNMENT} replicas; "
                          f"got {replicas}")
    s0 = model.start_state() if s0 is None else s0
    # a run of n steps generates [-n, -1] alone: counter addressing makes it every longer run's suffix
    path = functools.partial(generate_path, model.covariates, t_max=-1, seed=split_seed(seed, _SEED_ENV))
    n, history, reason = 25, [], "max_n"
    mu = backward_measure(model, s0, n, path(-n), replicas, seed)
    while 2 * n <= max_n:
        m = 2 * n
        try:
            mu2 = backward_measure(model, s0, m, path(-m), replicas, seed)
        except StateOverflow as e:
            reason = f"overflow at n={m}: {e}"
            break
        gap = wasserstein1(mu, mu2).value
        history.append((m, gap))
        if gap < tol:
            return StationaryResult(mu2, True, gap, m, tuple(history), "tolerance")
        n, mu = m, mu2
    gap = history[-1][1] if history else math.inf
    return StationaryResult(mu, False, gap, n, tuple(history), reason)


# ---------------------------------------------------------------------------
# environment control statistics and regeneration times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WStats:
    """Truncated drift/contraction statistics of the environment path.

    w1: delta_{t-1} + sum_i gamma_{t-1}...gamma_{t-i} delta_{t-i-1}
    w2/w3: sup over j in [h, H] of the backward gamma/kappa products
    w4: sum over s in [0, H] of phi(kappa_{t+s}...kappa_t)
    """

    times: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    h: int
    H: int

    def __len__(self):
        return len(self.times)

    def to_csv(self, fileobj):
        write_csv(fileobj, [("t", self.times)] + [(w, getattr(self, w)) for w in ("w1", "w2", "w3", "w4")])


def w_stats(
    model: ModelSpec, path: CovariatePath, h: int, H: int,
    gamma_map=None, delta_map=None, kappa_map=None, phi: PhiSpec | None = None,
) -> WStats:
    """Evaluate the four control statistics at every interior time of the path.

    gamma/delta default to the drift certificate of the model's growth
    envelope, kappa to the exact link contraction, phi to the kernel rate.
    w1..w3 come from one pass over the lags in O(m) memory for m times; only w4
    runs in blocks of _W_BLOCK times, as numpy sums its rows pairwise.
    """
    if not 1 <= h <= H:
        raise InvalidSpec("need 1 <= h <= H")
    if kappa_map is None:
        kappa_map = contraction_map(model.link)
    if phi is None:
        phi = model.kernel.phi()
    if gamma_map is None or delta_map is None:
        from .verify import drift_certificate

        g, d = drift_certificate(model)
        gamma_map = gamma_map or g
        delta_map = delta_map or d
    t_lo = path.t_min + H + 1
    t_hi = path.t_max - H
    if t_hi < t_lo:
        raise PathTooShort(f"path of length {len(path)} too short for H={H}")
    kappa = np.asarray(kappa_map.evaluate(path.values), dtype=float)
    gamma = np.asarray(gamma_map.evaluate(path.values), dtype=float)
    delta = np.asarray(delta_map.evaluate(path.values), dtype=float)

    times = np.arange(t_lo, t_hi + 1)
    m = len(times)
    # lag k reads index H + 1 - k + j for time t_lo + j: the products grow as per-time
    # cumprods do, and w1 adds its lag terms in lag order from +0.0 (all -0.0 give +0.0)
    cpg = np.ones(m); cpk = np.ones(m); acc = np.zeros(m); term = np.empty(m)
    w2 = np.full(m, -np.inf); w3 = np.full(m, -np.inf)
    for k in range(1, H + 1):
        cpg *= gamma[H + 1 - k: H + 1 - k + m]
        cpk *= kappa[H + 1 - k: H + 1 - k + m]
        acc += np.multiply(cpg, delta[H - k: H - k + m], out=term)
        if k >= h:
            np.maximum(w2, cpg, out=w2); np.maximum(w3, cpk, out=w3)
    w1 = delta[H: H + m] + acc
    fwin = sliding_window_view(kappa, H + 1)[H + 1:]  # row j: kappa_t .. kappa_{t+H}
    w4 = np.concatenate([phi.evaluate(np.cumprod(fwin[lo: lo + _W_BLOCK], axis=1)).sum(axis=1)
                         for lo in range(0, m, _W_BLOCK)])
    return WStats(times, w1, w2, w3, w4, h, H)


@dataclass(frozen=True)
class RegenerationResult:
    times: np.ndarray       # accepted times, spacing > h
    m_counts: np.ndarray    # number of accepted times <= t, aligned with stats.times
    C: float
    h: int
    smallest_admitting_C: float | None  # set when times is empty

    def __len__(self):
        return len(self.times)

    def to_dict(self):
        return {
            "times": self.times.tolist(),
            "C": self.C,
            "h": self.h,
            "count": int(len(self.times)),
            "smallest_admitting_C": self.smallest_admitting_C,
        }


def _passes_thresholds(stats: WStats, C: float) -> np.ndarray:
    """Per time: w1 <= C, w2 and w3 <= 1 - 1/C, and w4 <= C."""
    return (stats.w1 <= C) & (stats.w2 <= 1 - 1 / C) & (stats.w3 <= 1 - 1 / C) & (stats.w4 <= C)


def regeneration_times(stats: WStats, C: float, h: int | None = None) -> RegenerationResult:
    """Greedy scan for times passing all four thresholds with spacing > h.

    m_counts[i] counts accepted times up to stats.times[i] inclusive.  An
    empty outcome reports the smallest C that would admit at least one time.
    """
    if C <= 1:
        raise InvalidSpec("threshold constant C must exceed 1")
    if h is None:
        h = stats.h
    ok = _passes_thresholds(stats, C)
    accepted = []
    for t in stats.times[ok].tolist():
        if not accepted or t - accepted[-1] > h:
            accepted.append(t)
    accepted = np.asarray(accepted, dtype=np.int64)
    m_counts = np.searchsorted(accepted, stats.times, side="right")
    smallest = None
    if len(accepted) == 0:
        with np.errstate(divide="ignore"):
            need = np.maximum.reduce([
                stats.w1, stats.w4,
                np.where(stats.w2 < 1, 1.0 / (1.0 - stats.w2), np.inf),
                np.where(stats.w3 < 1, 1.0 / (1.0 - stats.w3), np.inf),
            ])
        m = float(np.min(need))
        smallest = None if math.isinf(m) else max(m, 1.0 + 1e-9)
    return RegenerationResult(accepted, m_counts, C, h, smallest)


def calibrate_regeneration(model: ModelSpec, path: CovariatePath, H: int) -> tuple[WStats, float, int]:
    """Pick (h, C) on a pilot path: the smallest h up to 50 admitting any time, then the
    smallest C of 2, 4, .., 1024 whose acceptance frequency reaches 1%."""
    if H < 1:
        raise InvalidSpec("need 1 <= h <= H")
    for h in range(1, min(50, H) + 1):
        stats = w_stats(model, path, h, H)
        for C in 2.0 ** np.arange(1, 11):
            if _passes_thresholds(stats, C).mean() >= 0.01:
                return stats, float(C), h
    raise InvalidSpec("no (C, h) in the calibration grid admits regeneration times")
