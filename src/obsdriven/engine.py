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
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import linear_sum_assignment

from . import links as links_mod
from .covariates import CovariatePath, CovariateProcessSpec, generate_path, write_csv
from .errors import (
    DomainViolation,
    EmptyRange,
    InvalidSpec,
    PathTooShort,
    SizeMismatch,
    StateOverflow,
    UnsupportedCombination,
)
from .kernels import ObservationKernel, PhiSpec, state_distance
# every loop steps a coefficient table; link_apply stays importable for callers that patch it
from .links import LinkSpec, apply as link_apply, coefficient_table, contraction_map
from .rngstream import IndexedStream, generator, split_seed

_SEED_ENV = 11
_SEED_OBS = 12
_SEED_COUPLE = 13
_TAG_BACKWARD = 201
_W_BLOCK = 256  # times per block of w_stats windows; bounds their memory at long paths

MAX_EXACT_ASSIGNMENT = 4096


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Kernel + link + environment; the complete recursion specification."""

    kernel: ObservationKernel
    link: LinkSpec
    covariates: CovariateProcessSpec
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise InvalidSpec("alpha must lie in (0, 1]")
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
        return {
            "kernel": self.kernel.to_dict(),
            "link": self.link.to_dict(),
            "covariates": self.covariates.to_dict(),
            "alpha": self.alpha,
            "norm": self.norm,
        }


def model_from_dict(d: dict) -> ModelSpec:
    from .covariates import spec_from_dict
    from .kernels import kernel_from_dict
    from .links import link_from_dict

    kernel = kernel_from_dict(d["kernel"])
    if d.get("norm", kernel.state_norm) != kernel.state_norm:
        raise InvalidSpec(f"norm {d['norm']!r} does not match the {kernel.family} state norm "
                          f"{kernel.state_norm!r}")
    return ModelSpec(kernel, link_from_dict(d["link"]), spec_from_dict(d["covariates"]), d.get("alpha", 1.0))


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
    """One step of the recursion from a coefficient-table row, then the domain check."""
    if type(s) is float and type(row) is list:  # links.step on Python floats never warns
        new = links_mod.step(model.link, row, s, y)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_state
            new = links_mod.step(model.link, row, s, y)
    _check_state(model, new, where, t, s, y)
    return new


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
    rng = generator(seed, _SEED_OBS)
    n = t_max - t_min + 1
    vector = model.kernel.state_dim > 1
    lam = np.asarray(s0, dtype=float).copy() if vector else float(s0)
    _check_state(model, lam, "initial state")
    lam_hist = np.empty((n, model.kernel.state_dim)) if vector else np.empty(n)
    y_hist = np.empty(n)
    for i, row in enumerate(coefficient_table(model.link, path.values).tolist()):
        lam_hist[i] = lam
        y = model.kernel.sample(lam, rng)
        y_hist[i] = y
        lam = _step(model, row, lam, y, "step t={t}", t_min + i)
    return Trajectory(t_min, t_max, path.values, lam_hist, y_hist, seed)


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
    rng = generator(seed, _SEED_COUPLE)
    kernel, link = model.kernel, model.link
    n = len(path)
    vector = kernel.state_dim > 1
    lam = np.asarray(s0, dtype=float).copy() if vector else float(s0)
    lamp = np.asarray(s0_prime, dtype=float).copy() if vector else float(s0_prime)
    _check_state(model, lam, "initial state")
    _check_state(model, lamp, "initial state (prime)")
    shape = (n, kernel.state_dim) if vector else (n,)
    lam_h = np.empty(shape)
    lamp_h = np.empty(shape)
    y_h = np.empty(n)
    yp_h = np.empty(n)
    met_h = np.empty(n, dtype=bool)
    for i, row in enumerate(coefficient_table(link, path.values).tolist()):
        lam_h[i], lamp_h[i] = lam, lamp
        if kernel.state_distance(lam, lamp) == 0.0:
            y = kernel.sample(lam, rng)
            yp, met = y, True
        else:
            draw = kernel.maximal_couple(lam, lamp, rng)
            y, yp, met = draw.y, draw.y_prime, draw.met
        y_h[i], yp_h[i], met_h[i] = y, yp, met
        lam = _step(model, row, lam, y, "step t={t}", path.t_min + i)
        lamp = _step(model, row, lamp, yp, "step t={t} (prime)", path.t_min + i)
    # first time from which every recorded draw agreed; unmet residual
    # draws come from disjoint supports, so met is equivalent to Y-equality
    not_met = np.flatnonzero(~met_h)
    meet_idx = int(not_met[-1]) + 1 if len(not_met) else 0
    if meet_idx == n:  # the last draw disagreed
        meet_time, censored, gap_sum = None, True, float("nan")
    else:
        meet_time, censored = path.t_min + meet_idx, False
        gap_sum = float(kernel.state_distance(lam_h[meet_idx:], lamp_h[meet_idx:]).sum())
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
    if n < 1:
        raise InvalidSpec("backward_measure needs n >= 1")
    if replicas < 100:
        raise InvalidSpec("backward_measure needs replicas >= 100")
    t_start = t_end - n
    if path.t_min > t_start or path.t_max < t_end - 1:
        raise PathTooShort(
            f"path [{path.t_min}, {path.t_max}] does not cover [{t_start}, {t_end - 1}]"
        )
    kernel, link = model.kernel, model.link
    vector = kernel.state_dim > 1
    stream = _obs_stream(seed, replicas)
    if vector:
        lam = np.tile(np.asarray(s0, dtype=float), (replicas, 1))
    else:
        lam = np.full(replicas, float(s0))
    _check_state(model, lam, "start state")
    for t, row in zip(range(t_start, t_end), coefficient_table(link, path.window(t_start, t_end - 1))):
        u = stream.uniforms(t, 1)[0]
        y = kernel.sample_inverse(lam, u)
        lam = _step(model, row, lam, y, "backward step t={t}", t)
    meta = {
        "n_backward": n, "t_end": t_end, "replicas": replicas, "seed": seed,
        "start_state": np.asarray(s0).tolist() if vector else float(s0),
        "path_hash": path.spec_hash,
    }
    return EmpiricalMeasure(lam, meta)


def coupled_backward_cost(
    model: ModelSpec, s0, s0_prime, n: int, path: CovariatePath, replicas: int, seed: int,
    t_end: int = 0,
) -> float:
    """Transport cost of the synchronized coupling of two backward runs.

    Both chains consume the same per-(time, replica) uniforms; their state
    gap is propagated multiplicatively through the link's exact state
    coefficient whenever the coupled observations agree, so separations
    stay representable far below the resolution of the states themselves.
    The mean of min(gap, 1) is the cost of an explicit coupling of the two
    backward laws and hence an upper bound for their W1 distance.  States
    are checked at every step as in ``backward_measure``: StateOverflow
    for a non-finite one, DomainViolation for one outside the domain.
    """
    if model.kernel.state_dim > 1:
        raise InvalidSpec("gap tracking is defined for scalar-state models")
    if n < 1:
        raise InvalidSpec("need n >= 1")
    t_start = t_end - n
    if path.t_min > t_start or path.t_max < t_end - 1:
        raise PathTooShort("path does not cover the backward window")
    kernel, link = model.kernel, model.link
    stream = _obs_stream(seed, replicas)
    lam = np.full(replicas, float(s0))
    lamp = np.full(replicas, float(s0_prime))
    gap = np.full(replicas, abs(float(s0_prime) - float(s0)))
    floor = link.floor
    for t, row in zip(range(t_start, t_end), coefficient_table(link, path.window(t_start, t_end - 1))):
        u = stream.uniforms(t, 1)[0]
        y = np.asarray(kernel.sample_inverse(lam, u), dtype=float)
        yp = np.asarray(kernel.sample_inverse(lamp, u), dtype=float)
        lam_next = _step(model, row, lam, y, "coupled backward step t={t}", t)
        lamp_next = _step(model, row, lamp, yp, "coupled backward step t={t} (prime)", t)
        mult = y == yp
        if floor is not None:
            mult &= (lam_next > floor) & (lamp_next > floor)
        new_gap = np.abs(lamp_next - lam_next)
        if mult.any():
            coefs = np.abs(links_mod.state_multiplier(link, row, y))
            new_gap[mult] = coefs[mult] * gap[mult]
        lam, lamp, gap = lam_next, lamp_next, new_gap
    return float(np.minimum(gap, 1.0).mean())


def push_measure(
    model: ModelSpec, measure: EmpiricalMeasure, path: CovariatePath, t: int, seed: int
) -> EmpiricalMeasure:
    """Push an empirical law one step through the random kernel at time t.

    Uses the same per-(time, replica) uniforms as a backward run with this
    seed would use at index t, so pushed and directly-computed measures
    stay coupled.
    """
    replicas = len(measure)
    stream = _obs_stream(seed, replicas)
    u = stream.uniforms(t, 1)[0]
    y = model.kernel.sample_inverse(measure.points, u)
    row = coefficient_table(model.link, path.value_at(t))[0]
    lam = _step(model, row, measure.points, y, "push step t={t}", t)
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
    exact: bool                   # solved on the full point sets (always for scalar states)
    n_used: int
    bootstrap: bool = False
    spread: float = 0.0           # max-min over subsample draws when not exact

    def __float__(self):
        return self.value


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        c = np.abs(a[:, None] - b[None, :])
    else:
        c = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    return np.minimum(c, 1.0)


def _assignment_cost(a: np.ndarray, b: np.ndarray) -> float:
    c = _cost_matrix(a, b)
    r, col = linear_sum_assignment(c)
    # exactly-rounded sum: optimal assignments tied in exact arithmetic
    # (common for collinear transport) then report identical costs
    return math.fsum(c[r, col]) / len(a)


def _line_hub_coupling(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal coupling of scalar point sets under min(|s-s'|, 1), as index pairs.

    min(|s-s'|, 1) is the shortest-path metric of the line plus a hub at
    distance 1/2 from every point, so W1 is a min-cost flow along the
    merged sorted points: with f the flow along the line, a gap of length
    L costs L|f|, and each a-point either adds 1 to f or goes to the hub
    at cost 1/2 (each b-point subtracts 1 or comes from the hub); f starts
    and ends at 0.  The value function V(f) stays convex, so it is kept as
    its sorted slope sequence (the "slope trick"): an a-point inserts the
    slope -1/2, a b-point +1/2, and a gap moves the slopes left of f = 0
    down by L and those right of it up by L.  A slope enters the left side
    at most +1/2 and then only falls; one enters the right side at least
    -1/2 and then only rises; and a slope crosses sides only from within
    [-1/2, 1/2].  So only the slopes in [-1/2, 1/2] are kept, one deque per
    side: insertions land at its ends and slopes leave it at its ends, so
    the pass after the sort is amortized O(n).  The number of slopes below
    -1/2 (all on the left) and above +1/2 (all on the right) then follows
    from the deque sizes, and gives where the slope crosses -1/2 (resp.
    +1/2), which decides hub or line for each point and flow; backtracking
    from f = 0 marks the hub points.  The line points pair in sorted order
    (their cost is then the sum of L|f|), and so do the hub points, each
    such pair being at distance >= 1.

    Slopes are stored against the position where they entered their side
    (left: v + z, right: v - z, with z measured from the smallest point), so
    no lazy offset accumulates rounding.
    """
    n = len(a)
    pts = np.concatenate([a, b])
    order = np.argsort(pts, kind="stable")
    zs = (pts[order] - pts[order[0]]).tolist()
    from_a = (order < n).tolist()
    # slopes of V in [-1/2, 1/2] on f <= 0 (left) and on f >= 0 (right), in
    # increasing order; at position z the actual slope is key - z on the
    # left and key + z on the right
    left, right = deque(), deque()
    cross = [0] * (2 * n)
    for k, (z, is_a) in enumerate(zip(zs, from_a)):
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
    hub = [False] * (2 * n)
    f = 0
    for k in range(2 * n - 1, -1, -1):
        if from_a[k]:
            if f <= cross[k]:
                hub[k] = True
            else:
                f -= 1
        elif f >= cross[k]:
            hub[k] = True
        else:
            f += 1
    hub = np.array(hub)
    a_mask = np.array(from_a)
    ia = np.concatenate([order[a_mask & ~hub], order[a_mask & hub]])
    ib = np.concatenate([order[~a_mask & ~hub], order[~a_mask & hub]]) - n
    return ia, ib


def _stratified_subsample(x: np.ndarray, k: int, rng) -> np.ndarray:
    order = np.argsort(x if x.ndim == 1 else x[:, 0], kind="stable")
    strata = np.array_split(order, k)
    picks = [s[rng.integers(0, len(s))] for s in strata]
    return x[np.array(picks)]


def wasserstein1(
    mu, nu, *, allow_bootstrap: bool = True, seed: int = 0,
    max_exact: int = MAX_EXACT_ASSIGNMENT, subsample_draws: int = 8,
) -> W1Result:
    """W1 under min(|s-s'|, 1) between two uniform empirical measures.

    Scalar states are solved exactly at any size by a sort and a pass over
    the merged points (``_line_hub_coupling``), in O(n log n) time and O(n)
    memory.  Vector states (sup-norm) use an assignment solve on the full
    cost matrix; larger vector inputs are handled by stratified subsampling
    to ``max_exact`` points, averaged over ``subsample_draws`` draws.  Either
    way the value is the exactly-rounded sum of the chosen coupling's costs.
    NaN or infinite points, and an empty measure, raise ``InvalidSpec``.
    """
    a = mu.points if isinstance(mu, EmpiricalMeasure) else np.asarray(mu, dtype=float)
    b = nu.points if isinstance(nu, EmpiricalMeasure) else np.asarray(nu, dtype=float)
    if (a.ndim == 1) != (b.ndim == 1) or (a.ndim > 1 and a.shape[1] != b.shape[1]):
        raise SizeMismatch("measures live in different state spaces")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidSpec("W1 needs finite points; got NaN or infinite states")
    if len(a) == 0 or len(b) == 0:
        raise InvalidSpec("W1 needs at least one point in each measure")
    bootstrap = False
    if len(a) != len(b):
        if not allow_bootstrap:
            raise SizeMismatch(f"point counts differ ({len(a)} vs {len(b)}) and bootstrap is disabled")
        rng = generator(seed, 71)
        target = max(len(a), len(b))
        if len(a) < target:
            a = a[rng.integers(0, len(a), size=target)]
        if len(b) < target:
            b = b[rng.integers(0, len(b), size=target)]
        bootstrap = True
    n = len(a)
    if a.ndim == 1:
        ia, ib = _line_hub_coupling(a, b)
        value = math.fsum(np.minimum(np.abs(a[ia] - b[ib]), 1.0)) / n
        return W1Result(value, True, n, bootstrap)
    if n <= max_exact:
        return W1Result(_assignment_cost(a, b), True, n, bootstrap)
    rng = generator(seed, 72)
    vals = []
    for _ in range(subsample_draws):
        sa = _stratified_subsample(a, max_exact, rng)
        sb = _stratified_subsample(b, max_exact, rng)
        vals.append(_assignment_cost(sa, sb))
    vals = np.asarray(vals)
    return W1Result(
        float(vals.mean()), False, max_exact, bootstrap,
        float(vals.max() - vals.min()),
    )


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    perms.flags.writeable = False
    return perms


def wasserstein1_bruteforce(a: np.ndarray, b: np.ndarray) -> float:
    """Exhaustive minimum over all couplings (permutations); tiny n only.

    Every permutation's cost is summed in float, and the sums within 1e-12
    of the least (far above the rounding error of at most 9 terms, each at
    most 1) are summed again exactly; the least exact sum is returned.  An
    exact sum does not depend on the order of its terms, so those rows are
    sorted and each distinct one is summed once (tied inputs repeat rows).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    if n > 9:
        raise InvalidSpec("brute force oracle limited to n <= 9")
    costs = _cost_matrix(a, b)[np.arange(n), _permutations(n)]
    sums = costs.sum(axis=1)
    near = np.sort(costs[sums <= sums.min() + 1e-12], axis=1)
    rows = np.unique(near.view(np.dtype((np.void, near.itemsize * n))).ravel())
    return min(math.fsum(row) for row in rows.view(float).reshape(-1, n)) / n


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

    Doubles the backward horizon from 25, extending one environment path
    into the past (counter-based streams keep the shared suffix fixed),
    until consecutive measures are within ``tol`` in W1 (reason
    ``"tolerance"``).  Non-convergence returns the last measure with a
    diagnostic rather than raising: ``converged=False`` with reason
    ``"max_n"`` when the budget runs out, or with the overflow message
    (the doubled n and the time index) when a doubled run overflows
    float64, in which case the last finite measure, its n and its gap are
    returned.  Two cases still raise ``DomainViolation``: a finite state
    outside the kernel's domain (a model error), and an overflow in the
    first run (n = 25), which leaves no finite measure to return.
    """
    if tol <= 0:
        raise InvalidSpec("tol must be positive")
    k = max_n / 25.0
    if max_n < 50 or abs(k - 2 ** round(math.log2(k))) > 1e-9:
        raise InvalidSpec("max_n must be 25 times a power of 2, at least 50")
    if s0 is None:
        s0 = model.start_state()
    env_seed = split_seed(seed, _SEED_ENV)
    n = 25
    path = generate_path(model.covariates, -n, -1, env_seed)
    mu = backward_measure(model, s0, n, path, replicas, seed)
    history = []
    reason = "max_n"
    while 2 * n <= max_n:
        m = 2 * n
        path = generate_path(model.covariates, -m, -1, env_seed)
        try:
            mu2 = backward_measure(model, s0, m, path, replicas, seed)
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
    Tail estimates extrapolate past H geometrically from the empirical
    mean of log gamma and log kappa.
    """

    times: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    h: int
    H: int
    w1_tail: np.ndarray
    w2_tail: np.ndarray
    w3_tail: np.ndarray
    w4_tail: np.ndarray
    gamma_mean_log: float
    kappa_mean_log: float

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
    floor = 1e-300
    g_mean_log = float(np.mean(np.log(np.maximum(gamma, floor))))
    k_mean_log = float(np.mean(np.log(np.maximum(kappa, floor))))
    rho_g = math.exp(min(g_mean_log, 700.0))
    rho_k = math.exp(min(k_mean_log, 700.0))
    delta_bar = float(delta.mean())
    phi1 = phi.linear_coefficient

    times = np.arange(t_lo, t_hi + 1)
    m = len(times)
    w1 = np.empty(m); w2 = np.empty(m); w3 = np.empty(m); w4 = np.empty(m)
    w1_tail = np.empty(m); w2_tail = np.empty(m); w3_tail = np.empty(m); w4_tail = np.empty(m)
    geo_g = rho_g / (1.0 - rho_g) if rho_g < 1 else math.inf
    geo_k = rho_k / (1.0 - rho_k) if rho_k < 1 else math.inf
    # row j is time t_lo + j; backward windows run newest first (gamma_{t-1} ..
    # gamma_{t-H}, delta_{t-1} .. delta_{t-H-1}), forward is kappa_t .. kappa_{t+H}
    gwin = sliding_window_view(gamma, H)[1:, ::-1]
    kwin = sliding_window_view(kappa, H)[1:, ::-1]
    dwin = sliding_window_view(delta, H + 1)[:, ::-1]
    fwin = sliding_window_view(kappa, H + 1)[H + 1:]
    for lo in range(0, m, _W_BLOCK):
        b = slice(lo, min(lo + _W_BLOCK, m))
        cpg = np.cumprod(gwin[b], axis=1)
        dw = dwin[b]
        # sum_k cpg_k delta_{t-k-1} in lag order: rounds like a 1-d dot over a reversed view
        acc = np.zeros(len(cpg))
        for k in range(H):
            acc += cpg[:, k] * dw[:, k + 1]
        w1[b] = dw[:, 0] + acc
        w2[b] = cpg[:, h - 1:].max(axis=1)
        cpk = np.cumprod(kwin[b], axis=1)
        w3[b] = cpk[:, h - 1:].max(axis=1)
        cf = np.cumprod(fwin[b], axis=1)
        w4[b] = phi.evaluate(cf).sum(axis=1)
        w1_tail[b] = cpg[:, -1] * delta_bar * geo_g
        w2_tail[b] = cpg[:, -1] * rho_g
        w3_tail[b] = cpk[:, -1] * rho_k
        w4_tail[b] = phi1 * cf[:, -1] * geo_k
    return WStats(times, w1, w2, w3, w4, h, H, w1_tail, w2_tail, w3_tail, w4_tail,
                  g_mean_log, k_mean_log)


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
            "times": [int(t) for t in self.times],
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
    last = None
    for t, good in zip(stats.times, ok):
        if good and (last is None or t - last > h):
            accepted.append(int(t))
            last = t
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


def calibrate_regeneration(
    model: ModelSpec, path: CovariatePath, H: int,
    c_grid=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
    h_max: int = 50, min_frequency: float = 0.01,
) -> tuple[WStats, float, int]:
    """Pick (h, C) on a pilot path: smallest h admitting any time, then the
    smallest grid C whose acceptance frequency reaches ``min_frequency``."""
    for h in range(1, min(h_max, H) + 1):
        stats = w_stats(model, path, h, H)
        for C in c_grid:
            if _passes_thresholds(stats, C).mean() >= min_frequency:
                return stats, float(C), h
    raise InvalidSpec("no (C, h) in the calibration grid admits regeneration times")
