"""Observation kernels p(.|s): samplers, total-variation bounds and couplings.

Every family carries four routes to the same object:

* ``sample`` / ``sample_inverse`` draw from p(.|s) (the inverse-cdf route
  consumes exactly one uniform per draw, which synchronized backward
  experiments rely on);
* ``phi`` returns the closed-form polynomial rate certifying
  d_TV(p(.|s), p(.|s')) <= 1 - exp(-phi(|s-s'|));
* ``tv_exact`` is the exact oracle, independent of ``phi``: half the l1
  distance of the two pmfs for discrete families (one hook, ``_pmfs``,
  feeds it and the coupling), and for continuous ones a difference of
  cdfs at the closed-form density crossings (Scheffe's identity);
* ``maximal_couple`` draws a pair with the prescribed marginals whose
  disagreement probability equals the total-variation distance; it never
  calls the oracle (continuous families use the ordinary rejection
  coupling, which needs only the two densities).

Families whose rate constants are only proved to exist (probit, location
noise) certify a concrete constant numerically on a fixed grid with a 5%
margin; the oracle then re-checks the resulting bound end to end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import expit, gammaln, log_ndtr, ndtr, ndtri, pdtr, stdtr

from .errors import (
    CouplingBudgetExceeded,
    InvalidSpec,
    StateOutOfDomain,
    UnsupportedOrder,
)

_CERT_GRID = np.logspace(-4, 2, 200)
_CERT_MARGIN = 1.05
_TAIL_Q = 2.5e-13  # discrete supports truncated at the 1 - 1e-12 quantile
_COUPLE_CAP = 10**6


# ---------------------------------------------------------------------------
# phi: polynomial rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSpec:
    """phi(h) = sum_j c_j h^j with c_j >= 0, phi(0) = 0, some c_j > 0."""

    coefficients: tuple[tuple[int, float], ...]

    def __post_init__(self):
        coeffs = tuple(sorted((int(j), float(c)) for j, c in self.coefficients))
        object.__setattr__(self, "coefficients", coeffs)
        if any(j < 1 for j, _ in coeffs):
            raise InvalidSpec("phi must vanish at 0 (degrees >= 1 only)")
        if any(c < 0 for _, c in coeffs):
            raise InvalidSpec("phi coefficients must be >= 0")
        if not any(c > 0 for _, c in coeffs):
            raise InvalidSpec("phi must not be identically zero")

    @property
    def degree(self) -> int:
        return max(j for j, c in self.coefficients if c > 0)

    @property
    def linear_coefficient(self) -> float:
        return dict(self.coefficients).get(1, 0.0)

    def evaluate(self, h):
        h = np.asarray(h, dtype=float)
        out = np.zeros_like(h)
        for j, c in self.coefficients:
            out = out + c * h**j
        return out if out.ndim else float(out)

    def scaled(self, factor: float) -> "PhiSpec":
        return PhiSpec(tuple((j, c * factor) for j, c in self.coefficients))

    def to_dict(self):
        return {"coefficients": [[j, c] for j, c in self.coefficients]}


def _certified_rate(log_overlap_fn, powers: tuple[int, ...]) -> float:
    """Smallest grid constant D with overlap(h) >= exp(-D * sum h^p), +5%.

    ``log_overlap_fn`` evaluates log I(h) where I(h) is the closed-form
    overlap lower bound of the family; the certified D makes
    1 - exp(-phi(h)) dominate the family's TV bound on the grid.
    """
    h = _CERT_GRID
    basis = sum(h**p for p in powers)
    ratio = -log_overlap_fn(h) / basis
    return float(_CERT_MARGIN * np.max(ratio))


@functools.lru_cache(maxsize=None)
def _probit_rate() -> float:
    return _certified_rate(lambda h: np.log(2.0) + log_ndtr(-h / 2.0), (1, 2))


@functools.lru_cache(maxsize=None)
def _gaussian_location_rate(sigma: float) -> float:
    return _certified_rate(lambda h: np.log(2.0) + log_ndtr(-h / (2.0 * sigma)), (1, 2))


@functools.lru_cache(maxsize=None)
def _student_location_rate(nu: float) -> float:
    return _certified_rate(lambda h: np.log(2.0) + stats.t.logsf(h / 2.0, df=nu), (1,))


# ---------------------------------------------------------------------------
# coupling draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupleDraw:
    y: float
    y_prime: float
    met: bool

    def __post_init__(self):
        if self.met and self.y != self.y_prime:
            raise InvalidSpec("met=True requires y == y_prime")


def _couple_discrete_batch(support, p, q, n, rng):
    """Maximal coupling on a common finite support.

    Overlap branch with probability sum(min(p,q)); residual branch samples
    the two normalized excess measures independently.
    """
    m = np.minimum(p, q)
    om = float(m.sum())
    u = rng.random(n)
    met = u < om
    y = np.empty(n)
    yp = np.empty(n)
    k = int(met.sum())
    if k:
        cdf = np.cumsum(m)
        v = rng.random(k) * cdf[-1]
        idx = np.minimum(np.searchsorted(cdf, v, side="right"), len(support) - 1)
        y[met] = support[idx]
        yp[met] = support[idx]
    r = n - k
    if r:
        rp = np.maximum(p - m, 0.0)
        rq = np.maximum(q - m, 0.0)
        for target, resid in ((y, rp), (yp, rq)):
            cdf = np.cumsum(resid)
            if cdf[-1] <= 0:
                # numerically empty residual: fall back to the overlap law
                cdf = np.cumsum(p)
            v = rng.random(r) * cdf[-1]
            idx = np.minimum(np.searchsorted(cdf, v, side="right"), len(support) - 1)
            target[~met] = support[idx]
    return y, yp, met


def _couple_continuous_batch(kernel, s, sp, n, rng):
    """Ordinary maximal coupling of two densities p = p(.|s), q = p(.|s').

    Draw X ~ p; when U p(X) <= q(X), which happens with probability
    1 - TV(p, q), both chains take X.  Otherwise Y is redrawn from q until
    V q(Y) > p(Y), a draw from the normalized residual (q - p)^+ (Thorisson;
    Jacob, O'Leary & Atchade, JRSS-B 2020).  No TV value is needed.  A
    residual proposal is accepted with probability TV, so the rounds have
    no bound of their own: each pending Y gets twice the proposals of the
    round before, and ``_COUPLE_CAP`` bounds the total.
    """
    p = lambda y: kernel._pdf(y, s)
    q = lambda y: kernel._pdf(y, sp)
    y = kernel._draw(s, n, rng)
    met = rng.random(n) * p(y) <= q(y)
    yp = y.copy()
    pending = np.flatnonzero(~met)
    spent, per_pending = 0, 1
    while len(pending):
        size = min(len(pending) * per_pending, _COUPLE_CAP - spent)
        if size <= 0:
            raise CouplingBudgetExceeded(
                f"residual rejection exceeded {_COUPLE_CAP} proposals"
            )
        z = kernel._draw(sp, size, rng)
        z = z[rng.random(size) * q(z) > p(z)][: len(pending)]
        yp[pending[: len(z)]] = z
        pending = pending[len(z):]
        spent += size
        per_pending *= 2
    return y, yp, met


# ---------------------------------------------------------------------------
# family base
# ---------------------------------------------------------------------------

def state_distance(s, sp, vector: bool):
    """|s - s'|, or the sup norm along the last axis of vector states.  A float
    for one pair of states, one distance per row on batches."""
    if not vector and isinstance(s, float) and isinstance(sp, float):
        return abs(s - sp)  # one scalar pair, without numpy's per-call overhead
    d = np.abs(np.asarray(s, float) - np.asarray(sp, float))
    if vector:
        d = d.max(axis=-1)
    return float(d) if d.ndim == 0 else d


class ObservationKernel:
    """Common interface; scalar state families override the hooks below."""

    family: str = ""
    state_dim: int = 1
    state_norm: str = "abs"  # "inf" for the multinomial family
    moment_order: int = 1
    discrete: bool = True

    # -- domain ------------------------------------------------------------
    def domain_contains(self, s) -> bool:
        raise NotImplementedError

    def require_domain(self, *states):
        for s in states:
            if not self.domain_contains(s):
                raise StateOutOfDomain(f"state {s!r} outside {self.family} domain")

    def state_distance(self, s, sp):
        """``state_distance`` in this family's state norm."""
        return state_distance(s, sp, self.state_dim > 1)

    # -- sampling ----------------------------------------------------------
    def sample(self, s, rng):
        raise NotImplementedError

    def sample_inverse(self, s, u):
        """Quantile transform: one uniform per draw, monotone in u."""
        raise NotImplementedError

    # -- total variation ---------------------------------------------------
    def phi(self) -> PhiSpec:
        raise NotImplementedError

    def tv_bound(self, s, sp) -> float:
        self.require_domain(s, sp)
        h = self.state_distance(s, sp)
        return float(1.0 - math.exp(-float(self.phi().evaluate(h))))

    def tv_exact(self, s, sp, tol: float = 1e-7) -> float:
        """d_TV(p(.|s), p(.|s')) within ``tol`` in (0, 1e-3]; ``tol`` is only
        validated, as every family meets it by construction (closed forms, or
        supports truncated at a 1e-12 tail)."""
        if not 0 < tol <= 1e-3:
            raise InvalidSpec("tv_exact needs tol in (0, 1e-3]")
        self.require_domain(s, sp)
        if self.state_distance(s, sp) == 0.0:
            return 0.0
        return self._tv_exact_impl(s, sp)

    def _tv_exact_impl(self, s, sp):
        raise NotImplementedError

    # -- coupling ----------------------------------------------------------
    def couple_batch(self, s, sp, n, rng):
        self.require_domain(s, sp)
        if self.state_distance(s, sp) == 0.0:
            y = self.sample_inverse(s, rng.random(n))
            return np.asarray(y, float), np.asarray(y, float), np.ones(n, dtype=bool)
        return self._couple_impl(s, sp, n, rng)

    def maximal_couple(self, s, sp, rng) -> CoupleDraw:
        y, yp, met = self.couple_batch(s, sp, 1, rng)
        return CoupleDraw(float(y[0]), float(yp[0]), bool(met[0]))

    def _couple_impl(self, s, sp, n, rng):
        raise NotImplementedError

    # -- moments -----------------------------------------------------------
    def conditional_moment(self, s, order: int) -> tuple[float, float]:
        """(integral of |y|^order p(dy|s), family constant D with bound |s|+D)."""
        raise NotImplementedError

    # -- misc ----------------------------------------------------------------
    def domain_floor(self) -> float | None:
        """Lower bound of the state space, None when unbounded below."""
        return None

    def standard_pairs(self, n_pairs: int = 200):
        """Deterministic certification grid spanning small to large separations."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"family": self.family}

    def __repr__(self):
        return f"{type(self).__name__}()"


def _bounded_below(s, floor: float = float(np.finfo(float).min)) -> bool:
    """True when every state is finite and >= floor (by default: finite); inf and NaN are outside."""
    if isinstance(s, float):
        return floor <= s < math.inf
    s = np.asarray(s, float)
    return bool(np.all((s >= floor) & (s < np.inf)))


def _scalar_pairs(bases, n_pairs, centered=False):
    """(s, s+h) pairs with h log-spaced in [1e-4, 1e2]; optionally centered."""
    per = max(1, n_pairs // (len(bases) + (1 if centered else 0)))
    hs = np.logspace(-4, 2, per)
    pairs = [(float(b), float(b + h)) for b in bases for h in hs]
    if centered:
        pairs += [(-h / 2.0, h / 2.0) for h in hs]
    return pairs[:n_pairs] if len(pairs) >= n_pairs else pairs


class _Discrete(ObservationKernel):
    """Families whose TV and coupling both read the two pmfs on one support."""

    def _pmfs(self, s, sp):
        """(support as floats, p(.|s), p(.|s')) on a common finite support."""
        raise NotImplementedError

    def _tv_exact_impl(self, s, sp):
        _, p, q = self._pmfs(s, sp)
        return float(0.5 * np.abs(p - q).sum())

    def _couple_impl(self, s, sp, n, rng):
        return _couple_discrete_batch(*self._pmfs(s, sp), n, rng)


# ---------------------------------------------------------------------------
# count families
# ---------------------------------------------------------------------------

def _poisson_pmf(k, mu):
    k = np.asarray(k, dtype=float)
    if mu == 0.0:
        return (k == 0).astype(float)
    return np.exp(k * math.log(mu) - mu - gammaln(k + 1.0))


def _poisson_hi(mu) -> int:
    # Bernstein tail: P(X >= mu + x) <= exp(-x^2 / (2 mu + 2x/3)) < 1e-13
    # once x >= 10 + sqrt(100 + 60 mu)
    return int(math.ceil(mu + 10.0 + math.sqrt(100.0 + 60.0 * mu))) + 1


# Below this mean every probe of the quantile search (at most s + 9 sqrt(s)
# + 12 for u < 1 - 2**-54, and galloping at most doubles the distance from
# the start) is an integer that float64 holds exactly.
_EXACT_QUANTILE_MEAN = 2.0**52
# Up to this mean a draw the search cannot certify is scipy's quantile;
# above it scipy costs seconds per 2000 draws and returns NaN for u below
# about 1/2 once s passes about 3e10 (see _poisson_quantile).
_SCIPY_QUANTILE_MEAN = 1e10
# The certification rule of _poisson_quantile, justified in its docstring.
_CERTIFIED_MEAN = 1e5
_CERTIFIED_TAIL = 1e-12
_CERTIFIED_GAP = 1e-9
# Galloping from a start in [0, 2**53) to a bracket takes at most 54 probes
# and the bisection inside the bracket at most 54 more.
_QUANTILE_PROBES = 128


def _poisson_quantile_search(s, u):
    """(k, pdtr(k - 1, s)) for k = min{k >= 0 : pdtr(k, s) >= u}, finite s >= 0, u in (0, 1).

    Starts from the normal quantile with the Cornish-Fisher skewness
    correction and continuity correction, ceil(s + sqrt(s) z + (z^2 - 1)/6
    - 1/2) (Giles, ACM TOMS Algorithm 955, 2016), which is within one of
    the answer for s >= 1 in nearly every draw; then gallops away from the
    start until the answer is bracketed and bisects the bracket, keeping
    pdtr(lo, s) < u <= pdtr(hi, s) (lo = -1 is below the support, where
    pdtr is 0; +-inf a side not found yet).  At most ``_QUANTILE_PROBES``
    evaluations of pdtr per element; the second value is pdtr at the final
    lo, so it costs none.  For s >= 2**52 the rounded start is returned
    unsearched, with NaN for the second value: an approximation, float64
    cannot hold every integer the search visits.
    """
    z = ndtri(u)
    k = np.maximum(np.ceil(s + np.sqrt(s) * z + (z * z - 1.0) / 6.0 - 0.5), 0.0)
    exact = s < _EXACT_QUANTILE_MEAN
    p = pdtr(k, s)
    above = p >= u
    hi = np.where(above | ~exact, k, np.inf)
    lo = np.where(~exact, k - 1.0, np.where(above, -np.inf, k))
    p_lo = np.where(exact & ~above, p, np.nan)
    step = np.ones_like(k)
    for _ in range(_QUANTILE_PROBES):
        act = np.flatnonzero(hi - lo > 1.0)
        if act.size == 0:
            break
        lo_a, hi_a, step_a = lo[act], hi[act], step[act]
        with np.errstate(invalid="ignore"):  # the unused branch may be inf - inf
            probe = np.where(
                hi_a == np.inf, lo_a + step_a,
                np.where(lo_a == -np.inf, np.maximum(hi_a - step_a, -1.0),
                         lo_a + np.floor((hi_a - lo_a) / 2.0)),
            )
        p = np.where(probe >= 0.0, pdtr(np.maximum(probe, 0.0), s[act]), 0.0)
        up = p >= u[act]
        hi[act] = np.where(up, probe, hi_a)
        lo[act] = np.where(up, lo_a, probe)
        p_lo[act] = np.where(up, p_lo[act], p)
        step[act] = 2.0 * step_a
    return hi, p_lo


def _poisson_quantile(s, u):
    """Poisson(s) quantile at u, elementwise; finite at every finite s.

    Bit for bit ``stats.poisson.ppf`` up to a mean of 1e10
    (``_SCIPY_QUANTILE_MEAN``), though scipy sees only the draws that
    ``_poisson_quantile_search`` cannot certify.  The search gives k with
    pdtr(k - 1, s) < u <= pdtr(k, s).  Scipy takes ceil(r), for r cdflib's
    root of the continuous cdf at u, less one when pdtr(ceil(r) - 1, s) >= u:
    that is k whenever r lies in (k - 1, k + 1], and the exact root lies in
    (k - 1, k].  r leaves that interval only when u sits a hair above
    pdtr(k - 1, s), so that cdflib's root tolerance (relative 1e-8) or the
    gap between its cdf (DiDonato-Morris) and cephes' pdtr pushes it below
    k - 1; or where pdtr itself is off: it rounds the upper tail near u = 1
    (s = 1868.32, u = 1 - 2**-53: scipy 2233, search 2232) and, past 4.5
    standard deviations above means of a few million, leaves its asymptotic
    series for a capped continued fraction.  A draw is therefore certified,
    and scipy is not called, when

    * s <= ``_CERTIFIED_MEAN`` = 1e5,
    * ``_CERTIFIED_TAIL`` < u < 1 - ``_CERTIFIED_TAIL``, with 1e-12, and
    * u - pdtr(k - 1, s) > ``_CERTIFIED_GAP`` * u, with 1e-9.

    Mapped back to u, scipy's root at u = pdtr(k, s) lies within 7e-13 u of
    the jump for every s <= 1e5 checked (k within 7 standard deviations), a
    margin of 1000 to the gap.  The gap leaves to scipy every atom lighter
    than 1e-9 u and, of each other atom, draws of probability at most 1e-9.
    Sweeps against scipy find no mismatch at means up to 2e6 and the first
    ones at 3.3e6, where pdtr's error reaches the gap (against mpmath,
    within 7 standard deviations: below 1e-16 at 1e5, about 1e-12 at 1e6
    and 1e-10 at 2e6); the cut at 1e5 keeps both margins at three orders of
    magnitude or more.  Above 1e10, and wherever scipy returns NaN, the
    search stands (approximate for s >= 2**52).  Edge inputs reach neither
    routine (``_count_quantile_edges``); negative s counts as 0.
    """
    s, u = np.broadcast_arrays(np.maximum(np.asarray(s, dtype=float), 0.0),
                               np.asarray(u, dtype=float))
    shape, s, u = s.shape, s.ravel(), u.ravel()
    out = np.full(s.shape, np.nan)
    inner = np.flatnonzero((s > 0.0) & (s < np.inf) & (u > 0.0) & (u < 1.0))
    if inner.size:
        s_in, u_in = s[inner], u[inner]
        k, p_below = _poisson_quantile_search(s_in, u_in)
        certified = ((s_in <= _CERTIFIED_MEAN) & (u_in > _CERTIFIED_TAIL)
                     & (u_in < 1.0 - _CERTIFIED_TAIL)
                     & (u_in - p_below > _CERTIFIED_GAP * u_in))
        doubt = np.flatnonzero(~certified & (s_in <= _SCIPY_QUANTILE_MEAN))
        if doubt.size:
            ref = stats.poisson.ppf(u_in[doubt], s_in[doubt])
            k[doubt] = np.where(np.isnan(ref), k[doubt], ref)
        out[inner] = k
    return _count_quantile_edges(s, u, out).reshape(shape)


def _count_quantile_edges(s, u, out):
    """Set the edge outcomes of a count quantile in ``out`` (s >= 0 already).

    s = 0 and u = 0 give 0, u = 1 and s = inf give inf; NaN in s or u and
    u outside [0, 1] are left as they are (NaN).
    """
    valid = (s >= 0.0) & (u >= 0.0) & (u <= 1.0)  # False on NaN
    out[valid & ((u == 1.0) | (s == np.inf))] = np.inf
    out[valid & ((u == 0.0) | (s == 0.0))] = 0.0
    return out


@dataclass(frozen=True, repr=False)
class Poisson(_Discrete):
    family = "poisson"
    moment_order = 1

    def domain_contains(self, s):
        return _bounded_below(s, 0.0)

    def domain_floor(self):
        return 0.0

    def sample(self, s, rng):
        return rng.poisson(s)

    def sample_inverse(self, s, u):
        """Poisson quantile, finite at every finite mean (``_poisson_quantile``).

        Bit for bit ``stats.poisson.ppf`` up to a mean of 1e10, computed as
        the smallest k with pdtr(k, s) >= u from a Cornish-Fisher start in
        at most 128 probes of pdtr.  Scipy is called only for the draws
        this search cannot certify: s > 1e5, u within 1e-12 of 0 or 1, or
        u - pdtr(k - 1, s) <= 1e-9 u.  Above 1e10 the search alone
        (approximate for s >= 2**52).  s = 0 and u = 0 give 0, u = 1 and
        s = inf give inf, NaN gives NaN, all at once.
        """
        return _poisson_quantile(s, u)

    def phi(self):
        return PhiSpec(((1, 1.0),))

    def _pmfs(self, s, sp):
        k = np.arange(_poisson_hi(max(s, sp)) + 1, dtype=float)
        return k, _poisson_pmf(k, float(s)), _poisson_pmf(k, float(sp))

    def conditional_moment(self, s, order):
        if order != 1:
            raise UnsupportedOrder("Poisson supports order 1 only")
        self.require_domain(s)
        return float(s), 0.0

    def standard_pairs(self, n_pairs=200):
        return _scalar_pairs([0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 100.0], n_pairs)


@dataclass(frozen=True, repr=False)
class NegBinomial(_Discrete):
    """NB(r, s/(s+r)) parameterized by its mean s; gamma-Poisson mixture."""

    r: int = 1
    family = "negbinomial"
    moment_order = 1

    def __post_init__(self):
        if self.r < 1 or int(self.r) != self.r:
            raise InvalidSpec("negative binomial r must be a positive integer")

    def domain_contains(self, s):
        return _bounded_below(s, 0.0)

    def domain_floor(self):
        return 0.0

    def _p_success(self, s):
        # numpy's negative_binomial counts failures before r successes with
        # success probability p; mean r(1-p)/p = s gives p = r/(r+s)
        return self.r / (self.r + np.asarray(s, dtype=float))

    def sample(self, s, rng):
        return rng.negative_binomial(self.r, self._p_success(s))

    def sample_inverse(self, s, u):
        """``stats.nbinom.ppf`` with the edge outcomes of ``Poisson.sample_inverse``.

        s = 0 and u = 0 give 0 (scipy gives -1 at u = 0), u = 1 and s = inf
        give inf (scipy: NaN at s = inf), NaN in s or u and u outside [0, 1]
        give NaN; negative s counts as 0.
        """
        s, u = np.broadcast_arrays(np.maximum(np.asarray(s, dtype=float), 0.0),
                                   np.asarray(u, dtype=float))
        out = np.array(stats.nbinom.ppf(u, self.r, self._p_success(s)), dtype=float)
        return _count_quantile_edges(s, u, out)

    def phi(self):
        return PhiSpec(((1, 1.0),))

    def tv_bound_sharp(self, s, sp) -> float:
        """Intermediate mixture bound 1 - (1 + h/r)^(-r), tighter than phi."""
        self.require_domain(s, sp)
        h = self.state_distance(s, sp)
        return float(1.0 - (1.0 + h / self.r) ** (-self.r))

    def _pmfs(self, s, sp):
        hi = int(stats.nbinom.isf(_TAIL_Q, self.r, self._p_success(max(s, sp, 1e-12))))
        k = np.arange(hi + 2, dtype=float)
        def pmf(mean):
            if mean == 0.0:
                return (k == 0).astype(float)
            p = self.r / (self.r + mean)
            return np.exp(
                gammaln(k + self.r) - gammaln(self.r) - gammaln(k + 1.0)
                + self.r * math.log(p) + k * math.log1p(-p)
            )
        return k, pmf(float(s)), pmf(float(sp))

    def conditional_moment(self, s, order):
        if order != 1:
            raise UnsupportedOrder("negative binomial supports order 1 only")
        self.require_domain(s)
        return float(s), 0.0

    def standard_pairs(self, n_pairs=200):
        return _scalar_pairs([0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 100.0], n_pairs)

    def to_dict(self):
        return {"family": self.family, "r": self.r}

    def __repr__(self):
        return f"NegBinomial(r={self.r})"


# ---------------------------------------------------------------------------
# binary families
# ---------------------------------------------------------------------------

class _Bernoulli(_Discrete):
    moment_order = 1

    def _success(self, s):
        raise NotImplementedError

    def domain_contains(self, s):
        return _bounded_below(s)

    def sample(self, s, rng):
        if isinstance(s, float) or not np.ndim(s):  # one chain: rng.random() is rng.random(())'s word
            return int(rng.random() < self._success(float(s)))
        p1 = self._success(np.asarray(s, dtype=float))
        return (rng.random(p1.shape) < p1).astype(np.int64)

    def sample_inverse(self, s, u):
        p1 = self._success(np.asarray(s, dtype=float))
        out = (np.asarray(u) > 1.0 - p1).astype(np.int64)
        return out if out.ndim else int(out)

    def _pmfs(self, s, sp):
        p1, q1 = float(self._success(s)), float(self._success(sp))
        return np.array([0.0, 1.0]), np.array([1.0 - p1, p1]), np.array([1.0 - q1, q1])

    def conditional_moment(self, s, order):
        if order != 1:
            raise UnsupportedOrder("binary kernels support order 1 only")
        return float(self._success(float(s))), 1.0

    def standard_pairs(self, n_pairs=200):
        return _scalar_pairs([-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0], n_pairs, centered=True)


@dataclass(frozen=True, repr=False)
class BernoulliLogit(_Bernoulli):
    family = "bernoulli_logit"

    def _success(self, s):
        return expit(s)

    def phi(self):
        return PhiSpec(((1, 1.0),))


@dataclass(frozen=True, repr=False)
class BernoulliProbit(_Bernoulli):
    family = "bernoulli_probit"

    def _success(self, s):
        return ndtr(s)

    def phi(self):
        d = _probit_rate()
        return PhiSpec(((1, d), (2, d)))


# ---------------------------------------------------------------------------
# multinomial family
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Multinomial(_Discrete):
    """Categories {0..N-1}; p(i|s) = exp(s_i)/S(s), S(s) = 1 + sum exp(s_j)."""

    n_categories: int = 2
    family = "multinomial"
    state_norm = "inf"
    moment_order = 1

    def __post_init__(self):
        if self.n_categories < 2:
            raise InvalidSpec("multinomial needs N >= 2 categories")
        object.__setattr__(self, "state_dim", self.n_categories - 1)

    def domain_contains(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return s.shape[-1] == self.state_dim and bool(np.all(np.isfinite(s)))

    def probabilities(self, s):
        """Category probabilities; rows of a batch sum to 1."""
        s = np.atleast_2d(np.asarray(s, dtype=float))
        z = np.concatenate([np.zeros((s.shape[0], 1)), s], axis=1)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def sample(self, s, rng):
        p = self.probabilities(s)
        u = rng.random(p.shape[0])
        idx = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1)
        return idx if np.asarray(s).ndim > 1 else int(idx[0])

    def sample_inverse(self, s, u):
        p = self.probabilities(s)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        idx = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1)
        return idx if np.asarray(s).ndim > 1 or np.ndim(u) else int(idx[0])

    def phi(self):
        return PhiSpec(((1, 1.0),))

    def _pmfs(self, s, sp):
        support = np.arange(self.n_categories, dtype=float)
        return support, self.probabilities(s)[0], self.probabilities(sp)[0]

    def conditional_moment(self, s, order):
        # one-hot observation vector: |y|_inf is 1 off category 0, else 0
        if order != 1:
            raise UnsupportedOrder("multinomial supports order 1 only")
        return float(1.0 - self.probabilities(s)[0, 0]), 1.0

    def standard_pairs(self, n_pairs=200):
        d = self.state_dim
        bases = [np.zeros(d), np.full(d, 0.5), np.full(d, -1.0),
                 np.linspace(-1, 1, d) if d > 1 else np.array([1.0]), np.full(d, 2.0)]
        per = max(1, n_pairs // (2 * len(bases)))
        hs = np.logspace(-4, 2, per)
        pairs = []
        for k, b in enumerate(bases):
            e = np.zeros(d)
            e[k % d] = 1.0
            for h in hs:
                pairs.append((b.copy(), b + h * e))       # single-coordinate move
                pairs.append((b.copy(), b + h * np.ones(d)))  # diagonal move
        return pairs[:n_pairs]

    def to_dict(self):
        return {"family": self.family, "n_categories": self.n_categories}

    def __repr__(self):
        return f"Multinomial(n_categories={self.n_categories})"


# ---------------------------------------------------------------------------
# continuous families
# ---------------------------------------------------------------------------

class _Continuous(ObservationKernel):
    discrete = False

    def _pdf(self, y, s):
        raise NotImplementedError

    def _draw(self, s, n, rng):
        raise NotImplementedError

    def _couple_impl(self, s, sp, n, rng):
        return _couple_continuous_batch(self, s, sp, n, rng)


@dataclass(frozen=True, repr=False)
class GarchGaussian(_Continuous):
    """y|s = sqrt(s) eps with standard normal eps; states s >= c_minus > 0."""

    c_minus: float = 1.0
    family = "garch_gaussian"
    moment_order = 2

    def __post_init__(self):
        if not self.c_minus > 0:
            raise InvalidSpec("c_minus must be positive")

    def domain_contains(self, s):
        return _bounded_below(s, self.c_minus - 1e-12)

    def domain_floor(self):
        return self.c_minus

    def sample(self, s, rng):
        if isinstance(s, float) or not np.ndim(s):
            return math.sqrt(s) * rng.standard_normal()
        s = np.asarray(s, dtype=float)
        return np.sqrt(s) * rng.standard_normal(s.shape)

    def sample_inverse(self, s, u):
        return np.sqrt(np.asarray(s, dtype=float)) * ndtri(u)

    def _pdf(self, y, s):
        return np.exp(-np.asarray(y) ** 2 / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)

    def _draw(self, s, n, rng):
        return math.sqrt(s) * rng.standard_normal(n)

    def phi(self):
        return PhiSpec(((1, 1.0 / (2.0 * self.c_minus**1.5)),))

    def _breakpoints(self, s, sp):
        sig, sigp = math.sqrt(max(s, sp)), math.sqrt(min(s, sp))
        # distinct states can share a rounded sqrt (adjacent floats), where
        # the crossing formula divides by zero; the densities are then equal
        # to rounding and do not cross
        if sig == sigp:
            return []
        u = sig * sigp * math.sqrt(2.0 * math.log(sig / sigp) / (sig**2 - sigp**2))
        return [-u, u]

    def _tv_exact_impl(self, s, sp):
        # the narrower density exceeds the wider one exactly on (-u, u), so
        # TV is the difference of the two masses there (Scheffe)
        crossings = self._breakpoints(s, sp)
        if not crossings:
            return 0.0
        u = crossings[1]
        return math.erf(u / math.sqrt(2.0 * min(s, sp))) - math.erf(u / math.sqrt(2.0 * max(s, sp)))

    def conditional_moment(self, s, order):
        if order != 2:
            raise UnsupportedOrder("volatility kernel supports order 2 only")
        self.require_domain(s)
        return float(s), 0.0

    def standard_pairs(self, n_pairs=200):
        c = self.c_minus
        return _scalar_pairs([c, 1.5 * c, 2.0 * c, 4.0 * c, 8.0 * c, 16.0 * c, 32.0 * c, 64.0 * c], n_pairs)

    def to_dict(self):
        return {"family": self.family, "c_minus": self.c_minus}

    def __repr__(self):
        return f"GarchGaussian(c_minus={self.c_minus})"


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidSpec("sigma must be positive")

    def pdf(self, y):
        return np.exp(-np.asarray(y) ** 2 / (2.0 * self.sigma**2)) / (self.sigma * math.sqrt(2 * math.pi))

    def ppf(self, u):
        return self.sigma * ndtri(u)

    def tv(self, h):
        return math.erf(h / (2.0 * math.sqrt(2.0) * self.sigma))

    def draw(self, n, rng):
        return self.sigma * rng.standard_normal(n)

    def mean_abs(self):
        return self.sigma * math.sqrt(2.0 / math.pi)

    def rate(self) -> PhiSpec:
        D = _gaussian_location_rate(self.sigma)
        return PhiSpec(((1, D), (2, D)))

    def to_dict(self):
        return {"name": "gaussian", "sigma": self.sigma}


@dataclass(frozen=True)
class LaplaceNoise:
    b: float = 1.0

    def __post_init__(self):
        if not self.b > 0:
            raise InvalidSpec("b must be positive")

    def pdf(self, y):
        return np.exp(-np.abs(np.asarray(y)) / self.b) / (2.0 * self.b)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 0.5, self.b * np.log(2.0 * u), -self.b * np.log(2.0 * (1.0 - u)))

    def tv(self, h):
        return -math.expm1(-h / (2.0 * self.b))

    def draw(self, n, rng):
        return rng.laplace(0.0, self.b, n)

    def mean_abs(self):
        return self.b

    def rate(self) -> PhiSpec:
        # overlap is exactly exp(-h/(2b)); D(h + h) with the natural
        # exponent 1 gives D = 1/(4b), certified with the standard margin
        D = _CERT_MARGIN / (4.0 * self.b)
        return PhiSpec(((1, 2.0 * D),))

    def to_dict(self):
        return {"name": "laplace", "b": self.b}


@dataclass(frozen=True)
class StudentTNoise:
    nu: float = 3.0

    def __post_init__(self):
        if self.nu < 2:
            raise InvalidSpec("Student noise needs nu >= 2")
        # direct pdf; scipy's distribution call overhead would dominate the
        # rejection coupling, which evaluates it on every proposal
        logc = gammaln((self.nu + 1) / 2.0) - gammaln(self.nu / 2.0) - 0.5 * math.log(self.nu * math.pi)
        object.__setattr__(self, "_pdf_const", math.exp(logc))

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return self._pdf_const * (1.0 + y * y / self.nu) ** (-(self.nu + 1) / 2.0)

    def ppf(self, u):
        return stats.t.ppf(u, df=self.nu)

    def tv(self, h):
        return 2.0 * float(stdtr(self.nu, h / 2.0)) - 1.0

    def draw(self, n, rng):
        return rng.standard_t(self.nu, n)

    def mean_abs(self):
        n = self.nu
        return 2.0 * math.sqrt(n) * math.exp(gammaln((n + 1) / 2.0) - gammaln(n / 2.0)) / ((n - 1) * math.sqrt(math.pi))

    def rate(self) -> PhiSpec:
        # polynomial tails dominate any exponential, so a linear phi works
        return PhiSpec(((1, _student_location_rate(self.nu)),))

    def to_dict(self):
        return {"name": "student_t", "nu": self.nu}


_NOISES = {"gaussian": GaussianNoise, "laplace": LaplaceNoise, "student_t": StudentTNoise}


@dataclass(frozen=True, repr=False)
class Location(_Continuous):
    """y|s = s + eps with symmetric unimodal noise; autoregressions with noise."""

    noise: GaussianNoise | LaplaceNoise | StudentTNoise = GaussianNoise()
    family = "location"
    moment_order = 1

    def domain_contains(self, s):
        return _bounded_below(s)

    def sample(self, s, rng):
        if isinstance(s, float) or not np.ndim(s):
            return float(s) + self.noise.draw(None, rng)
        s = np.asarray(s, dtype=float)
        return s + self.noise.draw(s.shape, rng)

    def sample_inverse(self, s, u):
        return np.asarray(s, dtype=float) + self.noise.ppf(u)

    def _pdf(self, y, s):
        return self.noise.pdf(np.asarray(y) - s)

    def _draw(self, s, n, rng):
        return s + self.noise.draw(n, rng)

    def phi(self):
        return self.noise.rate()

    def _tv_exact_impl(self, s, sp):
        # symmetric unimodal noise: the densities cross once, at the midpoint,
        # so TV is the noise's own distance to its shift (``noise.tv``)
        return self.noise.tv(abs(float(sp) - float(s)))

    def conditional_moment(self, s, order):
        if order != 1:
            raise UnsupportedOrder("location kernels support order 1 only")
        s = float(s)
        if isinstance(self.noise, GaussianNoise):
            sig = self.noise.sigma
            val = sig * math.sqrt(2.0 / math.pi) * math.exp(-s * s / (2 * sig * sig)) + s * (1.0 - 2.0 * ndtr(-s / sig))
        elif isinstance(self.noise, LaplaceNoise):
            val = abs(s) + self.noise.b * math.exp(-abs(s) / self.noise.b)
        else:
            # E|a + T| = a (1 - 2F(-a)) + 2 (nu + a^2) f(a) / (nu - 1), even in s
            a, nu = abs(s), self.noise.nu
            val = a * (1.0 - 2.0 * stdtr(nu, -a)) + 2.0 * (nu + a * a) * float(self.noise.pdf(a)) / (nu - 1.0)
        return float(val), float(self.noise.mean_abs())

    def standard_pairs(self, n_pairs=200):
        return _scalar_pairs([-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0], n_pairs, centered=True)

    def to_dict(self):
        return {"family": self.family, "noise": self.noise.to_dict()}

    def __repr__(self):
        return f"Location(noise={self.noise!r})"


# ---------------------------------------------------------------------------
# registry / serialization / export helpers
# ---------------------------------------------------------------------------

def kernel_from_dict(d: dict) -> ObservationKernel:
    fam = d.get("family")
    if fam == "poisson":
        return Poisson()
    if fam == "negbinomial":
        return NegBinomial(d["r"])
    if fam == "bernoulli_logit":
        return BernoulliLogit()
    if fam == "bernoulli_probit":
        return BernoulliProbit()
    if fam == "multinomial":
        return Multinomial(d["n_categories"])
    if fam == "garch_gaussian":
        return GarchGaussian(d["c_minus"])
    if fam == "location":
        noise_d = dict(d["noise"])
        name = noise_d.pop("name")
        if name not in _NOISES:
            raise InvalidSpec(f"unknown location noise {name!r}")
        return Location(_NOISES[name](**noise_d))
    raise InvalidSpec(f"unknown kernel family {fam!r}")


def tv_table(kernel: ObservationKernel, pairs, tol: float = 1e-7):
    """Rows (s, s_prime, tv_exact, tv_bound) for CSV export."""
    rows = []
    for s, sp in pairs:
        rows.append((s, sp, kernel.tv_exact(s, sp, tol), kernel.tv_bound(s, sp)))
    return rows


def _fmt_state(v) -> str:
    if np.ndim(v):
        return ";".join(format(float(c), ".17g") for c in np.asarray(v).ravel())
    return format(float(v), ".17g")


def tv_table_to_csv(rows, fileobj):
    import csv as _csv

    w = _csv.writer(fileobj)
    w.writerow(["s", "s_prime", "tv_exact", "tv_bound"])
    for s, sp, tve, tvb in rows:
        w.writerow([_fmt_state(s), _fmt_state(sp), format(tve, ".17g"), format(tvb, ".17g")])
