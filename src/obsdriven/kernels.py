"""Observation kernels p(.|s): samplers, total-variation bounds and couplings.

Every family carries four routes to the same object:

* ``sample`` / ``sample_inverse`` draw from p(.|s) (the inverse-cdf route
  consumes exactly one uniform per draw, which synchronized backward
  experiments rely on; the Poisson quantile sums a batch inside its summed
  range without its clamp and edge passes, and a logit draw of an (n,) float
  batch, as a backward loop draws, is decided by numpy's p unless u lies
  within 1e-12 of its threshold, where expit redraws it: the same bits);
* ``phi`` returns the closed-form polynomial rate certifying
  d_TV(p(.|s), p(.|s')) <= 1 - exp(-phi(|s-s'|));
* ``tv_exact`` is the exact oracle, independent of ``phi``, by one rule,
  Scheffe's identity: TV is the mass p(.|s) puts where it exceeds
  p(.|s'), a difference of two cdfs at the closed-form crossings of the
  two laws (the count families' likelihood ratio is monotone in y);
  the binary and multinomial families compare their few probabilities;
* ``couple_batch`` draws n pairs with the prescribed marginals whose
  disagreement probability equals the total-variation distance.  One
  routine serves every family, the ordinary rejection coupling: it draws
  through ``sample`` and reads only the ratio of two ``_pdf`` values, so
  it never calls the oracle and builds no support.

Families whose rate constants are only proved to exist (location noise,
and probit, which takes the unit Gaussian's) certify a concrete constant
numerically on a fixed grid with a 5% margin; the oracle then re-checks the
resulting bound end to end.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _special as special
from ._codec import Spec
from .covariates import MAX_DIMENSION
from .errors import CouplingBudgetExceeded, DomainViolation, InvalidSpec

_CERT_GRID = np.logspace(-4, 2, 200)
_CERT_MARGIN = 1.05
_COUPLE_CAP = 10**6
# The count _pdfs' log1p arguments round to -1 only where s/y < about 2**-53;
# the next float up stands in for log(0) there, a factor e^-35.7 per unit of y.
_LOG1P_FLOOR = -1.0 + 2.0**-53


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
        if not all(0 <= c < math.inf for _, c in coeffs):
            raise InvalidSpec("phi coefficients must be finite and >= 0")
        if not any(c > 0 for _, c in coeffs):
            raise InvalidSpec("phi must not be identically zero")

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
def _gaussian_location_rate(sigma: float) -> float:
    return _certified_rate(lambda h: np.log(2.0) + special.log_ndtr(-h / (2.0 * sigma)), (1, 2))


@functools.lru_cache(maxsize=None)
def _student_location_rate(nu: float) -> float:
    # stats.t.logsf(h / 2, nu) bit for bit: scipy logs the sf for h / 2 > 0; from nu of about 1e5
    # the sf underflows to 0 on the grid, and the rate is inf, which PhiSpec refuses
    with np.errstate(divide="ignore"):
        return _certified_rate(lambda h: np.log(2.0) + np.log(special.stdtr(nu, -h / 2.0)), (1,))


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


class ObservationKernel(Spec):
    """Common interface; scalar state families override the hooks below."""

    state_shape: tuple = ()  # one state's shape: () for a float, (d,) for a vector in the sup norm
    outcomes = None  # the finite menu of observations, None for an unbounded or continuous one
    moment_order: int = 1
    discrete: bool = True

    @property
    def family(self) -> str:
        return self.tag[1]

    # -- domain ------------------------------------------------------------
    domain_lower = float(np.finfo(float).min)  # the domain: the finite floats >= domain_lower

    def domain_contains(self, s) -> bool:
        return _bounded_below(s, self.domain_lower)

    def require_domain(self, *states):
        for s in states:
            if not self.domain_contains(s):
                raise DomainViolation(f"state {s!r} outside {self.family} domain", state=s)

    def state_distance(self, s, sp):
        """``state_distance`` in this family's state norm."""
        return state_distance(s, sp, bool(self.state_shape))

    # -- sampling ----------------------------------------------------------
    def sample(self, s, rng):
        raise NotImplementedError

    def _chain_draws(self, n, rng):
        """(draw, words) for n steps of one chain: ``draw(s, w)``, w the next of words, is the draw at
        state s (a Python float for a scalar family), from the generator words of one ``sample``."""
        return self.sample, [rng] * n

    def sample_inverse(self, s, u):
        """Quantile transform: one uniform per draw, monotone in u."""
        raise NotImplementedError

    # -- total variation ---------------------------------------------------
    def phi(self) -> PhiSpec:
        """The rate phi; the unit rate phi(h) = h unless the family states its own."""
        return PhiSpec(((1, 1.0),))

    def tv_bound(self, s, sp) -> float:
        self.require_domain(s, sp)
        h = self.state_distance(s, sp)
        return float(1.0 - math.exp(-float(self.phi().evaluate(h))))

    def tv_exact(self, s, sp) -> float:
        """d_TV(p(.|s), p(.|s')) within 1e-7, by closed forms (cdf differences at the
        crossings of the two laws), except Poisson means within 18 standard deviations of
        each other above about 1e25, where the crossing is a rounded float."""
        self.require_domain(s, sp)
        if self.state_distance(s, sp) == 0.0:
            return 0.0
        return self._tv_exact_impl(s, sp)

    def _tv_exact_impl(self, s, sp):
        raise NotImplementedError

    # -- coupling ----------------------------------------------------------
    def couple_batch(self, s, sp, n, rng):
        """Ordinary maximal coupling of p = p(.|s) and q = p(.|s'), for every family.

        Draw X ~ p; when U p(X) <= q(X), which happens with probability
        1 - TV(p, q), both chains take X.  Otherwise Y is redrawn from q until
        V q(Y) > p(Y), a draw from the normalized residual (q - p)^+ (Thorisson;
        Jacob, O'Leary & Atchade, JRSS-B 2020).  Only the ratio q/p is read, so
        ``_pdf`` may drop any factor that depends on y alone, and neither a TV
        value nor a support table is built: the cost does not grow with the
        mean.  Unmet pairs come from {p > q} and {q > p}, so they differ.  A
        residual proposal is accepted with probability TV, so the rounds have no
        bound of their own: each pending Y gets twice the proposals of the round
        before, and ``_COUPLE_CAP`` bounds the total.  At distance 0 (+0.0 and
        -0.0 too) both chains take X, the words of ``sample``, and no more.
        """
        self.require_domain(s, sp)
        y = self._draw(s, n, rng)
        yp = y.copy()
        if self.state_distance(s, sp) == 0.0:
            return y, yp, np.ones(n, dtype=bool)
        met = rng.random(n) * self._pdf(y, s) <= self._pdf(y, sp)
        pending = (~met).nonzero()[0]
        spent, per_pending = 0, 1
        while len(pending):
            size = min(len(pending) * per_pending, _COUPLE_CAP - spent)
            if size <= 0:
                raise CouplingBudgetExceeded(
                    f"residual rejection exceeded {_COUPLE_CAP} proposals"
                )
            z = self._draw(sp, size, rng)
            z = z[rng.random(size) * self._pdf(z, sp) > self._pdf(z, s)][: len(pending)]
            yp[pending[: len(z)]] = z
            pending = pending[len(z):]
            spent += size
            per_pending *= 2
        return y, yp, met

    def _pdf(self, y, s):
        """p(y|s) at the draws y, up to a positive factor of y alone."""
        raise NotImplementedError

    def _draw(self, s, n, rng):
        """n draws from p(.|s) as floats, by ``sample``; one draw is a scalar call, which takes the
        words a batch of one takes without numpy's array checks (costly in ``rng.poisson``)."""
        if n == 1:
            return np.array([self.sample(s, rng)], dtype=float)
        return np.asarray(self.sample(np.full((n, *np.shape(s)), s), rng), dtype=float)

    # -- moments -----------------------------------------------------------
    def conditional_moment(self, s) -> tuple[float, float]:
        """(integral of |y|^moment_order p(dy|s), family constant D with bound |s|+D); (s, 0)
        for a family whose state is that moment (the count means, the GARCH variance)."""
        self.require_domain(s)
        return float(s), 0.0

    # -- misc ----------------------------------------------------------------
    def domain_floor(self) -> float | None:
        """Lower bound of the state space (``domain_lower``), None when unbounded below."""
        return None if self.domain_lower == ObservationKernel.domain_lower else self.domain_lower

    _pair_bases = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 100.0)  # the count families' means
    _centered = False

    def standard_pairs(self, n_pairs: int = 200):
        """Deterministic certification grid spanning small to large separations: (b, b + h) from each
        of ``_pair_bases``, and (-h/2, h/2) where ``_centered``, by ``_scalar_pairs``."""
        return _scalar_pairs(self._pair_bases, n_pairs, self._centered)


class _NoiseKernel(ObservationKernel):
    """A family whose draws take words that do not depend on the state: ``sample(s, rng)`` is
    ``_from_noise(s, _noise(shape, rng))``, shape the batch shape of s, None (a Python float) for
    one state, and ``_from_noise`` is ``_draw_one`` of one float state, ``_draw_batch`` of a float
    array.  numpy fills an array by a scalar call's per-draw routine: n calls' words in one."""

    def sample(self, s, rng):
        shape = None if isinstance(s, float) else np.shape(s)[:np.ndim(s) - len(self.state_shape)] or None
        return self._from_noise(s, self._noise(shape, rng))

    def _noise(self, shape, rng):
        return rng.random(shape)  # the uniforms of the binary and multinomial families

    def _from_noise(self, s, e):
        if isinstance(s, float) or not np.ndim(s):
            return self._draw_one(float(s), e)
        return self._draw_batch(np.asarray(s, dtype=float), e)

    def _chain_draws(self, n, rng):
        return self._draw_one, self._noise(n, rng).tolist()


def _float_batch(s, u) -> bool:
    """True for an (n,) float64 array of states, n >= 1, and uniforms of its shape and dtype, the
    batches a backward loop draws: ``BernoulliLogit.sample_inverse`` takes them by a lean path, with
    the general path's bits."""
    return (type(s) is np.ndarray and type(u) is np.ndarray and s.ndim == 1 and s.shape == u.shape
            and s.dtype == u.dtype == np.float64 and s.size > 0)


def _bounded_below(s, floor: float) -> bool:
    """True when every state is finite and >= floor; inf and NaN are outside."""
    if isinstance(s, float):
        return floor <= s < math.inf
    s = np.asarray(s, float)
    return s.size == 0 or bool(s.min() >= floor and s.max() < np.inf)  # a NaN makes both False


def _scalar_pairs(bases, n_pairs, centered=False):
    """(s, s+h) pairs with h log-spaced in [1e-4, 1e2]; optionally centered."""
    per = max(1, n_pairs // (len(bases) + (1 if centered else 0)))
    hs = np.logspace(-4, 2, per)
    pairs = [(float(b), float(b + h)) for b in bases for h in hs]
    if centered:
        pairs += [(-h / 2.0, h / 2.0) for h in hs]
    return pairs[:n_pairs] if len(pairs) >= n_pairs else pairs


_CENTERED_BASES = (-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0)  # pair bases of the binary and location states


# ---------------------------------------------------------------------------
# count families
# ---------------------------------------------------------------------------

def _poisson_hi(mu) -> int:
    # Bernstein tail: P(X >= mu + x) <= exp(-x^2 / (2 mu + 2x/3)) < 1e-13
    # once x >= 10 + sqrt(100 + 60 mu)
    return int(math.ceil(mu + 10.0 + math.sqrt(100.0 + 60.0 * mu))) + 1


def _poisson_cdf(k, s):
    """P(X <= k) for X ~ Poisson(s), elementwise at integers k >= 0 and s >= 0.

    ``pdtr``, except more than 4.5 standard deviations from a mean over
    1e5: there cephes sums a series capped at 2000 terms, which drops part
    of the upper tail (1.3e-12 at s = 1e6, 1e-7 at 1e8, 2.6e-7 at 1e10),
    and it returns NaN far below means from about 1e306.  Past that line
    it is Q(k + 1, s), the regularized upper incomplete gamma function, by
    the first two terms of Temme's uniform expansion (DLMF 8.12.3 and
    8.12.8): within 1e-15 of 50-digit quadrature at means 1.1e5 to 1e20,
    4.5 to 40 standard deviations out on either side.
    """
    return _poisson_tail(k, s, 1.0)


def _poisson_sf(k, s):
    """P(X > k), the survival twin of ``_poisson_cdf``: ``pdtrc``, or P(k + 1, s) = 1 - Q by
    the same two terms (DLMF 8.12.4), so the upper tail is not read as 1 less a rounded cdf."""
    return _poisson_tail(k, s, -1.0)


def _poisson_tail(k, s, sign):
    out = special.pdtr(k, s) if sign > 0 else special.pdtrc(k, s)
    far = (s > 1e5) & (abs(k - s) > 4.5 * s**0.5)  # Python operators: one pair stays in floats
    if not np.count_nonzero(far):
        return out
    k, s = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(s, dtype=float))
    out, a = np.array(out), k[far] + 1.0
    mu = (s[far] - a) / a
    # eta^2 / 2 = mu - log1p(mu), by its series where the difference would cancel
    half = np.where(np.abs(mu) < 1e-3, mu * mu * (0.5 - mu / 3.0 + mu * mu / 4.0 - mu**3 / 5.0), mu - np.log1p(mu))
    eta = np.copysign(np.sqrt(2.0 * half), mu)
    out[far] = (0.5 * special.erfc(sign * eta * np.sqrt(0.5 * a))
                + sign * np.exp(-0.5 * a * eta * eta) / np.sqrt(2.0 * np.pi * a) * (1.0 / mu - 1.0 / eta))
    return out[()]


# Below this mean every Poisson probe of the quantile search (at most
# s + 9 sqrt(s) + 12 for u < 1 - 2**-54, and galloping at most doubles the
# distance from the start) is an integer that float64 holds exactly.
_EXACT_QUANTILE_MEAN = 2.0**52
# Galloping from a start in [0, 2**53) to a bracket takes at most 54 probes
# and the bisection inside the bracket at most 54 more.
_QUANTILE_PROBES = 128
# The summed cdf of _poisson_quantile_summed: up to this mean, certified
# outside this absolute margin of u, in blocks of this many draws.
_SUMMED_MEAN = 20.0
_SUMMED_MARGIN = 1e-12
_SUMMED_BLOCK = 2000
# rng.poisson refuses larger means; this is numpy's own bound
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def _count_quantile_search(s, u, cdf, sf, inv_r=0.0):
    """k = min{k >= 0 : F(k) >= u} under a count family's float cdf, at finite s >= 0, u in (0, 1).

    ``cdf(k, s)`` is F(k) and ``sf(k, s)`` is 1 - F(k), elementwise; where
    u > 1/2 the search reads F(k) >= u as sf(k, s) <= 1 - u, which is exact
    there, so the upper tail is not read through a cdf rounded near 1.  It
    starts from the normal quantile with the Cornish-Fisher skewness and
    continuity corrections, ceil(s + sqrt(s v) z + (1 + 2s/r)(z^2 - 1)/6
    - 1/2) with v = 1 + s/r the variance over the mean (Giles, ACM TOMS
    Algorithm 955, 2016, for Poisson, where 1/r = ``inv_r`` = 0), which is
    within one of the answer for Poisson means s >= 1 in nearly every draw.
    Each half is then bracketed and bisected by ``_count_quantile_bracket``.
    For s >= 2**52 the rounded start is returned unsearched: an
    approximation, float64 cannot hold every integer the search visits.
    """
    z, w = special.ndtri(u), s * inv_r
    k = np.maximum(np.ceil(s + np.sqrt(s * (1.0 + w)) * z + (1.0 + 2.0 * w) * (z * z - 1.0) / 6.0 - 0.5), 0.0)
    searched, upper = s < _EXACT_QUANTILE_MEAN, u > 0.5
    # -sf(k) >= u - 1 is F(k) >= u, and u - 1 is exact for u > 1/2
    for half, t, g in ((searched & upper, u - 1.0, lambda k, s: -sf(k, s)), (searched & ~upper, u, cdf)):
        k[half] = _count_quantile_bracket(k[half], s[half], t[half], g)
    return k


def _count_quantile_bracket(k, s, t, g):
    """min{k >= 0 : g(k, s) >= t} for g nondecreasing in k, from the starts k.

    Probes each start's neighbour on the side of the answer, which settles
    most draws in one array pass; then gallops the draws still open away
    from the start until the answer is bracketed and bisects the bracket,
    keeping g(lo, s) < t <= g(hi, s) (lo = -1 is below the support, where no
    draw is reached; +-inf a side not found yet).  At most
    ``_QUANTILE_PROBES`` evaluations of g per element.
    """
    above = g(k, s) >= t
    # the start's neighbour first, over every draw: k - 1 where g(k) >= t, else k + 1
    probe = np.where(above, k - 1.0, k + 1.0)
    up = (probe >= 0.0) & (g(np.maximum(probe, 0.0), s) >= t)
    hi = np.where(up, probe, np.where(above, k, np.inf))
    lo = np.where(up, np.where(above, -np.inf, k), probe)
    # only the draws still open gallop and bisect; every open draw has taken as many probes
    act, step = np.flatnonzero(hi - lo > 1.0), 2.0
    for _ in range(_QUANTILE_PROBES - 1):
        if act.size == 0:
            break
        lo_a, hi_a = lo[act], hi[act]
        with np.errstate(invalid="ignore"):  # the unused branch may be inf - inf
            probe = np.where(
                hi_a == np.inf, lo_a + step,
                np.where(lo_a == -np.inf, np.maximum(hi_a - step, -1.0),
                         lo_a + np.floor((hi_a - lo_a) / 2.0)),
            )
        up = (probe >= 0.0) & (g(np.maximum(probe, 0.0), s[act]) >= t[act])
        hi[act] = hi_a = np.where(up, probe, hi_a)
        lo[act] = lo_a = np.where(up, lo_a, probe)
        act, step = act[hi_a - lo_a > 1.0], 2.0 * step
    return hi


def _poisson_quantile_summed(s, u):
    """(k, certified) for the quantile at 0 < s <= 20, 0 < u < 1, elementwise.

    Sums the cdf, F(j) = e^-s sum_{i <= j} s^i / i!, one term per pass over
    every draw (term_j = term_{j-1} * (s / j)), one row per j, and takes k =
    #{j : F(j) < u}, the first j with F(j) >= u.  Against the search's cdfs,
    max |F(j) - pdtr(j, s)| and max |F(j) - (1 - pdtrc(j, s))| are both
    1.7e-15 over j <= 68 and 2.3e5 means in (0, 20] (uniform, a log grid
    from 1e-300, and a fine grid up to 20).  A draw is certified when F(k) -
    u > M and u - F(k - 1) > M (F(-1) = 0), with M = ``_SUMMED_MARGIN`` =
    1e-12, 600 times those errors.  F is nondecreasing, so pdtr(j, s) < u
    for every j < k and pdtr(j, s) > u for every j >= k, and likewise
    pdtrc(j, s) > 1 - u and < 1 - u: ``_count_quantile_search`` lands on
    this k from either half.  The rest (near a jump, or in a tail below M)
    go to the search.  F(j; s) falls in s, so one scalar sum at the block's
    largest mean and u fixes the rows first, plus a spare row (in float,
    F(j) at a mean just below s_max may round an ulp lower), up to j =
    ``_poisson_hi`` of the largest mean (68 at 20); a draw still below u at
    the last row is left uncertified.  Blocks of 2000 draws keep the rows
    within 1.1 MB.
    """
    if s.size > _SUMMED_BLOCK:
        parts = [_poisson_quantile_summed(s[i:i + _SUMMED_BLOCK], u[i:i + _SUMMED_BLOCK])
                 for i in range(0, s.size, _SUMMED_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    s_max, u_max, last, j = s.max(), u.max(), _poisson_hi(s.max()), 0
    term = top = np.exp(-s_max)
    while top < u_max and j < last:
        j += 1
        term *= s_max / j
        top += term
    cdf = np.empty((min(j + 1, last) + 1, s.size))
    term = cdf[0] = np.exp(-s)
    for j in range(1, len(cdf)):
        term *= s / j
        np.add(cdf[j - 1], term, out=cdf[j])
    # at most _poisson_hi(20) + 1 = 69 rows: a uint8 count does not overflow
    k = np.minimum(np.less(cdf, u).sum(axis=0, dtype=np.uint8), len(cdf) - 1).astype(np.intp)
    flat, cols = cdf.ravel(), np.arange(s.size)
    below = np.where(k > 0, flat.take((k - 1) * s.size + cols), 0.0)  # k = 0 reads the last row, unused
    certified = (flat.take(k * s.size + cols) - u > _SUMMED_MARGIN) & (u - below > _SUMMED_MARGIN)
    return k.astype(float), certified


def _poisson_quantile(s, u):
    """Poisson(s) quantile at u, elementwise: the smallest k with F(k) >= u under
    ``_poisson_cdf`` (and ``_poisson_sf`` for u > 1/2), finite at every finite s.

    Draws with 0 < s <= 20 first sum the cdf (``_poisson_quantile_summed``),
    which certifies k when u lies more than 1e-12 from both cdf values
    around it; that k is the search's.  Every other draw is
    ``_count_quantile_search``'s, approximate from a mean of 2**52.  ``pdtr``
    reads a cdf below the smallest normal float (2.2e-308) as 0, so u below
    it may land above the exact quantile; stream uniforms are >= 2**-54.
    Edge inputs reach neither (``_count_quantile_edges``); negative s counts as 0.
    Inputs of one shape take no broadcast, and a batch summed whole no clamp or edge pass.
    """
    s, u = np.asarray(s, dtype=float), np.asarray(u, dtype=float)
    if s.shape != u.shape:
        s, u = np.broadcast_arrays(s, u)
    shape, s, u = s.shape, s.ravel(), u.ravel()
    if _summed_whole(s, u):
        out, certified = _poisson_quantile_summed(s, u)  # every draw summed: no masks or edges
        rest = np.flatnonzero(~certified)
    else:
        s = np.maximum(s, 0.0)
        out = _count_quantile_edges(s, u, np.full(s.shape, np.nan))
        inner = (s > 0.0) & (s < np.inf) & (u > 0.0) & (u < 1.0)
        small = np.flatnonzero(inner & (s <= _SUMMED_MEAN))
        if small.size:
            out[small], certified = _poisson_quantile_summed(s[small], u[small])
            inner[small[certified]] = False
        rest = np.flatnonzero(inner)
    if rest.size:
        out[rest] = _count_quantile_search(s[rest], u[rest], _poisson_cdf, _poisson_sf)
    return out.reshape(shape)


def _summed_whole(s, u) -> bool:
    """True when every draw of the (n,) batch is summed first: n > 0, 0 < s <= 20 and 0 < u < 1."""
    return s.size > 0 and 0.0 < s.min() and s.max() <= _SUMMED_MEAN and 0.0 < u.min() and u.max() < 1.0


def _count_quantile_edges(s, u, out):
    """Set the edge outcomes of a count quantile in ``out`` (s >= 0 already).

    s = 0 and u = 0 give 0, u = 1 and s = inf give inf; NaN in s or u and
    u outside [0, 1] are left as they are (NaN).
    """
    valid = (s >= 0.0) & (u >= 0.0) & (u <= 1.0)  # False on NaN
    out[valid & ((u == 1.0) | (s == np.inf))] = np.inf
    out[valid & ((u == 0.0) | (s == 0.0))] = 0.0
    return out


@dataclass(frozen=True)
class Poisson(ObservationKernel):
    tag = ("family", "poisson")

    domain_lower = 0.0

    def sample(self, s, rng):
        """``rng.poisson(s)``; a mean above numpy's bound (about 9.2e18) is the
        quantile of a fresh uniform, ``sample_inverse(s, rng.random())``, as a float."""
        try:
            return rng.poisson(s)
        except ValueError:
            big = np.asarray(s) > _POISSON_LAM_MAX
            if not big.any():  # a negative or NaN mean
                raise
        # numpy checks every mean before it draws, so the refused call took no words
        y = np.where(big, self.sample_inverse(s, rng.random(big.shape)),
                     rng.poisson(np.where(big, 0.0, s)))
        return float(y) if y.ndim == 0 else y

    def sample_inverse(self, s, u):
        """Poisson quantile, the smallest k with F(k) >= u under ``_poisson_cdf`` (by
        ``_poisson_quantile``), finite at every finite mean.  s = 0 and u = 0 give 0,
        u = 1 and s = inf give inf, NaN gives NaN, all at once.
        """
        return _poisson_quantile(s, u)

    def _tv_exact_impl(self, s, sp):
        # for s < s' the pmf ratio (s'/s)^k e^(s - s') rises in k, so p(.|s) exceeds p(.|s')
        # exactly up to k* (0 at s = 0, delta_0): TV = F_s(k*) - F_s'(k*)
        s, sp = sorted((float(s), float(sp)))
        if (sp - s) / (math.sqrt(sp) + math.sqrt(s)) > 9.0:
            # the overlap is below the Bhattacharyya coefficient exp(-(sqrt s' - sqrt s)^2 / 2) <
            # 3e-18, so TV rounds to 1; this also covers means whose float spacing exceeds 18
            # standard deviations, where k* would round to s or s'
            return 1.0
        k = 0.0 if s == 0.0 else float(math.floor((sp - s) / math.log1p((sp - s) / s)))
        return max(float(_poisson_cdf(k, s) - _poisson_cdf(k, sp)), 0.0)  # rounding may dip below 0

    def _pdf(self, y, s):
        # the pmf times y^y e^-y / y!: exp(y log1p((s - y)/y) - (s - y)), e^-s at y = 0;
        # it peaks at 1 for s = y, so the bulk does not underflow at any mean
        if s == 0.0:
            return (y == 0.0).astype(float)
        d = s - y
        return np.exp(y * np.log1p(np.maximum(d / np.maximum(y, 1.0), _LOG1P_FLOOR)) - d)


@dataclass(frozen=True)
class NegBinomial(ObservationKernel):
    """NB(r, s/(s+r)) parameterized by its mean s; gamma-Poisson mixture."""

    r: int = 1
    tag = ("family", "negbinomial")

    def __post_init__(self):
        if not 1 <= self.r < math.inf or int(self.r) != self.r:
            raise InvalidSpec("negative binomial r must be a positive integer")

    domain_lower = 0.0

    def _pq(self, s):
        # numpy's negative_binomial counts failures before r successes with success probability
        # p; mean r(1-p)/p = s gives p = r/(r+s), and the failure probability is q = s/(r+s)
        s = np.asarray(s, dtype=float)
        return self.r / (self.r + s), s / (self.r + s)

    def _cdf(self, k, s):
        """F(k) = I_p(r, k + 1) = 1 - I_q(k + 1, r), elementwise, scipy passed whichever of p and q
        lies below 1/2: p alone rounds away s/r at large r (TV at (1, 2) 0.33 off at r = 1e18), and
        q alone r/s at large s (1.2e-5 off at r = 2, s = 1e12)."""
        p, q = self._pq(s)
        return np.where(p < 0.5, special.betainc(self.r, k + 1.0, p), special.betaincc(k + 1.0, self.r, q))[()]

    def _sf(self, k, s):
        """1 - F(k) = I_q(k + 1, r) by the rule of ``_cdf``: ``betainc(k + 1, r, q)`` for q < 1/2,
        else ``betaincc(r, k + 1, p)``; the upper tail is never 1 less a rounded cdf."""
        p, q = self._pq(s)
        return np.where(q < 0.5, special.betainc(k + 1.0, self.r, q), special.betaincc(self.r, k + 1.0, p))[()]

    def sample(self, s, rng):
        """``rng.negative_binomial``.  Where numpy refuses the mean (above about 1.4e18 at
        r = 3), numpy's own mixture Poisson(Gamma(r) (1 - p)/p), whose Poisson step
        (``Poisson.sample``) takes any finite mean; a float then."""
        p, _ = self._pq(s)
        try:
            return rng.negative_binomial(self.r, p)
        except ValueError:
            # numpy's own test, on the largest Poisson rate its gamma mixture may ask for
            if not np.any((1.0 - p) / p * (self.r + 10.0 * math.sqrt(self.r)) > _POISSON_LAM_MAX):
                raise  # a negative or NaN mean
        # numpy checks every mean before it draws, so the refused call took no words
        lam = rng.standard_gamma(self.r, np.shape(p)) * ((1.0 - p) / p)
        y = np.asarray(Poisson().sample(lam, rng), float)
        return float(y) if y.ndim == 0 else y

    def sample_inverse(self, s, u):
        """The smallest k with F(k) >= u under ``_cdf`` (read through ``_sf`` for u > 1/2), by
        ``_count_quantile_search``, with the edge outcomes of ``Poisson.sample_inverse``;
        negative s counts as 0.  For u near 1 at r = 1 the quantile
        passes 2**53, where it is exact only to float spacing, from a mean of about 2.4e14.
        From a mean of 2**52 it is the gamma mixture's quantile ceil((s / r) P^-1(r, u)), P the
        regularized lower incomplete gamma: approximate, as the Poisson quantile is there.
        """
        r = self.r
        s, u = np.broadcast_arrays(np.maximum(np.asarray(s, dtype=float), 0.0),
                                   np.asarray(u, dtype=float))
        out = _count_quantile_edges(s, u, np.full(s.shape, np.nan))
        inner = (s > 0.0) & (s < np.inf) & (u > 0.0) & (u < 1.0)
        big = inner & (s >= _EXACT_QUANTILE_MEAN)
        out[big] = np.ceil(s[big] / r * special.gammaincinv(r, u[big]))
        small = inner & ~big
        out[small] = _count_quantile_search(s[small], u[small], self._cdf, self._sf, 1.0 / r)
        return out

    def _pdf(self, y, s):
        # p^r (1 - p)^y over its peak in s (at s = y), a factor of y alone: its log,
        # r log((r + y)/(r + s)) + y log1p(r (s - y)/(y (r + s))), has terms of order r
        if s == 0.0:
            return (y == 0.0).astype(float)
        r = self.r
        x = r * (s - y) / (np.maximum(y, 1.0) * (r + s))
        return np.exp(r * np.log((r + y) / (r + s)) + y * np.log1p(np.maximum(x, _LOG1P_FLOOR)))

    def tv_bound_sharp(self, s, sp) -> float:
        """Intermediate mixture bound 1 - (1 + h/r)^(-r), tighter than phi."""
        self.require_domain(s, sp)
        h = self.state_distance(s, sp)
        return float(1.0 - (1.0 + h / self.r) ** (-self.r))

    def _tv_exact_impl(self, s, sp):
        # for s < s' the pmf ratio ((r + s)/(r + s'))^r (s' (r + s)/(s (r + s')))^k rises in k:
        # TV = F_s(k*) - F_s'(k*) = sf_s'(k*) - sf_s(k*) at its crossing k* (0 at s = 0), by ``_sf``
        # (1 - F is 5.7e-9 off at s = 7.7e8, r = 2); k* lies in [s, s'], as in any exponential
        # family, and its denominator underflows only for adjacent means above 4e307
        s, sp = sorted((float(s), float(sp)))
        r, d = self.r, sp - s
        den = math.log1p(d / s * (r / (r + sp))) if s else math.inf
        k = float(math.floor(min(r * math.log1p(d / (r + s)) / den, sp) if den else s))
        return max(float(self._sf(k, sp) - self._sf(k, s)), 0.0)


# ---------------------------------------------------------------------------
# binary families
# ---------------------------------------------------------------------------

class _Bernoulli(_NoiseKernel):
    outcomes = (0, 1)
    _pair_bases = _CENTERED_BASES
    _centered = True

    def _success(self, s):
        raise NotImplementedError

    def _draw_one(self, s, e):
        return int(e < self._success(s))  # one chain: a Python int

    def _draw_batch(self, s, e):
        return (e < self._success(s)).astype(np.int64)

    def sample_inverse(self, s, u):
        """1 where u > 1 - p(s), as int64 (an int for one draw)."""
        p1 = self._success(np.asarray(s, dtype=float))
        out = (np.asarray(u) > 1.0 - p1).astype(np.int64)
        return out if out.ndim else int(out)

    def _pdf(self, y, s):
        p1 = self._success(s)
        return np.array([1.0 - p1, p1])[y.astype(np.intp)]

    def _tv_exact_impl(self, s, sp):
        return abs(float(self._success(s)) - float(self._success(sp)))

    def conditional_moment(self, s):
        return float(self._success(float(s))), 1.0


# A uniform this far from its threshold decides a logit draw under either p of ``_logistic``
_LOGIT_MARGIN = 1e-12


def _logistic(s):
    """p = 1 / (1 + e^-s) by numpy's exp, a new array: over 10^7 states it differs from
    ``expit`` in 2% of values, by at most 2.2e-16.  Past s < -709, e^-s is inf and p = 0."""
    with np.errstate(over="ignore"):
        e = np.exp(-s)
    e += 1.0
    return np.divide(1.0, e, out=e)


@dataclass(frozen=True)
class BernoulliLogit(_Bernoulli):
    tag = ("family", "bernoulli_logit")

    def _success(self, s):
        return special.expit(s)

    def sample_inverse(self, s, u):
        """``_Bernoulli``'s draw at expit's threshold 1 - p.  An (n,) float batch thresholds
        p = ``_logistic(s)`` by numpy's exp instead: the two p differ by at most 2.2e-16, so each
        draw with u more than ``_LOGIT_MARGIN`` from the threshold is expit's, and only the rest
        load ``scipy.special`` and redraw with expit."""
        if not _float_batch(s, u):
            return super().sample_inverse(s, u)
        q = _logistic(s)
        np.subtract(1.0, q, out=q)
        out = (u > q).astype(np.int64)
        gap = np.abs(np.subtract(u, q, out=q), out=q)
        if not gap.min() > _LOGIT_MARGIN:  # a NaN is redrawn too
            near = np.flatnonzero(~(gap > _LOGIT_MARGIN))
            out[near] = u[near] > 1.0 - special.expit(s[near])
        return out


@dataclass(frozen=True)
class BernoulliProbit(_Bernoulli):
    tag = ("family", "bernoulli_probit")

    def _success(self, s):
        return special.ndtr(s)

    def phi(self):
        # y = 1{s + eps > 0} with eps ~ N(0, 1): the TV is at most the unit Gaussian location family's
        return GaussianNoise().rate()


# ---------------------------------------------------------------------------
# multinomial family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Multinomial(_NoiseKernel):
    """Categories {0..N-1}; p(i|s) = exp(s_i)/S(s), S(s) = 1 + sum exp(s_j)."""

    n_categories: int = 2
    tag = ("family", "multinomial")
    state_shape = property(lambda self: (self.n_categories - 1,))
    outcomes = property(lambda self: range(self.n_categories))

    def __post_init__(self):
        if not 2 <= self.n_categories <= MAX_DIMENSION:
            raise InvalidSpec(f"multinomial needs 2..{MAX_DIMENSION} categories")

    def domain_contains(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return s.shape[-1:] == self.state_shape and bool(np.all(np.isfinite(s)))

    def probabilities(self, s):
        """Category probabilities; rows of a batch sum to 1."""
        s = np.atleast_2d(np.asarray(s, dtype=float))
        z = np.concatenate([np.zeros((s.shape[0], 1)), s], axis=1)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def sample_inverse(self, s, u):
        idx = (np.cumsum(self.probabilities(s), axis=1) < np.reshape(u, (-1, 1))).sum(axis=1)
        return idx if np.ndim(s) > 1 or np.ndim(u) else int(idx[0])

    _from_noise = _draw_one = sample_inverse

    def _pdf(self, y, s):
        return self.probabilities(s)[0, y.astype(np.intp)]

    def _tv_exact_impl(self, s, sp):
        return float(0.5 * np.abs(self.probabilities(s)[0] - self.probabilities(sp)[0]).sum())

    def conditional_moment(self, s):
        # one-hot observation vector: |y|_inf is 1 off category 0, else 0
        return float(1.0 - self.probabilities(s)[0, 0]), 1.0

    def standard_pairs(self, n_pairs=200):
        d, = self.state_shape
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


# ---------------------------------------------------------------------------
# continuous families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GarchGaussian(_NoiseKernel):
    """y|s = sqrt(s) eps with standard normal eps; states s >= c_minus > 0."""

    c_minus: float = 1.0
    tag = ("family", "garch_gaussian")
    discrete = False
    moment_order = 2
    _pair_bases = property(lambda self: tuple(f * self.c_minus for f in (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)))

    def __post_init__(self):
        try:  # phi's rate: 5e-324 divides by zero, 1e-215 gives inf, 1e206 overflows
            ok = self.c_minus > 0 and 0 < 1.0 / (2.0 * self.c_minus**1.5) < math.inf
        except ArithmeticError:
            ok = False
        if not ok:
            raise InvalidSpec("c_minus must be positive with a finite phi rate 1 / (2 c_minus^1.5)")

    domain_lower = property(lambda self: self.c_minus - 1e-12)

    def domain_floor(self):
        return self.c_minus

    def _noise(self, shape, rng):
        return rng.standard_normal(shape)

    def _draw_one(self, s, e):
        return math.sqrt(s) * e

    def _draw_batch(self, s, e):
        return np.sqrt(s) * e

    def sample_inverse(self, s, u):
        return np.sqrt(np.asarray(s, dtype=float)) * special.ndtri(u)

    def _pdf(self, y, s):
        return np.exp(-np.asarray(y) ** 2 / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)

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


@dataclass(frozen=True)
class GaussianNoise(Spec):
    tag = ("name", "gaussian")
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.inf > self.sigma > 0 and 2 * self.sigma * self.sigma > 0):  # the moment's exponent divides by it
            raise InvalidSpec("sigma must be finite and positive, with 2 sigma^2 > 0 in floats")

    def pdf(self, y):
        return np.exp(-np.asarray(y) ** 2 / (2.0 * self.sigma**2)) / (self.sigma * math.sqrt(2 * math.pi))

    def ppf(self, u):
        return self.sigma * special.ndtri(u)

    def tv(self, h):
        return math.erf(h / (2.0 * math.sqrt(2.0) * self.sigma))

    def draw(self, n, rng):
        return self.sigma * rng.standard_normal(n)

    def mean_abs(self):
        return self.sigma * math.sqrt(2.0 / math.pi)

    def rate(self) -> PhiSpec:
        D = _gaussian_location_rate(self.sigma)
        return PhiSpec(((1, D), (2, D)))


@dataclass(frozen=True)
class LaplaceNoise(Spec):
    tag = ("name", "laplace")
    b: float = 1.0

    def __post_init__(self):
        if not math.inf > self.b > 0:
            raise InvalidSpec("b must be finite and positive")

    def pdf(self, y):
        return np.exp(-np.abs(np.asarray(y)) / self.b) / (2.0 * self.b)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):  # np.where takes both logs: u = 0 and u = 1 give -inf and inf
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


@dataclass(frozen=True)
class StudentTNoise(Spec):
    tag = ("name", "student_t")
    nu: float = 3.0

    def __post_init__(self):
        if not math.inf > self.nu >= 2:
            raise InvalidSpec("Student noise needs a finite nu >= 2")

    @functools.cached_property
    def _pdf_const(self):
        # direct pdf; scipy's distribution call overhead would dominate the
        # rejection coupling, which evaluates it on every proposal
        nu = self.nu
        return math.exp(special.gammaln((nu + 1) / 2.0) - special.gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi))

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return self._pdf_const * (1.0 + y * y / self.nu) ** (-(self.nu + 1) / 2.0)

    def ppf(self, u):
        """Student-t quantile: ``stdtrit``, which is ``stats.t.ppf`` on (0, 1); u = 0 gives -inf,
        u = 1 inf, NaN and u outside [0, 1] NaN.  Far-tail accuracy is ``stdtrit``'s, except that
        where it (and scipy) returns +inf for u < 1/2, below about u = 1e-222, this is -inf.
        Stream uniforms are >= 2**-54, so draws never reach it."""
        u = np.asarray(u, dtype=float)
        x = special.stdtrit(self.nu, u)
        return np.where((u < 0.5) & (x > 0.0), -np.inf, x)[()]

    def tv(self, h):
        return 2.0 * float(special.stdtr(self.nu, h / 2.0)) - 1.0

    def draw(self, n, rng):
        return rng.standard_t(self.nu, n)

    def mean_abs(self):
        n = self.nu
        lg = special.gammaln((n + 1) / 2.0) - special.gammaln(n / 2.0)
        return 2.0 * math.sqrt(n) * math.exp(lg) / ((n - 1) * math.sqrt(math.pi))

    def rate(self) -> PhiSpec:
        # polynomial tails dominate any exponential, so a linear phi works
        return PhiSpec(((1, _student_location_rate(self.nu)),))


@dataclass(frozen=True)
class Location(_NoiseKernel):
    """y|s = s + eps with symmetric unimodal noise; autoregressions with noise."""

    noise: GaussianNoise | LaplaceNoise | StudentTNoise = GaussianNoise()
    tag = ("family", "location")
    discrete = False
    _pair_bases = _CENTERED_BASES
    _centered = True

    def _noise(self, shape, rng):
        return self.noise.draw(shape, rng)

    _draw_one = _draw_batch = staticmethod(operator.add)  # s + e

    def sample_inverse(self, s, u):
        return np.asarray(s, dtype=float) + self.noise.ppf(u)

    def _pdf(self, y, s):
        return self.noise.pdf(np.asarray(y) - s)

    def phi(self):
        return self.noise.rate()

    def _tv_exact_impl(self, s, sp):
        # symmetric unimodal noise: the densities cross once, at the midpoint,
        # so TV is the noise's own distance to its shift (``noise.tv``)
        return self.noise.tv(abs(float(sp) - float(s)))

    def conditional_moment(self, s):
        s = float(s)
        if isinstance(self.noise, GaussianNoise):
            sig = self.noise.sigma
            val = (sig * math.sqrt(2.0 / math.pi) * math.exp(-s * s / (2 * sig * sig))
                   + s * (1.0 - 2.0 * special.ndtr(-s / sig)))
        elif isinstance(self.noise, LaplaceNoise):
            val = abs(s) + self.noise.b * math.exp(-abs(s) / self.noise.b)
        else:
            # E|a + T| = a (1 - 2F(-a)) + 2 (nu + a^2) f(a) / (nu - 1), even in s
            a, nu = abs(s), self.noise.nu
            val = a * (1.0 - 2.0 * special.stdtr(nu, -a)) + 2.0 * (nu + a * a) * float(self.noise.pdf(a)) / (nu - 1.0)
        return float(val), float(self.noise.mean_abs())


KernelSpec = Poisson | NegBinomial | BernoulliLogit | BernoulliProbit | Multinomial | GarchGaussian | Location
