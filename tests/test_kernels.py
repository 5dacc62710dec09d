"""Kernel families: sampling, phi rates, the TV oracle, and maximal coupling."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats
from scipy.special import betainc, betaincc, expit, gammaln, log_ndtr, ndtr, ndtri, pdtr, pdtrc

import obsdriven as od
from obsdriven import kernels
from obsdriven._codec import from_dict
from obsdriven.errors import CouplingBudgetExceeded, DomainViolation, InvalidSpec
from obsdriven.kernels import KernelSpec
from obsdriven.rngstream import generator

from conftest import all_kernels, hypothesis_settings


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_poisson_at_zero_is_point_mass():
    k = od.Poisson()
    rng = generator(1)
    assert all(k.sample(0.0, rng) == 0 for _ in range(50))
    assert np.all(k.sample_inverse(np.zeros(100), rng.random(100)) == 0)


def _poisson_inputs(st, max_mean, u=None):
    if u is None:
        u = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return st.floats(0.0, max_mean), u


def _count_cdfs(kernel):
    """(F, 1 - F) of a count kernel as functions of (k, s): the float cdfs its quantile reads."""
    if kernel.family == "poisson":
        return kernels._poisson_cdf, kernels._poisson_sf
    r = kernel.r
    return (lambda k, s: betainc(r, k + 1.0, r / (r + s)), lambda k, s: betaincc(r, k + 1.0, r / (r + s)))


def _check_count_quantile(kernel, s, u, ppf=None):
    """Assert the quantile's own definition and, where u is clear of the jumps, scipy's ``ppf``.

    F(k - 1) < u <= F(k) under the family's float cdf (F(-1) = 0), read for
    u > 1/2 as 1 - F(k) <= 1 - u < 1 - F(k - 1); and k == ppf(u, s) wherever
    u lies more than 1e-9 u from both F(k - 1) and F(k) and s <= 1e5, and
    above the smallest normal float, below which ``pdtr`` reads 0.  Returns
    the number of draws compared with ``ppf``.
    """
    s, u = (a.ravel() for a in np.broadcast_arrays(np.asarray(s, float), np.asarray(u, float)))
    k = np.ravel(kernel.sample_inverse(s, u))
    cdf, sf = _count_cdfs(kernel)
    below = np.maximum(k - 1.0, 0.0)
    f_lo, f_hi = np.where(k > 0.0, cdf(below, s), 0.0), cdf(k, s)
    upper_ok = (sf(k, s) <= 1.0 - u) & (1.0 - u < np.where(k > 0.0, sf(below, s), 1.0))
    bad = ~np.where(u > 0.5, upper_ok, (f_lo < u) & (u <= f_hi))
    assert not bad.any(), (kernel, s[bad][:5], u[bad][:5], k[bad][:5])
    if ppf is None:
        return 0
    clear = (s <= 1e5) & (u - f_lo > 1e-9 * u + np.finfo(float).tiny) & (f_hi - u > 1e-9 * u)
    np.testing.assert_array_equal(k[clear], ppf(u[clear], s[clear]))
    return int(clear.sum())


def test_poisson_quantile_matches_scipy_where_finite():
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(*_poisson_inputs(st, 1e10))
    def check(s, u):
        _check_count_quantile(od.Poisson(), s, u, sstats.poisson.ppf)

    check()


def test_poisson_quantile_search_matches_scipy_in_the_bulk():
    # the search that every draw above a mean of 20 takes is scipy's quantile
    # wherever the cdfs are accurate: within 4 standard deviations
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(*_poisson_inputs(st, 1e10, st.floats(ndtr(-4.0), ndtr(4.0))))
    def check(s, u):
        got = kernels._count_quantile_search(np.array([s]), np.array([u]), *_count_cdfs(od.Poisson()))[0]
        assert got == sstats.poisson.ppf(u, s)

    check()


def test_poisson_quantile_nondecreasing_in_u():
    hyp, st, settings = hypothesis_settings()
    s_st, u_st = _poisson_inputs(st, 1e15)
    families = st.sampled_from([od.Poisson(), od.NegBinomial(1), od.NegBinomial(3), od.NegBinomial(50)])

    @settings
    @hyp.given(families, s_st, u_st, u_st)
    def check(kernel, s, u1, u2):
        lo, hi = kernel.sample_inverse(s, np.array([min(u1, u2), max(u1, u2)]))
        assert lo <= hi

    check()


def test_poisson_quantile_finite_up_to_mean_1e15():
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(*_poisson_inputs(st, 1e15))
    def check(s, u):
        k = od.Poisson().sample_inverse(s, u)
        assert np.isfinite(k) and k >= 0 and k == np.floor(k)

    check()


def test_poisson_quantile_edge_inputs_return_at_once(monkeypatch):
    def never(*args):
        raise AssertionError("edge input reached the quantile computation")

    monkeypatch.setattr(kernels, "_count_quantile_search", never)
    monkeypatch.setattr(kernels, "_poisson_quantile_summed", never)
    s = np.array([np.inf, np.nan, 3.0, 3.0, 3.0, 3.0, 0.0, np.inf])
    u = np.array([0.5, 0.5, np.nan, 0.0, 1.0, 1.5, 0.7, 1.0])
    got = od.Poisson().sample_inverse(s, u)
    np.testing.assert_array_equal(got, [np.inf, np.nan, np.nan, 0.0, np.inf, np.nan, 0.0, np.inf])


def test_negbinomial_quantile_edge_inputs():
    s = np.array([np.inf, np.nan, 3.0, 3.0, 3.0, 3.0, 0.0, np.inf, -1.0])
    u = np.array([0.5, 0.5, np.nan, 0.0, 1.0, 1.5, 0.7, 1.0, 0.5])
    got = od.NegBinomial(2).sample_inverse(s, u)
    np.testing.assert_array_equal(got, [np.inf, np.nan, np.nan, 0.0, np.inf, np.nan, 0.0, np.inf, 0.0])


def test_poisson_quantile_matches_scipy_at_cdf_jumps():
    # u = pdtr(k, s) and its float neighbours sit on and beside a jump of the
    # cdf, where only the definition binds; u = pdtr(k, s) (1 +- 3e-9) is clear
    # of it, where scipy's quantile must be the search's too
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(st.one_of(st.floats(0.0, 1e10), st.floats(-3.0, 10.0).map(lambda e: 10.0**e)),
               st.floats(-6.0, 6.0), st.sampled_from([-2, -1, 0, 1, 2]))
    def check(s, z, side):
        k = max(math.floor(s + z * math.sqrt(s)), 0)
        u = float(pdtr(k, s))
        if abs(side) == 1:
            u = math.nextafter(u, side * math.inf)
        elif side:
            u *= 1.0 + math.copysign(3e-9, side)
        hyp.assume(0.0 < u < 1.0)
        _check_count_quantile(od.Poisson(), s, u, sstats.poisson.ppf)

    check()


def test_poisson_quantile_is_the_50_digit_quantile_where_pdtr_drifts():
    # 4.5 standard deviations above the first three means cephes' pdtr drops
    # part of the upper tail, and at the fourth draw it rounds near 1, so a
    # search on pdtr alone lands below the quantile; the third draw sits in
    # pdtr's 3e-6 jump between adjacent k at s = 6.9e9.  The search reads that
    # tail through its survival function (pdtrc, and Temme's expansion beyond
    # 4.5 deviations) and lands on the 50-digit quantile (scipy 1.17 lands
    # one below it at all four, pdtr alone 10 308 below at the third); so it
    # does at means from 1e5 to 1e10 in both tails, 3 to 8 deviations out,
    # where both pdtr and Temme's terms are read
    mp = pytest.importorskip("mpmath").mp
    s = np.array([3748452.024508666, 8108291.920843777, 6.9e9, 1868.32])
    u = np.array([0.9999972414486797, 0.9999978904155897, 0.9999981194030738, 1.0 - 2.0**-53])
    k = od.Poisson().sample_inverse(s, u)
    np.testing.assert_array_equal(k, [3757253.0, 8121395.0, 6900384115.0, 2234.0])
    assert np.all(kernels._count_quantile_search(s, u, pdtr, lambda k, s: 1.0 - pdtr(k, s)) < k)
    rng = generator(67)
    sampled = np.repeat(10.0 ** rng.uniform(5.0, 10.0, 8), 2)
    s = np.append(s, sampled)
    u = np.append(u, ndtr(rng.uniform(3.0, 8.0, sampled.size) * np.tile([-1.0, 1.0], 8)))
    with mp.workdps(50):
        for si, ui, ki in zip(s, u, od.Poisson().sample_inverse(s, u)):
            assert _mp_poisson_cdf(mp, mp.mpf(ki) - 1, mp.mpf(si)) < ui <= _mp_poisson_cdf(mp, mp.mpf(ki), mp.mpf(si))


def test_poisson_bulk_draws_do_not_call_scipy():
    # the bulk of the draws is scipy's quantile, with no scipy quantile left to call
    rng = generator(17)
    s, u = rng.uniform(0.5, 50.0, 2000), rng.random(2000)
    assert not hasattr(kernels, "pdtrik")
    np.testing.assert_array_equal(od.Poisson().sample_inverse(s, u), sstats.poisson.ppf(u, s))


def test_poisson_summed_route_is_the_searched_route():
    # draws at s <= 20 sum the cdf; on a jump, beside it, within 1e-9 u of
    # the jump below, in the tails and at means either side of 20 the quantile
    # must still be the search's
    hyp, st, settings = hypothesis_settings()
    means = st.one_of(
        st.floats(0.0, 20.0, exclude_min=True),
        st.floats(-6.0, math.log10(20.0)).map(lambda e: 10.0**e),
        st.integers(-4, 4).map(lambda i: 20.0 + i * 2.0**-48),
        st.floats(19.9, 20.1),
    )

    @settings
    @hyp.given(means, st.integers(-1, 60), st.sampled_from(["jump", "gap", "tail", "free"]),
               st.integers(-2, 2), st.floats(0.0, 1.0))
    def check(s, k, where, ulps, frac):
        if where == "jump":  # u = pdtr(k, s) and its float neighbours
            u = float(pdtr(k, s))
            for _ in range(abs(ulps)):
                u = math.nextafter(u, math.copysign(math.inf, ulps))
        elif where == "gap":  # within about 1e-9 u of pdtr(k - 1, s), above or below
            p = float(pdtr(k - 1, s)) if k > 0 else 0.0
            u = p * (1.0 + (2.0 * frac - 0.5) * 2e-9) + ulps * 1e-12
        elif where == "tail":  # either side of the 1e-12 tails
            u = frac * 2e-12 if ulps < 0 else 1.0 - frac * 2e-12
        else:
            u = frac
        hyp.assume(0.0 < u < 1.0)
        s_, u_ = np.array([s]), np.array([u])
        assert kernels._poisson_quantile(s_, u_)[0] == kernels._count_quantile_search(s_, u_, *_count_cdfs(od.Poisson()))[0]

    check()


def test_poisson_search_sees_only_the_uncertified_draws(monkeypatch):
    rng = generator(23)
    bulk_s, bulk_u = rng.uniform(0.0, 20.0, 1000), rng.random(1000)
    # at 20, within 1e-9 u above a jump, and a tail draw 2e-12 clear of the margin
    bulk_s[:4], bulk_u[:4] = (20.0, 7.0, 7.0, 3.0), (0.5, pdtr(4, 7.0) * (1.0 + 5e-10),
                                                     (pdtr(4, 7.0) + 5e-13) / (1.0 - 1e-9), 3e-12)
    # past 20, in the tails, on and beside a jump, and within the margin of one
    rest_s = np.array([np.nextafter(20.0, np.inf), 35.0, 3.0, 3.0, 1.0, 1.0, 1.0, 7.0])
    rest_u = np.array([0.5, 0.3, 1e-12, 1.0 - 1e-12, pdtr(3, 1.0), np.nextafter(pdtr(3, 1.0), np.inf),
                       np.nextafter(pdtr(3, 1.0), 0.0), pdtr(4, 7.0) + 5e-13])
    s, u = np.concatenate([bulk_s, rest_s]), np.concatenate([bulk_u, rest_u])
    seen = []
    search = kernels._count_quantile_search

    def recording(s, u, *args):
        seen.append((s.copy(), u.copy()))
        return search(s, u, *args)

    monkeypatch.setattr(kernels, "_count_quantile_search", recording)
    assert _check_count_quantile(od.Poisson(), s, u, sstats.poisson.ppf) >= 1000
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], rest_s)
    np.testing.assert_array_equal(seen[0][1], rest_u)


def _masked_summed_quantile(s, u):
    """The summed route as one masked pass per term, before the row buffer: the oracle."""
    term = np.exp(-s)
    cdf = term.copy()
    below = np.zeros_like(s)
    k = np.zeros_like(s)
    for j in range(1, kernels._poisson_hi(20.0) + 1):
        low = cdf < u
        if not low.any():
            break
        np.copyto(below, cdf, where=low)
        k += low
        term *= s / j
        np.add(cdf, term, out=cdf, where=low)
    certified = (cdf - u > 1e-12) & (u - below > 1e-12)
    return k, certified


def test_poisson_summed_rows_match_the_masked_loop():
    # k and the certified flags, at means on (0, 20] down to 1e-300, on the
    # cdf's jumps and 1 or 2 ulps beside them, within 1e-9 u of them and in both tails
    rng = generator(41)
    n = 3000
    s = np.concatenate([rng.uniform(0.0, 20.0, n), 10.0 ** rng.uniform(-300.0, math.log10(20.0), n),
                        np.nextafter(20.0, 0.0) - rng.integers(0, 4, 50) * 2.0**-48, [20.0, 1e-300, 5e-324]])
    s = s[s > 0.0]
    k = np.floor(s + rng.uniform(-6.0, 8.0, s.size) * np.sqrt(s))
    jump = pdtr(np.maximum(k, 0.0), s)
    gap = np.where(k > 0, pdtr(k - 1.0, s), 0.0) * (1.0 + rng.uniform(-1.5e-9, 2.5e-9, s.size))
    tail = 10.0 ** rng.uniform(-16.0, -9.0, s.size)
    tails = np.where(rng.random(s.size) < 0.5, tail, 1.0 - tail)
    us = [rng.random(s.size), jump, gap, tails]
    for side in (0.0, 1.0):
        us += [np.nextafter(jump, side), np.nextafter(np.nextafter(jump, side), side)]
    s, u = np.tile(s, len(us)), np.concatenate(us)
    # above 1 - 1e-12 no draw is certified, and the rows end at a cap set per block
    keep = (u > 0.0) & (u < 1.0 - 1e-12)
    s, u = s[keep], u[keep]
    got, want = kernels._poisson_quantile_summed(s, u), _masked_summed_quantile(s, u)
    assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(got[1], want[1])
    assert 0 < np.count_nonzero(got[1]) < u.size  # both outcomes are exercised
    # one mean per call, as a backward step at a narrow spread of means calls it
    for i in rng.integers(0, s.size, 200):
        got_one, want_one = kernels._poisson_quantile_summed(s[i:i + 1], u[i:i + 1]), _masked_summed_quantile(
            s[i:i + 1], u[i:i + 1])
        assert (got_one[0][0], got_one[1][0]) == (want_one[0][0], want_one[1][0])
    # the rows are fixed from the block's largest mean and u: blocks whose largest u lies
    # within a few ulps of F(j; s_max) at the row where the scalar sum stops, with means a
    # few ulps below s_max, whose float F(j) often lies an ulp below F(j; s_max): the last
    # row, the spare one, then decides their k
    for s_max in rng.uniform(0.0, 20.0, 40):
        j = int(rng.integers(0, kernels._poisson_hi(s_max) // 2))
        top = _summed_cdf_row(s_max, j)
        for ulps in range(-3, 4):
            u_max = top
            for _ in range(abs(ulps)):
                u_max = np.nextafter(u_max, 1.0 if ulps > 0 else 0.0)
            s = np.append(rng.uniform(0.0, s_max, 30), s_max - np.arange(8) * np.spacing(s_max))
            u = np.append(rng.uniform(0.0, u_max, 30), np.full(8, u_max))
            got, want = kernels._poisson_quantile_summed(s, u), _masked_summed_quantile(s, u)
            assert got[0].tobytes() == want[0].tobytes()
            np.testing.assert_array_equal(got[1], want[1])


def _summed_cdf_row(s, j):
    """F(j; s) by the summed route's recurrence, for one mean."""
    term = np.exp(-np.array([s]))
    cdf = term.copy()
    for i in range(1, j + 1):
        term *= s / i
        cdf += term
    return float(cdf[0])


def test_poisson_summed_rows_stop_at_the_cap():
    # a block whose largest u lies above F(_poisson_hi(s_max)) (below 1: the float sum ends
    # short of 1 at some means) runs every row up to the cap, as the row loop always did:
    # that draw is left uncertified at k = _poisson_hi(s_max), and every other draw is summed
    rng = generator(47)
    s_max = next(s for s in rng.uniform(0.5, 20.0, 1000)
                 if _summed_cdf_row(s, kernels._poisson_hi(s)) < np.nextafter(1.0, 0.0))
    hi = kernels._poisson_hi(s_max)
    s = np.append(rng.uniform(0.0, s_max, 500), s_max)
    u = np.append(rng.random(500) * (1.0 - 1e-12), np.nextafter(_summed_cdf_row(s_max, hi), 1.0))
    k, certified = kernels._poisson_quantile_summed(s, u)
    assert (k[-1], certified[-1]) == (hi, False)
    want = _masked_summed_quantile(s[:-1], u[:-1])
    assert k[:-1].tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(certified[:-1], want[1])


def test_poisson_quantile_fast_path_is_the_gathered_route(monkeypatch):
    # a batch whose draws all fit the summed route skips the gathers and the
    # edge pass, and sends exactly its uncertified draws to the search;
    # its result equals the general route's on the same draws
    rng = generator(43)
    s, u = rng.uniform(0.01, 20.0, 4100), rng.uniform(1e-9, 1.0 - 1e-9, 4100)
    u[:3] = pdtr(np.array([2.0, 5.0, 0.0]), s[:3])  # on jumps: uncertified
    doubt = np.flatnonzero(~kernels._poisson_quantile_summed(s, u)[1])
    assert 3 <= doubt.size < 10
    edge = od.Poisson().sample_inverse(np.append(s, 0.0), np.append(u, 0.5))  # one edge draw: the general route
    seen, search = [], kernels._count_quantile_search

    def recording(s, u, *args):
        seen.append((s.copy(), u.copy()))
        return search(s, u, *args)

    def no_edges(*args):
        raise AssertionError("edge pass on the fast path")

    monkeypatch.setattr(kernels, "_count_quantile_search", recording)
    monkeypatch.setattr(kernels, "_count_quantile_edges", no_edges)
    fast = od.Poisson().sample_inverse(s, u)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], s[doubt])
    np.testing.assert_array_equal(seen[0][1], u[doubt])
    assert fast.tobytes() == edge[:-1].tobytes() and edge[-1] == 0.0
    assert _check_count_quantile(od.Poisson(), s, u, sstats.poisson.ppf) > 4000
    assert od.Poisson().sample_inverse(s[:6].reshape(2, 3), u[:6].reshape(2, 3)).shape == (2, 3)
    assert np.ndim(od.Poisson().sample_inverse(3.0, 0.5)) == 0


def _per_pass_search(s, u, cdf, sf, inv_r=0.0):
    """The count search as one re-indexed pass per probe over both halves, neighbour included: the oracle."""
    z, w = ndtri(u), s * inv_r
    k = np.maximum(np.ceil(s + np.sqrt(s * (1.0 + w)) * z + (1.0 + 2.0 * w) * (z * z - 1.0) / 6.0 - 0.5), 0.0)
    upper = u > 0.5

    def reached(k, i):  # F(k) >= u, read as 1 - F(k) <= 1 - u above 1/2; F(-1) = 0
        kk, si, ui = np.maximum(k, 0.0), s[i], u[i]
        return (k >= 0.0) & np.where(upper[i], sf(kk, si) <= 1.0 - ui, cdf(kk, si) >= ui)

    exact = s < 2.0**52
    every = np.arange(s.size)
    above = reached(k, every)
    hi = np.where(above | ~exact, k, np.inf)
    lo = np.where(~exact, k - 1.0, np.where(above, -np.inf, k))
    step = np.ones_like(k)
    for _ in range(128):
        act = np.flatnonzero(exact & (hi - lo > 1.0))
        if act.size == 0:
            break
        lo_a, hi_a, step_a = lo[act], hi[act], step[act]
        with np.errstate(invalid="ignore"):
            probe = np.where(
                hi_a == np.inf, lo_a + step_a,
                np.where(lo_a == -np.inf, np.maximum(hi_a - step_a, -1.0),
                         lo_a + np.floor((hi_a - lo_a) / 2.0)),
            )
        up = reached(probe, act)
        hi[act] = np.where(up, probe, hi_a)
        lo[act] = np.where(up, lo_a, probe)
        step[act] = 2.0 * step_a
    return hi, k


def test_poisson_search_matches_the_per_pass_search():
    # k bit for bit, for Poisson and the negative binomial: in the bulk, both
    # tails, on the cdf's jumps and 1 ulp beside them, and either side of 2**52,
    # from where the start is returned unsearched
    rng = generator(47)
    n = 3000
    s = np.concatenate([10.0 ** rng.uniform(-8.0, 12.0, n), rng.uniform(0.0, 60.0, n), [0.0, 1.0, 1e5],
                        2.0**52 + np.arange(-4.0, 5.0) * 2.0, 10.0 ** rng.uniform(15.0, 20.0, 20)])
    k = np.maximum(np.floor(s + rng.uniform(-7.0, 7.0, s.size) * np.sqrt(s)), 0.0)
    jump = pdtr(k, s)
    tails = 10.0 ** rng.uniform(-300.0, -1.0, s.size)
    us = [rng.random(s.size), tails, 1.0 - tails, jump, np.nextafter(jump, 0.0), np.nextafter(jump, 1.0),
          np.full(s.size, 2.0**-1074), np.full(s.size, 1.0 - 2.0**-53)]
    s, u = np.tile(s, len(us)), np.concatenate(us)
    keep = (u > 0.0) & (u < 1.0)
    s, u = s[keep], u[keep]
    cdfs = _count_cdfs(od.Poisson())
    got = kernels._count_quantile_search(s, u, *cdfs)
    want, start = _per_pass_search(s, u, *cdfs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(got[s >= 2.0**52], start[s >= 2.0**52])  # unsearched there
    s, u = s[s < 2.0**52], u[s < 2.0**52]
    bulk = (s >= 1.0) & (u > 1e-3) & (u < 1.0 - 1e-3)
    for r in (1, 3, 50):
        cdfs = _count_cdfs(od.NegBinomial(r))
        got = kernels._count_quantile_search(s, u, *cdfs, 1.0 / r)
        want, start = _per_pass_search(s, u, *cdfs, 1.0 / r)
        assert got.tobytes() == want.tobytes(), r
        # the skewness term of the start keeps it within a fifth of a standard deviation in the bulk
        sd = np.sqrt(s * (1.0 + s / r))
        assert np.quantile(np.abs(got - start)[bulk] / sd[bulk], 0.9) < 0.25, r


def test_poisson_sample_beyond_numpys_bound_is_an_inverse_draw():
    # rng.poisson refuses means above about 9.2e18; such a draw is the
    # quantile of one fresh uniform, and a batch keeps its other draws
    k = od.Poisson()
    bound = kernels._POISSON_LAM_MAX
    assert k.sample(np.nextafter(bound, 0.0), generator(3)) == generator(3).poisson(np.nextafter(bound, 0.0))
    for s in (np.nextafter(bound, np.inf), 1e20, 1e300):
        rng, ref = generator(3), generator(3)
        y = k.sample(s, rng)
        assert type(y) is float and y == k.sample_inverse(s, ref.random())
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
    y = k.sample(np.array([2.0, 1e20, 0.0]), generator(4))
    assert y[2] == 0.0 and y[0] == np.floor(y[0]) and abs(y[1] - 1e20) < 1e12
    for bad in (-1.0, math.nan, np.array([1e20, math.nan])):
        with pytest.raises(ValueError):
            k.sample(bad, generator(4))


def test_negbinomial_sample_beyond_numpys_bound_is_the_gamma_poisson_mixture():
    # rng.negative_binomial refuses (1 - p)/p (r + 10 sqrt(r)) above its Poisson bound,
    # a mean of about 1.36e18 at r = 3; the draw is then numpy's own mixture
    # Poisson(Gamma(r) (1 - p)/p), its Poisson step through Poisson.sample
    k = od.NegBinomial(3)
    assert k.sample(1e18, generator(3)) == generator(3).negative_binomial(3, 3 / (3 + 1e18))
    for s in (1.4e18, 1e20, 1e300):
        if s < 1e300:
            with pytest.raises(ValueError):
                generator(3).negative_binomial(3, 3 / (3 + s))
        rng, ref = generator(3), generator(3)
        y = k.sample(s, rng)
        p = 3 / (3 + s)
        assert type(y) is float and y == od.Poisson().sample(ref.standard_gamma(3, ()) * ((1 - p) / p), ref)
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        # the Poisson step is a relative 1/sqrt(mean) from its rate: y/s is Gamma(3, 1/3)
        y = k.sample(np.full(4000, s), generator(5))
        assert sstats.kstest(y / s, "gamma", args=(3, 0, 1 / 3)).pvalue > 1e-3
    y = k.sample(np.array([2.0, 1e20, 0.0]), generator(4))
    assert y[2] == 0.0 and y[0] == np.floor(y[0]) and 0.0 < y[1] < 1e22
    for bad in (-1.0, math.nan, np.array([1e20, math.nan])):
        with pytest.raises(ValueError):
            k.sample(bad, generator(4))


def test_poisson_quantile_at_means_where_scipy_is_nan():
    # scipy 1.17 returns NaN for about half of these draws
    s = np.full(2000, 1e12)
    u = generator(5).random(2000)
    k = od.Poisson().sample_inverse(s, u)
    z = (k - s) / np.sqrt(s)
    assert np.all(np.abs(z - sstats.norm.ppf(u)) < 1e-5)


_NB_GRID = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import obsdriven as od

u = np.array([2.0**-1074, 1e-300, 2.0**-54, 1e-10, 1e-3, 0.3, 0.5, 0.7, 0.999, 1 - 1e-10, 1 - 1e-14, 1 - 2.0**-53])
for r in (1, 3, 50):
    for s in np.append(np.logspace(0.0, 15.0, 16), [3e15, np.nextafter(2.0**52, 0.0), 2.0**52]):
        k = od.NegBinomial(r).sample_inverse(np.full(u.size, s), u)
        assert np.all(np.isfinite(k)) and np.all(np.diff(k) >= 0.0), (r, s, k)
print("ok")
"""


def test_negbinomial_quantile_returns_below_the_cut():
    # below a mean of 2**52 the draws go to the search, which must return at
    # every u, down to 2**-1074: boost's ppf, the route before it, took seconds
    # above s = 1e8 at u = 1 - 2**-53 and 0.66-3.0 s at u = 2**-1074 from
    # s = 1e15 at r = 50; a hang ends in the timeout
    src = str(Path(od.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _NB_GRID, src], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "ok"


def test_negbinomial_upper_half_is_the_ppf():
    # the search reads u > 1/2 through betaincc; in both halves it is boost's
    # ppf wherever u is clear of the cdf's jumps
    rng = generator(53)
    for r in (1, 3, 50):
        s = 10.0 ** rng.uniform(-3.0, 6.0, 5000)
        u = np.append(rng.random(4000), 1.0 - 10.0 ** rng.uniform(-16.0, -10.0, 1000))
        ppf = lambda u, s: sstats.nbinom.ppf(u, r, r / (r + s))
        assert _check_count_quantile(od.NegBinomial(r), s, u, ppf) > 3000


def test_negbinomial_quantile_at_huge_means_is_finite_and_monotone():
    # from 2**52 the gamma mixture's quantile, without a search (boost's ppf hung at 1e19)
    from scipy.special import gammaincinv

    u = np.sort(np.concatenate([generator(59).random(200), [2.0**-1074, 1e-300, 1e-10, 0.5, 1 - 1e-10,
                                                              1 - 2.0**-53]]))
    for r in (1, 3, 50):
        k = od.NegBinomial(r)
        for s in (2.0**52, np.nextafter(2.0**52, np.inf), 1e19, 1e20, 1e50, 1e100, 1e200, 1e300):
            y = k.sample_inverse(np.full(u.size, s), u)
            assert np.all(np.isfinite(y)) and np.all(np.diff(y) >= 0.0), (r, s)
            np.testing.assert_array_equal(y, np.ceil(s / r * gammaincinv(r, u)))
        assert k.sample_inverse(1e19, 0.0) == 0.0 and k.sample_inverse(1e19, 1.0) == np.inf
        assert np.isnan(k.sample_inverse(1e19, np.nan)) and np.isnan(k.sample_inverse(1e19, 1.5))
        # on either side of the cut the two quantiles differ by the Poisson step, 1/sqrt(s) relative
        bulk = u[(u > 1e-10) & (u < 1 - 1e-10)]
        below = k.sample_inverse(np.full(bulk.size, np.nextafter(2.0**52, 0.0)), bulk)
        above = k.sample_inverse(np.full(bulk.size, 2.0**52), bulk)
        assert np.all(np.abs(above - below) <= 1e-6 * np.maximum(above, 1.0) + 1.0), r


def _bounded_below_by_masks(s, floor):
    """The array branch of ``kernels._bounded_below`` as two masks and np.all: the oracle."""
    s = np.asarray(s, float)
    return bool(np.all((s >= floor) & (s < np.inf)))


def test_bounded_below_matches_the_masks():
    hyp, st, settings = hypothesis_settings()
    special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324, -5e-324, 1.7e308])
    values = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))
    floors = st.sampled_from([0.0, -0.0, 1.0, float(np.finfo(float).min)])

    @settings
    @hyp.given(st.lists(values, max_size=6), floors, st.booleans())
    def check(xs, floor, at_floor):
        if at_floor:
            xs = xs + [floor]
        s = np.array(xs, dtype=float)
        assert kernels._bounded_below(s, floor) is _bounded_below_by_masks(s, floor)
        for x in xs[:2]:  # 0-d arrays
            assert kernels._bounded_below(np.array(x), floor) is _bounded_below_by_masks(x, floor)
        assert kernels._bounded_below(s.reshape(-1, 1), floor) is _bounded_below_by_masks(s, floor)

    check()
    assert kernels._bounded_below(np.empty(0), 0.0) is True
    assert kernels._bounded_below(np.empty((0, 3)), 0.0) is True


def test_count_domains_exclude_non_finite_states():
    for k in (od.Poisson(), od.NegBinomial(2), od.GarchGaussian(1.0)):
        assert k.domain_contains(np.array([1.5, 2.0]))
        for bad in (np.inf, np.nan, np.array([1.0, np.inf])):
            assert not k.domain_contains(bad)


def test_logit_at_zero_is_fair_coin():
    k = od.BernoulliLogit()
    y = k.sample(np.zeros(10**5), generator(2))
    sigma = math.sqrt(0.25 / 10**5)
    assert abs(y.mean() - 0.5) < 3 * sigma


def test_negbinomial_mean_equals_state():
    # NB(r, s/(s+r)) has mean s
    k = od.NegBinomial(3)
    y = k.sample(np.full(10**5, 2.0), generator(3))
    sigma = math.sqrt(2.0 * (1 + 2.0 / 3) / 10**5)
    assert abs(y.mean() - 2.0) < 3 * sigma


@pytest.mark.parametrize("kernel", all_kernels() + [od.Multinomial(12)], ids=repr)
def test_batched_draw_is_the_per_row_loop(kernel):
    # one sample call on many states takes the generator's words row by row, as
    # couple_batch's batched draws rely on: the values and the generator's next word
    # must be a per-row loop's, at means on both sides of numpy's Poisson PTRS cut (10)
    # and for vector states
    def states(rng):
        if kernel.state_dim > 1:
            return rng.normal(0.0, 3.0, size=(1000, kernel.state_dim))
        floor = kernel.domain_floor()
        return rng.normal(0.0, 5.0, size=1000) if floor is None else floor + rng.exponential(3.0, size=1000)

    for seed in range(20):
        for scale in (1.0, 10.0):
            batched, looped = generator(seed, 2), generator(seed, 2)
            s = states(batched) * scale
            states(looped)
            got = kernel.sample(s, batched)
            want = np.asarray([kernel.sample(s[i], looped) for i in range(len(s))])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert batched.bit_generator.random_raw() == looped.bit_generator.random_raw()


def test_lean_inverse_draws_are_the_general_paths():
    # sample_inverse takes an (n,) float batch at uniforms of its shape by a lean path (a backward
    # loop's batches); with the lean paths off, every scalar family gives the same values and dtype
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(st.sampled_from([k for k in all_kernels() if k.state_dim == 1]), st.data())
    def check(kernel, data):
        floor, span = kernel.domain_floor(), data.draw(st.sampled_from((20.0, 800.0)))  # 20: Poisson sums all
        states = st.floats(-span, span) if floor is None else st.floats(floor, floor + span, exclude_min=True)
        # within 1e-11 of 0 or 1 the summed Poisson cdf certifies no draw: the search takes them
        unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.floats(
            0.0, 1e-11, exclude_min=True) | st.floats(1.0 - 1e-11, 1.0, exclude_max=True)
        n = data.draw(st.integers(1, 30))
        s = np.array(data.draw(st.lists(states, min_size=n, max_size=n)))
        u = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
        got = kernel.sample_inverse(s, u)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_float_batch", lambda s, u: False)
            want = kernel.sample_inverse(s, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    assert kernels._float_batch(np.zeros(3), np.full(3, 0.5))
    check()


def test_logit_lean_draws_near_the_threshold_are_expits():
    # the lean logit path thresholds at 1 - p with numpy's p, and redraws with expit within
    # 1e-12 of it: at u on expit's threshold 1 - expit(s) or up to 4 ulps off, and with numpy's
    # p off by up to 1e-13, every draw is still the draw at expit's threshold
    hyp, st, settings = hypothesis_settings()
    kernel, logistic = od.BernoulliLogit(), kernels._logistic

    @settings
    @hyp.given(st.lists(st.tuples(st.floats(-40.0, 40.0), st.integers(-4, 4), st.floats(0.0, 1.0)), min_size=1,
                        max_size=20), st.sampled_from((-1e-13, 0.0, 1e-13)))
    def check(rows, shift):
        s, ulps, far = (np.array(c) for c in zip(*rows))
        threshold = 1.0 - expit(s)
        near, toward = threshold.copy(), np.where(ulps < 0, -np.inf, np.inf)
        for k in range(4):
            near = np.where(k < np.abs(ulps), np.nextafter(near, toward), near)
        u = np.concatenate((threshold, near, far))
        s = np.tile(s, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_logistic", lambda s: logistic(s) + shift)
            got = kernel.sample_inverse(s, u)
        want = (u > 1.0 - expit(s)).astype(np.int64)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    check()


def test_logit_lean_draws_far_from_the_threshold_leave_scipy_unloaded():
    # numpy's p decides every draw more than 1e-12 from its threshold: no expit call
    s = np.linspace(-800.0, 800.0, 4001)
    u = generator(3).random(s.size)
    assert np.abs(u - (1.0 - expit(s))).min() > 1e-12

    class Unloaded:
        def __getattr__(self, name):
            raise AssertionError(f"scipy.special.{name} read")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "special", Unloaded())
        got = od.BernoulliLogit().sample_inverse(s, u)
    assert got.tobytes() == (u > 1.0 - expit(s)).astype(np.int64).tobytes()


def test_domain_checks():
    with pytest.raises(DomainViolation) as e:
        od.Poisson().tv_bound(-1.0, 2.0)
    assert e.value.state == -1.0 and e.value.t is None
    with pytest.raises(DomainViolation):
        od.GarchGaussian(1.0).tv_exact(0.5, 2.0)


def test_inverse_sampling_agrees_with_direct_sampling():
    # same law through both routes (direct generator vs quantile transform)
    rng = generator(11)
    for k, s in [(od.Poisson(), 3.0), (od.NegBinomial(2), 1.5),
                 (od.GarchGaussian(1.0), 2.0), (od.Location(od.LaplaceNoise(1.0)), 0.5)]:
        direct = np.asarray(k.sample(np.full(20000, s), rng), dtype=float)
        inverse = np.asarray(k.sample_inverse(np.full(20000, s), rng.random(20000)), dtype=float)
        if k.discrete:
            hi = int(max(direct.max(), inverse.max()))
            c1 = np.bincount(direct.astype(int), minlength=hi + 1)
            c2 = np.bincount(inverse.astype(int), minlength=hi + 1)
            keep = (c1 + c2) >= 10
            chi2 = ((c1[keep] - c2[keep]) ** 2 / (c1[keep] + c2[keep])).sum()
            assert sstats.chi2.sf(chi2, keep.sum() - 1) > 1e-3
        else:
            assert sstats.ks_2samp(direct, inverse).pvalue > 1e-3


# ---------------------------------------------------------------------------
# phi rates
# ---------------------------------------------------------------------------

def test_phi_linear_families():
    assert od.Poisson().phi().to_dict() == {"coefficients": [[1, 1.0]]}
    assert od.NegBinomial(5).phi().to_dict() == {"coefficients": [[1, 1.0]]}
    assert od.BernoulliLogit().phi().to_dict() == {"coefficients": [[1, 1.0]]}
    assert od.Multinomial(4).phi().to_dict() == {"coefficients": [[1, 1.0]]}


def test_phi_garch_from_floor():
    # 1 - exp(-(s - s') / (2 c_minus^{3/2})): c_minus = 1 gives slope 1/2
    phi = od.GarchGaussian(1.0).phi()
    assert phi.to_dict() == {"coefficients": [[1, 0.5]]}
    phi2 = od.GarchGaussian(0.25).phi()
    assert phi2.linear_coefficient == pytest.approx(1.0 / (2 * 0.25**1.5))


def test_phi_probit_certified_constant():
    # d (h + h^2) with d certified on the standard grid; d must dominate the
    # small-h slope 1/sqrt(2 pi) and satisfy the overlap inequality everywhere
    phi = od.BernoulliProbit().phi()
    coeffs = dict(phi.coefficients)
    d = coeffs[1]
    assert coeffs[2] == d
    assert 1 / math.sqrt(2 * math.pi) < d < 0.46
    h = np.logspace(-7, 3, 5000)
    log_overlap = math.log(2.0) + log_ndtr(-h / 2)
    assert np.all(-log_overlap <= d * (h + h * h) + 1e-12)


def test_phi_location_rates():
    lap = od.Location(od.LaplaceNoise(2.0)).phi()
    # D (h + h) with D = 1.05/(4b)
    assert lap.to_dict() == {"coefficients": [[1, 2 * 1.05 / 8.0]]}
    gauss = od.Location(od.GaussianNoise(1.0)).phi()
    cg = dict(gauss.coefficients)
    assert cg[1] == cg[2] and cg[1] > 1 / math.sqrt(2 * math.pi)
    stud = od.Location(od.StudentTNoise(2.0)).phi()
    assert stud.coefficients == ((1, stud.linear_coefficient),) and stud.linear_coefficient > 0


def test_phi_spec_validation():
    with pytest.raises(Exception):
        od.PhiSpec(((0, 1.0),))  # must vanish at 0
    with pytest.raises(Exception):
        od.PhiSpec(((1, -1.0),))
    with pytest.raises(Exception):
        od.PhiSpec(((1, 0.0),))


@pytest.mark.parametrize("make", [
    lambda: od.GaussianNoise(math.inf), lambda: od.LaplaceNoise(math.inf),
    lambda: od.StudentTNoise(math.nan), lambda: od.StudentTNoise(math.inf),
    lambda: od.PhiSpec(((1, math.inf),)), lambda: od.PhiSpec(((1, math.nan),)),
    # stdtr(nu, -50) underflows to 0 from nu of about 1e5, so the certified rate is inf, and
    # the Laplace rate 1.05 / (4 b) overflows at b = 5e-324
    lambda: od.Location(od.StudentTNoise(1e6)).phi(), lambda: od.Location(od.LaplaceNoise(5e-324)).phi(),
], ids=["sigma_inf", "b_inf", "nu_nan", "nu_inf", "phi_inf", "phi_nan", "student_nu_1e6", "laplace_b_5e-324"])
def test_non_finite_noise_scale_or_phi_coefficient_is_invalid_spec(make):
    with pytest.raises(InvalidSpec):
        make()


# ---------------------------------------------------------------------------
# tv bound and oracle
# ---------------------------------------------------------------------------

def test_tv_bound_values():
    k = od.Poisson()
    assert k.tv_bound(1.0, 1.0) == 0.0
    assert k.tv_bound(0.0, math.log(2)) == pytest.approx(0.5)


def test_tv_bound_negbinomial_sharp_vs_phi():
    # mixture route: 1 - (1 + h/r)^{-r} = 0.75 at r=2, h=2; phi route 1-e^{-2}
    k = od.NegBinomial(2)
    assert k.tv_bound_sharp(0.0, 2.0) == pytest.approx(0.75)
    assert k.tv_bound(0.0, 2.0) == pytest.approx(1 - math.exp(-2.0))
    assert k.tv_bound_sharp(0.0, 2.0) <= k.tv_bound(0.0, 2.0)


def test_tv_exact_zero_on_diagonal():
    rngpairs = {
        od.Poisson(): 2.0, od.NegBinomial(2): 1.0, od.BernoulliLogit(): 0.3,
        od.GarchGaussian(1.0): 2.5, od.Location(od.GaussianNoise(1.0)): -1.0,
    }
    for k, s in rngpairs.items():
        assert k.tv_exact(s, s) == 0.0


def test_tv_exact_poisson_vs_point_mass():
    # Pois(0) is a point mass; overlap with Pois(ln 2) is p(0) = 1/2
    assert od.Poisson().tv_exact(0.0, math.log(2)) == pytest.approx(0.5, abs=1e-12)


def test_tv_exact_gaussian_location_closed_form():
    # two unit gaussians two apart: TV = 2 Phi(1) - 1
    val = od.Location(od.GaussianNoise(1.0)).tv_exact(0.0, 2.0)
    assert val == pytest.approx(2 * ndtr(1.0) - 1, abs=1e-7)


def test_tv_exact_laplace_closed_form():
    # symmetric unimodal translates: TV = 2F(h/2) - 1 = 1 - exp(-h/(2b))
    k = od.Location(od.LaplaceNoise(1.5))
    for h in (0.3, 1.0, 4.0):
        assert k.tv_exact(0.0, h) == pytest.approx(1 - math.exp(-h / 3.0), abs=1e-7)


@pytest.mark.parametrize("nu", [2.0, 2.5, 3.0, 5.0, 30.0])
def test_student_quantile_is_scipy_ppf(nu):
    noise = od.StudentTNoise(nu)
    u = generator(23).random(10**5)
    np.testing.assert_array_equal(noise.ppf(u), sstats.t.ppf(u, df=nu))
    edges = np.array([0.0, 1.0, np.nan, -0.1, 1.5, 0.5])
    np.testing.assert_array_equal(noise.ppf(edges), [-np.inf, np.inf, np.nan, np.nan, np.nan, 0.0])
    assert noise.ppf(0.3) == sstats.t.ppf(0.3, df=nu)


@pytest.mark.parametrize("nu", [2.0, 2.5, 3.0, 7.5, 30.0])
def test_student_quantile_sign_follows_u_into_the_far_tail(nu):
    # stdtrit (and scipy's ppf) turn to +inf below about u = 1e-222
    noise = od.StudentTNoise(nu)
    lower = np.concatenate([[5e-324], np.logspace(-323.3, math.log10(0.4999), 3000)])
    assert np.all(noise.ppf(lower) < 0.0)
    assert np.all(noise.ppf(1.0 - np.logspace(-16.0, math.log10(0.4999), 500)) > 0.0)


@pytest.mark.parametrize("nu", [2.0, 2.5, 3.0, 5.0, 30.0])
def test_student_location_rate_is_the_scipy_logsf_rate(nu):
    want = kernels._certified_rate(lambda h: np.log(2.0) + sstats.t.logsf(h / 2.0, df=nu), (1,))
    assert kernels._student_location_rate(nu) == want


def test_tv_exact_student_closed_form():
    k = od.Location(od.StudentTNoise(2.0))
    for h in (0.5, 2.0):
        want = 2 * sstats.t.cdf(h / 2, df=2) - 1
        assert k.tv_exact(0.0, h) == pytest.approx(want, abs=1e-7)


def test_tv_exact_garch_closed_form():
    # centered normals with variances s < s': densities cross at +-u*,
    # TV = 2(Phi(u*/sig') - Phi(u*/sig))
    k = od.GarchGaussian(1.0)
    s, sp = 1.0, 3.0
    sig, sigp = math.sqrt(sp), math.sqrt(s)
    u = sig * sigp * math.sqrt(2 * math.log(sig / sigp) / (sig**2 - sigp**2))
    want = 2 * (ndtr(u / sigp) - ndtr(u / sig))
    assert k.tv_exact(s, sp) == pytest.approx(want, abs=1e-7)


def test_garch_adjacent_states_with_equal_sqrt():
    # 4 and the next double share a rounded sqrt; the density crossing
    # formula divided by zero there
    k = od.GarchGaussian(1.0)
    s, sp = 4.0, float(np.nextafter(4.0, 5.0))
    assert math.sqrt(s) == math.sqrt(sp) and s != sp
    assert k._breakpoints(s, sp) == []
    assert 0.0 <= k.tv_exact(s, sp) < 1e-7
    y, yp, met = k.couple_batch(s, sp, 200, generator(9))
    assert np.all(y[met] == yp[met])


def _overlap_by_quadrature(k, s, sp):
    """1 - integral of min(p, q), with quad split where the densities cross."""
    if isinstance(k, od.GarchGaussian):
        lo, hi = math.sqrt(min(s, sp)), math.sqrt(max(s, sp))
        u = lo * hi * math.sqrt(2 * math.log(hi / lo) / (hi**2 - lo**2))
        cuts = [-u, 0.0, u]
    else:
        cuts = [0.5 * (s + sp)]
    edges = [-math.inf] + cuts + [math.inf]
    f = lambda y: min(k._pdf(np.asarray(y), s), k._pdf(np.asarray(y), sp))
    return 1.0 - sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=500)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


def test_continuous_tv_exact_matches_quadrature_on_standard_pairs():
    continuous = [k for k in all_kernels() if not k.discrete]
    assert len(continuous) == 4
    for k in continuous:
        pairs = k.standard_pairs(200)
        assert len(pairs) == 200
        for s, sp in pairs:
            assert k.tv_exact(s, sp) == pytest.approx(_overlap_by_quadrature(k, s, sp), abs=1e-8), (k, s, sp)


def test_tv_exact_symmetric_bounded_and_monotone():
    hyp, st, settings = hypothesis_settings()
    scalar = [k for k in all_kernels() if k.state_dim == 1]

    @settings
    @hyp.given(st.sampled_from(scalar), st.floats(-1e3, 1e3),
               st.floats(0.0, 1e2), st.floats(0.0, 1e2))
    def check(k, s, h1, h2):
        if k.domain_floor() is not None:
            s = k.domain_floor() + abs(s)
        near, far = s + min(h1, h2), s + max(h1, h2)
        tv_near, tv_far = k.tv_exact(s, near), k.tv_exact(s, far)
        assert tv_near == k.tv_exact(near, s) and tv_far == k.tv_exact(far, s)
        # the count families difference two cdfs at a crossing that moves with s'
        slack = 1e-12 if k.domain_floor() == 0.0 else 0.0
        assert 0.0 <= tv_near <= tv_far + slack and tv_far <= 1.0

    check()


def _src_imports_of(packages, module_level_only=False):
    """file:line of each import in src/ of one of ``packages`` or a submodule;
    with ``module_level_only``, imports inside function bodies are skipped."""
    modules = sorted(Path(od.__file__).parent.rglob("*.py"))
    assert any(p.name == "kernels.py" for p in modules)
    offenders = []
    for path in modules:
        stack = [ast.parse(path.read_text(encoding="utf-8"))]
        while stack:
            node = stack.pop()
            if module_level_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == pkg or n.startswith(pkg + ".") for n in names for pkg in packages):
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_no_module_in_src_imports_scipy_integrate():
    # the TV oracle and the moments are closed forms; quadrature lives in tests
    assert _src_imports_of(("scipy.integrate",)) == []


def test_no_module_in_src_imports_heavy_scipy_at_module_level():
    # import obsdriven loads numpy only; scipy.stats and scipy.optimize cost
    # about a second and are imported where first used, and scipy.special
    # (about 0.3 s) by the one lazy handle, ``_special``
    heavy = ("scipy.stats", "scipy.signal", "scipy.optimize")
    assert _src_imports_of(heavy, module_level_only=True) == []
    assert _src_imports_of(("scipy",), module_level_only=True) == []
    assert [p.split(":")[0] for p in _src_imports_of(("scipy.special",))] == ["_special.py"]
    assert _src_imports_of(("scipy.signal",)) == []
    assert _src_imports_of(heavy)  # the walk does see the first-use imports


def test_tv_exact_bernoulli_is_cdf_difference():
    k = od.BernoulliLogit()
    assert k.tv_exact(0.0, math.log(3)) == pytest.approx(abs(expit(0.0) - expit(math.log(3))))


def test_tv_monotone_in_separation_for_poisson():
    k = od.Poisson()
    hs = np.linspace(0.0, 8.0, 30)
    vals = [k.tv_exact(2.0, 2.0 + h) if h > 0 else 0.0 for h in hs]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_poisson_hi_leaves_out_under_1e_13_above():
    for mu in np.geomspace(1e-3, 1e5, 80):
        assert pdtrc(kernels._poisson_hi(mu), mu) < 1e-13


def test_poisson_tv_exact_at_a_huge_mean_is_the_scheffe_form():
    # the pmfs cross once, at k* = floor((s' - s) / log(s'/s)): TV = F_s(k*) - F_s'(k*);
    # the support is the window around the two means, not 0 .. 1e8
    s, sp = 1e8, 1e8 + 1e4
    kstar = math.floor((sp - s) / math.log(sp / s))
    assert od.Poisson().tv_exact(s, sp) == pytest.approx(pdtr(kstar, s) - pdtr(kstar, sp), abs=1e-7)


def _pmf_sum_tv(kernel, s, sp):
    """TV as half the l1 distance of the two pmfs on 0 .. the 1 - 1e-12 quantile of the
    larger mean: a reference for the count families that does not use the crossing."""
    s, sp = float(s), float(sp)
    if kernel.family == "poisson":
        k = np.arange(kernels._poisson_hi(max(s, sp)) + 1, dtype=float)
        log_pmf = lambda mu: k * math.log(mu) - mu - gammaln(k + 1.0)
    else:
        r = kernel.r
        k = np.arange(int(sstats.nbinom.isf(2.5e-13, r, r / (r + max(s, sp, 1e-12)))) + 2, dtype=float)
        log_pmf = lambda mu: (gammaln(k + r) - gammaln(r) - gammaln(k + 1.0)
                              + r * math.log(r / (r + mu)) + k * math.log1p(-r / (r + mu)))
    p, q = ((k == 0).astype(float) if mu == 0.0 else np.exp(log_pmf(mu)) for mu in (s, sp))
    return 0.5 * np.abs(p - q).sum()


@pytest.mark.parametrize("kernel", [od.Poisson(), od.NegBinomial(1), od.NegBinomial(3), od.NegBinomial(50)], ids=repr)
def test_count_tv_exact_is_the_pmf_sum(kernel):
    rng = generator(61)
    means = 10.0 ** rng.uniform(-4.0, 4.0 if kernel.family == "poisson" else 3.0, (300, 2))
    pairs = kernel.standard_pairs(200) + [tuple(m) for m in means] + [(0.0, m) for m in means[:20, 0]]
    for s, sp in pairs:
        assert kernel.tv_exact(s, sp) == pytest.approx(_pmf_sum_tv(kernel, s, sp), abs=1e-10), (s, sp)


def test_binary_and_multinomial_tv_exact_is_half_the_l1_distance_of_their_pmfs():
    rng = generator(62)
    for k, success in ((od.BernoulliLogit(), expit), (od.BernoulliProbit(), ndtr)):
        for s, sp in k.standard_pairs(200) + [tuple(x) for x in rng.normal(0.0, 4.0, (200, 2))]:
            p, q = float(success(s)), float(success(sp))
            assert k.tv_exact(s, sp) == pytest.approx(0.5 * (abs(p - q) + abs((1 - p) - (1 - q))), abs=1e-15)
    k = od.Multinomial(4)
    for s, sp in k.standard_pairs(200) + [tuple(x) for x in rng.normal(0.0, 3.0, (200, 2, 3))]:
        p, q = (np.exp(np.concatenate([[0.0], x])) / (1.0 + np.exp(x).sum()) for x in (s, sp))
        assert k.tv_exact(s, sp) == pytest.approx(0.5 * np.abs(p - q).sum(), abs=1e-14)


def _mp_poisson_cdf(mp, k, s):
    """P(X <= k), X ~ Poisson(s), as the Gamma(k + 1) mass above s, by quadrature split at its
    standard deviations (mpmath's own gammainc takes minutes from a mean of 1e12)."""
    a = k + 1
    log_norm, sd = mp.loggamma(a), mp.sqrt(a)
    cuts = sorted({s} | {a - 1 + j * sd for j in (-40, -12, -8, -4, -2, -1, 0, 1, 2, 4, 8, 12, 40)})
    return mp.quad(lambda t: mp.exp((a - 1) * mp.log(t) - t - log_norm), [c for c in cuts if c >= s] + [mp.inf])


def test_count_tv_exact_matches_mpmath_at_huge_means():
    # Scheffe at 50 digits: k* from the exact means, F_s(k*) - F_s'(k*); s' from 0.001 to 40
    # standard deviations above s, so k* lies up to 20 deviations from both means, beyond the
    # 4.5 where pdtr alone starts to lose the upper tail (up to 2e-6 at these means)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        for mean in (1e8, 1e10, 1e20):
            for z in (1e-3, 0.3, 1.0, 3.0, 9.5, 12.0, 40.0):
                s, sp = mean, mean + z * math.sqrt(mean)
                ms, msp = mp.mpf(s), mp.mpf(sp)
                k = mp.floor((msp - ms) / mp.log(msp / ms))
                want = _mp_poisson_cdf(mp, k, ms) - _mp_poisson_cdf(mp, k, msp)
                assert abs(od.Poisson().tv_exact(s, sp) - want) < 1e-10, (s, z)
                for r in (1, 3, 50):
                    sp = mean + z * math.sqrt(mean * (1.0 + mean / r))
                    ms, msp = mp.mpf(s), mp.mpf(sp)
                    k = mp.floor(r * mp.log((r + msp) / (r + ms)) / mp.log(msp * (r + ms) / (ms * (r + msp))))
                    want = mp.betainc(r, k + 1, 0, r / (r + ms), regularized=True) - mp.betainc(
                        r, k + 1, 0, r / (r + msp), regularized=True)
                    assert abs(od.NegBinomial(r).tv_exact(s, sp) - want) < 1e-10, (r, s, z)
    for k in (od.Poisson(), od.NegBinomial(3)):
        assert 0.0 <= k.tv_exact(1e20, 1e20 + 1e10) <= 1.0  # a support table here once took 1.2 TiB


def _mp_negbinomial_pmf(mp, r, s, j):
    """P(X = j), X ~ NB(r) with mean s, at mp's precision: C(j + r - 1, j) p^r q^j."""
    r, s = mp.mpf(r), mp.mpf(s)
    return mp.binomial(j + r - 1, j) * (r / (r + s)) ** r * (s / (r + s)) ** j


def _mp_negbinomial_cdf(mp, r, s, k):
    """P(X <= k) at mp's precision, by the shorter of two finite sums: the pmf over j <= k, or
    P(Bin(k + r, p) >= r) = 1 - its terms i < r."""
    k = int(k)
    if k < r:
        return mp.fsum(_mp_negbinomial_pmf(mp, r, s, j) for j in range(k + 1))
    r, s = mp.mpf(r), mp.mpf(s)
    p, q = r / (r + s), s / (r + s)
    return 1 - mp.fsum(mp.binomial(k + r, i) * p**i * q ** (k + r - i) for i in range(int(r)))


def test_negbinomial_cdf_keeps_its_digits_at_large_r():
    # scipy is passed whichever of p = r/(r+s) and q = s/(r+s) lies below 1/2; reading p alone
    # (betainc(r, k + 1, p) and betaincc(r, k + 1, p)) leaves TV at (1, 2) 3.8e-6 off at r = 1e12
    # and 0.33 at r = 1e18, and the draw at (2, 0.3) 0 where the Poisson(2) limit gives 1.
    # Measured errors here are at most 3.3e-16; the gates are 1e-14
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        for r in (3, 1e3, 1e12, 1e18):
            k = od.NegBinomial(r)
            pmf = [[_mp_negbinomial_pmf(mp, r, s, j) for j in range(120)] for s in (1, 2)]
            want = mp.fsum(max(a - b, 0) for a, b in zip(*pmf))  # the tail past 120 is below 1e-40
            assert abs(k.tv_exact(1.0, 2.0) - float(want)) < 1e-14, r
            for s in (1.0, 2.0):
                ks = np.arange(40.0)
                cdf = np.array([float(_mp_negbinomial_cdf(mp, r, s, j)) for j in ks])
                np.testing.assert_allclose(k._cdf(ks, s), cdf, rtol=0, atol=1e-14)
                np.testing.assert_allclose(k._sf(ks, s), 1.0 - cdf, rtol=0, atol=1e-14)
                u = np.array([1e-6, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-6])
                np.testing.assert_array_equal(k.sample_inverse(np.full(u.size, s), u), np.searchsorted(cdf, u))
        assert od.NegBinomial(1e18).sample_inverse(2.0, 0.3) == od.Poisson().sample_inverse(2.0, 0.3) == 1.0
        # at large s, q is near 1 and p carries the digits: the sf is read as betaincc(r, k + 1, p),
        # measured within 1.6e-11 relatively, as p alone reads it; the cdf, betainc(r, k + 1, p), is
        # within 5e-16 below 1/2, where the quantile reads it, and 1.1e-8 off at k = s (F = 0.59),
        # scipy's own error, where every caller reads the sf
        r, s = 2, 7.7e8
        k, sd = od.NegBinomial(r), math.sqrt(s * (1.0 + s / r))
        for z in (-0.99, -0.5, -0.2, 0.0, 1.0, 3.0, 8.0, 20.0):
            j = float(math.floor(s + z * sd))
            cdf = _mp_negbinomial_cdf(mp, r, s, j)
            assert abs(k._sf(j, s) - float(1 - cdf)) < 1e-10 * float(1 - cdf), z
            assert abs(k._cdf(j, s) - float(cdf)) < 5e-8, z


def test_count_tv_exact_at_extreme_means_stays_in_the_unit_interval():
    # from subnormal means to the largest float, beside 0, adjacent floats and far means: no
    # exception (pdtr is NaN far below means past 1e306, and the crossing's log1p underflows
    # for adjacent negative binomial means past 4e307), symmetric, and in [0, 1]
    big = float(np.finfo(float).max)
    for k in (od.Poisson(), od.NegBinomial(1), od.NegBinomial(50)):
        for s in [5e-324] + [10.0**e for e in range(-320, 309, 7)] + [big]:
            for sp in (0.0, 5e-324, 1.0, 1e10, 1e300, big, np.nextafter(s, 0.0), np.nextafter(s, big), 2.0 * s):
                sp = float(min(sp, big))
                tv = k.tv_exact(s, sp)
                assert 0.0 <= tv <= 1.0 and tv == k.tv_exact(sp, s), (k, s, sp)


def test_poisson_windows_apart_give_tv_one_and_independent_draws():
    k = od.Poisson()
    # the last two are adjacent floats, 58 and 1.5e134 standard deviations apart
    for s, sp in ((2.0, 500.0), (1.0, 1e10 + 1.0), (1e10, 1e20), (1e35, 1.0000000000000001e35), (1e300, 1.0000000000000002e300)):
        assert k.tv_exact(s, sp) == k.tv_exact(sp, s) == 1.0
    full = np.arange(700.0)  # the whole support at (2, 500) leaves TV within 2e-13 of 1
    assert 0.5 * np.abs(sstats.poisson.pmf(full, 2.0) - sstats.poisson.pmf(full, 500.0)).sum() > 1 - 2e-13
    y, yp, met = k.couple_batch(2.0, 500.0, 20000, generator(12))
    assert not met.any() and np.all(y != yp)
    for draws, mean in ((y, 2.0), (yp, 500.0)):
        assert abs(draws.mean() - mean) < 4 * math.sqrt(mean / len(draws))


def test_multinomial_probabilities_normalized():
    k = od.Multinomial(4)
    rng = generator(5)
    for _ in range(50):
        s = rng.normal(0, 3, size=3)
        p = k.probabilities(s)[0]
        assert abs(p.sum() - 1.0) < 1e-12
        # exact softmax identity
        e = np.concatenate([[1.0], np.exp(s)])
        assert np.allclose(p, e / e.sum(), atol=1e-12)


# ---------------------------------------------------------------------------
# maximal coupling
# ---------------------------------------------------------------------------

def test_coupling_on_diagonal_always_meets():
    for k in (od.Poisson(), od.GarchGaussian(1.0)):
        s = 2.0
        y, yp, met = k.couple_batch(s, s, 2000, generator(7))
        assert met.all()
        assert np.array_equal(y, yp)


def test_coupling_met_implies_equal():
    for k in all_kernels():
        if k.state_dim > 1:
            s, sp = np.zeros(2), np.array([0.7, -0.4])
        elif k.domain_floor() is not None:
            s, sp = k.domain_floor() + 0.3, k.domain_floor() + 1.7
        else:
            s, sp = -0.5, 1.2
        y, yp, met = k.couple_batch(s, sp, 5000, generator(8))
        assert np.all(y[met] == yp[met])
        # residual branches have disjoint supports: unmet draws differ
        assert np.all(y[~met] != yp[~met])


def test_coupling_disagreement_poisson_small_gap():
    # TV(delta_0, Pois(0.1)) = 1 - e^{-0.1}
    k = od.Poisson()
    _, _, met = k.couple_batch(0.0, 0.1, 10**5, generator(9))
    p = 1 - np.exp(-0.1)
    assert abs((1 - met.mean()) - p) < 3 * math.sqrt(p * (1 - p) / 10**5)


def test_coupling_disagreement_logit():
    # |F(0) - F(ln 3)| = |1/2 - 3/4| = 1/4
    k = od.BernoulliLogit()
    _, _, met = k.couple_batch(0.0, math.log(3), 10**5, generator(10))
    assert abs((1 - met.mean()) - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 10**5)


def _marginal_pvalue(kernel, s, draws):
    """Goodness of fit of coupled-marginal draws against p(.|s)."""
    if kernel.state_dim > 1:
        probs = kernel.probabilities(s)[0]
        counts = np.bincount(draws.astype(int), minlength=len(probs))
        return sstats.chisquare(counts, probs * len(draws)).pvalue
    if kernel.discrete and kernel.domain_floor() is not None:
        hi = int(draws.max()) + 1
        if kernel.family == "poisson":
            pmf = sstats.poisson.pmf(np.arange(hi + 1), s)
        else:
            pmf = sstats.nbinom.pmf(np.arange(hi + 1), kernel.r, kernel.r / (kernel.r + s))
        counts = np.bincount(draws.astype(int), minlength=hi + 1).astype(float)
        # pool the tail so expected counts stay above 5
        exp = pmf * len(draws)
        keep = exp >= 5
        counts = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(exp[keep], exp[~keep].sum())
        return sstats.chisquare(counts, exp * counts.sum() / exp.sum()).pvalue
    if kernel.discrete:  # bernoulli
        p1 = float(kernel._success(s))
        counts = np.bincount(draws.astype(int), minlength=2)
        return sstats.chisquare(counts, np.array([1 - p1, p1]) * len(draws)).pvalue
    if kernel.family == "garch_gaussian":
        return sstats.kstest(draws, "norm", args=(0.0, math.sqrt(s))).pvalue
    noise = kernel.noise
    if isinstance(noise, od.GaussianNoise):
        return sstats.kstest(draws, "norm", args=(s, noise.sigma)).pvalue
    if isinstance(noise, od.LaplaceNoise):
        return sstats.kstest(draws, "laplace", args=(s, noise.b)).pvalue
    return sstats.kstest(draws, "t", args=(noise.nu, s)).pvalue


def test_coupling_marginals_correct_all_families():
    # both marginals of the maximal coupling follow their kernels
    n = 10**5
    for i, k in enumerate(all_kernels()):
        if k.state_dim > 1:
            s, sp = np.zeros(2), np.array([0.8, -0.3])
        elif k.domain_floor() is not None:
            s, sp = k.domain_floor() + 0.5, k.domain_floor() + 2.0
        else:
            s, sp = -0.3, 1.1
        y, yp, _ = k.couple_batch(s, sp, n, generator(400 + i))
        assert _marginal_pvalue(k, s, y) > 1e-3, f"{k!r} first marginal"
        assert _marginal_pvalue(k, sp, yp) > 1e-3, f"{k!r} second marginal"


def test_coupling_does_not_call_the_oracle(monkeypatch):
    # every family couples on its own draws and _pdf: no TV value, no support table
    def no_oracle(*args, **kwargs):
        raise AssertionError("the coupling called the TV oracle")

    monkeypatch.setattr(kernels.ObservationKernel, "tv_exact", no_oracle)
    for cls in {type(k) for k in all_kernels()}:
        monkeypatch.setattr(cls, "_tv_exact_impl", no_oracle)
    for k in all_kernels():
        if k.state_dim > 1:
            s, sp = np.zeros(2), np.array([1.5, -1.0])
        else:
            s = 0.5 if k.domain_floor() is None else k.domain_floor() + 0.5
            sp = s + 1.5
        y, yp, met = k.couple_batch(s, sp, 1000, generator(14))
        assert 0 < met.sum() < 1000, k
        assert np.all(y[met] == yp[met]) and np.all(y[~met] != yp[~met])


def test_coupling_budget_bounds_the_residual_rejection(monkeypatch):
    monkeypatch.setattr(kernels, "_COUPLE_CAP", 0)
    for k in (od.Location(od.GaussianNoise(1.0)), od.Poisson()):
        with pytest.raises(CouplingBudgetExceeded):
            k.couple_batch(0.0, 3.0, 100, generator(15))


def test_count_pdf_ratios_match_mpmath_at_every_mean():
    # the coupling reads only _pdf(y, s') / _pdf(y, s); against 50 digits it is
    # within the bound derived from the float steps of each _pdf, plus the two
    # exps and the division.  Seen: Poisson within 1.3e-10 at means near 1e10
    # and 2e-6 near 1e20 (at most 0.13 of the bound); negative binomial within
    # 2e-14 at every mean (its log has terms of order r, not sqrt(s))
    mp = pytest.importorskip("mpmath").mp
    u, r = 2.0**-53, 3

    def poisson_log_pdf(y, t):
        """(log of Poisson ``_pdf``, p(y|t) y! e^y / y^y, and its error bound).

        log1p's argument (t - y)/y carries a few units of roundoff, and its
        condition there turns that into y |t - y| / t in the log; each other
        term of y log1p(...) - (t - y) is rounded once or twice."""
        e = y * mp.log(t / y) - (t - y) if y else -t
        d = abs(t - y)
        return e, 4 * u * ((y * d / t if y else 0) + abs(e + (t - y)) + d + abs(e))

    def negbinomial_log_pdf(y, t):
        """(log of NegBinomial ``_pdf``, its error bound), as for Poisson.

        The log is a + b, a = r log((r + y)/(r + t)), b = y log1p(x) with
        x = r (t - y)/(max(y, 1)(r + t)); a is off by a few units absolutely
        (times r), and b by x's few units of roundoff times log1p's condition."""
        a = r * mp.log((r + y) / (r + t))
        x = r * (t - y) / (max(y, 1) * (r + t))
        b = y * mp.log1p(x)
        return a + b, 6 * u * (r + abs(a) + y * abs(x) / (1 + x) + abs(b) + abs(a + b))

    cases = [(k, log_pdf, s) for k, log_pdf in ((od.Poisson(), poisson_log_pdf), (od.NegBinomial(r), negbinomial_log_pdf))
             for s in np.geomspace(0.3, 1e20, 41).tolist()]
    with mp.workdps(50):
        for k, log_pdf, s in cases:
            sd = math.sqrt(s if k.family == "poisson" else s + s * s / r)
            for z in (-3.0, -1.0, 0.0, 0.5, 1.0, 3.0):
                y = float(max(0.0, math.floor(s + z * sd)))
                got = k._pdf(np.array([y]), s + sd)[0] / k._pdf(np.array([y]), s)[0]
                (e, de), (ep, dep) = (log_pdf(mp.mpf(y), mp.mpf(t)) for t in (s, s + sd))
                assert abs(got / mp.exp(ep - e) - 1) <= de + dep + 4 * u, (k, s, y)


def test_count_coupling_beside_a_tiny_mean():
    # p(y|s) for y >= 1 at s = 1e-300 is below e^-690: log1p's argument rounds
    # to -1 there, and the coupling must neither warn nor lose the law
    n = 10**4
    for k, tv in ((od.Poisson(), 1 - math.exp(-2.0)), (od.NegBinomial(3), 1 - 0.6**3)):
        for s in (5e-324, 1e-300):
            y, yp, met = k.couple_batch(s, 2.0, n, generator(18))
            assert np.all(y == 0.0) and np.all(yp[~met] > 0.0)
            assert abs((1 - met.mean()) - tv) < 3 * math.sqrt(tv * (1 - tv) / n)


def test_poisson_coupling_at_a_huge_mean_builds_no_support():
    # a window of about 15 sqrt(1e20) points once asked numpy for 1.2 TiB; the states
    # are one standard deviation apart, so TV is 2 Phi(1/2) - 1
    n = 10**4
    y, yp, met = od.Poisson().couple_batch(1e20, 1e20 + 1e10, n, generator(17))
    assert np.all(y[met] == yp[met]) and np.all(y[~met] != yp[~met])
    tv = 2 * ndtr(0.5) - 1
    assert abs((1 - met.mean()) - tv) < 3 * math.sqrt(tv * (1 - tv) / n)


def test_multinomial_coupling_on_identical_states_draws_per_row():
    y, yp, met = od.Multinomial(3).couple_batch(np.zeros(2), np.zeros(2), 5, generator(16))
    assert np.shape(y) == np.shape(yp) == met.shape == (5,)
    assert met.all() and np.array_equal(y, yp)


@pytest.mark.parametrize("kernel", [
    od.BernoulliLogit(), od.BernoulliProbit(), od.GarchGaussian(1.0),
    od.Location(od.GaussianNoise(1.5)), od.Location(od.LaplaceNoise(0.7)), od.Location(od.StudentTNoise(3.0)),
], ids=repr)
def test_float_sample_is_the_zero_d_draw(kernel):
    # one chain's state is a Python float; its draw must be the 0-d array's and
    # the (1,) batch's, taking the same words from the generator
    hyp, st, settings = hypothesis_settings()
    lo = 1.0 if kernel.family == "garch_gaussian" else -50.0

    @hyp.settings(settings, max_examples=100)
    @hyp.given(st.floats(lo, 1e6), st.integers(0, 2**32 - 1))
    def check(s, seed):
        rngs = [generator(seed) for _ in range(3)]
        got, zero_d, batch = (kernel.sample(v, r) for v, r in zip((s, np.array(s), np.array([s])), rngs))
        assert type(got) is type(zero_d) and got == zero_d == batch[0]
        assert type(got) is (int if kernel.discrete else float)
        states = {repr(r.bit_generator.state) for r in rngs}  # Philox: arrays inside
        assert len(states) == 1

    check()


@pytest.mark.parametrize("kernel", all_kernels(), ids=repr)
def test_noise_of_n_draws_is_n_scalar_noise_calls(kernel):
    # a glued chain draws its noise in one call: it must give the values and take the words
    # of one scalar call per step, and sample must be _from_noise of that noise
    if kernel.family in ("poisson", "negbinomial"):  # numpy's count draws take state-dependent words
        assert not isinstance(kernel, kernels._NoiseKernel)
        return
    rng, twin = generator(5, 1), generator(5, 1)
    batch = kernel._noise(200, rng)
    scalars = [kernel._noise(None, twin) for _ in range(200)]
    assert all(type(e) is float for e in scalars)
    assert batch.tobytes() == np.array(scalars).tobytes()
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)
    s = np.array([0.5, -1.0]) if kernel.state_dim > 1 else 1.5
    ys = [kernel.sample(s, rng) for _ in range(20)]
    assert ys == [kernel._from_noise(s, kernel._noise(None, twin)) for _ in range(20)]
    assert {type(y) for y in ys} == {int if kernel.discrete else float}


@pytest.mark.parametrize("kernel", all_kernels(), ids=repr)
def test_chain_draws_are_one_sample_per_step(kernel):
    # a glued chain's draws, fixed once per run, give at each state the value and type of one
    # sample and take its words; Poisson's rng.poisson hands a mean past numpy's bound to sample
    if kernel.state_dim > 1:
        states = [np.linspace(-1.0, v, kernel.state_dim) for v in (0.5, 0.0, 40.0)]
    else:
        states = [(kernel.domain_floor() or 0.0) + d for d in (0.0, 0.5, 3.0, 40.0, 1e19, 2.5)]
    rng, twin = generator(9, 1), generator(9, 1)
    draw, words = kernel._chain_draws(len(states), rng)
    got = [draw(s, w) for s, w in zip(states, words)]
    want = [kernel.sample(s, twin) for s in states]
    assert got == want and [type(y) for y in got] == [type(y) for y in want]
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)


def test_float_domain_checks_match_the_array_checks():
    for kernel in (od.BernoulliLogit(), od.Location(od.LaplaceNoise(1.0))):
        for s in (0.0, -0.0, 5e-324, -1e308, math.inf, -math.inf, math.nan):
            assert kernel.domain_contains(s) is bool(kernel.domain_contains(np.array([s])))


def test_couple_batch_single_draw():
    # one pair per call, as the forward coupling draws it: met pairs agree, unmet ones differ
    met_seen = set()
    for seed in range(40):
        y, yp, met = od.Poisson().couple_batch(1.0, 1.5, 1, generator(12, seed))
        assert y.shape == yp.shape == met.shape == (1,)
        assert (y[0] == yp[0]) == met[0]
        met_seen.add(bool(met[0]))
    assert met_seen == {True, False}


# ---------------------------------------------------------------------------
# conditional moments
# ---------------------------------------------------------------------------

def test_conditional_moments_analytic():
    assert od.Poisson().conditional_moment(3.0) == (3.0, 0.0)
    assert od.NegBinomial(4).conditional_moment(2.5) == (2.5, 0.0)
    assert od.GarchGaussian(1.0).conditional_moment(5.0) == (5.0, 0.0)
    val, D = od.Location(od.LaplaceNoise(1.0)).conditional_moment(0.0)
    assert (val, D) == (1.0, 1.0)
    val, D = od.BernoulliLogit().conditional_moment(0.0)
    assert val == pytest.approx(0.5) and D == 1.0
    val, D = od.Multinomial(3).conditional_moment(np.zeros(2))
    assert val == pytest.approx(2.0 / 3.0) and D == 1.0


def test_conditional_moments_monte_carlo_crosscheck():
    rng = generator(13)
    y = od.Poisson().sample(np.full(10**5, 3.0), rng)
    assert abs(np.abs(y).mean() - 3.0) < 0.03
    y = od.GarchGaussian(1.0).sample(np.full(10**5, 5.0), rng)
    assert abs((y**2).mean() - 5.0) < 0.1
    k = od.Location(od.StudentTNoise(2.0))
    val, D = k.conditional_moment(0.7)
    y = k.sample(np.full(4 * 10**5, 0.7), rng)
    # Student-2 has infinite variance; compare medians of |y| block means
    assert val <= 0.7 + D + 1e-12
    blocks = np.abs(y).reshape(400, 1000).mean(axis=1)
    assert abs(np.median(blocks) - val) < 0.1


@pytest.mark.parametrize("nu", [2.0, 3.0, 10.0])
def test_student_location_moment_closed_form(nu):
    k = od.Location(od.StudentTNoise(nu))
    # Jensen: E|s + T| >= |s + E T| = |s|, however heavy the tails
    for s in (-50.0, 1e3):
        assert k.conditional_moment(s)[0] >= abs(s)
    for s in (-4.0, -1.3, 0.0, 0.7, 4.0):
        f = lambda y: abs(s + y) * k.noise.pdf(y)
        want = (integrate.quad(f, -np.inf, -s, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                + integrate.quad(f, -s, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0])
        assert k.conditional_moment(s)[0] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# serialization and export
# ---------------------------------------------------------------------------

def test_kernel_json_round_trip():
    for k in all_kernels():
        assert from_dict(KernelSpec, k.to_dict(), "kernel") == k


def test_tv_exact_within_bound_on_scalar_and_vector_pairs():
    # the exact distance within the phi bound, on a scalar and a vector pair; both 0 at equal states
    k = od.Poisson()
    assert 0.0 < k.tv_exact(0.0, 0.5) <= k.tv_bound(0.0, 0.5) < 1.0
    assert k.tv_exact(1.0, 1.0) == k.tv_bound(1.0, 1.0) == 0.0
    m, s, sp = od.Multinomial(3), np.array([0.0, 0.5]), np.array([0.25, 0.0])
    assert 0.0 < m.tv_exact(s, sp) <= m.tv_bound(s, sp) < 1.0