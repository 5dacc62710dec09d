"""Simulation, coupling traces, backward measures, W1, control statistics."""

import math

import numpy as np
import pytest
from scipy import stats as sstats

import obsdriven as od
from obsdriven import engine
from obsdriven.covariates import DerivedMap
from obsdriven.engine import _assignment_cost, coupled_backward_cost, push_measure
from obsdriven.errors import (
    DomainViolation, InvalidSpec, PathTooShort, SizeMismatch, StateOverflow, UnsupportedCombination,
)
from obsdriven.links import state_coefficients
from obsdriven.rngstream import generator, split_seed

from conftest import (
    divergent_model, hypothesis_settings, logit_benchmark, poisson_ingarch_const, poisson_ingarch_x,
)

CM = od.ConstantMap


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_memoryless_link_pins_intensity():
    link = od.LinearLink(CM(0.0, True), CM(0.0, True), CM(2.0, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))
    tr = od.simulate(m, 7.0, 0, 20, 1)
    assert tr.lam[0] == 7.0
    assert np.all(tr.lam[1:] == 2.0)


def test_simulate_ingarch_long_run_mean():
    # fixed point of E lam = (0.4 + 0.3) E lam + 1 under E(Y|lam) = lam
    tr = od.simulate(poisson_ingarch_const(), 0.0, 0, 10**5 - 1, 7)
    batches = tr.lam.reshape(100, 1000).mean(axis=1)
    se = batches.std(ddof=1) / 10.0
    assert abs(tr.lam.mean() - 10.0 / 3.0) < 3 * se


def test_simulate_deterministic_in_seed():
    m = poisson_ingarch_x()
    a = od.simulate(m, 0.0, 0, 300, 5)
    b = od.simulate(m, 0.0, 0, 300, 5)
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)


def test_trajectory_recursion_identity():
    m = poisson_ingarch_x()
    tr = od.simulate(m, 0.0, 0, 500, 9)
    for i in range(len(tr) - 1):
        want = od.apply(m.link, tr.lam[i], tr.y[i], tr.x[i])
        assert tr.lam[i + 1] == want


def test_one_step_conditional_kernel_consistency():
    # law of lam_{t+1} given (lam_t, x_t) from the engine's inverse-cdf route
    # matches direct sampling y ~ p(.|lam), f(lam, y, x)
    m = poisson_ingarch_x()
    lam0, x = 2.0, np.array([0.6])
    n = 10**4
    path = od.CovariatePath(0, 0, np.tile(x, (1, 1)), 0, "fixed")
    mu = od.backward_measure(m, lam0, 1, path, n, 77, t_end=1)
    rng = generator(123)
    direct = od.apply(m.link, np.full(n, lam0), m.kernel.sample(np.full(n, lam0), rng), x)
    # discrete one-step laws: compare via exact category counts
    cats, c1 = np.unique(mu.points.round(12), return_counts=True)
    c2 = np.array([(direct.round(12) == c).sum() for c in cats])
    keep = (c1 + c2) >= 10
    chi2 = (((c1 - c2) ** 2)[keep] / (c1 + c2)[keep]).sum()
    assert sstats.chi2.sf(chi2, keep.sum() - 1) > 1e-3


# ---------------------------------------------------------------------------
# coupling traces
# ---------------------------------------------------------------------------

def test_couple_identical_starts_stay_glued():
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, 0, 100, 3)
    tr = od.couple_forward(m, 4.0, 4.0, path, 11)
    assert tr.met.all()
    assert tr.meet_time == 0
    assert tr.lambda_gap_sum == 0.0
    assert np.array_equal(tr.y, tr.y_prime)


def test_couple_meeting_on_benchmark():
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, 0, 399, 17)
    met = 0
    for r in range(100):
        tr = od.couple_forward(m, 0.0, 10.0, path, split_seed(19, r))
        met += not tr.censored
        assert tr.censored == (tr.meet_time is None)
    assert met >= 95


def test_couple_gap_contracts_after_meeting():
    # A1 with equal observations: per-step gap ratio <= kappa(x) exactly
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, 0, 199, 23)
    kappa = od.contraction_map(m.link)
    tr = od.couple_forward(m, 0.0, 10.0, path, 29)
    assert not tr.censored
    g = tr.gap()
    i0 = tr.meet_time - path.t_min
    for i in range(i0, len(path) - 1):
        if g[i] > 0:
            assert g[i + 1] <= float(kappa.evaluate(path.values[i])) * g[i] + 1e-12


def test_couple_marginal_preservation():
    # chain 1 of the coupling, marginally, has the same law as simulate
    m = poisson_ingarch_const()
    T = 12
    n = 10**4
    path = od.generate_path(m.covariates, 0, T, 31)
    lamc = np.empty(n)
    for r in range(n):
        lamc[r] = od.couple_forward(m, 0.0, 6.0, path, split_seed(37, r)).lam[T]
    lams = np.empty(n)
    for r in range(n):
        lams[r] = od.simulate(m, 0.0, 0, T, split_seed(41, r)).lam[T]
    assert sstats.ks_2samp(lamc, lams).pvalue > 1e-3


def test_couple_garch_benchmark_meets_with_equal_draws():
    # the benchmark volatility model from a floor start and one ten above
    link = od.LinearLink(CM(0.3, True), od.AffineAbsMap(0.1, (0.2,), True), CM(1.0, True),
                         order=2, floor=1.0)
    m = od.ModelSpec(od.GarchGaussian(1.0), link, od.IID(od.Uniform(0.0, 1.0)))
    for r in range(20):
        path = od.generate_path(m.covariates, 0, 399, split_seed(43, r))
        tr = od.couple_forward(m, 1.0, 11.0, path, split_seed(47, r))
        assert np.all(tr.y[tr.met] == tr.y_prime[tr.met])
        assert tr.censored == (tr.meet_time is None)


def test_couple_marginal_preservation_location():
    # continuous chains never glue, so every step goes through the coupling;
    # both chains keep the law of simulate
    link = od.LinearLink(CM(0.5), CM(0.3), CM(0.0), order=1)
    m = od.ModelSpec(od.Location(od.GaussianNoise(1.0)), link, od.Constant((1.0,)))
    T = 8
    n = 2000
    path = od.generate_path(m.covariates, 0, T, 53)
    traces = [od.couple_forward(m, 0.0, 6.0, path, split_seed(59, r)) for r in range(n)]
    chains = ((0.0, [tr.lam[T] for tr in traces]), (6.0, [tr.lam_prime[T] for tr in traces]))
    for start, coupled in chains:
        lams = [od.simulate(m, start, 0, T, split_seed(61, r)).lam[T] for r in range(n)]
        assert sstats.ks_2samp(coupled, lams).pvalue > 1e-3, f"chain from {start}"


# ---------------------------------------------------------------------------
# backward measures
# ---------------------------------------------------------------------------

def test_backward_one_step_deterministic_link():
    link = od.LinearLink(CM(0.0, True), CM(0.0, True), CM(2.5, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))
    path = od.generate_path(m.covariates, -1, -1, 0)
    mu = od.backward_measure(m, 9.0, 1, path, 200, 4)
    assert np.all(mu.points == 2.5)


def test_backward_requires_covering_path():
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, -10, -1, 0)
    with pytest.raises(PathTooShort):
        od.backward_measure(m, 0.0, 20, path, 200, 1)


def test_backward_gap_decreases_with_horizon():
    # coupled transport cost of the two-start backward pair shrinks in n
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, -200, -1, 55)
    costs = [coupled_backward_cost(m, 0.0, 10.0, n, path, 500, 5) for n in (25, 50, 100, 200)]
    assert all(costs[i] > costs[i + 1] for i in range(3))


def test_backward_two_starts_close_at_n200():
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, -200, -1, 56)
    a = od.backward_measure(m, 0.0, 200, path, 500, 5)
    b = od.backward_measure(m, 10.0, 200, path, 500, 5)
    assert od.wasserstein1(a, b).value <= 0.02


def test_backward_suffix_reuse_is_exact():
    # same seed, longer horizon: identical uniforms on the shared suffix mean
    # the n-run is reproducible inside the 2n-run machinery
    m = poisson_ingarch_x()
    p1 = od.generate_path(m.covariates, -50, -1, 57)
    p2 = od.generate_path(m.covariates, -100, -1, 57)
    assert np.array_equal(p1.values, p2.values[50:])
    a = od.backward_measure(m, 0.0, 50, p1, 300, 6)
    b = od.backward_measure(m, 0.0, 50, p2, 300, 6)
    assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# wasserstein
# ---------------------------------------------------------------------------

def test_w1_identical_measures_zero():
    x = np.linspace(0, 4, 200)
    assert od.wasserstein1(x, x.copy()).value == 0.0


def test_w1_point_masses_and_cap():
    n = 64
    assert od.wasserstein1(np.zeros(n), np.full(n, 0.3)).value == pytest.approx(0.3)
    assert od.wasserstein1(np.zeros(n), np.full(n, 5.0)).value == pytest.approx(1.0)


def test_w1_assignment_matches_bruteforce_oracle():
    # costs are summed with exactly-rounded accumulation, so tied optimal
    # assignments (ubiquitous for collinear transport) compare equal
    rng = generator(61)
    for _ in range(25):
        a = rng.normal(0, 2, size=8)
        b = rng.normal(0.5, 2, size=8)
        assert od.wasserstein1(a, b).value == od.wasserstein1_bruteforce(a, b)


def test_w1_symmetry_triangle_and_monotone_bound():
    rng = generator(67)
    for _ in range(30):
        a, b, c = (rng.normal(size=50) * rng.uniform(0.5, 3) for _ in range(3))
        ab, ba = od.wasserstein1(a, b), od.wasserstein1(b, a)
        assert ab.value == pytest.approx(ba.value, abs=1e-12)
        ac, cb = od.wasserstein1(a, c), od.wasserstein1(c, b)
        assert ab.value <= ac.value + cb.value + 1e-12


def test_w1_unequal_sizes_bootstrap_flag_and_error():
    a, b = np.zeros(100), np.full(150, 0.2)
    r = od.wasserstein1(a, b)
    assert r.bootstrap and r.n_used == 150
    assert r.value == pytest.approx(0.2)
    with pytest.raises(SizeMismatch):
        od.wasserstein1(a, b, allow_bootstrap=False)


def test_w1_subsampling_for_large_inputs():
    # vector states keep the assignment and subsample above max_exact;
    # scalar states are solved exactly at any size
    rng = generator(71)
    a = rng.normal(size=(5000, 2))
    b = rng.normal(size=(5000, 2))
    r = od.wasserstein1(a, b, max_exact=512, subsample_draws=4)
    assert not r.exact and r.n_used == 512
    assert r.spread >= 0.0 and r.value < 0.2
    r = od.wasserstein1(a[:, 0], b[:, 0], max_exact=512, subsample_draws=4)
    assert r.exact and r.n_used == 5000 and r.spread == 0.0


def test_w1_rejects_non_finite_points_and_empty_measures():
    x = np.linspace(0.0, 1.0, 5)
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[2] = bad
        for a, b in ((y, x), (x, y), (y, y)):
            with pytest.raises(InvalidSpec):
                od.wasserstein1(a, b)
    with pytest.raises(InvalidSpec):
        od.wasserstein1(np.zeros((4, 2)), np.full((4, 2), np.inf))
    for a, b in ((np.array([]), x), (np.array([]), np.array([]))):
        with pytest.raises(InvalidSpec):
            od.wasserstein1(a, b)


def _scalar_clouds(st, min_n, max_n):
    """Pairs of equal-size scalar clouds, often tie-heavy."""
    point = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]))

    @st.composite
    def clouds(draw):
        n = draw(st.integers(min_n, max_n))
        a = np.array(draw(st.lists(point, min_size=n, max_size=n)))
        b = np.array(draw(st.lists(point, min_size=n, max_size=n)))
        form = draw(st.sampled_from(["raw", "tenths", "constant"]))
        if form == "tenths":
            a, b = np.round(a, 1), np.round(b, 1)
        elif form == "constant":
            a = np.full(n, a[0])
        return a, b

    return clouds()


def test_w1_scalar_matches_assignment_property():
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(_scalar_clouds(st, 1, 60))
    def check(ab):
        a, b = ab
        assert abs(od.wasserstein1(a, b).value - _assignment_cost(a, b)) <= 1e-15

    check()


def test_w1_scalar_matches_bruteforce_property():
    # both sides fsum an optimal coupling; couplings tied in exact
    # arithmetic can differ in the rounding of their float costs
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(_scalar_clouds(st, 8, 8))
    def check(ab):
        a, b = ab
        assert abs(od.wasserstein1(a, b).value - od.wasserstein1_bruteforce(a, b)) <= 2.3e-16

    check()


def test_w1_scalar_is_symmetric():
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(_scalar_clouds(st, 1, 60))
    def check(ab):
        a, b = ab
        assert abs(od.wasserstein1(a, b).value - od.wasserstein1(b, a).value) <= 1e-15

    check()


# ---------------------------------------------------------------------------
# stationary sampler
# ---------------------------------------------------------------------------

def test_stationary_sampler_degenerate_link_first_doubling():
    link = od.LinearLink(CM(0.0, True), CM(0.0, True), CM(2.5, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))
    res = od.stationary_sampler(m, 0.01, 400, 200, 3)
    assert res.converged and res.n_final == 50 and res.reason == "tolerance"
    assert np.all(res.measure.points == 2.5)


def test_stationary_sampler_benchmark_converges():
    res = od.stationary_sampler(poisson_ingarch_x(), 0.01, 400, 500, 42)
    assert res.converged and res.n_final <= 400
    assert res.achieved_gap < 0.01
    assert res.history[-1][0] == res.n_final


def test_stationary_sampler_divergent_reports_not_converged():
    res = od.stationary_sampler(divergent_model(), 0.01, 100, 200, 42)
    assert not res.converged and res.reason == "max_n"
    assert res.achieved_gap >= 0.01


def test_stationary_sampler_overflow_is_a_result():
    # kappa = 3 overflows float64 about 620 steps into a backward run, so
    # the n = 800 run fails and the n = 400 measure is the last finite one
    link = od.LinearLink(CM(3.0, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.IID(od.Uniform(0.0, 1.0)))
    res = od.stationary_sampler(m, 0.01, 800, 100, 42)
    assert not res.converged
    assert res.reason.startswith("overflow at n=800: backward step t=")
    assert res.n_final == 400 and res.history[-1][0] == 400
    assert res.achieved_gap == res.history[-1][1] >= 0.01
    assert len(res.measure) == 100 and np.all(np.isfinite(res.measure.points))
    assert res.to_dict()["reason"] == res.reason


def test_stationary_sampler_first_run_overflow_raises():
    link = od.LinearLink(CM(1e300, True), CM(0.0, True), CM(1.0, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))
    with pytest.raises(StateOverflow, match="backward step t=-23"):
        od.stationary_sampler(m, 0.01, 100, 100, 1)


def test_backward_non_finite_state_is_an_overflow():
    # a non-finite state leaves the domain at the step where it appears;
    # a finite state outside it is a plain domain violation
    link = od.LinearLink(CM(1e300, True), CM(0.0, True), CM(1.0, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))
    path = od.generate_path(m.covariates, -5, -1, 1)
    with pytest.raises(StateOverflow, match="backward step t=-3: "):
        od.backward_measure(m, 0.0, 5, path, 100, 1)
    with pytest.raises(StateOverflow, match=r"coupled backward step t=-4 \(prime\)"):
        coupled_backward_cost(m, 0.0, 1.0, 5, path, 100, 1)
    neg = od.LinearLink(CM(0.0), CM(0.0), CM(-1.0), 1)
    m2 = od.ModelSpec(od.Poisson(), neg, od.Constant((1.0,)))
    with pytest.raises(DomainViolation) as info:
        od.backward_measure(m2, 0.0, 5, path, 100, 1)
    assert not isinstance(info.value, StateOverflow)


def test_stationary_sampler_validates_max_n():
    with pytest.raises(InvalidSpec):
        od.stationary_sampler(poisson_ingarch_x(), 0.01, 300, 200, 1)


def test_invariance_push_through_kernel():
    # empirical form of pi_t P_{X_t} = pi_{t+1}
    m = poisson_ingarch_x()
    tol = 0.01
    res = od.stationary_sampler(m, tol, 400, 500, 91)
    nstar = res.n_final
    ext = od.generate_path(m.covariates, -2 * nstar, 0, split_seed(91, 11))
    pushed = push_measure(m, res.measure, ext, 0, 91)
    direct = od.backward_measure(m, m.start_state(), 2 * nstar, ext, 500, 91, t_end=1)
    assert od.wasserstein1(pushed, direct).value <= 2 * tol


# ---------------------------------------------------------------------------
# control statistics and regeneration
# ---------------------------------------------------------------------------

def _const_stats(kappa, gamma, delta, h, H, T=150):
    m = poisson_ingarch_const()
    path = od.generate_path(m.covariates, 0, T, 1)
    return od.w_stats(
        m, path, h, H,
        gamma_map=CM(gamma, True), delta_map=CM(delta, True), kappa_map=CM(kappa, True),
        phi=od.PhiSpec(((1, 1.0),)),
    )


def test_w_stats_geometric_closed_forms():
    # independent oracle: finite geometric sums evaluated directly
    kappa = gamma = 0.5
    delta, h, H = 1.0, 3, 60
    stats = _const_stats(kappa, gamma, delta, h, H)
    w1_oracle = delta * (1.0 + sum(gamma**i for i in range(1, H + 1)))
    w4_oracle = sum(kappa ** (s + 1) for s in range(H + 1))
    assert stats.w1[0] == pytest.approx(w1_oracle, abs=1e-12)  # = 2 - tail
    assert stats.w2[0] == pytest.approx(0.5**3)
    assert stats.w3[0] == pytest.approx(0.5**3)
    assert stats.w4[0] == pytest.approx(w4_oracle, abs=1e-12)  # = 1 - tail
    assert abs(stats.w1[0] - 2.0) < 1e-6 and abs(stats.w4[0] - 1.0) < 1e-6
    assert stats.w1_tail[0] < 1e-6


def test_w_stats_shift_invariant_in_constant_environment():
    stats = _const_stats(0.5, 0.5, 1.0, 3, 40)
    for arr in (stats.w1, stats.w2, stats.w3, stats.w4):
        assert np.ptp(arr) == 0.0


def test_w_stats_w3_vanishes_with_growing_h():
    # E log kappa < 0 forces sup_{j >= h} of the products to 0 as h grows
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, 0, 3000, 5)
    kappa = od.AffineAbsMap(0.3, (0.5,), True)  # kappa(x) = 0.3 + 0.5|x|
    vals = []
    for h in (1, 5, 15, 40):
        stats = od.w_stats(m, path, h, 60, gamma_map=CM(0.5, True),
                           delta_map=CM(1.0, True), kappa_map=kappa,
                           phi=od.PhiSpec(((1, 1.0),)))
        vals.append(stats.w3.mean())
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def _w_stats_per_time(path, h, H, gamma, delta, kappa, phi):
    """Reference: the four statistics and their tails, one time at a time."""
    g, d, k = (np.asarray(m.evaluate(path.values), dtype=float) for m in (gamma, delta, kappa))
    rho_g = math.exp(min(float(np.mean(np.log(np.maximum(g, 1e-300)))), 700.0))
    rho_k = math.exp(min(float(np.mean(np.log(np.maximum(k, 1e-300)))), 700.0))
    geo_g, geo_k = rho_g / (1.0 - rho_g), rho_k / (1.0 - rho_k)
    rows = []
    for i in range(H + 1, len(path) - H):
        cpg = np.cumprod(g[i - H: i][::-1])
        dwin = d[i - H - 1: i][::-1]
        cpk = np.cumprod(k[i - H: i][::-1])
        cf = np.cumprod(k[i: i + H + 1])
        rows.append((dwin[0] + float(cpg @ dwin[1:]), cpg[h - 1:].max(), cpk[h - 1:].max(),
                     float(np.sum(phi.evaluate(cf))), cpg[-1] * float(d.mean()) * geo_g,
                     cpg[-1] * rho_g, cpk[-1] * rho_k, phi.linear_coefficient * cf[-1] * geo_k))
    return np.array(rows).T


def test_w_stats_matches_the_per_time_loop():
    # varying maps over a path of more than two blocks of times
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, -40, 700, 3)
    gamma, delta = od.drift_certificate(m)
    kappa = od.AffineAbsMap(0.3, (0.5,), True)
    phi = od.PhiSpec(((1, 0.7), (2, 0.2)))
    for h, H in ((1, 7), (4, 33)):
        got = od.w_stats(m, path, h, H, gamma_map=gamma, delta_map=delta, kappa_map=kappa, phi=phi)
        ref = _w_stats_per_time(path, h, H, gamma, delta, kappa, phi)
        cols = (got.w1, got.w2, got.w3, got.w4, got.w1_tail, got.w2_tail, got.w3_tail, got.w4_tail)
        assert len(got) == ref.shape[1] == len(path) - 2 * H - 1
        for col, want in zip(cols, ref):
            assert col.tobytes() == want.tobytes()


def test_w_stats_too_short_path():
    m = poisson_ingarch_const()
    path = od.generate_path(m.covariates, 0, 30, 1)
    with pytest.raises(PathTooShort):
        od.w_stats(m, path, 2, 40, gamma_map=CM(0.5, True), delta_map=CM(1.0, True),
                   kappa_map=CM(0.5, True), phi=od.PhiSpec(((1, 1.0),)))


def test_regeneration_arithmetic_spacing_and_counts():
    stats = _const_stats(0.5, 0.5, 1.0, 3, 40, T=200)
    regen = od.regeneration_times(stats, C=4.0, h=3)
    t0 = stats.times[0]
    # constant stats pass everywhere: greedy picks t0, t0 + (h+1), ...
    assert np.array_equal(regen.times[:5], t0 + 4 * np.arange(5))
    # count of accepted times up to t: floor(k/(h+1)) + 1 inside the window
    for i in (0, 7, 40):
        t = stats.times[i]
        assert regen.m_counts[i] == (t - t0) // 4 + 1


def test_regeneration_empty_reports_smallest_admitting_C():
    stats = _const_stats(0.5, 0.5, 1.0, 3, 40)
    regen = od.regeneration_times(stats, C=1.5, h=3)
    assert len(regen) == 0
    # needs C >= max(W1, W4, 1/(1-W2), 1/(1-W3)) = max(2-eps, 1-eps, 1/0.875) = W1
    assert regen.smallest_admitting_C == pytest.approx(stats.w1[0])


def test_regeneration_frequency_grows_linearly_on_benchmark():
    m = poisson_ingarch_x()
    ratios = []
    for T in (1000, 10000):
        path = od.generate_path(m.covariates, 0, T + 120, 9)
        stats, C, h = od.calibrate_regeneration(m, path, H=50)
        regen = od.regeneration_times(stats, C, h)
        ratios.append(len(regen) / T)
    assert ratios[0] > 0 and ratios[1] > 0
    # stationarity: the acceptance frequency stabilizes, M_n / n -> const > 0
    assert abs(ratios[1] - ratios[0]) < 0.5 * max(ratios)


def _family_models():
    """One end-to-end model per kernel family."""
    models = [
        ("poisson", poisson_ingarch_x(), 0.95),
        ("negbinomial", od.ModelSpec(
            od.NegBinomial(3),
            od.LinearLink(CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True), 1, 0.0),
            od.IID(od.Uniform(0, 1))), 0.95),
        ("logit", logit_benchmark(), 0.95),
        ("probit", od.ModelSpec(
            od.BernoulliProbit(),
            od.LinearLink(CM(0.5), CM(0.4, True), CM(-0.1), 1),
            od.AR1(0.5, od.Gaussian(0, 0.5))), 0.95),
        ("garch", od.ModelSpec(
            od.GarchGaussian(1.0),
            od.LinearLink(CM(0.2, True), CM(0.3, True), CM(1.0, True), 2, 1.0),
            od.IID(od.Uniform(0, 1))), 0.95),
        ("multinomial", od.ModelSpec(
            od.Multinomial(3),
            od.LinearLink(CM(0.5, True), od.CategoryTable(((0.2, -0.3, 0.1), (0.0, 0.4, -0.2))), CM(0.0), 1),
            od.IID(od.Uniform(0, 1))), 0.95),
        ("location-arma", od.ModelSpec(
            od.Location(od.LaplaceNoise(1.0)),
            od.ArmaLikeLink(od.AffineAbsMap(0.1, (0.3,), True), CM(0.2), CM(0.4)),
            od.IID(od.Uniform(0, 1))), 0.95),
        ("student", od.ModelSpec(
            od.Location(od.StudentTNoise(2.0)),
            od.LinearLink(CM(0.5), CM(0.3), CM(0.1), 1),
            od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.7, 0.3), (0.2, 0.8)))), 0.95),
    ]
    return models


def test_simulate_every_family_end_to_end():
    for name, m, _ in _family_models():
        tr = od.simulate(m, m.start_state(), 0, 300, 13)
        assert len(tr) == 301, name
        for i in (0, 100, 299):
            want = od.apply(m.link, tr.lam[i], int(tr.y[i]) if m.kernel.discrete else tr.y[i],
                            tr.x[i])
            assert np.all(tr.lam[i + 1] == want), name


def test_stationary_sampler_every_family_converges():
    # the full backward pipeline (inverse sampling, link advance, W1 under
    # the family norm) works and contracts for each kernel family
    for name, m, _ in _family_models():
        res = od.stationary_sampler(m, 0.01, 400, 300, 101)
        assert res.converged, name
        assert res.achieved_gap < 0.01, name
        assert m.kernel.domain_contains(res.measure.points), name


def test_couple_forward_vector_state_trace():
    m = [x for n, x, _ in _family_models() if n == "multinomial"][0]
    path = od.generate_path(m.covariates, 0, 60, 3)
    tr = od.couple_forward(m, np.zeros(2), np.array([2.0, -1.0]), path, 7)
    assert not tr.censored
    assert tr.lam.shape == (61, 2)
    import io

    buf = io.StringIO()
    tr.to_csv(buf, x_values=path.values)
    header = buf.getvalue().splitlines()[0]
    assert header == "t,x,lambda_1,lambda_2,y,lambda_prime_1,lambda_prime_2,y_prime,met"


def test_model_spec_validation():
    with pytest.raises(UnsupportedCombination):
        od.ModelSpec(od.GarchGaussian(1.0),
                     od.LinearLink(CM(0.3, True), CM(0.2, True), CM(1.5, True), 1, 1.0),
                     od.Constant((1.0,)))
    with pytest.raises(UnsupportedCombination):
        od.ModelSpec(od.Multinomial(3),
                     od.LinearLink(CM(0.3, True), CM(0.2, True), CM(0.0), 1),
                     od.Constant((1.0,)))
    with pytest.raises(InvalidSpec):
        od.ModelSpec(od.Poisson(),
                     od.LinearLink(CM(0.3, True), CM(0.2, True), CM(1.0, True), 1, 0.0),
                     od.Constant((1.0,)), alpha=1.5)


def test_model_json_round_trip():
    m = poisson_ingarch_x()
    again = od.model_from_dict(m.to_dict())
    assert again.to_dict() == m.to_dict()


# ---------------------------------------------------------------------------
# the coefficient-table step core against a per-step links.apply reference
# ---------------------------------------------------------------------------

RC = od.RegimeCoefficients


def _step_core_models():
    """One model per link shape the step core must reproduce bit for bit."""
    u01 = od.IID(od.Uniform(0.0, 1.0))
    ar2 = od.AR1(0.6, od.Gaussian(0.0, 0.5), dimension=2)
    return {
        "linear-order1": od.ModelSpec(
            od.Location(od.GaussianNoise(1.0)),
            od.LinearLink(CM(0.5), od.AffineAbsMap(0.1, (0.3,)), od.ExpAffineMap(-1.0, (0.5,)), 1), ar2),
        "linear-order1-floor": poisson_ingarch_x(),
        "linear-order2-floor": od.ModelSpec(
            od.GarchGaussian(1.0),
            od.LinearLink(CM(0.3, True), od.AffineAbsMap(0.1, (0.2,), True), CM(1.0, True), 2, 1.0), u01),
        "linear-order2": od.ModelSpec(
            od.GarchGaussian(1.0),
            od.LinearLink(od.AffineAbsMap(0.1, (0.4,), True), CM(0.2, True), CM(1.0, True), 2), u01),
        "threshold-fixed": od.ModelSpec(
            od.Poisson(),
            od.ThresholdLink(RC(CM(0.3, True), od.AffineAbsMap(0.0, (0.2,), True), CM(1.0, True)),
                             RC(CM(0.5, True), CM(0.1, True), od.AffineAbsMap(0.5, (0.5,), True)),
                             od.FixedInterval(0.0, 3.0), 1, 0.0), u01),
        "threshold-covariate-scaled": od.ModelSpec(
            od.Location(od.GaussianNoise(1.0)),
            od.ThresholdLink(RC(CM(0.4), od.AffineAbsMap(0.2, (-0.3,)), CM(0.1)),
                             RC(od.AffineAbsMap(-0.2, (0.3,)), CM(0.6), CM(-0.5)),
                             od.CovariateScaled(-1.0, 2.0), 1), ar2),
        "arma-like": od.ModelSpec(
            od.Location(od.LaplaceNoise(1.0)),
            od.ArmaLikeLink(od.AffineAbsMap(0.1, (0.3,), True), CM(0.2), od.AffineAbsMap(0.4, (-0.1,))), u01),
        "multinomial": od.ModelSpec(
            od.Multinomial(3),
            od.LinearLink(od.AffineAbsMap(0.3, (0.2,), True),
                          od.CategoryTable(((0.2, -0.3, 0.1), (0.0, 0.4, -0.2))), CM(0.1), 1), u01),
    }


def _start(model, offset):
    """A start state offset from the domain base (by offset, 2 offset, .. for vector states)."""
    s = model.start_state()
    return s + offset * np.arange(1, model.kernel.state_dim + 1) if model.kernel.state_dim > 1 else s + offset


def _ref_simulate(model, s0, t_min, t_max, seed):
    path = od.generate_path(model.covariates, t_min, t_max, split_seed(seed, engine._SEED_ENV))
    rng = generator(seed, engine._SEED_OBS)
    lam, lams, ys = s0, [], []
    for x in path.values:
        lams.append(lam)
        y = model.kernel.sample(lam, rng)
        ys.append(y)
        lam = od.apply(model.link, lam, y, x)
    return np.array(lams, dtype=float), np.array(ys, dtype=float)


def _ref_couple(model, s0, s0p, path, seed):
    rng = generator(seed, engine._SEED_COUPLE)
    lam, lamp, rows = s0, s0p, []
    for x in path.values:
        if np.array_equal(lam, lamp):
            y = model.kernel.sample(lam, rng)
            yp, met = y, True
        else:
            draw = model.kernel.maximal_couple(lam, lamp, rng)
            y, yp, met = draw.y, draw.y_prime, draw.met
        rows.append((lam, lamp, y, yp, met))
        lam, lamp = od.apply(model.link, lam, y, x), od.apply(model.link, lamp, yp, x)
    lam_h, lamp_h, y_h, yp_h, met_h = (np.array(c) for c in zip(*rows))
    return lam_h.astype(float), lamp_h.astype(float), y_h.astype(float), yp_h.astype(float), met_h


def _ref_backward(model, s0, n, path, replicas, seed):
    stream = engine._obs_stream(seed, replicas)
    lam = np.tile(np.asarray(s0, dtype=float), (replicas, 1)) if model.kernel.state_dim > 1 \
        else np.full(replicas, float(s0))
    for t in range(-n, 0):
        y = model.kernel.sample_inverse(lam, stream.uniforms(t, 1)[0])
        lam = od.apply(model.link, lam, y, path.value_at(t))
    return lam


def _ref_backward_cost(model, s0, s0p, n, path, replicas, seed):
    stream = engine._obs_stream(seed, replicas)
    lam, lamp = np.full(replicas, float(s0)), np.full(replicas, float(s0p))
    gap = np.full(replicas, abs(float(s0p) - float(s0)))
    floor = model.link.floor
    for t in range(-n, 0):
        u, x = stream.uniforms(t, 1)[0], path.value_at(t)
        y = np.asarray(model.kernel.sample_inverse(lam, u), dtype=float)
        yp = np.asarray(model.kernel.sample_inverse(lamp, u), dtype=float)
        lam_next, lamp_next = od.apply(model.link, lam, y, x), od.apply(model.link, lamp, yp, x)
        mult = (y == yp) if floor is None else (y == yp) & (lam_next > floor) & (lamp_next > floor)
        new_gap = np.abs(lamp_next - lam_next)
        coefs = np.abs(state_coefficients(model.link, y, x))
        new_gap[mult] = coefs[mult] * gap[mult]
        lam, lamp, gap = lam_next, lamp_next, new_gap
    return float(np.minimum(gap, 1.0).mean())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_step_core_models()))
def test_step_core_matches_per_step_apply(name):
    # every engine loop steps a coefficient table built once per path; each
    # must equal a loop calling links.apply on one covariate row per step
    model = _step_core_models()[name]
    hyp, st, settings = hypothesis_settings()
    n, replicas = 30, 100

    @hyp.settings(settings, max_examples=6)
    @hyp.given(st.integers(0, 2**31), st.floats(0.0, 3.0))
    def check(seed, offset):
        s0, s0p = model.start_state(), _start(model, offset)
        tr = od.simulate(model, s0p, -2, n, seed)
        lam, y = _ref_simulate(model, s0p, -2, n, seed)
        assert _same_bits(tr.lam, lam) and _same_bits(tr.y, y)

        path = od.generate_path(model.covariates, -n - 5, n, seed)  # starts before the backward window
        ct = od.couple_forward(model, s0, s0p, path, seed)
        for got, want in zip((ct.lam, ct.lam_prime, ct.y, ct.y_prime, ct.met),
                             _ref_couple(model, s0, s0p, path, seed)):
            assert _same_bits(got, want)

        mu = od.backward_measure(model, s0p, n, path, replicas, seed)
        assert _same_bits(mu.points, _ref_backward(model, s0p, n, path, replicas, seed))
        pushed = push_measure(model, mu, path, 0, seed)
        want = od.apply(model.link, mu.points,
                        model.kernel.sample_inverse(mu.points, engine._obs_stream(seed, replicas).uniforms(0, 1)[0]),
                        path.value_at(0))
        assert _same_bits(pushed.points, want)
        if model.kernel.state_dim == 1:
            got = coupled_backward_cost(model, s0, s0p, n, path, replicas, seed)
            assert got == _ref_backward_cost(model, s0, s0p, n, path, replicas, seed)

    check()


def test_engine_loops_evaluate_each_map_once_per_path():
    calls = []

    def kappa_tilde(x):
        calls.append(len(x))
        return 0.3 * np.abs(x[:, 0])

    link = od.LinearLink(CM(0.4, True), DerivedMap("counted", kappa_tilde), CM(1.0, True), 1, 0.0)
    m = od.ModelSpec(od.Poisson(), link, od.IID(od.Uniform(0.0, 1.0)))
    od.simulate(m, 0.0, 0, 49, 3)
    assert calls == [50]
    path = od.generate_path(m.covariates, -50, -1, 3)
    calls.clear()
    od.couple_forward(m, 0.0, 5.0, path, 3)
    assert calls == [50]
    calls.clear()
    od.backward_measure(m, 0.0, 40, path, 100, 3)
    assert calls == [40]


def test_order_two_overflow_is_a_state_overflow():
    # y**2 past the float64 range is inf inside the step, never Python's OverflowError
    link = od.LinearLink(CM(0.5, True), CM(1.0, True), CM(1.0, True), 2, 1.0)
    with np.errstate(over="ignore"):
        assert od.apply(link, 1.0, 1e200, np.array([0.0])) == math.inf
    m = od.ModelSpec(od.GarchGaussian(1.0), link, od.Constant((1.0,)))
    with pytest.raises(StateOverflow, match=r"^step t=\d+: state overflowed"):
        od.simulate(m, 1.7e308, 0, 50, 1)
    path = od.generate_path(m.covariates, -3, -1, 1)
    with pytest.raises(StateOverflow, match="backward step t=-3"):
        od.backward_measure(m, 1.7e308, 3, path, 100, 1)


# ---------------------------------------------------------------------------
# result tables: one writer, the bytes of the hand-written per-table loops
# ---------------------------------------------------------------------------

_TABLE_BYTES = {
    "trajectory": 't,x,lambda,y\r\n-1,0.10000000000000001,0,1\r\n0,0.33333333333333331,1.5,0\r\n1,-2.5e+17,0.66666666666666663,3\r\n',
    "trajectory_vector": 't,x_1,x_2,lambda_1,lambda_2,y\r\n-1,0.10000000000000001,7,0,1,1\r\n0,0.33333333333333331,-0,0.20000000000000001,-0.29999999999999999,0\r\n1,1e-300,2,1e+20,4.9406564584124654e-324,3\r\n',
    "trace": 't,lambda,y,lambda_prime,y_prime,met\r\n4,0,1,0.10000000000000001,1,0\r\n5,1.5,0,1.6000000000000001,0,1\r\n6,0.66666666666666663,3,0.76666666666666661,3,1\r\n',
    "trace_x": 't,x,lambda,y,lambda_prime,y_prime,met\r\n4,0.10000000000000001,0,1,0.10000000000000001,1,0\r\n5,0.33333333333333331,1.5,0,1.6000000000000001,0,1\r\n6,-2.5e+17,0.66666666666666663,3,0.76666666666666661,3,1\r\n',
    "trace_vector_x": 't,x_1,x_2,lambda_1,lambda_2,y,lambda_prime_1,lambda_prime_2,y_prime,met\r\n4,0.10000000000000001,7,0,1,1,0,3,3,0\r\n5,0.33333333333333331,-0,0.20000000000000001,-0.29999999999999999,0,0.60000000000000009,-0.89999999999999991,0,1\r\n6,1e-300,2,1e+20,4.9406564584124654e-324,3,3e+20,1.4821969375237396e-323,1,1\r\n',
    "measure": 'point\r\n0\r\n1.5\r\n0.66666666666666663\r\n',
    "measure_vector": 'point_1,point_2\r\n0,1\r\n0.20000000000000001,-0.29999999999999999\r\n1e+20,4.9406564584124654e-324\r\n',
    "wstats": 't,w1,w2,w3,w4\r\n10,0.5,0.10000000000000001,0,inf\r\n11,nan,0.20000000000000001,0,2\r\n12,0.14285714285714285,0.29999999999999999,0,1.0000000000000001e-05\r\n',
    "path": 't,x_1\r\n-2,0.10000000000000001\r\n-1,0.33333333333333331\r\n0,-2.5e+17\r\n',
    "path_vector": 't,x_1,x_2\r\n-2,0.10000000000000001,7\r\n-1,0.33333333333333331,-0\r\n0,1e-300,2\r\n',
}


def test_result_tables_keep_their_bytes():
    import io

    def csv_of(obj, **kw):
        buf = io.StringIO(newline="")
        obj.to_csv(buf, **kw)
        return buf.getvalue()

    x1 = np.array([[0.1], [1 / 3], [-2.5e17]])
    x2 = np.array([[0.1, 7.0], [1 / 3, -0.0], [1e-300, 2.0]])
    lam = np.array([0.0, 1.5, 2 / 3])
    lam2 = np.array([[0.0, 1.0], [0.2, -0.3], [1e20, 5e-324]])
    y = np.array([1.0, 0.0, 3.0])
    met = np.array([False, True, True])
    trace = engine.CouplingTrace(4, 6, lam, lam + 0.1, y, y, met, 5, False, 0.0, 0)
    got = {
        "trajectory": csv_of(engine.Trajectory(-1, 1, x1, lam, y, 0)),
        "trajectory_vector": csv_of(engine.Trajectory(-1, 1, x2, lam2, y, 0)),
        "trace": csv_of(trace),
        "trace_x": csv_of(trace, x_values=x1),
        "trace_vector_x": csv_of(engine.CouplingTrace(4, 6, lam2, lam2 * 3, y, y[::-1], met, 5, False, 0.0, 0),
                                 x_values=x2),
        "measure": csv_of(od.EmpiricalMeasure(lam)),
        "measure_vector": csv_of(od.EmpiricalMeasure(lam2)),
        "wstats": csv_of(engine.WStats(np.arange(10, 13), np.array([0.5, np.nan, 1 / 7]), np.array([0.1, 0.2, 0.3]),
                                       np.zeros(3), np.array([np.inf, 2.0, 1e-5]), 1, 2, *[np.zeros(3)] * 4,
                                       -0.1, -0.2)),
        "path": csv_of(od.CovariatePath(-2, 0, x1, 0, "h")),
        "path_vector": csv_of(od.CovariatePath(-2, 0, x2, 0, "h")),
    }
    assert got == _TABLE_BYTES


# ---------------------------------------------------------------------------
# the Python-float step of one chain against a one-row batch
# ---------------------------------------------------------------------------

def _float_step_links():
    """Linear links at orders 1 and 2 with and without a floor, ARMA-like, threshold."""
    aff = od.AffineAbsMap(0.1, (0.3,))
    return {
        "linear-1": od.LinearLink(CM(0.5), aff, CM(-0.2), 1),
        "linear-1-floor": od.LinearLink(CM(0.4, True), aff, CM(1.0, True), 1, 0.0),
        "linear-1-signed-zero-floor": od.LinearLink(CM(0.5), CM(0.5), CM(-0.0), 1, 0.0),
        "linear-1-nan-floor": od.LinearLink(CM(0.5), aff, CM(0.1), 1, math.nan),
        "linear-2": od.LinearLink(aff, CM(0.2, True), CM(1.0, True), 2),
        "linear-2-floor": od.LinearLink(CM(0.3, True), aff, CM(1.0, True), 2, 1.0),
        "arma-like": od.ArmaLikeLink(aff, CM(0.2), od.AffineAbsMap(0.4, (-0.1,)), 0.5),
        "threshold": od.ThresholdLink(RC(CM(0.3), aff, CM(1.0)), RC(CM(-0.5), CM(0.1), aff),
                                      od.CovariateScaled(-1.0, 2.0), 2, -1.0),
    }


@pytest.mark.parametrize("name", sorted(_float_step_links()))
def test_float_step_matches_a_one_row_batch(name):
    # a Python float state with a list row steps on floats: the bits of a (1,)
    # batch, a float back, and no numpy warning even where the step overflows
    from obsdriven import links

    link = _float_step_links()[name]
    hyp, st, settings = hypothesis_settings()
    special = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, math.nan, math.inf, 1e200, -1e200, 5e-324])
    value = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))

    @hyp.settings(settings, max_examples=200)
    @hyp.given(value, value, st.floats(-3.0, 3.0))
    def check(s, y, x):
        table = links.coefficient_table(link, np.array([[x]]))
        got = links.step(link, table.tolist()[0], s, y)
        with np.errstate(all="ignore"):
            want = links.step(link, table.T, np.array([s]), np.array([y]))
        assert type(got) is float and np.float64(got).tobytes() == want[0].tobytes()

    check()
    if link.floor is not None:
        row = links.coefficient_table(link, np.array([[0.0]])).tolist()[0]
        assert math.isnan(links.step(link, row, math.nan, 0.0))
        assert np.float64(links.step(link, row, -1e300, 0.0)).tobytes() == np.float64(link.floor).tobytes()
    # a float state with batched coefficient columns stays on the array path
    table = links.coefficient_table(link, np.linspace(-2.0, 2.0, 5)[:, None])
    got = links.step(link, table.T, 0.5, 1.0)
    assert isinstance(got, np.ndarray) and _same_bits(got, [links.step(link, r, 0.5, 1.0) for r in table.tolist()])
    if link.order == 2:
        row = links.coefficient_table(link, np.array([[0.5]])).tolist()[0]
        assert links.step(link, row, 1.0, 1e200) == math.inf


# ---------------------------------------------------------------------------
# domain errors carry the step that failed
# ---------------------------------------------------------------------------

def test_simulate_domain_errors_carry_the_failing_step():
    loc = od.ModelSpec(od.Location(od.GaussianNoise(1.0)),
                       od.LinearLink(CM(1e300), CM(0.3), CM(0.0), 1), od.Constant((1.0,)))
    with pytest.raises(StateOverflow, match=r"^step t=4: state overflowed float64$") as info:
        od.simulate(loc, 1.0, 3, 20, 5)
    e = info.value
    assert (e.t, e.replica, e.previous, e.state) == (4, None, 1e300, math.inf)
    with np.errstate(over="ignore"):
        assert type(e.y) is float and od.apply(loc.link, e.previous, e.y, np.array([1.0])) == math.inf

    neg = od.ModelSpec(od.Poisson(), od.LinearLink(CM(0.0), CM(0.0), CM(-1.0), 1), od.Constant((1.0,)))
    with pytest.raises(DomainViolation, match=r"^step t=0: state left the poisson domain$") as info:
        od.simulate(neg, 0.0, 0, 5, 1)
    e = info.value
    assert not isinstance(e, StateOverflow)
    assert (e.t, e.replica, e.previous, e.y, e.state) == (0, None, 0.0, 0, -1.0)
    path = od.generate_path(neg.covariates, 0, 5, 1)
    with pytest.raises(DomainViolation, match=r"^initial state \(prime\): ") as info:
        od.couple_forward(neg, 0.0, -2.0, path, 1)
    assert (info.value.t, info.value.state, info.value.previous) == (None, -2.0, None)


def test_backward_domain_errors_name_the_first_failing_replica():
    # f = 0.5 - y leaves the Poisson domain on the replicas that draw y >= 1
    m = od.ModelSpec(od.Poisson(), od.LinearLink(CM(0.0), CM(-1.0), CM(0.5), 1), od.Constant((1.0,)))
    path = od.generate_path(m.covariates, -5, -1, 1)
    replicas, seed = 200, 7
    y = m.kernel.sample_inverse(np.full(replicas, 0.1), engine._obs_stream(seed, replicas).uniforms(-5, 1)[0])
    first = int(np.flatnonzero(y >= 1)[0])
    assert first > 0
    with pytest.raises(DomainViolation, match=r"^backward step t=-5: state left the poisson domain$") as info:
        od.backward_measure(m, 0.1, 5, path, replicas, seed)
    e = info.value
    assert (e.t, e.replica, e.previous, e.y, e.state) == (-5, first, 0.1, y[first], 0.5 - y[first])

    big = od.ModelSpec(od.Poisson(), od.LinearLink(CM(1e300, True), CM(0.0, True), CM(1.0, True), 1, 0.0),
                       od.Constant((1.0,)))
    with pytest.raises(StateOverflow, match=r"^coupled backward step t=-4 \(prime\): ") as info:
        coupled_backward_cost(big, 0.0, 1.0, 5, path, 100, 1)
    e = info.value
    assert (e.t, e.replica, e.previous, e.state) == (-4, 0, 1e300, math.inf)
