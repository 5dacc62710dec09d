"""Kernel families: sampling, phi rates, the TV oracle, and maximal coupling."""

import ast
import io
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats
from scipy.special import expit, log_ndtr, ndtr

import obsdriven as od
from obsdriven import kernels
from obsdriven.errors import CouplingBudgetExceeded, StateOutOfDomain, UnsupportedOrder
from obsdriven.kernels import kernel_from_dict, tv_table, tv_table_to_csv
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


def test_poisson_quantile_matches_scipy_where_finite():
    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(*_poisson_inputs(st, 1e10))
    def check(s, u):
        ref = sstats.poisson.ppf(u, s)
        if np.isfinite(ref):
            assert od.Poisson().sample_inverse(s, u) == ref

    check()


def test_poisson_quantile_search_matches_scipy_in_the_bulk():
    # the search that takes over above a mean of 1e10 is the same quantile
    # as scipy's wherever pdtr is accurate: within 4 standard deviations
    from obsdriven.kernels import _poisson_quantile_search

    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(*_poisson_inputs(st, 1e10, st.floats(ndtr(-4.0), ndtr(4.0))))
    def check(s, u):
        got = _poisson_quantile_search(np.array([s]), np.array([u]))[0]
        assert got == sstats.poisson.ppf(u, s)

    check()


def test_poisson_quantile_nondecreasing_in_u():
    hyp, st, settings = hypothesis_settings()
    s_st, u_st = _poisson_inputs(st, 1e15)

    @settings
    @hyp.given(s_st, u_st, u_st)
    def check(s, u1, u2):
        lo, hi = od.Poisson().sample_inverse(s, np.array([min(u1, u2), max(u1, u2)]))
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
    from obsdriven import kernels

    def never(*args):
        raise AssertionError("edge input reached the quantile computation")

    monkeypatch.setattr(kernels, "_poisson_quantile_search", never)
    monkeypatch.setattr(kernels.stats.poisson, "ppf", never)
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
    # u = pdtr(k, s) and its float neighbours sit on and beside a jump of
    # the cdf, where a certified search and scipy's root could part ways
    from scipy.special import pdtr

    hyp, st, settings = hypothesis_settings()

    @settings
    @hyp.given(st.one_of(st.floats(0.0, 1e10), st.floats(-3.0, 10.0).map(lambda e: 10.0**e)),
               st.floats(-6.0, 6.0), st.sampled_from([-1, 0, 1]))
    def check(s, z, side):
        k = max(math.floor(s + z * math.sqrt(s)), 0)
        u = float(pdtr(k, s))
        if side:
            u = math.nextafter(u, side * math.inf)
        hyp.assume(0.0 < u < 1.0)
        ref = sstats.poisson.ppf(u, s)
        if np.isfinite(ref):
            assert od.Poisson().sample_inverse(s, u) == ref

    check()


def test_poisson_quantile_is_scipy_where_pdtr_drifts():
    # 4.5 standard deviations above these means pdtr's tail is off by more
    # than the certification gap: the search lands below scipy's quantile
    from obsdriven.kernels import _poisson_quantile_search

    s = np.array([3748452.024508666, 8108291.920843777])
    u = np.array([0.9999972414486797, 0.9999978904155897])
    ref = sstats.poisson.ppf(u, s)
    assert np.all(_poisson_quantile_search(s, u)[0] < ref)
    np.testing.assert_array_equal(od.Poisson().sample_inverse(s, u), ref)


def test_poisson_bulk_draws_do_not_call_scipy(monkeypatch):
    rng = generator(17)
    s, u = rng.uniform(0.5, 50.0, 2000), rng.random(2000)
    ref = sstats.poisson.ppf(u, s)
    calls = []
    monkeypatch.setattr(kernels.stats.poisson, "ppf", lambda *args: calls.append(args))
    got = od.Poisson().sample_inverse(s, u)
    assert calls == []
    np.testing.assert_array_equal(got, ref)


def test_poisson_quantile_at_means_where_scipy_is_nan():
    # scipy 1.17 returns NaN for about half of these draws
    s = np.full(2000, 1e12)
    u = generator(5).random(2000)
    k = od.Poisson().sample_inverse(s, u)
    z = (k - s) / np.sqrt(s)
    assert np.all(np.abs(z - sstats.norm.ppf(u)) < 1e-5)


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


def test_domain_checks():
    with pytest.raises(StateOutOfDomain):
        od.Poisson().tv_bound(-1.0, 2.0)
    with pytest.raises(StateOutOfDomain):
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
    assert stud.degree == 1 and stud.linear_coefficient > 0


def test_phi_spec_validation():
    with pytest.raises(Exception):
        od.PhiSpec(((0, 1.0),))  # must vanish at 0
    with pytest.raises(Exception):
        od.PhiSpec(((1, -1.0),))
    with pytest.raises(Exception):
        od.PhiSpec(((1, 0.0),))


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
            assert k.tv_exact(s, sp, 1e-7) == pytest.approx(_overlap_by_quadrature(k, s, sp), abs=1e-8), (k, s, sp)


def test_continuous_tv_exact_symmetric_bounded_and_monotone():
    hyp, st, settings = hypothesis_settings()
    continuous = [k for k in all_kernels() if not k.discrete]

    @settings
    @hyp.given(st.sampled_from(continuous), st.floats(-1e3, 1e3),
               st.floats(0.0, 1e2), st.floats(0.0, 1e2))
    def check(k, s, h1, h2):
        if k.domain_floor() is not None:
            s = k.domain_floor() + abs(s)
        near, far = s + min(h1, h2), s + max(h1, h2)
        tv_near, tv_far = k.tv_exact(s, near), k.tv_exact(s, far)
        assert tv_near == k.tv_exact(near, s) and tv_far == k.tv_exact(far, s)
        assert 0.0 <= tv_near <= tv_far <= 1.0

    check()


def test_no_module_in_src_imports_scipy_integrate():
    # the TV oracle and the moments are closed forms; quadrature lives in tests
    modules = sorted(Path(od.__file__).parent.rglob("*.py"))
    assert any(p.name == "kernels.py" for p in modules)
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_tv_exact_bernoulli_is_cdf_difference():
    k = od.BernoulliLogit()
    assert k.tv_exact(0.0, math.log(3)) == pytest.approx(abs(expit(0.0) - expit(math.log(3))))


def test_tv_monotone_in_separation_for_poisson():
    k = od.Poisson()
    hs = np.linspace(0.0, 8.0, 30)
    vals = [k.tv_exact(2.0, 2.0 + h) if h > 0 else 0.0 for h in hs]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


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


def test_continuous_coupling_does_not_call_the_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the coupling called the TV oracle")

    continuous = [k for k in all_kernels() if not k.discrete]
    assert len(continuous) == 4
    monkeypatch.setattr(kernels.ObservationKernel, "tv_exact", no_oracle)
    for cls in {type(k) for k in continuous}:
        monkeypatch.setattr(cls, "_tv_exact_impl", no_oracle)
    for k in continuous:
        s = 0.5 if k.domain_floor() is None else k.domain_floor() + 0.5
        y, yp, met = k.couple_batch(s, s + 1.5, 1000, generator(14))
        assert 0 < met.sum() < 1000
        assert np.all(y[met] == yp[met]) and np.all(y[~met] != yp[~met])


def test_coupling_budget_bounds_the_residual_rejection(monkeypatch):
    monkeypatch.setattr(kernels, "_COUPLE_CAP", 0)
    k = od.Location(od.GaussianNoise(1.0))
    with pytest.raises(CouplingBudgetExceeded):
        k.couple_batch(0.0, 3.0, 100, generator(15))


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


def test_float_domain_checks_match_the_array_checks():
    for kernel in (od.BernoulliLogit(), od.Location(od.LaplaceNoise(1.0))):
        for s in (0.0, -0.0, 5e-324, -1e308, math.inf, -math.inf, math.nan):
            assert kernel.domain_contains(s) is bool(kernel.domain_contains(np.array([s])))


def test_maximal_couple_scalar_interface():
    d = od.Poisson().maximal_couple(1.0, 1.5, generator(12))
    assert isinstance(d, od.CoupleDraw)
    if d.met:
        assert d.y == d.y_prime


# ---------------------------------------------------------------------------
# conditional moments
# ---------------------------------------------------------------------------

def test_conditional_moments_analytic():
    assert od.Poisson().conditional_moment(3.0, 1) == (3.0, 0.0)
    assert od.NegBinomial(4).conditional_moment(2.5, 1) == (2.5, 0.0)
    assert od.GarchGaussian(1.0).conditional_moment(5.0, 2) == (5.0, 0.0)
    val, D = od.Location(od.LaplaceNoise(1.0)).conditional_moment(0.0, 1)
    assert (val, D) == (1.0, 1.0)
    val, D = od.BernoulliLogit().conditional_moment(0.0, 1)
    assert val == pytest.approx(0.5) and D == 1.0
    val, D = od.Multinomial(3).conditional_moment(np.zeros(2), 1)
    assert val == pytest.approx(2.0 / 3.0) and D == 1.0


def test_conditional_moments_monte_carlo_crosscheck():
    rng = generator(13)
    y = od.Poisson().sample(np.full(10**5, 3.0), rng)
    assert abs(np.abs(y).mean() - 3.0) < 0.03
    y = od.GarchGaussian(1.0).sample(np.full(10**5, 5.0), rng)
    assert abs((y**2).mean() - 5.0) < 0.1
    k = od.Location(od.StudentTNoise(2.0))
    val, D = k.conditional_moment(0.7, 1)
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
        assert k.conditional_moment(s, 1)[0] >= abs(s)
    for s in (-4.0, -1.3, 0.0, 0.7, 4.0):
        f = lambda y: abs(s + y) * k.noise.pdf(y)
        want = (integrate.quad(f, -np.inf, -s, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                + integrate.quad(f, -s, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0])
        assert k.conditional_moment(s, 1)[0] == pytest.approx(want, rel=1e-9)


def test_unsupported_orders_raise():
    with pytest.raises(UnsupportedOrder):
        od.Poisson().conditional_moment(1.0, 2)
    with pytest.raises(UnsupportedOrder):
        od.GarchGaussian(1.0).conditional_moment(2.0, 1)


# ---------------------------------------------------------------------------
# serialization and export
# ---------------------------------------------------------------------------

def test_kernel_json_round_trip():
    for k in all_kernels():
        assert kernel_from_dict(k.to_dict()) == k


def test_tv_table_csv():
    k = od.Poisson()
    rows = tv_table(k, [(0.0, 0.5), (1.0, 1.0)])
    buf = io.StringIO()
    tv_table_to_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,s_prime,tv_exact,tv_bound"
    assert len(lines) == 3
