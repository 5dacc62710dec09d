"""Assumption certification: routes, verdicts, and negative controls."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import obsdriven as od
from obsdriven.verify import domain_compatible

from conftest import all_kernels, divergent_model, poisson_ingarch_x

CM = od.ConstantMap


# ---------------------------------------------------------------------------
# a1
# ---------------------------------------------------------------------------

def test_a1_constant_contraction_passes():
    m = od.ModelSpec(od.Poisson(),
                     od.LinearLink(CM(0.4, True), CM(0.3, True), CM(1.0, True), 1, 0.0),
                     od.Constant((1.0,)))
    rep = od.check_a1(m, 1000, 1)
    assert rep.moment.mean == pytest.approx(math.log(0.4))
    assert rep.moment.verdict == "negative"
    assert rep.verdict == "pass"


def test_a1_threshold_uses_regime_maximum():
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.2), CM(0.1, True), CM(1.0, True)),
        od.RegimeCoefficients(CM(0.5), CM(0.1, True), CM(1.0, True)),
        od.FixedInterval(0.0, 1.0), order=1, floor=0.0,
    )
    m = od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))
    rep = od.check_a1(m, 1000, 2)
    assert rep.moment.mean == pytest.approx(math.log(0.5))
    assert rep.verdict == "pass"


def test_a1_boundary_contraction_is_inconclusive():
    # kappa(x) = exp(x) with X ~ N(0,1): E log kappa = 0 exactly
    link = od.LinearLink(od.ExpAffineMap(0.0, (1.0,)), CM(0.0), CM(0.0), 1)
    m = od.ModelSpec(od.BernoulliLogit(), link, od.IID(od.Gaussian(0, 1)))
    rep = od.check_a1(m, 10**4, 3)
    assert rep.verdict == "inconclusive"


def test_a1_expanding_map_fails():
    rep = od.check_a1(divergent_model(), 1000, 4)
    assert rep.moment.verdict == "nonnegative"
    assert rep.verdict == "fail"


# ---------------------------------------------------------------------------
# a2
# ---------------------------------------------------------------------------

def test_a2_poisson_linear_route():
    m = poisson_ingarch_x()
    rep = od.check_a2(m, 2000, 5)
    assert rep.case == "linear"
    assert rep.drift_constant_D == 0.0
    # gamma = 0.4 + 0.3|x|, E log gamma < 0
    assert rep.gamma_estimate.verdict == "negative"
    assert rep.verdict == "pass"


def test_a2_garch_threshold_case2_conditions():
    # pass iff E log kappa < 0 and E log(|kappa_2| + |kt_2|) < 0
    def build(k2, kt2):
        link = od.ThresholdLink(
            od.RegimeCoefficients(CM(0.4, True), CM(5.0, True), CM(1.5, True)),
            od.RegimeCoefficients(CM(k2, True), CM(kt2, True), CM(1.5, True)),
            od.FixedInterval(-1.0, 1.0), order=2, floor=1.0,
        )
        return od.ModelSpec(od.GarchGaussian(1.0), link, od.Constant((1.0,)))

    good = od.check_a2(build(0.4, 0.5), 1000, 6)
    assert good.case == "pratique2-case2"
    assert good.case2_kappa_estimate.mean == pytest.approx(math.log(0.4))
    assert good.case2_regime2_estimate.mean == pytest.approx(math.log(0.9))
    assert good.verdict == "pass"
    bad = od.check_a2(build(0.4, 0.7), 1000, 6)  # log(1.1) > 0
    assert bad.verdict == "fail"


def test_a2_binary_route_allows_unbounded_interaction():
    # kappa = 0.9 with an unbounded covariate interaction in the y-term:
    # the binary route only needs A1 plus log+ moments at a reference state
    link = od.LinearLink(CM(0.9), od.AffineAbsMap(0.0, (1.0,), True), CM(0.1), 1)
    m = od.ModelSpec(od.BernoulliLogit(), link, od.IID(od.Gaussian(0, 1)))
    rep = od.check_a2(m, 2000, 7)
    assert rep.case == "binary"
    assert rep.verdict == "pass"
    assert set(rep.category_log_plus) == {"0", "1"}


def test_a2_categorical_route():
    table = od.CategoryTable(((0.2, -0.1, 0.4), (0.0, 0.3, -0.2)))
    link = od.LinearLink(CM(0.7, True), table, CM(0.0), 1)
    m = od.ModelSpec(od.Multinomial(3), link, od.IID(od.Uniform(0, 1)))
    rep = od.check_a2(m, 1000, 8)
    assert rep.case == "categorical"
    assert rep.verdict == "pass"


def test_categorical_drift_delta_takes_the_sup_over_state_coordinates():
    # s0 = 0, so f(s0, y, x) = table[:, y] + 0.05; the largest |.| is 0.95, in coordinate 2
    table = od.CategoryTable(((0.2, -0.1, 0.4), (0.0, 0.9, -0.2)))
    link = od.LinearLink(od.AffineAbsMap(0.1, (0.5,), True), table, CM(0.05), 1)
    m = od.ModelSpec(od.Multinomial(3), link, od.IID(od.Uniform(0, 1)))
    gamma, delta = od.drift_certificate(m)
    X = np.array([[0.0], [0.4], [1.0]])
    assert np.allclose(delta.evaluate(X), 1.0 + 0.95 - (0.1 + 0.5 * X[:, 0]))


def test_a2_garch_without_floor_is_a_structural_failure():
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.4, True), CM(0.2, True), CM(0.1, True)),
        od.RegimeCoefficients(CM(0.4, True), CM(0.2, True), CM(0.1, True)),
        od.FixedInterval(-1.0, 1.0), order=2, floor=None,
    )
    m = od.ModelSpec(od.GarchGaussian(1.0), link, od.Constant((1.0,)))
    ok, reason = domain_compatible(m)
    assert not ok
    rep = od.check_a2(m, 1000, 9)
    assert not rep.domain_ok and rep.verdict == "fail"


def test_a2_structural_positivity_without_clamp():
    # garch with constant intercepts >= c_minus needs no clamp
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.4, True), CM(0.2, True), CM(1.5, True)),
        od.RegimeCoefficients(CM(0.4, True), CM(0.3, True), CM(2.0, True)),
        od.FixedInterval(-1.0, 1.0), order=2, floor=None,
    )
    m = od.ModelSpec(od.GarchGaussian(1.0), link, od.Constant((1.0,)))
    ok, reason = domain_compatible(m)
    assert ok and "structural" in reason


AA, RC = od.AffineAbsMap, od.RegimeCoefficients
SLOPE, VARYING = AA(0.0, (0.3,), True), AA(0.5, (0.1,), True)  # flagged slope, flagged non-constant intercept


def _linear(kappa=CM(0.4, True), kappa_tilde=SLOPE, intercept=CM(1.0, True), order=1, floor=None):
    return od.LinearLink(kappa, kappa_tilde, intercept, order, floor)


def _threshold(gamma_in, gamma_out, kappa_out=CM(0.4, True), order=1):
    return od.ThresholdLink(RC(CM(0.3, True), CM(0.2, True), gamma_in), RC(kappa_out, CM(0.1, True), gamma_out),
                            od.FixedInterval(-1.0, 1.0), order)


@pytest.mark.parametrize("kernel, link, ok, reason", [
    (od.Poisson(), _linear(floor=0.0), True, "floor clamp at 0.0"),
    (od.Poisson(), _linear(floor=-1.0), False, "floor -1.0 lies below the domain bound 0.0"),
    (od.Poisson(), _linear(), True, "structural intercept bound 1.0"),
    (od.Poisson(), _linear(intercept=CM(0.5)), True, "structural intercept bound 0.5"),
    (od.Poisson(), _linear(intercept=CM(-0.2)), False, "no floor clamp and no structural bound >= 0.0"),
    (od.Poisson(), _linear(intercept=VARYING), True, "structural intercept bound 0.0"),
    (od.Poisson(), _linear(intercept=AA(0.5, (0.1,))), False, "no floor clamp and no structural bound >= 0.0"),
    (od.Poisson(), _linear(kappa=CM(0.4)), False, "no floor clamp and no structural bound >= 0.0"),
    (od.NegBinomial(2), _linear(kappa_tilde=AA(0.0, (0.3,))), False, "no floor clamp and no structural bound >= 0.0"),
    (od.NegBinomial(2), _linear(intercept=od.ExpAffineMap(0.0, (1.0,))), True, "structural intercept bound 0.0"),
    (od.Poisson(), _threshold(CM(0.5), CM(0.2, True)), True, "structural intercept bound 0.2"),
    (od.Poisson(), _threshold(VARYING, VARYING), True, "structural intercept bound 0.0"),
    (od.Poisson(), _threshold(CM(0.5), VARYING), True, "structural intercept bound 0.0"),
    (od.Poisson(), _threshold(CM(0.5, True), CM(-0.1)), False, "no floor clamp and no structural bound >= 0.0"),
    (od.Poisson(), _threshold(CM(0.5, True), CM(0.2, True), kappa_out=CM(0.4)), False,
     "no floor clamp and no structural bound >= 0.0"),
    (od.Poisson(), od.ArmaLikeLink(CM(0.5, True), CM(1.0, True), CM(0.2, True)), False,
     "no floor clamp and no structural bound >= 0.0"),
    (od.GarchGaussian(1.0), _linear(order=2), True, "structural intercept bound 1.0"),
    (od.GarchGaussian(1.0), _linear(intercept=VARYING, order=2), False, "no floor clamp and no structural bound >= 1.0"),
    (od.GarchGaussian(1.0), _threshold(CM(1.5), CM(2.0, True), order=2), True, "structural intercept bound 1.5"),
    (od.GarchGaussian(1.0), _threshold(CM(0.5, True), CM(2.0, True), order=2), False,
     "no floor clamp and no structural bound >= 1.0"),
    (od.GarchGaussian(1.0), _linear(order=2, floor=0.5), False, "floor 0.5 lies below the domain bound 1.0"),
    (od.Location(), _linear(kappa=CM(0.4), intercept=CM(-3.0)), True, "state space unbounded below"),
    (od.BernoulliLogit(), od.ArmaLikeLink(CM(0.5), CM(-1.0), CM(0.2)), True, "state space unbounded below"),
    # the kernel's own domain test decides: no slack for the count families, whose simulate would
    # leave the domain at t = 0 from the clamp, and GARCH's 1e-12 for a clamp or an intercept
    (od.Poisson(), _linear(floor=-5e-13), False, "floor -5e-13 lies below the domain bound 0.0"),
    (od.GarchGaussian(1.0), _linear(order=2, floor=1.0 - 5e-13), True, "floor clamp at 0.9999999999995"),
    (od.GarchGaussian(1.0), _linear(intercept=CM(1.0 - 5e-13, True), order=2), True,
     "structural intercept bound 0.9999999999995"),
])
def test_domain_compatible_verdicts(kernel, link, ok, reason):
    # a floor clamp, or else the least intercept of branches with nonnegative slopes
    # (observation term nonnegative), must lie in the kernel's domain
    assert domain_compatible(od.ModelSpec(kernel, link, od.IID(od.Uniform(0.0, 1.0)))) == (ok, reason)


# ---------------------------------------------------------------------------
# a3
# ---------------------------------------------------------------------------

def test_a3_poisson_grid_passes():
    m = poisson_ingarch_x()
    rep = od.check_a3(m, grid_size=200, tol=1e-6)
    assert rep.verdict == "pass"
    assert rep.max_violation <= 1e-6
    assert rep.n_pairs == 200


def test_a3_multinomial_uses_sup_norm():
    table = od.CategoryTable(((0.2, 0.1, 0.0), (0.0, 0.1, 0.2)))
    link = od.LinearLink(CM(0.5, True), table, CM(0.0), 1)
    m = od.ModelSpec(od.Multinomial(3), link, od.Constant((1.0,)))
    assert m.norm == "inf"
    rep = od.check_a3(m, grid_size=100, tol=1e-6)
    assert rep.verdict == "pass"


def test_a3_corrupted_phi_fails_with_positive_violation():
    # halving the probit coefficients must produce a detected violation
    link = od.LinearLink(CM(0.5), CM(0.3, True), CM(0.0), 1)
    m = od.ModelSpec(od.BernoulliProbit(), link, od.Constant((1.0,)))
    honest = od.check_a3(m, grid_size=100, tol=1e-6)
    assert honest.verdict == "pass"
    corrupted = m.kernel.phi().scaled(0.5)
    rep = od.check_a3(m, grid_size=100, tol=1e-6, phi_override=corrupted)
    assert rep.verdict == "fail"
    assert rep.max_violation > 0.01


@pytest.mark.parametrize("kernel", all_kernels(), ids=repr)
def test_a3_sweep_matches_the_per_pair_loop(kernel):
    # phi is evaluated on the whole grid at once; each bound must still be
    # 1 - math.exp(-phi(h)) of the pair's own distance, and the worst pair the first maximum
    m = SimpleNamespace(kernel=kernel)
    for phi in (kernel.phi(), kernel.phi().scaled(0.5)):
        rep = od.check_a3(m, grid_size=120, phi_override=phi)
        worst, worst_pair = -math.inf, None
        for s, sp in kernel.standard_pairs(120):
            bound = 1.0 - math.exp(-float(phi.evaluate(kernel.state_distance(s, sp))))
            v = kernel.tv_exact(s, sp) - bound
            if v > worst:
                worst, worst_pair = v, (s, sp)
        assert rep.max_violation == worst
        assert repr(rep.worst_pair) == repr(worst_pair)


def test_a3_verdict_monotone_in_tol():
    m = poisson_ingarch_x()
    r1 = od.check_a3(m, 60, tol=1e-9)
    r2 = od.check_a3(m, 60, tol=1e-3)
    assert r1.max_violation == r2.max_violation
    if r1.verdict == "pass":
        assert r2.verdict == "pass"


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_full_report_benchmark_passes():
    rep = od.full_report(poisson_ingarch_x(), od.VerifyConfig(mc_n=2000, grid_size=60, seed=11))
    assert rep.overall == "pass"
    d = rep.to_dict()
    assert d["schema"].startswith("obsdriven.verification/")
    assert d["a1"]["verdict"] == d["a2"]["verdict"] == d["a3"]["verdict"] == "pass"


def test_full_report_divergent_fails_on_a1():
    rep = od.full_report(divergent_model(), od.VerifyConfig(mc_n=2000, grid_size=60, seed=12))
    assert rep.a1.verdict == "fail"
    assert rep.overall == "fail"
    # the text says what an a1 fail does not show
    assert rep.to_text().splitlines()[1] == (
        "  contraction (a1): fail  [E log kappa = 0.0953102 +- 0; a1 is a sufficient condition: "
        "failing it does not show that no stationary solution exists]"
    )


def test_full_report_deterministic():
    cfg = od.VerifyConfig(mc_n=1000, grid_size=60, seed=13)
    a = od.full_report(poisson_ingarch_x(), cfg)
    b = od.full_report(poisson_ingarch_x(), cfg)
    assert a.to_dict() == b.to_dict()


def test_drift_certificate_benchmark_values():
    # gamma(x) = 0.4 + 0.3|x|; delta(x) = 1 + delta_tilde - gamma = 2 - gamma(x)
    gamma, delta = od.drift_certificate(poisson_ingarch_x())
    x = np.array([0.5])
    assert float(gamma.evaluate(x)) == pytest.approx(0.55)
    assert float(delta.evaluate(x)) == pytest.approx(2.0 - 0.55)


def test_soundness_matrix_report_vs_sampler():
    # a passing report predicts a converging sampler; a confirmed expanding
    # contraction predicts a NotConverged diagnostic
    from conftest import logit_benchmark

    cfg = od.VerifyConfig(mc_n=1000, grid_size=60, seed=17)
    matrix = [poisson_ingarch_x(), logit_benchmark()]
    for m in matrix:
        rep = od.full_report(m, cfg)
        assert rep.overall == "pass"
        res = od.stationary_sampler(m, 0.01, 400, 200, 18)
        assert res.converged and res.achieved_gap < 0.01
    bad = divergent_model()
    rep = od.full_report(bad, cfg)
    assert rep.a1.verdict == "fail" and rep.a1.moment.verdict == "nonnegative"
    res = od.stationary_sampler(bad, 0.01, 100, 200, 18)
    assert not res.converged
