"""Link recursions: evaluation, contraction extraction, growth envelopes."""

import math

import numpy as np
import pytest

import obsdriven as od
from obsdriven.errors import InvalidSpec
from obsdriven._codec import from_dict
from obsdriven.links import LinkSpec, state_coefficients
from obsdriven.rngstream import generator

CM = od.ConstantMap
X0 = np.array([0.0])


def test_linear_apply_arithmetic():
    link = od.LinearLink(CM(0.4), CM(0.3), CM(1.0), order=1)
    assert od.apply(link, 2.0, 3.0, X0) == pytest.approx(0.8 + 0.9 + 1.0)


def test_threshold_regime_selection():
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.2), CM(0.0), CM(0.0)),
        od.RegimeCoefficients(CM(0.5), CM(0.0), CM(0.0)),
        od.FixedInterval(0.0, 1.0), order=1,
    )
    assert od.apply(link, 1.0, 0.5, X0) == pytest.approx(0.2)
    assert od.apply(link, 1.0, 2.0, X0) == pytest.approx(0.5)


def test_arma_like_forgets_state_when_a_is_zero():
    link = od.ArmaLikeLink(CM(0.0), CM(0.0), CM(0.5))
    assert od.apply(link, 7.0, 2.0, X0) == pytest.approx(1.0)


def test_apply_vectorized_matches_scalar():
    link = od.LinearLink(CM(0.4), od.AffineAbsMap(0.1, (0.2,)), CM(1.0), order=1)
    s = np.array([0.5, 2.0, 3.5])
    y = np.array([1.0, 0.0, 2.0])
    x = np.array([0.7])
    batch = od.apply(link, s, y, x)
    for i in range(3):
        assert batch[i] == od.apply(link, s[i], y[i], x)


def test_covariate_scaled_interval_per_covariate_row():
    # each row of a covariate batch gets its own interval [-|x|, |x|]
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.2), CM(1.0), CM(0.0)),
        od.RegimeCoefficients(CM(0.5), CM(0.0), CM(1.0)),
        od.CovariateScaled(-1.0, 1.0), order=1,
    )
    X = np.array([[0.2], [0.5], [0.9]])
    s, y = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.4, -1.2])
    batch = od.apply(link, s, y, X)
    assert np.array_equal(batch, [od.apply(link, s[i], y[i], X[i]) for i in range(3)])
    assert batch[0] == 0.5 * 1.0 + 1.0  # y = 0.3 lies outside [-0.2, 0.2]
    shared = od.apply(link, 1.6, 0.3, X)  # one state and observation for every row
    assert np.array_equal(shared, [od.apply(link, 1.6, 0.3, x) for x in X])
    assert np.array_equal(link.interval.sup_abs(X), [link.interval.sup_abs(x) for x in X])


def test_floor_clamp():
    link = od.LinearLink(CM(0.1), CM(0.0), CM(-5.0), order=1, floor=1.0)
    assert od.apply(link, 0.0, 0.0, X0) == 1.0


def test_contraction_maps():
    assert od.contraction_map(od.LinearLink(CM(0.4, True), CM(0.3), CM(1.0), 1)).evaluate(X0) == 0.4
    thr = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.2), CM(0.0), CM(0.0)),
        od.RegimeCoefficients(CM(0.5), CM(0.0), CM(0.0)),
        od.FixedInterval(0.0, 1.0), order=1,
    )
    # max(|kappa_1|, |kappa_2|)
    assert od.contraction_map(thr).evaluate(X0) == 0.5
    arma = od.ArmaLikeLink(od.AffineAbsMap(0.1, (0.2,), True), CM(0.0), CM(0.3))
    cm = od.contraction_map(arma)
    for xv in (0.0, 1.0, -2.0):
        assert cm.evaluate(np.array([xv])) == pytest.approx(0.1 + 0.2 * abs(xv))


def _envelope_violation_grid(link, env, states, ys, xs):
    """Brute-force oracle: worst |f| - envelope over an exhaustive grid."""
    worst = -np.inf
    for s in states:
        for y in ys:
            for x in xs:
                v = abs(od.apply(link, s, y, np.array([x]))) - env.bound(s, y, np.array([x]))
                worst = max(worst, v)
    return worst


def test_envelope_linear_is_itself():
    # contractive in s only where a supremum of kappa below 1 is provable: a constant, a
    # table's largest entry, or the intercept of an affine map with zero slopes
    table = od.TableMap(((0.0,), (1.0,)), (0.4, 0.7), True)
    AA = od.AffineAbsMap
    for kappa, at_x0, contractive in ((CM(0.4, True), 0.4, True), (table, 0.4, True),
                                      (od.TableMap(table.states, (0.4, 1.5), True), 0.4, False),
                                      (AA(0.4, (0.0,), True), 0.4, True), (AA(1.2, (0.0,), True), 1.2, False),
                                      (AA(0.4, (0.1,), True), 0.4, False)):
        link = od.LinearLink(kappa, CM(0.3, True), CM(1.0, True), order=1)
        env = od.growth_envelope(link)
        assert env.kappa_map.evaluate(X0) == at_x0
        assert env.kappa_tilde_map.evaluate(X0) == 0.3
        assert env.delta_map.evaluate(X0) == 1.0
        assert env.is_contractive_in_s is env.to_dict()["is_contractive_in_s"] is contractive
        assert env.case == "linear"


def test_envelope_threshold_case2_absorbs_bounded_regime():
    # I(x) = [0,1], regime-1 slope 5 absorbed: kappa_tilde = 0.3, delta = 1 + 5
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.4, True), CM(5.0, True), CM(1.0, True)),
        od.RegimeCoefficients(CM(0.4, True), CM(0.3, True), CM(1.0, True)),
        od.FixedInterval(0.0, 1.0), order=1,
    )
    env = od.growth_envelope(link)
    assert env.case == "pratique2-case2"
    assert env.kappa_map.evaluate(X0) == 0.4
    assert env.kappa_tilde_map.evaluate(X0) == 0.3
    assert env.delta_map.evaluate(X0) == pytest.approx(6.0)
    # exhaustive grid certification of the absorbed bound
    worst = _envelope_violation_grid(
        link, env, np.linspace(-4, 4, 9), np.linspace(-3, 3, 25), [0.0, 1.0, -2.0],
    )
    assert worst <= 1e-12


def test_envelope_threshold_case1_takes_maxima():
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.4, True), CM(5.0, True), CM(1.0, True)),
        od.RegimeCoefficients(CM(0.4, True), CM(0.3, True), CM(1.0, True)),
        od.FixedInterval(0.0, float("inf")), order=1,
    )
    env = od.growth_envelope(link)
    assert env.case == "pratique2-case1"
    assert env.kappa_tilde_map.evaluate(X0) == 5.0


def test_envelope_covariate_scaled_interval():
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.2, True), CM(2.0, True), CM(0.5, True)),
        od.RegimeCoefficients(CM(0.3, True), CM(0.1, True), CM(0.5, True)),
        od.CovariateScaled(-1.0, 1.0), order=1,
    )
    env = od.growth_envelope(link)
    # absorbed term 2 |x| at x, on top of max gamma = 0.5
    assert env.delta_map.evaluate(np.array([2.0])) == pytest.approx(0.5 + 4.0)
    worst = _envelope_violation_grid(
        link, env, np.linspace(-3, 3, 7), np.linspace(-5, 5, 21), [0.5, 1.0, 2.0],
    )
    assert worst <= 1e-12


def test_envelope_arma_like():
    link = od.ArmaLikeLink(CM(0.6, True), CM(0.2, True), CM(0.5, True))
    env = od.growth_envelope(link)
    assert env.case == "arma"
    assert env.kappa_map.evaluate(X0) == 0.6
    assert env.kappa_tilde_map.evaluate(X0) == pytest.approx(1.1)  # |b| + |a|
    worst = _envelope_violation_grid(
        link, env, np.linspace(-4, 4, 9), np.linspace(-4, 4, 17), [0.0, 1.5],
    )
    assert worst <= 1e-12


def test_lipschitz_certification_random_tuples():
    # d(f(s,y,x), f(s',y,x)) <= kappa(x) d(s, s') on 1000 random tuples for every link shape,
    # in the kernel's state norm (the sup norm for the category table's vector states): a1's
    # verdict rests on contraction_map being this exact Lipschitz map
    rng = generator(3)

    def scalar():
        return tuple(rng.normal(0, 3, size=3))

    def vector():
        s, sp = rng.normal(0, 3, size=(2, 2))
        return s, sp, int(rng.integers(3))

    def positive():
        s, sp = rng.exponential(3.0, size=2)
        return s, sp, rng.normal(0, 3)

    regime = lambda k: od.RegimeCoefficients(CM(k), od.AffineAbsMap(0.0, (0.5,), True), CM(0.1))  # noqa: E731
    cases = [
        (od.LinearLink(od.AffineAbsMap(0.2, (0.3,), True), CM(0.3, True), CM(1.0, True), 1), scalar),
        (od.ThresholdLink(
            od.RegimeCoefficients(CM(0.7), CM(0.2), CM(0.1)),
            od.RegimeCoefficients(CM(-0.4), CM(0.5), CM(1.0)),
            od.FixedInterval(-1.0, 1.0), order=1,
        ), scalar),
        (od.ArmaLikeLink(od.AffineAbsMap(0.0, (0.4,), True), CM(0.1), CM(0.6)), scalar),
        # multinomial: the category table's column y is added to a vector state
        (od.LinearLink(od.AffineAbsMap(0.3, (0.4,)), od.CategoryTable(((0.2, -0.1, 0.4), (0.0, 0.3, -0.2))),
                       CM(0.0)), vector),
        # GARCH type: y enters squared, and the floor clamps about half the steps
        (od.LinearLink(od.AffineAbsMap(0.2, (0.3,), True), CM(0.2, True), CM(-3.0), order=2, floor=0.5),
         positive),
        # the regime depends on y and x through [lo |x|, hi |x|], never on s
        (od.ThresholdLink(regime(0.6), regime(-0.8), od.CovariateScaled(-1.0, 1.0)), scalar),
    ]
    for link, draw in cases:
        kappa = od.contraction_map(link)
        for _ in range(1000):
            s, sp, y = draw()
            x = rng.normal(0, 2, size=1)
            lhs = np.max(np.abs(od.apply(link, s, y, x) - od.apply(link, sp, y, x)))
            assert lhs <= float(kappa.evaluate(x)) * np.max(np.abs(np.subtract(s, sp))) + 1e-12


def test_envelope_certification_random_tuples():
    rng = generator(4)
    link = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.5), CM(1.5), CM(-0.3)),
        od.RegimeCoefficients(CM(-0.2), CM(0.4), CM(0.8)),
        od.FixedInterval(-2.0, 0.5), order=1,
    )
    env = od.growth_envelope(link)
    for _ in range(1000):
        s, y = rng.normal(0, 4, size=2)
        x = rng.normal(0, 2, size=1)
        assert abs(od.apply(link, s, y, x)) <= env.bound(s, y, x) + 1e-12


def test_multinomial_table_link():
    table = od.CategoryTable(((0.1, -0.2, 0.3), (0.0, 0.5, -0.1)))
    link = od.LinearLink(CM(0.6, True), table, CM(0.0), order=1)
    s = np.array([1.0, -1.0])
    out = od.apply(link, s, 1, np.array([0.0]))
    assert np.allclose(out, 0.6 * s + np.array([-0.2, 0.5]))
    # exact semi-contraction in the sup norm: y enters additively
    sp = np.array([0.3, 0.4])
    d = np.max(np.abs(od.apply(link, s, 2, X0) - od.apply(link, sp, 2, X0)))
    assert d == pytest.approx(0.6 * np.max(np.abs(s - sp)))
    env = od.growth_envelope(link)
    assert env.kappa_tilde_map.evaluate(X0) == 0.0
    assert env.delta_map.evaluate(X0) == pytest.approx(0.5)


def test_state_coefficients_exactness():
    thr = od.ThresholdLink(
        od.RegimeCoefficients(CM(0.2), CM(0.0), CM(0.0)),
        od.RegimeCoefficients(CM(0.5), CM(0.0), CM(0.0)),
        od.FixedInterval(0.0, 1.0), order=1,
    )
    c = state_coefficients(thr, np.array([0.5, 2.0]), X0)
    assert np.array_equal(c, [0.2, 0.5])


def test_link_json_round_trip():
    linkset = [
        od.LinearLink(CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True), 1, 0.0),
        od.LinearLink(CM(0.5, True), od.CategoryTable(((0.1, 0.2),)), CM(0.0), 1, None),
        od.ThresholdLink(
            od.RegimeCoefficients(CM(0.2), CM(0.1), CM(0.3)),
            od.RegimeCoefficients(CM(0.5), CM(0.2), CM(0.4)),
            od.CovariateScaled(-1.0, 2.0), order=2, floor=0.5,
        ),
        od.ArmaLikeLink(CM(0.3), CM(0.1), CM(0.7)),
    ]
    for link in linkset:
        assert from_dict(LinkSpec, link.to_dict(), "link") == link


@pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf, "0"])
def test_link_floor_must_be_a_finite_number(floor):
    makers = [
        lambda f: od.LinearLink(CM(0.5), CM(0.1), CM(1.0), floor=f),
        lambda f: od.ThresholdLink(od.RegimeCoefficients(CM(0.2), CM(0.0), CM(0.0)),
                                   od.RegimeCoefficients(CM(0.5), CM(0.0), CM(0.0)),
                                   od.FixedInterval(0.0, 1.0), floor=f),
        lambda f: od.ArmaLikeLink(CM(0.5), CM(0.0), CM(0.5), floor=f),
    ]
    for make in makers:
        with pytest.raises(InvalidSpec):
            make(floor)
        make(0.5)
    d = od.LinearLink(CM(0.5), CM(0.1), CM(1.0), floor=0.0).to_dict()
    with pytest.raises(InvalidSpec):
        from_dict(LinkSpec, {**d, "floor": floor}, "link")
