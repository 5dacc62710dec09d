"""Shared model builders for the test suite."""

import numpy as np
import pytest

import obsdriven as od

CM = od.ConstantMap


def poisson_ingarch_x() -> od.ModelSpec:
    """Count benchmark: kappa=0.4, kappa_tilde=0.3|x|, delta_tilde=1, X ~ U(0,1) i.i.d."""
    link = od.LinearLink(
        CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True),
        order=1, floor=0.0,
    )
    return od.ModelSpec(od.Poisson(), link, od.IID(od.Uniform(0.0, 1.0)))


def poisson_ingarch_const() -> od.ModelSpec:
    """Same recursion with the covariate frozen at 1 (plain INGARCH)."""
    link = od.LinearLink(CM(0.4, True), CM(0.3, True), CM(1.0, True), order=1, floor=0.0)
    return od.ModelSpec(od.Poisson(), link, od.Constant((1.0,)))


def logit_benchmark() -> od.ModelSpec:
    """Binary benchmark: kappa=0.5, kappa_tilde=0.8|x|, delta_tilde=-0.2."""
    link = od.LinearLink(
        CM(0.5), od.AffineAbsMap(0.0, (0.8,), True), CM(-0.2), order=1,
    )
    return od.ModelSpec(od.BernoulliLogit(), link, od.IID(od.Uniform(0.0, 1.0)))


def location_ar() -> od.ModelSpec:
    """Gaussian autoregression: y = s + N(0,1), kappa=0.5, kappa_tilde=0.3, delta_tilde=0."""
    link = od.LinearLink(CM(0.5), CM(0.3), CM(0.0), order=1)
    return od.ModelSpec(od.Location(od.GaussianNoise(1.0)), link, od.IID(od.Uniform(0.0, 1.0)))


def divergent_model() -> od.ModelSpec:
    """kappa = 1.1: no stationary solution exists."""
    link = od.LinearLink(
        CM(1.1, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True),
        order=1, floor=0.0,
    )
    return od.ModelSpec(od.Poisson(), link, od.IID(od.Uniform(0.0, 1.0)))


def poisson_log_mean() -> od.ModelSpec:
    """Poisson INGARCH contracting only in log-mean: kappa = 0.05 + 2x on x ~ U(0,1), so E kappa =
    1.05 but E log kappa = -0.189; kappa_tilde = 0.1, delta_tilde = 1, floor 0."""
    link = od.LinearLink(od.AffineAbsMap(0.05, (2.0,), True), CM(0.1, True), CM(1.0, True), order=1, floor=0.0)
    return od.ModelSpec(od.Poisson(), link, od.IID(od.Uniform(0.0, 1.0)))


def threshold_location_ar() -> od.ModelSpec:
    """Gaussian-location threshold AR with an expanding regime: kappa = 1.2 while y is in [-1, 1],
    0.3 otherwise; kappa_tilde = 0.3 in both, so the noise moves the state off 0."""
    link = od.ThresholdLink(od.RegimeCoefficients(CM(1.2), CM(0.3), CM(0.0)),
                            od.RegimeCoefficients(CM(0.3), CM(0.3), CM(0.0)), od.FixedInterval(-1.0, 1.0))
    return od.ModelSpec(od.Location(od.GaussianNoise(1.0)), link, od.IID(od.Uniform(0.0, 1.0)))


def all_kernels():
    """One configured instance per kernel family (location in all three noises)."""
    return [
        od.Poisson(),
        od.NegBinomial(3),
        od.BernoulliLogit(),
        od.BernoulliProbit(),
        od.Multinomial(3),
        od.GarchGaussian(1.0),
        od.Location(od.GaussianNoise(1.0)),
        od.Location(od.LaplaceNoise(1.0)),
        od.Location(od.StudentTNoise(2.0)),
    ]


def plain_moment(coeff_map, spec, n: int, seed: int) -> float:
    """Monte Carlo mean of map(X_0) over n stationary draws: the acceptance drift test's
    fixed point (D + E delta) / (1 - E gamma) of the growth envelope is built from it."""
    return float(np.mean(coeff_map.evaluate(od.covariates.stationary_draws(spec, n, seed))))


def hypothesis_settings():
    """(hypothesis, strategies, settings) for derandomized property tests; skips without it."""
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies, hyp.settings(max_examples=300, derandomize=True, database=None, deadline=None)


@pytest.fixture
def benchmark_model():
    return poisson_ingarch_x()
