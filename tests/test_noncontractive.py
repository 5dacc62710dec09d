"""The paper's headline regimes: models that are not contractive at every covariate value.

The paper needs no uniform contraction.  Two models show it, each pinned by its ``verify``
verdicts, the decay of the coupled backward cost from starts 0 and 10, and the outcome of the
stationary sampler.  The gates were set from runs of this code, with the measured values in
the comments and in ROADMAP item 4; the paths and uniforms are addressed by seed, so the runs
repeat exactly.
"""

import math

import numpy as np
import pytest

import obsdriven as od
from obsdriven import covariates, engine, verify

from conftest import poisson_log_mean, threshold_location_ar

SUFFICIENT = "a1 is a sufficient condition: failing it does not show that no stationary solution exists"


def _costs(model, ns, seeds, replicas):
    """{n: [coupled backward cost from 0 and 10 at each seed's path]}."""
    out = {n: [] for n in ns}
    for seed in seeds:
        for n in ns:
            path = covariates.generate_path(model.covariates, -n, -1, od.split_seed(seed, engine._SEED_ENV))
            out[n].append(engine.coupled_backward_cost(model, 0.0, 10.0, n, path, replicas, seed))
    return out


def test_log_mean_model_passes_verify_though_its_mean_contraction_exceeds_one():
    report = verify.full_report(poisson_log_mean(), verify.VerifyConfig(seed=3))
    assert report.overall == "pass" and report.a1.verdict == "pass" and report.a2.verdict == "pass"
    # E log(0.05 + 2x) = (2.05 log 2.05 - 0.05 log 0.05 - 2) / 2 = -0.18932 (measured -0.189433 +- 0.021)
    exact = (2.05 * math.log(2.05) - 0.05 * math.log(0.05) - 2.0) / 2.0
    assert abs(report.a1.moment.mean - exact) < 3.0 * report.a1.moment.std_error
    assert SUFFICIENT not in report.to_text()


def test_log_mean_model_cost_decays_along_most_paths_but_not_uniformly():
    # measured at 100 replicas on paths 1-12: below 1e-6 on 1 path at n = 50 and on 9 at n = 400,
    # where the other three read 0.35, 0.115 and 0.040: the path decides the scale
    costs = _costs(poisson_log_mean(), (50, 400), range(1, 13), 100)
    small = {n: sum(c < 1e-6 for c in cs) for n, cs in costs.items()}
    assert small[50] <= 4 and small[400] >= 6, small
    assert np.median(costs[400]) < 1e-6 < np.median(costs[50])


def test_log_mean_model_sampler_runs_out_of_budget_on_most_paths():
    # measured at 200 replicas, tol 0.01, max_n 400, seeds 1-8: 3 converged (n = 50, 200, 400),
    # 5 stopped at max_n with gaps 0.014 to 1; none overflowed
    results = [engine.stationary_sampler(poisson_log_mean(), 0.01, 400, 200, seed) for seed in range(1, 9)]
    assert sum(not r.converged for r in results) >= 3
    assert all(r.reason in ("tolerance", "max_n") for r in results)


def test_threshold_model_fails_a1_which_is_only_sufficient():
    report = verify.full_report(threshold_location_ar(), verify.VerifyConfig(seed=3))
    assert report.a1.verdict == "fail" and report.overall == "fail"
    assert report.a1.moment.mean == pytest.approx(math.log(1.2), rel=1e-12)  # max(|1.2|, |0.3|) at every x
    a1_line = report.to_text().splitlines()[1]
    assert a1_line.startswith("  contraction (a1): fail") and SUFFICIENT in a1_line


def test_threshold_model_cost_decays_on_every_path():
    # measured at 200 replicas on paths 1-20: 0.239-0.325 at n = 50, 0.020-0.044 at 200 and
    # 2.9e-7-0.0080 at 400, falling on every path
    costs = _costs(threshold_location_ar(), (50, 200, 400), range(1, 21), 200)
    assert min(costs[50]) > 0.15 and max(costs[200]) < 0.1 and max(costs[400]) < 0.03
    assert all(a > b > c for a, b, c in zip(costs[50], costs[200], costs[400]))


def test_threshold_model_sampler_converges():
    # measured at 2000 replicas, tol 0.01, max_n 400, seeds 1-10: every run converged, at n = 100
    # to 400 with gaps 0.0032 to 0.0097
    results = [engine.stationary_sampler(threshold_location_ar(), 0.01, 400, 2000, seed) for seed in range(1, 11)]
    assert sum(r.converged for r in results) >= 8
