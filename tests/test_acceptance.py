"""Acceptance criteria: one test per criterion, one pass/fail line printed.

Tolerances are pinned here, not calibrated elsewhere.  Statistical checks
run at fixed seeds so outcomes are reproducible; budgets are asserted
where a criterion states one.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sstats
from scipy.special import expit

import obsdriven as od
from obsdriven import cli
from obsdriven.engine import coupled_backward_cost, push_measure
from obsdriven.rngstream import generator, split_seed

from conftest import all_kernels, divergent_model, logit_benchmark, plain_moment, poisson_ingarch_x
from w1_oracle import wasserstein1_bruteforce

CM = od.ConstantMap


def _report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------

def test_criterion_01_a3_certification_sweep():
    """tv_exact <= tv_bound + 1e-6 on the 200-pair grid, every family, < 60 s."""
    t0 = time.time()
    worst = {}
    for k in all_kernels():
        w = -math.inf
        for s, sp in k.standard_pairs(200):
            w = max(w, k.tv_exact(s, sp) - k.tv_bound(s, sp))
        worst[repr(k)] = w
    elapsed = time.time() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 60.0
    _report(1, ok, f"max violation {max(worst.values()):.2e} across "
                   f"{len(worst)} kernels, {elapsed:.1f}s")


def test_criterion_02_maximal_coupling_exactness():
    """|empirical disagreement - tv_exact| <= 3 sqrt(TV(1-TV)/1e5), 20 pairs/family."""
    t0 = time.time()
    n = 10**5
    worst_z = 0.0
    for fi, k in enumerate(all_kernels()):
        pairs = k.standard_pairs(200)[5::10][:20]
        for pi, (s, sp) in enumerate(pairs):
            tv = k.tv_exact(s, sp)
            _, _, met = k.couple_batch(s, sp, n, generator(split_seed(20350, fi * 100 + pi)))
            phat = 1.0 - met.mean()
            band = 3.0 * math.sqrt(max(tv * (1.0 - tv), 1e-12) / n)
            z = abs(phat - tv) / (band / 3.0)
            worst_z = max(worst_z, z)
            assert abs(phat - tv) <= band, (
                f"{k!r} pair ({s}, {sp}): phat={phat:.6g} tv={tv:.6g}"
            )
    elapsed = time.time() - t0
    ok = elapsed < 300.0
    _report(2, ok, f"180 pairs within 3 sigma (worst z {worst_z:.2f}), {elapsed:.1f}s")


def test_criterion_03_coupling_meeting_probability():
    """Benchmark coupling from (0, 10): >= 95% of 500 replicas meet by t=400."""
    t0 = time.time()
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, 0, 399, 20253)
    met = 0
    for r in range(500):
        tr = od.couple_forward(m, 0.0, 10.0, path, split_seed(20254, r))
        assert tr.censored == (tr.meet_time is None)  # censoring flagged
        met += not tr.censored
    elapsed = time.time() - t0
    ok = met >= 0.95 * 500 and elapsed < 120.0
    _report(3, ok, f"meeting frequency {met / 500:.3f} (>= 0.95), {elapsed:.1f}s")


def test_criterion_04_backward_wasserstein_decay():
    """Coupled backward transport cost: strictly decreasing over n in
    {25,...,400}, <= 0.02 at n=400, log-cost vs sqrt(n) slope negative at
    95% confidence; >= 7/8 environment paths agree.

    The per-path curve is the cost of the synchronized coupling of the two
    backward runs (an upper bound for their W1 distance, tracked
    multiplicatively so it stays representable); the plain assignment W1
    between the two 2000-point clouds is additionally checked at n=400.
    """
    t0 = time.time()
    m = poisson_ingarch_x()
    ns = np.array([25, 50, 100, 200, 400])
    agree = 0
    for p in range(8):
        path = od.generate_path(m.covariates, -400, -1, split_seed(20255, p))
        costs = np.array([
            coupled_backward_cost(m, 0.0, 10.0, int(n), path, 2000, split_seed(20256, p))
            for n in ns
        ])
        decreasing = bool(np.all(np.diff(costs) < 0))
        small_at_end = costs[-1] <= 0.02
        x = np.sqrt(ns)
        y = np.log(costs)
        X = np.vstack([np.ones_like(x), x]).T
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        se = math.sqrt((resid**2).sum() / 3 / ((x - x.mean()) ** 2).sum())
        slope_sig = sstats.t.cdf(beta[1] / se, df=3) < 0.05  # one-sided
        # literal cloud distance at the end of the schedule
        mu0 = od.backward_measure(m, 0.0, 400, path, 2000, split_seed(20256, p))
        mu1 = od.backward_measure(m, 10.0, 400, path, 2000, split_seed(20256, p))
        cloud_ok = od.wasserstein1(mu0, mu1).value <= 0.02
        agree += decreasing and small_at_end and slope_sig and cloud_ok
    elapsed = time.time() - t0
    ok = agree >= 7 and elapsed < 600.0
    _report(4, ok, f"{agree}/8 paths: strict decay, end <= 0.02, slope < 0 at 95%; {elapsed:.1f}s")


def test_criterion_05_invariance_push_through():
    """Stationary output pushed one step lands within 2*tol of the doubled measure."""
    m = poisson_ingarch_x()
    tol = 0.01
    res = od.stationary_sampler(m, tol, 400, 2000, 20257)
    assert res.converged
    nstar = res.n_final
    ext = od.generate_path(m.covariates, -2 * nstar, 0, split_seed(20257, 11))
    pushed = push_measure(m, res.measure, ext, 0, 20257)
    direct = od.backward_measure(m, m.start_state(), 2 * nstar, ext, 2000, 20257, t_end=1)
    w = od.wasserstein1(pushed, direct).value
    _report(5, w <= 2 * tol, f"W1(pushed, doubled) = {w:.3g} <= {2 * tol}")


def test_criterion_06_uniqueness_reflection():
    """Backward measures from 5 start states pairwise within 0.02 at n=400."""
    m = poisson_ingarch_x()
    path = od.generate_path(m.covariates, -400, -1, 20258)
    starts = [0.0, 1.0, 2.5, 5.0, 10.0]
    measures = [od.backward_measure(m, s0, 400, path, 2000, 20259) for s0 in starts]
    worst = 0.0
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            worst = max(worst, od.wasserstein1(measures[i], measures[j]).value)
    _report(6, worst <= 0.02, f"max pairwise W1 {worst:.3g} <= 0.02 over 5 starts")


def _zero_prob(model, lam):
    if model.kernel.family == "poisson":
        return np.exp(-lam)
    return 1.0 - expit(lam)  # bernoulli_logit


def test_criterion_07_ergodicity_reflection():
    """Time average of 1{Y=0} matches the ensemble average within 3 combined SE.

    Ensemble: 8 independent environment paths x 128 stationary replicas
    (1024 stationary draws); between-path variance enters the combined SE.
    """
    details = []
    ok = True
    for model, tag in ((poisson_ingarch_x(), "poisson"), (logit_benchmark(), "logit")):
        tr = od.simulate(model, model.start_state(), 0, 10**5 - 1, 20260)
        ind = (tr.y == 0).astype(float)
        time_avg = ind.mean()
        batches = ind.reshape(100, 1000).mean(axis=1)
        se_t = batches.std(ddof=1) / 10.0
        path_means = []
        for p in range(8):
            res = od.stationary_sampler(model, 0.01, 400, 128, split_seed(20261, p))
            assert res.converged
            path_means.append(float(np.mean(_zero_prob(model, res.measure.points))))
        ens_avg = float(np.mean(path_means))
        se_e = float(np.std(path_means, ddof=1) / math.sqrt(8))
        se = math.sqrt(se_t**2 + se_e**2)
        good = abs(time_avg - ens_avg) <= 3 * se
        ok = ok and good
        details.append(f"{tag}: |{time_avg:.4f} - {ens_avg:.4f}| <= {3 * se:.4f}")
    _report(7, ok, "; ".join(details))


def test_criterion_08_drift_soundness():
    """Mean latent magnitude stays under the drift fixed point with 10% slack.

    With V(s) = 1 + |s| the drift gives E|lambda| <= (D + E delta_tilde)
    / (1 - E gamma) at stationarity; gamma = kappa + kappa_tilde and D from
    the kernel's conditional moment.
    """
    m = poisson_ingarch_x()
    env = od.growth_envelope(m.link)
    D = m.kernel.conditional_moment(0.0)[1]
    from obsdriven.covariates import sum_map

    gamma = sum_map("kappa+kt", env.kappa_map, env.kappa_tilde_map)
    e_gamma = plain_moment(gamma, m.covariates, 10**5, 20262)
    e_delta = plain_moment(env.delta_map, m.covariates, 10**5, 20263)
    bound = (D + e_delta) / (1.0 - e_gamma)
    tr = od.simulate(m, 0.0, 0, 10**5 - 1, 20264)
    mean_abs = float(np.abs(tr.lam).mean())
    ok = mean_abs <= 1.10 * bound
    _report(8, ok, f"mean |lambda| {mean_abs:.4f} <= 1.1 x fixed point {bound:.4f} "
                   f"(mean V = {1 + mean_abs:.4f})")


def test_criterion_09_negative_controls():
    """kappa = 1.1 fails a1 and the sampler; corrupted phi fails a3 loudly."""
    bad = divergent_model()
    a1 = od.check_a1(bad, 2000, 20265)
    res = od.stationary_sampler(bad, 0.01, 100, 200, 20266)
    link = od.LinearLink(CM(0.5), CM(0.3, True), CM(0.0), 1)
    probit = od.ModelSpec(od.BernoulliProbit(), link, od.Constant((1.0,)))
    a3 = od.check_a3(probit, 100, 1e-6, phi_override=probit.kernel.phi().scaled(0.5))
    ok = a1.verdict == "fail" and not res.converged and a3.verdict == "fail" and a3.max_violation > 0
    _report(9, ok, f"a1 {a1.verdict}; sampler converged={res.converged}; "
                   f"corrupted-phi violation {a3.max_violation:.3g}")


def test_criterion_10_wasserstein_solver():
    """Assignment equals the 8!-enumeration on 100 instances; triangle within 1e-12."""
    rng = generator(20267)
    exact = 0
    for _ in range(100):
        a = rng.normal(0, 2, size=8)
        b = rng.normal(0.5, 2, size=8)
        exact += od.wasserstein1(a, b).value == wasserstein1_bruteforce(a, b)
    worst_gap = 0.0
    for _ in range(100):
        a, b, c = (rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=40) for _ in range(3))
        ab = od.wasserstein1(a, b).value
        ac = od.wasserstein1(a, c).value
        cb = od.wasserstein1(c, b).value
        worst_gap = max(worst_gap, ab - (ac + cb))
    ok = exact == 100 and worst_gap <= 1e-12
    _report(10, ok, f"{exact}/100 exact oracle matches; triangle slack {worst_gap:.2e}")


def _cli_manifests(model_dict):
    return {
        "simulate": {"command": "simulate", "model": model_dict,
                     "params": {"s0": 0.0, "t_min": 0, "t_max": 199}, "seed": 31},
        "couple": {"command": "couple", "model": model_dict,
                   "params": {"s0": 0.0, "s0_prime": 10.0, "horizon": 150}, "seed": 32},
        "backward": {"command": "backward", "model": model_dict,
                     "params": {"s0": 0.0, "n": 50, "replicas": 200}, "seed": 33},
        "stationary": {"command": "stationary", "model": model_dict,
                       "params": {"tol": 0.01, "max_n": 200, "replicas": 200}, "seed": 34},
        "verify": {"command": "verify", "model": model_dict,
                   "params": {"mc_n": 1000, "grid_size": 60}, "seed": 35},
        "diagnose": {"command": "diagnose", "model": model_dict,
                     "params": {"length": 600}, "seed": 36},
    }


def test_criterion_11_cli_determinism(tmp_path):
    """Every command byte-identical across two runs and threads {1, 4}."""
    model_dict = poisson_ingarch_x().to_dict()
    checked = 0
    for name, payload in _cli_manifests(model_dict).items():
        man = tmp_path / f"{name}.json"
        man.write_text(json.dumps(payload), encoding="utf-8")
        dirs = []
        for run, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{name}_{run}"
            rc = cli.main(["--manifest", str(man), "--out", str(out),
                           "--threads", str(threads)])
            assert rc in (0, 2)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            assert sorted(p.name for p in other.iterdir()) == names
            for f in names:
                assert (other / f).read_bytes() == (dirs[0] / f).read_bytes(), f"{name}/{f}"
                checked += 1
    _report(11, True, f"6 commands x 2 reruns byte-identical ({checked} file comparisons)")
