"""Assumption certification reports for a passing and a failing model.

The three checks: exact contraction extraction with a log-moment verdict,
the drift route the family admits, and the total-variation rate sweep
against the brute-force oracle.  Environment statistics and regeneration
times show where the drift constants hold uniformly along one path.
"""

import numpy as np

import obsdriven as od

CM = od.ConstantMap

link = od.LinearLink(CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True), 1, 0.0)
model = od.ModelSpec(od.Poisson(), link, od.IID(od.Uniform(0.0, 1.0)))

print("=== count benchmark ===")
report = od.full_report(model, od.VerifyConfig(mc_n=5000, grid_size=100, seed=7))
print(report.to_text())

print("=== expanding recursion (kappa = 1.1) ===")
bad = od.ModelSpec(
    od.Poisson(),
    od.LinearLink(CM(1.1, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True), 1, 0.0),
    od.IID(od.Uniform(0.0, 1.0)),
)
print(od.full_report(bad, od.VerifyConfig(mc_n=5000, grid_size=100, seed=7)).to_text())

print("=== binary model with an unbounded covariate interaction ===")
blink = od.LinearLink(CM(0.9), od.AffineAbsMap(0.0, (1.0,), True), CM(0.1), 1)
binary = od.ModelSpec(od.BernoulliLogit(), blink, od.IID(od.Gaussian(0, 1)))
print(od.full_report(binary, od.VerifyConfig(mc_n=5000, grid_size=100, seed=7)).to_text())

print("=== environment control statistics and regeneration times ===")
path = od.generate_path(model.covariates, 0, 2000, seed=3)
stats, C, h = od.calibrate_regeneration(model, path, H=50)
regen = od.regeneration_times(stats, C)
print(f"calibrated thresholds: C = {C:g}, spacing h = {h}")
print(f"regeneration times found: {len(regen)} "
      f"(first few: {regen.times[:6].tolist()})")
print(f"frequency M_n / n at the end of the path: "
      f"{regen.m_counts[-1] / (stats.times[-1] - stats.times[0] + 1):.3f}")
print(f"typical statistics: W1 ~ {np.median(stats.w1):.2f}, "
      f"W2 ~ {np.median(stats.w2):.3f}, W4 ~ {np.median(stats.w4):.2f}")
