"""Assumption certification: contraction, drift, and total-variation rates.

Three checks mirror the three standing assumptions.  The contraction check
(a1) extracts the exact Lipschitz map of the link in the state and
Monte-Carlo estimates its log-moment with a 99% three-way verdict.  The
drift check (a2) picks the route the model family admits: binary/categorical
kernels only need log-moments of x -> f(s0, y, x); everything else goes
through the growth envelope and the conditional-moment constant D.  The
rate check (a3) sweeps the kernel's total-variation oracle against its
closed-form bound on a deterministic grid of state pairs.

Verdicts are three-way (pass / fail / inconclusive): a log-moment whose
sign cannot be settled at 99% confidence must not be called either way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .covariates import (
    CoefficientMap,
    DerivedMap,
    MomentEstimate,
    Z99,
    abs_map,
    log_moment_estimate,
    log_plus_moment_estimate,
    sum_map,
)
from .engine import ModelSpec
from .errors import UnsupportedCombination
from .kernels import PhiSpec
from .links import (
    apply as link_apply,
    contraction_map,
    growth_envelope,
    structural_floor,
)
from .rngstream import split_seed

SCHEMA = "obsdriven.verification/2"


@dataclass(frozen=True)
class VerifyConfig:
    mc_n: int = 10_000
    grid_size: int = 200
    tol: float = 1e-6
    seed: int = 20240801

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _observation_maps(model: ModelSpec) -> dict | None:
    """{y: x -> max |f(s0, y, x)| over the state coordinates} for each observation y
    of a binary/categorical kernel; None for every other family.

    The route only needs existence at some s0; the start state (zero, floored
    into the domain) is canonical and the conclusion does not depend on it.
    """
    menu = model.kernel.outcomes
    if menu is None:
        return None
    link, s0 = model.link, model.start_state()
    return {
        y: DerivedMap(f"|f(s0,{y},x)|",
                      lambda x, _y=y: np.abs(link_apply(link, s0, _y, x)).reshape(len(x), -1).max(axis=1))
        for y in menu
    }


def _envelope_drift(model: ModelSpec):
    """The envelope route's growth envelope, moment constant D at the start state, and gamma."""
    env = growth_envelope(model.link)
    D = model.kernel.conditional_moment(model.start_state())[1]
    return env, D, sum_map("kappa + kappa_tilde", env.kappa_map, env.kappa_tilde_map)


def drift_certificate(model: ModelSpec) -> tuple[CoefficientMap, CoefficientMap]:
    """(gamma, delta) maps with P_x V <= gamma(x) V + delta(x), V(s)=1+|s|.

    Binary/categorical route: gamma is the link contraction and the
    observation term is absorbed through the reference state.  Envelope
    route: gamma = kappa + kappa_tilde and delta collects the intercept
    plus the conditional-moment constant D.
    """
    maps = _observation_maps(model)
    if maps is not None:
        kappa = contraction_map(model.link)

        def delta_fn(x, _ms=tuple(maps.values()), _k=kappa):
            m = np.maximum.reduce([f.evaluate(x) for f in _ms])
            return np.maximum(0.0, 1.0 + m - _k.evaluate(x))

        return kappa, DerivedMap("1 + max_y |f(s0,y,x)| - kappa", delta_fn)
    env, D, gamma = _envelope_drift(model)

    def delta_fn(x, _env=env, _D=D, _g=gamma):
        return np.maximum(
            0.0,
            1.0 + _env.kappa_tilde_map.evaluate(x) * _D
            + _env.delta_map.evaluate(x) - _g.evaluate(x),
        )

    return gamma, DerivedMap("1 + kappa_tilde D + delta_tilde - gamma", delta_fn)


def domain_compatible(model: ModelSpec) -> tuple[bool, str]:
    """Can the link provably keep states inside the kernel domain?  A floor clamp, or else
    ``structural_floor``, must lie in the kernel's domain (``domain_contains``).  The structural
    bound needs a nonnegative observation term, which every family with a floor has: the count
    families observe counts, and GARCH links are of order 2."""
    kernel, link = model.kernel, model.link
    kfloor = kernel.domain_floor()
    if kfloor is None:
        return True, "state space unbounded below"
    if link.floor is not None:
        if kernel.domain_contains(link.floor):
            return True, f"floor clamp at {link.floor}"
        return False, f"floor {link.floor} lies below the domain bound {kfloor}"
    sf = structural_floor(link)
    if sf is not None and kernel.domain_contains(sf):
        return True, f"structural intercept bound {sf}"
    return False, f"no floor clamp and no structural bound >= {kfloor}"


# ---------------------------------------------------------------------------
# A1: contraction
# ---------------------------------------------------------------------------

def _verdict(*verdicts: str) -> str:
    """The verdict of checks that must all pass: fail if one fails, pass if all pass, else
    inconclusive; a log-moment that must be negative passes when negative, fails when not."""
    vs = {{"negative": "pass", "nonnegative": "fail"}.get(v, v) for v in verdicts}
    return "fail" if "fail" in vs else "pass" if vs == {"pass"} else "inconclusive"


@dataclass(frozen=True)
class A1Report:
    kappa_label: str
    moment: MomentEstimate
    verdict: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "verdict", _verdict(self.moment.verdict))

    def to_dict(self):
        return {
            "kappa": self.kappa_label,
            "log_moment": self.moment.to_dict(),
            "verdict": self.verdict,
        }


def check_a1(model: ModelSpec, mc_n: int = 10_000, seed: int = 0) -> A1Report:
    """Contraction-in-state check: the sign of E log kappa(X_0) for the link's exact
    Lipschitz map kappa (``contraction_map``), which its tests prove for every link type."""
    kappa = contraction_map(model.link)
    est = log_moment_estimate(kappa, model.covariates, mc_n, split_seed(seed, 1))
    return A1Report(getattr(kappa, "label", None) or repr(kappa), est)


# ---------------------------------------------------------------------------
# A2: drift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class A2Report:
    case: str
    order: int
    envelope: dict | None
    gamma_estimate: MomentEstimate | None
    delta_log_plus: MomentEstimate | None
    case2_kappa_estimate: MomentEstimate | None
    case2_regime2_estimate: MomentEstimate | None
    category_log_plus: dict | None
    drift_constant_D: float | None
    domain_ok: bool
    domain_reason: str
    verdict: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "verdict", self._verdict())

    def _verdict(self) -> str:
        if not self.domain_ok:
            return "fail"
        if self.case in ("binary", "categorical"):
            return "pass"  # finite log+ moments established by construction
        if self.case == "pratique2-case2":
            return _verdict(self.case2_kappa_estimate.verdict, self.case2_regime2_estimate.verdict)
        return _verdict(self.gamma_estimate.verdict)

    def to_dict(self):
        return {
            "case": self.case,
            "order": self.order,
            "V": "V(s) = 1 + |s|",
            "envelope": self.envelope,
            "gamma_log_moment": self.gamma_estimate.to_dict() if self.gamma_estimate else None,
            "delta_log_plus_moment": self.delta_log_plus.to_dict() if self.delta_log_plus else None,
            "case2_kappa_log_moment": self.case2_kappa_estimate.to_dict() if self.case2_kappa_estimate else None,
            "case2_regime2_log_moment": self.case2_regime2_estimate.to_dict() if self.case2_regime2_estimate else None,
            "category_log_plus_moments": self.category_log_plus,
            "drift_constant_D": self.drift_constant_D,
            "domain_ok": self.domain_ok,
            "domain_reason": self.domain_reason,
            "verdict": self.verdict,
        }


def check_a2(model: ModelSpec, mc_n: int = 10_000, seed: int = 0) -> A2Report:
    """Drift check via the route the model family admits."""
    ok, reason = domain_compatible(model)
    maps = _observation_maps(model)
    if maps is not None:
        cat_reports = {
            str(y): log_plus_moment_estimate(m, model.covariates, mc_n, split_seed(seed, 10 + y)).to_dict()
            for y, m in maps.items()
        }
        case = "categorical" if model.kernel.state_shape else "binary"
        return A2Report(case, model.link.order, None, None, None, None, None,
                        cat_reports, None, ok, reason)

    env, D, gamma = _envelope_drift(model)
    gamma_est = log_moment_estimate(gamma, model.covariates, mc_n, split_seed(seed, 20))
    delta_lp = log_plus_moment_estimate(env.delta_map, model.covariates, mc_n, split_seed(seed, 21))
    est_k = est_k2 = None
    if env.case == "pratique2-case2":
        est_k = log_moment_estimate(env.kappa_map, model.covariates, mc_n, split_seed(seed, 22))
        r2 = model.link.regime_out
        reg2 = sum_map("|kappa_2| + |kappa_tilde_2|", abs_map(r2.kappa), abs_map(r2.kappa_tilde))
        est_k2 = log_moment_estimate(reg2, model.covariates, mc_n, split_seed(seed, 23))
    return A2Report(env.case, model.link.order, env.to_dict(), gamma_est, delta_lp,
                    est_k, est_k2, None, D, ok, reason)


# ---------------------------------------------------------------------------
# A3: total-variation rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class A3Report:
    phi: dict
    n_pairs: int
    max_violation: float
    worst_pair: tuple
    tol: float
    verdict: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "verdict", "pass" if self.max_violation <= self.tol else "fail")

    def to_dict(self):
        def noarr(v):
            return v.tolist() if isinstance(v, np.ndarray) else v
        return {
            "phi": self.phi,
            "n_pairs": self.n_pairs,
            "max_violation": self.max_violation,
            "worst_pair": [noarr(self.worst_pair[0]), noarr(self.worst_pair[1])],
            "tol": self.tol,
            "verdict": self.verdict,
        }


def check_a3(
    model: ModelSpec, grid_size: int = 200, tol: float = 1e-6, phi_override: PhiSpec | None = None,
) -> A3Report:
    """Sweep tv_exact <= 1 - exp(-phi(|s-s'|)) + tol over the standard grid."""
    if grid_size < 50:
        raise UnsupportedCombination("a3 grid needs at least 50 pairs")
    kernel = model.kernel
    phi = phi_override if phi_override is not None else kernel.phi()
    pairs = kernel.standard_pairs(grid_size)
    phis = phi.evaluate([kernel.state_distance(s, sp) for s, sp in pairs]).tolist()
    worst, worst_pair = -math.inf, pairs[0]
    for (s, sp), ph in zip(pairs, phis):
        # math.exp per pair: numpy's exp may round differently
        v = kernel.tv_exact(s, sp) - (1.0 - math.exp(-ph))
        if v > worst:
            worst, worst_pair = v, (s, sp)
    return A3Report(phi.to_dict(), len(pairs), float(worst), worst_pair, tol)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    a1: A1Report
    a2: A2Report
    a3: A3Report
    config: VerifyConfig
    model: dict
    overall: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "overall", _verdict(self.a1.verdict, self.a2.verdict, self.a3.verdict))

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "model": self.model,
            "config": self.config.to_dict(),
            "a1": self.a1.to_dict(),
            "a2": self.a2.to_dict(),
            "a3": self.a3.to_dict(),
            "overall": self.overall,
        }

    def to_text(self) -> str:
        lines = [
            f"overall: {self.overall.upper()}",
            f"  contraction (a1): {self.a1.verdict}  "
            f"[E log kappa = {self.a1.moment.mean:.6g} +- {Z99 * self.a1.moment.std_error:.2g}"
            + ("]" if self.a1.verdict == "pass" else
               "; a1 is a sufficient condition: failing it does not show that no stationary solution exists]"),
            f"  drift (a2): {self.a2.verdict}  [route {self.a2.case}, "
            f"domain {'ok' if self.a2.domain_ok else 'BROKEN: ' + self.a2.domain_reason}]",
        ]
        if self.a2.gamma_estimate is not None:
            lines.append(
                f"    E log gamma = {self.a2.gamma_estimate.mean:.6g} "
                f"+- {Z99 * self.a2.gamma_estimate.std_error:.2g} ({self.a2.gamma_estimate.verdict})"
            )
        lines.append(
            f"  tv rate (a3): {self.a3.verdict}  "
            f"[max violation {self.a3.max_violation:.3g} over {self.a3.n_pairs} pairs, tol {self.a3.tol:g}]"
        )
        return "\n".join(lines) + "\n"


def full_report(model: ModelSpec, config: VerifyConfig | None = None) -> VerificationReport:
    """Run all three checks with recorded seeds and grids."""
    cfg = config or VerifyConfig()
    a1 = check_a1(model, cfg.mc_n, split_seed(cfg.seed, 1))
    a2 = check_a2(model, cfg.mc_n, split_seed(cfg.seed, 2))
    a3 = check_a3(model, cfg.grid_size, cfg.tol)
    return VerificationReport(a1, a2, a3, cfg, model.to_dict())
