"""Models, op lists and output checks of the benchmark workloads.

An op is one manifest run through ``cli.validate_manifest`` and
``cli.run_manifest`` (so manifest parsing, model building and result-file
writes are inside the measurement), or one library call where no CLI
command exists.  A task is one pass over a workload's op list with a single
seed, so all tasks of a workload cost about the same.

Each op checks its own outputs after its timer stops; a failed check raises
``CheckFailed``.  The digest an op returns covers every byte it produced, so
a task run twice with one seed can be compared op by op.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import obsdriven as od
from obsdriven import cli, covariates, engine

CM = od.ConstantMap
U01 = od.IID(od.Uniform(0.0, 1.0))


def _ingarch_x() -> od.ModelSpec:
    """Poisson INGARCH: kappa=0.4, kappa_tilde=0.3|x|, delta_tilde=1, floor 0."""
    link = od.LinearLink(CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True),
                         order=1, floor=0.0)
    return od.ModelSpec(od.Poisson(), link, U01)


def _logit(kappa: float) -> od.ModelSpec:
    """Bernoulli logit: kappa, kappa_tilde=0.8|x|, delta_tilde=-0.2."""
    link = od.LinearLink(CM(kappa), od.AffineAbsMap(0.0, (0.8,), True), CM(-0.2), order=1)
    return od.ModelSpec(od.BernoulliLogit(), link, U01)


def _garch() -> od.ModelSpec:
    """Gaussian GARCH(1,1) with c_minus=1: kappa=0.3, kappa_tilde=0.1+0.2|x|, floor 1."""
    link = od.LinearLink(CM(0.3, True), od.AffineAbsMap(0.1, (0.2,), True), CM(1.0, True),
                         order=2, floor=1.0)
    return od.ModelSpec(od.GarchGaussian(1.0), link, U01)


def _loc_ar() -> od.ModelSpec:
    """Gaussian autoregression: y = s + N(0,1), kappa=0.5, kappa_tilde=0.3, delta_tilde=0."""
    link = od.LinearLink(CM(0.5), CM(0.3), CM(0.0), order=1)
    return od.ModelSpec(od.Location(od.GaussianNoise(1.0)), link, U01)


MODELS: dict[str, Callable[[], od.ModelSpec]] = {
    "ingarch-x": _ingarch_x,
    "logit": lambda: _logit(0.5),
    "logit-persistent": lambda: _logit(0.8),
    "garch": _garch,
    "loc-ar": _loc_ar,
}

# Why each workload exists is in README.md next to this file.
WORKLOADS = ("chains", "backward", "certify")

SIM_STEPS = 2000
COUPLE_HORIZON = 400
COUPLE_OFFSET = 10.0
DIAGNOSE_LENGTH = 2000
BACKWARD_COST_N = 200
BACKWARD_COST_REPLICAS = 2000
BACKWARD_COST_LIMIT = 0.02
EXPECTED_VERDICT = "pass"


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """``execute(seed, out_dir)`` runs the op and returns its untimed check,
    which raises CheckFailed or returns the digest of the op's output."""

    name: str
    execute: Callable[[int, Path], Callable[[], str]]


@dataclass(frozen=True)
class OpResult:
    name: str
    seconds: float
    error: str | None  # exception type, "CheckFailed" or None
    detail: str
    digest: str


def run_op(op: Op, seed: int, out_dir: Path) -> OpResult:
    """Time one op (execution only), then run its check outside the timer."""
    t0 = time.perf_counter()
    try:
        check = op.execute(seed, out_dir)
    except Exception as e:  # an op that raises is a failure to count, not a crash
        seconds = time.perf_counter() - t0
        at = traceback.extract_tb(e.__traceback__)[-1]
        detail = f"{str(e)[:160]} in {at.name} ({Path(at.filename).name}:{at.lineno})"
        return OpResult(op.name, seconds, type(e).__name__, detail, "raised:" + type(e).__name__)
    seconds = time.perf_counter() - t0
    try:
        digest = check()
    except CheckFailed as e:
        return OpResult(op.name, seconds, "CheckFailed", str(e)[:200], "check-failed")
    return OpResult(op.name, seconds, None, "", digest)


# ---------------------------------------------------------------------------
# result-file readers
# ---------------------------------------------------------------------------

def _digest_dir(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def _cli_op(name: str, raw: dict, check: Callable[[Path, dict], None]) -> Op:
    """A manifest run that must exit with 0; ``check(out_dir, manifest)``
    inspects the result files."""

    def execute(seed: int, out_dir: Path):
        manifest = cli.validate_manifest({**raw, "seed": seed})
        code, _ = cli.run_manifest(manifest, out_dir)

        def finish() -> str:
            _expect(code == 0, f"exit code {code}")
            check(out_dir, manifest)
            return _digest_dir(out_dir)

        return finish

    return Op(name, execute)


def _simulate_op(label: str, model: od.ModelSpec) -> Op:
    def check(out_dir: Path, manifest: dict) -> None:
        rows = _rows(out_dir / "trajectory.csv")
        _expect(len(rows) == SIM_STEPS, f"{len(rows)} rows, expected {SIM_STEPS}")
        lam = [float(r["lambda"]) for r in rows]
        _expect(all(math.isfinite(v) for v in lam), "non-finite lambda")
        _expect(bool(model.kernel.domain_contains(lam)), "lambda outside the domain")

    raw = {"command": "simulate", "model": model.to_dict(),
           "params": {"s0": model.start_state(), "t_min": 0, "t_max": SIM_STEPS - 1}}
    return _cli_op(f"{label}/simulate", raw, check)


def _couple_op(label: str, model: od.ModelSpec) -> Op:
    def check(out_dir: Path, manifest: dict) -> None:
        info = _json(out_dir / "couple.json")
        _expect(info["censored"] == (info["meet_time"] is None), "censored disagrees with meet_time")
        for r in _rows(out_dir / "trace.csv"):
            if r["met"] == "1":
                _expect(float(r["y"]) == float(r["y_prime"]), f"met row t={r['t']} has y != y'")

    s0 = model.start_state()
    raw = {"command": "couple", "model": model.to_dict(),
           "params": {"s0": s0, "s0_prime": s0 + COUPLE_OFFSET, "horizon": COUPLE_HORIZON}}
    return _cli_op(f"{label}/couple", raw, check)


def _stationary_op(label: str, model: od.ModelSpec) -> Op:
    def check(out_dir: Path, manifest: dict) -> None:
        info = _json(out_dir / "stationary.json")
        params = manifest["params"]
        _expect(info["converged"] is True, "not converged")
        _expect(info["achieved_gap"] < params["tol"], f"gap {info['achieved_gap']} >= tol")
        rows = _rows(out_dir / "measure.csv")
        _expect(len(rows) == params["replicas"], f"{len(rows)} points, expected {params['replicas']}")
        _expect(all(math.isfinite(float(v)) for r in rows for v in r.values()), "non-finite point")

    raw = {"command": "stationary", "model": model.to_dict(), "params": {}}
    return _cli_op(f"{label}/stationary", raw, check)


def _verify_op(label: str, model: od.ModelSpec) -> Op:
    def check(out_dir: Path, manifest: dict) -> None:
        overall = _json(out_dir / "report.json")["overall"]
        _expect(overall == EXPECTED_VERDICT, f"verdict {overall}, expected {EXPECTED_VERDICT}")

    raw = {"command": "verify", "model": model.to_dict(), "params": {}}
    return _cli_op(f"{label}/verify", raw, check)


def _diagnose_op(label: str, model: od.ModelSpec) -> Op:
    def check(out_dir: Path, manifest: dict) -> None:
        regen = _json(out_dir / "regeneration.json")
        times = regen["times"]
        _expect(len(times) >= 1, "no regeneration time")
        _expect(all(b - a > regen["h"] for a, b in zip(times, times[1:])), "spacing <= h")

    raw = {"command": "diagnose", "model": model.to_dict(), "params": {"length": DIAGNOSE_LENGTH}}
    return _cli_op(f"{label}/diagnose", raw, check)


def _backward_cost_op(label: str, model: od.ModelSpec) -> Op:
    """No CLI command couples two backward runs, so this op is a library call."""
    n = BACKWARD_COST_N

    def execute(seed: int, out_dir: Path):
        path = covariates.generate_path(model.covariates, -n, -1,
                                        od.split_seed(seed, engine._SEED_ENV))
        cost = engine.coupled_backward_cost(model, 0.0, COUPLE_OFFSET, n, path,
                                            BACKWARD_COST_REPLICAS, seed)

        def finish() -> str:
            _expect(cost <= BACKWARD_COST_LIMIT, f"cost {cost} > {BACKWARD_COST_LIMIT}")
            return repr(cost)

        return finish

    return Op(f"{label}/coupled_backward_cost", execute)


def build_ops(workload: str) -> list[Op]:
    """The op list of one workload; models and manifests are built here."""
    m = {name: build() for name, build in MODELS.items()}
    if workload == "chains":
        # garch/couple is left out: it fails at the seed commit (see defect_probe)
        return [op(label, m[label])
                for label in ("ingarch-x", "logit", "garch", "loc-ar")
                for op in (_simulate_op, _couple_op)
                if (label, op) != ("garch", _couple_op)]
    if workload == "backward":
        ops = [_stationary_op(label, m[label]) for label in ("ingarch-x", "logit-persistent", "loc-ar")]
        return ops + [_backward_cost_op("logit-persistent", m["logit-persistent"])]
    if workload == "certify":
        return [op(label, m[label])
                for label in ("ingarch-x", "logit", "garch", "loc-ar")
                for op in (_verify_op, _diagnose_op)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def defect_probe() -> Op:
    """The op of the known GARCH coupling defect, which no workload runs.

    About half of its runs raise ZeroDivisionError in
    ``GarchGaussian._breakpoints``: the two states are adjacent floats, so
    sqrt(s) == sqrt(s'), on the way through ``_couple_continuous_batch`` and
    ``tv_exact``.  A run that does not raise must pass the couple check.
    """
    return _couple_op("garch", MODELS["garch"]())


def run_task(ops: list[Op], seed: int, work_dir: Path,
             after_op: Callable[[], None] | None = None) -> list[OpResult]:
    """One pass over the op list; each op writes into its own directory.

    ``after_op`` runs after every op, outside the op's timer.
    """
    results = []
    for i, op in enumerate(ops):
        out_dir = work_dir / f"op{i}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in out_dir.iterdir():
            p.unlink()
        results.append(run_op(op, seed, out_dir))
        if after_op is not None:
            after_op()
    return results
