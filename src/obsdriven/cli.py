"""Batch command line: manifest in, CSV/JSON artifacts out.

One manifest describes one experiment (model + command + parameters +
seed).  Every run writes its results plus a replay manifest with all
defaults resolved; identical manifests produce byte-identical result
files, independent of the --threads setting (the flag is accepted for
interface compatibility; computations are deterministic single-stream).

Exit codes: 0 success, 1 usage/manifest error, 2 verification failure or
non-converged sampler (tolerance not met within max_n, or the backward
runs overflowed), 3 inconclusive verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine, verify
from .engine import ModelSpec, model_from_dict
from .covariates import generate_path
from .errors import ManifestError
from .rngstream import split_seed

_COMMANDS = ("simulate", "couple", "backward", "stationary", "verify", "diagnose")

# allowed (and, where no default exists, required) params per command
_PARAM_SPEC = {
    "simulate": {"required": ["s0", "t_min", "t_max"], "optional": {}},
    "couple": {"required": ["s0", "s0_prime", "horizon"], "optional": {}},
    "backward": {"required": ["s0", "n"], "optional": {"replicas": 2000}},
    "stationary": {
        "required": [],
        "optional": {"tol": 0.01, "max_n": 400, "replicas": 2000, "s0": None},
    },
    "verify": {
        "required": [],
        "optional": {
            "mc_n": 10_000, "grid_size": 200, "tol": 1e-6,
            "oracle_tol": 1e-7, "lipschitz_n": 1000,
        },
    },
    "diagnose": {
        "required": ["length"],
        "optional": {"h": None, "H": None, "C": None},
    },
}
# params that take real numbers, s0 and s0_prime also a list of them (a
# vector start state); every other param takes integers
_REAL_PARAMS = ("s0", "s0_prime", "tol", "oracle_tol", "C")
_VECTOR_PARAMS = ("s0", "s0_prime")


def _fail(msg: str) -> "ManifestError":
    return ManifestError(msg)


def _is_number(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def load_manifest(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise _fail(f"manifest not found: {path}")
    except json.JSONDecodeError as e:
        raise _fail(f"manifest is not valid JSON: {e}")
    return validate_manifest(raw)


def validate_manifest(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise _fail("manifest must be a JSON object")
    allowed = {"command", "model", "params", "seed", "out"}
    unknown = set(raw) - allowed
    if unknown:
        raise _fail(f"unknown manifest fields: {sorted(unknown)}")
    cmd = raw.get("command")
    if cmd not in _COMMANDS:
        raise _fail(f"command must be one of {_COMMANDS}, got {cmd!r}")
    if "model" not in raw:
        raise _fail("manifest needs a 'model' object")
    if "seed" not in raw or not isinstance(raw["seed"], int):
        raise _fail("manifest needs an integer 'seed'")
    spec = _PARAM_SPEC[cmd]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise _fail("'params' must be an object")
    unknown = set(params) - set(spec["required"]) - set(spec["optional"])
    if unknown:
        raise _fail(f"unknown params for {cmd}: {sorted(unknown)}")
    missing = [k for k in spec["required"] if k not in params]
    if missing:
        raise _fail(f"missing params for {cmd}: {missing}")
    for name, value in params.items():
        if value is None and name in spec["optional"] and spec["optional"][name] is None:
            continue
        kinds = (int, float) if name in _REAL_PARAMS else int
        if _is_number(value, kinds) or (name in _VECTOR_PARAMS and isinstance(value, list)
                                        and all(_is_number(v, kinds) for v in value)):
            continue
        kind = "an integer" if kinds is int else "a number"
        if name in _VECTOR_PARAMS:
            kind += " or a list of numbers"
        raise _fail(f"param {name!r} of {cmd} must be {kind}, got {value!r}")
    resolved = dict(spec["optional"])
    resolved.update(params)
    out = dict(raw)
    out["params"] = resolved
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_replay(out_dir: Path, manifest: dict) -> None:
    replay = {
        "command": manifest["command"],
        "model": manifest["model"],
        "params": {k: v for k, v in manifest["params"].items() if v is not None},
        "seed": manifest["seed"],
    }
    _write_json(out_dir / "replay.json", replay)


def run_manifest(manifest: dict, out_dir: Path) -> tuple[int, str]:
    """Execute one validated manifest; returns (exit code, summary line)."""
    try:
        model = model_from_dict(manifest["model"])
    except (KeyError, TypeError, ValueError) as e:
        raise _fail(f"malformed model ({type(e).__name__}: {e})") from e
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = manifest["command"]
    params = manifest["params"]
    seed = manifest["seed"]

    if cmd == "simulate":
        traj = engine.simulate(model, params["s0"], params["t_min"], params["t_max"], seed)
        with open(out_dir / "trajectory.csv", "w", newline="", encoding="utf-8") as f:
            traj.to_csv(f)
        _write_replay(out_dir, manifest)
        return 0, f"simulate: {len(traj)} steps -> {out_dir / 'trajectory.csv'}"

    if cmd == "couple":
        horizon = params["horizon"]
        path = generate_path(model.covariates, 0, horizon - 1, split_seed(seed, engine._SEED_ENV))
        trace = engine.couple_forward(model, params["s0"], params["s0_prime"], path, seed)
        with open(out_dir / "trace.csv", "w", newline="", encoding="utf-8") as f:
            trace.to_csv(f, x_values=path.values)
        _write_json(out_dir / "couple.json", {
            "meet_time": trace.meet_time,
            "censored": trace.censored,
            "lambda_gap_sum": None if trace.censored else trace.lambda_gap_sum,
            "horizon": horizon,
        })
        _write_replay(out_dir, manifest)
        met = "censored" if trace.censored else f"met at t={trace.meet_time}"
        return 0, f"couple: {met} -> {out_dir / 'trace.csv'}"

    if cmd == "backward":
        n, replicas = params["n"], params["replicas"]
        path = generate_path(model.covariates, -n, -1, split_seed(seed, engine._SEED_ENV))
        mu = engine.backward_measure(model, params["s0"], n, path, replicas, seed)
        with open(out_dir / "measure.csv", "w", newline="", encoding="utf-8") as f:
            mu.to_csv(f)
        _write_json(out_dir / "backward.json", mu.meta)
        _write_replay(out_dir, manifest)
        return 0, f"backward: {replicas} points at n={n} -> {out_dir / 'measure.csv'}"

    if cmd == "stationary":
        s0 = params["s0"]
        res = engine.stationary_sampler(
            model, params["tol"], params["max_n"], params["replicas"], seed, s0=s0,
        )
        with open(out_dir / "measure.csv", "w", newline="", encoding="utf-8") as f:
            res.measure.to_csv(f)
        _write_json(out_dir / "stationary.json", res.to_dict())
        _write_replay(out_dir, manifest)
        code = 0 if res.converged else 2
        word = "converged" if res.converged else "NOT CONVERGED"
        return code, (
            f"stationary: {word} at n={res.n_final} "
            f"(gap {res.achieved_gap:.3g}; {res.reason}) -> {out_dir / 'measure.csv'}"
        )

    if cmd == "verify":
        cfg = verify.VerifyConfig(
            mc_n=params["mc_n"], grid_size=params["grid_size"], tol=params["tol"],
            oracle_tol=params["oracle_tol"], lipschitz_n=params["lipschitz_n"], seed=seed,
        )
        report = verify.full_report(model, cfg)
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
        _write_replay(out_dir, manifest)
        code = {"pass": 0, "fail": 2, "inconclusive": 3}[report.overall]
        return code, f"verify: {report.overall} -> {out_dir / 'report.json'}"

    # diagnose
    length = params["length"]
    path = generate_path(model.covariates, 0, length - 1, split_seed(seed, engine._SEED_ENV))
    H = params["H"] or max(10, min(50, length // 4))
    if params["h"] is None or params["C"] is None:
        stats, C, h = engine.calibrate_regeneration(model, path, H)
        if params["h"] is not None:
            h = params["h"]
            stats = engine.w_stats(model, path, h, H)
        if params["C"] is not None:
            C = params["C"]
    else:
        h, C = params["h"], params["C"]
        stats = engine.w_stats(model, path, h, H)
    regen = engine.regeneration_times(stats, C, h)
    with open(out_dir / "wstats.csv", "w", newline="", encoding="utf-8") as f:
        stats.to_csv(f)
    _write_json(out_dir / "regeneration.json", regen.to_dict())
    resolved = dict(manifest)
    resolved["params"] = {"length": length, "h": h, "H": H, "C": C}
    _write_replay(out_dir, resolved)
    return 0, (
        f"diagnose: {len(regen)} regeneration times (C={C:g}, h={h}) "
        f"-> {out_dir / 'regeneration.json'}"
    )


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="obsdriven",
        description="Run an experiment manifest (simulate | couple | backward | stationary | verify | diagnose).",
    )
    p.add_argument("--manifest", required=True, type=Path, help="path to the JSON manifest")
    p.add_argument("--out", type=Path, default=None, help="output directory (overrides manifest)")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; results are independent of this setting")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as e:
        print(f"manifest error: {e}", file=sys.stderr)
        return 1
    if args.seed is not None:
        manifest["seed"] = args.seed
    out_dir = args.out or Path(manifest.get("out") or "results")
    try:
        code, summary = run_manifest(manifest, out_dir)
    except ManifestError as e:
        print(f"manifest error: {e}", file=sys.stderr)
        return 1
    print(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
