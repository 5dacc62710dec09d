"""Batch command line: manifest in, CSV/JSON artifacts out.

One manifest describes one experiment (model + command + parameters +
seed).  Every run writes its results plus a replay manifest with all
defaults resolved; identical manifests produce byte-identical result
files, independent of the --threads setting (the flag is accepted for
interface compatibility; computations are deterministic single-stream).

Exit codes: 0 success, 1 usage/manifest error, 2 verification failure or
non-converged sampler (tolerance not met within max_n, or the backward
runs overflowed), 3 inconclusive verification, 4 model error (a chain left
its domain or overflowed, a degenerate coefficient map, or a coupling past
its proposal cap), printed with the failing step's t, replica, state and y.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine, errors, verify
from .engine import ModelSpec, model_from_dict
from .covariates import generate_path
from .errors import EmptyRange, InvalidSpec, ManifestError, PathTooShort, UnsupportedCombination
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
        "optional": {"mc_n": 10_000, "grid_size": 200, "tol": 1e-6},
    },
    "diagnose": {
        "required": ["length"],
        "optional": {"h": None, "H": None, "C": None},
    },
}
# params that take real numbers, s0 and s0_prime also a list of them (a
# vector start state); every other param takes integers
_REAL_PARAMS = ("s0", "s0_prime", "tol", "C")
_VECTOR_PARAMS = ("s0", "s0_prime")


def _is_number(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def load_manifest(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except IsADirectoryError:
        raise ManifestError(f"manifest is a directory: {path}")
    except OSError as e:
        raise ManifestError(f"manifest cannot be read: {e}")
    except UnicodeDecodeError as e:
        raise ManifestError(f"manifest is not UTF-8 text: {e}")
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest is not valid JSON: {e}")
    except RecursionError:
        raise ManifestError("manifest is nested too deeply") from None
    return validate_manifest(raw)


def validate_manifest(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")
    allowed = {"command", "model", "params", "seed", "out"}
    unknown = set(raw) - allowed
    if unknown:
        raise ManifestError(f"unknown manifest fields: {sorted(unknown)}")
    cmd = raw.get("command")
    if cmd not in _COMMANDS:
        raise ManifestError(f"command must be one of {_COMMANDS}, got {cmd!r}")
    if "model" not in raw:
        raise ManifestError("manifest needs a 'model' object")
    if "seed" not in raw or not _is_number(raw["seed"], int):
        raise ManifestError("manifest needs an integer 'seed'")
    spec = _PARAM_SPEC[cmd]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ManifestError("'params' must be an object")
    unknown = set(params) - set(spec["required"]) - set(spec["optional"])
    if unknown:
        raise ManifestError(f"unknown params for {cmd}: {sorted(unknown)}")
    missing = [k for k in spec["required"] if k not in params]
    if missing:
        raise ManifestError(f"missing params for {cmd}: {missing}")
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
        raise ManifestError(f"param {name!r} of {cmd} must be {kind}, got {value!r}")
    resolved = dict(spec["optional"])
    resolved.update(params)
    out = dict(raw)
    out["params"] = resolved
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, to_csv, **kw) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        to_csv(f, **kw)


def run_manifest(manifest: dict, out_dir: Path) -> tuple[int, str]:
    """Execute one validated manifest; returns (exit code, summary line)."""
    try:
        model = model_from_dict(manifest["model"])
    except (KeyError, TypeError, ValueError) as e:
        raise ManifestError(f"malformed model ({type(e).__name__}: {e})") from e
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file at the path or on the way to it
        raise ManifestError(f"output directory {out_dir} cannot be made: {e.strerror}") from None
    cmd = manifest["command"]
    params = manifest["params"]
    seed = manifest["seed"]
    code = 0

    if cmd == "simulate":
        traj = engine.simulate(model, params["s0"], params["t_min"], params["t_max"], seed)
        _write_csv(out_dir / "trajectory.csv", traj.to_csv)
        summary = f"simulate: {len(traj)} steps -> {out_dir / 'trajectory.csv'}"

    elif cmd == "couple":
        horizon = params["horizon"]
        path = generate_path(model.covariates, 0, horizon - 1, split_seed(seed, engine._SEED_ENV))
        trace = engine.couple_forward(model, params["s0"], params["s0_prime"], path, seed)
        _write_csv(out_dir / "trace.csv", trace.to_csv, x_values=path.values)
        _write_json(out_dir / "couple.json", {
            "meet_time": trace.meet_time,
            "censored": trace.censored,
            "lambda_gap_sum": None if trace.censored else trace.lambda_gap_sum,
            "horizon": horizon,
        })
        met = "censored" if trace.censored else f"met at t={trace.meet_time}"
        summary = f"couple: {met} -> {out_dir / 'trace.csv'}"

    elif cmd == "backward":
        n, replicas = params["n"], params["replicas"]
        path = generate_path(model.covariates, -n, -1, split_seed(seed, engine._SEED_ENV))
        mu = engine.backward_measure(model, params["s0"], n, path, replicas, seed)
        _write_csv(out_dir / "measure.csv", mu.to_csv)
        _write_json(out_dir / "backward.json", mu.meta)
        summary = f"backward: {replicas} points at n={n} -> {out_dir / 'measure.csv'}"

    elif cmd == "stationary":
        s0 = params["s0"]
        res = engine.stationary_sampler(
            model, params["tol"], params["max_n"], params["replicas"], seed, s0=s0,
        )
        _write_csv(out_dir / "measure.csv", res.measure.to_csv)
        _write_json(out_dir / "stationary.json", res.to_dict())
        code = 0 if res.converged else 2
        word = "converged" if res.converged else "NOT CONVERGED"
        summary = (
            f"stationary: {word} at n={res.n_final} "
            f"(gap {res.achieved_gap:.3g}; {res.reason}) -> {out_dir / 'measure.csv'}"
        )

    elif cmd == "verify":
        cfg = verify.VerifyConfig(
            mc_n=params["mc_n"], grid_size=params["grid_size"], tol=params["tol"], seed=seed,
        )
        report = verify.full_report(model, cfg)
        _write_json(out_dir / "report.json", report.to_dict())
        (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
        code = {"pass": 0, "fail": 2, "inconclusive": 3}[report.overall]
        summary = f"verify: {report.overall} -> {out_dir / 'report.json'}"

    else:  # diagnose
        length = params["length"]
        path = generate_path(model.covariates, 0, length - 1, split_seed(seed, engine._SEED_ENV))
        H = params["H"] if params["H"] is not None else max(10, min(50, length // 4))
        h, C, stats = params["h"], params["C"], None
        if h is None or C is None:
            # calibrate only what the manifest left null; its stats serve when h agrees
            stats, C_cal, h_cal = engine.calibrate_regeneration(model, path, H)
            h = h_cal if h is None else h
            C = C_cal if C is None else C
        if stats is None or stats.h != h:
            stats = engine.w_stats(model, path, h, H)
        regen = engine.regeneration_times(stats, C)
        _write_csv(out_dir / "wstats.csv", stats.to_csv)
        _write_json(out_dir / "regeneration.json", regen.to_dict())
        params = {"length": length, "h": h, "H": H, "C": C}  # the replay takes the resolved constants
        summary = (
            f"diagnose: {len(regen)} regeneration times (C={C:g}, h={h}) "
            f"-> {out_dir / 'regeneration.json'}"
        )

    _write_json(out_dir / "replay.json", {
        "command": cmd,
        "model": manifest["model"],
        "params": {k: v for k, v in params.items() if v is not None},
        "seed": seed,
    })
    return code, summary


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


# what run_manifest raises for well-typed params out of range; named one by
# one, since DomainViolation (a model error) is a ValueError too
_SPEC_ERRORS = (ManifestError, InvalidSpec, UnsupportedCombination, EmptyRange, PathTooShort)
# numpy's ValueErrors for an array larger than it can address
_NUMPY_SIZE_ERRORS = ("Maximum allowed dimension exceeded", "array is too big")


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
    except (errors.DomainViolation, errors.DegenerateMap, errors.CouplingBudgetExceeded) as e:  # StateOverflow too
        domain = isinstance(e, errors.DomainViolation)
        at = f" (t={e.t}, replica={e.replica}, state={e.state!r}, y={e.y!r})" if domain else ""
        print(f"model error: {e}{at}", file=sys.stderr)
        return 4
    except (MemoryError, ValueError) as e:  # the spec errors are ValueErrors, numpy's _ArrayMemoryError a MemoryError
        size = isinstance(e, MemoryError) or type(e) is ValueError and str(e).startswith(_NUMPY_SIZE_ERRORS)
        if not (size or isinstance(e, _SPEC_ERRORS)):
            raise  # a fault, not the manifest's
        what = f"the {manifest['command']} params need more memory than there is: " if size else ""
        print(f"manifest error: {what}{str(e) or 'MemoryError'}", file=sys.stderr)
        return 1
    print(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
