"""Manifest front end: validation, artifacts, replay, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from obsdriven import cli
from obsdriven.errors import ManifestError

from conftest import poisson_ingarch_x

BENCH = poisson_ingarch_x().to_dict()


def write_manifest(tmp_path: Path, name: str, payload: dict) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def simulate_manifest(**overrides):
    m = {
        "command": "simulate",
        "model": BENCH,
        "params": {"s0": 0.0, "t_min": 0, "t_max": 199},
        "seed": 4242,
    }
    m.update(overrides)
    return m


def test_manifest_rejects_unknown_fields():
    with pytest.raises(ManifestError):
        cli.validate_manifest(simulate_manifest(extra=1))
    bad = simulate_manifest()
    bad["params"]["horizon"] = 5
    with pytest.raises(ManifestError):
        cli.validate_manifest(bad)
    with pytest.raises(ManifestError):
        cli.validate_manifest({"command": "nope", "model": BENCH, "seed": 1})
    with pytest.raises(ManifestError):
        cli.validate_manifest({"command": "simulate", "model": BENCH, "seed": "x"})


def test_simulate_writes_trajectory_with_contract_header(tmp_path):
    man = write_manifest(tmp_path, "m.json", simulate_manifest())
    rc = cli.main(["--manifest", str(man), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,lambda,y"
    assert len(lines) == 201
    assert (tmp_path / "out" / "replay.json").exists()


def test_replay_round_trip_reproduces_outputs(tmp_path):
    man = write_manifest(tmp_path, "m.json", simulate_manifest())
    cli.main(["--manifest", str(man), "--out", str(tmp_path / "a")])
    replay = tmp_path / "a" / "replay.json"
    cli.main(["--manifest", str(replay), "--out", str(tmp_path / "b")])
    for f in sorted((tmp_path / "a").iterdir()):
        assert (tmp_path / "b" / f.name).read_bytes() == f.read_bytes()


def test_seed_override_flag(tmp_path):
    man = write_manifest(tmp_path, "m.json", simulate_manifest())
    cli.main(["--manifest", str(man), "--out", str(tmp_path / "a")])
    cli.main(["--manifest", str(man), "--out", str(tmp_path / "b"), "--seed", "1"])
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a != b


def test_verify_exit_codes(tmp_path):
    ok = {
        "command": "verify", "model": BENCH,
        "params": {"mc_n": 1000, "grid_size": 60}, "seed": 7,
    }
    man = write_manifest(tmp_path, "ok.json", ok)
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "ok")]) == 0
    bad_model = dict(BENCH)
    bad_model["link"] = dict(BENCH["link"])
    bad_model["link"]["kappa"] = {"kind": "constant", "value": 1.1, "nonnegative": True}
    bad = dict(ok)
    bad["model"] = bad_model
    man2 = write_manifest(tmp_path, "bad.json", bad)
    assert cli.main(["--manifest", str(man2), "--out", str(tmp_path / "bad")]) == 2
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert report["a1"]["verdict"] == "fail"


def test_stationary_not_converged_exit_code(tmp_path):
    bad_model = dict(BENCH)
    bad_model["link"] = dict(BENCH["link"])
    bad_model["link"]["kappa"] = {"kind": "constant", "value": 1.1, "nonnegative": True}
    man = write_manifest(tmp_path, "m.json", {
        "command": "stationary", "model": bad_model,
        "params": {"tol": 0.01, "max_n": 100, "replicas": 200}, "seed": 5,
    })
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 2
    diag = json.loads((tmp_path / "o" / "stationary.json").read_text())
    assert diag["converged"] is False


def test_stationary_overflow_exit_code_and_reason(tmp_path, capsys):
    bad_model = dict(BENCH)
    bad_model["link"] = dict(BENCH["link"])
    bad_model["link"]["kappa"] = {"kind": "constant", "value": 3.0, "nonnegative": True}
    man = write_manifest(tmp_path, "m.json", {
        "command": "stationary", "model": bad_model,
        "params": {"tol": 0.01, "max_n": 800, "replicas": 100}, "seed": 42,
    })
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 2
    diag = json.loads((tmp_path / "o" / "stationary.json").read_text())
    assert diag["converged"] is False and diag["n_final"] == 400
    assert diag["reason"].startswith("overflow at n=800: backward step t=")
    assert "overflow at n=800" in capsys.readouterr().out


def test_missing_manifest_is_usage_error(tmp_path, capsys):
    assert cli.main(["--manifest", str(tmp_path / "none.json")]) == 1


@pytest.mark.parametrize("breakage", ["missing_link", "unknown_family"])
def test_malformed_model_is_manifest_error(tmp_path, capsys, breakage):
    model = dict(BENCH)
    if breakage == "missing_link":
        del model["link"]
    else:
        model["kernel"] = {"family": "no_such_family"}
    man = write_manifest(tmp_path, "m.json", simulate_manifest(model=model))
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("manifest error: malformed model")


@pytest.mark.parametrize("name, value", [
    ("horizon", "40"), ("horizon", True), ("horizon", None), ("horizon", 40.5),
    ("s0", "0"), ("s0", ["0"]), ("s0_prime", {"x": 1}),
])
def test_param_of_the_wrong_type_is_manifest_error(tmp_path, capsys, name, value):
    params = {"s0": 0.0, "s0_prime": 10.0, "horizon": 40, name: value}
    man = write_manifest(tmp_path, "m.json", {"command": "couple", "model": BENCH,
                                              "params": params, "seed": 3})
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"manifest error: param '{name}' of couple")
    params[name] = 40 if name == "horizon" else [0.0]
    cli.validate_manifest({"command": "couple", "model": BENCH, "params": params, "seed": 3})
    cli.validate_manifest({"command": "diagnose", "model": BENCH, "seed": 3,
                           "params": {"length": 100, "h": None}})


def test_couple_and_backward_and_diagnose_commands(tmp_path):
    cmds = [
        {"command": "couple", "model": BENCH,
         "params": {"s0": 0.0, "s0_prime": 10.0, "horizon": 120}, "seed": 3},
        {"command": "backward", "model": BENCH,
         "params": {"s0": 0.0, "n": 50, "replicas": 200}, "seed": 3},
        {"command": "diagnose", "model": BENCH,
         "params": {"length": 600}, "seed": 3},
    ]
    for i, payload in enumerate(cmds):
        man = write_manifest(tmp_path, f"m{i}.json", payload)
        rc = cli.main(["--manifest", str(man), "--out", str(tmp_path / f"o{i}")])
        assert rc == 0
    assert (tmp_path / "o0" / "trace.csv").exists()
    assert (tmp_path / "o1" / "measure.csv").exists()
    regen = json.loads((tmp_path / "o2" / "regeneration.json").read_text())
    assert regen["count"] > 0
    # diagnose resolves its calibrated constants into the replay manifest
    replay = json.loads((tmp_path / "o2" / "replay.json").read_text())
    assert set(replay["params"]) == {"length", "h", "H", "C"}


def test_console_entry_point_runs(tmp_path):
    man = write_manifest(tmp_path, "m.json", simulate_manifest(params={"s0": 0.0, "t_min": 0, "t_max": 20}))
    out = subprocess.run(
        [sys.executable, "-m", "obsdriven.cli", "--manifest", str(man),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "simulate:" in out.stdout
