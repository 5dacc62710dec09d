"""Manifest front end: validation, artifacts, replay, determinism."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import obsdriven as od
from obsdriven import cli, engine
from obsdriven.errors import ManifestError, StateOverflow

from conftest import divergent_model, poisson_ingarch_x

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
    for seed in ("x", True):
        with pytest.raises(ManifestError, match="integer 'seed'"):
            cli.validate_manifest(simulate_manifest(seed=seed))


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


def test_verify_passes_a_contracting_model_with_a_large_intercept(tmp_path, capsys):
    # kappa = 0.4 at every x: a1 passes however large delta_tilde is (its rounding at 1e4
    # is no Lipschitz violation)
    model = dict(BENCH)
    model["link"] = dict(BENCH["link"], delta_tilde={"kind": "constant", "value": 1e4, "nonnegative": True})
    man = write_manifest(tmp_path, "m.json", {"command": "verify", "model": model, "params": {}, "seed": 3})
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["overall"] == report["a1"]["verdict"] == "pass"
    assert capsys.readouterr().out.startswith("verify: pass")


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


@pytest.mark.parametrize("text, message", [
    ("{", "manifest is not valid JSON"),
    ("[1]", "manifest must be a JSON object"),
    ('{"command": "simulate", "seed": 1}', "manifest needs a 'model' object"),
    (json.dumps({"command": "simulate", "model": BENCH, "params": [1], "seed": 1}), "'params' must be an object"),
    (json.dumps({"command": "simulate", "model": BENCH, "params": {"s0": 0.0}, "seed": 1}),
     "missing params for simulate: ['t_min', 't_max']"),
], ids=["invalid-json", "not-an-object", "no-model", "params-not-an-object", "missing-params"])
def test_refused_manifest_is_one_manifest_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["--manifest", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"manifest error: {message}") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("case, message", [
    ("directory", "manifest is a directory"),
    ("under_a_file", "manifest cannot be read"),
    ("not_utf8", "manifest is not UTF-8 text"),
    ("nested", "manifest is nested too deeply"),
])
def test_unreadable_manifest_is_manifest_error(tmp_path, capsys, case, message):
    # IsADirectoryError, another OSError (NotADirectoryError here), a UnicodeDecodeError
    # and the RecursionError of json.loads
    (tmp_path / "f.json").write_bytes(b"\xff\xfe")
    (tmp_path / "n.json").write_text("[" * 100_000, encoding="utf-8")
    path = {"directory": tmp_path, "under_a_file": tmp_path / "f.json" / "m.json",
            "not_utf8": tmp_path / "f.json", "nested": tmp_path / "n.json"}[case]
    assert cli.main(["--manifest", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"manifest error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("case, reason", [("a_file", "File exists"), ("under_a_file", "Not a directory")])
def test_unusable_output_directory_is_manifest_error(tmp_path, capsys, case, reason):
    # FileExistsError and NotADirectoryError of mkdir: one line naming the path and the reason
    man = write_manifest(tmp_path, "m.json", simulate_manifest())
    out = {"a_file": man, "under_a_file": man / "sub"}[case]
    assert cli.main(["--manifest", str(man), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"manifest error: output directory {out} cannot be made: {reason}\n"


# kernel numbers whose phi rate or moment constant divides by zero, overflows or is
# infinite, or that int(r) cannot take, run through verify, which reads both; order 2 and
# floor 1 make the GARCH models well formed apart from c_minus
_GARCH_LINK = {**BENCH["link"], "order": 2, "floor": 1.0}
_EDGE_KERNELS = {
    **{f"c_minus_{c}": ({"family": "garch_gaussian", "c_minus": float(c)}, _GARCH_LINK)
       for c in ("5e-324", "1e-300", "1e-215", "1e206", "inf")},
    **{f"{name}_{v}": ({"family": "location", "noise": {"name": noise, name: float(v)}}, BENCH["link"])
       for noise, name, v in (("gaussian", "sigma", "1e-163"), ("gaussian", "sigma", "inf"),
                              ("laplace", "b", "inf"), ("student_t", "nu", "inf"))},
    "r_inf": ({"family": "negbinomial", "r": float("inf")}, BENCH["link"]),
}


@pytest.mark.parametrize("breakage", ["missing_link", "unknown_family", "nan_sigma", "inf_uniform",
                                      "nan_point", "empty_constant", "nan_markov_state", "ragged_markov_states",
                                      "wide_uniform", "wide_gaussian", "wide_ar1", "alpha", *_EDGE_KERNELS])
def test_malformed_model_is_manifest_error(tmp_path, capsys, breakage):
    model, manifest = dict(BENCH), simulate_manifest()
    if breakage == "missing_link":
        del model["link"]
    elif breakage == "unknown_family":
        model["kernel"] = {"family": "no_such_family"}
    elif breakage == "alpha":  # a model key nothing reads is refused, not ignored
        model["alpha"] = 1.0
    elif breakage in _EDGE_KERNELS:
        model["kernel"], model["link"] = _EDGE_KERNELS[breakage]
        manifest.update(command="verify", params={"mc_n": 1000, "grid_size": 60})
    else:
        # json writes and reads NaN and Infinity; such a spec must not reach the recursion
        model["covariates"] = {
            "nan_sigma": {"kind": "iid", "marginal": {"name": "gaussian", "mu": 0.0, "sigma": float("nan")}},
            "inf_uniform": {"kind": "ar1", "a": 0.5, "noise": {"name": "uniform", "a": -float("inf"), "b": 1.0}},
            "nan_point": {"kind": "iid", "marginal": {"name": "point", "value": float("nan")}},
            "empty_constant": {"kind": "constant", "value": []},
            "nan_markov_state": {"kind": "finite_markov", "states": [[0.0], [float("nan")]],
                                 "transition": [[0.5, 0.5], [0.5, 0.5]]},
            "ragged_markov_states": {"kind": "finite_markov", "states": [[0.0], [1.0, 2.0]],
                                     "transition": [[0.5, 0.5], [0.5, 0.5]]},
            # finite parameters whose draws overflow float64
            "wide_uniform": {"kind": "iid", "marginal": {"name": "uniform", "a": -1e308, "b": 1e308}},
            "wide_gaussian": {"kind": "iid", "marginal": {"name": "gaussian", "mu": 0.0, "sigma": 1e308}},
            # draws that fit, on a path that grows them by 1 / (1 - a) = 10
            "wide_ar1": {"kind": "ar1", "a": 0.9, "noise": {"name": "uniform", "a": -8e307, "b": 8e307}},
        }[breakage]
    man = write_manifest(tmp_path, "m.json", {**manifest, "model": model})
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


def test_readme_param_table_is_the_cli_spec():
    # each row of README's per-command table names exactly the command's params, and a
    # number in parentheses is the command's default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Per-command parameters", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0].startswith("`"):
            rows[cells[0].strip("`")] = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", cells[1])
    assert sorted(rows) == sorted(cli._PARAM_SPEC)
    for cmd, params in rows.items():
        spec = cli._PARAM_SPEC[cmd]
        assert [name for name, _ in params] == spec["required"] + list(spec["optional"]), cmd
        for name, shown in params:
            default = spec["optional"].get(name)
            if isinstance(default, (int, float)):
                assert float(shown) == default, (cmd, name)
            else:
                assert not re.fullmatch(r"[-+.\de]+", shown), (cmd, name)


MULTINOMIAL = od.ModelSpec(
    od.Multinomial(3), od.LinearLink(od.ConstantMap(0.5, True), od.CategoryTable(((0.2, 0.1, 0.0), (0.0, 0.1, 0.2))),
                                     od.ConstantMap(0.0), 1), od.Constant((1.0,))).to_dict()


@pytest.mark.parametrize("model, norm", [(MULTINOMIAL, "abs"), (BENCH, "inf")], ids=["multinomial-abs", "scalar-inf"])
def test_norm_other_than_the_kernel_state_norm_is_manifest_error(tmp_path, capsys, model, norm):
    # the state norm follows the kernel; a manifest may only restate it
    s0 = [0.0, 0.0] if model is MULTINOMIAL else 0.0
    for given in (norm, model["norm"], None):
        m = dict(model, norm=given)
        if given is None:
            del m["norm"]
        man = write_manifest(tmp_path, "m.json", simulate_manifest(model=m, params={"s0": s0, "t_min": 0, "t_max": 9}))
        rc = cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")])
        assert rc == (1 if given == norm else 0)
        if given == norm:
            err = capsys.readouterr().err
            assert err.startswith("manifest error: ") and f"norm {norm!r} does not match" in err


@pytest.mark.parametrize("command, params, message", [
    ("backward", {"s0": 0.0, "n": 50, "replicas": 20}, "backward_measure needs replicas >= 100"),
    ("verify", {"mc_n": 1000, "grid_size": 60, "oracle_tol": 1e-7}, "unknown params for verify: ['oracle_tol']"),
    ("verify", {"mc_n": 1000, "lipschitz_n": 1000}, "unknown params for verify: ['lipschitz_n']"),
    ("stationary", {"tol": -1.0, "max_n": 100, "replicas": 200}, "tol must be positive"),
    ("diagnose", {"length": 600, "H": 0}, "need 1 <= h <= H"),
    ("diagnose", {"length": 600, "H": -3}, "need 1 <= h <= H"),
], ids=["backward-replicas", "verify-oracle_tol", "verify-lipschitz_n", "stationary-tol", "diagnose-H0",
        "diagnose-H-3"])
def test_param_out_of_range_is_manifest_error(tmp_path, capsys, command, params, message):
    man = write_manifest(tmp_path, "m.json", {"command": command, "model": BENCH,
                                              "params": params, "seed": 3})
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"manifest error: {message}")


@pytest.mark.parametrize("command, model, params, message", [
    ("simulate", BENCH, {"s0": [1.0, 2.0], "t_min": 0, "t_max": 9}, "initial state must be a number"),
    ("simulate", MULTINOMIAL, {"s0": [0.0, 0.0, 0.0], "t_min": 0, "t_max": 9}, "initial state must be 2 numbers"),
    ("couple", BENCH, {"s0": 0.0, "s0_prime": [1.0, 2.0], "horizon": 10}, "initial state (prime) must be a number"),
    ("backward", BENCH, {"s0": [1.0, 2.0], "n": 10, "replicas": 100}, "start state must be a number"),
    ("stationary", BENCH, {"s0": [1.0, 2.0], "max_n": 50, "replicas": 100}, "start state must be a number"),
    ("stationary", BENCH, {"tol": float("nan"), "max_n": 50, "replicas": 100}, "tol must be positive"),
    ("simulate", BENCH, {"s0": 10**400, "t_min": 0, "t_max": 9}, "initial state must be a number"),
], ids=["simulate-list", "simulate-multinomial-length", "couple-list", "backward-list", "stationary-list",
        "stationary-nan-tol", "simulate-int-past-floats"])
def test_edge_manifest_is_manifest_error(tmp_path, capsys, command, model, params, message):
    # a start state of the wrong shape or past the floats and a NaN tol end in a manifest
    # error, not a traceback
    man = write_manifest(tmp_path, "m.json", {"command": command, "model": model, "params": params, "seed": 3})
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"manifest error: {message}") and "Traceback" not in err


def test_overflow_in_the_first_run_still_raises(tmp_path, capsys):
    # run_manifest raises the model error; cli.main reports it and exits 4
    bad_model = dict(BENCH)
    bad_model["link"] = dict(BENCH["link"])
    bad_model["link"]["kappa"] = {"kind": "constant", "value": 1e20, "nonnegative": True}
    man = write_manifest(tmp_path, "m.json", {
        "command": "stationary", "model": bad_model,
        "params": {"tol": 0.01, "max_n": 100, "replicas": 100}, "seed": 3,
    })
    with pytest.raises(StateOverflow):
        cli.run_manifest(cli.load_manifest(man), tmp_path / "o")
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("model error: backward step t=")


@pytest.mark.parametrize("model, err", [
    # criterion 9's kappa = 1.1 model overflows in simulate's glued chain
    (divergent_model(), "model error: step t=3214: state overflowed float64 (t=3214, replica=None, state=inf, y="),
    # an intercept of -2 and no floor leaves the Poisson domain at once
    (od.ModelSpec(od.Poisson(), od.LinearLink(od.ConstantMap(0.4), od.ConstantMap(0.3), od.ConstantMap(-2.0), 1),
                  od.IID(od.Uniform(0.0, 1.0))),
     "model error: step t=0: state left the poisson domain (t=0, replica=None, state=-2.0, y=0)\n"),
], ids=["overflow", "domain"])
def test_runtime_model_errors_exit_4(tmp_path, capsys, model, err):
    man = write_manifest(tmp_path, "m.json", simulate_manifest(model=model.to_dict(), seed=1,
                                                             params={"s0": 0.0, "t_min": 0, "t_max": 9000}))
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 4
    got = capsys.readouterr()
    assert got.err.startswith(err) and "Traceback" not in got.err and got.out == ""


_PAST_MEMORY = """
import contextlib, io, json, resource, sys
limit = 3 * 2**28  # 768 MiB of address space: every case below asks for more
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from obsdriven import cli
for manifest in sys.argv[2:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--manifest", manifest, "--out", sys.argv[1]])
    print(json.dumps([code, err.getvalue()]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_size_params_past_memory_are_manifest_errors(tmp_path):
    # numpy refuses these sizes as ValueError (past the addressable size) or MemoryError; each
    # escaped cli.main as a traceback before.  One process under an address-space limit runs all
    # of them, so none can take the machine's memory
    cases = [
        ("simulate", {"s0": 0.0, "t_min": 0, "t_max": 2**62}, "Maximum allowed dimension exceeded"),
        ("backward", {"s0": 0.0, "n": 2**62}, "Maximum allowed dimension exceeded"),
        ("diagnose", {"length": 2**62}, "Maximum allowed dimension exceeded"),
        ("backward", {"s0": 0.0, "n": 10, "replicas": 10**12}, "Unable to allocate"),
        ("stationary", {"replicas": 10**12}, "Unable to allocate"),
        ("verify", {"mc_n": 10**13}, "Unable to allocate"),
        ("verify", {"grid_size": 10**9}, ""),
    ]
    mans = [str(write_manifest(tmp_path, f"m{i}.json", {"command": c, "model": BENCH, "params": p, "seed": 1}))
            for i, (c, p, _) in enumerate(cases)]
    env = {**os.environ, "PYTHONPATH": str(Path(od.__file__).resolve().parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PAST_MEMORY, str(tmp_path / "o"), *mans],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    for (command, params, detail), line in zip(cases, out.stdout.splitlines(), strict=True):
        code, err = json.loads(line)
        assert code == 1 and err.count("\n") == 1 and "Traceback" not in err, (command, params, err)
        assert err.startswith(f"manifest error: the {command} params need more memory than there is: {detail}"), err


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


@pytest.mark.parametrize("given", [{"h": 4, "H": 30, "C": 8.0}, {"h": 4}], ids=["h-H-C", "h"])
def test_diagnose_takes_the_given_constants(tmp_path, given):
    # the statistics are those of the given h (the calibration picks h = 1 on this path), and
    # the replay holds the given constants, with the default H = 50 and the calibrated C
    man = write_manifest(tmp_path, "m.json", {"command": "diagnose", "model": BENCH,
                                              "params": {"length": 600, **given}, "seed": 3})
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 0
    replay = json.loads((tmp_path / "o" / "replay.json").read_text())["params"]
    assert {k: replay[k] for k in given} == given and replay["H"] == given.get("H", 50)
    model = od.model_from_dict(BENCH)
    path = od.generate_path(model.covariates, 0, 599, od.split_seed(3, engine._SEED_ENV))
    want = io.StringIO()
    od.w_stats(model, path, 4, replay["H"]).to_csv(want)
    assert (tmp_path / "o" / "wstats.csv").read_bytes() == want.getvalue().encode()
    regen = json.loads((tmp_path / "o" / "regeneration.json").read_text())
    assert (regen["h"], regen["C"]) == (4, replay["C"])


MULTINOMIAL2 = od.ModelSpec(
    od.Multinomial(2), od.LinearLink(od.AffineAbsMap(0.2, (0.5,), True), od.CategoryTable(((0.6, -0.3),)),
                                     od.ConstantMap(0.1), 1), od.IID(od.Uniform(0.0, 1.0))).to_dict()


def test_two_category_multinomial_runs_every_command_from_vector_starts(tmp_path, capsys):
    # N = 2 categories: the state is a vector of N - 1 = 1 number, in the sup norm
    params = {"simulate": {"s0": [0.0], "t_min": 0, "t_max": 199},
              "couple": {"s0": [-0.0], "s0_prime": [1.5], "horizon": 200},
              "backward": {"s0": [0.5], "n": 50, "replicas": 200},
              "stationary": {"s0": [0.0], "max_n": 100, "replicas": 200},
              "verify": {"mc_n": 2000, "grid_size": 60},
              "diagnose": {"length": 600}}
    for cmd, p in params.items():
        raw = {"command": cmd, "model": MULTINOMIAL2, "params": p, "seed": 3}
        assert cli.run_manifest(cli.validate_manifest(raw), tmp_path / cmd)[0] == 0, cmd
    assert MULTINOMIAL2["norm"] == "inf"
    assert json.loads((tmp_path / "backward" / "backward.json").read_text())["start_state"] == [0.5]
    assert json.loads((tmp_path / "verify" / "report.json").read_text())["a2"]["case"] == "categorical"
    # a scalar start is refused as the wrong shape
    man = write_manifest(tmp_path, "m.json", simulate_manifest(model=MULTINOMIAL2,
                                                             params={"s0": 0.0, "t_min": 0, "t_max": 9}))
    assert cli.main(["--manifest", str(man), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("manifest error: initial state must be 1 numbers")


def test_console_entry_point_runs(tmp_path):
    man = write_manifest(tmp_path, "m.json", simulate_manifest(params={"s0": 0.0, "t_min": 0, "t_max": 20}))
    # the package this suite imports, installed or not
    src = str(Path(od.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "obsdriven.cli", "--manifest", str(man),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert "simulate:" in out.stdout


_IMPORT_GUARD = r"""
import sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
HEAVY = ("scipy.stats", "scipy.signal", "scipy.optimize")
import obsdriven as od
from obsdriven import cli
assert not [m for m in HEAVY if m in sys.modules], "import obsdriven"
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import obsdriven loaded scipy"
CM, U01 = od.ConstantMap, od.IID(od.Uniform(0.0, 1.0))
models = [
    od.ModelSpec(od.Poisson(), od.LinearLink(CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True),
                                             CM(1.0, True), order=1, floor=0.0), U01),
    od.ModelSpec(od.BernoulliLogit(), od.LinearLink(CM(0.5), od.AffineAbsMap(0.0, (0.8,), True),
                                                    CM(-0.2), order=1), U01),
    od.ModelSpec(od.GarchGaussian(1.0), od.LinearLink(CM(0.3, True), od.AffineAbsMap(0.1, (0.2,), True),
                                                      CM(1.0, True), order=2, floor=1.0), U01),
    od.ModelSpec(od.Location(od.GaussianNoise(1.0)), od.LinearLink(CM(0.5), CM(0.3), CM(0.0), order=1), U01),
]
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "building the models loaded scipy"
params = {
    "simulate": lambda s0: {"s0": s0, "t_min": 0, "t_max": 199},
    "couple": lambda s0: {"s0": s0, "s0_prime": s0 + 10.0, "horizon": 100},
    "stationary": lambda s0: {},
    "verify": lambda s0: {},
    "diagnose": lambda s0: {"length": 500},
}
with tempfile.TemporaryDirectory() as tmp:
    # scipy.special loads on first use: Poisson, GARCH and loc-ar chains never use it, a logit step
    # does, and logit backward draws only within 1e-12 of their threshold
    for i, cmd in ((0, "simulate"), (0, "couple"), (2, "simulate"), (3, "simulate"), (3, "couple"),
                   (1, "stationary"), (1, "simulate")):
        raw = {"command": cmd, "model": models[i].to_dict(), "params": params[cmd](models[i].start_state()), "seed": 3}
        cli.run_manifest(cli.validate_manifest(raw), Path(tmp) / f"lazy-{i}-{cmd}")
        assert ("scipy.special" in sys.modules) == ((i, cmd) == (1, "simulate")), f"{cmd} on {type(models[i].kernel).__name__}"
    for i, model in enumerate(models):
        for cmd, make in params.items():
            raw = {"command": cmd, "model": model.to_dict(), "params": make(model.start_state()), "seed": 3}
            cli.run_manifest(cli.validate_manifest(raw), Path(tmp) / f"{i}-{cmd}")
            loaded = [m for m in HEAVY if m in sys.modules]
            assert not loaded, f"{cmd} on {type(model.kernel).__name__} loaded {loaded}"
# Poisson draws the summed cdf cannot certify: in the tails, at large means and from 2**52
od.Poisson().sample_inverse([3.0, 3.0, 2e6, 6.9e9, 1e12, 1e20], [1e-13, 1.0 - 1e-13, 0.5, 0.9999981, 0.3, 0.7])
assert not [m for m in HEAVY if m in sys.modules], "an uncertified Poisson draw"
# the negative binomial quantile near 0, 1/2 and 1, and its closed-form TV oracle
od.NegBinomial(3).sample_inverse([5.0, 5.0, 5.0, 1e6], [2.0**-54, 0.5, 1.0 - 2.0**-53, 0.3])
od.NegBinomial(3).tv_exact(1.0, 2.0)
assert not [m for m in HEAVY if m in sys.modules], "NegBinomial"
print("ok")
"""


def test_import_and_benchmark_manifests_leave_heavy_scipy_unloaded():
    # a fresh interpreter: this one has scipy.stats from the tests' imports
    src = str(Path(od.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, src],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "ok"


_SPECIAL_ENTRY_POINTS = r"""
import numpy as np
import obsdriven as od

u = [2.0**-54, 0.1, 0.5, 0.9, 1.0 - 2.0**-53]
CALLS = {
    "gaussian iid path": lambda: od.generate_path(od.IID(od.Gaussian(1.0, 2.0), 2), -3, 5, 11).values,
    "gaussian ar1 path": lambda: od.generate_path(od.AR1(0.6, od.Gaussian(0.5, 1.5)), -3, 5, 11).values,
    "gaussian ar1 draws": lambda: od.stationary_draws(od.AR1(0.6, od.Gaussian(0.5, 1.5)), 6, 11),
    "GaussianNoise.ppf": lambda: od.GaussianNoise(1.5).ppf(np.array(u)),
    "BernoulliLogit.sample_inverse": lambda: od.BernoulliLogit().sample_inverse([-1.0, 0.3, 2.0], [0.2, 0.5, 0.9]),
    "BernoulliProbit.sample_inverse": lambda: od.BernoulliProbit().sample_inverse([-1.0, 0.3, 2.0], [0.2, 0.5, 0.9]),
    "Poisson uncertified draws": lambda: od.Poisson().sample_inverse(
        [3.0, 3.0, 2e6, 6.9e9, 1e12, 1e20], [1e-13, 1.0 - 1e-13, 0.5, 0.9999981, 0.3, 0.7]),
    "NegBinomial.sample_inverse": lambda: od.NegBinomial(3).sample_inverse(
        [5.0, 5.0, 5.0, 1e6, 1e18], [2.0**-54, 0.5, 1.0 - 2.0**-53, 0.3, 0.6]),
    "NegBinomial.tv_exact": lambda: od.NegBinomial(3).tv_exact(1.0, 2.0),
    "StudentTNoise.ppf": lambda: od.StudentTNoise(3.0).ppf(np.array(u)),
    "StudentTNoise.tv": lambda: od.StudentTNoise(3.0).tv(0.7),
    "StudentTNoise.pdf": lambda: od.StudentTNoise(3.0).pdf(np.array([-2.0, 0.0, 1.5])),
}
KERNELS = [od.Poisson(), od.NegBinomial(3), od.BernoulliLogit(), od.BernoulliProbit(), od.Multinomial(3),
           od.GarchGaussian(1.0), od.Location(od.GaussianNoise(1.5)), od.Location(od.LaplaceNoise(0.5)),
           od.Location(od.StudentTNoise(4.0))]
CALLS.update({f"{type(k).__name__}({k.to_dict()}).phi": k.phi for k in KERNELS})


def values(before_each=lambda: None):
    out = {}
    for name, call in CALLS.items():
        before_each()
        out[name] = repr(call())
    return out
"""

_SPECIAL_FRESH = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
from obsdriven import _special
assert "scipy.special" not in sys.modules, "scipy.special loaded before the first call"


def forget():
    # every call takes the first-use path: the lazily stored names go
    for name in [n for n in vars(_special) if not n.startswith("_")]:
        del vars(_special)[name]


out = values(forget)
assert "scipy.special" in sys.modules
print(json.dumps(out))
"""


def test_special_entry_points_on_first_use_match_this_process():
    # each entry point backed by scipy.special, called in a fresh interpreter where the
    # lazy handle has stored no name, returns what this process (scipy already loaded) does
    ns = {}
    exec(_SPECIAL_ENTRY_POINTS, ns)
    src = str(Path(od.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _SPECIAL_FRESH, src, _SPECIAL_ENTRY_POINTS],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    fresh = json.loads(out.stdout.strip().splitlines()[-1])
    assert fresh == ns["values"]()
