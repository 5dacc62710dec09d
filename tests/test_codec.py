"""The model format: one reader and writer for every spec class (``obsdriven._codec``)."""

import contextlib
import dataclasses
import io
import json
import math
import re
import types
import typing
from pathlib import Path

import pytest

import obsdriven as od
from obsdriven import _codec, cli
from obsdriven.covariates import MAX_DIMENSION, DerivedMap
from obsdriven.errors import InvalidSpec

from conftest import hypothesis_settings, logit_benchmark, poisson_ingarch_x

CM = od.ConstantMap
U01 = od.IID(od.Uniform(0.0, 1.0))

# the benchmark models, and one model for every other spec class of the format
MODELS = {
    "ingarch-x": poisson_ingarch_x(),
    "logit": logit_benchmark(),
    "garch": od.ModelSpec(od.GarchGaussian(1.0), od.LinearLink(
        CM(0.3, True), od.AffineAbsMap(0.1, (0.2,), True), CM(1.0, True), order=2, floor=1.0), U01),
    "loc-ar": od.ModelSpec(od.Location(od.GaussianNoise(1.0)), od.LinearLink(CM(0.5), CM(0.3), CM(0.0)), U01),
    "threshold": od.ModelSpec(od.BernoulliProbit(), od.ThresholdLink(
        od.RegimeCoefficients(CM(0.3), CM(0.2), CM(0.1)), od.RegimeCoefficients(CM(0.5), CM(0.1), CM(-0.5)),
        od.FixedInterval(0.5, math.inf)), od.IID(od.Gaussian(0.0, 2.0), dimension=2)),
    "arma-like": od.ModelSpec(od.Location(od.LaplaceNoise(2.0)), od.ArmaLikeLink(
        CM(0.5), CM(0.1), od.ExpAffineMap(-1.0, (0.2,))), od.AR1(0.5, od.Gaussian(0.0, 1.0))),
    "ar1": od.ModelSpec(od.Location(od.StudentTNoise(4.0)), od.ThresholdLink(
        od.RegimeCoefficients(CM(0.3), CM(0.2), CM(1.0)), od.RegimeCoefficients(CM(0.5), CM(0.1), CM(0.5)),
        od.CovariateScaled(-1.0, 1.0)), od.AR1(0.3, od.PointMass(0.5), dimension=3)),
    "finite-markov": od.ModelSpec(od.NegBinomial(3), od.LinearLink(
        od.TableMap(((0.0,), (1.0,)), (0.2, 0.4), True), CM(0.3, True), CM(1.0, True), floor=0.0),
        od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.9, 0.1), (0.2, 0.8)))),
    "multinomial": od.ModelSpec(od.Multinomial(3), od.LinearLink(
        CM(0.5), od.CategoryTable(((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))), CM(0.0)), od.Constant((1.0,))),
    "exp-affine": od.ModelSpec(od.Poisson(), od.LinearLink(
        CM(0.4, True), CM(0.3, True), od.ExpAffineMap(0.0, (0.5,)), floor=0.0), U01),
    "table": od.ModelSpec(od.BernoulliLogit(), od.LinearLink(
        od.TableMap(((0.0,), (1.0,)), (0.2, -0.4)), CM(0.3), CM(0.0)),
        od.FiniteStateMarkov(((0.0,), (1.0,)), ((0.5, 0.5), (0.5, 0.5)))),
}


def _children(v):
    return v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()


def _sites(d, path=()):
    """The path of every value in a model dict, objects and arrays included, the root first."""
    yield path
    for k, v in _children(d):
        yield from _sites(v, path + (k,))


def _mutated(d, path, value):
    d = json.loads(json.dumps(d))  # a deep copy; NaN and Infinity survive
    if not path:
        return value
    target = d
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    return d


def _mutations(d, path):
    """What may replace the value at path, each a refusal: NaN, an integer past the float
    range, true (not for a boolean), a string, 1.5 for an integer, or an extra key in an object."""
    old = d
    for k in path:
        old = old[k]
    out = [_mutated(d, path, v) for v in (math.nan, 10**400, "x")]
    if not isinstance(old, bool):
        out.append(_mutated(d, path, True))
    if isinstance(old, int) and not isinstance(old, bool):
        out.append(_mutated(d, path, 1.5))
    if isinstance(old, dict):
        out.append(_mutated(d, path, {**old, "extra": 0.0}))
    return out


def _simulate(out_dir: Path, name: str, model) -> tuple[int, str]:
    """cli.main's exit code and stderr on a short simulate manifest of ``model``."""
    s0 = MODELS[name].start_state()
    params = {"s0": s0.tolist() if hasattr(s0, "tolist") else s0, "t_min": 0, "t_max": 3}
    man = out_dir / "m.json"
    man.write_text(json.dumps({"command": "simulate", "model": model, "params": params, "seed": 1}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--manifest", str(man), "--out", str(out_dir / "o")])
    return code, err.getvalue()


def test_every_model_value_out_of_its_field_is_one_manifest_error(tmp_path_factory):
    hyp, st, settings = hypothesis_settings()
    out_dir = tmp_path_factory.mktemp("codec")
    dicts = {name: m.to_dict() for name, m in MODELS.items()}
    cases = [(name, path) for name, d in dicts.items() for path in _sites(d)]

    @settings
    @hyp.given(st.sampled_from(cases), st.data())
    def run(case, data):
        name, path = case
        code, err = _simulate(out_dir, name, data.draw(st.sampled_from(_mutations(dicts[name], path))))
        assert code == 1 and err.startswith("manifest error: malformed model (InvalidSpec: "), err

    run()


def test_a_count_past_the_dimension_limit_is_one_manifest_error(tmp_path):
    # counts in the float range too large to allocate: refused, not a numpy traceback
    sites = [(name, path) for name, m in MODELS.items() for path in _sites(m.to_dict())
             if path and path[-1] in ("dimension", "n_categories")]
    assert {path[-1] for _, path in sites} == {"dimension", "n_categories"}
    for name, path in sites:
        for count in (MAX_DIMENSION + 1, 2**40, 2**63, 10**300):
            code, err = _simulate(tmp_path, name, _mutated(MODELS[name].to_dict(), path, count))
            assert code == 1 and err.startswith("manifest error: malformed model (InvalidSpec: "), err
    assert od.IID(od.Uniform(0.0, 1.0), MAX_DIMENSION).dimension == MAX_DIMENSION
    assert od.Multinomial(MAX_DIMENSION).state_dim == MAX_DIMENSION - 1


def test_every_model_as_written_runs(tmp_path):
    # the control of the test above
    for name, m in MODELS.items():
        assert _simulate(tmp_path, name, m.to_dict()) == (0, ""), name


def test_a_slope_count_off_the_covariate_dimension_is_one_manifest_error(tmp_path):
    # slopes (0.3, 0.1, 0.2) on a 1-d covariate were summed against x_1, and on a 2-d one
    # escaped as numpy's broadcast error; one slope (common to every coordinate) or one per
    # coordinate runs, in a threshold regime too
    maps = {"affine_abs": {"kind": "affine_abs", "c0": 0.1, "nonnegative": True},
            "exp_affine": {"kind": "exp_affine", "c0": 0.0}}
    sites = [("ingarch-x", ("link", "kappa_tilde"), "affine_abs"), ("exp-affine", ("link", "delta_tilde"), "exp_affine"),
             ("threshold", ("link", "regime_in", "kappa_tilde"), "affine_abs")]
    for name, path, kind in sites:
        for dimension in (1, 2, 3):
            for count in (1, 2, 3):
                model = _mutated(MODELS[name].to_dict(), path, {**maps[kind], "c1": [0.3, 0.1, 0.2][:count]})
                code, err = _simulate(tmp_path, name, _mutated(model, ("covariates", "dimension"), dimension))
                if count in (1, dimension):
                    assert (code, err) == (0, ""), (name, dimension, count)
                else:
                    assert code == 1 and err.startswith("manifest error: malformed model (InvalidSpec: "), err
                    assert f"{count} slopes c1 for a {dimension}-d covariate" in err


def _spec_classes_and_unions(hint, classes, unions):
    """Collect every spec class and every union reachable from ``hint`` through field annotations."""
    if dataclasses.is_dataclass(hint):
        if hint not in classes:
            classes.add(hint)
            hints = typing.get_type_hints(hint)
            for f in dataclasses.fields(hint):
                _spec_classes_and_unions(hints[f.name], classes, unions)
        return
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        unions.append(hint)
    for a in typing.get_args(hint):
        _spec_classes_and_unions(a, classes, unions)


def test_every_union_tells_its_classes_apart_by_one_tag_key():
    classes, unions = set(), []
    _spec_classes_and_unions(od.ModelSpec, classes, unions)
    class_unions = {u for u in unions if any(dataclasses.is_dataclass(m) for m in typing.get_args(u))}
    for u in class_unions:  # every union but float | None
        members = [m for m in typing.get_args(u) if dataclasses.is_dataclass(m)]
        tagged = [m for m in members if hasattr(m, "tag")]
        assert set(members) - set(tagged) <= {DerivedMap}, u  # output only, never read
        assert len({m.tag[0] for m in tagged}) == 1, u
        assert len({m.tag[1] for m in tagged}) == len(tagged), u
    # kernel, noise, link, map, map or category table, interval, covariates, marginal
    assert len(class_unions) == 8


def _specs(obj):
    """obj and every spec object in its fields."""
    yield obj
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        for x in v if isinstance(v, tuple) else (v,):
            if dataclasses.is_dataclass(x):
                yield from _specs(x)


def test_every_spec_class_reads_back_what_it_writes():
    covered = set()
    for m in MODELS.values():
        assert od.model_from_dict(m.to_dict()) == m
        for x in _specs(m):
            assert _codec.from_dict(type(x), _codec.to_dict(x), "x") == x
            covered.add(type(x))
    classes = set()
    _spec_classes_and_unions(od.ModelSpec, classes, [])
    assert classes - covered == {DerivedMap}


def test_the_readme_manifest_model_reads_and_writes_back_unchanged():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    model = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))["model"]
    assert _codec.to_dict(od.model_from_dict(model)) == model


def test_a_key_may_be_left_out_where_the_constructor_has_a_default():
    d = MODELS["loc-ar"].to_dict()
    d["kernel"] = {"family": "location"}
    del d["link"]["order"], d["link"]["floor"], d["covariates"]["marginal"]["a"], d["norm"]
    assert od.model_from_dict(d) == MODELS["loc-ar"]
    assert od.model_from_dict({**d, "kernel": {"family": "negbinomial"}}).kernel == od.NegBinomial(1)
    d["link"]["kappa"] = {"kind": "constant"}
    with pytest.raises(InvalidSpec, match=r"^model\.link\.kappa\.value: missing$"):
        od.model_from_dict(d)


def test_a_refusal_names_the_path_to_the_value():
    d = MODELS["threshold"].to_dict()
    d["link"]["regime_out"]["gamma"]["value"] = math.nan
    cases = {
        "model.link.regime_out.gamma.value: expected a number, not NaN, got nan": d,
        "model.covariates.dimension: expected an integer, got 2.0":
            _mutated(MODELS["threshold"].to_dict(), ("covariates", "dimension"), 2.0),
        "model.link.order: expected an integer, got 1.0": _mutated(MODELS["logit"].to_dict(), ("link", "order"), 1.0),
        "model.kernel.noise: unknown noise keys: ['extra']":
            _mutated(MODELS["loc-ar"].to_dict(), ("kernel", "noise"), {"name": "gaussian", "extra": 1}),
    }
    for message, model in cases.items():
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            od.model_from_dict(model)
