"""The benchmark's span tracer still finds every library name it wraps."""

import importlib.util
from pathlib import Path

import obsdriven
from obsdriven import cli, covariates, engine, kernels, links, rngstream, verify


def _load_spans():
    """perfbench/spans.py, imported by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_live_modules_and_uninstalls_cleanly():
    spans = _load_spans()
    modules = [obsdriven, cli, covariates, engine, kernels, links, rngstream, verify]
    classes = {c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("obsdriven.")}
    owners = modules + sorted(classes, key=lambda c: c.__qualname__)
    before = {id(o): dict(vars(o)) for o in owners}
    tracer = spans.Tracer()
    try:
        spans.install_obsdriven(tracer)  # an AttributeError here: a wrapped name is gone
        wrapped = list(tracer._wrapped)
        assert wrapped
        for owner, attr, original in wrapped:
            assert id(owner) in before, f"{owner!r} is not a watched owner"
            assert original is before[id(owner)][attr]
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} was not restored"
    for o in owners:
        changed = [k for k, v in before[id(o)].items() if vars(o).get(k) is not v]
        assert not changed, f"{o!r}: {changed} changed"
