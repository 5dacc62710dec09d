"""Tests of the benchmark's own arithmetic: span self time, the tail rule and
the failure gate.

    python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """A clock that moves only when ticked."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    mod = types.SimpleNamespace()
    mod.leaf = lambda dt: clock.tick(dt)

    def middle():
        clock.tick(1.0)
        mod.leaf(2.0)
        clock.tick(0.5)
        mod.leaf(3.0)

    def outer():
        clock.tick(4.0)
        mod.middle()
        mod.leaf(0.25)

    mod.middle, mod.outer = middle, outer
    for name in ("leaf", "middle", "outer"):
        tracer.wrap(mod, name, f"x.{name}")
    mod.outer()
    got = tracer.summary(["x.outer", "x.middle", "x.leaf", "x.never"])

    assert got["x.outer.busy_s"] == 10.75
    assert got["x.outer.self_s"] == 4.0
    assert got["x.middle.busy_s"] == 6.5
    assert got["x.middle.self_s"] == 1.5
    assert got["x.leaf.calls"] == 3
    assert got["x.leaf.busy_s"] == got["x.leaf.self_s"] == 5.25
    assert got["x.never.calls"] == got["x.never.busy_s"] == 0.0
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]


def test_recursion_is_busy_once_and_errors_are_counted():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    mod = types.SimpleNamespace()

    def rec(depth):
        clock.tick(1.0)
        if depth:
            mod.rec(depth - 1)
        else:
            raise ZeroDivisionError

    mod.rec = rec
    tracer.wrap(mod, "rec", "x.rec")
    with pytest.raises(ZeroDivisionError):
        mod.rec(2)
    got = tracer.summary(["x.rec"])
    assert got["x.rec.calls"] == 3
    assert got["x.rec.busy_s"] == 3.0
    assert got["x.rec.self_s"] == 3.0
    assert got["x.rec.errors"] == 3
    assert tracer.error_types[("x.rec", "ZeroDivisionError")] == 3


def test_uninstall_restores_the_originals():
    class K:
        def sample(self):
            return 7

    original = K.__dict__["sample"]
    tracer = spans.Tracer()
    tracer.wrap(K, "sample", "k.sample", ("draws", lambda args, out: out))
    assert K().sample() == 7
    assert tracer.counts["k.sample.draws"] == 7
    tracer.uninstall()
    assert K.__dict__["sample"] is original


@pytest.mark.parametrize("n, index", [
    (100, 89),   # p90: 10 samples above the 90th value
    (11, 0),     # exactly 10 beyond the lowest sample
    (20, 9),
    (5, 0),      # too few: the lowest sample
    (1, 0),
])
def test_tail_index_leaves_ten_samples_beyond(n, index):
    assert run.tail_index(n) == index
    samples = sorted(float(i) for i in range(n))
    beyond = sum(s > samples[index] for s in samples)
    assert beyond >= min(10, n - 1)


def test_task_tail_metric_on_synthetic_samples():
    latencies = [0.001 * i for i in range(1, 51)]  # 1..50 ms
    results = [types.SimpleNamespace(error=None)] * 4 + [types.SimpleNamespace(error="ZeroDivisionError")]
    m = run.end_to_end([(1.0, 1.0), (3.0, 1.0), (2.0, 1.0)], latencies, results)
    assert m["task_tail_ms"] == pytest.approx(40.0)  # p80 of 50: ten tasks are slower
    assert m["task_p50_ms"] == pytest.approx(25.5)
    assert m["setup_s"] == 2.0
    assert m["ok_share"] == pytest.approx(0.8)
    assert m["tasks_per_s"] == pytest.approx(50 / sum(latencies))


def test_setup_times_are_scaled_by_their_own_slowdown():
    results = [types.SimpleNamespace(error=None)]
    m = run.end_to_end([(3.0, 2.0), (1.0, 1.0), (2.0, 0.5)], [0.010], results)
    assert m["setup_s"] == 1.5  # median of 1.5, 1.0 and 4.0


def test_only_the_known_defect_is_tolerated_in_the_probe():
    def op(name, error):
        return types.SimpleNamespace(name=name, error=error)

    known = op("garch/couple", "ZeroDivisionError")
    assert run.unexpected_failures([op("garch/couple", None), known]) == []
    for bad in (op("garch/couple", "ValueError"), op("garch/couple", "CheckFailed")):
        assert run.unexpected_failures([known, bad]) == [bad]


def test_chains_leaves_the_known_defect_to_the_probe():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    names = [op.name for op in workloads.build_ops("chains")]
    assert len(names) == 7 and run.DEFECT[0] not in names
    assert workloads.defect_probe().name == run.DEFECT[0]
