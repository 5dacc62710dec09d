"""Span recording around the calls into each obsdriven layer.

The library has no tracing of its own, so spans are recorded from outside:
``install_obsdriven`` replaces each traced function at the point of use (the
modules import names directly, so wrapping ``links.apply`` alone would miss
``engine.link_apply``) and ``Tracer.uninstall`` puts the originals back.  Spans live
in flat in-memory arrays and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable


class Tracer:
    """Records (name, start, end, parent, task, error) for each wrapped call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self.error = array("b")
        self.error_types: Counter = Counter()  # (span name, exception type) -> count
        self.counts: Counter = Counter()       # "span.extra" -> summed count
        self.task_id = -1
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, owner, attr: str, span: str,
             extra: tuple[str, Callable] | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``extra`` is (suffix, fn): ``fn(args, result)`` is added to the
        count ``span.suffix`` after each successful call.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task.append(self.task_id)
            self.error.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self.error[i] = 1
                self.error_types[(span, type(e).__name__)] += 1
                raise
            finally:
                self.end[i] = self.clock()
                self.start[i] = t0
                self._stack.pop()
            if extra is not None:
                self.counts[f"{span}.{extra[0]}"] += extra[1](args, out)
            return out

        setattr(owner, attr, wrapper)
        self._wrapped.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._wrapped:
            owner, attr, fn = self._wrapped.pop()
            setattr(owner, attr, fn)

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays, one entry per span."""
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "task": np.frombuffer(self.task, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def summary(self, spans) -> dict[str, float]:
        """Totals per span name: calls, busy_s, self_s and errors.

        busy_s sums the durations of spans not directly nested in a span of
        the same name, so recursion is not counted twice.  self_s is each
        span's duration minus the durations of its direct children, which
        on one thread are disjoint sub-intervals of it.
        """
        import numpy as np

        a = self.arrays()
        n, k = len(a["start"]), len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        parent = a["parent"][nested]
        child = np.bincount(parent, weights=dur[nested], minlength=n)
        outer = np.ones(n, dtype=bool)
        outer[nested] = a["name"][parent] != a["name"][nested]
        per_name = {
            "calls": np.bincount(a["name"], minlength=k),
            "busy_s": np.bincount(a["name"], weights=dur * outer, minlength=k),
            "self_s": np.bincount(a["name"], weights=dur - child, minlength=k),
            "errors": np.bincount(a["name"], weights=a["error"], minlength=k),
        }
        out = {}
        for s in spans:
            i = self._ids.get(s)
            for key, totals in per_name.items():
                out[f"{s}.{key}"] = 0.0 if i is None else float(totals[i])
        return out

    def dump(self, path: Path) -> None:
        """Write every recorded span to one compressed .npz file."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install_obsdriven(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of obsdriven."""
    import numpy as np
    from obsdriven import cli, covariates, engine, kernels, links, rngstream, verify

    w = tracer.wrap
    w(rngstream.IndexedStream, "uniforms", "rngstream.uniforms",
      ("mbytes", lambda a, out: out.nbytes / 1e6))
    for mod in (covariates, engine, cli):
        w(mod, "generate_path", "covariates.generate_path")
    w(verify, "log_moment_estimate", "covariates.log_moment_estimate")
    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.ObservationKernel):
            if "sample" in cls.__dict__ and cls is not kernels.ObservationKernel:
                w(cls, "sample", "kernels.sample")
            if "sample_inverse" in cls.__dict__ and cls is not kernels.ObservationKernel:
                w(cls, "sample_inverse", "kernels.sample_inverse",
                  ("draws", lambda a, out: int(np.size(out))))
    w(kernels.ObservationKernel, "couple_batch", "kernels.couple_batch")
    w(kernels.ObservationKernel, "tv_exact", "kernels.tv_exact")
    for mod in (engine, verify):
        w(mod, "link_apply", "links.apply")
    w(links, "state_coefficients", "links.state_coefficients")
    for name in ("simulate", "couple_forward", "backward_measure", "coupled_backward_cost", "w_stats"):
        w(engine, name, f"engine.{name}")
    w(engine, "stationary_sampler", "engine.stationary_sampler",
      ("doublings", lambda a, out: len(out.history)))
    w(engine, "wasserstein1", "engine.wasserstein1", ("points", lambda a, out: out.n_used))
    for name in ("check_a1", "check_a2", "check_a3"):
        w(verify, name, f"verify.{name}")
    w(cli, "run_manifest", "cli.run_manifest")


SPANS = (
    "rngstream.uniforms", "covariates.generate_path", "covariates.log_moment_estimate",
    "kernels.sample", "kernels.sample_inverse", "kernels.couple_batch", "kernels.tv_exact",
    "links.apply", "links.state_coefficients",
    "engine.simulate", "engine.couple_forward", "engine.backward_measure",
    "engine.coupled_backward_cost", "engine.stationary_sampler", "engine.wasserstein1",
    "engine.w_stats", "verify.check_a1", "verify.check_a2", "verify.check_a3",
    "cli.run_manifest",
)
EXTRAS = {
    "rngstream.uniforms.mbytes": "MB/task",
    "kernels.sample_inverse.draws": "draws/task",
    "engine.stationary_sampler.doublings": "doublings/task",
    "engine.wasserstein1.points": "points/task",
}
