"""obsdriven benchmark: one closed-loop client, in-process, for a fixed time.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 30 --trace 0

Builds the workload's models and manifests from the checkout's ``src``,
runs one warm-up task, then runs tasks back to back until ``--seconds`` have
passed.  Task k uses the seed ``split_seed(seed, k)``; the warm-up repeats
task 0, and its output bytes must equal those of the timed task 0.

``--trace 0`` reports the end-to-end metrics, with timings scaled to a
reference machine speed (see speed.py).  ``--trace 1`` runs each task
twice, untraced and then traced, and reports per-layer span totals per
traced task, the tracing overhead (traced over untraced wall time), the
unscaled timings as ``raw.*`` and the machine's median slowdown.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance, failure attribution and every metric with its unit.

No op of a workload is expected to fail.  The known GARCH coupling defect is
measured apart from the workloads, after the tasks of a traced run: the
probe runs the ``garch`` ``couple`` op with PROBES seeds, prints its failures
and the spans they passed through, and reports the share that raised as
``defect.garch_couple.raised``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 4  # fresh interpreters timing set-up, besides this process
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# The one failure the defect probe may show: the GARCH coupling divides by
# zero when the two states are adjacent floats.  Any other failure of the
# probe, and any failed op of a workload, marks the run's output as incorrect.
DEFECT = ("garch/couple", "ZeroDivisionError")
PROBES = 20  # seeds the defect probe runs with

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
RAW = ("setup_s", "tasks_per_s", "task_p50_ms", "task_tail_ms")  # timings also reported unscaled


def tail_index(n: int) -> int:
    """0-based index, in ascending order, of the highest percentile that has
    at least TAIL_BEYOND samples beyond it; the lowest sample when n is
    too small to leave that many."""
    return max(n - TAIL_BEYOND - 1, 0)


def setup(workload: str):
    """Import obsdriven from this checkout and build the workload's ops."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import obsdriven

    src = Path(obsdriven.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise ImportError(f"obsdriven imported from {src}, not from {ROOT / 'src'}")
    import workloads

    ops = workloads.build_ops(workload)
    return time.perf_counter() - t0, ops


def setup_speed() -> float:
    """Speed factor measured right after set-up, in the same interpreter."""
    import speed

    speed.sample(1)  # first call pays lazy imports
    return speed.factor(speed.sample())


def probe_setup(workload: str) -> tuple[float, float]:
    """(set-up time, speed factor) measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "seed": seed,
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Digest of the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(ops, seed: int, seconds: float, traced: bool, work: Path):
    """Warm up, then run tasks until the deadline.

    A task's latency is the sum of its ops' execution times.  Untraced tasks
    time the speed reference once after every op; the task's slowdown is
    derived from those timings.  Returns (latencies, slowdowns, traced
    latencies, op results, determinism mismatches, tracer or None).
    """
    import speed
    from obsdriven import split_seed
    from workloads import run_task

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    reference = [r.digest for r in run_task(ops, split_seed(seed, 0), work)]
    latencies, slowdowns, traced_latencies, results, mismatches = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        task_seed = split_seed(seed, k)
        reference_times: list[float] = []
        res = run_task(ops, task_seed, work, lambda: reference_times.extend(speed.sample(1)))
        latencies.append(sum(r.seconds for r in res))
        slowdowns.append(speed.factor(reference_times))
        results += res
        if k == 0:
            mismatches += [r.name for r, d in zip(res, reference) if r.digest != d]
        if tracer is not None:
            tracer.task_id = k
            spans.install_obsdriven(tracer)
            try:
                res_t = run_task(ops, task_seed, work)
            finally:
                tracer.uninstall()
            traced_latencies.append(sum(r.seconds for r in res_t))
            results += res_t
            mismatches += [f"{r.name} (traced)" for r, u in zip(res_t, res) if r.digest != u.digest]
        k += 1
    return latencies, slowdowns, traced_latencies, results, mismatches, tracer


def end_to_end(setups, latencies, results) -> dict[str, float]:
    """The end-to-end metrics from (set-up time, slowdown) pairs, task
    latencies and op results; set-up times are divided by their slowdown."""
    failed = sum(r.error is not None for r in results)
    ordered = sorted(latencies)
    return {
        "setup_s": statistics.median(t / f for t, f in setups),
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * ordered[tail_index(len(ordered))],
        "ok_share": 1.0 - failed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, latencies, traced_latencies) -> dict[str, tuple[float, str]]:
    import spans

    tasks = len(traced_latencies)
    units = {"calls": "calls/task", "busy_s": "s/task", "self_s": "s/task", "errors": "errors/task"}
    out = {}
    for name, value in tracer.summary(spans.SPANS).items():
        out[name] = (value / tasks, units[name.rsplit(".", 1)[1]])
    for name, unit in spans.EXTRAS.items():
        out[name] = (tracer.counts[name] / tasks, unit)
    out["trace.overhead"] = (sum(traced_latencies) / sum(latencies), "ratio")
    return out


def probe_defect(seed: int, work: Path):
    """Run the known-defect op with PROBES seeds under a tracer of its own,
    which counts the spans it raises through.  Returns (results, tracer)."""
    import spans
    from obsdriven import split_seed
    from workloads import defect_probe, run_task

    op = defect_probe()
    tracer = spans.Tracer()
    spans.install_obsdriven(tracer)
    try:
        results = [r for k in range(PROBES) for r in run_task([op], split_seed(seed, k), work)]
    finally:
        tracer.uninstall()
    return results, tracer


def unexpected_failures(probe_results) -> list:
    """Failed probe runs other than the known defect."""
    return [r for r in probe_results if r.error is not None and (r.name, r.error) != DEFECT]


def failure_lines(results, tracer, prefix: str = "failed") -> list[str]:
    """Failed ops by op and exception type, with the first message of each."""
    per_op = Counter(r.name for r in results)
    counts = Counter((r.name, r.error) for r in results if r.error is not None)
    first = {}
    for r in results:
        if r.error is not None:
            first.setdefault((r.name, r.error), r.detail)
    lines = [f"{prefix} {n}/{per_op[name]} of {name}: {err} ({first[(name, err)]})"
             for (name, err), n in sorted(counts.items())]
    if tracer is not None:
        lines += [f"{prefix} span {span} errors: {n} x {err}"
                  for (span, err), n in sorted(tracer.error_types.items())]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        setup_time, ops = setup(args.workload)
    except (ImportError, ValueError) as e:
        print(f"perfbench: cannot set up {args.workload!r}: {e}", file=sys.stderr)
        return 2
    setups = [(setup_time, setup_speed())]
    if args.setup_probe:
        print(json.dumps(setups[0]))
        return 0

    setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"work-{os.getpid()}"
    try:
        latencies, slowdowns, traced_latencies, results, mismatches, tracer = measure(
            ops, args.seed, args.seconds, bool(args.trace), work)
        probe_results, probe_tracer = probe_defect(args.seed, work) if args.trace else ([], None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {len(latencies)} tasks of {len(ops)} ops, "
          f"{len(results)} ops attempted")
    for line in failure_lines(results, tracer):
        print(line)
    for name in mismatches:
        print(f"nondeterministic output: {name}")
    for line in failure_lines(probe_results, probe_tracer, "defect probe:"):
        print(line)

    scaled = [t / f for t, f in zip(latencies, slowdowns)]
    values = end_to_end(setups, scaled, results)
    raw = end_to_end([(t, 1.0) for t, _ in setups], latencies, results)
    if args.trace:
        metrics = per_layer(tracer, latencies, traced_latencies)
        metrics.update({f"raw.{name}": (raw[name], END_TO_END[name]) for name in RAW})
        metrics["speed.slowdown"] = (statistics.median(slowdowns), "ratio")
        raised = sum((r.name, r.error) == DEFECT for r in probe_results)
        metrics["defect.garch_couple.raised"] = (raised / len(probe_results), "share")
        dump = WORK / f"spans-{args.workload}-{args.seed}.npz"
        tracer.dump(dump)
        print(f"spans: {len(tracer.start)} written to {dump.relative_to(ROOT)}")
    else:
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        print(f"task_tail_ms is percentile {100.0 * (tail_index(len(latencies)) + 1) / len(latencies):.1f} "
              f"of {len(latencies)} tasks; setup_s is the median of {len(setups)} set-ups")
        print(f"timings are scaled to the reference speed; tasks ran {statistics.median(slowdowns):.4f}x "
              f"slower (median), set-ups {', '.join(f'{f:.4f}x' for _, f in setups)}")
        print("unscaled: " + ", ".join(f"{k} {raw[k]:.6g}" for k in RAW))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")

    failed = sum(r.error is not None for r in results)
    correct = not mismatches and failed == 0 and not unexpected_failures(probe_results)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
