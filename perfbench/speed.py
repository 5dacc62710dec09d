"""Machine-speed reference that the end-to-end timings are scaled by.

The benchmark runs on shared machines whose speed drifts by up to half
over minutes, so raw wall times of the same code differ more from run to
run than the bounds in BENCHMARK.json allow.  A fixed computation that does
not touch obsdriven (Python loops, small and large numpy operations, scipy
quadrature and assignment, as the workloads use them) is timed between
ops.  Each task's latency is reported at the reference speed: multiplied by
REFERENCE_S over the mean time of the computations timed during that task.
The mean, not the median: the machine flips between a fast and a slow state
within seconds, so short timings are bimodal and their median jumps
between the two states.  A change to obsdriven moves the scaled timings as
it moves the raw ones; the raw values are printed next to them and recorded
as per-layer metrics.

The computation's arrays are allocated once, at import, so its time does not
depend on how much memory obsdriven has just allocated or freed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import integrate
from scipy.optimize import linear_sum_assignment

REFERENCE_S = 0.006  # the computation's time on a 2-vCPU Xeon (Python 3.11, numpy 2.4, scipy 1.17)
REPS = 3

_RNG = np.random.default_rng(20070762)
_DATA = _RNG.random(50_000)
_SORTED = np.empty_like(_DATA)
_COST = _RNG.random((200, 200))


def _computation() -> float:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    np.copyto(_SORTED, _DATA)
    _SORTED.sort()
    x = np.zeros(8)
    for _ in range(1000):
        x = x * 0.5 + 1.0
    q, _ = integrate.quad(lambda t: np.exp(-t * t) * np.cos(3.0 * t), -5.0, 5.0, limit=200)
    r, c = linear_sum_assignment(_COST)
    return acc + float(_SORTED[0]) + float(x[0]) + q + float(_COST[r, c].sum())


def sample(reps: int = REPS) -> list[float]:
    """Seconds taken by each of ``reps`` runs of the reference computation."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _computation()
        out.append(time.perf_counter() - t0)
    return out


def factor(samples: list[float]) -> float:
    """How much slower than the reference speed the machine ran (1 = reference)."""
    return statistics.fmean(samples) / REFERENCE_S
