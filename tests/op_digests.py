"""Digest of every benchmark op at fixed task seeds, one line per op.

    PYTHONPATH=src python tests/op_digests.py > digests.txt

Runs each op of the ``chains``, ``backward`` and ``certify`` workloads of
``perfbench/workloads.py`` (imported by path and only read) at the task
seeds ``split_seed(s, k)`` for s in SEEDS and k < TASKS, as the benchmark's
tasks run them, and prints ``workload s k op digest``.  A change meant to
keep every result byte runs it on both trees and compares the outputs with
``diff``.  Not a test module: pytest does not collect it.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

from obsdriven import split_seed

SEEDS = (1, 3, 7)
TASKS = 3


def _load_workloads():
    """perfbench/workloads.py, imported by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def main() -> int:
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name)
            for s in SEEDS:
                for k in range(TASKS):
                    results = workloads.run_task(ops, split_seed(s, k), Path(tmp) / name)
                    for r in results:
                        print(name, s, k, r.name, r.digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
