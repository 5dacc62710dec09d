"""Print every benchmark metric of every workload, by name and with its unit.

    python3 perfbench/report.py

Runs ``run.py`` once untraced and once traced per workload, for the
``run_seconds`` of BENCHMARK.json with seed 1, each in its own interpreter so
that peak memory is per run, and fails when a run fails or reports wrong
output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            if out.returncode != 0:
                print(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
                status = 1
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            status |= not result["correct"]
            for name, m in result["metrics"].items():
                print(f"  {workload:9s} {name:45s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
