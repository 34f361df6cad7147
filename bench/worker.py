"""Measure one slice of a workload's closed loop in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS START

Warms up on one untimed op of each kind (unless the workload's ops are fresh
processes), then runs whole cycles from op START for SECONDS of wall time and
prints one JSON line:
{"times": [...], "kinds": [...], "ok": [...], "next": <first op not run>}. A run
measures in several such processes in turn and pools their ops, because the
speed of a process on the same inputs varies by about 10% from one process
to the next (memory layout), and a single process would carry that
offset into every figure of the run.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from measure import measure, warm_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure_slice(name: str, seed: int, seconds: float, start: int) -> dict:
    wl = WORKLOADS[name]()
    try:
        if wl.warm:
            warm_up(wl, seed)
        loop = measure(wl, seed, seconds, start=start, wall_cap=1.5 * seconds + 10.0)
    finally:
        wl.close()
    return {"times": loop.times, "kinds": loop.kinds, "ok": loop.ok,
            "next": start + loop.attempted}


def main() -> int:
    name, seed, seconds, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
    print(json.dumps(measure_slice(name, seed, seconds, start)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
