"""Alternating A/B timing of one benchmark workload's op kinds on two source trees.

Usage, from the root of a checkout:

    python3 tools/ab_kinds.py --workload W --ops N --rounds R SRC_A SRC_B

SRC_A and SRC_B are directories that hold a qce package (a checkout's src).
Each round runs one fresh interpreter per side, one after the other, and
alternates which side goes first (A in odd rounds, B in even ones), so a
machine that drifts between a fast and a slow state weighs on both sides
alike. Each interpreter starts with OPENBLAS_NUM_THREADS=1 (and the OpenMP
and MKL counts at 1), puts its SRC first on sys.path, imports this
checkout's bench/workloads.py and bench/measure.py without writing bytecode,
runs one untimed op of each kind and then times ops 0..N-1, checking each
op's gate. The rate of a run is the benchmark's ops_per_s rule: the number
of kinds over the sum of the kinds' median op times.

Printed: each round's two rates, each side's per-kind median op time (the
median over rounds of each round's per-kind median) with the ratio B/A,
each side's median rate with its quartiles and range, whether the rounds
meet the rule for claiming a gain (at least ten rounds, B wins at least
nine tenths of them, and the median rates differ by more than the distance
between A's quartiles), and the number of rounds B won. Exit code 1 when
any op of either side failed or raised, 0 otherwise. Only the in-process
workloads are offered: the cli workload's ops spawn the checkout's own src.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cond-fresh", "cond-shared", "optimize")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def kind_label(inp: dict) -> str:
    """d=<dim> and the sigma kind of an op's inputs, where they have them."""
    dims = [v.shape[0] for v in inp.values() if getattr(v, "ndim", 0) == 2]
    words = [f"d={dims[0]}"] if dims else []
    if isinstance(inp.get("kind"), str):
        words.append(inp["kind"])
    if "rank" in inp:
        words.append(f"r={inp['rank']}")
    return " ".join(words)


def measure_side(workload: str, seed: int, ops: int) -> dict:
    """Run in a fresh interpreter whose sys.path already starts with one side's src."""
    sys.path.insert(1, str(ROOT / "bench"))
    import qce
    from measure import measure, warm_up
    from workloads import WORKLOADS as ALL

    wl = ALL[workload]()
    try:
        warm_up(wl, seed)
        loop = measure(wl, seed, None, count=ops)
    finally:
        wl.close()
    by_kind: dict[int, list[float]] = {}
    for kind, dt in zip(loop.kinds, loop.times):
        by_kind.setdefault(kind, []).append(dt)
    labels = {}
    for i in range(ops):
        if wl.kind_of(i) not in labels:
            labels[wl.kind_of(i)] = kind_label(wl.inputs(seed, i))
    return {
        "qce": str(Path(qce.__file__).parent),
        "medians": {str(k): statistics.median(v) for k, v in sorted(by_kind.items())},
        "labels": {str(k): labels[k] for k in sorted(by_kind)},
        "failed": loop.failed,
    }


def run_side(src: str, workload: str, seed: int, ops: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    code = (
        "import json, sys; sys.dont_write_bytecode = True; "
        f"sys.path[:0] = [{str(Path(src).resolve())!r}, {str(ROOT / 'tools')!r}]; "
        "import ab_kinds; "
        f"print(json.dumps(ab_kinds.measure_side({workload!r}, {seed}, {ops})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"ab_kinds: the {src} interpreter exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def rate(side: dict) -> float:
    return len(side["medians"]) / sum(side["medians"].values())


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles (inclusive method); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def claim_rule(a: list[float], b: list[float]) -> str:
    """Two lines on paired rates: whether B may claim a gain over A, and B's wins.

    The rule: at least ten rounds, B wins at least nine tenths of them
    (ties count for neither), and its median rate beats A's by more than
    the distance between A's quartiles.
    """
    wins = sum(y > x for x, y in zip(a, b))
    q1, q3 = quartiles(a)
    gain = statistics.median(b) - statistics.median(a)
    met = len(a) >= 10 and wins >= 0.9 * len(a) and gain > q3 - q1
    return (f"claim rule {'met' if met else 'not met'} (>= 10 rounds, B wins >= 9/10, "
            f"median gain > A's quartile spread): gain {gain:.1f} ops/s, spread {q3 - q1:.1f}\n"
            f"B won {wins} of {len(a)} rounds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating per-kind A/B op timing")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--ops", type=int, required=True, help="timed ops per interpreter")
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        parser.error("--ops and --rounds must be positive")
    runs = {"A": [], "B": []}
    srcs = {"A": args.src_a, "B": args.src_b}
    for r in range(args.rounds):
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        for side in order:
            runs[side].append(run_side(srcs[side], args.workload, args.seed, args.ops))
        print(f"round {r + 1} ({order[0]} first): "
              f"A {rate(runs['A'][-1]):.0f} ops/s, B {rate(runs['B'][-1]):.0f} ops/s", flush=True)
    for side in ("A", "B"):
        print(f"{side}: qce from {runs[side][0]['qce']}")
    labels = runs["A"][0]["labels"]
    print(f"{'kind':>4} {'inputs':<18} {'A us':>10} {'B us':>10} {'B/A':>6}")
    for k, label in labels.items():
        a, b = (statistics.median(run["medians"][k] for run in runs[s]) * 1e6 for s in "AB")
        print(f"{k:>4} {label:<18} {a:>10.1f} {b:>10.1f} {b / a:>6.3f}")
    rates = {side: [rate(run) for run in runs[side]] for side in "AB"}
    for side in "AB":
        q1, q3 = quartiles(rates[side])
        print(f"{side}: {len(labels)} kinds / sum(medians): median "
              f"{statistics.median(rates[side]):.0f} ops/s, quartiles {q1:.0f}-{q3:.0f}, "
              f"range {min(rates[side]):.0f}-{max(rates[side]):.0f}")
    print(claim_rule(rates["A"], rates["B"]))
    failed = {s: sum(run["failed"] for run in runs[s]) for s in "AB"}
    if any(failed.values()):
        print(f"failed ops: A {failed['A']}, B {failed['B']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
