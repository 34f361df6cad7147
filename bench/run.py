"""qce benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cond-fresh --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see bench/README.md). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the environment and
run details, which are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("cond-fresh", "cond-shared", "optimize", "cli")
# One client and one BLAS thread: the load never uses more threads than cores,
# and a run does not compete with itself. Set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qce" / "__init__.py").is_file():
        print(f"error: no qce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    import qce

    if Path(qce.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: imported qce from {qce.__file__}, not this checkout", file=sys.stderr)
        return 2

    import envinfo
    import harness

    result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.environment(),
        "detail": detail,
        "result": result,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2))
    print(json.dumps({k: record[k] for k in ("environment", "detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
