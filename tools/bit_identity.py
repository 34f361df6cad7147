"""Bit-identity set: conditional_entropy on fixed benchmark inputs, every bit kept.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/bit_identity.py OUT_FILE
    OPENBLAS_NUM_THREADS=1 python3 tools/bit_identity.py --digest FILE
    OPENBLAS_NUM_THREADS=1 python3 tools/bit_identity.py --check FILE

The inputs come from the generators in bench/workloads.py, so they are
arrays built with numpy alone:

- cond-fresh, seeds 201 and 202, ops 0-287: conditional_entropy(rho, sigma)
  on a fresh pair of states per op;
- cond-shared, seed 301, ops 0-383: three conditional_entropy calls per op
  (rho1, rho2 and their mixture), every op of a group conditioning on one
  shared sigma object, as the benchmark does.

That is 1,728 results. Each one is a line of OUT_FILE: its workload, seed,
op and call, then the repr of the total and of every block's weight and
factor. The qce package is whichever one PYTHONPATH puts first, else this
checkout's src (its location is printed to stderr; see digest.import_qce),
so running this script against two checkouts' src directories and comparing
the two files with `cmp` shows whether a change moved any bit of these
results. --digest FILE writes one SHA-256 per workload and seed (the lines
of cond-fresh 201, cond-fresh 202 and cond-shared 301) into FILE instead,
and --check FILE lists the groups whose SHA-256 differs from FILE's (see
tools/digest.py); tools/golden.sha256 is the committed digest.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

FRESH_SEEDS = (201, 202)
FRESH_OPS = 288
SHARED_SEED = 301
SHARED_OPS = 384


def line(tag: str, breakdown) -> str:
    terms = " ".join(f"{t.weight!r}:{t.factor!r}" for t in breakdown.per_block)
    return f"{tag} {breakdown.total!r} {terms}\n"


def results(qce, workloads):
    """(tag, EntropyBreakdown) of every result, in order."""
    fresh = workloads.CondFresh()
    for seed in FRESH_SEEDS:
        for i in range(FRESH_OPS):
            inp = fresh.inputs(seed, i)
            rho, sigma = qce.DensityMatrix(inp["rho"]), qce.DensityMatrix(inp["sigma"])
            yield f"cond-fresh {seed} {i}", qce.conditional_entropy(rho, sigma)
    shared, group = workloads.CondShared(), (None, None)
    for i in range(SHARED_OPS):
        inp = shared.inputs(SHARED_SEED, i)
        if group[0] != inp["group"]:
            group = (inp["group"], qce.DensityMatrix(inp["sigma"]))
        sigma, lam = group[1], float(inp["lam"])
        rho1, rho2 = qce.DensityMatrix(inp["rho1"]), qce.DensityMatrix(inp["rho2"])
        mixed = qce.DensityMatrix(lam * rho1.mat + (1.0 - lam) * rho2.mat)
        for name, rho in (("rho1", rho1), ("rho2", rho2), ("mixed", mixed)):
            yield f"cond-shared {SHARED_SEED} {i} {name}", qce.conditional_entropy(rho, sigma)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="conditional-entropy bit-identity set")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("out_file", nargs="?", help="write every result line into this file")
    mode.add_argument("--digest", metavar="FILE", help="write one SHA-256 per workload and seed")
    mode.add_argument("--check", metavar="FILE", help="compare every group with FILE")
    args = parser.parse_args(argv)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "bench")]
    import digest

    qce = digest.import_qce()  # before workloads, which imports qce itself
    import workloads
    lines = (line(tag, breakdown) for tag, breakdown in results(qce, workloads))
    if args.out_file is None:
        # One output per workload and seed: the first two words of each tag.
        groups = itertools.groupby(lines, key=lambda text: "-".join(text.split()[:2]))
        outputs = ((name, "".join(group)) for name, group in groups)
        if args.digest:
            return digest.write(Path(args.digest), "bit_identity", outputs)
        return digest.check(Path(args.check), "bit_identity", outputs)
    count = 0
    with open(args.out_file, "w") as out:
        for text in lines:
            out.write(text)
            count += 1
    print(f"wrote {count} results to {args.out_file}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
