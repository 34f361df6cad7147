"""Golden CLI outputs: run a fixed list of qce commands and keep every result.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/golden_cli.py OUT_DIR
    OPENBLAS_NUM_THREADS=1 python3 tools/golden_cli.py --digest FILE
    OPENBLAS_NUM_THREADS=1 python3 tools/golden_cli.py --check FILE

Each argv in COMMANDS runs in-process through qce.cli.main once per output
format (text, json) and tolerance profile (default, strict, loose); then
`qce --help` and `qce <command> --help` run once each, at 80 columns. A run
writes one file, OUT_DIR/<index>-<command>-<format>-<profile>.txt or
OUT_DIR/help[-<command>].txt, holding its exit code, its stdout and its
stderr. The qce package is whichever one PYTHONPATH puts first, else this
checkout's src (its location is printed to stderr; see digest.import_qce),
so running this script against two checkouts' src directories and comparing
the two output directories with `diff -r` shows every CLI byte that a
change moved. --digest FILE writes one SHA-256 per output into FILE
instead, and --check FILE lists the outputs whose SHA-256 differs from
FILE's (see tools/digest.py); tools/golden.sha256 is the committed digest.

The documents are inline JSON built by the pure-Python helpers below, so
the inputs do not depend on numpy or on qce. QCE_SEED is cleared, so every
run not given --seed uses seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

FORMATS = ("text", "json")
PROFILES = ("default", "strict", "loose")


def matrix_doc(rows, im=None) -> str:
    doc = {"dim": len(rows), "re": rows}
    if im is not None:
        doc["im"] = im
    return json.dumps(doc)


def diag(*vals) -> list:
    n = len(vals)
    return [[float(vals[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]


def diag_doc(*vals) -> str:
    return matrix_doc(diag(*vals))


def mixed_doc(dim: int, rank: int | None = None) -> str:
    """A fixed complex state: (A A* + I) / tr with A dim x dim, or A A* / tr with A
    dim x rank, of that rank; A has small integer entries."""
    cols, shift = (dim, 1) if rank is None else (rank, 0)
    a = [
        [complex((3 * i + 7 * j) % 5 - 2, (2 * i + 5 * j) % 3 - 1) for j in range(cols)]
        for i in range(dim)
    ]
    m = [
        [sum(a[i][k] * a[j][k].conjugate() for k in range(cols)) + shift * (i == j)
         for j in range(dim)]
        for i in range(dim)
    ]
    tr = sum(m[i][i].real for i in range(dim))
    return matrix_doc(
        [[m[i][j].real / tr for j in range(dim)] for i in range(dim)],
        [[m[i][j].imag / tr for j in range(dim)] for i in range(dim)],
    )


def blocks_doc(dim: int, groups) -> str:
    """Resolution document of coordinate blocks, one per group of axes."""
    blocks = [
        {"dim": dim, "re": [[1.0 if i == j and i in g else 0.0 for j in range(dim)]
                            for i in range(dim)]}
        for g in groups
    ]
    return json.dumps({"dim": dim, "blocks": blocks})


def rotated_blocks_doc() -> str:
    """Two rank-one blocks along (1, 1)/sqrt 2 and (1, -1)/sqrt 2, plus the third axis."""
    plus = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]
    minus = [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]
    third = diag(0.0, 0.0, 1.0)
    return json.dumps({"dim": 3, "blocks": [{"dim": 3, "re": b} for b in (plus, minus, third)]})


def near_projector_blocks_doc() -> str:
    """Blocks diag(1, 1, 0) + 5e-9 (E02 + E20) and diag(0, 0, 1).

    The first block is idempotent to 2.5e-17 but tilted 5e-9 toward the third
    axis, so its kept eigenvectors pass the frame check against the second block
    under default and loose (orth 1e-8, 1e-6) and fail it under strict (1e-10).
    """
    near = diag(1.0, 1.0, 0.0)
    near[0][2] = near[2][0] = 5e-9
    third = diag(0.0, 0.0, 1.0)
    return json.dumps({"dim": 3, "blocks": [{"dim": 3, "re": b} for b in (near, third)]})


PURE3 = matrix_doc([[1 / 3] * 3] * 3)
RHO3 = mixed_doc(3)
RHO4 = mixed_doc(4)
RHO6 = mixed_doc(6)

COMMANDS: list[list[str]] = [
    ["entropy", diag_doc(0.5, 0.3, 0.2)],
    ["entropy", RHO4],
    ["entropy", PURE3],
    ["entropy", diag_doc(0.4, 0.4, 0.2), "--units", "bits"],
    ["cond", RHO3, diag_doc(0.4, 0.4, 0.2)],
    ["cond", RHO4, diag_doc(0.25, 0.25, 0.25, 0.25)],
    ["cond", PURE3, diag_doc(1 / 3, 1 / 3, 1 / 3)],
    ["cond", diag_doc(0.5, 0.5, 0.0), diag_doc(0.3, 0.3, 0.4)],
    ["cond", RHO4, diag_doc(0.3, 0.3, 0.2, 0.2), "--units", "bits"],
    ["cond", RHO3, diag_doc(0.5, 0.3, 0.2)],
    ["cond", RHO3, diag_doc(0.5, 0.5, 0.5)],
    ["cond-res", RHO4, blocks_doc(4, [[0, 1], [2, 3]])],
    ["cond-res", RHO3, rotated_blocks_doc()],
    ["pinch", RHO4, blocks_doc(4, [[0, 2], [1], [3]])],
    ["pinch", RHO3, rotated_blocks_doc()],
    ["classical", json.dumps({"joint": [[0.3, 0.2], [0.1, 0.4]]})],
    ["classical", json.dumps({"joint": [[0.25, 0.25], [0.25, 0.25]]})],
    ["classical", json.dumps({
        "p": [0.5, 0.5], "q": [0.5, 0.5],
        "p_given_q": [[1.0, 0.0], [0.0, 1.0]], "q_given_p": [[1.0, 0.0], [0.0, 1.0]],
    })],
    ["classical", json.dumps({
        "p": [0.5, 0.5], "q": [0.3, 0.3, 0.4],
        "p_given_q": [[0.5, 0.5], [0.5, 0.5]], "q_given_p": [[0.3, 0.3], [0.3, 0.3]],
    })],
    ["hres", blocks_doc(4, [[0, 1], [2, 3]]), blocks_doc(4, [[0], [1, 2], [3]])],
    ["hres", rotated_blocks_doc(), blocks_doc(3, [[0, 1], [2]])],
    ["orders", diag_doc(0.4, 0.4, 0.2), diag_doc(0.5, 0.3, 0.2)],
    ["orders", RHO3, diag_doc(1 / 3, 1 / 3, 1 / 3)],
    *[["optimize", RHO4, "--rank", str(r)] for r in range(5)],
    *[["optimize", RHO6, "--rank", str(r)] for r in range(1, 7)],
    *[
        ["audit", "--functional", f, "--seed", str(s), "--dims", "2,3,4", "--trials", "20"]
        for f in ("scond", "hres")
        for s in (0, 1)
    ],
    *[["demo", name] for name in ("dim2", "tilted", "coupled", "impossibility")],
    # A one-block resolution, and a sigma with a zero-weight rank-2 block.
    ["cond-res", RHO4, blocks_doc(4, [[0, 1, 2, 3]])],
    ["cond", RHO4, diag_doc(0.5, 0.5, 0.0, 0.0)],
    # --cluster-tol 1e-4 merges the top pair of sigma, which splits at the default scale.
    ["entropy", diag_doc(0.4, 0.399999, 0.200001), "--cluster-tol", "1e-4"],
    ["cond", RHO3, diag_doc(0.4, 0.399999, 0.200001), "--cluster-tol", "1e-4"],
    # Two levels exactly the default clustering scale (1e-9) apart separate.
    ["entropy", diag_doc(1 - 2.2613670881738115e-09 - 1.2613670881738115e-09,
                         2.2613670881738115e-09, 1.2613670881738115e-09)],
    ["audit", "--functional", "scond", "--rank-profile", "full", "--gap-floor", "0.01",
     "--dims", "2,3", "--trials", "10"],
    # Rank-2 states at d = 4: exit 0 at ranks 1, 2 and 4; exit 3 at rank 3, where the
    # compression onto the maximizer has a zero mode.
    *[
        ["optimize", rho, "--rank", str(r)]
        for rho in (diag_doc(0.6, 0.4, 0.0, 0.0), mixed_doc(4, rank=2))
        for r in range(1, 5)
    ],
    # A resolution whose first block is 5e-9 from the projector onto its kept
    # eigenvectors.
    ["cond-res", RHO3, near_projector_blocks_doc()],
    ["pinch", RHO3, near_projector_blocks_doc()],
]


# Subcommands whose --help page is written, once each: outside COMMANDS,
# whose every argv runs in each format and profile.
HELP_COMMANDS = (
    "entropy", "cond", "cond-res", "pinch", "classical", "hres", "orders", "optimize",
    "audit", "demo",
)


def runs():
    """(file name, argv) of every COMMANDS run, in order."""
    for i, argv in enumerate(COMMANDS):
        for fmt in FORMATS:
            for profile in PROFILES:
                name = f"{i:03d}-{argv[0]}-{fmt}-{profile}.txt"
                yield name, [*argv, "--format", fmt, "--tol-profile", profile]


def help_runs():
    """(file name, argv) of every help page: qce's, then each subcommand's."""
    yield "help.txt", ["--help"]
    for command in HELP_COMMANDS:
        yield f"help-{command}.txt", [command, "--help"]


def run_one(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="golden qce CLI outputs")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("out_dir", nargs="?", help="write every output into this directory")
    mode.add_argument("--digest", metavar="FILE", help="write one SHA-256 per output")
    mode.add_argument("--check", metavar="FILE", help="compare every output with FILE")
    args = parser.parse_args(argv)
    os.environ.pop("QCE_SEED", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import digest

    digest.import_qce()
    from qce.cli import main as cli_main

    outputs = (
        (name, run_one(cli_main, run_argv))
        for name, run_argv in itertools.chain(runs(), help_runs())
    )
    if args.digest:
        return digest.write(Path(args.digest), "golden_cli", outputs)
    if args.check:
        return digest.check(Path(args.check), "golden_cli", outputs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, text in outputs:
        (out_dir / name).write_text(text)
        count += 1
    print(f"wrote {count} outputs to {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
