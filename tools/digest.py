"""Digest files: one SHA-256 per tool output, so a checkout is compared with a committed file.

A digest file holds, for each tool that wrote to it, one header line

    # <tool>: <environment>

and one line per output, `<sha256>  <tool>/<output name>`. A tool's
--digest FILE rewrites its own lines and keeps every other tool's, so
golden_cli.py and bit_identity.py share tools/golden.sha256. A tool's
--check FILE compares its outputs with its own lines and lists each entry
that moved, is missing or is new. The bits depend on the BLAS build and
thread count, so the header records the environment they were written in.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def import_qce():
    """Import qce and print where it came from; fall back on this checkout's src.

    The qce that sys.path finds wins, so PYTHONPATH still decides which
    checkout a two-checkout comparison runs. Only when there is none is this
    checkout's src appended to sys.path, so the tools run from a bare
    checkout without PYTHONPATH.
    """
    try:
        import qce
    except ModuleNotFoundError as exc:
        if exc.name != "qce":
            raise
        sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
        import qce
    print(f"qce from {Path(qce.__file__).parent}", file=sys.stderr)
    return qce


def environment() -> str:
    import numpy as np

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{platform.machine()}, OPENBLAS_NUM_THREADS={threads}")


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


def _owner(line: str) -> str:
    """The tool a digest line belongs to: '# <tool>: ...' or '<sha256>  <tool>/<name>'."""
    if line.startswith("# "):
        return line[2:].split(":", 1)[0]
    return line.split("  ", 1)[1].split("/", 1)[0]


def _own(path: Path, tool: str) -> tuple[str | None, dict[str, str]]:
    """The header environment and the name -> sha256 entries that tool wrote to path."""
    env, entries = None, {}
    for line in _lines(path):
        if _owner(line) != tool:
            continue
        if line.startswith("# "):
            env = line.split(": ", 1)[1]
        else:
            sha, name = line.split("  ", 1)
            entries[name.split("/", 1)[1]] = sha
    return env, entries


def _hashes(outputs) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs}


def write(path: Path, tool: str, outputs) -> int:
    """Replace tool's header and entries in path by those of outputs ((name, text) pairs)."""
    hashes = _hashes(outputs)
    lines = [line for line in _lines(path) if _owner(line) != tool]
    lines.append(f"# {tool}: {environment()}")
    lines.extend(f"{sha}  {tool}/{name}" for name, sha in hashes.items())
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(hashes)} {tool} digests to {path}", file=sys.stderr)
    return 0


def check(path: Path, tool: str, outputs) -> int:
    """0 when every output matches tool's entries in path; otherwise list the differences."""
    env, expected = _own(path, tool)
    actual = _hashes(outputs)
    if env != environment():
        print(f"note: {path} was written under {env}; this run: {environment()}",
              file=sys.stderr)
    moved = [n for n in actual if n in expected and actual[n] != expected[n]]
    missing = [n for n in expected if n not in actual]
    new = [n for n in actual if n not in expected]
    for label, names in (("moved", moved), ("missing", missing), ("new", new)):
        for name in names:
            print(f"{label}: {tool}/{name}")
    same = len(actual) - len(moved) - len(new)
    print(f"{tool}: {same} of {len(expected)} entries match {path}", file=sys.stderr)
    return 1 if moved or missing or new else 0
