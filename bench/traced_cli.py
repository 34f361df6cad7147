"""Run one ``qce.cli`` command with layer tracing and write its spans.

Usage: python3 bench/traced_cli.py SPANS.json <qce cli arguments...>

The traced run of the ``cli`` workload launches this instead of
``python -m qce.cli`` so that spans from inside the fresh process can be
grafted under the op that spawned it. Everything before ``cli.main`` starts
(interpreter start-up and imports) stays in the op's own self time.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import qce.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.op(0):
        code = tracer.wrap("cli", "cli.main", qce.cli.main)(argv)
    # Drop this process's root span (index 0); its children become top level.
    spans = [(layer, name, start, end, parent - 1)
             for _, layer, name, start, end, parent in tracer.spans[1:]]
    Path(spans_path).write_text(json.dumps(spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
