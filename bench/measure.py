"""The closed measurement loop."""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

# Op indices of the warm-up: a cycle far beyond any run, so that its inputs
# are of the run's kinds but no timed op reuses them.
WARMUP_START = 10**6


class Loop:
    """Per-op times, kinds, outcomes and (optionally) outputs of one measured loop."""

    def __init__(self):
        self.times: list[float] = []
        self.kinds: list[int] = []
        self.ok: list[bool] = []
        self.outputs: list = []

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def median_mix_rate(self) -> float:
        """Ops per second of a cycle made of each op kind's median time.

        Every kind has the same number of ops in a cycle, so this is the
        number of kinds over the sum of their median op times. A median per
        kind leaves out the odd op slowed by the machine rather than the
        program, while a slower kind still counts in full.
        """
        by_kind: dict[int, list[float]] = {}
        for kind, dt in zip(self.kinds, self.times):
            by_kind.setdefault(kind, []).append(dt)
        return len(by_kind) / max(sum(statistics.median(v) for v in by_kind.values()), 1e-12)


def warm_up(wl, seed: int) -> None:
    """Run one op of each kind, untimed and ungated, so that lazy imports and
    first-call costs fall outside the measured loop."""
    seen = set()
    for i in range(WARMUP_START * wl.cycle, (WARMUP_START + 1) * wl.cycle):
        if wl.kind_of(i) in seen:
            continue
        seen.add(wl.kind_of(i))
        try:
            wl.run(wl.prepare(wl.inputs(seed, i)))
        except Exception:  # the same fault fails the timed ops, where it counts
            pass


def measure(wl, seed: int, seconds: float | None, *, start: int = 0, count: int | None = None,
            tracer=None, keep: bool = False, wall_cap: float = 120.0) -> Loop:
    """From op `start` on, run `count` ops, or whole cycles until `seconds` of
    wall time have passed. `start` is a multiple of the workload's cycle.

    Only the op itself is timed; inputs, references and gates run between
    ops. An op fails on an exception or a failed gate. No op starts once the
    wall-clock cap has passed, so a slow program cannot overrun the run.
    """
    loop = Loop()
    began = time.monotonic()
    i = start
    while True:
        if count is not None and i - start >= count:
            break
        if (count is None and i > start and i % wl.cycle == 0
                and time.monotonic() - began >= seconds):
            break
        if time.monotonic() - began > wall_cap:
            break
        out, ok, dt, t0 = None, False, 0.0, None
        try:
            prep = wl.prepare(wl.inputs(seed, i))
            t0 = time.perf_counter()
            with tracer.op(i) if tracer is not None else contextlib.nullcontext():
                out = wl.run(prep)
            dt = time.perf_counter() - t0
            ok = bool(wl.check(prep, out))
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            if t0 is not None and not dt:
                dt = time.perf_counter() - t0
        loop.times.append(dt)
        loop.kinds.append(wl.kind_of(i))
        loop.ok.append(ok)
        if keep:
            loop.outputs.append((dt, out))
        i += 1
    return loop
