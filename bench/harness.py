"""Closed-loop measurement, end-to-end metrics and the traced run."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import probes
import tracing
from measure import Loop, measure
from workloads import BENCH_DIR, ROOT, WORKLOADS, Cli, child_env

SETUP_SPAWNS = 5


def setup_seconds(spawns: int = SETUP_SPAWNS) -> list[float]:
    """Wall times of fresh interpreters running ``import qce``, after one warm-up."""
    cmd = [sys.executable, "-c", "import qce"]
    env = child_env()
    out = []
    for k in range(spawns + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        if k:
            out.append(time.perf_counter() - t0)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of the largest process of the run (a measuring worker or a CLI op), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_slice(name: str, seed: int, seconds: float, start: int) -> dict:
    """Measure whole cycles from op `start` in a fresh interpreter (worker.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), name, str(seed), repr(seconds), str(start)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def measure_in_processes(wl, seed: int, seconds: float) -> Loop:
    """The loop split over `wl.processes` fresh interpreters in turn, ops pooled."""
    loop = Loop()
    start = 0
    for _ in range(wl.processes):
        part = run_slice(wl.name, seed, seconds / wl.processes, start)
        loop.times += part["times"]
        loop.kinds += part["kinds"]
        loop.ok += part["ok"]
        start = part["next"]
    return loop


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict, Loop]:
    setups = setup_seconds()
    loop = measure_in_processes(wl, seed, seconds)
    p = wl.tail_percentile
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(loop.median_mix_rate(), "1/s"),
        "op_ms_p50": metric(1e3 * statistics.median(loop.times), "ms"),
        "op_ms_tail": metric(1e3 * float(np.percentile(loop.times, p)), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        "success_rate": metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }
    detail = {
        "ops": loop.attempted,
        "busy_s": sum(loop.times),
        "ops_per_busy_s": loop.attempted / max(sum(loop.times), 1e-12),
        "tail_percentile": p,
        "tail_samples_beyond": loop.attempted * (1.0 - p / 100.0),
        "error_rate": loop.failed / loop.attempted,
        "processes": wl.processes,
        "setup_spawns_s": setups,
    }
    return metrics, detail, loop


def _traced_cli_launcher(tracer: tracing.Tracer, wl: Cli):
    script = str(BENCH_DIR / "traced_cli.py")

    def launch(args):
        spans_path = wl.workdir / "spans.json"
        proc = subprocess.run(
            [sys.executable, script, str(spans_path)] + args,
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
        )
        if spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return proc

    return launch


def traced(wl, seed: int, seconds: float) -> tuple[dict, dict, list[Loop]]:
    """Per-layer metrics: an untraced loop, the same ops traced, then the probes."""
    plain = measure(wl, seed, seconds / 2.0, keep=True, wall_cap=1.5 * seconds + 30.0)
    tracer = tracing.Tracer()
    if isinstance(wl, Cli):
        wl.launch = _traced_cli_launcher(tracer, wl)
    with tracing.installed(tracer):
        spanned = measure(wl, seed, None, count=plain.attempted, tracer=tracer,
                          wall_cap=3.0 * seconds + 30.0)
    report = tracing.layer_report(tracer.spans)
    metrics = {}
    for layer in tracing.LAYERS + (tracing.ROOT_LAYER,):
        metrics[f"{layer}.self_share"] = metric(report["self_share"][layer], "ratio")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls_per_op"] = metric(report["calls_per_op"][layer], "count")
    n = spanned.attempted
    plain_s, spanned_s = sum(plain.times[:n]), sum(spanned.times)
    metrics["trace.ops_per_s_drop"] = metric(n / plain_s - n / spanned_s, "1/s")
    metrics["trace.overhead_share"] = metric(spanned_s / plain_s - 1.0, "ratio")

    solves = plain.outputs if wl.name == "optimize" else None
    probe_metrics, probe_loops = probes.run_all(seed, solves)
    metrics.update(probe_metrics)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-s{seed}.jsonl"
    tracer.write(spans_path)
    detail = {"traced_ops": spanned.attempted, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail, [plain, spanned] + probe_loops


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    wl = WORKLOADS[workload]()
    try:
        if trace:
            metrics, detail, loops = traced(wl, seed, seconds)
        else:
            metrics, detail, loop = end_to_end(wl, seed, seconds)
            loops = [loop]
    finally:
        wl.close()
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail
