"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import qce  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from measure import Loop, measure  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def expected(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_implemented_workloads():
    assert set(NAMES) <= set(WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    result, detail = harness.run(name, seed=3, seconds=0.2, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["error_rate"] == 0.0
    assert detail["tail_percentile"] == WORKLOADS[name].tail_percentile


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    result, _ = harness.run(name, seed=3, seconds=0.2, trace=True)
    assert result["correct"], result
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected("per_layer")
    shares = [v["value"] for k, v in result["metrics"].items()
              if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def _scale_total(real, factor):
    def planted(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, total=res.total * factor)
    return planted


@pytest.mark.parametrize("name, passing", [("cond-fresh", 4), ("cond-shared", 20)])
def test_planted_wrong_conditional_entropy_fails(name, passing, monkeypatch):
    # A 0.1% error keeps every bound and the concavity inequality; only the
    # exact values (0 for nondegenerate sigma) can pass.
    monkeypatch.setattr(qce, "conditional_entropy", _scale_total(qce.conditional_entropy, 1.001))
    wl = WORKLOADS[name]()
    loop = measure(wl, seed=5, seconds=0.0)
    assert loop.attempted == wl.cycle
    assert loop.failed == wl.cycle - passing


def test_planted_wrong_optimum_fails(monkeypatch):
    real = qce.maximize_compressed_entropy

    def planted(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, best_value=res.best_value - 1e-4)

    monkeypatch.setattr(qce, "maximize_compressed_entropy", planted)
    loop = measure(WORKLOADS["optimize"](), seed=5, seconds=0.0, count=3)
    assert loop.failed == 3


def test_planted_wrong_cli_output_fails():
    wl = Cli()
    real = wl.launch

    def planted(args):
        proc = real(args)
        doc = json.loads(proc.stdout)
        for row in doc["rows"]:
            if row["unit"] == "nats":
                row["value"] += 1e-3
        if "deviations" in doc["report"]:
            doc["report"]["deviations"] = ["planted"]
        proc.stdout = json.dumps(doc)
        return proc

    wl.launch = planted
    try:
        loop = measure(wl, seed=5, seconds=0.0)
    finally:
        wl.close()
    assert loop.failed == wl.cycle


def test_planted_failure_reaches_the_result(monkeypatch):
    monkeypatch.setattr(qce, "conditional_entropy", _scale_total(qce.conditional_entropy, 1.001))
    monkeypatch.setattr(harness, "setup_seconds", lambda: [1.0])
    # Measure in this process, where the planted function lives.
    monkeypatch.setattr(harness, "run_slice", worker.measure_slice)
    result, detail = harness.run("cond-fresh", seed=5, seconds=0.0, trace=False)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert detail["error_rate"] > 0.0


def test_ops_per_s_is_the_rate_of_a_cycle_of_median_ops():
    loop = Loop()
    loop.times = [1.0, 3.0, 100.0, 2.0, 2.0, 2.0]
    loop.kinds = [0, 0, 0, 1, 1, 1]
    assert loop.median_mix_rate() == pytest.approx(2 / (3.0 + 2.0))


def input_digest(inp: dict) -> str:
    """sha256 over an input record's keys and raw bytes."""
    h = hashlib.sha256()
    for key in sorted(inp):
        h.update(key.encode())
        h.update(np.ascontiguousarray(np.asarray(inp[key])).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    cycle = WORKLOADS[name].cycle

    def digests(seed):
        wl = WORKLOADS[name]()
        return [input_digest(wl.inputs(seed, i)) for i in range(cycle)]

    assert digests(11) == digests(11)
    assert digests(11) != digests(12)


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "outside", "op", 0.0, 10.0, -1),
        (0, "entropy", "entropy.f", 1.0, 9.0, 0),
        (0, "matcore", "matcore.g", 2.0, 5.0, 1),
        (0, "matcore", "matcore.h", 3.0, 4.0, 2),
    ]
    report = tracing.layer_report(spans)
    assert report["self_share"]["outside"] == pytest.approx(0.2)
    assert report["self_share"]["entropy"] == pytest.approx(0.5)
    assert report["self_share"]["matcore"] == pytest.approx(0.3)
    assert report["calls_per_op"] == {**{k: 0.0 for k in tracing.LAYERS},
                                      "entropy": 1.0, "matcore": 1.0}


def test_tracing_is_removed_after_the_block():
    entropy, audit = sys.modules["qce.entropy"], sys.modules["qce.audit"]
    before = (entropy.spectral_resolution, qce.DensityMatrix.__init__, audit.rand)
    with tracing.installed(tracing.Tracer()):
        assert entropy.spectral_resolution is not before[0]
        assert qce.DensityMatrix.__init__ is not before[1]
        assert audit.rand is not before[2]
    assert (entropy.spectral_resolution, qce.DensityMatrix.__init__, audit.rand) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
