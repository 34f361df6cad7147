"""Per-layer probes of the traced run: the d-ladder, optimizer counts, audit,
serialize and import costs.

Each probe times calls into one public function from outside, on inputs
built with numpy before the clock starts, and reports a median.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import qce
from measure import Loop, measure
from workloads import (
    ROOT,
    Optimize,
    block_state,
    child_env,
    composition,
    fewblock_state,
    haar,
    matrix_doc,
    nondegenerate_state,
    op_rng,
    positive_state,
    wishart,
)

LADDER_DIMS = (4, 16, 64, 128)
BUDGET_S = 0.15
MAX_REPS = 200
HIT_TOL = 1e-9


def median_time(fn, budget: float = BUDGET_S) -> float:
    """Median seconds per call, over at least 3 calls unless one call exceeds the budget."""
    times: list[float] = []
    while len(times) < MAX_REPS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if sum(times) >= budget and (len(times) >= 3 or times[0] >= budget):
            break
    return statistics.median(times)


def ladder(seed: int) -> dict:
    """Median time of each named call at every ladder d.

    IdentityResolution gets d rank-one blocks, compressed_entropy and
    variational_gradient a rank-d/2 projector, and the few-block sigma has
    three exactly degenerate blocks.
    """
    out = {}
    for d in LADDER_DIMS:
        rng = op_rng(seed, 9, d)
        rho_arr = wishart(rng, d)
        rho = qce.DensityMatrix(rho_arr)
        sig_nd = qce.DensityMatrix(nondegenerate_state(rng, d))
        sig_fb = qce.DensityMatrix(block_state(rng, composition(rng, d, 3)))
        other_fb = qce.DensityMatrix(fewblock_state(rng, d))
        frame = haar(rng, d)
        rank_one = [qce.Projector.from_basis(frame[:, j:j + 1]) for j in range(d)]
        half = qce.Projector.from_basis(frame[:, : d // 2])
        blocks = qce.spectral_resolution(sig_fb).blocks()
        positive = qce.DensityMatrix(positive_state(rng, d))
        us, ms = (1e6, "us"), (1e3, "ms")
        calls = (
            ("matcore.DensityMatrix.us", us, lambda: qce.DensityMatrix(rho_arr)),
            ("matcore.IdentityResolution.ms", ms, lambda: qce.IdentityResolution(rank_one)),
            ("matcore.spectral_resolution.ms.nondeg", ms, lambda: qce.spectral_resolution(sig_nd)),
            ("matcore.spectral_resolution.ms.fewblock", ms,
             lambda: qce.spectral_resolution(sig_fb)),
            ("entropy.von_neumann_entropy.us", us, lambda: qce.von_neumann_entropy(rho)),
            ("entropy.compressed_entropy.us", us, lambda: qce.compressed_entropy(rho, half)),
            ("entropy.conditional_entropy.ms.nondeg", ms,
             lambda: qce.conditional_entropy(rho, sig_nd)),
            ("entropy.conditional_entropy.ms.fewblock", ms,
             lambda: qce.conditional_entropy(rho, sig_fb)),
            ("entropy.pinch.ms", ms, lambda: qce.pinch(rho, blocks)),
            ("resolutions.conditional_entropy_of_states.ms", ms,
             lambda: qce.conditional_entropy_of_states(other_fb, sig_fb)),
            ("grassopt.variational_gradient.us", us,
             lambda: qce.variational_gradient(positive, half)),
        )
        for name, (scale, unit), fn in calls:
            out[f"{name}.d{d}"] = (scale * median_time(fn), unit)
    return out


def optimizer_counts(outputs) -> dict:
    """Iterations, time per iteration and restart hit ratio over (seconds, result) pairs."""
    pairs = [(res, dt) for dt, res in outputs if res is not None]
    iters = sum(res.iterations for res, _ in pairs)
    restarts = sum(len(res.restart_values) for res, _ in pairs)
    hits = sum(
        sum(abs(v - res.best_value) <= HIT_TOL for v in res.restart_values)
        for res, _ in pairs
    )
    return {
        "grassopt.iterations_per_solve": (iters / max(len(pairs), 1), "count"),
        "grassopt.ms_per_iteration": (1e3 * sum(dt for _, dt in pairs) / max(iters, 1), "ms"),
        "grassopt.restart_hit_ratio": (hits / max(restarts, 1), "ratio"),
    }


def d16r2(seed: int) -> dict:
    """The d=16, rank-2 solve, where restarts can exhaust max_iters yet converge."""
    rho = qce.DensityMatrix(positive_state(op_rng(seed, 10, 0), 16))
    res = qce.maximize_compressed_entropy(rho, 2)
    return {
        "grassopt.d16r2.iterations": (res.iterations, "count"),
        "grassopt.d16r2.converged": (int(res.converged), "count"),
    }


def audit_and_serialize(seed: int, checks: Loop) -> dict:
    audit_seed = int(op_rng(seed, 11, 0).integers(0, 2**31 - 1))
    cfg = qce.EnsembleConfig(dims=(2, 3, 4), trials=20, seed=audit_seed)
    out = {}
    reports = {}
    for fid in ("scond", "hres"):
        t0 = time.perf_counter()
        reports[fid] = qce.axiom_audit(fid, cfg)
        out[f"audit.axiom_audit.s.{fid}"] = (time.perf_counter() - t0, "s")
        checks.ok.append(qce.audit_deviations(reports[fid]) == ())
    witnesses = [e.witness for e in reports["scond"].entries if e.witness is not None]
    replay_ms = []
    for w in witnesses:
        value = qce.replay_witness(w)
        checks.ok.append(abs(value - w["violation"]) <= 1e-9 * max(1.0, abs(value)))
        replay_ms.append(1e3 * median_time(lambda w=w: qce.replay_witness(w)))
    out["audit.replay_witness.ms"] = (statistics.median(replay_ms), "ms")

    mat = wishart(op_rng(seed, 12, 0), 8)
    text = json.dumps(matrix_doc(mat))
    doc = json.loads(text)
    checks.ok.append(bool(np.array_equal(qce.doc_to_matrix(qce.load_document(text)), mat)))
    out["serialize.load_document.us.d8"] = (1e6 * median_time(lambda: qce.load_document(text)), "us")
    out["serialize.doc_to_matrix.us.d8"] = (1e6 * median_time(lambda: qce.doc_to_matrix(doc)), "us")
    return out


def import_share(spawns: int = 3) -> dict:
    """Share of ``import qce`` spent importing scipy.optimize (python -X importtime)."""
    shares = []
    for _ in range(spawns):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qce"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        shares.append(cumulative.get("scipy.optimize", 0) / cumulative["qce"])
    return {"cli.import_share.scipy_optimize": (statistics.median(shares), "ratio")}


def run_all(seed: int, solves=None):
    """All probes. Optimizer counts come from `solves`, (seconds, OptimizeResult)
    pairs of the run's own optimize ops, or else from one optimize cycle."""
    checks = Loop()
    loops = [checks]
    if solves is None:
        loop = measure(Optimize(), seed, None, count=Optimize.cycle, keep=True)
        loops.append(loop)
        solves = loop.outputs
    raw = {}
    raw.update(ladder(seed))
    raw.update(optimizer_counts(solves))
    raw.update(d16r2(seed))
    raw.update(audit_and_serialize(seed, checks))
    raw.update(import_share())
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in raw.items()}
    return metrics, loops
