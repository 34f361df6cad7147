"""The four workloads: their inputs, the timed operation, and its gate.

Each workload is one client in a closed loop: op i starts when op i-1 has
returned. The inputs of op i are a pure function of (seed, i) built with
numpy alone, so qce receives nothing but generated arrays. ``prepare`` turns
them into library objects and computes the reference values outside the
timed region; ``run`` is the timed operation; ``check`` is the gate, which
fails on a wrong value. Runs end on a whole cycle so that every run holds
the same mix of sizes and kinds.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import qce

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Tolerance of the conditional-entropy gates: bounds, concavity, I/d, oracle.
BOUND_SLACK = 1e-9


def child_env() -> dict:
    """Environment for spawned interpreters: this one's, with the checkout's qce first."""
    env = dict(os.environ)
    env.pop("QCE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# ---------------------------------------------------------------------------
# Input generators (numpy only)


def op_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def wishart(rng, d: int) -> np.ndarray:
    """Full-rank Wishart state G G* / tr(G G*)."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    a = g @ g.conj().T
    return a / np.trace(a).real


def positive_state(rng, d: int) -> np.ndarray:
    """0.8 * Wishart + 0.2 * I/d: strictly positive, as the optimizer requires."""
    return 0.8 * wishart(rng, d) + 0.2 * np.eye(d) / d


def haar(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def composition(rng, d: int, k: int) -> list[int]:
    """Random sizes of k nonempty blocks summing to d."""
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    return [int(x) for x in np.diff(np.concatenate(([0], cuts, [d])))]


def balanced_composition(d: int, k: int) -> list[int]:
    """Sizes of k blocks summing to d that differ by at most one."""
    return [d // k + (j < d % k) for j in range(k)]


def spectrum_state(rng, eigenvalues) -> np.ndarray:
    """The state with the given eigenvalues along a Haar frame."""
    diag = np.asarray(eigenvalues, dtype=float)
    frame = haar(rng, diag.size)
    mat = (frame * diag) @ frame.conj().T
    return 0.5 * (mat + mat.conj().T)


def block_state(rng, sizes) -> np.ndarray:
    """Exactly degenerate state: one level per block, along a Haar frame.

    Levels are k..1 plus a jitter below 1/2 before normalization, so adjacent
    levels differ by more than 1/(2 d (k+1)), far above the clustering scale.
    """
    k = len(sizes)
    levels = np.arange(k, 0, -1) + 0.5 * rng.random(k)
    levels = levels / float(np.dot(sizes, levels))
    return spectrum_state(rng, np.repeat(levels, sizes))


def nondegenerate_state(rng, d: int) -> np.ndarray:
    return block_state(rng, [1] * d)


def fewblock_state(rng, d: int) -> np.ndarray:
    return block_state(rng, composition(rng, d, int(rng.integers(2, 5))))


def entropy_of(mat: np.ndarray) -> float:
    """Independent von Neumann entropy oracle: numpy eigvalsh only."""
    w = np.linalg.eigvalsh(mat)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def exhaustive_max(mat: np.ndarray, r: int) -> float:
    """Max of the compressed entropy over r-subsets of the eigenvectors."""
    mu = np.clip(np.linalg.eigvalsh(mat), 1e-300, None)
    idx = np.array(list(itertools.combinations(range(mu.size), r)))
    sub = mu[idx]
    t = sub.sum(axis=1)
    return float(np.max(t * np.log(t) - np.sum(sub * np.log(sub), axis=1)))


def level_blocks(sigma: np.ndarray) -> list:
    """(level * multiplicity, eigenbasis) of each exactly degenerate level, via numpy.

    Generated levels differ by more than 1/(2 d (k+1)), above 1e-4 for the
    workloads' d <= 64, and a degenerate level's eigenvalues agree to
    rounding, so a 1e-9 cut separates the levels exactly.
    """
    w, v = np.linalg.eigh(sigma)
    cuts = np.flatnonzero(np.diff(w) > 1e-9) + 1
    return [(float(w[idx].sum()), v[:, idx]) for idx in np.split(np.arange(w.size), cuts)]


def conditional_entropy_of(rho: np.ndarray, blocks) -> float:
    """Independent oracle: sum over sigma's levels of weight * compressed entropy of rho."""
    total = 0.0
    for weight, basis in blocks:
        if basis.shape[1] < 2:
            continue
        mu = np.linalg.eigvalsh(basis.conj().T @ rho @ basis)
        mu = mu[mu > 0.0]
        t = float(mu.sum())
        total += weight * (t * np.log(t) - float(np.sum(mu * np.log(mu))))
    return total


def value_ok(value: float, kind: str, s_rho: float, ref: float | None) -> bool:
    """0 <= value <= S(rho); exactly 0.0 for nondegenerate sigma; S(rho) for I/d;
    the numpy oracle's value `ref` for degenerate sigma."""
    if not (-BOUND_SLACK <= value <= s_rho + BOUND_SLACK):
        return False
    if kind == "nondeg":
        return value == 0.0
    if kind == "maxmixed":
        return abs(value - s_rho) <= BOUND_SLACK
    return abs(value - ref) <= BOUND_SLACK


def optimum_ok(converged: bool, best: float, s_rho: float, exhaustive: float) -> bool:
    """Converged, below S(rho), and within 1e-6 of the exhaustive spectral maximum."""
    return converged is True and best < s_rho and abs(best - exhaustive) <= 1e-6


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    cycle = 1
    # Fresh interpreters a run measures in, one after the other (see worker.py).
    processes = 1
    # Whether a measuring interpreter runs one untimed op of each kind first.
    warm = True
    # op_ms_tail's percentile: a round one that leaves at least ten samples
    # beyond it in every run, with room to spare. It is fixed per workload so
    # that the run length, which varies with the machine's speed, cannot
    # switch it between runs.
    tail_percentile = 50.0

    def kind_of(self, i: int) -> int:
        """The op kind of op i: the ops of a cycle that share sizes and sigma kind."""
        return i % self.cycle

    def inputs(self, seed: int, i: int) -> dict:
        raise NotImplementedError

    def prepare(self, inp: dict):
        raise NotImplementedError

    def run(self, prep):
        raise NotImplementedError

    def check(self, prep, out) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CondFresh(Workload):
    """One conditional_entropy(rho, sigma) on a freshly drawn pair."""

    name = "cond-fresh"
    DIMS = (8, 16, 32, 64)
    KINDS = ("nondeg", "fewblock", "maxmixed")
    cycle = 12
    processes = 3
    tail_percentile = 98.0  # runs hold 1000 to 2000 ops

    def inputs(self, seed, i):
        d, kind = self.DIMS[i % 4], self.KINDS[i % 3]
        rng = op_rng(seed, 1, i)
        rho = wishart(rng, d)
        if kind == "nondeg":
            sigma = nondegenerate_state(rng, d)
        elif kind == "fewblock":
            sigma = block_state(rng, composition(rng, d, 2 + (i // self.cycle) % 3))
        else:
            sigma = np.eye(d, dtype=np.complex128) / d
        return {"kind": kind, "rho": rho, "sigma": sigma}

    def prepare(self, inp):
        ref = None
        if inp["kind"] == "fewblock":
            ref = conditional_entropy_of(inp["rho"], level_blocks(inp["sigma"]))
        return SimpleNamespace(
            kind=inp["kind"],
            rho=qce.DensityMatrix(inp["rho"]),
            sigma=qce.DensityMatrix(inp["sigma"]),
            s_rho=entropy_of(inp["rho"]),
            ref=ref,
        )

    def run(self, p):
        return qce.conditional_entropy(p.rho, p.sigma)

    def check(self, p, out):
        return value_ok(out.total, p.kind, p.s_rho, p.ref)


class CondShared(Workload):
    """A concavity triple: three conditional_entropy calls on one shared sigma.

    Groups of GROUP ops share one sigma object. The cycle's groups span the
    block count of degenerate sigma from 2 to d/2 at every d, since the cost
    of a resolution grows with the square of its block count, plus one
    nondegenerate sigma at d=32 (at d=64 a nondegenerate group would cost as
    much as the rest of the cycle). A random count would make the run's cost
    depend on the seed more than on the program. For the same reason the
    blocks of a group's sigma are as equal in size as its d and block count
    allow, in random order: with random sizes the number of rank-one blocks,
    whose compression is skipped, moved a group's op time by 20% from one
    sigma to the next. The groups' op times are
    at least 1.6 times apart around the middle group and their number is odd,
    so the median op falls inside one group's cluster of times rather than
    hopping between neighbouring clusters from run to run.
    """

    name = "cond-shared"
    GROUP = 20
    processes = 2
    tail_percentile = 95.0  # runs hold 540 to 1080 ops
    # (d, kind, block count), in increasing op time on the seed code.
    SPECS = (
        (16, "degenerate", 2), (32, "degenerate", 2), (16, "degenerate", 8),
        (64, "degenerate", 2), (32, "degenerate", 16), (64, "degenerate", 10),
        (32, "nondeg", 32), (64, "degenerate", 17), (64, "degenerate", 32),
    )
    cycle = GROUP * len(SPECS)

    def __init__(self):
        self._sigma = (None, None, None)

    def kind_of(self, i):
        return (i // self.GROUP) % len(self.SPECS)

    def _sigma_array(self, seed, g):
        d, _, k = self.SPECS[g % len(self.SPECS)]
        rng = op_rng(seed, 20, g)
        return block_state(rng, rng.permutation(balanced_composition(d, k)))

    def inputs(self, seed, i):
        g = i // self.GROUP
        d, kind, _ = self.SPECS[g % len(self.SPECS)]
        rng = op_rng(seed, 21, i)
        return {
            "group": g,
            "kind": kind,
            "sigma": self._sigma_array(seed, g),
            "rho1": wishart(rng, d),
            "rho2": wishart(rng, d),
            "lam": rng.random(),
        }

    def prepare(self, inp):
        # The same DensityMatrix object serves every op of a group.
        if self._sigma[0] != inp["group"]:
            self._sigma = (inp["group"], qce.DensityMatrix(inp["sigma"]),
                           level_blocks(inp["sigma"]))
        _, sigma, blocks = self._sigma
        lam = float(inp["lam"])
        rhos = (inp["rho1"], inp["rho2"], lam * inp["rho1"] + (1.0 - lam) * inp["rho2"])
        return SimpleNamespace(
            kind=inp["kind"],
            sigma=sigma,
            rho1=qce.DensityMatrix(inp["rho1"]),
            rho2=qce.DensityMatrix(inp["rho2"]),
            lam=lam,
            s=[entropy_of(r) for r in rhos],
            ref=[conditional_entropy_of(r, blocks) for r in rhos],
        )

    def run(self, p):
        mixed = qce.DensityMatrix(p.lam * p.rho1.mat + (1.0 - p.lam) * p.rho2.mat)
        return (
            qce.conditional_entropy(p.rho1, p.sigma).total,
            qce.conditional_entropy(p.rho2, p.sigma).total,
            qce.conditional_entropy(mixed, p.sigma).total,
        )

    def check(self, p, out):
        v1, v2, vm = out
        slack = vm - p.lam * v1 - (1.0 - p.lam) * v2
        return slack >= -BOUND_SLACK and all(
            value_ok(v, p.kind, s, ref) for v, s, ref in zip(out, p.s, p.ref)
        )


class Optimize(Workload):
    """One maximize_compressed_entropy(rho, r) at the default OptimizeConfig."""

    name = "optimize"
    COMBOS = tuple((d, r) for d in (6, 8, 12) for r in (2, d // 2, d - 2))
    cycle = len(COMBOS)

    def inputs(self, seed, i):
        d, r = self.COMBOS[i % self.cycle]
        return {"rho": positive_state(op_rng(seed, 3, i), d), "rank": r}

    def prepare(self, inp):
        return SimpleNamespace(
            rho=qce.DensityMatrix(inp["rho"]),
            rank=int(inp["rank"]),
            s_rho=entropy_of(inp["rho"]),
            best=exhaustive_max(inp["rho"], int(inp["rank"])),
        )

    def run(self, p):
        return qce.maximize_compressed_entropy(p.rho, p.rank)

    def check(self, p, out):
        return optimum_ok(bool(out.converged), out.best_value, p.s_rho, p.best)


def matrix_doc(mat: np.ndarray) -> dict:
    return {"dim": int(mat.shape[0]), "re": mat.real.tolist(), "im": mat.imag.tolist()}


class Cli(Workload):
    """One fresh-process ``python -m qce.cli ... --format json`` invocation."""

    name = "cli"
    KINDS = ("entropy", "cond", "optimize", "audit-scond", "audit-hres")
    cycle = len(KINDS)
    # Eigenvalues of the optimize command's rho; only its frame is drawn. The
    # optimize op is the median op of a run, and with Wishart draws the
    # solve's iteration count ranged 1200-3300 with the spectrum, which moved
    # op_ms_p50 by the seed rather than by the program. With this spectrum
    # it stays within 2500-2700.
    OPTIMIZE_SPECTRUM = (0.30, 0.25, 0.18, 0.12, 0.09, 0.06)
    warm = False  # every op is a fresh process

    def __init__(self):
        self.workdir = BENCH_DIR / "out" / f"cli-work-{os.getpid()}"
        # Replaced by the traced run with a launcher that records spans.
        self.launch = self._launch_plain

    def inputs(self, seed, i):
        kind = self.KINDS[i % self.cycle]
        rng = op_rng(seed, 4, i)
        if kind == "entropy":
            return {"kind": kind, "rho": wishart(rng, 8)}
        if kind == "cond":
            return {"kind": kind, "rho": wishart(rng, 8), "sigma": fewblock_state(rng, 8)}
        if kind == "optimize":
            return {"kind": kind, "rho": spectrum_state(rng, self.OPTIMIZE_SPECTRUM), "rank": 3}
        return {"kind": kind, "audit_seed": int(rng.integers(0, 2**31 - 1))}

    def _write(self, name, mat) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        path.write_text(json.dumps(matrix_doc(mat)))
        return str(path)

    def prepare(self, inp):
        kind = inp["kind"]
        p = SimpleNamespace(kind=kind)
        if kind == "entropy":
            p.args = ["entropy", self._write("rho.json", inp["rho"])]
            p.s_rho = entropy_of(inp["rho"])
        elif kind == "cond":
            p.args = ["cond", self._write("rho.json", inp["rho"]),
                      self._write("sigma.json", inp["sigma"])]
            p.ref = qce.conditional_entropy(
                qce.DensityMatrix(inp["rho"]), qce.DensityMatrix(inp["sigma"])
            ).total
        elif kind == "optimize":
            p.args = ["optimize", self._write("rho.json", inp["rho"]),
                      "--rank", str(inp["rank"])]
            p.s_rho = entropy_of(inp["rho"])
            p.best = exhaustive_max(inp["rho"], int(inp["rank"]))
        else:
            p.args = ["audit", "--functional", kind.split("-")[1], "--dims", "2,3,4",
                      "--trials", "20", "--seed", str(inp["audit_seed"])]
        p.args = p.args + ["--format", "json"]
        return p

    def _launch_plain(self, args):
        return subprocess.run(
            [sys.executable, "-m", "qce.cli"] + args,
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
        )

    def run(self, p):
        proc = self.launch(p.args)
        return proc.returncode, proc.stdout

    def check(self, p, out):
        code, stdout = out
        if code != 0:
            return False
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        if doc.get("schema") != "qce/1":
            return False
        rows = {r["name"]: r["value"] for r in doc["rows"]}
        report = doc["report"]
        if p.kind == "entropy":
            return abs(rows["entropy"] - p.s_rho) <= BOUND_SLACK
        if p.kind == "cond":
            return abs(rows["conditional_entropy"] - p.ref) <= 1e-12
        if p.kind == "optimize":
            return optimum_ok(report["converged"], rows["best_value"], p.s_rho, p.best)
        return report["deviations"] == []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CondFresh, CondShared, Optimize, Cli)}
