"""The tools: the A/B timing tool runs both sides, counts gates and leaves bench/ untouched;
the digest tools import the qce that PYTHONPATH names, else this checkout's src."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A qce whose conditional entropy is always -1: every cond-fresh gate fails.
WRONG_QCE = '''
from types import SimpleNamespace

def DensityMatrix(mat):
    return mat

def conditional_entropy(rho, sigma):
    return SimpleNamespace(total=-1.0)
'''


def snapshot(path):
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")}


def ab_kinds(*args):
    return subprocess.run(
        [sys.executable, "tools/ab_kinds.py", "--workload", "cond-fresh", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_ab_kinds_reports_both_sides_and_leaves_bench_alone():
    before = snapshot(ROOT / "bench")
    proc = ab_kinds("--ops", "24", "--rounds", "1", "src", "src")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0].startswith("round 1 (A first): A ")
    src = ROOT / "src" / "qce"
    assert f"A: qce from {src}" in out and f"B: qce from {src}" in out
    # One row per kind of the 12-op cycle, then each side's rate.
    assert sum(line.split()[1:2] in (["d=8"], ["d=16"], ["d=32"], ["d=64"]) for line in out) == 12
    for side in "AB":
        rate_line = next(line for line in out if line.startswith(f"{side}: 12 kinds"))
        assert ", quartiles " in rate_line and ", range " in rate_line
    assert out[-1] in ("B won 0 of 1 rounds", "B won 1 of 1 rounds")
    assert out[-2].startswith(("claim rule met (", "claim rule not met ("))
    assert snapshot(ROOT / "bench") == before


def test_the_claim_rule_needs_ten_rounds_nine_tenths_won_and_a_gain_above_the_spread():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from ab_kinds import claim_rule
    finally:
        sys.path.remove(str(ROOT / "tools"))
    a = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    assert claim_rule(a, [x + 5.0 for x in a]) == (
        "claim rule met (>= 10 rounds, B wins >= 9/10, median gain > A's quartile spread): "
        "gain 5.0 ops/s, spread 4.5\nB won 10 of 10 rounds"
    )
    # Fewer than ten rounds, or a gain inside A's quartile spread, is too little.
    assert claim_rule(a[:9], [x + 5.0 for x in a[:9]]).startswith("claim rule not met")
    assert claim_rule(a, [x + 4.0 for x in a]).startswith("claim rule not met")
    two_lost = [x + 20.0 for x in a[:8]] + a[8:]
    assert claim_rule(a, two_lost).endswith("B won 8 of 10 rounds")
    assert claim_rule(a, two_lost).startswith("claim rule not met")
    one_tie = [x + 6.0 for x in a[:9]] + a[9:]  # a tie counts for neither side
    assert claim_rule(a, one_tie).startswith("claim rule met")


def test_ab_kinds_exits_nonzero_when_a_gate_fails(tmp_path):
    (tmp_path / "qce").mkdir()
    (tmp_path / "qce" / "__init__.py").write_text(WRONG_QCE)
    proc = ab_kinds("--ops", "12", "--rounds", "1", "src", str(tmp_path))
    assert proc.returncode == 1
    assert "failed ops: A 0, B 12" in proc.stderr


def test_the_tools_find_this_checkouts_src_unless_pythonpath_names_one(tmp_path):
    code = "import digest; print(digest.import_qce().__file__)"

    def run(**extra):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        return subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT / "tools", env={**env, **extra},
            capture_output=True, text=True, timeout=60, check=True,
        )

    proc = run()
    assert proc.stdout.strip() == str(ROOT / "src" / "qce" / "__init__.py")
    assert proc.stderr == f"qce from {ROOT / 'src' / 'qce'}\n"
    # The fallback is appended, so a qce on PYTHONPATH still wins.
    (tmp_path / "qce").mkdir()
    (tmp_path / "qce" / "__init__.py").write_text(WRONG_QCE)
    assert run(PYTHONPATH=str(tmp_path)).stdout.strip() == str(tmp_path / "qce" / "__init__.py")
