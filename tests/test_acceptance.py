"""Acceptance suite: one test per shipped guarantee, each with a time budget.

Every test is self-contained and draws its randomness from fixed seeds, so a
failure is reproducible by running the single test. The c-numbers fix the
order of the checklist; `pytest -v tests/test_acceptance.py` prints one
pass/fail line per guarantee.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np

from qce import (
    HOLDS,
    DensityMatrix,
    EnsembleConfig,
    IdentityResolution,
    Projector,
    axiom_audit,
    audit_deviations,
    compressed_entropy,
    compressed_state,
    conditional_entropy,
    coupled_pair_state,
    doc_to_matrix,
    entropy_gap_report,
    hermitize,
    impossibility_demos,
    max_abs,
    maximize_compressed_entropy,
    partition_from_resolutions,
    pinch,
    random_density,
    random_resolution,
    random_unitary,
    resolution_conditional_entropy,
    resolution_joint_entropy,
    resolution_leq,
    self_conditional_entropy,
    spectral_resolution,
    tilted_pair_state,
    variational_gradient,
    von_neumann_entropy,
)
from qce import audit, rand
from helpers import dense_blocks, directional_difference, random_hermitian

LN2 = math.log(2.0)


def elapsed_under(start, budget):
    took = time.monotonic() - start
    assert took < budget, f"took {took:.1f}s, budget {budget}s"


def seeded(rng, bound=1 << 30):
    return int(rng.integers(bound))


def separated_block_values(sizes, rng):
    """Eigenvalues constant on each block, well separated across blocks."""
    raw = np.array([j + 1.0 + rng.uniform(0.0, 0.4) for j in range(len(sizes))])
    rng.shuffle(raw)
    total = sum(v * s for v, s in zip(raw, sizes))
    return [v / total for v in raw]


def planted_density(dim, sizes, seed):
    rng = np.random.default_rng(seed)
    values = separated_block_values(sizes, rng)
    diag = np.concatenate([np.full(s, v) for v, s in zip(values, sizes)])
    u = random_unitary(dim, seed=seed + 1)
    return DensityMatrix(hermitize(u @ np.diag(diag) @ u.conj().T))


def random_block_sizes(dim, rng, min_blocks=2):
    while True:
        sizes, left = [], dim
        while left:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        if len(sizes) >= min(min_blocks, dim):
            return sizes


def resolutions_commute(p_res, q_res):
    return all(
        max_abs(p @ q - q @ p) <= 1e-8
        for p in dense_blocks(p_res)
        for q in dense_blocks(q_res)
    )


def test_c01_coupled_family_block_sums_stay_at_ln2():
    start = time.monotonic()
    q_low, q_high = Projector.coordinate(4, (0, 1)), Projector.coordinate(4, (2, 3))
    for k in range(11):
        rho = coupled_pair_state(k / 10.0)
        block_sum = compressed_entropy(rho, q_low) + compressed_entropy(rho, q_high)
        assert abs(block_sum - LN2) <= 1e-10
    assert abs(von_neumann_entropy(coupled_pair_state(0.0)) - math.log(4)) <= 1e-10
    assert abs(von_neumann_entropy(coupled_pair_state(1.0)) - LN2) <= 1e-10
    elapsed_under(start, 1.0)


def test_c02_tilted_family_compression_stays_below_entropy():
    start = time.monotonic()
    phi1 = math.acos(math.sqrt(0.1))
    phi2 = math.acos(math.sqrt(0.9))
    rho, q = tilted_pair_state(phi1, phi2, 0.9)
    rho_q = compressed_state(rho, q)
    assert max_abs(rho_q.mat - q.mat / 2.0) <= 1e-10
    entropy = von_neumann_entropy(rho)
    assert abs(entropy - 0.325083) <= 1e-6
    assert abs(von_neumann_entropy(rho_q) - LN2) <= 1e-9
    assert von_neumann_entropy(rho_q) > entropy
    value = compressed_entropy(rho, q)
    assert abs(value - 0.18 * LN2) <= 1e-10
    assert value <= entropy
    worst = -math.inf
    for p1 in np.linspace(0.0, math.pi / 2, 50):
        for p2 in np.linspace(0.0, math.pi / 2, 50):
            grid_rho, grid_q = tilted_pair_state(p1, p2, 0.9)
            gap = compressed_entropy(grid_rho, grid_q) - von_neumann_entropy(grid_rho)
            worst = max(worst, gap)
    assert worst <= 0.0
    elapsed_under(start, 5.0)


def run_counted(condition, cfg):
    """One audit record through the audit's runner, and how many probes it scored."""
    scored = []

    def violation(fid, inputs):
        scored.append(None)
        return condition.violation(fid, inputs)

    entry = audit._run(dataclasses.replace(condition, violation=violation), "scond", cfg)
    return entry, len(scored)


def test_c03_conditional_entropy_between_zero_and_entropy():
    # The audit's 2-bounds record on its own stream, sampled draws only.
    start = time.monotonic()
    bound = dataclasses.replace(audit._BY_KIND["bound"], stream=11, probes=tuple)
    cfg = EnsembleConfig(dims=(2, 3, 4, 5, 6, 7, 8), trials=2000, seed=11)
    entry, checked = run_counted(bound, cfg)
    assert checked == 7 * 2000
    assert entry.verdict == HOLDS
    assert entry.max_violation <= 1e-9
    elapsed_under(start, 60.0)


def test_c04_concavity_in_the_state():
    # sigma is conditioned on a degenerate spectrum: a nondegenerate sigma
    # makes every term exactly 0.0 and the inequality empty.
    start = time.monotonic()
    rng = np.random.default_rng(404)
    min_slack = math.inf
    checked = 0
    values = []
    for dim in (2, 3, 4, 5, 6):
        for trial in range(2000):
            rank = (None, dim, max(1, dim - 1))[trial % 3]
            rho1 = random_density(dim, rank, seed=seeded(rng))
            rho2 = random_density(dim, rank, seed=seeded(rng))
            sizes = random_block_sizes(dim, rng, min_blocks=1)
            while max(sizes) < 2:
                sizes = random_block_sizes(dim, rng, min_blocks=1)
            sigma = planted_density(dim, sizes, seed=seeded(rng))
            lam = float(rng.uniform(0.0, 1.0))
            mixed = DensityMatrix(lam * rho1.mat + (1.0 - lam) * rho2.mat)
            terms = [
                conditional_entropy(r, sigma).total for r in (mixed, rho1, rho2)
            ]
            slack = terms[0] - lam * terms[1] - (1.0 - lam) * terms[2]
            min_slack = min(min_slack, slack)
            values.extend(terms)
            checked += 1
    assert checked == 5 * 2000
    assert min_slack >= -1e-9, f"concavity slack {min_slack}"
    positive = sum(v > 0.0 for v in values) / len(values)
    assert positive >= 0.9, f"only {positive:.1%} of the terms are positive"
    elapsed_under(start, 60.0)


def test_c05_nondegenerate_conditioning_and_self_conditioning():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    for case in range(500):
        dim = 2 + case % 5
        rho = random_density(dim, seed=seeded(rng))
        sigma = planted_density(dim, [1] * dim, seed=seeded(rng))
        breakdown = conditional_entropy(rho, sigma)
        assert breakdown.total == 0.0
        assert all(term.factor == 0.0 for term in breakdown.per_block)
    for case in range(500):
        dim = 2 + case % 5
        sizes = random_block_sizes(dim, rng, min_blocks=1)
        rho = planted_density(dim, sizes, seed=seeded(rng))
        direct = conditional_entropy(rho, rho).total
        assert abs(self_conditional_entropy(rho) - direct) <= 1e-9
    elapsed_under(start, 30.0)


def pinch_loss(fid, x):
    """Entropy lost by pinching rho along the frame's blocks; fid is not read."""
    blocks = IdentityResolution._from_frame(x["frame"], x["sizes"])
    loss = von_neumann_entropy(x["rho"]) - von_neumann_entropy(pinch(x["rho"], blocks))
    return max(loss, 0.0), {}


# Pinching monotonicity is a property of pinch, not of a functional, so it is
# an ad-hoc record rather than an audited condition.
PINCH_MONOTONICITY = audit._Condition(
    0, "pinch-monotonicity", "", "pinch-monotonicity", pinch_loss, stream=13,
    draw=lambda rng, dim, t, cfg: {
        "rho": rand._draw_density(dim, rng, cfg.rank_profile),
        "sizes": rand._random_composition(dim, rng, degenerate=False),
        "frame": rand._haar_unitary(dim, rng),
    },
)


def test_c06_pinching_never_decreases_entropy():
    start = time.monotonic()
    cfg = EnsembleConfig(dims=(2, 3, 4, 5, 6, 7, 8), trials=2000, seed=12)
    entry, checked = run_counted(PINCH_MONOTONICITY, cfg)
    assert checked == 7 * 2000
    assert entry.verdict == HOLDS
    assert entry.max_violation <= 1e-9
    elapsed_under(start, 60.0)


def test_c07_gradient_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    for case in range(100):
        dim = 2 + case % 5
        base = random_density(dim, seed=seeded(rng))
        rho = DensityMatrix(0.9 * base.mat + 0.1 * np.eye(dim) / dim)
        rank = 1 + case % max(1, dim - 1)
        cols = sorted(rng.permutation(dim)[:rank].tolist())
        u = random_unitary(dim, seed=seeded(rng))
        q = Projector(u @ Projector.coordinate(dim, cols).mat @ u.conj().T)
        k = random_hermitian(dim, rng)
        analytic = float(np.trace(variational_gradient(rho, q) @ k).real)
        numeric = directional_difference(rho, q, k)
        scale = max(abs(numeric), 1e-3)
        assert abs(analytic - numeric) / scale <= 1e-5
    elapsed_under(start, 30.0)


def test_c08_optimizer_matches_brute_force_over_coordinate_projectors():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    for case in range(50):
        dim = 3 + case % 4
        while True:
            vals = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
            if vals[-1] > 1e-3 and np.min(vals[:-1] - vals[1:]) > 1e-3:
                break
        rho = DensityMatrix.diagonal(vals)
        for rank in range(1, dim + 1):
            brute = max(
                compressed_entropy(rho, Projector.coordinate(dim, comb))
                for comb in itertools.combinations(range(dim), rank)
            )
            result = maximize_compressed_entropy(rho, rank)
            assert result.converged
            assert abs(result.best_value - brute) <= 1e-6
            assert result.commutation_residual <= 1e-4
    for dim in (3, 4, 5, 6):
        base = random_density(dim, seed=dim)
        positive = DensityMatrix(0.8 * base.mat + 0.2 * np.eye(dim) / dim)
        report = entropy_gap_report(positive)
        assert report.all_strict
        assert report.min_margin > 0.0
    elapsed_under(start, 300.0)


def test_c09_resolution_layer_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(909)
    checked = 0
    draws = 0
    while checked < 1000:
        draws += 1
        assert draws < 1100
        dim = 2 + checked % 5
        p_res = random_resolution(dim, random_block_sizes(dim, rng), seed=seeded(rng))
        q_res = random_resolution(dim, random_block_sizes(dim, rng), seed=seeded(rng))
        if resolutions_commute(p_res, q_res):
            continue
        data = partition_from_resolutions(p_res, q_res)
        joint = np.asarray(data.joint())
        assert abs(joint.sum() - 1.0) <= 1e-9
        assert np.max(np.abs(joint.sum(axis=1) - data.p)) <= 1e-9
        assert np.max(np.abs(joint.sum(axis=0) - data.q)) <= 1e-9
        assert np.max(np.abs(data.p_given_q.sum(axis=0) - 1.0)) <= 1e-9
        q_given_p = data.swapped().p_given_q
        assert np.max(np.abs(q_given_p.sum(axis=0) - 1.0)) <= 1e-9
        bayes = data.p_given_q * data.q[np.newaxis, :] - (q_given_p * data.p[np.newaxis, :]).T
        assert np.max(np.abs(bayes)) <= 1e-9
        swap_gap = abs(
            resolution_joint_entropy(p_res, q_res) - resolution_joint_entropy(q_res, p_res)
        )
        assert swap_gap <= 1e-9
        checked += 1
    for case in range(100):
        dim = 3 + case % 4
        fine = random_resolution(dim, random_block_sizes(dim, rng), seed=seeded(rng))
        while True:
            groups = random_block_sizes(len(fine), rng, min_blocks=1)
            if len(groups) < len(fine) or len(fine) == 1:
                break
        fine_blocks = dense_blocks(fine)
        coarse_projs, at = [], 0
        for size in groups:
            block = sum(fine_blocks[at : at + size])
            coarse_projs.append(Projector(hermitize(block)))
            at += size
        coarse = type(fine)(coarse_projs)
        value = resolution_conditional_entropy(coarse, fine)
        assert resolution_leq(fine, coarse).holds
        assert value <= 1e-9
    for case in range(100):
        dim = 3 + case % 4
        p_res = random_resolution(dim, random_block_sizes(dim, rng), seed=seeded(rng))
        q_res = random_resolution(dim, random_block_sizes(dim, rng), seed=seeded(rng))
        value = resolution_conditional_entropy(p_res, q_res)
        holds = resolution_leq(q_res, p_res).holds
        assert not holds
        assert value > 1e-9
        assert (value <= 1e-9) == holds
    elapsed_under(start, 60.0)


def test_c10_desiderata_audit_reproduces_the_verdict_table():
    start = time.monotonic()
    cfg = EnsembleConfig(dims=(2, 3, 4), trials=50, seed=0)

    scond = axiom_audit("scond", cfg)
    assert scond.verdicts() == {
        "1-invariance": "holds-on-sample",
        "2-bounds": "holds-on-sample",
        "2-eq-self": "fails-with-witness",
        "2-eq-trivial": "holds-on-sample",
        "3-commuting-symmetry": "fails-with-witness",
        "4-symmetry": "fails-with-witness",
        "5-continuity-sigma": "fails-with-witness",
        "6-concavity-rho": "holds-on-sample",
        "6-concavity-sigma": "fails-with-witness",
    }
    assert audit_deviations(scond) == ()
    witnesses = {e.label: e.witness for e in scond.entries}

    self_rho = DensityMatrix(doc_to_matrix(witnesses["2-eq-self"]["rho"]))
    assert max(spectral_resolution(self_rho).ranks()) >= 2

    sym = witnesses["3-commuting-symmetry"]
    rho_m = doc_to_matrix(sym["rho"])
    sigma_m = doc_to_matrix(sym["sigma"])
    assert max_abs(rho_m @ sigma_m - sigma_m @ rho_m) <= 1e-8

    cont = witnesses["5-continuity-sigma"]
    path_rho = DensityMatrix(doc_to_matrix(cont["rho"]))
    assert path_rho.dim == 2
    values = cont["values"]
    assert abs(values[0] - von_neumann_entropy(path_rho)) <= 1e-9
    assert max(abs(v) for v in values[1:]) <= 1e-9
    assert cont["jump"] > 0.5

    hres = axiom_audit("hres", cfg)
    assert hres.verdicts() == {
        "1-invariance": "holds-on-sample",
        "2-bounds": "fails-with-witness",
        "2-eq-self": "holds-on-sample",
        "2-eq-trivial": "holds-on-sample",
        "3-commuting-symmetry": "holds-on-sample",
        "4-symmetry": "holds-on-sample",
        "5-continuity-sigma": "fails-with-witness",
        "6-concavity-rho": "fails-with-witness",
        "6-concavity-sigma": "fails-with-witness",
    }
    assert audit_deviations(hres) == ()
    hres_cont = {e.label: e for e in hres.entries}["5-continuity-sigma"]
    assert hres_cont.witness is not None
    assert hres_cont.max_violation > 0.0

    again = axiom_audit("scond", cfg)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        scond.to_dict(), sort_keys=True
    )
    hres_again = axiom_audit("hres", cfg)
    assert json.dumps(hres_again.to_dict(), sort_keys=True) == json.dumps(
        hres.to_dict(), sort_keys=True
    )
    elapsed_under(start, 120.0)


def test_c11_forced_contradiction_is_exact():
    report = impossibility_demos()
    pairs = {entry["dim"]: entry for entry in report["forced_pairs"]}
    for d in (2, 3, 4):
        assert pairs[d]["required_by_self_rule"] == 0.0
        assert pairs[d]["required_by_uniform_rule"] == math.log(d)
    assert report["decomposition"]["contradiction"] is True
