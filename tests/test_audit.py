"""Random ensembles, the two-functional condition audit, and demos."""

import json
import math

import numpy as np
import pytest

from qce import (
    EXPECTED_VERDICTS,
    FAILS,
    HOLDS,
    EnsembleConfig,
    ValidationError,
    audit_deviations,
    axiom_audit,
    coupled_family_probe,
    dim2_demo,
    impossibility_demos,
    random_density,
    random_projector,
    random_resolution,
    random_unitary,
    replay_witness,
    tilted_family_probe,
)

LN2 = math.log(2.0)
SMALL = EnsembleConfig(dims=(2, 3), trials=8, seed=7)

CONDITION_LABELS = (
    "1-invariance",
    "2-bounds",
    "2-eq-self",
    "2-eq-trivial",
    "3-commuting-symmetry",
    "4-symmetry",
    "5-continuity-sigma",
    "6-concavity-rho",
    "6-concavity-sigma",
)


# -------------------------------------------------------------- ensembles


def test_ensemble_config_validation():
    with pytest.raises(ValidationError, match="dims"):
        EnsembleConfig(dims=())
    with pytest.raises(ValidationError, match="dims"):
        EnsembleConfig(dims=(1,))
    with pytest.raises(ValidationError, match="trials"):
        EnsembleConfig(trials=0)
    with pytest.raises(ValidationError, match="seed"):
        EnsembleConfig(seed=-1)
    with pytest.raises(ValidationError, match="rank_profile"):
        EnsembleConfig(rank_profile="weird")
    with pytest.raises(ValidationError, match="gap_floor"):
        EnsembleConfig(gap_floor=0.7)


def test_random_unitary_is_unitary():
    for dim in (2, 5):
        u = random_unitary(dim, seed=3)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_random_unitary_seeded():
    np.testing.assert_allclose(random_unitary(3, seed=4), random_unitary(3, seed=4))
    assert not np.allclose(random_unitary(3, seed=4), random_unitary(3, seed=5))


def test_random_density_trace_and_rank():
    rho = random_density(4, rank=2, seed=9)
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho.mat)
    assert np.sum(evals > 1e-10) == 2


def test_random_projector_rank():
    q = random_projector(5, 3, seed=2)
    assert q.rank == 3
    np.testing.assert_allclose(q.mat @ q.mat, q.mat, atol=1e-12)


def test_random_resolution_partitions_identity():
    res = random_resolution(5, [2, 2, 1], seed=6)
    assert res.ranks() == (2, 2, 1)
    total = sum(q.mat for q in res.projectors)
    np.testing.assert_allclose(total, np.eye(5), atol=1e-12)


@pytest.mark.parametrize(
    "draw",
    [
        lambda: random_unitary(2, seed=-1),
        lambda: random_density(2, seed=-1),
        lambda: random_projector(2, 1, seed=-1),
        lambda: random_resolution(2, [1, 1], seed=-1),
        lambda: dim2_demo(seed=-1),
    ],
    ids=["random_unitary", "random_density", "random_projector", "random_resolution", "dim2_demo"],
)
def test_seeded_entry_points_reject_negative_seeds(draw):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        draw()


# ------------------------------------------------------------------ audit


@pytest.mark.parametrize("functional_id", ["scond", "hres"])
def test_audit_reproduces_expected_verdicts(functional_id):
    report = axiom_audit(functional_id, SMALL)
    assert tuple(e.label for e in report.entries) == CONDITION_LABELS
    assert report.verdicts() == EXPECTED_VERDICTS[functional_id]
    assert audit_deviations(report) == ()


def test_audit_scond_failure_set():
    expected = EXPECTED_VERDICTS["scond"]
    failing = {label for label, v in expected.items() if v == FAILS}
    assert failing == {
        "2-eq-self",
        "3-commuting-symmetry",
        "4-symmetry",
        "5-continuity-sigma",
        "6-concavity-sigma",
    }


def test_audit_hres_failure_set():
    expected = EXPECTED_VERDICTS["hres"]
    failing = {label for label, v in expected.items() if v == FAILS}
    assert failing == {
        "2-bounds",
        "5-continuity-sigma",
        "6-concavity-rho",
        "6-concavity-sigma",
    }


def test_audit_failures_carry_witnesses():
    report = axiom_audit("scond", SMALL)
    for entry in report.entries:
        if entry.verdict == FAILS:
            assert entry.witness is not None
            assert entry.max_violation > 0.0
        else:
            assert entry.verdict == HOLDS


WITNESS_KEYS = {
    "invariance": ("rho", "sigma", "unitary", "value", "value_moved"),
    "bound": ("tag", "rho", "sigma", "value", "entropy_rho"),
    "eq-self": ("tag", "rho", "value"),
    "eq-trivial": ("rho", "value", "benchmark"),
    "joint-symmetry": ("tag", "rho", "sigma", "joint", "joint_swapped"),
    "continuity": ("rho", "sigma_end", "path", "values", "jump", "smooth_variation"),
    "concavity-rho": ("tag", "lambda", "arg1", "arg2", "fixed"),
    "concavity-sigma": ("tag", "lambda", "arg1", "arg2", "fixed"),
}


def test_audit_witnesses_replay():
    c10 = EnsembleConfig(dims=(2, 3, 4), trials=50, seed=0)
    for cfg in (SMALL, c10):
        kinds = set()
        for fid in ("scond", "hres"):
            for entry in axiom_audit(fid, cfg).entries:
                w = entry.witness
                if w is None:
                    continue
                kinds.add(w["kind"])
                keys = ("kind", "functional", *WITNESS_KEYS[w["kind"]], "violation")
                assert tuple(w) == keys
                assert w["functional"] == fid
                assert w["violation"] == pytest.approx(entry.max_violation, abs=1e-10)
                assert replay_witness(w) == pytest.approx(w["violation"], abs=1e-10)
        # Every kind but invariance and eq-trivial, which hold for both.
        assert kinds == set(WITNESS_KEYS) - {"invariance", "eq-trivial"}


def test_audit_deterministic():
    a = axiom_audit("hres", SMALL).to_dict()
    b = axiom_audit("hres", SMALL).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_audit_seed_changes_samples_not_verdicts():
    other = EnsembleConfig(dims=(2, 3), trials=8, seed=123)
    assert axiom_audit("scond", other).verdicts() == EXPECTED_VERDICTS["scond"]


def test_audit_rejects_unknown_functional():
    with pytest.raises(ValidationError, match="functional"):
        axiom_audit("mystery", SMALL)


def test_replay_rejects_unknown_kind():
    with pytest.raises(ValidationError, match="kind"):
        replay_witness({"kind": "nonsense"})


# ---------------------------------------------------------- impossibility


def test_forced_pairs_are_exact():
    demos = impossibility_demos()
    pairs = demos["forced_pairs"]
    assert [row["dim"] for row in pairs] == [2, 3, 4]
    for row in pairs:
        assert row["required_by_self_rule"] == 0.0
        assert row["required_by_uniform_rule"] == math.log(row["dim"])


def test_decomposition_weights():
    d = impossibility_demos()["decomposition"]
    assert d["lambda"] == pytest.approx(4.0 / 7.0, abs=1e-12)
    assert d["contradiction"] is True
    assert d["value_at_rotated"] == pytest.approx(0.562335, abs=5e-7)
    assert d["forced_value"] == 0.0


def test_decomposition_documents_are_valid_states():
    from qce import DensityMatrix, doc_to_matrix

    d = impossibility_demos()["decomposition"]
    for key in ("rho", "rho1", "rho1_rotated"):
        DensityMatrix(doc_to_matrix(d[key]))
    lam = d["lambda"]
    rho = doc_to_matrix(d["rho"])
    rho1 = doc_to_matrix(d["rho1"])
    rho2 = doc_to_matrix(d["rho2"])
    np.testing.assert_allclose(
        lam * rho1 + (1 - lam) * rho2, rho, atol=1e-12
    )


# ----------------------------------------------------------------- probes


def test_coupled_family_probe_pins_block_structure():
    rep = coupled_family_probe(grid_points=21)
    assert rep["entropy_at_zero"] == pytest.approx(math.log(4), abs=1e-12)
    assert rep["entropy_at_one"] == pytest.approx(LN2, abs=1e-9)
    assert rep["max_block_sum_dev_from_ln2"] <= 1e-10
    assert rep["max_pinched_entropy_dev_from_ln4"] <= 1e-10
    # Conditioning by the split never exceeds the entropy anywhere on the path.
    assert rep["max_block_sum_minus_entropy"] <= 1e-10


def test_coupled_family_probe_closed_forms():
    rep = coupled_family_probe(grid_points=21)
    assert rep["max_entropy_dev_from_corrected"] <= 1e-9
    # The uncorrected form misstates the entropy by a constant ln 2.
    assert rep["min_entropy_dev_from_claimed"] == pytest.approx(LN2, abs=1e-9)


def test_tilted_family_probe_special_point():
    rep = tilted_family_probe(grid_points=12)
    sp = rep["special_point"]
    assert sp["compressed_entropy"] == pytest.approx(0.18 * LN2, abs=1e-10)
    assert sp["compressed_state_is_half_projector_dev"] <= 1e-10
    assert sp["compressed_state_entropy"] == pytest.approx(LN2, abs=1e-12)
    assert sp["entropy"] == pytest.approx(0.325083, abs=5e-7)
    assert rep["max_compressed_entropy_minus_entropy"] <= 1e-10


def test_dim2_demo_identities():
    rep = dim2_demo(seed=0)
    assert rep["conditional_on_uniform"] == pytest.approx(rep["entropy"], abs=1e-12)
    assert rep["conditional_on_nondegenerate"] == 0.0
    assert rep["conditional_on_itself"] == 0.0
    assert rep["commutant_dim_rho"] == 2
    assert rep["commutant_dim_uniform"] == 4
    assert rep["self_information_gain_of_uniform"] == pytest.approx(0.0, abs=1e-12)
