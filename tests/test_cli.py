"""End-to-end checks of the command line interface via main(argv)."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qce.cli import _build_parser, main


def h(*weights):
    return -sum(w * math.log(w) for w in weights if w > 0)


def diag_doc(*vals):
    n = len(vals)
    re = [[float(vals[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]
    return json.dumps({"dim": n, "re": re})

def matrix_doc(rows):
    return json.dumps({"dim": len(rows), "re": rows})

def blocks_doc(dim, groups):
    blocks = []
    for group in groups:
        re = [
            [1.0 if i == j and i in group else 0.0 for j in range(dim)]
            for i in range(dim)
        ]
        blocks.append({"dim": dim, "re": re})
    return json.dumps({"dim": dim, "blocks": blocks})

def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err

def run_json(argv, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    return code, json.loads(out)

def row_value(doc, name):
    hits = [r["value"] for r in doc["rows"] if r["name"] == name]
    assert hits, f"no row named {name}"
    return hits[0]


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("QCE_SEED", raising=False)


# -- output shape -----------------------------------------------------------

def test_text_header_and_entropy_row(capsys):
    code, out, err = run(["entropy", diag_doc(0.5, 0.5)], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "qce entropy (units: nats, seed: 0, profile: default)"
    assert lines[1].startswith("tolerances: ")
    assert lines[2].startswith("optimizer defaults: ")
    assert any("entropy" in line and "0.693147" in line for line in lines)


def test_json_document_shape(capsys):
    code, doc = run_json(["entropy", diag_doc(0.7, 0.3)], capsys)
    assert code == 0
    assert sorted(doc) == ["command", "report", "rows", "schema", "settings"]
    assert doc["schema"] == "qce/1"
    assert doc["command"] == "entropy"
    assert doc["settings"]["seed"] == 0
    assert doc["settings"]["tolerances"]["trace"] == 1e-9
    assert doc["settings"]["optimizer"]["restarts"] == 8
    spectrum = doc["report"]["spectrum"]
    assert [entry["rank"] for entry in spectrum] == [1, 1]
    np.testing.assert_allclose([e["value"] for e in spectrum], [0.7, 0.3], atol=1e-12)


def test_file_and_inline_input_agree(tmp_path, capsys):
    text = diag_doc(0.6, 0.4)
    path = tmp_path / "rho.json"
    path.write_text(text)
    _, from_text = run_json(["entropy", text], capsys)
    _, from_file = run_json(["entropy", str(path)], capsys)
    assert from_text == from_file


def test_tolerance_profile_flag(capsys):
    _, doc = run_json(["entropy", diag_doc(1.0, 0.0), "--tol-profile", "strict"], capsys)
    assert doc["settings"]["tol_profile"] == "strict"
    assert doc["settings"]["tolerances"]["trace"] == 1e-11
    assert doc["settings"]["tolerances"]["herm"] == 1e-10


# -- units ------------------------------------------------------------------

def test_bits_scale_entropy_rows_only(capsys):
    argv = ["entropy", diag_doc(0.7, 0.3)]
    _, nats = run_json(argv, capsys)
    _, bits = run_json(argv + ["--units", "bits"], capsys)
    n_rows = {r["name"]: r for r in nats["rows"]}
    b_rows = {r["name"]: r for r in bits["rows"]}
    assert b_rows["entropy"]["unit"] == "bits"
    np.testing.assert_allclose(
        b_rows["entropy"]["value"], n_rows["entropy"]["value"] / math.log(2)
    )
    assert b_rows["commutant_dim"] == n_rows["commutant_dim"]
    assert bits["report"] == nats["report"]


# -- exit codes -------------------------------------------------------------

def test_malformed_json_is_a_parse_error(capsys):
    code, _, err = run(["entropy", '{"dim": 2, "re": '], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "JSON" in err


def test_missing_field_is_a_parse_error(capsys):
    code, _, err = run(["entropy", '{"dim": 2}'], capsys)
    assert code == 2
    assert '"re"' in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classical", '{"joint": [[0.5, "a"]]}'],
        ["classical", '{"joint": [[0.5], [0.5, 0]]}'],
        ["classical", json.dumps({
            "p": [0.5, 0.5], "q": [0.5, 0.5],
            "p_given_q": [0.5, 0.5], "q_given_p": [[0.5, 0.5], [0.5, 0.5]],
        })],
        ["classical", json.dumps({
            "p": [[0.5], [0.5]], "q": [1.0],
            "p_given_q": [[0.5], [0.5]], "q_given_p": [[1.0, 1.0]],
        })],
        ["classical", json.dumps({
            "p": [0.5, 0.5], "q": [0.5, 0.5],
            "p_given_q": [[0.5, 0.5, 0], [0.5, 0.5, 1]], "q_given_p": [[0.5, 0.5], [0.5, 0.5]],
        })],
        ["cond-res", diag_doc(0.5, 0.5), '{"dim": "x", "blocks": [{"dim": 2, "re": [[1, 0], [0, 1]]}]}'],
        # Valid states once "dim" is truncated to 2 or read as 1.
        ["entropy", '{"dim": 2.9, "re": [[1, 0], [0, 0]]}'],
        ["entropy", '{"dim": true, "re": [[1]]}'],
        ["entropy", '{"a": ' * 10**5 + "1" + "}" * 10**5],
        ["entropy", '{"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, "a"], [0, 0]]}'],
        ["classical", json.dumps({
            "p": [1.0], "q": [], "p_given_q": [[1.0]], "q_given_p": [[1.0]],
        })],
        ["classical", json.dumps({
            "p": [0.5, 0.5], "q": [1.0],
            "p_given_q": [[0.5], [float("inf")]], "q_given_p": [[1.0, 1.0]],
        })],
        ["entropy", '{"dim": 2, "re": [[1, 0], [0]]}'],
    ],
    ids=[
        "joint-string-entry",
        "joint-ragged",
        "four-field-1d-conditional",
        "four-field-nested-marginal",
        "four-field-conditional-shape-mismatch",
        "resolution-dim-string",
        "matrix-dim-fraction",
        "matrix-dim-bool",
        "json-nested-too-deep",
        "matrix-im-string",
        "four-field-empty-marginal",
        "four-field-conditional-inf",
        "matrix-re-ragged",
    ],
)
def test_malformed_documents_are_parse_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_trace_violation_is_a_validation_error(capsys):
    code, _, err = run(["entropy", diag_doc(0.9, 0.9)], capsys)
    assert code == 3
    assert "trace" in err


def test_bad_env_seed_is_a_parse_error(monkeypatch, capsys):
    for raw in ("pi", "-3"):
        monkeypatch.setenv("QCE_SEED", raw)
        code, _, err = run(["entropy", diag_doc(0.5, 0.5)], capsys)
        assert code == 2
        assert "QCE_SEED" in err


def test_env_seed_and_flag_override(monkeypatch, capsys):
    monkeypatch.setenv("QCE_SEED", "17")
    _, doc = run_json(["entropy", diag_doc(0.5, 0.5)], capsys)
    assert doc["settings"]["seed"] == 17
    _, doc = run_json(["entropy", diag_doc(0.5, 0.5), "--seed", "5"], capsys)
    assert doc["settings"]["seed"] == 5


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["demo", "nope"],
    ["audit", "--functional", "x"],
    ["audit", "--functional", "scond", "--seed", "-1"],
])
def test_unknown_choices_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("dims", ["", "2,x"])
def test_bad_dimension_lists_exit_two(dims, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--functional", "scond", "--dims", dims])
    assert exc.value.code == 2
    assert "dimension list" in capsys.readouterr().err


# -- eigenvalue clustering flags --------------------------------------------

def test_cluster_tol_merges_the_spectrum(capsys):
    argv = ["entropy", diag_doc(0.55, 0.45), "--cluster-tol", "0.5"]
    code, doc = run_json(argv, capsys)
    assert code == 0
    assert doc["settings"]["cluster_tol"] == 0.5
    spectrum = doc["report"]["spectrum"]
    assert len(spectrum) == 1
    assert spectrum[0]["rank"] == 2
    assert row_value(doc, "commutant_dim") == 4


def test_cluster_tol_ambiguous_band_is_a_validation_error(capsys):
    code, _, err = run(
        ["entropy", diag_doc(0.55, 0.45), "--cluster-tol", "0.2"], capsys
    )
    assert code == 3
    assert "unstable" in err


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_cluster_tol_must_be_finite_and_positive(scale, capsys):
    # sigma is nondegenerate, so a NaN or inf scale that merged its spectrum
    # would print S(rho) instead of 0.
    argv = ["cond", diag_doc(0.9, 0.1), diag_doc(0.7, 0.3), "--cluster-tol", scale]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "cluster tolerance must be positive" in err


_UNCLUSTERED_COMMANDS = {
    "cond-res": ["cond-res", diag_doc(0.5, 0.3, 0.2), blocks_doc(3, [[0], [1, 2]])],
    "pinch": ["pinch", diag_doc(0.5, 0.3, 0.2), blocks_doc(3, [[0], [1, 2]])],
    "classical": ["classical", json.dumps({"joint": [[0.2, 0.1], [0.3, 0.4]]})],
    "hres": ["hres", blocks_doc(2, [[0], [1]]), blocks_doc(2, [[0, 1]])],
    "optimize": ["optimize", diag_doc(0.5, 0.3, 0.2), "--rank", "2"],
    "audit": ["audit", "--functional", "scond", "--dims", "2", "--trials", "1"],
    "demo": ["demo", "dim2"],
}


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", sorted(_UNCLUSTERED_COMMANDS))
def test_cluster_tol_is_checked_by_every_command(command, scale, capsys):
    # These commands never cluster a spectrum, so only main() can refuse the flag.
    argv = _UNCLUSTERED_COMMANDS[command] + ["--cluster-tol", scale, "--format", "json"]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "cluster tolerance must be positive" in err


TOLERANCE_FLAGS = [
    [], ["--tol-profile", "strict"], ["--tol-profile", "loose"], ["--cluster-tol", "1e-6"],
]


@pytest.mark.parametrize("argv", [
    ["audit", "--functional", "scond", "--dims", "2,3", "--trials", "4"],
    ["audit", "--functional", "hres", "--dims", "2,3", "--trials", "4"],
    *[["demo", name] for name in ("dim2", "tilted", "coupled", "impossibility")],
], ids=lambda argv: "-".join(a for a in argv[:3] if not a.startswith("--")))
def test_audit_and_demo_ignore_the_tolerance_flags(argv, capsys):
    # Their settings report the flags, yet no tolerance reaches the computation:
    # rows and report stay the same, bit for bit, under every profile and scale.
    docs = [run_json(argv + flags, capsys)[1] for flags in TOLERANCE_FLAGS]
    assert docs[1]["settings"]["tolerances"] != docs[0]["settings"]["tolerances"]
    for doc in docs[1:]:
        assert doc["rows"] == docs[0]["rows"]
        assert doc["report"] == docs[0]["report"]


# -- per-command behavior ----------------------------------------------------

def test_cond_on_uniform_recovers_the_entropy(capsys):
    code, doc = run_json(["cond", diag_doc(0.9, 0.1), diag_doc(0.5, 0.5)], capsys)
    assert code == 0
    np.testing.assert_allclose(row_value(doc, "conditional_entropy"), 0.325083, atol=5e-7)
    np.testing.assert_allclose(
        row_value(doc, "conditional_entropy"), row_value(doc, "entropy_rho"), atol=1e-12
    )
    np.testing.assert_allclose(row_value(doc, "information_gain"), 0.0, atol=1e-12)
    per_block = doc["report"]["per_block"]
    assert len(per_block) == 1
    np.testing.assert_allclose(per_block[0]["weight"], 1.0, atol=1e-12)


def test_cond_information_gain_of_a_pure_state_is_never_negative(capsys):
    # S(rho | I/4) of a pure state can come out a few ulps above S(rho).
    uniform = diag_doc(0.25, 0.25, 0.25, 0.25)
    for s in range(20):
        rng = np.random.default_rng(s)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        doc = json.dumps({"dim": 4, "re": rho.real.tolist(), "im": rho.imag.tolist()})
        code, out = run_json(["cond", doc, uniform], capsys)
        assert code == 0
        gain = row_value(out, "information_gain")
        assert 0.0 <= gain <= 1e-14 and math.copysign(1.0, gain) == 1.0, s
        code, text, _ = run(["cond", doc, uniform], capsys)
        row = next(line for line in text.splitlines() if line.startswith("information_gain"))
        assert not row.split()[1].startswith("-"), s


def test_cond_res_uses_normalized_rank_weights(capsys):
    argv = ["cond-res", diag_doc(0.25, 0.25, 0.25, 0.25), blocks_doc(4, [(0, 1), (2, 3)])]
    code, doc = run_json(argv, capsys)
    assert code == 0
    np.testing.assert_allclose(
        row_value(doc, "conditional_entropy"), 0.5 * math.log(2), atol=1e-12
    )
    np.testing.assert_allclose(row_value(doc, "entropy_rho"), math.log(4), atol=1e-12)
    assert doc["report"]["block_ranks"] == [2, 2]


def test_pinch_kills_coherences_and_reports_the_state(capsys):
    argv = ["pinch", matrix_doc([[0.5, 0.5], [0.5, 0.5]]), blocks_doc(2, [(0,), (1,)])]
    code, doc = run_json(argv, capsys)
    assert code == 0
    np.testing.assert_allclose(row_value(doc, "entropy_before"), 0.0, atol=1e-9)
    np.testing.assert_allclose(row_value(doc, "entropy_after"), math.log(2), atol=1e-9)
    np.testing.assert_allclose(row_value(doc, "entropy_increase"), math.log(2), atol=1e-9)
    pinched = doc["report"]["pinched"]
    np.testing.assert_allclose(pinched["re"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    assert "im" not in pinched


def test_classical_joint_table(capsys):
    data = json.dumps({"joint": [[0.375, 0.125], [0.125, 0.375]]})
    code, doc = run_json(["classical", data], capsys)
    assert code == 0
    np.testing.assert_allclose(row_value(doc, "h_p"), math.log(2), atol=1e-12)
    np.testing.assert_allclose(row_value(doc, "h_p_given_q"), 0.562335, atol=5e-7)
    np.testing.assert_allclose(row_value(doc, "mutual_information"), 0.130812, atol=5e-7)
    np.testing.assert_allclose(
        row_value(doc, "h_joint"),
        row_value(doc, "h_q") + row_value(doc, "h_p_given_q"),
        atol=1e-12,
    )
    assert doc["report"] == {"consequence": False, "independent": False}


def test_classical_keeps_the_loose_profile_for_both_directions(capsys):
    # The marginals sum to 1 + 1e-8: inside the loose trace tolerance only.
    doc = json.dumps({
        "p": [0.5, 0.50000001], "q": [0.5, 0.50000001],
        "p_given_q": [[1, 0], [0, 1]], "q_given_p": [[1, 0], [0, 1]],
    })
    code, out = run_json(["classical", doc, "--tol-profile", "loose"], capsys)
    assert code == 0
    assert row_value(out, "h_q_given_p") == 0.0
    code, _, err = run(["classical", doc], capsys)
    assert code == 3
    assert "sum to" in err


def test_classical_joint_table_takes_the_tolerance_profile(capsys):
    # The joint sums to 1 + 1e-8: inside the loose trace tolerance only.
    data = '{"joint": [[0.5, 0.50000001]]}'
    code, _ = run_json(["classical", data, "--tol-profile", "loose"], capsys)
    assert code == 0
    code, _, err = run(["classical", data], capsys)
    assert code == 3
    assert "joint sums to" in err


def test_classical_loose_entropies_are_never_negative(capsys):
    # The one-outcome marginal p = [1.00000001] gives -p ln p < 0 unclamped.
    data = '{"joint": [[0.5, 0.50000001]]}'
    code, doc = run_json(["classical", data, "--tol-profile", "loose"], capsys)
    assert code == 0
    assert row_value(doc, "h_p") == 0.0
    assert row_value(doc, "mutual_information") >= 0.0


def test_classical_point_mass_prints_zero_not_negative_zero(capsys):
    # X has one outcome: h_p = -(1 ln 1) and mutual_information = h_p - 0.
    data = '{"joint": [[0.5, 0.5]]}'
    code, doc = run_json(["classical", data], capsys)
    assert code == 0
    for name in ("h_p", "h_p_given_q", "mutual_information"):
        assert math.copysign(1.0, row_value(doc, name)) == 1.0
    code, out, _ = run(["classical", data], capsys)
    assert code == 0
    assert " -0 nats" not in out


def test_entropy_of_a_pure_state_prints_zero_not_negative_zero(capsys):
    code, doc = run_json(["entropy", diag_doc(1.0, 0.0)], capsys)
    assert code == 0
    assert math.copysign(1.0, row_value(doc, "entropy")) == 1.0
    code, out, _ = run(["entropy", diag_doc(1.0, 0.0)], capsys)
    assert code == 0
    assert " -0 nats" not in out


def test_classical_consequence_takes_the_tolerance_profile(capsys):
    # The first column of p_given_q is (1 - 4e-8, 4e-8): 0/1 only within 1e-7.
    data = '{"joint": [[0.5, 0.0], [2e-8, 0.49999998]]}'
    code, doc = run_json(["classical", data], capsys)
    assert code == 0
    assert doc["report"]["consequence"] is False
    code, doc = run_json(["classical", data, "--tol-profile", "loose"], capsys)
    assert code == 0
    assert doc["report"]["consequence"] is True


def test_classical_loose_table_with_one_x_outcome_has_h_y_given_x_equal_h_y(capsys):
    # X has one outcome, so H(Y|X) = H(Y); the marginals sum to 1 + 1e-8 and
    # are renormalized, like the conditional column they must agree with.
    data = '{"joint": [[0.5, 0.50000001]]}'
    code, doc = run_json(["classical", data, "--tol-profile", "loose"], capsys)
    assert code == 0
    assert row_value(doc, "h_q_given_p") == row_value(doc, "h_q")
    assert row_value(doc, "mutual_information") == 0.0


def test_classical_text_output_shows_the_verdicts(capsys):
    data = '{"joint": [[0.3, 0.0], [0.0, 0.7]]}'
    code, out, _ = run(["classical", data], capsys)
    assert code == 0
    assert "\nconsequence: True\n" in out
    assert "\nindependent: False\n" in out
    _, doc = run_json(["classical", data], capsys)
    assert doc["report"] == {"consequence": True, "independent": False}


def test_hres_trivial_conditioning(capsys):
    basis = blocks_doc(2, [(0,), (1,)])
    trivial = blocks_doc(2, [(0, 1)])
    code, doc = run_json(["hres", basis, trivial], capsys)
    assert code == 0
    np.testing.assert_allclose(row_value(doc, "h_res_p"), math.log(2), atol=1e-12)
    assert row_value(doc, "h_res_q") == 0.0
    np.testing.assert_allclose(row_value(doc, "h_res_p_given_q"), math.log(2), atol=1e-12)
    assert row_value(doc, "h_res_q_given_p") == 0.0
    np.testing.assert_allclose(row_value(doc, "h_res_joint"), math.log(2), atol=1e-12)
    np.testing.assert_allclose(doc["report"]["joint"], [[0.5], [0.5]], atol=1e-12)


def test_orders_reports_refinement_and_mixedness(capsys):
    rho = diag_doc(0.6, 0.2, 0.2)
    uniform = diag_doc(1 / 3, 1 / 3, 1 / 3)
    code, doc = run_json(["orders", rho, uniform], capsys)
    assert code == 0
    assert doc["report"]["rho_refines_sigma"]["holds"] is True
    assert doc["report"]["rho_refines_sigma"]["assignment"] == [0, 0]
    assert doc["report"]["sigma_refines_rho"]["holds"] is False
    assert doc["report"]["sigma_refines_rho"]["violation"]
    assert doc["report"]["sigma_more_mixed_than_rho"] is True
    assert doc["report"]["rho_more_mixed_than_sigma"] is False
    _, out, _ = run(["orders", rho, uniform], capsys)
    assert "rho_refines_sigma: True" in out
    assert "sigma_more_mixed_than_rho: True" in out


# -- the qce/1 contract -----------------------------------------------------
# The benchmark's cli workload (bench/workloads.py) gates on schema qce/1 and
# on the optimize report (pinned in test_optimize_rank_two_finds_the_maximum);
# settings.optimizer is the frozen record of the retired ascent's defaults.

QCE1_OPTIMIZER_JSON = (
    '{"armijo_c": 0.0001, "grad_tol": 1e-07, "max_iters": 2000, "restarts": 8, '
    '"resync_every": 25, "seed": 7, "shrink": 0.5, "step_init": 0.5}'
)
QCE1_OPTIMIZER_TEXT = (
    "optimizer defaults: step_init=0.5 armijo_c=0.0001 shrink=0.5 grad_tol=1e-07 "
    "max_iters=2000 restarts=8 seed=7 resync_every=25"
)


def test_qce1_optimizer_settings_are_frozen(capsys):
    for command in (
        ["entropy", diag_doc(0.7, 0.3)],
        ["optimize", diag_doc(0.7, 0.3), "--rank", "1"],
    ):
        code, doc = run_json(command + ["--seed", "7"], capsys)
        assert code == 0
        assert doc["schema"] == "qce/1"
        assert json.dumps(doc["settings"]["optimizer"], sort_keys=True) == QCE1_OPTIMIZER_JSON
        code, out, _ = run(command + ["--seed", "7"], capsys)
        assert code == 0
        assert out.splitlines()[2] == QCE1_OPTIMIZER_TEXT


def test_optimize_full_rank_is_immediate(capsys):
    code, doc = run_json(["optimize", diag_doc(0.5, 0.3, 0.2), "--rank", "3"], capsys)
    assert code == 0
    assert doc["report"]["converged"] is True
    assert row_value(doc, "iterations") == 0
    np.testing.assert_allclose(row_value(doc, "margin"), 0.0, atol=1e-12)


def test_optimize_rank_two_finds_the_maximum(capsys):
    code, doc = run_json(["optimize", diag_doc(0.5, 0.3, 0.2), "--rank", "2"], capsys)
    assert code == 0
    assert sorted(doc["report"]) == ["converged", "projector", "rank", "restart_values"]
    assert [r["name"] for r in doc["rows"]] == [
        "best_value", "entropy_rho", "margin", "grad_norm", "commutation_residual", "iterations",
    ]
    assert doc["report"]["converged"] is True
    assert doc["report"]["rank"] == 2
    assert doc["report"]["restart_values"] == [row_value(doc, "best_value")]
    assert row_value(doc, "iterations") == 0
    np.testing.assert_allclose(row_value(doc, "best_value"), 0.529251, atol=5e-6)
    np.testing.assert_allclose(
        row_value(doc, "margin"),
        row_value(doc, "entropy_rho") - row_value(doc, "best_value"),
        atol=1e-12,
    )
    assert row_value(doc, "commutation_residual") <= 1e-4


def test_optimize_bad_rank_is_a_validation_error(capsys):
    code, _, err = run(["optimize", diag_doc(0.5, 0.5), "--rank", "0"], capsys)
    assert code == 3
    assert "rank" in err


@pytest.mark.parametrize("functional", ["scond", "hres"])
def test_audit_matches_the_expected_verdicts(functional, capsys):
    argv = [
        "audit", "--functional", functional,
        "--dims", "2,3", "--trials", "8", "--seed", "7",
    ]
    code, doc = run_json(argv, capsys)
    assert code == 0
    assert doc["report"]["deviations"] == []
    assert doc["report"]["verdicts"] == doc["report"]["expected"]
    assert len(doc["rows"]) == 9
    assert all(r["name"].startswith("max_violation[") for r in doc["rows"])
    _, out, _ = run(argv, capsys)
    assert "deviates" not in out


# Each demo's (name, unit) rows, in order, so that no row is dropped, moved or relabeled.
DEMO_ROWS = {
    "dim2": [
        ("entropy", "nats"), ("conditional_on_uniform", "nats"),
        ("conditional_on_nondegenerate", "nats"), ("conditional_on_itself", "nats"),
    ],
    "tilted": [
        ("compressed_entropy", "nats"), ("entropy", "nats"), ("compressed_state_entropy", "nats"),
        ("max_compressed_entropy_minus_entropy", "nats"),
    ],
    "coupled": [
        ("entropy_at_zero", "nats"), ("entropy_at_one", "nats"),
        ("max_block_sum_dev_from_ln2", "nats"), ("max_block_sum_minus_entropy", "nats"),
    ],
    "impossibility": [
        *((f"forced_{rule}_d{d}", "nats") for d in (2, 3, 4) for rule in ("self", "uniform")),
        ("decomposition_weight", ""), ("value_at_rotated", "nats"),
    ],
}


@pytest.mark.parametrize("name", list(DEMO_ROWS))
def test_demo_subcommands_run(name, capsys):
    code, out, err = run(["demo", name], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith("qce demo ")
    code, doc = run_json(["demo", name], capsys)
    assert code == 0
    assert [(r["name"], r["unit"]) for r in doc["rows"]] == DEMO_ROWS[name]


def test_demo_dim2_rows(capsys):
    code, doc = run_json(["demo", "dim2"], capsys)
    assert code == 0
    assert row_value(doc, "conditional_on_uniform") == row_value(doc, "entropy")
    assert row_value(doc, "conditional_on_nondegenerate") == 0.0
    assert row_value(doc, "conditional_on_itself") == 0.0


def test_demo_impossibility_forced_pairs_are_exact(capsys):
    code, doc = run_json(["demo", "impossibility"], capsys)
    assert code == 0
    for d in (2, 3, 4):
        assert row_value(doc, f"forced_self_d{d}") == 0.0
        assert row_value(doc, f"forced_uniform_d{d}") == math.log(d)
    np.testing.assert_allclose(row_value(doc, "decomposition_weight"), 4 / 7, atol=1e-12)


# -- the golden runner's command list ----------------------------------------

def load_golden_runner():
    path = Path(__file__).resolve().parents[1] / "tools" / "golden_cli.py"
    spec = importlib.util.spec_from_file_location("golden_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_commands_parse():
    # Parsing only: the runner's argv lists must stay valid as the CLI changes.
    golden = load_golden_runner()
    parser = _build_parser()
    runs = list(golden.runs())
    assert len(runs) == len(golden.COMMANDS) * 6
    for _, argv in runs:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
