"""State families and the JSON document layer."""

import json
import math

import numpy as np
import pytest

from qce import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    IdentityResolution,
    ParseError,
    Projector,
    ValidationError,
    compressed_entropy,
    compressed_state,
    coupled_pair_state,
    doc_to_matrix,
    doc_to_partition,
    doc_to_resolution,
    hermitize,
    load_document,
    matrix_to_doc,
    max_abs,
    random_unitary,
    resolution_to_doc,
    spectral_resolution,
    tilted_pair_state,
    von_neumann_entropy,
)
from helpers import dense_blocks

LN2 = math.log(2.0)


# ---------------------------------------------------------- state families


def test_tilted_state_structure():
    rho, q = tilted_pair_state(0.1, 0.9, 0.9)
    assert rho.dim == 4
    assert q.rank == 2
    np.testing.assert_allclose(q.mat, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15)
    # Rank two by construction: two pure lines.
    evals = np.linalg.eigvalsh(rho.mat)
    assert np.sum(evals > 1e-12) == 2


def test_tilted_state_compression_is_diagonal():
    w1 = 0.9
    phi1, phi2 = 0.3, 1.1
    rho, q = tilted_pair_state(phi1, phi2, w1)
    c = q.mat @ rho.mat @ q.mat
    expected = np.diag(
        [w1 * math.cos(phi1) ** 2, (1 - w1) * math.cos(phi2) ** 2, 0.0, 0.0]
    )
    np.testing.assert_allclose(c, expected, atol=1e-14)


def test_tilted_state_special_point():
    # Angles tuned so both tilted lines put weight 0.09 inside the plane:
    # the compressed state is maximally mixed there while t = 0.18.
    w1 = 0.9
    phi1 = math.acos(math.sqrt(0.1))
    phi2 = math.acos(math.sqrt(0.9))
    rho, q = tilted_pair_state(phi1, phi2, w1)
    np.testing.assert_allclose(
        compressed_state(rho, q).mat[:2, :2], np.eye(2) / 2, atol=1e-12
    )
    assert compressed_entropy(rho, q) == pytest.approx(0.18 * LN2, abs=1e-10)


def test_tilted_state_rejects_bad_weight():
    with pytest.raises(ValidationError, match="weight1"):
        tilted_pair_state(0.1, 0.2, 1.5)


def test_coupled_state_spectrum():
    rho = coupled_pair_state(0.6)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rho.mat), [0.1, 0.1, 0.4, 0.4], atol=1e-12
    )
    assert von_neumann_entropy(coupled_pair_state(0.0)) == pytest.approx(math.log(4))
    assert von_neumann_entropy(coupled_pair_state(1.0)) == pytest.approx(LN2, abs=1e-9)


def test_coupled_state_block_sum_constant():
    q1, q2 = Projector.coordinate(4, (0, 1)), Projector.coordinate(4, (2, 3))
    for kappa in (0.0, 0.3, 0.8, 1.0):
        rho = coupled_pair_state(kappa)
        total = compressed_entropy(rho, q1) + compressed_entropy(rho, q2)
        assert total == pytest.approx(LN2, abs=1e-10)


def test_coupled_state_rejects_bad_kappa():
    with pytest.raises(ValidationError, match="kappa"):
        coupled_pair_state(1.2)


# ------------------------------------------------------------- documents


def test_matrix_doc_round_trip():
    mat = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    doc = matrix_to_doc(mat, label="state")
    again = doc_to_matrix(doc)
    np.testing.assert_allclose(again, mat, atol=1e-15)
    assert doc["label"] == "state"


def test_real_matrix_doc_omits_imaginary_part():
    doc = matrix_to_doc(np.eye(2) / 2)
    assert "im" not in doc
    np.testing.assert_allclose(doc_to_matrix(doc), np.eye(2) / 2)


def test_load_document_from_text_and_path(tmp_path):
    doc = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}
    text = json.dumps(doc)
    assert load_document(text) == doc
    p = tmp_path / "mat.json"
    p.write_text(text)
    assert load_document(str(p)) == doc


def test_load_document_errors(tmp_path):
    with pytest.raises(ParseError, match="invalid JSON"):
        load_document("{not json")
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        load_document(str(p))
    with pytest.raises(ParseError, match="cannot read"):
        load_document("/no/such/file.json")
    with pytest.raises(ParseError, match="cannot load"):
        load_document(42)
    p.write_bytes(b"\xff\xfe{")
    with pytest.raises(ParseError, match="cannot read .*utf-8"):
        load_document(p)
    with pytest.raises(ParseError, match="nested too deeply"):
        # Nested far past the interpreter's recursion limit.
        load_document('{"a": ' * 10**5 + "1" + "}" * 10**5)


def test_doc_to_matrix_shape_errors():
    with pytest.raises(ParseError, match="grid"):
        doc_to_matrix({"dim": 2, "re": [[1.0, 0.0]]})
    with pytest.raises(ParseError, match="non-finite"):
        doc_to_matrix({"dim": 1, "re": [[float("inf")]]})


@pytest.mark.parametrize("dim", [2.9, 2.5, True, False, "2", None, [2], float("inf")])
def test_doc_dim_must_be_an_integral_number(dim):
    # A fractional dim used to be truncated and a bool read as 0 or 1.
    with pytest.raises(ParseError, match='"dim" must be an integer'):
        doc_to_matrix({"dim": dim, "re": [[1.0, 0.0], [0.0, 0.0]]})


def test_doc_dim_accepts_an_integral_float():
    np.testing.assert_array_equal(
        doc_to_matrix({"dim": 2.0, "re": [[1.0, 0.0], [0.0, 0.0]]}), np.diag([1.0, 0.0])
    )


def test_resolution_doc_round_trip():
    res = IdentityResolution.coordinate(4, [2, 1, 1])
    doc = resolution_to_doc(res)
    again = doc_to_resolution(doc)
    assert again.ranks() == (2, 1, 1)
    for a, b in zip(dense_blocks(again), dense_blocks(res)):
        np.testing.assert_allclose(a, b, atol=1e-12)

    # A frame-built resolution writes V_j V_j* of its frame columns, bit for bit.
    u = random_unitary(5, seed=11)
    levels = [0.3, 0.3, 0.2, 0.1, 0.1]
    sr = spectral_resolution(DensityMatrix(hermitize((u * levels) @ u.conj().T)))
    assert sr.ranks() == (2, 1, 2)
    doc = resolution_to_doc(sr)
    for block, b in zip(doc["blocks"], sr.bases()):
        np.testing.assert_array_equal(doc_to_matrix(block), hermitize(b @ b.conj().T))
    assert doc_to_resolution(doc).ranks() == sr.ranks()

    # Built from projector matrices, it writes V_j V_j* of the checked range
    # bases, which agree with the given matrices at the idempotence scale.
    v = random_unitary(4, seed=12)
    given = [hermitize(v[:, a:b] @ v[:, a:b].conj().T) for a, b in ((0, 1), (1, 3), (3, 4))]
    built = IdentityResolution([Projector(m) for m in given])
    again = doc_to_resolution(resolution_to_doc(built))
    assert again.ranks() == built.ranks() == (1, 2, 1)
    for m, a in zip(given, dense_blocks(again)):
        assert max_abs(a - m) <= DEFAULT_TOLERANCES.idem


def test_resolution_doc_validates_content():
    doc = {
        "dim": 2,
        "blocks": [{"dim": 2, "re": [[1.0, 0.0], [0.0, 0.5]]}],
    }
    with pytest.raises(ValidationError, match="idempotent"):
        doc_to_resolution(doc)


def test_partition_doc_both_forms():
    joint_doc = {"joint": [[0.375, 0.125], [0.125, 0.375]]}
    data = doc_to_partition(joint_doc)
    np.testing.assert_allclose(data.p, [0.5, 0.5])
    four_doc = {
        "p": [0.5, 0.5],
        "q": [0.5, 0.5],
        "p_given_q": [[0.75, 0.25], [0.25, 0.75]],
        "q_given_p": [[0.75, 0.25], [0.25, 0.75]],
    }
    data2 = doc_to_partition(four_doc)
    np.testing.assert_allclose(data2.joint(), data.joint(), atol=1e-12)


def test_partition_doc_missing_keys():
    with pytest.raises(ParseError):
        doc_to_partition({"p": [1.0]})


def test_density_doc_consumers_see_validation_errors():
    # The document layer parses structure only; role invariants are the
    # constructor's job.
    doc = matrix_to_doc(np.diag([0.7, 0.7]))
    mat = doc_to_matrix(doc)
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(mat)
