"""Refusals of malformed input, one row each: the call, the error class, a message fragment."""

import json

import numpy as np
import pytest

from qce import (
    BadShape,
    ClassicalPartitionData,
    DensityMatrix,
    IdentityResolution,
    InvalidPartitionData,
    ParseError,
    Projector,
    Tolerances,
    ValidationError,
    doc_to_matrix,
    doc_to_resolution,
    pinch,
    random_density,
    random_projector,
    resolution_leq,
)
from qce.cli import main

HALF = [0.5, 0.5]
EYE2 = [[1.0, 0.0], [0.0, 1.0]]
DIM1_BLOCK_IN_DIM2 = {"dim": 2, "blocks": [{"dim": 1, "re": [[1.0]]}]}

REFUSALS = {
    # serialize
    "serialize-dim-zero": (
        lambda: doc_to_matrix({"dim": 0, "re": [[1.0]]}), ParseError, '"dim" must be positive'),
    "serialize-no-blocks": (
        lambda: doc_to_resolution({"dim": 2}), ParseError, 'needs "dim" and "blocks"'),
    "serialize-empty-blocks": (
        lambda: doc_to_resolution({"dim": 2, "blocks": []}), ParseError,
        '"blocks" must be a nonempty list'),
    "serialize-block-not-dict": (
        lambda: doc_to_resolution({"dim": 2, "blocks": [1]}), ParseError,
        "block 0 is not a matrix document"),
    "serialize-block-dim": (
        lambda: doc_to_resolution(DIM1_BLOCK_IN_DIM2), ParseError,
        "block 0 dim 1 != document dim 2"),
    # shannon
    "shannon-joint-1d": (
        lambda: ClassicalPartitionData.from_joint([0.5, 0.5]), BadShape,
        "joint must be a nonempty 2-D matrix"),
    "shannon-joint-nan": (
        lambda: ClassicalPartitionData.from_joint([[0.5, np.nan], [0.25, 0.25]]),
        InvalidPartitionData, "joint has non-finite entries"),
    "shannon-kernel-shape": (
        lambda: ClassicalPartitionData(
            HALF, HALF, [[0.5, 0.5, 0.0], [0.5, 0.5, 1.0]], [[0.5, 0.5], [0.5, 0.5]]),
        BadShape, "p_given_q must have shape (2, 2), got (2, 3)"),
    "shannon-mixture-p": (
        lambda: ClassicalPartitionData([0.6, 0.4], HALF, EYE2, EYE2),
        InvalidPartitionData, "mixture of p_given_q columns does not give p"),
    "shannon-mixture-q": (
        lambda: ClassicalPartitionData(HALF, HALF, EYE2, [[1.0, 1.0], [0.0, 0.0]]),
        InvalidPartitionData, "mixture of q_given_p columns does not give q"),
    # rand
    "rand-density-rank": (lambda: random_density(3, rank=4), BadShape, "rank 4 outside [1, 3]"),
    "rand-projector-rank": (
        lambda: random_projector(3, rank=4), BadShape, "rank 4 outside [0, 3]"),
    # matcore
    "matcore-empty-matrix": (
        lambda: DensityMatrix(np.zeros((0, 0))), BadShape, "at least 1 x 1"),
    "matcore-diagonal-empty": (
        lambda: DensityMatrix.diagonal([]), BadShape, "nonempty 1-D sequence"),
    "matcore-pure-empty": (
        lambda: DensityMatrix.pure([]), BadShape, "pure state vector must be nonempty"),
    "matcore-basis-1d": (lambda: Projector.from_basis(np.ones(2)), BadShape, "must be 2-D"),
    "matcore-basis-wide": (
        lambda: Projector.from_basis(np.ones((2, 3))), BadShape, "more columns (3) than rows (2)"),
    "matcore-basis-nan": (
        lambda: Projector.from_basis(np.array([[np.nan], [0.0]])), ValidationError,
        "not orthonormal"),
    "matcore-resolution-empty": (
        lambda: IdentityResolution([]), ValidationError, "at least one projector"),
    "matcore-resolution-array": (
        lambda: IdentityResolution([np.eye(2)]), TypeError, "must be Projector instances"),
    "matcore-resolution-zero-block": (
        lambda: IdentityResolution([Projector.zero(2), Projector.identity(2)]),
        ValidationError, "resolution blocks must be nonzero"),
    "matcore-pinch-not-resolution": (
        lambda: pinch(DensityMatrix.maximally_mixed(2), "x"), TypeError,
        "blocks must be an IdentityResolution"),
    # Every Projector builder refuses a dimension below 1 the same way.
    **{
        f"matcore-projector-{name}-dim{dim}": (
            lambda build=build, dim=dim: build(dim), BadShape, "dimension must be positive")
        for name, build in (
            ("zero", Projector.zero),
            ("identity", Projector.identity),
            ("coordinate", lambda dim: Projector.coordinate(dim, [])),
        )
        for dim in (-2, -1, 0)
    },
    "matcore-projector-from-basis-dim0": (
        lambda: Projector.from_basis(np.zeros((0, 0))), BadShape, "dimension must be positive"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_a_block_of_another_dimension_is_a_parse_error_at_the_cli(capsys):
    rho = json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]})
    assert main(["cond-res", rho, json.dumps(DIM1_BLOCK_IN_DIM2)]) == 2
    assert "block 0 dim 1 != document dim 2" in capsys.readouterr().err


def test_a_coarse_block_no_fine_block_reaches_is_reported():
    # With orth = 0.6 each (1, +-1)/sqrt 2 block passes the containment test
    # for the first axis, so the second axis is hit by no fine block.
    tol = Tolerances(orth=0.6)
    s = np.sqrt(0.5)
    fine = IdentityResolution(
        [Projector.from_basis(np.array([[s], [t]]), tol) for t in (s, -s)], tol
    )
    coarse = IdentityResolution.coordinate(2, (1, 1), tol)
    witness = resolution_leq(fine, coarse, tol)
    assert not witness.holds
    assert witness.violation == "coarse blocks [1] contain no fine block"
