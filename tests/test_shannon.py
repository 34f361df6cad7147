"""Classical entropy layer: Shannon quantities and two-partition data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qce import (
    BadShape,
    ClassicalPartitionData,
    InvalidPartitionData,
    ProbabilityVector,
    ValidationError,
    conditional_shannon_entropy,
    is_consequence,
    is_independent,
    joint_shannon_entropy,
    mutual_information,
    shannon_entropy,
)

# Joint law with marginals (1/2, 1/2) on both sides and conditionals
# p(a|b) = 3/4 on the diagonal. H(P|Q) = h(3/4, 1/4) = (3/4)ln(4/3) + (1/4)ln 4.
DIAG_JOINT = [[0.375, 0.125], [0.125, 0.375]]
H_CONDITIONAL = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)


def probs(*w):
    return np.array(w, dtype=float)


def simplex(n):
    """Strategy for a probability vector of length n, bounded away from junk."""
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n
    ).map(lambda xs: np.array(xs) / np.sum(xs))


def test_shannon_entropy_uniform():
    for n in (2, 3, 5, 8):
        assert shannon_entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n))


def test_shannon_entropy_point_mass():
    assert shannon_entropy(probs(1.0, 0.0, 0.0)) == 0.0


def test_shannon_entropy_oracle():
    assert shannon_entropy(probs(0.75, 0.25)) == pytest.approx(H_CONDITIONAL)
    assert shannon_entropy(probs(0.8, 0.2)) == pytest.approx(0.500402, abs=5e-7)


def test_probability_vector_validation():
    np.testing.assert_allclose(ProbabilityVector([0.5, 0.5]).weights, [0.5, 0.5])
    with pytest.raises(BadShape, match="nonempty"):
        ProbabilityVector([])
    with pytest.raises(ValidationError, match="sum"):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValidationError, match="below"):
        ProbabilityVector([1.5, -0.5])
    with pytest.raises(ValidationError, match="non-finite"):
        ProbabilityVector([np.inf, 0.0])


def test_from_joint_marginals_and_conditionals():
    data = ClassicalPartitionData.from_joint(DIAG_JOINT)
    np.testing.assert_allclose(data.p, [0.5, 0.5])
    np.testing.assert_allclose(data.q, [0.5, 0.5])
    np.testing.assert_allclose(data.p_given_q, [[0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(data.q_given_p, [[0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(data.joint(), DIAG_JOINT)


def test_from_conditional_round_trip():
    data = ClassicalPartitionData.from_conditional(
        [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5]
    )
    np.testing.assert_allclose(data.joint(), DIAG_JOINT)


def test_bayes_violation_rejected():
    # Kernels are stochastic but the two factorizations disagree.
    with pytest.raises(InvalidPartitionData, match="Bayes|mixture"):
        ClassicalPartitionData(
            [0.5, 0.5],
            [0.5, 0.5],
            [[0.75, 0.25], [0.25, 0.75]],
            [[0.6, 0.4], [0.4, 0.6]],
        )


def test_nonstochastic_kernel_rejected():
    with pytest.raises(InvalidPartitionData, match="sums to|sum to 1"):
        ClassicalPartitionData.from_conditional([[0.7, 0.2], [0.2, 0.7]], [0.5, 0.5])
    with pytest.raises(InvalidPartitionData, match="sum to 1"):
        ClassicalPartitionData(
            [0.5, 0.5],
            [0.5, 0.5],
            [[0.7, 0.2], [0.2, 0.7]],
            [[0.75, 0.25], [0.25, 0.75]],
        )


def test_joint_must_normalize():
    with pytest.raises(InvalidPartitionData, match="sums to"):
        ClassicalPartitionData.from_joint([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InvalidPartitionData, match="negative"):
        ClassicalPartitionData.from_joint([[1.2, -0.2], [0.0, 0.0]])


def test_conditional_entropy_oracle():
    data = ClassicalPartitionData.from_joint(DIAG_JOINT)
    assert conditional_shannon_entropy(data) == pytest.approx(H_CONDITIONAL)
    assert conditional_shannon_entropy(data) == pytest.approx(0.562335, abs=5e-7)


def test_mutual_information_oracle():
    data = ClassicalPartitionData.from_joint(DIAG_JOINT)
    assert mutual_information(data) == pytest.approx(math.log(2) - H_CONDITIONAL)
    assert mutual_information(data) == pytest.approx(0.130812, abs=5e-7)


def test_chain_rule_on_oracle():
    data = ClassicalPartitionData.from_joint(DIAG_JOINT)
    lhs = joint_shannon_entropy(data)
    rhs = shannon_entropy(data.q) + conditional_shannon_entropy(data)
    assert lhs == pytest.approx(rhs)


def test_joint_entropy_swap_symmetric():
    data = ClassicalPartitionData.from_joint([[0.4, 0.1], [0.2, 0.3]])
    assert joint_shannon_entropy(data) == pytest.approx(
        joint_shannon_entropy(data.swapped())
    )


def test_consequence_means_zero_conditional_entropy():
    # Q determines P: each column of p_given_q is a point mass.
    data = ClassicalPartitionData.from_conditional(
        [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7]
    )
    assert is_consequence(data)
    assert conditional_shannon_entropy(data) == pytest.approx(0.0, abs=1e-12)
    assert not is_consequence(ClassicalPartitionData.from_joint(DIAG_JOINT))


def test_independence_means_full_conditional_entropy():
    joint = np.outer([0.6, 0.4], [0.3, 0.7])
    data = ClassicalPartitionData.from_joint(joint)
    assert is_independent(data)
    assert conditional_shannon_entropy(data) == pytest.approx(
        shannon_entropy(data.p)
    )
    assert not is_independent(ClassicalPartitionData.from_joint(DIAG_JOINT))


@settings(max_examples=50, deadline=None)
@given(simplex(4))
def test_entropy_bounds_property(p):
    h = shannon_entropy(p)
    assert -1e-12 <= h <= math.log(len(p)) + 1e-12


@settings(max_examples=50, deadline=None)
@given(simplex(3), simplex(3), simplex(3))
def test_conditioning_reduces_entropy_property(col0, col1, col2):
    kernel = np.column_stack([col0, col1, col2])
    q = np.array([0.2, 0.3, 0.5])
    data = ClassicalPartitionData.from_conditional(kernel, q)
    assert conditional_shannon_entropy(data) <= shannon_entropy(data.p) + 1e-9
    assert mutual_information(data) >= -1e-9


@settings(max_examples=50, deadline=None)
@given(simplex(3), simplex(3))
def test_product_joint_is_independent_property(p, q):
    data = ClassicalPartitionData.from_joint(np.outer(p, q))
    assert is_independent(data)
    assert mutual_information(data) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(simplex(2), simplex(2), simplex(2))
def test_swap_preserves_joint_entropy_property(col0, col1, w):
    kernel = np.column_stack([col0, col1])
    data = ClassicalPartitionData.from_conditional(kernel, w)
    assert joint_shannon_entropy(data.swapped()) == pytest.approx(
        joint_shannon_entropy(data), abs=1e-10
    )
    np.testing.assert_allclose(data.swapped().joint(), data.joint().T, atol=1e-12)
