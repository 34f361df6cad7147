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
    ValidationError,
    conditional_shannon_entropy,
    is_consequence,
    is_independent,
    joint_shannon_entropy,
    mutual_information,
    shannon_entropy,
    tolerance_profile,
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


def test_shannon_entropy_refuses_invalid_weights():
    assert shannon_entropy([0.5, 0.5]) == math.log(2.0)
    with pytest.raises(BadShape, match="nonempty"):
        shannon_entropy([])
    with pytest.raises(ValidationError, match="sum"):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValidationError, match="below"):
        shannon_entropy([1.5, -0.5])
    with pytest.raises(ValidationError, match="non-finite"):
        shannon_entropy([np.inf, 0.0])
    # Nested weights are refused, not flattened.
    with pytest.raises(BadShape, match="1-D"):
        shannon_entropy([[0.5], [0.5]])


def test_accepted_weights_are_renormalized_once():
    # The Y marginal of a one-row table is that row, validated by the rule
    # shannon_entropy applies to its argument.
    loose = tolerance_profile("loose")
    scaled = np.array([0.5, 0.50000001]) / 1.00000001
    np.testing.assert_array_equal(
        ClassicalPartitionData.from_joint([[0.5, 0.50000001]], loose).q, scaled
    )
    assert shannon_entropy([0.5, 0.50000001], loose) == shannon_entropy(scaled)
    # Normalized weights, and sums off by rounding only, are kept bit for bit.
    thirds = np.array([1.0, 1.0, 1.0]) / 3.0
    for w in (scaled, np.array([0.25, 0.75]), thirds, np.array([3.0, 2.0, 2.0]) / 7.0):
        np.testing.assert_array_equal(ClassicalPartitionData.from_joint([w]).q, w)
        assert shannon_entropy(w) == float(-np.sum(w * np.log(w)))
    # One X outcome: the Y marginal and the conditional column are the same
    # division, so H(Y|X) = H(Y) to the bit.
    data = ClassicalPartitionData.from_joint([[0.5, 0.50000001]], loose)
    np.testing.assert_array_equal(data.p, [1.0])
    assert conditional_shannon_entropy(data.swapped()) == shannon_entropy(data.q)


def test_from_joint_marginals_and_conditionals():
    data = ClassicalPartitionData.from_joint(DIAG_JOINT)
    np.testing.assert_allclose(data.p, [0.5, 0.5])
    np.testing.assert_allclose(data.q, [0.5, 0.5])
    np.testing.assert_allclose(data.p_given_q, [[0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(data.swapped().p_given_q, [[0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(data.joint(), DIAG_JOINT)


def test_kernel_times_marginal_round_trips_through_from_joint():
    kernel = np.array([[0.75, 0.25], [0.25, 0.75]])
    data = ClassicalPartitionData.from_joint(kernel * [0.5, 0.5])
    np.testing.assert_array_equal(data.joint(), DIAG_JOINT)
    np.testing.assert_array_equal(data.p_given_q, kernel)


def random_joints(count=200):
    """Seeded random joint tables of shapes 1..6 x 1..6, some with zero rows."""
    rng = np.random.default_rng(20)
    for k in range(count):
        n, m = 1 + k % 6, 1 + (k // 6) % 6
        j = rng.dirichlet(np.ones(n * m)).reshape(n, m)
        if k % 5 == 0 and n > 1:
            j[rng.integers(n)] = 0.0
            j /= j.sum()
        yield j


def test_joint_returns_the_stored_table():
    for j in random_joints():
        table = ClassicalPartitionData.from_joint(j).joint()
        np.testing.assert_array_equal(table, j)
        assert not table.flags.writeable


def test_swapped_is_the_transposed_table():
    for j in [np.array(DIAG_JOINT), *random_joints()]:
        data = ClassicalPartitionData.from_joint(j)
        swapped, direct = data.swapped(), ClassicalPartitionData.from_joint(data.joint().T)
        for field in ("p", "q", "p_given_q"):
            np.testing.assert_array_equal(getattr(swapped, field), getattr(direct, field))
        np.testing.assert_array_equal(
            swapped.swapped().p_given_q, direct.swapped().p_given_q
        )
        np.testing.assert_array_equal(swapped.joint(), direct.joint())


def test_four_field_form_agrees_with_the_joint():
    kernel = [[0.75, 0.25], [0.25, 0.75]]
    four = ClassicalPartitionData([0.5, 0.5], [0.5, 0.5], kernel, kernel)
    joint = ClassicalPartitionData.from_joint(DIAG_JOINT)
    for field in ("p", "q", "p_given_q"):
        np.testing.assert_array_equal(getattr(four, field), getattr(joint, field))
    np.testing.assert_array_equal(four.swapped().p_given_q, joint.swapped().p_given_q)
    np.testing.assert_array_equal(four.joint(), joint.joint())
    np.testing.assert_array_equal(four.joint(), DIAG_JOINT)


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
    with pytest.raises(InvalidPartitionData, match="sums to"):
        ClassicalPartitionData.from_joint(np.array([[0.7, 0.2], [0.2, 0.7]]) * [0.5, 0.5])
    with pytest.raises(InvalidPartitionData, match="sum to 1"):
        ClassicalPartitionData(
            [0.5, 0.5],
            [0.5, 0.5],
            [[0.7, 0.2], [0.2, 0.7]],
            [[0.75, 0.25], [0.25, 0.75]],
        )
    # Columns summing to 1.1 and 0.9 mix to a distribution, p = kernel q, and
    # q_given_p is their Bayes inverse: only the kernel's column sums are wrong.
    kernel = np.array([[0.9, 0.0], [0.2, 0.9]])
    joint = kernel * [0.5, 0.5]
    p = joint.sum(axis=1)
    with pytest.raises(InvalidPartitionData, match="^columns of p_given_q do not sum to 1$"):
        ClassicalPartitionData(p, [0.5, 0.5], kernel, joint.T / p)


def test_joint_must_normalize():
    with pytest.raises(InvalidPartitionData, match="sums to"):
        ClassicalPartitionData.from_joint([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InvalidPartitionData, match="negative"):
        ClassicalPartitionData.from_joint([[1.2, -0.2], [0.0, 0.0]])


def test_joint_sum_message_prints_a_plain_float():
    with pytest.raises(InvalidPartitionData, match=r"^joint sums to 1\.00000001, not 1$"):
        ClassicalPartitionData.from_joint([[0.5, 0.50000001]])


def test_swapped_keeps_the_construction_tolerances():
    p = [0.5, 0.50000001]
    with pytest.raises(ValidationError):
        ClassicalPartitionData(p, p, np.eye(2), np.eye(2))
    data = ClassicalPartitionData(p, p, np.eye(2), np.eye(2), tolerance_profile("loose"))
    assert conditional_shannon_entropy(data.swapped()) == 0.0


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
    data = ClassicalPartitionData.from_joint([[0.3, 0.0], [0.0, 0.7]])
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


def test_consequence_and_independence_follow_the_data_tolerances():
    # Both tests are off by 4e-8: beyond the default trace tolerance (1e-9),
    # inside the loose one (1e-7).
    loose = tolerance_profile("loose")
    near_consequence = [[0.5, 0.0], [2e-8, 0.49999998]]
    assert not is_consequence(ClassicalPartitionData.from_joint(near_consequence))
    assert is_consequence(ClassicalPartitionData.from_joint(near_consequence, loose))
    near_product = [[0.25 + 2e-8, 0.25 - 2e-8], [0.25 - 2e-8, 0.25 + 2e-8]]
    assert not is_independent(ClassicalPartitionData.from_joint(near_product))
    assert is_independent(ClassicalPartitionData.from_joint(near_product, loose))


def test_shannon_entropy_validates_with_the_given_tolerances():
    over = np.array([1.0 + 5e-8])
    with pytest.raises(ValidationError, match="sum"):
        shannon_entropy(over)
    # Accepted under the loose trace tolerance, and renormalized to a point mass.
    assert shannon_entropy(over, tolerance_profile("loose")) == 0.0
    assert shannon_entropy([0.5, 0.5], tolerance_profile("strict")) == math.log(2.0)


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
    data = ClassicalPartitionData.from_joint(kernel * q)
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
    data = ClassicalPartitionData.from_joint(kernel * w)
    assert joint_shannon_entropy(data.swapped()) == pytest.approx(
        joint_shannon_entropy(data), abs=1e-10
    )
    np.testing.assert_allclose(data.swapped().joint(), data.joint().T, atol=1e-12)
