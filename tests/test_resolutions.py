"""Resolution partial orders, tau-induced partitions, and their entropies."""

import math

import numpy as np
import pytest

from qce import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    DimMismatch,
    IdentityResolution,
    Projector,
    SpectralResolution,
    commutant_dim,
    conditional_entropy,
    conditional_entropy_given_blocks,
    conditional_entropy_of_states,
    is_consequence,
    is_independent,
    more_mixed,
    partition_from_resolutions,
    pinch,
    random_density,
    random_resolution,
    random_unitary,
    resolution_conditional_entropy,
    resolution_entropy,
    resolution_joint_entropy,
    resolution_leq,
    spectral_resolution,
    tolerance_profile,
    von_neumann_entropy,
)
from qce.matcore import max_abs
from qce.resolutions import OrderWitness
from helpers import dense_blocks

H_PI6 = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)


def rank1_basis_resolution(dim, theta=0.0):
    """Rank-one resolution along a rotated orthonormal basis (dim 2 rotation)."""
    if theta == 0.0:
        return IdentityResolution.coordinate(dim, [1] * dim)
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]])
    return IdentityResolution(
        [Projector.from_basis(u[:, [k]]) for k in range(dim)]
    )


def dense_resolution_leq(p_res, q_res, tol=DEFAULT_TOLERANCES):
    """Oracle: test every (fine, coarse) pair of dense block projectors."""
    assignment = []
    for i, p in enumerate(dense_blocks(p_res)):
        hits = [
            j
            for j, q in enumerate(dense_blocks(q_res))
            if max_abs(q @ p - p) <= tol.orth
        ]
        if not hits:
            return OrderWitness(False, violation=f"block {i} lies inside no coarse block")
        if len(hits) > 1:
            return OrderWitness(
                False, violation=f"block {i} lies inside blocks {hits} ambiguously"
            )
        assignment.append(hits[0])
    missing = set(range(len(q_res))) - set(assignment)
    if missing:
        return OrderWitness(
            False, violation=f"coarse blocks {sorted(missing)} contain no fine block"
        )
    return OrderWitness(True, assignment=tuple(assignment))


def frame_resolution(frame, sizes, tol=DEFAULT_TOLERANCES):
    bounds = np.cumsum([0] + list(sizes))
    return IdentityResolution(
        [Projector.from_basis(frame[:, a:b], tol) for a, b in zip(bounds, bounds[1:])],
        tol,
    )


def random_sizes(rng, total):
    sizes = []
    while total:
        sizes.append(int(rng.integers(1, total + 1)))
        total -= sizes[-1]
    return sizes


def conjugated(res, u):
    return IdentityResolution(
        [Projector(u @ q @ u.conj().T) for q in dense_blocks(res)]
    )


# ------------------------------------------------------ tau and bayes data


def test_projector_products_have_nonnegative_tau():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = random_unitary(3, seed=int(rng.integers(1 << 30)))
        p = Projector.coordinate(3, [0, 1])
        q = Projector(u @ np.diag([1.0, 0.0, 0.0]) @ u.conj().T)
        val = np.trace(p.mat @ q.mat) / 3
        assert val.real >= -1e-12
        assert abs(val.imag) <= 1e-12


def test_bayes_data_same_basis_identity_conditionals():
    res = IdentityResolution.coordinate(3, [1, 1, 1])
    data = partition_from_resolutions(res, res)
    np.testing.assert_allclose(data.p_given_q, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(data.p, np.full(3, 1.0 / 3.0))


def test_bayes_data_trivial_conditioning():
    p_res = IdentityResolution.coordinate(4, [2, 1, 1])
    q_res = IdentityResolution([Projector.identity(4)])
    data = partition_from_resolutions(p_res, q_res)
    np.testing.assert_allclose(data.q, [1.0])
    np.testing.assert_allclose(data.p_given_q[:, 0], data.p, atol=1e-12)


def test_bayes_data_rotated_basis_oracle():
    p_res = rank1_basis_resolution(2)
    q_res = rank1_basis_resolution(2, np.pi / 6)
    data = partition_from_resolutions(p_res, q_res)
    assert data.p_given_q[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert data.p_given_q[1, 0] == pytest.approx(0.25, abs=1e-12)


def test_bayes_data_valid_for_noncommuting_inputs():
    # Validity of the partition data is the point: Bayes consistency holds
    # even when the two resolutions fail to commute.
    p_res = rank1_basis_resolution(2)
    q_res = rank1_basis_resolution(2, 0.7)
    data = partition_from_resolutions(p_res, q_res)
    joint = data.joint()
    np.testing.assert_allclose(joint.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(joint, (data.q_given_p * data.p).T, atol=1e-9)


def test_bayes_data_dim_mismatch():
    with pytest.raises(DimMismatch):
        partition_from_resolutions(
            IdentityResolution.coordinate(2, [1, 1]),
            IdentityResolution.coordinate(3, [1, 1, 1]),
        )


def test_every_dimension_mismatch_raises_the_one_message():
    # Resolutions, resolution orders and states all name the fault alike.
    two = IdentityResolution.coordinate(2, [1, 1])
    three = IdentityResolution.coordinate(3, [2, 1])
    for call in (
        lambda: partition_from_resolutions(two, three),
        lambda: resolution_leq(two, three),
        lambda: conditional_entropy(
            DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3)
        ),
    ):
        with pytest.raises(DimMismatch, match=r"^operands have dims 2 and 3$"):
            call()


# --------------------------------------------------- resolution entropies


def test_resolution_entropy_trivial_is_zero():
    # A single-block resolution carries one atom of mass 1; joint symmetry
    # of the two-resolution entropy forces this value, see the rank-1 case
    # for the maximum.
    res = IdentityResolution([Projector.identity(5)])
    assert resolution_entropy(res) == pytest.approx(0.0, abs=1e-12)


def test_resolution_entropy_rank_one_basis_is_log_dim():
    res = IdentityResolution.coordinate(4, [1, 1, 1, 1])
    assert resolution_entropy(res) == pytest.approx(math.log(4), abs=1e-12)


def test_resolution_entropy_block_sizes():
    res = IdentityResolution.coordinate(4, [2, 1, 1])
    expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    assert resolution_entropy(res) == pytest.approx(expected, abs=1e-12)


def test_conditional_resolution_entropy_trivial_conditioning():
    p_res = IdentityResolution.coordinate(4, [2, 2])
    q_res = IdentityResolution([Projector.identity(4)])
    assert resolution_conditional_entropy(p_res, q_res) == pytest.approx(
        resolution_entropy(p_res), abs=1e-12
    )


def test_conditional_resolution_entropy_refinement_vanishes():
    coarse = IdentityResolution.coordinate(4, [2, 2])
    fine = IdentityResolution.coordinate(4, [1, 1, 2])
    assert resolution_leq(fine, coarse).holds
    assert resolution_conditional_entropy(coarse, fine) == pytest.approx(
        0.0, abs=1e-12
    )


def test_conditional_resolution_entropy_rotated_oracle():
    p_res = rank1_basis_resolution(2)
    q_res = rank1_basis_resolution(2, np.pi / 6)
    val = resolution_conditional_entropy(p_res, q_res)
    assert val == pytest.approx(H_PI6, abs=1e-12)
    assert val == pytest.approx(0.562335, abs=5e-7)


def test_conditional_resolution_entropy_bounds():
    rng = np.random.default_rng(9)
    for _ in range(15):
        p_res = random_resolution(4, [2, 1, 1], seed=int(rng.integers(1 << 30)))
        q_res = random_resolution(4, [2, 2], seed=int(rng.integers(1 << 30)))
        val = resolution_conditional_entropy(p_res, q_res)
        assert -1e-12 <= val <= resolution_entropy(p_res) + 1e-9


def test_joint_resolution_entropy_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(10):
        p_res = random_resolution(3, [2, 1], seed=int(rng.integers(1 << 30)))
        q_res = random_resolution(3, [1, 1, 1], seed=int(rng.integers(1 << 30)))
        assert resolution_joint_entropy(p_res, q_res) == pytest.approx(
            resolution_joint_entropy(q_res, p_res), abs=1e-9
        )


def test_resolution_entropies_unitarily_invariant():
    p_res = IdentityResolution.coordinate(3, [2, 1])
    q_res = random_resolution(3, [1, 2], seed=3)
    u = random_unitary(3, seed=4)
    moved = resolution_conditional_entropy(conjugated(p_res, u), conjugated(q_res, u))
    assert moved == pytest.approx(
        resolution_conditional_entropy(p_res, q_res), abs=1e-10
    )


# --------------------------------------------------------- partial orders


def test_resolution_leq_reflexive():
    res = random_resolution(4, [2, 1, 1], seed=7)
    w = resolution_leq(res, res)
    assert w.holds
    assert w.assignment == (0, 1, 2)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_resolution_leq_matches_dense_pairwise_oracle(dim):
    rng = np.random.default_rng(dim)
    loose = tolerance_profile("loose")
    outcomes = set()
    for _ in range(3):
        coarse_sizes = random_sizes(rng, dim - 1) + [1]
        frame = random_unitary(dim, seed=int(rng.integers(1 << 30)))
        # A refinement: rotate inside each coarse block, then split it.
        fine_sizes, start = [], 0
        for s in coarse_sizes:
            inner = random_unitary(s, seed=int(rng.integers(1 << 30)))
            frame[:, start:start + s] = frame[:, start:start + s] @ inner
            fine_sizes += random_sizes(rng, s)
            start += s
        coarse = frame_resolution(frame, coarse_sizes)
        fine = frame_resolution(frame, fine_sizes)
        other = random_resolution(dim, random_sizes(rng, dim), int(rng.integers(1 << 30)))
        pairs = [(fine, coarse), (coarse, fine), (fine, other), (other, coarse)]
        # Tilt the first column into the last coarse block by an angle (in
        # units of tol.orth). The criterion lands between angle / dim and
        # angle: below tol.orth at 0.5, above it at 4 dim, and anywhere in
        # between for the third angle.
        loose_coarse = frame_resolution(frame, coarse_sizes, loose)
        for angle in (0.5, 4.0 * dim, 10.0 ** rng.uniform(0.0, np.log10(4.0 * dim))):
            c, s = np.cos(angle * loose.orth), np.sin(angle * loose.orth)
            tilted = frame.copy()
            tilted[:, 0] = c * frame[:, 0] + s * frame[:, -1]
            tilted[:, -1] = -s * frame[:, 0] + c * frame[:, -1]
            pairs.append((frame_resolution(tilted, fine_sizes, loose), loose_coarse, loose))
        for p_res, q_res, *tol in pairs:
            expected = dense_resolution_leq(p_res, q_res, *tol)
            assert resolution_leq(p_res, q_res, *tol) == expected
            outcomes.add((len(tol), expected.holds))
    assert outcomes == {(0, True), (0, False), (1, True), (1, False)}


def test_everything_below_trivial_resolution():
    for sizes in ([1, 1, 1, 1], [2, 2], [3, 1]):
        res = IdentityResolution.coordinate(4, sizes)
        assert resolution_leq(res, IdentityResolution([Projector.identity(4)])).holds


def test_resolution_leq_constructed_coarsening():
    fine = IdentityResolution.coordinate(4, [1, 1, 1, 1])
    coarse = IdentityResolution.coordinate(4, [2, 2])
    w = resolution_leq(fine, coarse)
    assert w.holds
    assert w.assignment == (0, 0, 1, 1)


def test_resolution_leq_fails_across_bases():
    p_res = rank1_basis_resolution(2)
    q_res = rank1_basis_resolution(2, 0.4)
    w = resolution_leq(p_res, q_res)
    assert not w.holds
    assert w.violation is not None


def test_resolution_leq_not_symmetric():
    fine = IdentityResolution.coordinate(4, [1, 1, 2])
    coarse = IdentityResolution.coordinate(4, [2, 2])
    assert resolution_leq(fine, coarse).holds
    assert not resolution_leq(coarse, fine).holds


def test_resolution_leq_transitive_on_chain():
    a = IdentityResolution.coordinate(8, [1] * 8)
    b = IdentityResolution.coordinate(8, [2, 2, 2, 2])
    c = IdentityResolution.coordinate(8, [4, 4])
    assert resolution_leq(a, b).holds
    assert resolution_leq(b, c).holds
    assert resolution_leq(a, c).holds


def test_refinement_composes_with_pinching():
    # Pinching along the finer resolution absorbs pinching along the coarser.
    rng = np.random.default_rng(13)
    fine = IdentityResolution.coordinate(4, [1, 1, 2])
    coarse = IdentityResolution.coordinate(4, [2, 2])
    for _ in range(5):
        rho = random_density(4, seed=int(rng.integers(1 << 30)))
        both = pinch(pinch(rho, coarse), fine)
        np.testing.assert_allclose(both.mat, pinch(rho, fine).mat, atol=1e-12)


def test_more_mixed_reflexive_and_toward_uniform():
    rho = DensityMatrix.diagonal([0.6, 0.2, 0.2])
    assert more_mixed(rho, rho)
    assert more_mixed(rho, DensityMatrix.maximally_mixed(3))


def test_more_mixed_blockwise_trace_condition_fails():
    rho = DensityMatrix.diagonal([0.6, 0.2, 0.2])
    sigma = DensityMatrix.diagonal([0.4, 0.4, 0.2])
    assert not more_mixed(rho, sigma)


def test_more_mixed_accepts_constructed_coarsening():
    # Averaging rho inside the top block of sigma satisfies both conditions.
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    sigma = DensityMatrix.diagonal([0.4, 0.4, 0.2])
    assert more_mixed(rho, sigma)


@pytest.mark.parametrize("dim", [3, 16, 64])
def test_more_mixed_block_masses_in_a_rotated_frame(dim):
    # sigma averages rho over blocks of one Haar frame; shifting mass between
    # two blocks keeps the refinement but breaks the mass condition.
    rng = np.random.default_rng(dim)
    u = random_unitary(dim, seed=dim)
    levels = np.sort(rng.random(dim) + 0.5)[::-1]
    levels /= levels.sum()
    sizes = [1] + [2] * ((dim - 1) // 2) + [1] * ((dim - 1) % 2)
    bounds = np.cumsum([0] + sizes)
    avg = np.concatenate([np.full(b - a, levels[a:b].mean()) for a, b in zip(bounds, bounds[1:])])
    rho = DensityMatrix((u * levels) @ u.conj().T)
    assert more_mixed(rho, DensityMatrix((u * avg) @ u.conj().T))
    shifted = avg.copy()
    shifted[0] += 1e-3
    shifted[bounds[-2]:] -= 1e-3 / sizes[-1]
    sigma = DensityMatrix((u * shifted) @ u.conj().T)
    assert resolution_leq(spectral_resolution(rho), spectral_resolution(sigma)).holds
    assert not more_mixed(rho, sigma)


def test_more_mixed_block_masses_follow_the_tolerance_profile():
    # A 1e-9 mass shift passes the default orth tolerance (1e-8), not the
    # strict one (1e-10); the refinement holds under both.
    dim = 3
    u = random_unitary(dim, seed=dim)
    levels = np.array([0.5, 0.3, 0.2])
    rho = DensityMatrix((u * levels) @ u.conj().T)
    shifted = np.array([0.5 + 1e-9, 0.25 - 0.5e-9, 0.25 - 0.5e-9])
    sigma = DensityMatrix((u * shifted) @ u.conj().T)
    strict = tolerance_profile("strict")
    assert resolution_leq(spectral_resolution(rho, strict), spectral_resolution(sigma, strict)).holds
    assert more_mixed(rho, sigma)
    assert not more_mixed(rho, sigma, strict)


def test_more_mixed_implies_entropy_and_commutant_growth():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    sigma = DensityMatrix.diagonal([0.4, 0.4, 0.2])
    assert von_neumann_entropy(rho) <= von_neumann_entropy(sigma) + 1e-9
    assert commutant_dim(rho) <= commutant_dim(sigma)


def test_commutant_dim_values():
    assert commutant_dim(DensityMatrix.maximally_mixed(3)) == 9
    assert commutant_dim(DensityMatrix.diagonal([0.5, 0.3, 0.2])) == 3
    assert commutant_dim(DensityMatrix.diagonal([0.4, 0.4, 0.2])) == 5


# ------------------------------------------- conditioning density spectra


def test_states_conditioning_on_mixed_gives_resolution_entropy():
    rho = DensityMatrix.diagonal([0.5, 0.2, 0.2, 0.1])
    val = conditional_entropy_of_states(rho, DensityMatrix.maximally_mixed(4))
    p_res = spectral_resolution(rho).blocks()
    assert val == pytest.approx(resolution_entropy(p_res), abs=1e-12)


def test_states_conditioning_on_itself_vanishes():
    rho = DensityMatrix.diagonal([0.5, 0.2, 0.2, 0.1])
    assert conditional_entropy_of_states(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_states_conditioning_rotated_oracle():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    u = np.array([[c, -s], [s, c]])
    rho = DensityMatrix.diagonal([0.7, 0.3])
    sigma = DensityMatrix(u @ np.diag([0.6, 0.4]) @ u.T)
    assert conditional_entropy_of_states(rho, sigma) == pytest.approx(
        0.562335, abs=5e-7
    )


def test_states_conditioning_ignores_eigenvalues():
    # Only the degeneracy pattern of each spectrum matters.
    c, s = np.cos(0.5), np.sin(0.5)
    u = np.array([[c, -s], [s, c]])
    sigma1 = DensityMatrix(u @ np.diag([0.6, 0.4]) @ u.T)
    sigma2 = DensityMatrix(u @ np.diag([0.9, 0.1]) @ u.T)
    rho = DensityMatrix.diagonal([0.7, 0.3])
    assert conditional_entropy_of_states(rho, sigma1) == pytest.approx(
        conditional_entropy_of_states(rho, sigma2), abs=1e-12
    )


def test_spectral_resolution_is_an_identity_resolution():
    rho = DensityMatrix.diagonal([0.4, 0.4, 0.15, 0.05])
    sr = spectral_resolution(rho)
    assert isinstance(sr, SpectralResolution)
    assert isinstance(sr, IdentityResolution)
    assert sr.blocks() is sr
    bare = IdentityResolution([Projector.from_basis(b) for b in sr.bases()])
    # Every consumer of a bare resolution takes the spectral one as it is.
    np.testing.assert_array_equal(pinch(rho, sr).mat, pinch(rho, bare).mat)
    np.testing.assert_allclose(pinch(rho, sr).mat, rho.mat, atol=1e-15)
    assert conditional_entropy_given_blocks(rho, sr) == conditional_entropy_given_blocks(
        rho, bare
    )
    joint = partition_from_resolutions(sr, sr).joint()
    np.testing.assert_allclose(joint, np.diag([0.5, 0.25, 0.25]), atol=1e-15)
    assert resolution_entropy(sr) == resolution_entropy(bare)


# ----------------------------------------------- consequence/independence


def test_tau_consequence_iff_refinement():
    coarse = IdentityResolution.coordinate(4, [2, 2])
    fine = IdentityResolution.coordinate(4, [1, 1, 2])
    assert is_consequence(partition_from_resolutions(coarse, fine))
    assert not is_consequence(partition_from_resolutions(fine, coarse))


def test_tau_independence_iff_trivial_factor():
    p_res = IdentityResolution.coordinate(4, [2, 1, 1])
    trivial = IdentityResolution([Projector.identity(4)])
    assert is_independent(partition_from_resolutions(p_res, trivial))
    assert is_independent(partition_from_resolutions(trivial, p_res))
    rotated = rank1_basis_resolution(2, np.pi / 6)
    plain = rank1_basis_resolution(2)
    assert not is_independent(partition_from_resolutions(plain, rotated))
    assert not is_consequence(partition_from_resolutions(plain, rotated))
