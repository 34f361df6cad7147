"""Spectral entropy functionals: compressions, conditioning, pinching."""

import itertools
import math

import numpy as np
import pytest

import qce.entropy
from qce import (
    DEFAULT_TOLERANCES,
    DensityMatrix,
    IdentityResolution,
    Projector,
    QceError,
    ZeroCompression,
    compressed_entropy,
    compressed_state,
    conditional_entropy,
    conditional_entropy_given_blocks,
    hermitize,
    information_gain,
    joint_entropy,
    max_abs,
    pinch,
    random_density,
    random_unitary,
    self_conditional_entropy,
    self_information_gain,
    shannon_entropy,
    spectral_resolution,
    von_neumann_entropy,
)
from helpers import entropy_oracle, rotated

LN2 = math.log(2.0)


def h(*w):
    """Shannon entropy of an explicit list, the entropy oracle for diagonals."""
    return float(-sum(x * math.log(x) for x in w if x > 0.0))


# ---------------------------------------------------------------- entropy


def test_entropy_pure_state_zero():
    assert von_neumann_entropy(DensityMatrix.pure([1.0, 0.0])) == 0.0
    # The second state keeps an eigenvalue just above 1, and the raw sum
    # -sum w ln w over its eigenvalues is -4.4e-16.
    rng = np.random.default_rng(1)
    states = [
        DensityMatrix.pure(np.array([1.0, 1.0j]) / np.sqrt(2)),
        DensityMatrix.pure(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
    ]
    rng = np.random.default_rng(16)
    for dim in range(2, 17):
        for _ in range(20):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            states.append(DensityMatrix.pure(v))
    for rho in states:
        value = von_neumann_entropy(rho)
        assert value >= 0.0 and math.copysign(1.0, value) == 1.0
        assert value <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 7])
def test_entropy_maximally_mixed(dim):
    rho = DensityMatrix.maximally_mixed(dim)
    assert von_neumann_entropy(rho) == pytest.approx(math.log(dim), abs=1e-12)


def test_entropy_oracle_values():
    assert von_neumann_entropy(DensityMatrix.diagonal([0.9, 0.1])) == pytest.approx(
        h(0.9, 0.1)
    )
    assert von_neumann_entropy(DensityMatrix.diagonal([0.9, 0.1])) == pytest.approx(
        0.325083, abs=5e-7
    )
    assert von_neumann_entropy(DensityMatrix.diagonal([0.7, 0.3])) == pytest.approx(
        0.610864, abs=5e-7
    )


def test_entropy_unitary_invariant():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    u = random_unitary(3, seed=11)
    moved = DensityMatrix(u @ rho.mat @ u.conj().T)
    assert von_neumann_entropy(moved) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-12
    )


def test_entropy_clamps_roundoff():
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def forbid_diagonalization(monkeypatch):
    """Make eigvalsh and eigh raise, as seen from qce.entropy."""

    def refuse(*args, **kwargs):
        raise AssertionError("a kept spectrum was decomposed again")

    monkeypatch.setattr(qce.entropy.np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(qce.entropy.np.linalg, "eigh", refuse)


def clamps(mat):
    """Whether DensityMatrix(mat) clamps: the eigh it runs on the input dips below 0."""
    return bool(np.linalg.eigh(hermitize(np.asarray(mat, dtype=complex)))[0][0] < 0.0)


def clamped_state(dim, rank, seed):
    """A rank-deficient state whose constructor clamped a negative eigenvalue.

    The clamp is read from the input's spectrum; the constructor then
    diagonalized the rebuilt matrix itself. Rank one gives a pure state
    along a random complex vector.
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        if rank == 1:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v = v / float(np.linalg.norm(v))
            mat = np.outer(v, v.conj())
        else:
            w = np.concatenate([rng.random(rank) + 0.1, np.zeros(dim - rank)])
            u = random_unitary(dim, seed=int(rng.integers(1 << 30)))
            mat = (u * (w / w.sum())) @ u.conj().T
        if clamps(mat):
            return DensityMatrix(mat)
    raise AssertionError("no clamped state drawn")


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_one_block_conditioning_reads_the_kept_spectrum(dim, monkeypatch):
    # sigma = I/d, the trivial resolution and the identity projector have one
    # block spanning the space: its factor is S(rho), with no diagonalization
    # after the constructors', whether or not rho's constructor clamped.
    full = random_density(dim, seed=dim).mat
    assert not clamps(full)
    states = [
        DensityMatrix(full),
        clamped_state(dim, 1, seed=dim + 1),
        clamped_state(dim, max(1, dim // 2), seed=dim + 2),
    ]
    sigma = DensityMatrix.maximally_mixed(dim)
    trivial = IdentityResolution([Projector.identity(dim)])
    identity = Projector.identity(dim)
    oracles = [entropy_oracle(rho) for rho in states]
    forbid_diagonalization(monkeypatch)
    for rho, oracle in zip(states, oracles):
        values = [
            conditional_entropy(rho, sigma).total,
            conditional_entropy_given_blocks(rho, trivial),
            compressed_entropy(rho, identity),
        ]
        for value in values:
            assert abs(value - oracle) <= 1e-13


def test_one_block_conditioning_in_dimension_one(monkeypatch):
    rho, sigma = DensityMatrix([[1.0]]), DensityMatrix.maximally_mixed(1)
    forbid_diagonalization(monkeypatch)
    breakdown = conditional_entropy(rho, sigma)
    assert breakdown.per_block[0].factor == 0.0 and breakdown.total == 0.0
    assert compressed_entropy(rho, Projector.identity(1)) == 0.0
    assert conditional_entropy_given_blocks(rho, IdentityResolution.coordinate(1, [1])) == 0.0


def test_von_neumann_entropy_matches_eigvalsh_oracle():
    rng = np.random.default_rng(2024)
    for i in range(200):
        dim = 1 + i % 32
        kind = i % 3
        seed = int(rng.integers(1 << 30))
        if kind == 0 or dim == 1:
            rho = random_density(dim, seed=seed)
        else:
            rho = clamped_state(dim, 1 if kind == 1 else max(1, dim // 2), seed)
        assert abs(von_neumann_entropy(rho) - entropy_oracle(rho)) <= 1e-14, (dim, kind)


def test_von_neumann_entropy_reads_the_kept_eigenvalues(monkeypatch):
    states = [random_density(d, seed=d) for d in (1, 3, 16)]
    pure = [DensityMatrix.pure([1.0, 0.0, 0.0]), DensityMatrix.diagonal([0.0, 1.0])]
    oracles = [entropy_oracle(rho) for rho in states]
    forbid_diagonalization(monkeypatch)
    for rho, oracle in zip(states, oracles):
        assert abs(von_neumann_entropy(rho) - oracle) <= 1e-14
    for rho in pure:
        value = von_neumann_entropy(rho)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


# ------------------------------------------------------- relative entropy


def relative_entropy(a, b):
    """Oracle tr(A ln A) - tr(A ln B) for PSD A, B; +inf when supp(A) leaves supp(B).

    Positively homogeneous, so A and B need not be normalized. For PSD A,
    supp(A) lies in supp(B) exactly when A has no weight on the kernel of B.
    """
    wa = np.linalg.eigvalsh(a)
    wb, vb = np.linalg.eigh(b)
    live = wb > 1e-9
    kernel = vb[:, ~live]
    if np.trace(kernel.conj().T @ a @ kernel).real > 1e-9:
        return math.inf
    pos = wa[wa > 1e-9]
    diag_a = np.einsum("ji,jk,ki->i", vb[:, live].conj(), a, vb[:, live]).real
    return float(np.sum(pos * np.log(pos)) - np.sum(np.log(wb[live]) * diag_a))


def test_relative_entropy_of_state_with_itself():
    rho = np.diag([0.7, 0.3])
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_oracle():
    val = relative_entropy(np.diag([0.7, 0.3]), np.diag([0.5, 0.5]))
    assert val == pytest.approx(0.7 * math.log(1.4) + 0.3 * math.log(0.6))
    assert val == pytest.approx(0.082283, abs=5e-7)


def test_relative_entropy_disjoint_supports():
    assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf


def test_relative_entropy_homogeneous_in_scale():
    a = np.diag([0.6, 0.2])
    b = np.diag([0.3, 0.5])
    assert relative_entropy(2.0 * a, 2.0 * b) == pytest.approx(
        2.0 * relative_entropy(a, b)
    )


def test_relative_entropy_nonnegative_on_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_density(3, seed=int(rng.integers(1 << 30))).mat
        b = random_density(3, seed=int(rng.integers(1 << 30))).mat
        assert relative_entropy(a, b) >= -1e-10


# ------------------------------------------------------ block compression

RHO3 = DensityMatrix.diagonal([0.5, 0.25, 0.25])
Q01 = Projector.coordinate(3, [0, 1])


def test_compressed_entropy_rank_one_vanishes():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    for k in range(3):
        assert compressed_entropy(rho, Projector.coordinate(3, [k])) == 0.0


def test_compressed_entropy_identity_is_entropy():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    assert compressed_entropy(rho, Projector.identity(3)) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-12
    )


def test_compressed_entropy_oracle():
    # t = 3/4 and the normalized block is diag(2/3, 1/3).
    val = compressed_entropy(RHO3, Q01)
    assert val == pytest.approx(0.75 * h(2.0 / 3.0, 1.0 / 3.0), abs=1e-12)
    assert val == pytest.approx(0.477386, abs=5e-7)


def test_compressed_entropy_two_formulas_agree():
    t = 0.75
    mu = np.array([0.5, 0.25])
    direct = t * math.log(t) - float(np.sum(mu * np.log(mu)))
    assert compressed_entropy(RHO3, Q01) == pytest.approx(direct, abs=1e-12)
    state = compressed_state(RHO3, Q01)
    assert compressed_entropy(RHO3, Q01) == pytest.approx(
        t * von_neumann_entropy(state), abs=1e-12
    )


def test_compressed_entropy_relative_entropy_form():
    # Third route: minus the relative entropy of QrhoQ with respect to t Q.
    q = Q01
    c = q.mat @ RHO3.mat @ q.mat
    t = float(np.trace(c).real)
    assert compressed_entropy(RHO3, q) == pytest.approx(
        -relative_entropy(c, t * q.mat), abs=1e-10
    )


def test_compressed_entropy_vanishing_mass_is_zero():
    rho = DensityMatrix.diagonal([1.0, 0.0, 0.0])
    assert compressed_entropy(rho, Projector.coordinate(3, [1, 2])) == 0.0


def unnormalized_compressed_entropy(rho, q):
    """Oracle -tr(QrhoQ ln QrhoQ), without the t ln t correction.

    This variant exceeds compressed_entropy (by -t ln t >= 0) and does not
    vanish on rank-one compressions, so it fails the bound by the entropy of
    rho; it is the natural comparison quantity.
    """
    mu = np.linalg.eigvalsh(hermitize(q.mat @ rho.mat @ q.mat))
    pos = mu[mu > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def test_unnormalized_variant_oracle():
    # -tr(x ln x) over the block spectrum (0.5, 0.25): exactly ln 2.
    val = unnormalized_compressed_entropy(RHO3, Q01)
    assert val == pytest.approx(LN2, abs=1e-12)


def test_unnormalized_variant_dominates():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density(4, seed=int(rng.integers(1 << 30)))
        q = Projector.coordinate(4, [0, 2])
        assert unnormalized_compressed_entropy(rho, q) >= compressed_entropy(
            rho, q
        ) - 1e-12


def test_unnormalized_variant_identity_is_entropy():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    assert unnormalized_compressed_entropy(
        rho, Projector.identity(3)
    ) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def test_unnormalized_variant_can_exceed_entropy():
    # Rank-one compression of a pure state carries entropy mass even though
    # the state has none; this is why the t ln t correction matters.
    plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    q = Projector.coordinate(2, [0])
    assert unnormalized_compressed_entropy(plus, q) == pytest.approx(0.5 * LN2)
    assert von_neumann_entropy(plus) == pytest.approx(0.0, abs=1e-12)


def test_compressed_state_values():
    state = compressed_state(RHO3, Q01)
    np.testing.assert_allclose(
        state.mat, np.diag([2.0 / 3.0, 1.0 / 3.0, 0.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        compressed_state(RHO3, Projector.identity(3)).mat, RHO3.mat, atol=1e-12
    )


def test_compressed_state_zero_mass_raises():
    rho = DensityMatrix.diagonal([1.0, 0.0, 0.0])
    with pytest.raises(ZeroCompression, match="support tolerance"):
        compressed_state(rho, Projector.coordinate(3, [1, 2]))


# --------------------------------------------------- conditional entropy


def test_conditioning_on_maximally_mixed_gives_entropy():
    rho = rotated([0.8, 0.2], 0.4)
    total = conditional_entropy(rho, DensityMatrix.maximally_mixed(2)).total
    assert total == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def test_conditioning_on_nondegenerate_state_is_zero():
    rho = rotated([0.8, 0.2], 0.4)
    sigma = DensityMatrix.diagonal([0.6, 0.4])
    assert conditional_entropy(rho, sigma).total == 0.0


def test_conditional_entropy_oracle():
    rho = DensityMatrix.diagonal([0.9, 0.1])
    total = conditional_entropy(rho, DensityMatrix.maximally_mixed(2)).total
    assert total == pytest.approx(0.325083, abs=5e-7)


def test_pure_state_has_zero_conditional_entropy():
    plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    for sigma in (
        DensityMatrix.maximally_mixed(2),
        DensityMatrix.diagonal([0.75, 0.25]),
        plus,
    ):
        assert conditional_entropy(plus, sigma).total == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_orthogonal_supports():
    rho = DensityMatrix.diagonal([1.0, 0.0])
    sigma = DensityMatrix.diagonal([0.0, 1.0])
    assert conditional_entropy(rho, sigma).total == 0.0


def test_breakdown_total_matches_terms():
    rho = random_density(4, rank=4, seed=2)
    sigma = DensityMatrix.diagonal([0.4, 0.4, 0.1, 0.1])
    bd = conditional_entropy(rho, sigma)
    recomputed = sum(term.weight * term.factor for term in bd.per_block)
    assert bd.total == pytest.approx(recomputed, abs=1e-14)
    assert len(bd.per_block) == 2


def test_conditional_entropy_unitary_invariant():
    rho = random_density(3, seed=8)
    sigma = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    u = random_unitary(3, seed=9)
    moved = conditional_entropy(
        DensityMatrix(u @ rho.mat @ u.conj().T),
        DensityMatrix(u @ sigma.mat @ u.conj().T),
    ).total
    assert moved == pytest.approx(conditional_entropy(rho, sigma).total, abs=1e-10)


def test_conditional_entropy_bounded_by_entropy():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rho = random_density(3, seed=int(rng.integers(1 << 30)))
        sigma = random_density(3, seed=int(rng.integers(1 << 30)))
        val = conditional_entropy(rho, sigma).total
        assert -1e-12 <= val <= von_neumann_entropy(rho) + 1e-9


def test_conditional_entropy_concave_in_rho():
    sigma = DensityMatrix.diagonal([0.5, 0.5, 0.0])
    r1 = random_density(3, seed=21)
    r2 = random_density(3, seed=22)
    for lam in (0.25, 0.5, 0.75):
        mix = DensityMatrix(lam * r1.mat + (1 - lam) * r2.mat)
        lhs = conditional_entropy(mix, sigma).total
        rhs = lam * conditional_entropy(r1, sigma).total + (
            1 - lam
        ) * conditional_entropy(r2, sigma).total
        assert lhs >= rhs - 1e-9


def test_strictly_smaller_than_entropy_off_the_trivial_case():
    # Any nondegenerate conditioning state gives 0, strictly below the
    # entropy of a genuinely mixed state.
    rho = rotated([0.8, 0.2], 1.0)
    sigma = DensityMatrix.diagonal([0.9, 0.1])
    assert (
        conditional_entropy(rho, sigma).total
        < von_neumann_entropy(rho) - 1e-12
    )


def leveled_state(sizes, levels, seed):
    """State with the given level on each block of sizes, in a Haar frame."""
    diag = np.repeat(np.asarray(levels, dtype=float), sizes)
    u = random_unitary(len(diag), seed=seed)
    return DensityMatrix(hermitize((u * (diag / diag.sum())) @ u.conj().T))


def mixed_sizes(dim):
    """A leading block of rank dim // 4 + 1, then ranks 3, 2, 2, 3, 1 cycled."""
    sizes = [dim // 4 + 1]
    pattern = itertools.cycle((3, 2, 2, 3, 1))
    while sum(sizes) < dim:
        sizes.append(min(next(pattern), dim - sum(sizes)))
    return sizes


def cut_state(rho, bases):
    """rho compressed out of the given blocks and renormalized."""
    keep = np.concatenate(bases, axis=1)
    c = keep @ (keep.conj().T @ rho.mat @ keep) @ keep.conj().T
    return DensityMatrix(hermitize(c / np.trace(c).real))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_conditional_entropy_matches_dense_projector_terms(dim):
    # Weights and factors from the frame (level * rank, V_j* rho V_j) against
    # the dense definition: tr(Q_j sigma) and compressed_entropy in Q_j. Equal
    # ranks are compressed as one stack, so the kinds cover many equal-rank
    # blocks (up to dim/2 at rank 2), ranks held by a single block, and rank-
    # deficient sigma, whose zero levels merge into one block.
    sizes = [len(c) for c in np.array_split(np.arange(dim), max(2, dim // 4))]
    pairs = [2] * (dim // 2) + [1] * (dim % 2)
    mixed = mixed_sizes(dim)
    sigmas = {
        "nondegenerate": random_density(dim, seed=dim),
        "few-block": leveled_state(sizes, np.arange(len(sizes), 0, -1), seed=dim + 1),
        "maximally-mixed": DensityMatrix.maximally_mixed(dim),
        "rank-deficient": leveled_state(sizes, [1.0] * (len(sizes) - 1) + [0.0], seed=dim + 2),
        "rank-two": leveled_state(pairs, np.arange(len(pairs), 0, -1), seed=dim + 3),
        "mixed-ranks": leveled_state(mixed, np.arange(len(mixed), 0, -1), seed=dim + 4),
        "rank-two-deficient": leveled_state(
            pairs, [float(j) if j % 3 else 0.0 for j in range(len(pairs), 0, -1)], seed=dim + 5
        ),
    }
    rho = random_density(dim, seed=100 + dim)  # complex Ginibre: entries carry phases
    assert max_abs(rho.mat.imag) > 0.0
    for kind, sigma in sigmas.items():
        res = spectral_resolution(sigma)
        bases = res.bases()
        rhos = [rho]
        if len(bases) > 2:
            # Zero mass in the last two blocks: their factors take the t <= support cut.
            rhos.append(cut_state(rho, bases[:-2]))
        for r in rhos:
            breakdown = conditional_entropy(r, sigma)
            assert len(breakdown.per_block) == len(bases)
            for term, basis in zip(breakdown.per_block, bases):
                q = Projector.from_basis(basis)
                weight = max(float(np.trace(q.mat @ sigma.mat).real), 0.0)
                weight = 0.0 if weight <= 1e-9 else weight
                assert abs(term.weight - weight) <= 1e-12, kind
                assert abs(term.factor - compressed_entropy(r, q)) <= 1e-12, kind
            if kind == "nondegenerate":
                assert breakdown.total == 0.0
            # The bare-resolution path shares the batched compressions.
            given = sum(
                b.shape[1] / dim * compressed_entropy(r, Projector.from_basis(b)) for b in bases
            )
            assert abs(conditional_entropy_given_blocks(r, res.blocks()) - given) <= 1e-12, kind
    if dim >= 4:
        assert spectral_resolution(sigmas["rank-two"]).ranks().count(2) == dim // 2
    if dim >= 16:
        ranks = spectral_resolution(sigmas["mixed-ranks"]).ranks()
        assert ranks.count(ranks[0]) == 1 and ranks.count(2) > 1


def score_spectrum(w, tol=DEFAULT_TOLERANCES):
    """Entropy mass of one spectrum alone: mu = w clipped at zero, t = sum mu,
    t ln t - sum of mu ln mu over mu > 0, and 0.0 when t <= support."""
    mu = np.clip(w, 0.0, None)
    t = float(mu.sum())
    if t <= tol.support:
        return 0.0
    pos = mu[mu > 0.0]
    return float(t * math.log(t) - np.sum(pos * np.log(pos)))


def per_block_oracle(rho, bases, tol=DEFAULT_TOLERANCES):
    """Factors scored one spectrum at a time, as before rank groups were scored as stacks.

    Equal ranks are still compressed and diagonalized as one stack, so the
    spectra are those of the library; each is then scored alone by
    score_spectrum. A block spanning the space holds all of rho and scores
    its von Neumann entropy.
    """
    factors = [0.0] * len(bases)
    by_rank = {}
    for j, basis in enumerate(bases):
        m = basis.shape[1]
        if m == rho.dim:
            factors[j] = von_neumann_entropy(rho)
        elif m > 1:
            by_rank.setdefault(m, []).append(j)
    for group in by_rank.values():
        stack = np.array([bases[j] for j in group])
        c = hermitize(stack.conj().swapaxes(1, 2) @ rho.mat @ stack)
        for j, w in zip(group, np.linalg.eigvalsh(c)):
            factors[j] = score_spectrum(w, tol)
    return factors


@pytest.mark.parametrize(
    "sizes",
    [[4, 4, 3, 3, 2, 1], [9, 8, 8, 4, 2, 1], [2] * 32, [16]],
    ids=["mixed", "wide-mixed", "rank-two-d64", "one-block"],
)
def test_stacked_scoring_matches_the_per_block_oracle_bit_for_bit(sizes):
    # Each rank group's spectra are scored as one stack; every factor, total
    # and derived value must keep the exact bits of scoring them one by one.
    # Pure and rank-deficient states put zeros into the spectra (the rows of
    # the wide blocks then differ from a plain row sum), and a cut state has
    # blocks with mass at or below the support tolerance next to full ones.
    dim = sum(sizes)
    tol = DEFAULT_TOLERANCES
    sigma = leveled_state(sizes, np.arange(len(sizes), 0, -1), seed=dim)
    res = spectral_resolution(sigma)
    bases = res.bases()
    assert sorted(res.ranks()) == sorted(sizes)
    cut = [j for j, b in enumerate(bases) if b.shape[1] > 1][::2]
    states = [random_density(dim, seed=dim + k) for k in range(12)]
    states += [clamped_state(dim, 1, seed=dim), clamped_state(dim, max(1, dim // 4), seed=dim)]
    if len(bases) > 1:
        kept = [b for j, b in enumerate(bases) if j not in cut]
        states.append(cut_state(states[0], kept))
    for rho in states:
        oracle = per_block_oracle(rho, bases)
        assert qce.entropy._block_entropies(rho, res.frame, res.bounds, tol) == oracle
        breakdown = conditional_entropy(rho, sigma)
        assert [t.factor for t in breakdown.per_block] == oracle
        total = 0.0
        for level, rank, factor in zip(res.eigenvalues, res.ranks(), oracle):
            # A single block carries sigma's whole unit trace.
            weight = level * rank if len(sizes) > 1 else 1.0
            total += (weight if weight > tol.support else 0.0) * factor
        assert breakdown.total == total
        given = 0.0
        for rank, factor in zip(res.ranks(), oracle):
            given += (rank / dim) * factor
        assert conditional_entropy_given_blocks(rho, res) == given
        for basis in bases[:4]:
            q = Projector.from_basis(basis)
            assert compressed_entropy(rho, q) == per_block_oracle(rho, [q.range_basis()])[0]
    if len(bases) > 1:
        factors = qce.entropy._block_entropies(states[-1], res.frame, res.bounds, tol)
        assert all(factors[j] == 0.0 for j in cut)
        full = [j for j, b in enumerate(bases) if j not in cut and b.shape[1] > 1]
        assert full and all(factors[j] > 0.0 for j in full)


def test_spectrum_entropies_keep_the_bits_of_each_row_alone():
    # numpy's vectorized log and math.log can disagree in the last bit (with
    # AVX-512, on about 0.3% of inputs in (0, 1)); 5000 masses t meet some.
    rng = np.random.default_rng(7)
    w = rng.random((5000, 3)) * rng.random((5000, 1))
    w[::7, 0] = -1e-17
    w[::11, :2] = 0.0
    assert qce.entropy._spectrum_entropies(w, DEFAULT_TOLERANCES) == [score_spectrum(r) for r in w]


def test_spectrum_entropies_cut_rows_at_the_support_tolerance():
    tol = DEFAULT_TOLERANCES
    w = np.array([[0.3, 0.2], [0.4 * tol.support, 0.6 * tol.support], [-1e-17, 0.5]])
    values = qce.entropy._spectrum_entropies(w, tol)
    assert values[0] == pytest.approx(0.5 * h(0.6, 0.4), abs=1e-15)
    assert values[1:] == [0.0, 0.0]
    w = np.array([[0.0, tol.support], [1e-12, tol.support]])
    values = qce.entropy._spectrum_entropies(w, tol)
    assert values[0] == 0.0 and values[1] > 0.0


# ------------------------------------------------- self conditioning


def test_self_conditioning_nondegenerate_zero():
    assert self_conditional_entropy(DensityMatrix.diagonal([0.5, 0.3, 0.2])) == 0.0


def test_self_conditioning_closed_form():
    rho = DensityMatrix.diagonal([0.5, 0.5, 0.0])
    assert self_conditional_entropy(rho) == pytest.approx(LN2, abs=1e-12)
    mixed = DensityMatrix.maximally_mixed(4)
    assert self_conditional_entropy(mixed) == pytest.approx(math.log(4), abs=1e-12)


def test_self_conditioning_matches_general_formula():
    rho = DensityMatrix.diagonal([0.4, 0.4, 0.2])
    expected = (0.8) ** 2 * LN2
    assert self_conditional_entropy(rho) == pytest.approx(expected, abs=1e-12)
    assert conditional_entropy(rho, rho).total == pytest.approx(expected, abs=1e-12)


def test_self_information_gain_consistency():
    rho = DensityMatrix.diagonal([0.4, 0.4, 0.2])
    assert self_information_gain(rho) == pytest.approx(
        von_neumann_entropy(rho) - self_conditional_entropy(rho), abs=1e-12
    )


def test_self_information_gain_is_never_below_positive_zero():
    # A state proportional to a projector has S(rho) = S(rho | rho) but for
    # a rounding, which must not read as a negative gain.
    states = [DensityMatrix.maximally_mixed(d) for d in range(2, 65)]
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(1, dim + 1))
        mult = 1 + rng.multinomial(dim - k, np.full(k, 1.0 / k))
        diag = np.repeat(rng.random(k), mult)
        states.append(DensityMatrix.diagonal(diag / diag.sum()))
    for rho in states:
        gain = self_information_gain(rho)
        assert gain >= 0.0 and math.copysign(1.0, gain) == 1.0, (rho.dim, gain)


# ------------------------------------------- dense oracles for two formulas
#
# Two closed forms of S(rho|sigma), kept as test oracles that do not touch the
# frame code: the eigenprojectors come from numpy's eigh, and every weight,
# mass and overlap is a trace of dense dim x dim products.

ORACLE_TOL = 1e-8  # scale of the commutation and flatness checks


class NotApplicable(QceError):
    """A closed form's precondition does not hold for the given inputs."""


class NotCommuting(QceError):
    """Operands fail the commutation check a closed form requires."""


def dense_eigenprojectors(state):
    """(level, Q) for each distinct eigenvalue of a state, Q a dense matrix.

    Eigenvalues closer than 1e-6 share a projector; every oracle input here is
    exactly degenerate or split by far more than that.
    """
    w, v = np.linalg.eigh(state.mat)
    groups = np.split(np.arange(len(w)), np.nonzero(np.diff(w) > 1e-6)[0] + 1)
    return [(float(w[g].mean()), v[:, g] @ v[:, g].conj().T) for g in groups]


def flat_oracle(rho, sigma):
    """S(rho|sigma) when every block of sigma compresses rho to a flat operator.

    Applicable when every block Q_j of sigma with positive weight satisfies
    Q_j rho Q_j = c_j * (projector of rank r_j) for some c_j >= 0; the block
    then contributes tr(Q_j rho) * tr(Q_j sigma) * ln r_j. Raises
    NotApplicable when a block's compression is not flat within 1e-8.
    """
    total = 0.0
    for j, (_, q) in enumerate(dense_eigenprojectors(sigma)):
        weight = float(np.trace(q @ sigma.mat).real)
        if weight <= 1e-9:
            continue
        c = hermitize(q @ rho.mat @ q)
        mu, u = np.linalg.eigh(c)
        mu = np.clip(mu, 0.0, None)
        t = float(mu.sum())
        if t <= 1e-9:
            continue
        top = mu >= mu[-1] / 2.0
        flat_rank = int(np.count_nonzero(top))
        residual = max_abs(c - (t / flat_rank) * (u[:, top] @ u[:, top].conj().T))
        if residual > ORACLE_TOL:
            raise NotApplicable(
                f"block {j}: compression is not a projector multiple "
                f"(residual {residual:.3e})"
            )
        total += t * weight * math.log(flat_rank)
    return total


def commuting_oracle(rho, sigma):
    """S(rho|sigma) for commuting operands via the double-sum formula.

    With {P_i} the blocks of rho (eigenvalues r_i) and {Q_j} the blocks of
    sigma, the value is

        -sum_{j,i} tr(Q_j sigma) * r_i * tr(P_i Q_j) * ln(r_i / tr(rho Q_j)).

    Raises NotCommuting when the operands fail to commute within 1e-8.
    """
    if max_abs(rho.mat @ sigma.mat - sigma.mat @ rho.mat) > ORACLE_TOL:
        raise NotCommuting("operands do not commute within 1e-8")
    total = 0.0
    for _, q in dense_eigenprojectors(sigma):
        w_sigma = max(float(np.trace(q @ sigma.mat).real), 0.0)
        w_rho = max(float(np.trace(q @ rho.mat).real), 0.0)
        if w_sigma <= 1e-9 or w_rho <= 1e-9:
            continue
        for rval, p in dense_eigenprojectors(rho):
            if rval <= 1e-9:
                continue
            overlap = float(np.trace(p @ q).real)
            if overlap < 0.5:
                continue
            total -= w_sigma * rval * overlap * math.log(rval / w_rho)
    return total


def test_flat_path_matches_general_on_mixed_state():
    sigma = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    rho = DensityMatrix.maximally_mixed(3)
    assert flat_oracle(rho, sigma) == pytest.approx(
        conditional_entropy(rho, sigma).total, abs=1e-12
    )


def test_flat_path_orthogonal_supports():
    rho = DensityMatrix.diagonal([1.0, 0.0])
    sigma = DensityMatrix.diagonal([0.0, 1.0])
    assert flat_oracle(rho, sigma) == 0.0


def test_flat_path_rejects_structureless_block():
    rho = rotated([0.8, 0.2], 0.3)
    with pytest.raises(NotApplicable, match="projector multiple"):
        flat_oracle(rho, DensityMatrix.maximally_mixed(2))


def test_commuting_path_matches_general():
    rho = DensityMatrix.diagonal([0.6, 0.3, 0.1])
    sigma = DensityMatrix.diagonal([0.5, 0.25, 0.25])
    assert commuting_oracle(rho, sigma) == pytest.approx(
        conditional_entropy(rho, sigma).total, abs=1e-10
    )


def test_commuting_path_asymmetry_witness():
    rho = DensityMatrix.diagonal([0.5, 0.5, 0.0])
    sigma = DensityMatrix.maximally_mixed(3)
    forward = commuting_oracle(rho, sigma)
    backward = commuting_oracle(sigma, rho)
    assert forward == pytest.approx(LN2, abs=1e-12)
    assert backward == pytest.approx((2.0 / 3.0) * LN2, abs=1e-12)
    assert backward == pytest.approx(0.462098, abs=5e-7)
    assert abs(forward - backward) > 0.2


def test_commuting_path_rejects_noncommuting():
    rho = rotated([0.8, 0.2], 0.5)
    sigma = DensityMatrix.diagonal([0.7, 0.3])
    with pytest.raises(NotCommuting, match="commute"):
        commuting_oracle(rho, sigma)


def exact_blocks(dim, rng, zero_level):
    """Block sizes (fewer blocks than dim, so one has rank >= 2) and distinct levels.

    With zero_level and more than one block, one level is 0 (rank deficiency).
    """
    k = int(rng.integers(1, dim))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [dim])))
    levels = rng.permutation(np.arange(1.0, k + 1.0))
    if zero_level and k > 1:
        levels[rng.integers(k)] = 0.0
    return sizes, levels / float(levels @ sizes)


@pytest.mark.parametrize("dim", range(2, 17))
def test_conditional_entropy_matches_commuting_oracle(dim):
    # Two exactly degenerate spectra on shuffled columns of one Haar frame:
    # the states commute, and their blocks cut across each other.
    rng = np.random.default_rng(dim)
    u = random_unitary(dim, seed=300 + dim)
    values = []
    for trial in range(4):
        pair = []
        for zero_level in (trial % 2 == 1, trial >= 2):
            sizes, levels = exact_blocks(dim, rng, zero_level)
            diag = rng.permutation(np.repeat(levels, sizes))
            pair.append(DensityMatrix(hermitize((u * diag) @ u.conj().T)))
        for a, b in (pair, pair[::-1]):
            value = conditional_entropy(a, b).total
            assert abs(value - commuting_oracle(a, b)) <= 1e-12
            values.append(value)
    assert max(values) > 0.1


@pytest.mark.parametrize("dim", range(2, 17))
def test_conditional_entropy_matches_flat_oracle(dim):
    # rho = W M W* / tr M, where W holds orthonormal columns inside each block
    # of sigma and M is c_j * I on its diagonal blocks; off-diagonal coupling
    # (on odd trials) keeps Q_j rho Q_j = c_j P_j but breaks commutation.
    rng = np.random.default_rng(100 + dim)
    u = random_unitary(dim, seed=400 + dim)
    for trial in range(4):
        sizes, levels = exact_blocks(dim, rng, zero_level=trial >= 2)
        sigma = DensityMatrix(hermitize((u * np.repeat(levels, sizes)) @ u.conj().T))
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        cols, flat = [], []
        for j, size in enumerate(sizes):
            rank = int(rng.integers(1, size + 1))
            inner = random_unitary(size, seed=int(rng.integers(1 << 30)))[:, :rank]
            cols.append(u[:, bounds[j]:bounds[j + 1]] @ inner)
            flat.append(np.full(rank, rng.uniform(0.5, 2.0)))
        w = np.concatenate(cols, axis=1)
        c = np.concatenate(flat)
        m = np.diag(c).astype(complex)
        if trial % 2 == 1:
            g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            owner = np.repeat(np.arange(len(sizes)), [len(f) for f in flat])
            g = hermitize(np.where(owner[:, None] != owner[None, :], g, 0.0))
            if max_abs(g) > 0.0:
                m += g * (0.5 * c.min() / np.linalg.norm(g, 2))
        rho = DensityMatrix(hermitize(w @ m @ w.conj().T) / c.sum())
        assert abs(conditional_entropy(rho, sigma).total - flat_oracle(rho, sigma)) <= 1e-12


# --------------------------------------------- conditioning on bare blocks


def test_given_blocks_trivial_resolution():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    res = IdentityResolution([Projector.identity(3)])
    assert conditional_entropy_given_blocks(rho, res) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-12
    )


def test_given_blocks_rank_one_resolution():
    rho = random_density(3, seed=4)
    res = IdentityResolution.coordinate(3, [1, 1, 1])
    assert conditional_entropy_given_blocks(rho, res) == 0.0


def test_given_blocks_weighted_by_normalized_rank():
    rho = DensityMatrix.diagonal([0.5, 0.25, 0.25, 0.0])
    res = IdentityResolution.coordinate(4, [2, 2])
    f1 = compressed_entropy(rho, Projector.coordinate(4, [0, 1]))
    f2 = compressed_entropy(rho, Projector.coordinate(4, [2, 3]))
    expected = 0.5 * f1 + 0.5 * f2
    assert conditional_entropy_given_blocks(rho, res) == pytest.approx(
        expected, abs=1e-12
    )
    # The second block holds a single positive level, so only f1 contributes.
    assert f2 == 0.0
    assert f1 == pytest.approx(0.75 * h(2.0 / 3.0, 1.0 / 3.0), abs=1e-12)


def test_given_blocks_bounded_by_entropy():
    rng = np.random.default_rng(55)
    for _ in range(10):
        rho = random_density(4, seed=int(rng.integers(1 << 30)))
        res = IdentityResolution.coordinate(4, [2, 1, 1])
        val = conditional_entropy_given_blocks(rho, res)
        assert -1e-9 <= val <= von_neumann_entropy(rho) + 1e-9


# -------------------------------------------------------------- pinching


def test_pinch_fixes_block_diagonal_states():
    rho = DensityMatrix.diagonal([0.4, 0.3, 0.3])
    res = IdentityResolution.coordinate(3, [2, 1])
    np.testing.assert_allclose(pinch(rho, res).mat, rho.mat, atol=1e-14)


def test_pinch_kills_off_diagonal_blocks():
    plus = DensityMatrix(np.full((2, 2), 0.5))
    res = IdentityResolution.coordinate(2, [1, 1])
    np.testing.assert_allclose(pinch(plus, res).mat, np.eye(2) / 2, atol=1e-14)


def test_pinch_idempotent():
    rho = random_density(4, seed=12)
    res = IdentityResolution.coordinate(4, [2, 1, 1])
    once = pinch(rho, res)
    twice = pinch(once, res)
    np.testing.assert_allclose(twice.mat, once.mat, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_pinch_on_the_frame_matches_the_dense_projector_sum(dim):
    # The masked frame product against sum_j Q_j rho Q_j with dense Q_j, on a
    # frame-built spectral resolution (nondegenerate and few-block), a
    # coordinate resolution and one built from projector matrices.
    rho = random_density(dim, seed=300 + dim)
    sizes = [len(c) for c in np.array_split(np.arange(dim), max(1, dim // 3))]
    u = random_unitary(dim, seed=400 + dim)
    bounds = np.cumsum([0] + sizes)
    built = IdentityResolution(
        [Projector(hermitize(u[:, a:b] @ u[:, a:b].conj().T)) for a, b in zip(bounds, bounds[1:])]
    )
    resolutions = [
        spectral_resolution(random_density(dim, seed=500 + dim)),
        spectral_resolution(leveled_state(sizes, np.arange(len(sizes), 0, -1), seed=dim)),
        IdentityResolution.coordinate(dim, sizes),
        built,
    ]
    for res in resolutions:
        dense = sum(b @ b.conj().T @ rho.mat @ b @ b.conj().T for b in res.bases())
        assert max_abs(pinch(rho, res).mat - dense) <= 1e-14


def test_pinch_never_decreases_entropy():
    rng = np.random.default_rng(31)
    for _ in range(15):
        rho = random_density(4, seed=int(rng.integers(1 << 30)))
        res = IdentityResolution.coordinate(4, [2, 2])
        assert von_neumann_entropy(pinch(rho, res)) >= von_neumann_entropy(rho) - 1e-10


# ----------------------------------------------------- combined measures


def test_joint_entropy_decomposition():
    rho = random_density(3, seed=14)
    sigma = DensityMatrix.diagonal([0.5, 0.25, 0.25])
    assert joint_entropy(rho, sigma) == pytest.approx(
        von_neumann_entropy(sigma) + conditional_entropy(rho, sigma).total,
        abs=1e-12,
    )


def test_information_gain_bounds():
    rho = random_density(3, seed=15)
    sigma = random_density(3, seed=16)
    gain = information_gain(rho, sigma)
    assert -1e-9 <= gain <= von_neumann_entropy(rho) + 1e-9


def test_information_gain_of_a_pure_state_given_the_identity_is_never_negative():
    # A pure state can keep an eigenvalue a rounding above 1; S(rho | I/4) is
    # still S(rho) itself, +0.0, so the gain is exactly +0.0.
    sigma = DensityMatrix.maximally_mixed(4)
    for s in range(200):
        rng = np.random.default_rng(s)
        rho = DensityMatrix.pure(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        gain = information_gain(rho, sigma)
        assert gain == 0.0 and math.copysign(1.0, gain) == 1.0, s


def test_conditioning_on_a_multiple_of_the_identity_is_the_entropy_bit_for_bit():
    # S(rho | I/d) = S(rho) and no information is gained, exactly: the one
    # block weighs 1.0 and scores von_neumann_entropy(rho). Likewise for the
    # one-block coordinate resolution, weighted rank/dim = 1.0, and for the
    # compression into the identity projector, at d = 1 too. Pure, rank-
    # deficient and full-rank states, a clamped state among them, at d <= 64.
    cases = 0
    for dim in range(1, 65):
        sigma = DensityMatrix.maximally_mixed(dim)
        one_block = IdentityResolution.coordinate(dim, [dim])
        identity = Projector.identity(dim)
        ranks = sorted({1, max(1, dim // 2), dim})
        states = [random_density(dim, r, seed=8 * dim + s) for r in ranks for s in range(8)]
        if dim > 1:
            states.append(clamped_state(dim, 1, seed=dim))
        for rho in states:
            s_rho = von_neumann_entropy(rho)
            assert conditional_entropy(rho, sigma).total == s_rho, (dim, rho)
            assert information_gain(rho, sigma) == 0.0
            assert conditional_entropy_given_blocks(rho, one_block) == s_rho
            assert conditional_entropy(rho, DensityMatrix(np.eye(dim) / dim)).total == s_rho
            assert compressed_entropy(rho, identity) == s_rho
            cases += 1
    assert cases >= 1500


def test_information_gain_floors_a_rounding_above_the_entropy():
    # Given a two-block sigma, a pure state's rank-k block can score a few
    # ulps above S(rho) = 0 from eigenvalues exact only to rounding; the gain
    # reads +0.0 there rather than a negative number.
    above = 0
    for dim in range(3, 9):
        for seed in range(40):
            rho = random_density(dim, 1, seed=seed)
            k = 1 + seed % (dim - 1)
            levels = np.array([2.0] * k + [1.0] * (dim - k)) / (dim + k)
            u = random_unitary(dim, seed=seed + 1000)
            sigma = DensityMatrix((u * levels) @ u.conj().T)
            if conditional_entropy(rho, sigma).total > von_neumann_entropy(rho):
                above += 1
                gain = information_gain(rho, sigma)
                assert gain == 0.0 and math.copysign(1.0, gain) == 1.0
    assert above > 0


def test_information_gain_vanishes_conditioning_on_mixed():
    rho = random_density(3, seed=18)
    gain = information_gain(rho, DensityMatrix.maximally_mixed(3))
    assert gain == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- entropy split


# The spectrum distribution is each level repeated rank times; the block
# distribution is the resolution's weights, rank * level per distinct level.


def test_spectrum_distribution_lists_multiplicities():
    res = spectral_resolution(DensityMatrix.diagonal([0.4, 0.4, 0.2]))
    np.testing.assert_allclose(np.repeat(res.eigenvalues, res.ranks()), [0.4, 0.4, 0.2])


def test_block_distribution_oracle():
    weights = spectral_resolution(DensityMatrix.diagonal([0.4, 0.4, 0.2])).weights
    np.testing.assert_allclose(weights, [0.8, 0.2])
    assert shannon_entropy(weights) == pytest.approx(0.500402, abs=5e-7)


def test_entropy_splits_into_classical_and_degeneracy_parts():
    rho = DensityMatrix.diagonal([0.4, 0.4, 0.2])
    split = shannon_entropy(spectral_resolution(rho).weights) + 0.8 * LN2
    assert von_neumann_entropy(rho) == pytest.approx(split, abs=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(1.054920, abs=5e-7)


def test_entropy_split_holds_on_random_degenerate_states():
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = random_unitary(4, seed=int(rng.integers(1 << 30)))
        vals = np.array([0.3, 0.3, 0.3, 0.1])
        rho = DensityMatrix(u @ np.diag(vals) @ u.conj().T)
        parts = shannon_entropy(spectral_resolution(rho).weights)
        parts += 0.9 * math.log(3)
        assert von_neumann_entropy(rho) == pytest.approx(parts, abs=1e-9)
