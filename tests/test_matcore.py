"""Validation, spectral clustering, and projector algebra checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qce import (
    DEFAULT_TOLERANCES,
    BadShape,
    ClusterAmbiguity,
    DensityMatrix,
    DimMismatch,
    IdentityResolution,
    NotHermitian,
    NotPSD,
    Projector,
    SpectralResolution,
    Tolerances,
    ValidationError,
    commutator_residual,
    compressed_entropy,
    compressed_state,
    conditional_entropy,
    entropy_gap_report,
    hermitize,
    max_abs,
    maximize_compressed_entropy,
    random_unitary,
    spectral_resolution,
    tolerance_profile,
    variational_gradient,
    von_neumann_entropy,
)
from qce.matcore import _cluster_sizes, _orth_deviation
from qce.states import _decomposition_weight


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_density_accepts_diagonal():
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    assert rho.dim == 2
    np.testing.assert_allclose(rho.mat, np.diag([0.7, 0.3]))


def test_density_rejects_nonhermitian():
    with pytest.raises(NotHermitian, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD, match="below"):
        DensityMatrix(np.diag([1.2, -0.2]))


def test_density_rejects_bad_trace():
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]))


def test_density_rejects_nonsquare():
    with pytest.raises(BadShape, match="square"):
        DensityMatrix(np.ones((2, 3)))


@pytest.mark.parametrize("cls", [DensityMatrix, Projector], ids=lambda c: c.__name__)
@pytest.mark.parametrize("part", [1.0, 1j], ids=["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_entries_are_rejected(cls, part, bad):
    # A NaN or an infinity in either part of any entry, on or off the diagonal.
    for i, j in ((0, 0), (0, 1)):
        mat = np.diag([1.0, 0.0]).astype(complex)
        mat[i, j] += bad * part
        with pytest.raises(ValidationError, match="non-finite"):
            cls(mat)


def test_density_tolerates_roundoff_negative():
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
    assert rho.dim == 2


def test_density_constructors():
    np.testing.assert_allclose(DensityMatrix.maximally_mixed(4).mat, np.eye(4) / 4)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(DensityMatrix.pure(v).mat, np.full((2, 2), 0.5))
    np.testing.assert_allclose(
        DensityMatrix.diagonal([0.5, 0.3, 0.2]).mat, np.diag([0.5, 0.3, 0.2])
    )
    with pytest.raises(ValidationError, match="nonzero"):
        DensityMatrix.pure([0.0, 0.0])
    with pytest.raises(BadShape, match="positive"):
        DensityMatrix.maximally_mixed(0)


def test_projector_coordinate():
    q = Projector.coordinate(3, [0, 2])
    assert q.rank == 2
    np.testing.assert_allclose(q.mat, np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(BadShape, match="outside"):
        Projector.coordinate(3, [0, 3])


def test_projector_from_basis():
    b = rot(0.3)[:, :1]
    q = Projector.from_basis(b)
    assert q.rank == 1
    np.testing.assert_allclose(q.mat, b @ b.T, atol=1e-15)
    with pytest.raises(ValidationError, match="orthonormal"):
        Projector.from_basis(np.array([[1.0], [1.0]]))


def test_projector_takes_no_unchecked_basis():
    # The range basis comes from the matrix itself (or from from_basis, which
    # checks it); a basis of another range would make the entropy read the
    # wrong block.
    with pytest.raises(TypeError):
        Projector(np.diag([1.0, 1.0, 0.0, 0.0]), basis=np.eye(4)[:, 2:])
    q = Projector(np.diag([1.0, 1.0, 0.0, 0.0]))
    rho = DensityMatrix.diagonal([0.4, 0.4, 0.1, 0.1])
    expected = 0.8 * np.log(0.8) - 0.8 * np.log(0.4)
    assert compressed_entropy(rho, q) == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(q.range_basis() @ q.range_basis().conj().T, q.mat, atol=1e-12)


def test_projector_rejects_nonidempotent():
    with pytest.raises(ValidationError, match="idempotent"):
        Projector(np.diag([0.5, 1.0]))


def test_projector_rank_is_its_basis_width_and_the_trace_must_lie_near_it():
    # A loose idempotence bound lets near-projectors through; the rank is then
    # the count of eigenvalues above 1/2, and the trace is checked against it.
    q = Projector([[0.9]], Tolerances(idem=0.1))
    assert q.rank == q.range_basis().shape[1] == 1
    for mat in ([[0.5]], [[0.6]]):
        with pytest.raises(ValidationError, match="not near an integer"):
            Projector(mat, Tolerances(idem=0.3))


def test_projector_identity_and_zero():
    assert Projector.identity(3).rank == 3
    assert Projector.zero(3).rank == 0
    np.testing.assert_allclose(Projector.identity(3).mat, np.eye(3))


def test_projector_range_basis_orthonormal():
    q = Projector.coordinate(4, [1, 3])
    b = q.range_basis()
    np.testing.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(b @ b.conj().T, q.mat, atol=1e-12)


def test_resolution_coordinate():
    res = IdentityResolution.coordinate(4, [2, 1, 1])
    assert res.ranks() == (2, 1, 1)
    assert res.dim == 4
    with pytest.raises(BadShape, match="partition"):
        IdentityResolution.coordinate(4, [2, 3])
    for dim, sizes in ((0, []), (0, [1]), (-1, [1])):
        with pytest.raises(BadShape, match="dimension must be positive"):
            IdentityResolution.coordinate(dim, sizes)


@pytest.mark.parametrize("sizes", [[1, 1], [2, 2], [3, 0], [4, -1]])
def test_a_frame_resolution_checks_its_block_sizes(sizes):
    # Sizes that miss a column, overrun the frame or are not positive.
    with pytest.raises(BadShape, match=r"block sizes .* do not partition dimension 3"):
        IdentityResolution._from_frame(np.eye(3), sizes)


def test_orthonormality_deviation_is_the_dense_one_bit_for_bit():
    # A reversed-column view (as _resolve passes), a Fortran-ordered frame, a
    # (d, r < d) basis, and a frame that is orthonormal only to rounding.
    u = random_unitary(6, seed=3)
    near = u + 1e-9 * random_unitary(6, seed=4)
    for b in (u[:, ::-1], np.asfortranarray(u), np.ascontiguousarray(u[:, :2]), near):
        r = b.shape[1]
        expected = np.abs(b.conj().T @ b - np.eye(r))
        dev = _orth_deviation(b)
        assert dev.shape == (r, r) and dev.dtype == expected.dtype
        assert dev.tobytes() == expected.tobytes()


def test_resolution_rejects_overlapping_blocks():
    p = Projector.coordinate(3, [0, 1])
    q = Projector.coordinate(3, [1, 2])
    with pytest.raises(ValidationError, match="not orthogonal"):
        IdentityResolution([p, q])


def test_resolution_rejects_incomplete():
    p = Projector.coordinate(3, [0])
    q = Projector.coordinate(3, [1])
    with pytest.raises(ValidationError, match="identity"):
        IdentityResolution([p, q])


def test_resolution_rejects_mixed_dims():
    with pytest.raises(DimMismatch, match="different dimensions"):
        IdentityResolution([Projector.identity(2), Projector.zero(3)])


def test_spectral_resolution_simple():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    sr = spectral_resolution(rho)
    assert sr.eigenvalues == (0.5, 0.3, 0.2)
    assert sr.ranks() == (1, 1, 1)
    np.testing.assert_allclose(sr.reconstruct(), rho.mat, atol=1e-14)


def test_spectral_resolution_degenerate():
    rho = DensityMatrix(np.diag([0.4, 0.4, 0.2]))
    sr = spectral_resolution(rho)
    assert sr.eigenvalues == (0.4, 0.2)
    assert sr.ranks() == (2, 1)


def test_spectral_resolution_rotated_reconstructs():
    u = rot(0.7)
    mat = u @ np.diag([0.8, 0.2]) @ u.T
    sr = spectral_resolution(DensityMatrix(mat))
    np.testing.assert_allclose(sr.reconstruct(), mat, atol=1e-12)
    blocks = sr.blocks()
    assert isinstance(blocks, IdentityResolution)
    assert blocks.ranks() == (1, 1)


def test_spectral_resolution_merges_tiny_gap():
    sr = spectral_resolution(DensityMatrix(np.diag([0.5 + 1e-11, 0.5 - 1e-11])))
    assert sr.ranks() == (2,)
    assert sr.eigenvalues == (0.5,)


def test_spectral_resolution_gray_band_raises():
    rho = DensityMatrix(np.diag([0.5 + 2.5e-10, 0.5 - 2.5e-10]))
    with pytest.raises(ClusterAmbiguity, match="unstable band"):
        spectral_resolution(rho)


def test_spectral_resolution_splits_clear_gap():
    sr = spectral_resolution(DensityMatrix(np.diag([0.5 + 5e-10, 0.5 - 5e-10])))
    assert sr.ranks() == (1, 1)


def test_a_gap_of_exactly_the_clustering_scale_separates():
    a, b = 2.2613670881738115e-09, 1.2613670881738115e-09
    assert a - b == DEFAULT_TOLERANCES.cluster
    sr = spectral_resolution(DensityMatrix.diagonal([1.0 - a - b, a, b]))
    assert sr.ranks() == (1, 1, 1)
    assert sr.eigenvalues[1:] == (a, b)


def test_resolving_checks_the_eigenvalue_mass_under_its_own_tolerances():
    # Within the default trace tolerance (1e-9), outside the strict one (1e-11).
    rho = DensityMatrix(np.diag([0.7 + 5e-10, 0.3]))
    with pytest.raises(ValidationError, match=r"eigenvalue mass 1\.0000000005 is not 1"):
        spectral_resolution(rho, tolerance_profile("strict"))


def test_an_unknown_tolerance_profile_is_a_value_error():
    with pytest.raises(ValueError, match="unknown tolerance profile 'nope'"):
        tolerance_profile("nope")


def test_spectral_resolution_cluster_tol_override():
    rho = DensityMatrix(np.diag([0.500001, 0.499999]))
    assert spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=1e-4)).ranks() == (2,)
    assert spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=1e-9)).ranks() == (1, 1)
    # NaN or inf would fail every "gap >= scale" test and merge the spectrum;
    # the record refuses such a scale before any spectrum is clustered.
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="positive"):
            spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=bad))


TOLERANCE_FIELDS = ("herm", "idem", "orth", "psd", "trace", "cluster", "support")


@pytest.mark.parametrize("field", TOLERANCE_FIELDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "neg"])
def test_a_tolerance_record_refuses_a_bad_field_when_built(field, bad):
    with pytest.raises(ValidationError, match=f"{field} tolerance must be"):
        Tolerances(**{field: bad})
    with pytest.raises(ValidationError, match=f"{field} tolerance must be"):
        replace(DEFAULT_TOLERANCES, **{field: bad})


def test_a_tolerance_record_takes_zero_except_for_the_cluster_scale():
    with pytest.raises(ValidationError, match="cluster tolerance must be positive"):
        Tolerances(cluster=0.0)
    exact = Tolerances(**{f: 0.0 for f in TOLERANCE_FIELDS if f != "cluster"})
    assert DensityMatrix.diagonal([0.5, 0.5], exact).dim == 2


def test_a_bad_tolerance_cannot_reach_a_state():
    # Each record used to be accepted, and with it a matrix that is no state:
    # a NaN bound makes every "deviation > bound" test false.
    nan = float("nan")
    with pytest.raises(ValidationError, match="herm tolerance"):
        DensityMatrix([[0.5, 0.4], [0.0, 0.5]], Tolerances(herm=nan))
    with pytest.raises(ValidationError, match="psd tolerance"):
        DensityMatrix(np.diag([1.5, -0.5]), Tolerances(psd=nan))
    with pytest.raises(ValidationError, match="trace tolerance"):
        DensityMatrix(np.diag([3.0, 1.0]), Tolerances(trace=nan))


def test_only_a_density_matrix_has_a_spectral_resolution():
    mat = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(TypeError, match="rho must be a DensityMatrix"):
        spectral_resolution(mat)
    p, q = Projector.coordinate(2, [0]), Projector.coordinate(2, [1])
    with pytest.raises(TypeError, match="spectral_resolution"):
        SpectralResolution([0.7, 0.3], [p, q])
    assert spectral_resolution(DensityMatrix(mat)).eigenvalues == (0.7, 0.3)


def test_resolution_weights_are_level_times_rank_and_one_for_one_block():
    for sizes in ([3, 1, 2], [1] * 5, [4, 4], [9, 8, 8, 4, 2, 1]):
        levels = np.arange(len(sizes), 0, -1, dtype=float)
        levels /= float(np.dot(sizes, levels))
        u = random_unitary(sum(sizes), seed=sum(sizes))
        rho = DensityMatrix((u * np.repeat(levels, sizes)) @ u.conj().T)
        res = spectral_resolution(rho)
        assert sorted(res.ranks()) == sorted(sizes)
        assert res.weights == tuple(x * r for x, r in zip(res.eigenvalues, res.ranks()))
        assert all(type(w) is float for w in res.weights)
        with pytest.raises(TypeError):
            res.weights[0] = 0.5
    for dim in range(1, 65):
        res = spectral_resolution(DensityMatrix.maximally_mixed(dim))
        assert res.ranks() == (dim,)
        assert res.weights == (1.0,)


def test_spectral_resolution_is_memoised_per_state_and_tolerances():
    rho = DensityMatrix(np.diag([0.500001, 0.499999]))
    sr = spectral_resolution(rho)
    assert spectral_resolution(rho) is sr
    assert spectral_resolution(rho, DEFAULT_TOLERANCES) is sr
    # An equal record is the same key; another cluster scale is another key.
    assert spectral_resolution(rho, replace(DEFAULT_TOLERANCES)) is sr
    coarse = spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=1e-4))
    assert coarse is not sr
    assert (len(sr), len(coarse)) == (2, 1)
    assert spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=1e-4)) is coarse
    assert spectral_resolution(rho) is sr
    # Equal matrices in distinct states resolve separately.
    twin = DensityMatrix(rho.mat)
    assert spectral_resolution(twin) is not sr
    assert spectral_resolution(twin).ranks() == sr.ranks()


def counting_eigh(monkeypatch, shape):
    """Record every np.linalg.eigh call on a matrix of the given shape."""
    real_eigh = np.linalg.eigh
    calls = []

    def eigh(a, *args, **kwargs):
        if np.shape(a) == shape:  # the optimizer's compressions are smaller
            calls.append(a)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def clamped_pure_matrix():
    """A pure state's matrix whose smallest eigenvalue (about -5e-17) is clamped."""
    v = np.array([1.0, 1j, 0.5])
    mat = np.outer(v, v.conj()) / np.vdot(v, v).real
    assert np.linalg.eigh(hermitize(mat))[0][0] < 0.0
    return mat


def test_a_state_is_diagonalized_once(monkeypatch):
    # The constructor's eigh is the only one: resolution, entropy,
    # conditioning, the optimizer, the gap report and the audit's
    # decomposition weight all read it.
    u = random_unitary(4, seed=3)
    mat = (u * [0.4, 0.3, 0.2, 0.1]) @ u.conj().T
    other = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]))
    uniform = DensityMatrix.maximally_mixed(4)
    calls = counting_eigh(monkeypatch, mat.shape)
    rho = DensityMatrix(mat)
    assert len(calls) == 1
    calls.clear()
    assert rho._eig[0] is rho._eig[0]
    spectral_resolution(rho)
    von_neumann_entropy(rho)
    conditional_entropy(rho, uniform)
    conditional_entropy(other, rho)
    maximize_compressed_entropy(rho, 2)
    entropy_gap_report(rho)
    _decomposition_weight(rho, other)
    assert calls == []


def test_a_clamped_state_is_diagonalized_again_from_its_stored_matrix(monkeypatch):
    # The constructor clamps, rebuilds the matrix and diagonalizes that one:
    # two eigh calls, both at construction, and none afterwards.
    mat = clamped_pure_matrix()
    uniform = DensityMatrix.maximally_mixed(3)
    calls = counting_eigh(monkeypatch, mat.shape)
    rho = DensityMatrix(mat)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], rho.mat)
    calls.clear()
    w, vecs = rho._eig
    assert calls == []
    fresh_w, fresh_v = np.linalg.eigh(rho.mat)
    np.testing.assert_array_equal(w, fresh_w)
    np.testing.assert_array_equal(vecs, fresh_v)
    calls.clear()
    res = spectral_resolution(rho)
    assert res.ranks() == (1, 2)
    np.testing.assert_array_equal(res.frame, vecs[:, ::-1])
    von_neumann_entropy(rho)
    conditional_entropy(rho, uniform)
    assert maximize_compressed_entropy(rho, 1).best_value == 0.0
    assert entropy_gap_report(rho).all_strict is False
    assert calls == []


def test_kept_eigendecomposition_is_read_only_and_backs_the_resolution():
    for rho in (
        DensityMatrix(np.diag([0.5, 0.3, 0.2])),
        DensityMatrix(clamped_pure_matrix()),  # diagonalized again by the constructor
    ):
        w, v = rho._eig
        assert not w.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0
        # The resolution's frame is a view of the kept eigenvectors, not a copy.
        assert np.shares_memory(spectral_resolution(rho).frame, v)
        loose = spectral_resolution(rho, tolerance_profile("loose"))
        assert np.shares_memory(loose.frame, v)


def test_a_projector_keeps_its_range_basis_from_construction(monkeypatch):
    # A dense projector runs one eigh, at construction; from_basis and the
    # constructors built on it run none; range_basis() runs none.
    dense = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    calls = counting_eigh(monkeypatch, dense.shape)
    q = Projector(dense)
    assert len(calls) == 1
    calls.clear()
    b = random_unitary(4, seed=8)[:, :2]
    built = [
        Projector.from_basis(b),
        Projector.identity(4),
        Projector.zero(4),
        Projector.coordinate(4, [1, 3]),
    ]
    assert calls == []
    for proj in (q, *built):
        basis = proj.range_basis()
        assert basis is proj.range_basis()
        assert basis.shape == (4, proj.rank) and not basis.flags.writeable
        np.testing.assert_allclose(basis @ basis.conj().T, proj.mat, atol=1e-12)
    assert calls == []
    np.testing.assert_array_equal(built[0].range_basis(), b)


def test_spectral_resolution_failures_are_never_memoised():
    gray = DensityMatrix(np.diag([0.5 + 3e-10, 0.5 - 3e-10]))
    for _ in range(3):
        with pytest.raises(ClusterAmbiguity, match="unstable band"):
            spectral_resolution(gray)
    # A valid resolution first, then a bad scale: the bad scale still raises.
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    spectral_resolution(rho)
    for bad in (float("nan"), 0.0):
        for _ in range(2):
            with pytest.raises(ValidationError, match="positive"):
                spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=bad))
    # A raw array is refused, every time.
    mat = np.diag([0.7, 0.3]).astype(complex)
    for _ in range(2):
        with pytest.raises(TypeError, match="rho must be a DensityMatrix"):
            spectral_resolution(mat)


def test_spectral_blocks_keep_the_callers_tolerances():
    # Two rank-one blocks 1e-7 off orthogonal: inside the loose profile's
    # orth tolerance, outside the default one.
    loose = tolerance_profile("loose")
    eps = 1e-7
    p = Projector.from_basis(np.array([[1.0], [0.0]]), loose)
    q = Projector.from_basis(np.array([[eps], [np.sqrt(1.0 - eps * eps)]]), loose)
    with pytest.raises(ValidationError, match="blocks 0 and 1 are not orthogonal"):
        IdentityResolution([p, q])
    blocks = IdentityResolution([p, q], loose)
    assert blocks.ranks() == (1, 1)
    for basis, proj in zip(blocks.bases(), (p, q)):
        np.testing.assert_array_equal(basis, proj.range_basis())


CLUSTER = DEFAULT_TOLERANCES.cluster


def planted_gap(dim, k, gap, seed):
    """State with eigenvalue base + gap (k times) over base = (1 - k gap) / dim, in a Haar frame.

    The levels are 1/dim plus or minus a fraction of the gap, and the trace is 1.
    """
    base = (1.0 - k * gap) / dim
    diag = np.concatenate([np.full(k, base + gap), np.full(dim - k, base)])
    u = random_unitary(dim, seed=seed)
    return DensityMatrix(hermitize((u * diag) @ u.conj().T))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 128).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
    st.sampled_from(["split", "merge", "ambiguous"]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**20),
)
def test_cluster_band_up_to_d128(dim_k, band, u, seed):
    dim, k = dim_k
    # Gaps keep a 1% margin from each band edge, far above the eigensolver's
    # rounding error on levels near 1/dim.
    lo, hi = {
        "split": (1.01 * CLUSTER, 100.0 * CLUSTER),
        "merge": (0.0, 0.99 * CLUSTER / 4.0),
        "ambiguous": (1.01 * CLUSTER / 4.0, 0.99 * CLUSTER),
    }[band]
    gap = lo + u * (hi - lo)
    rho = planted_gap(dim, k, gap, seed)
    if band == "ambiguous":
        with pytest.raises(ClusterAmbiguity):
            spectral_resolution(rho)
        return
    sr = spectral_resolution(rho)
    assert sr.ranks() == ((k, dim - k) if band == "split" else (dim,))
    v = sr.frame
    assert max_abs(v.conj().T @ v - np.eye(dim)) <= 1e-12
    # A merge replaces both levels by their mean, moving each by at most gap.
    np.testing.assert_allclose(sr.reconstruct(), rho.mat, rtol=0.0, atol=gap + 1e-12)


@pytest.mark.parametrize("dim", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("span", [0.9, 1.1])
def test_a_chained_cluster_is_refused_at_the_clustering_scale(dim, span):
    # Equal steps of at most CLUSTER / 4, so every gap merges; only the width
    # of the chain, span * CLUSTER, tells the two cases apart.
    step = span * CLUSTER / (dim - 1)
    assert step <= CLUSTER / 4
    levels = 1.0 / dim + step * (np.arange(dim) - (dim - 1) / 2)
    u = random_unitary(dim, seed=dim)
    rotated = DensityMatrix(hermitize((u * levels) @ u.conj().T))
    for rho in (DensityMatrix.diagonal(levels), rotated):
        if span < 1:
            assert spectral_resolution(rho).ranks() == (dim,)
        else:
            with pytest.raises(ClusterAmbiguity, match="chain into one cluster"):
                spectral_resolution(rho)


def numpy_cluster_sizes(w_desc, ctol):
    """The array version of the clustering rule, as the library had it, kept as an oracle."""
    gaps = w_desc[:-1] - w_desc[1:]
    ambiguous = np.nonzero((gaps > ctol / 4.0) & (gaps < ctol))[0]
    if ambiguous.size:
        raise ClusterAmbiguity(
            f"eigenvalue gap {float(gaps[ambiguous[0]]):.3e} falls in the unstable band "
            f"({ctol / 4.0:.3e}, {ctol:.3e})"
        )
    cuts = np.nonzero(gaps >= ctol)[0] + 1
    first = np.concatenate(([0], cuts))
    last = np.concatenate((cuts, [len(w_desc)])) - 1
    wide = np.nonzero(w_desc[first] - w_desc[last] >= ctol)[0]
    if wide.size:
        top, bottom = float(w_desc[first[wide[0]]]), float(w_desc[last[wide[0]]])
        raise ClusterAmbiguity(
            f"eigenvalues {top!r} to {bottom!r} chain into one cluster spanning "
            f"{top - bottom:.3e}, at least the clustering scale {ctol:.3e}"
        )
    return (last - first + 1).tolist()


def up(x):
    return math.nextafter(x, math.inf)


def down(x):
    return math.nextafter(x, 0.0)


def clustering_outcome(cluster, w, ctol):
    try:
        return cluster(w, ctol)
    except ClusterAmbiguity as exc:
        return type(exc), str(exc)


def exact_tails(ctol):
    """Descending runs ending at 0.0 whose gaps or spans sit exactly on, or one ulp off, an edge.

    A difference of two floats is exact only where both are multiples of the
    gap's last bit, which near the clustering scale means near zero, so each
    run ends at 0.0.
    """
    quarter = ctol / 4.0
    edges = (quarter, ctol, up(quarter), down(quarter), up(ctol), down(ctol))
    tails = [[g, 0.0] for g in edges]
    # Eight steps of about ctol/8: the span is the top value exactly.
    for top in (ctol, down(ctol)):
        tails.append([top * j / 8.0 for j in range(8, 0, -1)] + [0.0])
    return tails


def clustering_spectra(dim, ctol, seed):
    """Seeded descending spectra of dim floats: random levels above, an exact tail below."""
    rng = np.random.default_rng(seed)
    quarter = ctol / 4.0
    pool = (quarter, ctol, up(quarter), down(quarter), up(ctol), down(ctol))
    for tail in exact_tails(ctol) + [[]]:
        tail = tail[:dim]
        n = dim - len(tail)
        # Clear merges (half of them exact degeneracies) and clear cuts, in a
        # ratio drawn per spectrum so that some merge chains grow wider than
        # the scale; then maybe one gap on or next to an edge, maybe one
        # inside the band.
        p_merge = rng.random()
        gaps = [
            (quarter * 0.99 * rng.random() if rng.random() < 0.5 else 0.0)
            if rng.random() < p_merge else ctol * (1.01 + 99.0 * rng.random())
            for _ in range(n)
        ]
        if n and rng.random() < 0.5:
            gaps[rng.integers(n)] = pool[rng.integers(len(pool))]
        if n and rng.random() < 0.2:
            gaps[rng.integers(n)] = quarter + (ctol - quarter) * rng.random()
        levels = list(tail)
        top = tail[0] + 3.0 * ctol if tail else rng.random()
        for gap in gaps:
            levels.insert(0, top)
            top = top + gap
        yield np.array(levels)
    # A chain wider than the scale, then an ambiguous gap: ambiguity is reported first.
    chain = 1.0 / dim + (ctol / 8.0) * np.arange(dim, 0, -1, dtype=float)
    if dim > 2:
        chain[-1] = chain[-2] - ctol / 2.0
        yield chain


@pytest.mark.parametrize("ctol", [DEFAULT_TOLERANCES.cluster, 1e-4], ids=["default", "1e-4"])
def test_cluster_sizes_match_the_array_oracle(ctol):
    # Same sizes, or the same refusal with the same message, as the array
    # rule; the counts make sure every outcome and both edge gaps are met.
    seen = {"sizes": 0, "unstable band": 0, "chain into one cluster": 0}
    for dim in range(1, 129):
        for seed in range(2):
            for w in clustering_spectra(dim, ctol, seed=1000 * dim + seed):
                assert np.all(np.diff(w) <= 0.0)
                expected = clustering_outcome(numpy_cluster_sizes, w, ctol)
                assert clustering_outcome(_cluster_sizes, w.tolist(), ctol) == expected, w
                if isinstance(expected, list):
                    seen["sizes"] += 1
                else:
                    seen[next(k for k in seen if k in expected[1])] += 1
    assert min(seen.values()) >= 100, seen
    quarter = ctol / 4.0
    # The band's edges: ctol/4 merges and ctol cuts; one ulp inside either is ambiguous.
    assert _cluster_sizes([quarter, 0.0], ctol) == [2]
    assert _cluster_sizes([ctol, 0.0], ctol) == [1, 1]
    assert _cluster_sizes([down(quarter), 0.0], ctol) == [2]
    assert _cluster_sizes([up(ctol), 0.0], ctol) == [1, 1]
    for gap in (up(quarter), down(ctol)):
        with pytest.raises(ClusterAmbiguity, match="unstable band"):
            _cluster_sizes([gap, 0.0], ctol)
    # A chain of small gaps spanning ctol exactly is refused; one ulp less is one cluster.
    tails = exact_tails(ctol)
    with pytest.raises(ClusterAmbiguity, match="chain into one cluster"):
        _cluster_sizes(tails[-2], ctol)
    assert _cluster_sizes(tails[-1], ctol) == [9]
    assert _cluster_sizes([0.5], ctol) == [1]


def test_compress_masks_block():
    rho = DensityMatrix(np.full((2, 2), 0.5))
    q = Projector.coordinate(2, [0])
    # Q rho Q keeps the (0, 0) entry, 0.5, which renormalizes to 1.
    np.testing.assert_allclose(compressed_state(rho, q).mat, np.diag([1.0, 0.0]), atol=1e-15)
    with pytest.raises(TypeError, match="Projector"):
        compressed_state(rho, np.eye(2))
    with pytest.raises(DimMismatch):
        compressed_state(rho, Projector.identity(3))


@pytest.mark.parametrize(
    "function", [compressed_entropy, compressed_state, variational_gradient],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "q", [np.eye(2), IdentityResolution.coordinate(2, [1, 1])], ids=["ndarray", "resolution"]
)
def test_projector_operand_is_type_checked(function, q):
    with pytest.raises(TypeError, match="q must be a Projector"):
        function(DensityMatrix.maximally_mixed(2), q)


def test_small_helpers():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(hermitize(a), np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert max_abs(np.array([1.0, -3.0, 2.0])) == 3.0
    assert commutator_residual(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert commutator_residual(np.diag([1.0, 2.0]), x) > 0.5
