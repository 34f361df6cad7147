"""Validation, spectral clustering, and projector algebra checks."""

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
    ValidationError,
    commutator_residual,
    compress,
    eig_hermitian,
    hermitize,
    max_abs,
    normalized_trace,
    random_unitary,
    spectral_resolution,
    support_projector,
    tolerance_profile,
    trace_xlnx,
)


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


def test_density_rejects_nonfinite():
    with pytest.raises(ValidationError, match="non-finite"):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_projector_rejects_nonidempotent():
    with pytest.raises(ValidationError, match="idempotent"):
        Projector(np.diag([0.5, 1.0]))


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


def test_spectral_resolution_cluster_tol_override():
    rho = DensityMatrix(np.diag([0.500001, 0.499999]))
    assert spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=1e-4)).ranks() == (2,)
    assert spectral_resolution(rho, replace(DEFAULT_TOLERANCES, cluster=1e-9)).ranks() == (1, 1)
    # NaN or inf would fail every "gap >= scale" test and merge the spectrum.
    p, q = Projector.coordinate(2, [0]), Projector.coordinate(2, [1])
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        tol = replace(DEFAULT_TOLERANCES, cluster=bad)
        with pytest.raises(ValidationError, match="positive"):
            spectral_resolution(rho, tol)
        with pytest.raises(ValidationError, match="positive"):
            SpectralResolution([0.7, 0.3], [p, q], tol)


def test_spectral_blocks_keep_the_callers_tolerances():
    # Two rank-one blocks 1e-7 off orthogonal: inside the loose profile's
    # orth tolerance, outside the default one.
    loose = tolerance_profile("loose")
    eps = 1e-7
    p = Projector.from_basis(np.array([[1.0], [0.0]]), loose)
    q = Projector.from_basis(np.array([[eps], [np.sqrt(1.0 - eps * eps)]]), loose)
    with pytest.raises(ValidationError, match="blocks 0 and 1 are not orthogonal"):
        IdentityResolution([p, q])
    sr = SpectralResolution([0.7, 0.3], [p, q], loose)
    blocks = sr.blocks()
    assert blocks.ranks() == (1, 1)
    assert blocks.frame is sr.frame
    assert blocks.projectors == (p, q)


CLUSTER = DEFAULT_TOLERANCES.cluster


def planted_gap(dim, k, gap, seed):
    """Hermitian matrix with eigenvalue 0.5 + gap (k times) over 0.5, in a Haar frame."""
    diag = np.concatenate([np.full(k, 0.5 + gap), np.full(dim - k, 0.5)])
    u = random_unitary(dim, seed=seed)
    return hermitize((u * diag) @ u.conj().T)


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
    # ~1e-14 error on levels near 0.5.
    lo, hi = {
        "split": (1.01 * CLUSTER, 100.0 * CLUSTER),
        "merge": (0.0, 0.99 * CLUSTER / 4.0),
        "ambiguous": (1.01 * CLUSTER / 4.0, 0.99 * CLUSTER),
    }[band]
    gap = lo + u * (hi - lo)
    mat = planted_gap(dim, k, gap, seed)
    if band == "ambiguous":
        with pytest.raises(ClusterAmbiguity):
            spectral_resolution(mat)
        return
    sr = spectral_resolution(mat)
    assert sr.ranks() == ((k, dim - k) if band == "split" else (dim,))
    v = sr.frame
    assert max_abs(v.conj().T @ v - np.eye(dim)) <= 1e-12
    # A merge replaces both levels by their mean, moving each by at most gap.
    np.testing.assert_allclose(sr.reconstruct(), mat, rtol=0.0, atol=gap + 1e-12)


def test_eig_hermitian_descending():
    w, v = eig_hermitian(np.diag([0.3, 0.1, 0.6]))
    np.testing.assert_allclose(w, [0.6, 0.3, 0.1])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_trace_xlnx_values():
    np.testing.assert_allclose(trace_xlnx(np.diag([0.5, 0.5])), -np.log(2))
    assert trace_xlnx(np.diag([1.0, 0.0])) == 0.0
    with pytest.raises(NotPSD):
        trace_xlnx(np.diag([1.5, -0.5]))


def test_support_projector():
    s = support_projector(np.diag([0.5, 0.5, 0.0]))
    assert s.rank == 2
    np.testing.assert_allclose(s.mat, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert support_projector(np.eye(3) / 3).rank == 3


def test_compress_masks_block():
    rho = DensityMatrix(np.full((2, 2), 0.5))
    q = Projector.coordinate(2, [0])
    np.testing.assert_allclose(compress(rho.mat, q), np.diag([0.5, 0.0]), atol=1e-15)
    with pytest.raises(TypeError, match="Projector"):
        compress(rho.mat, np.eye(2))
    with pytest.raises(DimMismatch):
        compress(rho.mat, Projector.identity(3))


def test_small_helpers():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(hermitize(a), np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert max_abs(np.array([1.0, -3.0, 2.0])) == 3.0
    assert normalized_trace(np.eye(4)) == pytest.approx(1.0)
    assert commutator_residual(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert commutator_residual(np.diag([1.0, 2.0]), x) > 0.5
