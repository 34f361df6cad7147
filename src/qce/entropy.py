"""Entropy functionals driven by spectral block compressions.

The central object is the conditional entropy of one state given another:
the conditioning state is resolved into its distinct eigenprojectors, and
each block contributes its weight under the conditioning state times the
compressed entropy of the conditioned state inside that block,

    conditional_entropy(rho, sigma)
        = sum_j tr(Q_j sigma) * compressed_entropy(rho, Q_j),

where {Q_j} is the spectral resolution of sigma. The compressed entropy of a
state inside a projector Q is

    compressed_entropy(rho, Q) = -tr(Q rho Q ln Q rho Q) + t ln t,
    t = tr(Q rho),

equivalently t times the entropy of the renormalized compression; it is
nonnegative, vanishes exactly when the compression is a multiple of a
rank-one projector, and is bounded by the entropy of rho. Because the block
weights of the conditioning state sum to at most 1, the conditional entropy
inherits the two-sided bound 0 <= S(rho|sigma) <= S(rho).

A nondegenerate conditioning state has only rank-one blocks, so its
conditional entropy is exactly zero; all the structure lives in degenerate
spectra. That makes the functional discontinuous at degeneracy-pattern
changes, which is intentional and probed rather than hidden (see the audit
module).

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimMismatch, NotPSD, ZeroCompression
from .matcore import (
    DensityMatrix,
    IdentityResolution,
    Projector,
    as_complex_matrix,
    compress,
    hermitize,
    spectral_resolution,
    trace_xlnx,
    _require_hermitian,
)
from .shannon import ProbabilityVector

__all__ = [
    "BlockTerm",
    "EntropyBreakdown",
    "ProbabilityVector",
    "block_distribution",
    "compressed_entropy",
    "compressed_state",
    "conditional_entropy",
    "conditional_entropy_given_blocks",
    "information_gain",
    "joint_entropy",
    "pinch",
    "relative_entropy",
    "self_conditional_entropy",
    "self_information_gain",
    "spectrum_distribution",
    "unnormalized_compressed_entropy",
    "von_neumann_entropy",
]


class BlockTerm(NamedTuple):
    """One block's contribution to a conditional entropy."""

    index: int
    weight: float
    factor: float


@dataclass(frozen=True)
class EntropyBreakdown:
    """Conditional entropy total together with its per-block terms.

    total equals sum(weight * factor) over per_block. Blocks whose weight
    under the conditioning state is below the support tolerance are recorded
    with weight exactly 0.0 so they contribute exactly nothing.
    """

    total: float
    per_block: tuple[BlockTerm, ...]


def _check_density(x, name: str) -> DensityMatrix:
    if not isinstance(x, DensityMatrix):
        raise TypeError(f"{name} must be a DensityMatrix, got {type(x).__name__}")
    return x


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"operands have dims {a.dim} and {b.dim}")


def von_neumann_entropy(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """-tr(rho ln rho), in nats."""
    _check_density(rho, "rho")
    return -trace_xlnx(rho.mat, tol)


def relative_entropy(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """tr(A ln A) - tr(A ln B) for PSD A, B; +inf when supp(A) leaves supp(B).

    Accepts density matrices or plain PSD matrices (the quantity is
    positively homogeneous, so normalization is not required). The support
    check compares the eigenvalues of B restricted to the support of A
    against the support tolerance.
    """
    amat = a.mat if isinstance(a, DensityMatrix) else _require_hermitian(as_complex_matrix(a), tol)
    bmat = b.mat if isinstance(b, DensityMatrix) else _require_hermitian(as_complex_matrix(b), tol)
    if amat.shape != bmat.shape:
        raise DimMismatch(f"operands have shapes {amat.shape} and {bmat.shape}")
    wa, va = np.linalg.eigh(amat)
    wb, vb = np.linalg.eigh(bmat)
    if wa[0] < -tol.psd:
        raise NotPSD(f"first operand eigenvalue {wa[0]:.3e} below -{tol.psd:g}")
    if wb[0] < -tol.psd:
        raise NotPSD(f"second operand eigenvalue {wb[0]:.3e} below -{tol.psd:g}")
    wa = np.clip(wa, 0.0, None)
    wb = np.clip(wb, 0.0, None)
    support_a = wa > tol.support
    if not support_a.any():
        return 0.0
    va_s = va[:, support_a]
    restricted = hermitize(va_s.conj().T @ bmat @ va_s)
    if np.linalg.eigvalsh(restricted)[0] <= tol.support:
        return math.inf
    pos_a = wa[support_a]
    tr_a_ln_a = float(np.sum(pos_a * np.log(pos_a)))
    support_b = wb > tol.support
    vb_s = vb[:, support_b]
    # Diagonal of B-eigenbasis expectation values of A; B-kernel terms vanish
    # because supp(A) is inside supp(B) here.
    diag_a = np.einsum("ij,jk,ki->i", vb_s.conj().T, amat, vb_s).real
    tr_a_ln_b = float(np.sum(np.log(wb[support_b]) * diag_a))
    return tr_a_ln_a - tr_a_ln_b


def _compressed_spectrum(mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Spectrum of V* A V, the nonzero block of Q A Q for Q = V V*, ascending."""
    m = hermitize(basis.conj().T @ mat @ basis)
    return np.clip(np.linalg.eigvalsh(m), 0.0, None)


def _span_entropy(mat: np.ndarray, basis: np.ndarray, tol: Tolerances) -> float:
    """compressed_entropy of a state matrix in the span of orthonormal columns."""
    if basis.shape[1] <= 1:
        return 0.0
    mu = _compressed_spectrum(mat, basis)
    t = float(mu.sum())
    if t <= tol.support:
        return 0.0
    pos = mu[mu > 0.0]
    return float(t * math.log(t) - np.sum(pos * np.log(pos)))


def compressed_entropy(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Entropy mass of rho inside the subspace of Q.

    Equal to -tr(QrhoQ ln QrhoQ) + t ln t with t = tr(Q rho), and to
    t * S(compressed_state(rho, q)). Returns exactly 0.0 for rank(Q) <= 1
    and for vanishing compressions.
    """
    _check_density(rho, "rho")
    _check_same_dim(rho, q)
    return _span_entropy(rho.mat, q.range_basis(), tol)


def unnormalized_compressed_entropy(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """-tr(QrhoQ ln QrhoQ), without the t ln t correction.

    This variant exceeds compressed_entropy (by -t ln t >= 0) and does not
    vanish on rank-one compressions, so it fails the bound by the entropy of
    rho; it is kept as the natural comparison quantity.
    """
    _check_density(rho, "rho")
    _check_same_dim(rho, q)
    if q.rank == 0:
        return 0.0
    mu = _compressed_spectrum(rho.mat, q.range_basis())
    pos = mu[mu > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def compressed_state(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> DensityMatrix:
    """Renormalized compression Q rho Q / tr(Q rho).

    Raises ZeroCompression when the compression carries no mass.
    """
    _check_density(rho, "rho")
    _check_same_dim(rho, q)
    c = compress(rho, q, tol)
    t = float(np.trace(c).real)
    if t <= tol.support:
        raise ZeroCompression(f"tr(Q rho) = {t:.3e} is below the support tolerance")
    return DensityMatrix(c / t, tol)


def conditional_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> EntropyBreakdown:
    """Conditional entropy of rho given sigma, with its per-block terms.

    sigma is resolved into distinct eigenprojectors Q_j; the total is
    sum_j tr(Q_j sigma) * compressed_entropy(rho, Q_j). The weight
    tr(Q_j sigma) is taken as level_j * rank_j, and each factor from the
    compression V_j* rho V_j onto the block's frame columns V_j; rank-one
    blocks contribute factor 0.0 without any compression. Blocks whose sigma
    weight is below the support tolerance are stored with weight 0.0.
    """
    _check_density(rho, "rho")
    _check_density(sigma, "sigma")
    _check_same_dim(rho, sigma)
    res = spectral_resolution(sigma, tol)
    terms = []
    total = 0.0
    for j, (level, basis) in enumerate(zip(res.eigenvalues, res.bases())):
        weight = level * basis.shape[1]
        if weight <= tol.support:
            weight = 0.0
        factor = _span_entropy(rho.mat, basis, tol)
        terms.append(BlockTerm(j, weight, factor))
        total += weight * factor
    return EntropyBreakdown(total=total, per_block=tuple(terms))


def self_conditional_entropy(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Conditional entropy of a state given itself, via the closed form.

    Each eigenvalue of multiplicity r contributes (value * r)^2 ln r; only
    degenerate eigenvalues contribute.
    """
    _check_density(rho, "rho")
    res = spectral_resolution(rho, tol)
    total = 0.0
    for val, rank in zip(res.eigenvalues, res.ranks()):
        if rank > 1:
            total += (val * rank) ** 2 * math.log(rank)
    return total


def conditional_entropy_given_blocks(
    rho: DensityMatrix,
    blocks: IdentityResolution,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Conditional entropy of rho given a bare resolution of the identity.

    Blocks are weighted by their normalized dimension:
    sum_j (rank_j / dim) * compressed_entropy(rho, Q_j). The weights are
    the masses the maximally mixed state assigns to the blocks, so the
    value lies in [0, vn entropy of rho], equals that entropy for the
    trivial resolution, and vanishes when every block has rank one.
    """
    _check_density(rho, "rho")
    if not isinstance(blocks, IdentityResolution):
        raise TypeError("blocks must be an IdentityResolution")
    _check_same_dim(rho, blocks)
    total = 0.0
    for basis in blocks.bases():
        total += (basis.shape[1] / rho.dim) * _span_entropy(rho.mat, basis, tol)
    return total


def pinch(
    rho: DensityMatrix,
    blocks: IdentityResolution,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DensityMatrix:
    """Block-diagonal part sum_j Q_j rho Q_j of rho along a resolution.

    The pinched state commutes with every block, the map is idempotent, and
    it never decreases entropy.
    """
    _check_density(rho, "rho")
    if not isinstance(blocks, IdentityResolution):
        raise TypeError("blocks must be an IdentityResolution")
    _check_same_dim(rho, blocks)
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for q in blocks.projectors:
        out += q.mat @ rho.mat @ q.mat
    return DensityMatrix(hermitize(out), tol)


def joint_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """S(sigma) + S(rho | sigma). Not symmetric in its arguments."""
    return von_neumann_entropy(sigma, tol) + conditional_entropy(rho, sigma, tol).total


def information_gain(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """S(rho) - S(rho | sigma); between 0 and S(rho)."""
    return von_neumann_entropy(rho, tol) - conditional_entropy(rho, sigma, tol).total


def self_information_gain(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """S(rho) - S(rho | rho), the information a state carries about itself."""
    return von_neumann_entropy(rho, tol) - self_conditional_entropy(rho, tol)


def spectrum_distribution(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> ProbabilityVector:
    """Eigenvalues of rho repeated with multiplicity, descending."""
    _check_density(rho, "rho")
    res = spectral_resolution(rho, tol)
    reps = np.repeat(res.eigenvalues, res.ranks())
    return ProbabilityVector(reps, tol)


def block_distribution(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> ProbabilityVector:
    """Total weight rank_i * value_i carried by each distinct eigenvalue.

    With the state's own eigenvalues as weights this splits the entropy
    exactly: S(rho) = shannon_entropy(block_distribution(rho))
    + sum_i rank_i * value_i * ln(rank_i).
    """
    _check_density(rho, "rho")
    res = spectral_resolution(rho, tol)
    weights = [v * r for v, r in zip(res.eigenvalues, res.ranks())]
    return ProbabilityVector(weights, tol)
