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
module). At the other end, a conditioning state proportional to the
identity has one block spanning the space, whose compression has the
spectrum of rho itself, so S(rho | I/d) = S(rho).

What needs only rho's own spectrum reads the eigendecomposition the state
kept at construction and diagonalizes nothing: von_neumann_entropy, and the
factor of a block that spans the whole space (conditioning on I/d, on the
trivial resolution, or compressing into the identity projector). Any other
block of rank two or more is compressed onto its frame columns and
diagonalized.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ZeroCompression
from .matcore import (
    DensityMatrix,
    IdentityResolution,
    Projector,
    _check_resolution,
    _check_same_dim,
    _check_state,
    compress,
    hermitize,
    spectral_resolution,
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
    "self_conditional_entropy",
    "self_information_gain",
    "spectrum_distribution",
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


def von_neumann_entropy(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """-tr(rho ln rho), in nats; never below +0.0.

    Summed over the positive eigenvalues the state kept (DensityMatrix._eigh),
    so no matrix is diagonalized here; the state was checked positive at
    construction, and tol is not read. A pure state can keep an eigenvalue
    just above 1, whose term makes the sum a rounding error below zero; that
    is reported as +0.0, as is the -0.0 of an exact pure state.
    """
    _check_state(rho, "rho")
    w = rho._eigh()[0]
    pos = w[w > 0.0]
    h = -float(np.sum(pos * np.log(pos)))
    return h if h > 0.0 else 0.0


def _spectrum_entropy(w: np.ndarray, tol: Tolerances) -> float:
    """Entropy mass t ln t - sum mu ln mu of one compression from its spectrum w.

    mu is w clipped at zero and t = sum mu; a mass t at or below the support
    tolerance gives 0.0.
    """
    mu = np.clip(w, 0.0, None)
    t = float(mu.sum())
    if t <= tol.support:
        return 0.0
    pos = mu[mu > 0.0]
    return float(t * math.log(t) - np.sum(pos * np.log(pos)))


def _block_entropies(rho: DensityMatrix, bases, tol: Tolerances) -> list[float]:
    """Entropy mass of rho in the span of each block, in block order.

    The spectrum of V* rho V is that of the nonzero block of Q rho Q, Q = V V*.
    A block spanning the whole space (V unitary) has rho's own spectrum, read
    from the eigenvalues the state kept. Blocks of equal rank 2 <= m < dim
    are compressed together: their bases are stacked as (k, dim, m),
    compressed into (k, m, m) and diagonalized by one batched eigvalsh.
    Rank-one blocks give 0.0 without a compression.
    """
    factors = [0.0] * len(bases)
    by_rank: dict[int, list[int]] = {}
    for j, basis in enumerate(bases):
        m = basis.shape[1]
        if m < 2:
            continue
        if m == rho.dim:
            factors[j] = _spectrum_entropy(rho._eigh()[0], tol)
        else:
            by_rank.setdefault(m, []).append(j)
    for group in by_rank.values():
        stack = np.array([bases[j] for j in group])
        m = hermitize(stack.conj().swapaxes(1, 2) @ rho.mat @ stack)
        for j, w in zip(group, np.linalg.eigvalsh(m)):
            factors[j] = _spectrum_entropy(w, tol)
    return factors


def compressed_entropy(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Entropy mass of rho inside the subspace of Q.

    Equal to -tr(QrhoQ ln QrhoQ) + t ln t with t = tr(Q rho), and to
    t * S(compressed_state(rho, q)). Returns exactly 0.0 for rank(Q) <= 1
    and for vanishing compressions.
    """
    _check_state(rho, "rho")
    _check_same_dim(rho, q)
    return _block_entropies(rho, [q.range_basis()], tol)[0]


def compressed_state(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> DensityMatrix:
    """Renormalized compression Q rho Q / tr(Q rho).

    Raises ZeroCompression when the compression carries no mass.
    """
    _check_state(rho, "rho")
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
    compression V_j* rho V_j onto the block's frame columns V_j; blocks of
    equal rank are compressed and diagonalized as one stack, and rank-one
    blocks contribute factor 0.0 without any compression. When sigma is
    proportional to the identity its one block spans the space, and the
    factor is S(rho), read from rho's kept eigenvalues without a
    compression. Blocks whose sigma weight is below the support tolerance
    are stored with weight 0.0. The
    resolution of sigma is memoised on sigma, so conditioning many states on
    one sigma object resolves it once.
    """
    _check_state(rho, "rho")
    _check_state(sigma, "sigma")
    _check_same_dim(rho, sigma)
    res = spectral_resolution(sigma, tol)
    bases = res.bases()
    factors = _block_entropies(rho, bases, tol)
    terms = []
    total = 0.0
    for j, (level, basis, factor) in enumerate(zip(res.eigenvalues, bases, factors)):
        weight = level * basis.shape[1]
        if weight <= tol.support:
            weight = 0.0
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
    _check_state(rho, "rho")
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
    _check_state(rho, "rho")
    _check_resolution(blocks, "blocks")
    _check_same_dim(rho, blocks)
    factors = _block_entropies(rho, blocks.bases(), tol)
    total = 0.0
    for rank, factor in zip(blocks.ranks(), factors):
        total += (rank / rho.dim) * factor
    return total


def pinch(
    rho: DensityMatrix,
    blocks: IdentityResolution,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DensityMatrix:
    """Block-diagonal part sum_j Q_j rho Q_j of rho along a resolution.

    Computed on the resolution's frame V as V (M o V* rho V) V*, where the
    mask M keeps the entries whose row and column fall in the same block.
    The pinched state commutes with every block, the map is idempotent, and
    it never decreases entropy.
    """
    _check_state(rho, "rho")
    _check_resolution(blocks, "blocks")
    _check_same_dim(rho, blocks)
    v = blocks.frame
    label = np.repeat(np.arange(len(blocks)), blocks.ranks())
    c = v.conj().T @ rho.mat @ v
    c[label[:, None] != label[None, :]] = 0.0
    return DensityMatrix(hermitize(v @ c @ v.conj().T), tol)


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
    _check_state(rho, "rho")
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
    _check_state(rho, "rho")
    res = spectral_resolution(rho, tol)
    weights = [v * r for v, r in zip(res.eigenvalues, res.ranks())]
    return ProbabilityVector(weights, tol)
