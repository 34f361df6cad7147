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
identity has one block spanning the space, which weighs exactly 1.0 and
holds all of rho, so S(rho | I/d) = S(rho), bit for bit.

What needs only rho's own spectrum reads the eigendecomposition the state
kept at construction and diagonalizes nothing: von_neumann_entropy, which
is also the factor of a block that spans the whole space (conditioning on
I/d, on the trivial resolution, or compressing into the identity
projector). The other blocks of rank two or more are taken one rank group
at a time: the blocks of equal rank are compressed onto their frame columns
as one stack, diagonalized by one batched call and scored as one stack, so
no numpy call runs per block unless its compression is rank-deficient.
The blocks are read straight from the resolution's frame and bounds
(_block_entropies(rho, frame, bounds, tol)), with no view built per block,
and a resolution with as many blocks as dim > 1, the resolution of a
nondegenerate conditioning state, is scored without visiting its blocks:
every block has rank one and every factor is 0.0.

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
    _check_projector,
    _check_resolution,
    _check_same_dim,
    _check_state,
    hermitize,
    spectral_resolution,
)
from .shannon import _h

__all__ = [
    "BlockTerm", "EntropyBreakdown", "compressed_entropy", "compressed_state",
    "conditional_entropy", "conditional_entropy_given_blocks", "information_gain",
    "joint_entropy", "pinch", "self_conditional_entropy", "self_information_gain",
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

    The Shannon entropy _h of the eigenvalues the constructor kept
    (DensityMatrix._eig), so no matrix is diagonalized here; the state was
    checked positive at construction, and tol is not read. _h sums over the
    positive entries and floors at +0.0: a pure state can keep an eigenvalue
    just above 1, whose term makes the sum a rounding error below zero, and
    an exact pure state gives -0.0; both read +0.0.
    """
    _check_state(rho, "rho")
    return _h(rho._eig[0])


def _spectrum_entropies(w: np.ndarray, tol: Tolerances) -> list[float]:
    """Entropy mass t ln t - sum mu ln mu of each row of a stack of spectra w.

    w is (g, m); mu is w clipped at zero, t the row sum of mu, and ln is
    taken only where mu > 0. A row whose mass t is at or below the support
    tolerance gives exactly 0.0. The clipping, masses and log terms are
    array operations over the whole stack; each row then costs one float
    t ln t. Every row gets the bits of scoring its spectrum alone: t ln t
    uses math.log, which numpy's vectorized log does not always match in the
    last bit, and a row holding zeros (a rank-deficient compression) sums
    its positive terms alone, since zeros would regroup numpy's pairwise sum.
    """
    mu = np.maximum(w, 0.0)
    t = mu.sum(axis=1)
    pos = mu > 0.0
    terms = mu * np.log(np.where(pos, mu, 1.0))
    s = terms.sum(axis=1)
    if not pos.all():
        for i in np.flatnonzero(~pos.all(axis=1)):
            s[i] = terms[i][pos[i]].sum()
    return [
        ti * math.log(ti) - si if ti > tol.support else 0.0
        for ti, si in zip(t.tolist(), s.tolist())
    ]


def _block_entropies(rho: DensityMatrix, frame, bounds, tol: Tolerances) -> list[float]:
    """Entropy mass of rho in the span of each block, in block order.

    Block j is spanned by the frame columns V_j = frame[:, bounds[j]:bounds[j + 1]],
    and the spectrum of V_j* rho V_j is that of the nonzero block of
    Q_j rho Q_j, Q_j = V_j V_j*. With as many blocks as dim > 1 every block
    has rank one and every factor is 0.0, so the blocks are not visited. A
    block spanning the whole space (V_j unitary, even at dim 1) holds all of
    rho, so its factor is von_neumann_entropy(rho), read from the eigenvalues
    the state kept. Blocks of equal rank 2 <= m < dim form one rank group:
    their column slices are stacked as (k, dim, m), compressed into
    (k, m, m), diagonalized by one batched eigvalsh and scored as one stack
    (_spectrum_entropies), so no numpy call runs per block unless its
    compression is rank-deficient. Other rank-one blocks give 0.0 without a
    compression.
    """
    k = len(bounds) - 1
    factors = [0.0] * k
    if k == rho.dim > 1:
        return factors
    by_rank: dict[int, list[int]] = {}
    for j in range(k):
        m = bounds[j + 1] - bounds[j]
        if m == rho.dim:
            factors[j] = von_neumann_entropy(rho, tol)
        elif m > 1:
            by_rank.setdefault(m, []).append(j)
    for m, group in by_rank.items():
        stack = np.array([frame[:, bounds[j]:bounds[j] + m] for j in group])
        c = hermitize(stack.conj().swapaxes(1, 2) @ rho.mat @ stack)
        for j, factor in zip(group, _spectrum_entropies(np.linalg.eigvalsh(c), tol)):
            factors[j] = factor
    return factors


def compressed_entropy(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Entropy mass of rho inside the subspace of Q.

    Equal to -tr(QrhoQ ln QrhoQ) + t ln t with t = tr(Q rho), and to
    t * S(compressed_state(rho, q)). Returns von_neumann_entropy(rho) for
    Q = I, and otherwise exactly 0.0 for rank(Q) <= 1 and for vanishing
    compressions.
    """
    _check_state(rho, "rho")
    _check_projector(q, "q")
    _check_same_dim(rho, q)
    return _block_entropies(rho, q.range_basis(), (0, q.rank), tol)[0]


def compressed_state(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> DensityMatrix:
    """Renormalized compression Q rho Q / tr(Q rho).

    Raises ZeroCompression when the compression carries no mass.
    """
    _check_state(rho, "rho")
    _check_projector(q, "q")
    _check_same_dim(rho, q)
    c = hermitize(q.mat @ rho.mat @ q.mat)
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
    tr(Q_j sigma) is the resolution's weights[j], and each factor from the
    compression V_j* rho V_j onto the block's frame columns V_j; the blocks
    of equal rank are compressed, diagonalized and scored as one stack, and
    rank-one blocks contribute factor 0.0 without any compression. When
    sigma is proportional to the identity its one block spans the space,
    with weight 1.0 and factor von_neumann_entropy(rho), so the total is
    S(rho) exactly, with no compression. Blocks whose sigma weight is at or
    below the support tolerance are stored with weight 0.0. The resolution
    of sigma is memoised on sigma, so conditioning many states on one sigma
    object resolves it once.
    """
    _check_state(rho, "rho")
    _check_state(sigma, "sigma")
    _check_same_dim(rho, sigma)
    res = spectral_resolution(sigma, tol)
    factors = _block_entropies(rho, res.frame, res.bounds, tol)
    weights = [0.0 if w <= tol.support else w for w in res.weights]
    total = 0.0
    for weight, factor in zip(weights, factors):
        total += weight * factor
    per_block = tuple(map(BlockTerm, range(len(weights)), weights, factors))
    return EntropyBreakdown(total=total, per_block=per_block)


def self_conditional_entropy(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Conditional entropy of a state given itself, via the closed form.

    Each eigenvalue of multiplicity r contributes its squared block weight
    (value * r)^2 times ln r; only degenerate eigenvalues contribute.
    """
    _check_state(rho, "rho")
    res = spectral_resolution(rho, tol)
    total = 0.0
    for w, rank in zip(res.weights, res.ranks()):
        if rank > 1:
            total += w ** 2 * math.log(rank)
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
    factors = _block_entropies(rho, blocks.frame, blocks.bounds, tol)
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


def _gain(s_rho: float, conditional: float) -> float:
    """S(rho) - S(rho | sigma) from its two terms; never below +0.0.

    The bound S(rho | sigma) <= S(rho) can fail by a rounding: given a sigma
    with a degenerate block smaller than the space, a pure state's
    compression into it is scored from eigenvalues exact only to rounding,
    and can read about 1e-14 above S(rho) = 0. That is reported as +0.0.
    """
    g = s_rho - conditional
    return g if g > 0.0 else 0.0


def information_gain(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """S(rho) - S(rho | sigma); between +0.0 and S(rho)."""
    return _gain(von_neumann_entropy(rho, tol), conditional_entropy(rho, sigma, tol).total)


def self_information_gain(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """S(rho) - S(rho | rho), the information a state carries about itself.

    Never below +0.0: for a state proportional to a projector (I/d, say) the
    two terms agree but for a rounding, which is reported as +0.0.
    """
    return _gain(von_neumann_entropy(rho, tol), self_conditional_entropy(rho, tol))
