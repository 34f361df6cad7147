"""Resolutions of the identity as classical partitions, and partial orders.

The normalized trace tau = tr/dim turns a pair of identity resolutions into
genuine classical partition data: p_i = tau(P_i), q_j = tau(Q_j), and
joint_{ij} = tau(P_i Q_j), which is nonnegative and has the right marginals
even when the two families do not commute. Every classical quantity
(conditional entropy, joint entropy, mutual information) then applies
verbatim; the joint is symmetric by construction.

Orders: a resolution is below another when each of its blocks sits inside a
unique block of the other with every coarse block hit; a state is more mixed
than another when its spectral blocks refine this way and the coarse state's
weights reproduce the fine state's block masses.

The fixed points of the pinching map along a resolution {P_i} form the block
diagonal algebra (the commutant of the family): operators of the form
sum_i P_i A P_i. Its linear dimension is sum_i rank_i^2, which
commutant_dim reports for the spectral resolution of a state; no further
structure of that algebra is exposed as API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimMismatch
from .matcore import (
    DensityMatrix,
    IdentityResolution,
    SpectralResolution,
    as_complex_matrix,
    max_abs,
    spectral_resolution,
)
from .shannon import (
    ClassicalPartitionData,
    conditional_shannon_entropy,
    joint_shannon_entropy,
    shannon_entropy,
)

__all__ = [
    "OrderWitness",
    "commutant_dim",
    "conditional_entropy_of_states",
    "more_mixed",
    "normalized_trace",
    "partition_from_resolutions",
    "resolution_conditional_entropy",
    "resolution_entropy",
    "resolution_joint_entropy",
    "resolution_leq",
]


def normalized_trace(a) -> complex:
    """tau(A) = tr(A) / dim, a faithful tracial state on matrices."""
    m = as_complex_matrix(a)
    return complex(np.trace(m)) / m.shape[0]


def _blocks(res) -> IdentityResolution:
    if isinstance(res, SpectralResolution):
        return res.blocks()
    if isinstance(res, IdentityResolution):
        return res
    raise TypeError(
        f"expected an IdentityResolution or SpectralResolution, got {type(res).__name__}"
    )


def _block_overlaps(pb: IdentityResolution, qb: IdentityResolution) -> np.ndarray:
    """tr(P_i Q_j) for all block pairs: block sums of |V* W|^2 over the frames."""
    if pb.dim != qb.dim:
        raise DimMismatch(f"resolutions have dims {pb.dim} and {qb.dim}")
    overlap = np.abs(pb.frame.conj().T @ qb.frame) ** 2
    rows = np.add.reduceat(overlap, pb.bounds[:-1], axis=0)
    return np.add.reduceat(rows, qb.bounds[:-1], axis=1)


def partition_from_resolutions(
    p_res, q_res, tol: Tolerances = DEFAULT_TOLERANCES
) -> ClassicalPartitionData:
    """Classical partition data of two resolutions under the normalized trace.

    joint[i, j] = tau(P_i Q_j) is a valid joint distribution (nonnegative,
    marginals rank/dim) whether or not the families commute. With frames V
    and W, tr(P_i Q_j) is the sum of |V* W|^2 over block (i, j).
    """
    pb, qb = _blocks(p_res), _blocks(q_res)
    return ClassicalPartitionData.from_joint(_block_overlaps(pb, qb) / pb.dim, tol)


def resolution_entropy(res, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Entropy of the dimension distribution (rank_i / dim)."""
    b = _blocks(res)
    return shannon_entropy(np.asarray(b.ranks(), dtype=float) / b.dim)


def resolution_conditional_entropy(
    p_res, q_res, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """H(P | Q) of the two resolutions under the normalized trace."""
    return conditional_shannon_entropy(partition_from_resolutions(p_res, q_res, tol))


def resolution_joint_entropy(
    p_res, q_res, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """H(P, Q) under the normalized trace; symmetric in its arguments."""
    return joint_shannon_entropy(partition_from_resolutions(p_res, q_res, tol))


@dataclass(frozen=True)
class OrderWitness:
    """Outcome of a refinement comparison.

    When holds is True, assignment[i] is the index of the unique coarse
    block containing fine block i. Otherwise violation names the first
    failure found.
    """

    holds: bool
    assignment: tuple[int, ...] | None = None
    violation: str | None = None


def resolution_leq(p_res, q_res, tol: Tolerances = DEFAULT_TOLERANCES) -> OrderWitness:
    """Whether each block of p_res sits inside a unique block of q_res.

    Fine block P_i sits inside coarse block Q_j when max|Q_j P_i - P_i| <=
    tol.orth. While 2 * dim * tol.orth < 1, such a Q_j holds more than half
    of tr(P_i) and no other coarse block can also hold P_i, so only the
    coarse block with the largest tr(P_i Q_j) is tested, on the frames. The
    order also requires every coarse block to be hit; for consistent
    resolutions that follows automatically, and it is re-checked here.
    """
    pb, qb = _blocks(p_res), _blocks(q_res)
    candidates = np.argmax(_block_overlaps(pb, qb), axis=1)
    fine, coarse = pb.bases(), qb.bases()
    for i, j in enumerate(candidates):
        v, w = fine[i], coarse[j]
        outside = v - w @ (w.conj().T @ v)  # (I - Q_j) V_i
        if max_abs(outside @ v.conj().T) > tol.orth:
            return OrderWitness(False, violation=f"block {i} lies inside no coarse block")
    assignment = tuple(int(j) for j in candidates)
    missing = set(range(len(qb))) - set(assignment)
    if missing:
        return OrderWitness(
            False, violation=f"coarse blocks {sorted(missing)} contain no fine block"
        )
    return OrderWitness(True, assignment=assignment)


def more_mixed(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Whether sigma is a coarsening of rho that reproduces its block masses.

    True when (a) the spectral blocks of rho each sit inside a unique
    spectral block of sigma, and (b) for every block Q_j of sigma,
    tr(rho Q_j) equals sigma's eigenvalue times rank(Q_j) within 1e-8.
    Implies S(rho) <= S(sigma) and that the commutant of rho is contained
    in that of sigma.
    """
    if not isinstance(rho, DensityMatrix) or not isinstance(sigma, DensityMatrix):
        raise TypeError("more_mixed expects two DensityMatrix operands")
    if rho.dim != sigma.dim:
        raise DimMismatch(f"operands have dims {rho.dim} and {sigma.dim}")
    res_r = spectral_resolution(rho, tol)
    res_s = spectral_resolution(sigma, tol)
    if not resolution_leq(res_r.blocks(), res_s.blocks(), tol).holds:
        return False
    # tr(rho Q_j) is the sum of the diagonal of V_j* rho V_j.
    v = res_s.frame
    diag = np.einsum("ij,ij->j", v.conj(), rho.mat @ v).real
    masses = np.add.reduceat(diag, res_s.blocks().bounds[:-1])
    targets = np.asarray(res_s.eigenvalues) * np.asarray(res_s.ranks())
    return bool(np.all(np.abs(masses - targets) <= 1e-8))


def commutant_dim(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Dimension sum rank_i^2 of the algebra commuting with rho.

    Equals dim^2 exactly for multiples of the identity and dim exactly for
    nondegenerate spectra.
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError("commutant_dim expects a DensityMatrix")
    res = spectral_resolution(rho, tol)
    return int(sum(r * r for r in res.ranks()))


def conditional_entropy_of_states(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """H(P(rho) | Q(sigma)): the resolution-only conditional entropy of states.

    Depends on the two spectral projector families alone; the eigenvalues of
    both states are forgotten. Vanishes exactly when sigma's resolution
    refines rho's.
    """
    if not isinstance(rho, DensityMatrix) or not isinstance(sigma, DensityMatrix):
        raise TypeError("conditional_entropy_of_states expects two DensityMatrix operands")
    if rho.dim != sigma.dim:
        raise DimMismatch(f"operands have dims {rho.dim} and {sigma.dim}")
    res_r = spectral_resolution(rho, tol)
    res_s = spectral_resolution(sigma, tol)
    return resolution_conditional_entropy(res_r.blocks(), res_s.blocks(), tol)
