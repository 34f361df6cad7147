"""Exact rank-constrained maximum of the compressed entropy.

Over projectors Q of rank r, the compressed entropy F(rho, Q) is maximized
by the span of the top r eigenvectors of rho. Let mu_1 >= ... >= mu_r be the
spectrum of the compression Q rho Q on the range of Q. Cauchy interlacing
(Horn and Johnson, Matrix Analysis, 2nd ed., Cor. 4.3.37) gives
mu_i <= lambda_i, the i-th largest eigenvalue of rho, and

    g(mu) = t ln t - sum_i mu_i ln mu_i,   t = sum_i mu_i,

has partial derivatives ln(t / mu_i) >= 0, so g(mu) <= g(lambda_1..lambda_r),
which the top-r eigenspace attains. The solve therefore needs only the
eigendecomposition of rho, which the state kept from its construction: the
compression onto the top-r eigenspace has exactly lambda_1..lambda_r as its
spectrum, so the maximum is g(lambda_1..lambda_r), read from the kept
eigenvalues without forming or diagonalizing the compression.

The functional is also smooth along unitary orbits Q(t) = e^{-itK} Q e^{itK}
wherever the compression keeps full rank on the range of Q, with
directional derivative tr(G K) for the Hermitian

    G = i [B, rho],   B = ln(tr Q rho Q) Q - Q ln(Q rho Q) Q,

where the logarithm is taken on the range of Q only. variational_gradient
returns G, and the optimizer reports its norm at the answer, where it
vanishes because the top-r eigenspace commutes with rho.

Rank-one projectors are global flats: the functional vanishes identically
on them and the gradient is exactly zero.

Nothing here iterates. The Armijo ascent this solve replaced survives only
as an independent oracle in the test suite; its settings survive only as
the frozen settings.optimizer record of the CLI's qce/1 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import BadShape, NotStrictlyPositive, ZeroCompression
from .entropy import _spectrum_entropy, self_information_gain, von_neumann_entropy
from .matcore import (
    DensityMatrix,
    Projector,
    _check_same_dim,
    _check_state,
    commutator_residual,
    hermitize,
)

__all__ = [
    "GapReport",
    "OptimizeResult",
    "SelfGainProbe",
    "entropy_gap_report",
    "maximize_compressed_entropy",
    "probe_max_self_gain",
    "variational_gradient",
]


@dataclass(frozen=True)
class OptimizeResult:
    """The rank-constrained maximum and the projector that attains it.

    grad_norm is the norm of the variational gradient at best_projector, and
    commutation_residual the entrywise max norm of [rho, best_projector];
    both vanish up to rounding. The solve is exact, so iterations is 0,
    converged is True and restart_values holds best_value alone; these three
    stay because the qce/1 optimize report and the benchmark probes
    (bench/probes.py, bench/workloads.py) read them.
    """

    best_value: float
    best_projector: Projector
    grad_norm: float
    iterations: int
    converged: bool
    restart_values: tuple[float, ...]
    commutation_residual: float


def _gradient_from_basis(
    rho_mat: np.ndarray, basis: np.ndarray, support_tol: float, psd_tol: float
) -> np.ndarray:
    # Spectrum (clipped at zero) and eigenvectors of the compression in range coordinates.
    mu, u = np.linalg.eigh(hermitize(basis.conj().T @ rho_mat @ basis))
    mu = np.clip(mu, 0.0, None)
    t = float(mu.sum())
    if t <= support_tol:
        raise ZeroCompression(f"tr(Q rho) = {t:.3e} carries no mass")
    if float(mu[0]) <= psd_tol:
        raise ZeroCompression(
            "compression has near-zero modes; the gradient is undefined there"
        )
    q_mat = basis @ basis.conj().T
    ln_m = (u * np.log(mu)) @ u.conj().T
    b_op = math.log(t) * q_mat - basis @ ln_m @ basis.conj().T
    return hermitize(1j * (b_op @ rho_mat - rho_mat @ b_op))


def variational_gradient(
    rho: DensityMatrix, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Hermitian G with d/dt compressed_entropy(e^{-itK} rho e^{itK}, Q)|_0 = tr(G K).

    Requires the compression to carry mass and be strictly positive on the
    range of Q; raises ZeroCompression otherwise.
    """
    _check_state(rho, "rho")
    if not isinstance(q, Projector):
        raise TypeError("q must be a Projector")
    _check_same_dim(rho, q)
    if q.rank == 0:
        raise ZeroCompression("the zero projector carries no mass")
    return _gradient_from_basis(rho.mat, q.range_basis(), tol.support, tol.psd)


def _positive_eigh(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The state's kept eigendecomposition, ascending, once rho > 1e-6 is checked."""
    vals, vecs = rho._eigh()
    min_eig = float(vals[0])
    if min_eig <= 1e-6:
        raise NotStrictlyPositive(
            f"min eigenvalue {min_eig:.3e} <= 1e-6; the optimizer needs rho > 0"
        )
    return vals, vecs


def _top_value(vals: np.ndarray, rank: int, tol: Tolerances) -> float:
    """Compressed entropy of the top-rank eigenspace, from the ascending spectrum.

    The compression of rho onto that eigenspace has exactly the top-rank
    eigenvalues, so no compression is formed or diagonalized.
    """
    if rank <= 1:
        return 0.0
    return _spectrum_entropy(vals[-rank:], tol)


def maximize_compressed_entropy(
    rho: DensityMatrix,
    rank: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OptimizeResult:
    """Maximize compressed_entropy(rho, Q) over projectors of the given rank.

    rho must be strictly positive (min eigenvalue above 1e-6). The maximizer
    is the top-rank eigenspace of rho (see the module docstring), read off
    the eigendecomposition the state kept, and the value is the entropy mass
    of the top-rank kept eigenvalues. Only the reported grad_norm compresses
    rho onto the maximizer and diagonalizes that compression. A full-rank
    request returns the entropy of rho, and a rank-one request returns value
    zero at the top spectral direction (the functional is identically zero
    there, so that maximizer is as good as any).
    """
    _check_state(rho, "rho")
    rank = int(rank)
    if rank < 1 or rank > rho.dim:
        raise BadShape(f"rank {rank} outside [1, {rho.dim}]")
    vals, vecs = _positive_eigh(rho)
    if rank == rho.dim:
        value = von_neumann_entropy(rho, tol)
        best_q = Projector.identity(rho.dim, tol)
        grad_norm = residual = 0.0
    else:
        value = _top_value(vals, rank, tol)
        basis = np.ascontiguousarray(vecs[:, -rank:])
        best_q = Projector.from_basis(basis, tol)
        grad_norm = 0.0
        if rank > 1:
            grad = _gradient_from_basis(rho.mat, basis, tol.support, tol.psd)
            grad_norm = float(np.linalg.norm(grad))
        residual = commutator_residual(rho.mat, best_q.mat)
    return OptimizeResult(
        best_value=value,
        best_projector=best_q,
        grad_norm=grad_norm,
        iterations=0,
        converged=True,
        restart_values=(value,),
        commutation_residual=residual,
    )


@dataclass(frozen=True)
class GapReport:
    """Gap between the rank-constrained maxima and the entropy."""

    dim: int
    entropy: float
    ranks: tuple[int, ...]
    values: tuple[float, ...]
    margins: tuple[float, ...]
    min_margin: float
    all_strict: bool


def entropy_gap_report(
    rho: DensityMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GapReport:
    """The rank-constrained maximum of the compressed entropy at every rank below full.

    The state's kept eigenvalues serve every rank, with no compression and
    no diagonalization; each value equals
    maximize_compressed_entropy(rho, r).best_value bit for bit. With
    lambda_1 >= ... >= lambda_d the spectrum of rho and t_r the sum of its
    top r eigenvalues, the margin at rank r is

        S(rho) - max_value = -t_r ln t_r - sum_{i>r} lambda_i ln lambda_i,

    which is positive whenever t_r < 1, so all_strict holds for every
    strictly positive rho (up to rounding of the computed margins).
    """
    _check_state(rho, "rho")
    vals = _positive_eigh(rho)[0]
    entropy = von_neumann_entropy(rho, tol)
    ranks = tuple(range(1, rho.dim))
    values = tuple(_top_value(vals, rank, tol) for rank in ranks)
    margins = tuple(entropy - value for value in values)
    return GapReport(
        dim=rho.dim,
        entropy=entropy,
        ranks=ranks,
        values=values,
        margins=margins,
        min_margin=min(margins) if margins else entropy,
        all_strict=all(m > 0.0 for m in margins),
    )


@dataclass(frozen=True)
class SelfGainProbe:
    """Best self-information gain found over degeneracy patterns."""

    dim: int
    best_state: DensityMatrix
    best_gain: float
    pattern: tuple[int, ...]
    per_pattern: tuple[tuple[tuple[int, ...], float], ...]


def _integer_partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def _pattern_weights(mult: np.ndarray) -> np.ndarray:
    """Block weights p maximizing H(p) + sum_i p_i (1 - p_i) ln m_i on the simplex.

    The maximizer solves ln p_i + ln m_i (2 p_i - 1) = s with sum_i p_i = 1.
    The left side (in u = ln p_i) and sum_i p_i(s) are increasing and convex,
    so Newton steps started right of each root descend onto it.
    """
    a = np.log(mult)
    s = float(np.max(a * (2.0 / mult.size - 1.0) - math.log(mult.size)))
    for _ in range(100):
        u = np.minimum(s + a, 0.0)
        for _ in range(100):
            e = 2.0 * a * np.exp(u)
            step = (u + e - s - a) / (1.0 + e)
            u = u - step
            if float(step.max()) <= 1e-15:
                break
        p = np.exp(u)
        ds = (float(p.sum()) - 1.0) / float(np.sum(p / (1.0 + 2.0 * a * p)))
        s -= ds
        if ds <= 1e-16:
            break
    return p


def probe_max_self_gain(
    dim: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    min_gap: float = 1e-6,
) -> SelfGainProbe:
    """The largest self-information gain S(rho) - S(rho | rho) in a given dimension.

    A pattern with multiplicities m_i and block weights p_i = m_i x_i has the
    strictly concave gain H(p) + sum_i p_i (1 - p_i) ln m_i, maximized exactly
    by _pattern_weights. Equal multiplicities tie there, and a tie belongs to
    a coarser pattern, so each tied group is spread symmetrically by min_gap:
    the reported gain sits just under the supremum. A pattern whose
    eigenvalues then come closer than min_gap/2, or reach zero, is skipped;
    the rest are scored through self_information_gain on a diagonal
    DensityMatrix.
    """
    dim = int(dim)
    if dim < 1:
        raise BadShape("dimension must be positive")
    scored = []
    for pattern in _integer_partitions(dim):
        if len(pattern) == 1:
            state = DensityMatrix.maximally_mixed(dim, tol)
        else:
            mult = np.asarray(pattern, dtype=float)
            x = _pattern_weights(mult) / mult
            for m in set(pattern):
                group = np.flatnonzero(mult == m)
                x[group] += min_gap * (np.arange(group.size) - (group.size - 1) / 2.0)
            if float(x.min()) <= 0.0 or float(np.diff(np.sort(x)).min()) < min_gap / 2.0:
                continue
            state = DensityMatrix.diagonal(np.repeat(x, pattern), tol)
        scored.append((self_information_gain(state, tol=tol), pattern, state))
    best_gain, best_pattern, best_state = max(scored, key=lambda c: c[0])
    return SelfGainProbe(
        dim=dim,
        best_state=best_state,
        best_gain=best_gain,
        pattern=best_pattern,
        per_pattern=tuple((pattern, gain) for gain, pattern, _ in scored),
    )
