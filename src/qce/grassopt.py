"""Ascent over fixed-rank projectors for the compressed entropy.

The functional Q -> compressed_entropy(rho, Q) is smooth along unitary
orbits Q(t) = e^{-itK} Q e^{itK} wherever the compression keeps full rank on
the range of Q, with directional derivative tr(G K) for the Hermitian

    G = i [B, rho],   B = ln(tr Q rho Q) Q - Q ln(Q rho Q) Q,

where the logarithm is taken on the range of Q only. Steepest ascent
therefore moves Q by conjugation with e^{i eta G}; stationary points have
G = 0, which forces Q to commute with rho, so maximizers over a fixed rank
are found among the spectral subspaces of rho. The optimizer exploits this
only as a diagnostic (the commutation residual of the returned projector);
the search itself is plain Armijo-backtracked ascent from Haar-random
starts, restarted several times.

Iterates carry an orthonormal basis of the range (the projector is its
outer product), so conjugation reduces to multiplying the basis by a
unitary; a QR pass every few iterations removes accumulated rounding.
Every functional evaluation recomputes the compressed spectrum from
scratch; no eigenstructure is tracked along the path, so a line-search step
crossing a spectral degeneracy of the compression is harmless (the value is
continuous there even though the spectral resolution is not).

Rank-one projectors are global flats: the functional vanishes identically
on them and the gradient is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    BadShape,
    DimMismatch,
    NotStrictlyPositive,
    ValidationError,
    ZeroCompression,
)
from .entropy import self_information_gain, von_neumann_entropy
from .matcore import DensityMatrix, Projector, commutator_residual, hermitize
from .rand import haar_basis, rng_for

__all__ = [
    "GapReport",
    "OptimizeConfig",
    "OptimizeResult",
    "SelfGainProbe",
    "entropy_gap_report",
    "maximize_compressed_entropy",
    "probe_max_self_gain",
    "variational_gradient",
]


@dataclass(frozen=True)
class OptimizeConfig:
    """Ascent parameters; defaults are the tested ones."""

    step_init: float = 0.5
    armijo_c: float = 1e-4
    shrink: float = 0.5
    grad_tol: float = 1e-7
    max_iters: int = 2000
    restarts: int = 8
    seed: int = 0
    resync_every: int = 25

    def __post_init__(self) -> None:
        ok = (
            self.step_init > 0
            and 0 < self.armijo_c < 1
            and 0 < self.shrink < 1
            and self.grad_tol > 0
            and self.max_iters >= 1
            and self.restarts >= 1
            and self.resync_every >= 1
        )
        if not ok:
            raise ValidationError("invalid ascent parameters")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class OptimizeResult:
    """Best projector found over all restarts.

    restart_values holds the final value of each restart; best_value is
    their maximum. converged reports whether the winning restart met the
    gradient tolerance. commutation_residual is the entrywise max norm of
    [rho, best_projector], which vanishes at true stationary points.
    """

    best_value: float
    best_projector: Projector
    grad_norm: float
    iterations: int
    converged: bool
    restart_values: tuple[float, ...]
    commutation_residual: float


def _compression_logdata(rho_mat: np.ndarray, basis: np.ndarray):
    """Spectrum and eigenvectors of the compression in range coordinates."""
    m = hermitize(basis.conj().T @ rho_mat @ basis)
    mu, u = np.linalg.eigh(m)
    return m, np.clip(mu, 0.0, None), u


def _value_from_basis(rho_mat: np.ndarray, basis: np.ndarray) -> float:
    if basis.shape[1] <= 1:
        return 0.0
    _, mu, _ = _compression_logdata(rho_mat, basis)
    t = float(mu.sum())
    if t <= 0.0:
        return 0.0
    pos = mu[mu > 0.0]
    return float(t * math.log(t) - np.sum(pos * np.log(pos)))


def _gradient_from_basis(
    rho_mat: np.ndarray, basis: np.ndarray, support_tol: float, psd_tol: float
) -> np.ndarray:
    _, mu, u = _compression_logdata(rho_mat, basis)
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
    if not isinstance(rho, DensityMatrix):
        raise TypeError("rho must be a DensityMatrix")
    if not isinstance(q, Projector):
        raise TypeError("q must be a Projector")
    if rho.dim != q.dim:
        raise DimMismatch(f"operands have dims {rho.dim} and {q.dim}")
    if q.rank == 0:
        raise ZeroCompression("the zero projector carries no mass")
    return _gradient_from_basis(rho.mat, q.range_basis(), tol.support, tol.psd)


def _commuting_polish(rho_mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Eigenbasis columns of rho closest to the span of the given basis.

    Stationary points of the ascent commute with rho, so the final iterate
    of a successful run hugs a span of rho-eigenvectors; snapping to the
    columns with the largest overlap removes the last stretch of noise-
    limited creep. The caller keeps the snap only if it does not lower the
    value.
    """
    _, v = np.linalg.eigh(rho_mat)
    overlap = np.sum(np.abs(v.conj().T @ basis) ** 2, axis=1)
    order = np.sort(np.argsort(-overlap)[: basis.shape[1]])
    return np.ascontiguousarray(v[:, order])


def _ascend(
    rho_mat: np.ndarray,
    basis: np.ndarray,
    config: OptimizeConfig,
    tol: Tolerances,
) -> tuple[np.ndarray, float, bool, int]:
    """One restart of Armijo-backtracked ascent. Returns (basis, value, converged, iters)."""
    value = _value_from_basis(rho_mat, basis)
    iters = 0
    for it in range(config.max_iters):
        grad = _gradient_from_basis(rho_mat, basis, tol.support, tol.psd)
        gsq = float(np.sum(np.abs(grad) ** 2))
        if math.sqrt(gsq) <= config.grad_tol:
            return basis, value, True, iters
        gw, gv = np.linalg.eigh(grad)
        eta = config.step_init
        accepted = False
        while eta >= 1e-12:
            unitary = (gv * np.exp(1j * eta * gw)) @ gv.conj().T
            trial = unitary @ basis
            trial_value = _value_from_basis(rho_mat, trial)
            if trial_value >= value + config.armijo_c * eta * gsq:
                accepted = True
                break
            eta *= config.shrink
        if not accepted:
            return basis, value, False, iters
        basis, value = trial, trial_value
        iters += 1
        if (it + 1) % config.resync_every == 0:
            basis = np.linalg.qr(basis)[0]
    return basis, value, False, iters


def maximize_compressed_entropy(
    rho: DensityMatrix,
    rank: int,
    config: OptimizeConfig = OptimizeConfig(),
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OptimizeResult:
    """Maximize compressed_entropy(rho, Q) over projectors of the given rank.

    rho must be strictly positive (min eigenvalue above 1e-6). Runs
    config.restarts independent ascents from Haar-random starts and returns
    the best: the value sequence within each restart is non-decreasing.
    A full-rank request returns the entropy of rho with zero iterations, and
    a rank-one request returns value zero at the top spectral direction
    (the functional is identically zero there, so that maximizer is as good
    as any and commutes with rho). A result with converged=False (the
    winning restart stalled before reaching grad_tol) is still returned,
    flagged.
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError("rho must be a DensityMatrix")
    rank = int(rank)
    if rank < 1 or rank > rho.dim:
        raise BadShape(f"rank {rank} outside [1, {rho.dim}]")
    min_eig = float(np.linalg.eigvalsh(rho.mat)[0])
    if min_eig <= 1e-6:
        raise NotStrictlyPositive(
            f"min eigenvalue {min_eig:.3e} <= 1e-6; the ascent needs rho > 0"
        )
    if rank == rho.dim:
        value = von_neumann_entropy(rho, tol)
        return OptimizeResult(
            best_value=value,
            best_projector=Projector.identity(rho.dim, tol),
            grad_norm=0.0,
            iterations=0,
            converged=True,
            restart_values=(value,),
            commutation_residual=0.0,
        )
    if rank == 1:
        # The functional vanishes identically at rank one, so every projector
        # is a global maximizer; return the canonical commuting one.
        _, vecs = np.linalg.eigh(rho.mat)
        best_q = Projector.from_basis(vecs[:, -1:], tol)
        return OptimizeResult(
            best_value=0.0,
            best_projector=best_q,
            grad_norm=0.0,
            iterations=0,
            converged=True,
            restart_values=(0.0,),
            commutation_residual=commutator_residual(rho.mat, best_q.mat),
        )
    runs = []
    total_iters = 0
    for r in range(config.restarts):
        start = haar_basis(rho.dim, rank, rng_for(config.seed, 9001, r))
        basis, value, converged, iters = _ascend(rho.mat, start, config, tol)
        total_iters += iters
        runs.append((value, basis, converged))
    best_value, best_basis, best_converged = max(runs, key=lambda t: t[0])
    best_basis = np.linalg.qr(best_basis)[0]
    polished = _commuting_polish(rho.mat, best_basis)
    polished_value = _value_from_basis(rho.mat, polished)
    if polished_value >= best_value - 1e-12:
        best_basis, best_value = polished, polished_value
    grad = _gradient_from_basis(rho.mat, best_basis, tol.support, tol.psd)
    best_converged = best_converged or float(np.linalg.norm(grad)) <= config.grad_tol
    best_q = Projector.from_basis(best_basis, tol)
    return OptimizeResult(
        best_value=best_value,
        best_projector=best_q,
        grad_norm=float(np.linalg.norm(grad)),
        iterations=total_iters,
        converged=best_converged,
        restart_values=tuple(run[0] for run in runs),
        commutation_residual=commutator_residual(rho.mat, best_q.mat),
    )


@dataclass(frozen=True)
class GapReport:
    """Observed gap between the rank-constrained maxima and the entropy."""

    dim: int
    entropy: float
    ranks: tuple[int, ...]
    values: tuple[float, ...]
    margins: tuple[float, ...]
    converged: tuple[bool, ...]
    min_margin: float
    all_strict: bool


def entropy_gap_report(
    rho: DensityMatrix,
    config: OptimizeConfig = OptimizeConfig(),
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GapReport:
    """Maximize the compressed entropy at every rank below full.

    Reports the margins entropy - max_value per rank. The margins are
    observed quantities: strict positivity is expected for strictly positive
    rho and is reported, not enforced.
    """
    entropy = von_neumann_entropy(rho, tol)
    ranks, values, margins, flags = [], [], [], []
    for rank in range(1, rho.dim):
        result = maximize_compressed_entropy(rho, rank, config, tol)
        ranks.append(rank)
        values.append(result.best_value)
        margins.append(entropy - result.best_value)
        flags.append(result.converged)
    return GapReport(
        dim=rho.dim,
        entropy=entropy,
        ranks=tuple(ranks),
        values=tuple(values),
        margins=tuple(margins),
        converged=tuple(flags),
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


def _pattern_gain(multiplicities: np.ndarray, x: np.ndarray) -> float:
    # Gain for eigenvalue x_i with multiplicity m_i: entropy minus the
    # self-conditioning closed form.
    entropy = float(-np.sum(multiplicities * x * np.log(x)))
    self_cond = float(np.sum((multiplicities * x) ** 2 * np.log(multiplicities)))
    return entropy - self_cond


def probe_max_self_gain(
    dim: int,
    config: OptimizeConfig = OptimizeConfig(),
    tol: Tolerances = DEFAULT_TOLERANCES,
    min_gap: float = 1e-6,
) -> SelfGainProbe:
    """Search for the largest self-information gain in a given dimension.

    For each degeneracy pattern (multiset of multiplicities summing to dim)
    the block eigenvalues are optimized under a pairwise-distinctness floor
    of min_gap; the winner is re-evaluated through the full entropy pipeline
    on an explicitly constructed diagonal state. The supremum is typically
    approached, not attained, at the boundary where eigenvalues coincide
    (the coincident point itself belongs to a coarser pattern and scores
    differently), so the reported gain sits just under the boundary value.
    """
    dim = int(dim)
    if dim < 1:
        raise BadShape("dimension must be positive")
    per_pattern = []
    best_gain = -math.inf
    best_state = None
    best_pattern = None
    for pattern in _integer_partitions(dim):
        mult = np.asarray(pattern, dtype=float)
        k = mult.size
        if k == 1:
            state = DensityMatrix.maximally_mixed(dim, tol)
            gain = self_information_gain(state, tol=tol)
            candidates = [(gain, state)]
        else:
            candidates = []
            rng = rng_for(config.seed, 77, dim, k, int(mult[0]))

            def objective(y, mult=mult):
                z = np.exp(y - y.max())
                x = z / float(np.dot(mult, z))
                penalty = 0.0
                for i in range(len(x)):
                    for j in range(i + 1, len(x)):
                        gap = abs(x[i] - x[j])
                        if gap < min_gap:
                            penalty += 10.0 * (min_gap - gap) / min_gap
                return -_pattern_gain(mult, x) + penalty

            starts = [np.zeros(k)] + [rng.standard_normal(k) for _ in range(3)]
            for y0 in starts:
                res = minimize(
                    objective, y0, method="Nelder-Mead",
                    options={"maxiter": 600, "fatol": 1e-12, "xatol": 1e-9},
                )
                z = np.exp(res.x - res.x.max())
                x = z / float(np.dot(mult, z))
                order = np.argsort(-x)
                x, m_sorted = x[order], mult[order]
                gaps = np.diff(x[::-1])
                if gaps.size and float(np.min(gaps)) < min_gap / 2.0:
                    continue
                values = np.repeat(x, m_sorted.astype(int))
                state = DensityMatrix.diagonal(values, tol)
                candidates.append((self_information_gain(state, tol=tol), state))
        if not candidates:
            continue
        gain, state = max(candidates, key=lambda c: c[0])
        per_pattern.append((tuple(pattern), gain))
        if gain > best_gain:
            best_gain, best_state, best_pattern = gain, state, tuple(pattern)
    return SelfGainProbe(
        dim=dim,
        best_state=best_state,
        best_gain=best_gain,
        pattern=best_pattern,
        per_pattern=tuple(per_pattern),
    )
