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
