"""Random draws; deterministic given a seed.

The public API is the four seeded draws: a unitary, a density matrix, a
projector and an identity resolution, each from its own seed. The private
helpers draw from a generator that the caller passes, so the audit can key
every sampled trial by (seed, stream, dim, trial) and replay it in
isolation. Every state draw of the audit and the demos lives here, beside
the rank profiles (_RANK_PROFILES) that _draw_density reads.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import BadShape, ValidationError
from .matcore import DensityMatrix, IdentityResolution, Projector, _check_dim, _rotate, hermitize

__all__ = ["random_density", "random_projector", "random_resolution", "random_unitary"]


def _rng_for(*tags: int) -> np.random.Generator:
    """Generator keyed by nonnegative integers (a seed and stream tags); a float is a TypeError."""
    key = tuple(map(operator.index, tags))
    if any(t < 0 for t in key):
        raise ValidationError(f"seed must be a nonnegative integer, got tags {key}")
    return np.random.default_rng(key)


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase fixing."""
    z = _complex_gaussian(rng, dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def _ginibre_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Density-matrix sample G G* / tr(G G*) with G complex Gaussian dim x rank."""
    g = _complex_gaussian(rng, dim, rank)
    a = g @ g.conj().T
    return a / np.trace(a).real


# ---------------------------------------------------------------------------
# Seeded draws


def random_unitary(dim: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed."""
    _check_dim(dim)
    return _haar_unitary(dim, _rng_for(seed))


def random_density(dim: int, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Trace-normalized Wishart state G G* / tr with G complex Gaussian dim x rank."""
    _check_dim(dim)
    rank = dim if rank is None else operator.index(rank)
    if rank < 1 or rank > dim:
        raise BadShape(f"rank {rank} outside [1, {dim}]")
    return DensityMatrix(_ginibre_density(dim, rank, _rng_for(seed)))


def random_projector(dim: int, rank: int, seed: int = 0) -> Projector:
    """Projector onto a Haar-random subspace of the given rank."""
    _check_dim(dim)
    rank = operator.index(rank)
    if rank < 0 or rank > dim:
        raise BadShape(f"rank {rank} outside [0, {dim}]")
    basis = np.ascontiguousarray(_haar_unitary(dim, _rng_for(seed))[:, :rank])
    return Projector.from_basis(basis)


def random_resolution(dim: int, block_sizes, seed: int = 0) -> IdentityResolution:
    """Resolution with the given block sizes along a Haar-random frame."""
    _check_dim(dim)
    return IdentityResolution._from_frame(_haar_unitary(dim, _rng_for(seed)), block_sizes)


# ---------------------------------------------------------------------------
# Generator-level draws for the audit and the demos


# rank profile -> the rank (dim, rng) -> r of a _draw_density sample.
_RANK_PROFILES = {
    "full": lambda dim, rng: dim,
    "mixed": lambda dim, rng: int(rng.integers(1, dim + 1)),
}


def _draw_density(dim: int, rng: np.random.Generator, profile: str) -> DensityMatrix:
    return DensityMatrix(_ginibre_density(dim, _RANK_PROFILES[profile](dim, rng), rng))


def _random_composition(dim: int, rng: np.random.Generator, degenerate: bool) -> list[int]:
    sizes = []
    left = dim
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    if degenerate and dim >= 2 and all(s == 1 for s in sizes):
        sizes = [2] + sizes[2:]
    rng.shuffle(sizes)
    return sizes


def _spaced_levels(sizes, rng: np.random.Generator, gap_floor: float) -> np.ndarray:
    """Distinct positive block eigenvalues, descending, with sum(sizes * levels) = 1.

    Pairwise gaps and the smallest level are kept at or above gap_floor when a
    random draw achieves that within 200 attempts; the deterministic fallback
    uses evenly spread levels instead (gaps 1 / sum(sizes * (k..1))).
    """
    k = len(sizes)
    weights = np.asarray(sizes, dtype=float)
    for _ in range(200):
        raw = np.sort(rng.random(k) + 0.05)[::-1]
        vals = raw / float(np.dot(weights, raw))
        if vals[-1] < gap_floor:
            continue
        if k == 1 or float(np.min(-np.diff(vals))) >= gap_floor:
            return vals
    base = np.arange(k, 0, -1).astype(float)
    return base / float(np.dot(weights, base))


def _draw_degenerate_state(
    dim: int, rng: np.random.Generator, gap_floor: float
) -> DensityMatrix:
    """State with exactly degenerate blocks and cluster-safe level gaps."""
    sizes = _random_composition(dim, rng, degenerate=True)
    frame = _haar_unitary(dim, rng)
    levels = _spaced_levels(sizes, rng, gap_floor)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for level, s in zip(levels, sizes):
        cols = frame[:, start:start + s]
        mat += level * (cols @ cols.conj().T)
        start += s
    return DensityMatrix(hermitize(mat))


def _draw_nondegenerate_state(
    dim: int, rng: np.random.Generator, gap_floor: float
) -> DensityMatrix:
    """Full-rank state with all spectral gaps >= gap_floor."""
    levels = _spaced_levels([1] * dim, rng, gap_floor)
    frame = _haar_unitary(dim, rng)
    mat = (frame * levels) @ frame.conj().T
    return DensityMatrix(hermitize(mat))


def _draw_conditioning(
    dim: int, rng: np.random.Generator, trial: int, gap_floor: float
) -> DensityMatrix:
    """Nondegenerate on even trials, exactly degenerate blocks on odd ones."""
    if trial % 2:
        return _draw_degenerate_state(dim, rng, gap_floor)
    return _draw_nondegenerate_state(dim, rng, gap_floor)


def _draw_commuting_pair(dim: int, rng: np.random.Generator, gap_floor: float) -> tuple:
    """Two exactly degenerate states diagonal in one Haar-random frame."""
    frame = _haar_unitary(dim, rng)
    pair = []
    for _ in range(2):
        sizes = _random_composition(dim, rng, degenerate=True)
        levels = _spaced_levels(sizes, rng, gap_floor)
        pair.append(_rotate(DensityMatrix.diagonal(np.repeat(levels, sizes)), frame))
    return tuple(pair)
