"""Random matrix ensembles; deterministic given a seed.

Seeds are always built from explicit integer tuples so every draw in a sweep
can be replayed in isolation.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def rng_for(*tags: int) -> np.random.Generator:
    """Generator keyed by a tuple of nonnegative integers (a seed and stream tags)."""
    key = tuple(int(t) for t in tags)
    if any(t < 0 for t in key):
        raise ValidationError(f"seed must be a nonnegative integer, got tags {key}")
    return np.random.default_rng(key)


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase fixing."""
    z = _complex_gaussian(rng, dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def haar_basis(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """First columns of a Haar unitary: a uniformly random orthonormal frame."""
    return np.ascontiguousarray(haar_unitary(dim, rng)[:, :rank])


def ginibre_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Density-matrix sample G G* / tr(G G*) with G complex Gaussian dim x rank."""
    g = _complex_gaussian(rng, dim, rank)
    a = g @ g.conj().T
    return a / np.trace(a).real
