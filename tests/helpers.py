"""Helpers shared by several test modules: oracles, random operators and dense views."""

import numpy as np
import scipy.linalg

from qce import DensityMatrix, compressed_entropy, hermitize


def rotated(diag_vals, theta):
    """The state R diag(diag_vals) R^T, R the real plane rotation by theta."""
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]])
    return DensityMatrix(u @ np.diag(diag_vals) @ u.T)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


def directional_difference(rho, q, k, h=1e-4):
    """Central finite difference of F along the unitary flow generated by k."""

    def value(s):
        flow = scipy.linalg.expm(-1j * s * k)
        moved = DensityMatrix(hermitize(flow @ rho.mat @ flow.conj().T))
        return compressed_entropy(moved, q)

    return (value(h) - value(-h)) / (2.0 * h)


def dense_blocks(res):
    """Block projectors V_j V_j* of a resolution's frame columns."""
    return [b @ b.conj().T for b in res.bases()]


def entropy_oracle(rho):
    """-tr(rho ln rho) from a fresh eigvalsh, with 0 ln 0 = 0."""
    w = np.linalg.eigvalsh(rho.mat)
    pos = w[w > 0.0]
    return -float(np.sum(pos * np.log(pos)))
