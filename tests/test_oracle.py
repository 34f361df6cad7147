"""A 40-digit oracle for the entropy layer, with a stated forward-error budget.

Each case takes the binary matrices the library stored (rho.mat, sigma.mat,
a projector's range basis) exactly into mpmath at 40 significant digits and
recomputes the value there: sigma's mp.eigh eigenvectors are grouped by the
library's own cluster sizes (spectral_resolution(sigma).ranks(); the
clustering decision is the library's contract, the arithmetic is what is
checked), each block compression V* rho V is diagonalized, and its entropy
mass is t ln t - sum mu ln mu over the eigenvalues mu > 0, t = sum mu.

The budget is BUDGET_C * d * eps in nats (eps = 2**-52), for S(rho),
compressed_entropy, every factor of conditional_entropy and its total.
Across the 72 cases below (d in 3, 4, 6, 8; rank(rho) in 1, 2, d; six
seeds each) the largest errors measured were 23.3 d eps (1.6e-14, d = 3)
at rank 1, 10.5 d eps (9.3e-15, d = 4) at rank 2 and 1.2 d eps at full
rank. The rank-deficient errors come from eigenvalues that are zero only to
rounding: eigh returns them at about eps, and each scores -mu ln mu, some
36 eps. BUDGET_C = 100 leaves more than 4x headroom over the worst case.
The conditioning states have level gaps of at least 0.6 / (d (k + 1)) for
k blocks, so their block spans are fixed to rounding; the budget says
nothing about spectra whose gaps approach the clustering scale.
"""

import itertools

import numpy as np
import pytest
from mpmath import mp

from qce import (
    DensityMatrix,
    Projector,
    compressed_entropy,
    conditional_entropy,
    random_density,
    random_unitary,
    spectral_resolution,
    von_neumann_entropy,
)

DIGITS = 40
BUDGET_C = 100.0
EPS = float(np.finfo(float).eps)

DIMS = (3, 4, 6, 8)
SEEDS = range(6)


def ranks_of(dim):
    return (1, 2, dim)


def exact(a):
    """The binary matrix a as an mpmath matrix, entry for entry without rounding."""
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.asarray(a)])


def columns(m, indices):
    """The columns of an mpmath matrix at the given indices, in that order."""
    out = mp.matrix(m.rows, len(indices))
    for k, j in enumerate(indices):
        for i in range(m.rows):
            out[i, k] = m[i, j]
    return out


def mass(eigenvalues):
    """t ln t - sum mu ln mu over the positive eigenvalues mu, t their sum."""
    mu = [x for x in eigenvalues if x > 0]
    if not mu:
        return mp.mpf(0)
    t = mp.fsum(mu)
    return t * mp.log(t) - mp.fsum(x * mp.log(x) for x in mu)


def compressed_mass(rho, basis):
    """Entropy mass of rho in the span of the orthonormal columns of basis."""
    c = basis.transpose_conj() * rho * basis
    return mass(mp.eigh(c, eigvals_only=True))


def conditioning_state(dim, seed):
    """sigma = U diag(levels) U* with at least one block of rank two or more.

    Block sizes are a seeded composition of dim; the levels j + 1 + u,
    u uniform in [0, 0.4), are shuffled and normalized, so every gap is at
    least 0.6 / sum(sizes * levels) >= 0.6 / (dim (k + 1)).
    """
    rng = np.random.default_rng((7, dim, seed))
    while True:
        sizes, left = [], dim
        while left:
            sizes.append(int(rng.integers(1, left + 1)))
            left -= sizes[-1]
        if max(sizes) >= 2:
            break
    raw = np.array([j + 1.0 + rng.uniform(0.0, 0.4) for j in range(len(sizes))])
    rng.shuffle(raw)
    levels = np.repeat(raw / float(np.dot(raw, sizes)), sizes)
    u = random_unitary(dim, seed=1000 + 10 * dim + seed)
    return DensityMatrix(u @ np.diag(levels) @ u.conj().T)


def oracle(rho, sigma, q):
    """(S(rho), compressed mass in q, conditional factors, conditional total), in mp."""
    r, s = exact(rho.mat), exact(sigma.mat)
    s_rho = -mp.fsum(x * mp.log(x) for x in mp.eigh(r, eigvals_only=True) if x > 0)
    basis, _ = mp.qr(exact(q.range_basis()), mode="skinny")
    in_q = compressed_mass(r, basis)
    lam, vec = mp.eigh(s)  # ascending; the resolution's blocks descend
    descending = list(range(rho.dim))[::-1]
    factors, total, start = [], mp.mpf(0), 0
    for rank in spectral_resolution(sigma).ranks():
        block = descending[start:start + rank]
        factors.append(compressed_mass(r, columns(vec, block)))
        total += mp.fsum(lam[i] for i in block) * factors[-1]
        start += rank
    return s_rho, in_q, factors, total


def errors(dim, rank, seed):
    """Each computed value's distance from the oracle, in units of dim * eps."""
    rho = random_density(dim, rank, seed=100 * dim + seed)
    sigma = conditioning_state(dim, seed)
    q = Projector.from_basis(random_unitary(dim, seed=2000 + seed)[:, :max(2, dim // 2)])
    breakdown = conditional_entropy(rho, sigma)
    computed = [
        von_neumann_entropy(rho),
        compressed_entropy(rho, q),
        *(term.factor for term in breakdown.per_block),
        breakdown.total,
    ]
    with mp.workdps(DIGITS):
        s_rho, in_q, factors, total = oracle(rho, sigma, q)
        exact_values = [s_rho, in_q, *factors, total]
        assert len(exact_values) == len(computed)
        return [float(abs(mp.mpf(c) - e)) / (dim * EPS) for c, e in zip(computed, exact_values)]


@pytest.mark.parametrize("dim,rank", [(dim, rank) for dim in DIMS for rank in ranks_of(dim)])
def test_entropies_are_within_the_budget_of_the_40_digit_oracle(dim, rank):
    worst = max(itertools.chain.from_iterable(errors(dim, rank, seed) for seed in SEEDS))
    assert worst <= BUDGET_C, f"error {worst:.2f} d eps exceeds {BUDGET_C:g} d eps"
