"""Projector-manifold ascent: gradient oracle, maximization, gap reports."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from qce import (
    BadShape,
    DensityMatrix,
    NotStrictlyPositive,
    OptimizeConfig,
    Projector,
    ValidationError,
    ZeroCompression,
    compressed_entropy,
    entropy_gap_report,
    hermitize,
    max_abs,
    maximize_compressed_entropy,
    probe_max_self_gain,
    random_density,
    random_unitary,
    variational_gradient,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
FAST = OptimizeConfig(restarts=3, max_iters=600)


def rotated_density(diag_vals, theta):
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]])
    return DensityMatrix(u @ np.diag(diag_vals) @ u.T)


def directional_difference(rho, q, k, h=1e-4):
    """Central finite difference of F along the unitary flow generated by k."""

    def value(s):
        flow = scipy.linalg.expm(-1j * s * k)
        moved = DensityMatrix(hermitize(flow @ rho.mat @ flow.conj().T))
        return compressed_entropy(moved, q)

    return (value(h) - value(-h)) / (2.0 * h)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


def brute_force_max(diag_vals, rank):
    """Max of F over coordinate projectors, valid for diagonal rho."""
    rho = DensityMatrix.diagonal(diag_vals)
    best = -np.inf
    for idx in itertools.combinations(range(len(diag_vals)), rank):
        best = max(best, compressed_entropy(rho, Projector.coordinate(len(diag_vals), idx)))
    return best


# -------------------------------------------------------------- gradient


def test_gradient_vanishes_when_commuting():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    q = Projector.coordinate(3, [0, 1])
    assert max_abs(variational_gradient(rho, q)) <= 1e-12


def test_gradient_is_hermitian():
    rho = rotated_density([0.7, 0.3], 0.3)
    g = variational_gradient(rho, Projector.coordinate(2, [0]))
    np.testing.assert_allclose(g, g.conj().T, atol=1e-14)


def test_gradient_finite_difference_dim2():
    rho = rotated_density([0.7, 0.3], 0.3)
    q = Projector.coordinate(2, [0])
    g = variational_gradient(rho, q)
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = random_hermitian(2, rng)
        analytic = float(np.trace(g @ k).real)
        numeric = directional_difference(rho, q, k)
        assert abs(analytic - numeric) <= 1e-6


def test_gradient_finite_difference_dim4():
    rng = np.random.default_rng(1)
    rho = random_density(4, seed=3)
    # Mix toward the center so every eigenvalue is safely positive.
    rho = DensityMatrix(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
    q = Projector.coordinate(4, [0, 2])
    g = variational_gradient(rho, q)
    for _ in range(10):
        k = random_hermitian(4, rng)
        analytic = float(np.trace(g @ k).real)
        numeric = directional_difference(rho, q, k)
        assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric))


def test_gradient_relative_error_sweep():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        rho = random_density(dim, seed=int(rng.integers(1 << 30)))
        rho = DensityMatrix(0.9 * rho.mat + 0.1 * np.eye(dim) / dim)
        rank = int(rng.integers(1, dim + 1))
        cols = sorted(rng.permutation(dim)[:rank].tolist())
        q = Projector.coordinate(dim, cols)
        u = random_unitary(dim, seed=int(rng.integers(1 << 30)))
        q = Projector(u @ q.mat @ u.conj().T)
        g = variational_gradient(rho, q)
        k = random_hermitian(dim, rng)
        analytic = float(np.trace(g @ k).real)
        numeric = directional_difference(rho, q, k)
        scale = max(abs(numeric), 1e-3)
        assert abs(analytic - numeric) / scale <= 1e-5


def test_gradient_rejects_zero_mass():
    rho = DensityMatrix.diagonal([1.0, 0.0])
    with pytest.raises(ZeroCompression):
        variational_gradient(rho, Projector.coordinate(2, [1]))


# ------------------------------------------------------------ maximization


def test_config_validation():
    with pytest.raises(ValidationError, match="ascent"):
        OptimizeConfig(step_init=0.0)
    with pytest.raises(ValidationError, match="ascent"):
        OptimizeConfig(shrink=1.0)
    with pytest.raises(ValidationError, match="ascent"):
        OptimizeConfig(max_iters=0)
    with pytest.raises(ValidationError, match="seed"):
        OptimizeConfig(seed=-1)


def test_maximize_full_rank_returns_entropy():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    res = maximize_compressed_entropy(rho, 3)
    assert res.best_value == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
    assert res.iterations == 0
    assert res.converged
    assert res.commutation_residual <= 1e-12


def test_maximize_rank_one_returns_zero():
    rho = DensityMatrix.diagonal([0.6, 0.25, 0.15])
    res = maximize_compressed_entropy(rho, 1)
    assert res.best_value == 0.0
    assert res.converged
    assert res.commutation_residual <= 1e-4
    assert res.best_projector.rank == 1


def test_maximize_oracle_dim3():
    rho = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    res = maximize_compressed_entropy(rho, 2, FAST)
    assert res.converged
    assert res.best_value == pytest.approx(0.529251, abs=5e-7)
    assert res.best_value == pytest.approx(brute_force_max([0.5, 0.3, 0.2], 2), abs=1e-9)
    # The maximizer is the top-two coordinate plane and commutes with rho.
    np.testing.assert_allclose(res.best_projector.mat, np.diag([1.0, 1.0, 0.0]), atol=1e-6)
    assert res.commutation_residual <= 1e-4


def test_brute_force_table_dim3():
    np.testing.assert_allclose(
        sorted(
            compressed_entropy(
                DensityMatrix.diagonal([0.5, 0.3, 0.2]), Projector.coordinate(3, idx)
            )
            for idx in itertools.combinations(range(3), 2)
        ),
        sorted([0.529251, 0.418789, 0.336506]),
        atol=5e-7,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximize_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 6))
    raw = np.sort(rng.uniform(0.05, 1.0, size=dim))[::-1]
    raw += np.linspace(0.02 * dim, 0.0, dim)
    vals = raw / raw.sum()
    rho = DensityMatrix.diagonal(vals)
    for rank in range(1, dim):
        res = maximize_compressed_entropy(rho, rank, FAST)
        assert res.best_value == pytest.approx(
            brute_force_max(vals, rank), abs=1e-6
        )
        assert res.commutation_residual <= 1e-4


def test_maximize_best_dominates_restarts():
    rho = DensityMatrix.diagonal([0.4, 0.3, 0.2, 0.1])
    res = maximize_compressed_entropy(rho, 2, FAST)
    assert res.best_value >= max(res.restart_values) - 1e-12
    assert len(res.restart_values) == FAST.restarts


def test_maximize_bounded_by_entropy():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = random_density(4, seed=int(rng.integers(1 << 30)))
        rho = DensityMatrix(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
        res = maximize_compressed_entropy(rho, 2, FAST)
        assert res.best_value <= von_neumann_entropy(rho) + 1e-8


def test_maximize_unitary_invariant_value():
    rho = DensityMatrix.diagonal([0.45, 0.3, 0.25])
    u = random_unitary(3, seed=77)
    moved = DensityMatrix(u @ rho.mat @ u.conj().T)
    a = maximize_compressed_entropy(rho, 2, FAST).best_value
    b = maximize_compressed_entropy(moved, 2, FAST).best_value
    assert a == pytest.approx(b, abs=1e-6)


def test_maximize_validates_inputs():
    rho = DensityMatrix.diagonal([1.0, 0.0])
    with pytest.raises(NotStrictlyPositive):
        maximize_compressed_entropy(rho, 1)
    good = DensityMatrix.diagonal([0.7, 0.3])
    with pytest.raises(BadShape, match="rank"):
        maximize_compressed_entropy(good, 3)
    with pytest.raises(BadShape, match="rank"):
        maximize_compressed_entropy(good, 0)


# ------------------------------------------------------------ gap reports


def test_gap_report_dim2_oracle():
    rho = DensityMatrix.diagonal([0.7, 0.3])
    rep = entropy_gap_report(rho, FAST)
    assert rep.entropy == pytest.approx(0.610864, abs=5e-7)
    assert rep.values[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.all_strict
    assert rep.min_margin == pytest.approx(rep.entropy, abs=1e-9)


def test_gap_report_uniform3_oracle():
    rep = entropy_gap_report(DensityMatrix.maximally_mixed(3), FAST)
    assert rep.entropy == pytest.approx(math.log(3), abs=1e-12)
    by_rank = dict(zip(rep.ranks, rep.values))
    assert by_rank[1] == pytest.approx(0.0, abs=1e-9)
    assert by_rank[2] == pytest.approx((2.0 / 3.0) * LN2, abs=1e-6)
    assert by_rank[2] == pytest.approx(0.462098, abs=5e-7)
    assert rep.all_strict


def test_gap_report_random_dim4_strict():
    rho = random_density(4, seed=5)
    rho = DensityMatrix(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
    rep = entropy_gap_report(rho, FAST)
    assert rep.ranks == (1, 2, 3)
    assert all(rep.converged)
    assert rep.all_strict
    assert rep.min_margin > 0.0


# ------------------------------------------------------------- gain probe


def test_self_gain_probe_dim2():
    probe = probe_max_self_gain(2)
    assert probe.pattern == (1, 1)
    assert LN2 - 1e-2 <= probe.best_gain <= LN2 + 1e-9
    gains = dict(probe.per_pattern)
    # The fully degenerate pattern is the maximally mixed state: zero gain.
    assert gains[(2,)] == pytest.approx(0.0, abs=1e-12)


def test_self_gain_probe_dim3_patterns():
    probe = probe_max_self_gain(3)
    gains = dict(probe.per_pattern)
    assert set(gains) == {(3,), (2, 1), (1, 1, 1)}
    assert gains[(3,)] == pytest.approx(0.0, abs=1e-12)
    assert probe.best_gain <= math.log(3) + 1e-9
    assert probe.best_gain == pytest.approx(max(gains.values()), abs=1e-12)
