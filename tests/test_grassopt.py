"""Exact rank-r maximum: gradient oracle, ascent and subset oracles, gap reports."""

import itertools
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qce
from qce import (
    BadShape,
    DensityMatrix,
    Projector,
    ZeroCompression,
    compressed_entropy,
    entropy_gap_report,
    hermitize,
    matrix_to_doc,
    max_abs,
    maximize_compressed_entropy,
    random_density,
    random_projector,
    random_unitary,
    variational_gradient,
    von_neumann_entropy,
)
from qce.cli import main as cli_main
from helpers import directional_difference, random_hermitian, rotated

LN2 = math.log(2.0)
# Settings of the reference Armijo ascent. It stops at gradient norm 1e-6,
# where the value is within about 1e-11 of its limit.
ORACLE = SimpleNamespace(
    step_init=0.5, armijo_c=1e-4, shrink=0.5, grad_tol=1e-6,
    max_iters=2000, restarts=2, seed=0, resync_every=25,
)


def oracle_ascent(rho_mat, rank, config):
    """Best value of config.restarts Armijo ascents from Haar-random rank-r bases.

    Each step conjugates the basis by exp(i eta G), with G the variational
    gradient written out here, and backtracks eta until the Armijo condition
    holds. Shares no code with the library solve.
    """

    def value(basis):
        mu = np.clip(np.linalg.eigvalsh(basis.conj().T @ rho_mat @ basis), 0.0, None)
        t = mu.sum()
        pos = mu[mu > 0.0]
        return float(t * np.log(t) - np.sum(pos * np.log(pos)))

    def gradient(basis):
        mu, u = np.linalg.eigh(basis.conj().T @ rho_mat @ basis)
        ln_m = basis @ (u * np.log(mu)) @ u.conj().T @ basis.conj().T
        b_op = np.log(mu.sum()) * basis @ basis.conj().T - ln_m
        return hermitize(1j * (b_op @ rho_mat - rho_mat @ b_op))

    dim = rho_mat.shape[0]
    rng = np.random.default_rng(config.seed)
    best = -np.inf
    for _ in range(config.restarts):
        z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        basis = np.linalg.qr(z)[0]
        current = value(basis)
        for it in range(config.max_iters):
            grad = gradient(basis)
            gsq = float(np.sum(np.abs(grad) ** 2))
            if math.sqrt(gsq) <= config.grad_tol:
                break
            gw, gv = np.linalg.eigh(grad)
            eta = config.step_init
            while eta >= 1e-12:
                trial = (gv * np.exp(1j * eta * gw)) @ gv.conj().T @ basis
                trial_value = value(trial)
                if trial_value >= current + config.armijo_c * eta * gsq:
                    break
                eta *= config.shrink
            else:
                break
            basis, current = trial, trial_value
            if (it + 1) % config.resync_every == 0:
                basis = np.linalg.qr(basis)[0]
        best = max(best, current)
    return best


def top_window_value(spectrum, rank):
    """t ln t - sum mu ln mu over the rank largest eigenvalues (0 ln 0 = 0)."""
    top = np.sort(spectrum)[::-1][:rank]
    t = top.sum()
    pos = top[top > 0.0]
    return float((t * np.log(t) if t > 0.0 else 0.0) - np.sum(pos * np.log(pos)))


def subset_max(spectrum, rank):
    """Max of the compressed entropy over spectral subspaces of the given rank."""
    return max(
        top_window_value(np.asarray(sub), rank)
        for sub in itertools.combinations(spectrum, rank)
    )


def framed(spectrum, seed):
    u = random_unitary(len(spectrum), seed=seed)
    return DensityMatrix(u @ np.diag(spectrum) @ u.conj().T)


def gapped_spectrum(rng, dim, gap=1e-2):
    while True:
        vals = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
        if vals[-1] > gap and np.min(vals[:-1] - vals[1:]) > gap:
            return vals


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
    rho = rotated([0.7, 0.3], 0.3)
    g = variational_gradient(rho, Projector.coordinate(2, [0]))
    np.testing.assert_allclose(g, g.conj().T, atol=1e-14)


def test_gradient_finite_difference_dim2():
    rho = rotated([0.7, 0.3], 0.3)
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


def test_gradient_rejects_the_zero_projector_and_a_zero_mode():
    rho = DensityMatrix.diagonal([0.6, 0.4, 0.0])
    with pytest.raises(ZeroCompression, match="zero projector"):
        variational_gradient(rho, Projector.zero(3))
    # The compression onto axes 1 and 2 carries mass 0.4 but has the zero mode of axis 2.
    with pytest.raises(ZeroCompression, match=r"near-zero modes \(smallest 0.0e\+00 <= 1e-10\)"):
        variational_gradient(rho, Projector.coordinate(3, [1, 2]))


# ------------------------------------------------------------ maximization


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
    res = maximize_compressed_entropy(rho, 2)
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
        res = maximize_compressed_entropy(rho, rank)
        assert res.best_value == pytest.approx(
            brute_force_max(vals, rank), abs=1e-6
        )
        assert res.commutation_residual <= 1e-4


def test_maximize_best_dominates_restarts():
    rho = DensityMatrix.diagonal([0.4, 0.3, 0.2, 0.1])
    res = maximize_compressed_entropy(rho, 2)
    assert res.restart_values == (res.best_value,)
    assert res.iterations == 0


def test_maximize_bounded_by_entropy():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = random_density(4, seed=int(rng.integers(1 << 30)))
        rho = DensityMatrix(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
        res = maximize_compressed_entropy(rho, 2)
        assert res.best_value <= von_neumann_entropy(rho) + 1e-8


def test_maximize_unitary_invariant_value():
    rho = DensityMatrix.diagonal([0.45, 0.3, 0.25])
    u = random_unitary(3, seed=77)
    moved = DensityMatrix(u @ rho.mat @ u.conj().T)
    a = maximize_compressed_entropy(rho, 2).best_value
    b = maximize_compressed_entropy(moved, 2).best_value
    assert a == pytest.approx(b, abs=1e-6)


def test_maximize_validates_inputs():
    # A rank-deficient state is accepted: a pure state's maximum is 0 at every rank.
    rho = DensityMatrix.diagonal([1.0, 0.0])
    assert maximize_compressed_entropy(rho, 1).best_value == 0.0
    assert maximize_compressed_entropy(rho, 2).best_value == von_neumann_entropy(rho)
    good = DensityMatrix.diagonal([0.7, 0.3])
    with pytest.raises(BadShape, match="rank"):
        maximize_compressed_entropy(good, 3)
    with pytest.raises(BadShape, match="rank"):
        maximize_compressed_entropy(good, 0)


def test_closed_form_matches_the_oracle_ascent_and_the_subset_maximum():
    rng = np.random.default_rng(42)
    cases = [(gapped_spectrum(rng, dim), rank) for dim in range(2, 9) for rank in range(1, dim)]
    # Tied boundaries lambda_r = lambda_{r+1}: the maximizer is not unique.
    cases += [(np.array([0.3, 0.2, 0.2, 0.2, 0.1]), rank) for rank in (2, 3)]
    cases += [(np.array([0.4, 0.15, 0.15, 0.15, 0.15]), 3)]
    for case, (spectrum, rank) in enumerate(cases):
        rho = framed(spectrum, seed=case)
        res = maximize_compressed_entropy(rho, rank)
        closed = top_window_value(spectrum, rank)
        assert abs(res.best_value - closed) <= 1e-9
        assert abs(subset_max(spectrum, rank) - closed) <= 1e-9
        assert abs(oracle_ascent(rho.mat, rank, ORACLE) - closed) <= 1e-9
        assert res.commutation_residual <= 1e-12
        assert res.grad_norm <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 10),
    data=st.data(),
)
def test_haar_projectors_never_beat_the_closed_form(seed, dim, data):
    rank = data.draw(st.integers(1, dim))
    base = random_density(dim, seed=seed)
    rho = DensityMatrix(0.9 * base.mat + 0.1 * np.eye(dim) / dim)
    best = maximize_compressed_entropy(rho, rank).best_value
    for k in range(5):
        q = random_projector(dim, rank, seed=seed + k)
        assert compressed_entropy(rho, q) <= best + 1e-12


# ------------------------------------------------------------ gap reports


def test_gap_report_dim2_oracle():
    rho = DensityMatrix.diagonal([0.7, 0.3])
    rep = entropy_gap_report(rho)
    assert rep.entropy == pytest.approx(0.610864, abs=5e-7)
    assert rep.values[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.all_strict
    assert rep.min_margin == pytest.approx(rep.entropy, abs=1e-9)


def test_gap_report_uniform3_oracle():
    rep = entropy_gap_report(DensityMatrix.maximally_mixed(3))
    assert rep.entropy == pytest.approx(math.log(3), abs=1e-12)
    by_rank = dict(zip(rep.ranks, rep.values))
    assert by_rank[1] == pytest.approx(0.0, abs=1e-9)
    assert by_rank[2] == pytest.approx((2.0 / 3.0) * LN2, abs=1e-6)
    assert by_rank[2] == pytest.approx(0.462098, abs=5e-7)
    assert rep.all_strict


def test_gap_report_random_dim4_strict():
    rho = random_density(4, seed=5)
    rho = DensityMatrix(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
    rep = entropy_gap_report(rho)
    assert rep.ranks == (1, 2, 3)
    assert rep.all_strict
    assert rep.min_margin > 0.0


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_gap_report_margins_are_the_closed_form(dim):
    rng = np.random.default_rng(dim)
    spectra = [gapped_spectrum(rng, dim, gap=1e-3)]
    if dim >= 3:
        # Every rank r has lambda_r = lambda_{r+1} somewhere in this list.
        spectra.append(np.full(dim, 1.0 / dim))
    for case, spectrum in enumerate(spectra):
        rho = framed(spectrum, seed=100 * dim + case)
        rep = entropy_gap_report(rho)
        lam = np.sort(spectrum)[::-1]
        for rank, value, margin in zip(rep.ranks, rep.values, rep.margins):
            assert value == maximize_compressed_entropy(rho, rank).best_value
            t = lam[:rank].sum()
            tail = lam[rank:]
            identity = -t * math.log(t) - float(np.sum(tail * np.log(tail)))
            assert abs(margin - identity) <= 1e-12
        assert rep.all_strict


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_rank_values_read_the_kept_spectrum(dim, monkeypatch):
    # Each rank-r value is the entropy mass of the top r kept eigenvalues: the
    # compression onto their eigenspace, diagonalized here as the oracle, has
    # exactly that spectrum. The gap report diagonalizes nothing.
    rho = DensityMatrix(0.8 * random_density(dim, seed=dim).mat + 0.2 * np.eye(dim) / dim)
    vecs = np.linalg.eigh(rho.mat)[1]
    oracle = [0.0]
    for rank in range(2, dim):
        basis = vecs[:, -rank:]
        mu = np.linalg.eigvalsh(basis.conj().T @ rho.mat @ basis)
        oracle.append(float(mu.sum() * math.log(mu.sum()) - np.sum(mu * np.log(mu))))
    best = [maximize_compressed_entropy(rho, rank).best_value for rank in range(1, dim)]

    def refuse(*args, **kwargs):
        raise AssertionError("a kept spectrum was decomposed again")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rep = entropy_gap_report(rho)
    assert rep.values == tuple(best)
    assert max(abs(v - o) for v, o in zip(rep.values, oracle)) <= 1e-13


def test_gap_report_of_a_rank_deficient_state():
    # Rank 2 of 3: strict below rank 2, equal to the entropy at rank 2.
    rep = entropy_gap_report(DensityMatrix.diagonal([0.6, 0.4, 0.0]))
    entropy = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
    assert rep.dim == 3 and rep.ranks == (1, 2)
    assert rep.entropy == pytest.approx(entropy, abs=1e-15)
    assert rep.values[0] == 0.0
    assert rep.values[1] == pytest.approx(entropy, abs=1e-15)
    assert rep.margins[0] == rep.entropy
    assert abs(rep.margins[1]) <= 1e-15
    assert rep.min_margin == min(rep.margins)
    assert rep.all_strict is False


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_rank_deficient_maxima_match_the_subset_oracle(dim, capsys):
    # Refused exactly where the gradient at the maximizer is undefined
    # (rank < r < dim), and the CLI exits 0 or 3 to match.
    for rank, seed in itertools.product(range(1, dim + 1), range(5)):
        rho = random_density(dim, rank, seed)
        spectrum = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
        rep = entropy_gap_report(rho)
        assert rep.all_strict == (rank == dim)
        doc = json.dumps(matrix_to_doc(rho.mat))
        for r in range(1, dim + 1):
            oracle = subset_max(spectrum, r)
            refused = rank < r < dim
            if refused:
                with pytest.raises(ZeroCompression, match="near-zero modes"):
                    maximize_compressed_entropy(rho, r)
            else:
                value = maximize_compressed_entropy(rho, r).best_value
                assert abs(value - oracle) <= 1e-12
                if r < dim:
                    assert rep.values[r - 1] == value
            if r < dim:
                assert abs(rep.values[r - 1] - oracle) <= 1e-12
            assert cli_main(["optimize", doc, "--rank", str(r)]) == (3 if refused else 0)
            capsys.readouterr()


def test_import_loads_no_scipy():
    code = "import sys, qce; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qce.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
