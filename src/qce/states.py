"""Hand-built state families and the demonstrations built on them.

The families are closed-form states in dimension 4 that probe the
compressed entropy. The demonstrations are the paper's worked examples:
the impossibility argument, sweeps of the two families, and a tour of the
conditional entropy in dimension 2. A family sweep is a table of points:
each per-point list is built once, each reported extreme is one expression
over those lists, and dim2_demo's one random state comes from rand.
"""

from __future__ import annotations

import math

import numpy as np

from . import rand
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError
from .entropy import (
    compressed_entropy,
    compressed_state,
    conditional_entropy,
    pinch,
    self_conditional_entropy,
    self_information_gain,
    von_neumann_entropy,
)
from .matcore import DensityMatrix, IdentityResolution, Projector, _rotate, _rotation, hermitize
from .resolutions import commutant_dim, conditional_entropy_of_states
from .serialize import matrix_to_doc

__all__ = [
    "coupled_family_probe", "coupled_pair_state", "dim2_demo", "impossibility_demos",
    "tilted_family_probe", "tilted_pair_state",
]


def tilted_pair_state(
    phi1: float,
    phi2: float,
    weight1: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[DensityMatrix, Projector]:
    """Rank-two state built from two tilted coordinate lines in dimension 4.

    The state is weight1 * |u1><u1| + (1 - weight1) * |u2><u2| with
    u1 = cos(phi1) e1 + sin(phi1) e3 and u2 = cos(phi2) e2 + sin(phi2) e4,
    returned together with the projector onto span(e1, e2). The compression
    by that projector is diag(w1 cos^2 phi1, w2 cos^2 phi2), which makes the
    family a two-parameter probe of the compressed entropy: the compressed
    state can be maximally mixed on the plane while the state itself is
    nearly pure.
    """
    if not 0.0 <= weight1 <= 1.0:
        raise ValidationError(f"weight1 must lie in [0, 1], got {weight1!r}")
    u1 = np.zeros(4, dtype=np.complex128)
    u2 = np.zeros(4, dtype=np.complex128)
    u1[0], u1[2] = math.cos(phi1), math.sin(phi1)
    u2[1], u2[3] = math.cos(phi2), math.sin(phi2)
    mat = weight1 * np.outer(u1, u1.conj()) + (1.0 - weight1) * np.outer(u2, u2.conj())
    return DensityMatrix(mat, tol), Projector.coordinate(4, (0, 1), tol)


def coupled_pair_state(kappa: float, tol: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    """One-parameter 4 x 4 family with antidiagonal coupling strength kappa.

    The matrix is (1/4) [[1,0,0,k],[0,1,k,0],[0,k,1,0],[k,0,0,1]] for
    kappa in [0, 1]; its eigenvalues are (1+kappa)/4 and (1-kappa)/4, each
    twofold. Compressing by span(e1, e2) or its complement removes kappa
    entirely, so both block contributions stay at their kappa = 0 values
    while the total entropy falls from ln 4 to ln 2 across the range.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValidationError(f"kappa must lie in [0, 1], got {kappa!r}")
    m = np.eye(4, dtype=np.complex128)
    m[0, 3] = m[3, 0] = kappa
    m[1, 2] = m[2, 1] = kappa
    return DensityMatrix(m / 4.0, tol)


# ---------------------------------------------------------------------------
# Demonstrations


# impossibility_demos calls a forced-zero value above this a contradiction.
_CONTRADICTION_TOL = 1e-9


def impossibility_demos() -> dict:
    """Two obstructions to a universally well-behaved conditional entropy.

    First, at rho = sigma = I/d the self rule demands value 0 while the
    maximal-conditioning rule demands ln d; the pair is emitted in closed
    form. Second, any nonnegative functional that vanishes on (rho, rho) and
    is concave in its first argument must vanish at every (rho1, rho) with
    rho strictly positive, because rho = lambda rho1 + (1 - lambda) rho2 for
    some admissible lambda > 0; a resolution-only value above zero at a
    rotated rho1 exhibits the contradiction concretely.
    """
    forced = [
        {"dim": d, "required_by_self_rule": 0.0, "required_by_uniform_rule": math.log(d)}
        for d in (2, 3, 4)
    ]
    rho = DensityMatrix.diagonal([0.6, 0.4])
    rho1 = DensityMatrix.diagonal([0.3, 0.7])
    lam = _decomposition_weight(rho, rho1)
    rho2 = DensityMatrix((rho.mat - lam * rho1.mat) / (1.0 - lam))
    rho1_rot = _rotate(rho1, _rotation(math.pi / 6.0))
    lam_rot = _decomposition_weight(rho, rho1_rot)
    rho2_rot = DensityMatrix((rho.mat - lam_rot * rho1_rot.mat) / (1.0 - lam_rot))
    value_rot = conditional_entropy_of_states(rho1_rot, rho)
    return {
        "forced_pairs": forced,
        "forced_pairs_note": (
            "at the maximally mixed state the self rule and the "
            "maximal-conditioning rule demand these two values at once"
        ),
        "decomposition": {
            "rho": matrix_to_doc(rho.mat, "rho"),
            "rho1": matrix_to_doc(rho1.mat, "rho1"),
            "lambda": lam,
            "rho2": matrix_to_doc(rho2.mat, "rho2"),
            "rho1_rotated": matrix_to_doc(rho1_rot.mat, "rho1-rotated"),
            "lambda_rotated": lam_rot,
            "rho2_rotated": matrix_to_doc(rho2_rot.mat, "rho2-rotated"),
            "candidate_functional": "hres",
            "value_at_rotated": value_rot,
            "forced_value": 0.0,
            "contradiction": bool(value_rot > _CONTRADICTION_TOL),
        },
    }


def _decomposition_weight(rho: DensityMatrix, rho1: DensityMatrix) -> float:
    """Largest lambda with lambda * rho1 <= rho, for strictly positive rho."""
    w, v = rho._eig
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    top = float(np.linalg.eigvalsh(hermitize(inv_sqrt @ rho1.mat @ inv_sqrt))[-1])
    return 1.0 / top


def coupled_family_probe(grid_points: int = 101) -> dict:
    """Sweep the antidiagonal-coupled family against its two-block split.

    Reports the two-block compressed-entropy sum (constant ln 2), the true
    entropy from the eigendecomposition, two closed forms for it (a claimed
    one that is off by ln 2 and the corrected one), and the pinching bound.
    The block sum never exceeds the true entropy; they touch at full
    coupling.
    """
    if grid_points < 2:
        raise ValidationError("grid needs at least two points")
    q1, q2 = Projector.coordinate(4, (0, 1)), Projector.coordinate(4, (2, 3))
    blocks = IdentityResolution([q1, q2])
    ln2, ln4 = math.log(2.0), math.log(4.0)
    kappas = [k / (grid_points - 1) for k in range(grid_points)]
    states = [coupled_pair_state(kappa) for kappa in kappas]
    block_sums = [compressed_entropy(rho, q1) + compressed_entropy(rho, q2) for rho in states]
    entropies = [von_neumann_entropy(rho) for rho in states]
    pinched = [von_neumann_entropy(pinch(rho, blocks)) for rho in states]
    # sum over x = 1 +- kappa of (x/2) ln x; each closed form is ln 2 or ln 4 minus it.
    mixes = [
        sum(0.5 * x * math.log(x) for x in (1.0 + kappa, 1.0 - kappa) if x > 0.0)
        for kappa in kappas
    ]
    claimed = [ln2 - mix for mix in mixes]
    corrected = [ln4 - mix for mix in mixes]
    return {
        "kappa": kappas,
        "block_sum": block_sums,
        "entropy": entropies,
        "claimed_closed_form": claimed,
        "corrected_closed_form": corrected,
        "entropy_at_zero": entropies[0],
        "entropy_at_one": entropies[-1],
        "max_block_sum_dev_from_ln2": max(abs(b - ln2) for b in block_sums),
        "max_block_sum_minus_entropy": max(b - e for b, e in zip(block_sums, entropies)),
        "max_entropy_dev_from_corrected": max(abs(e - c) for e, c in zip(entropies, corrected)),
        "min_entropy_dev_from_claimed": min(abs(e - c) for e, c in zip(entropies, claimed)),
        "max_pinched_entropy_dev_from_ln4": max(abs(p - ln4) for p in pinched),
        "notes": [
            "the per-block compressions are kappa-independent, so the block sum "
            "stays at ln 2 while the entropy falls from ln 4 to ln 2",
            "the claimed closed form is below the eigendecomposition entropy by "
            "ln 2 everywhere; the corrected form matches it",
            "the block sum stays at or below the entropy, so this family does not "
            "separate the block sum from the entropy bound",
            "pinching along the split always gives the maximally mixed state "
            "(entropy ln 4), which dominates the block sum as convexity demands",
        ],
    }


# The tilted-pair probe's first weight and its special point (cos^2 phi1,
# cos^2 phi2), where the compression is half the projector.
_TILTED_WEIGHT1 = 0.9
_TILTED_SPECIAL = (0.1, 0.9)


def tilted_family_probe(grid_points: int = 50) -> dict:
    """Sweep the tilted-pair family for the compressed-entropy bound.

    At the special point the compression is half the projector, so the
    compressed state is maximally mixed on the plane (entropy ln 2) while
    the state's own entropy stays below it; the compressed entropy is still
    small because the compression carries little mass. Across the grid the
    compressed entropy never exceeds the state entropy.
    """
    if grid_points < 2:
        raise ValidationError("grid needs at least two points")
    cos2_1, cos2_2 = _TILTED_SPECIAL
    phi1 = math.acos(math.sqrt(cos2_1))
    phi2 = math.acos(math.sqrt(cos2_2))
    rho, q = tilted_pair_state(phi1, phi2, _TILTED_WEIGHT1)
    value = compressed_entropy(rho, q)
    entropy = von_neumann_entropy(rho)
    inside = compressed_state(rho, q)
    inside_entropy = von_neumann_entropy(inside)
    half_projector_dev = float(np.max(np.abs(inside.mat - q.mat / 2.0)))
    angles = [0.5 * math.pi * i / (grid_points - 1) for i in range(grid_points)]
    grid = (tilted_pair_state(a, b, _TILTED_WEIGHT1) for a in angles for b in angles)
    excess = [compressed_entropy(r, qq) - von_neumann_entropy(r) for r, qq in grid]
    return {
        "weight1": _TILTED_WEIGHT1,
        "special_point": {
            "cos2_phi1": cos2_1,
            "cos2_phi2": cos2_2,
            "compressed_entropy": value,
            "entropy": entropy,
            "compressed_state_entropy": inside_entropy,
            "compressed_state_is_half_projector_dev": half_projector_dev,
        },
        "grid_points": grid_points,
        "max_compressed_entropy_minus_entropy": max(excess),
        "notes": [
            "the compressed state can be strictly more mixed than the state "
            "itself; the mass factor keeps the compressed entropy below the "
            "state entropy",
        ],
    }


def dim2_demo(seed: int = 0) -> dict:
    """Smallest-dimension tour of the conditional entropy's behavior."""
    rho = _rotate(DensityMatrix.diagonal([0.7, 0.3]), _rotation(math.pi / 7.0))
    uniform = DensityMatrix.maximally_mixed(2)
    sigma = rand._draw_nondegenerate_state(2, rand._rng_for(seed, 99), 1e-3)
    return {
        "rho": matrix_to_doc(rho.mat, "rho"),
        "entropy": von_neumann_entropy(rho),
        "conditional_on_uniform": conditional_entropy(rho, uniform).total,
        "conditional_on_nondegenerate": conditional_entropy(rho, sigma).total,
        "conditional_on_itself": self_conditional_entropy(rho),
        "self_information_gain_of_uniform": self_information_gain(uniform),
        "commutant_dim_rho": commutant_dim(rho),
        "commutant_dim_uniform": commutant_dim(uniform),
        "notes": [
            "conditioning on the uniform state returns the full entropy; "
            "conditioning on any nondegenerate state returns zero",
            "the uniform state carries no information about itself: its "
            "self-conditional entropy equals its entropy",
        ],
    }
