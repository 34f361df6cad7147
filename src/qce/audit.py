"""A randomized desiderata audit and demonstration probes.

Two conditional-entropy functionals are audited against the classical
desiderata for an entropy of one observation given another:

- "scond": the eigenvalue-weighted functional conditional_entropy.
- "hres": the resolution-only functional conditional_entropy_of_states.

The audited conditions, with entry labels:

1. unitary invariance                       (1-invariance)
2. bounds 0 <= f <= S(rho), f(rho,rho) = 0, f(rho, I/d) maximal
                                            (2-bounds, 2-eq-self, 2-eq-trivial)
3. symmetry of the induced joint on commuting pairs (3-commuting-symmetry)
4. symmetry of the induced joint in general (4-symmetry)
5. continuity in the conditioning state     (5-continuity-sigma)
6. concavity in each argument               (6-concavity-rho, 6-concavity-sigma)

Each condition is one record in the private table _CONDITIONS: its number,
label and notes, a witness kind, an RNG stream, a violation threshold,
deterministic constructed probes (random draws cannot hit the measure-zero
sets where several conditions break), draw(rng, dim, trial, cfg) for the
sampled inputs and violation(functional, inputs) -> (violation, details).
One runner walks the probes and then every (dim, trial), each keyed by
(seed, stream, dim, trial) so it can be replayed in isolation, and keeps the
worst violation. Verdicts are "holds-on-sample" or "fails-with-witness"; a
witness is {kind, functional, [tag], serialized inputs, details, violation},
and replay_witness decodes its inputs and calls the same violation. The
acceptance suite's larger samples of the bound and of pinching monotonicity
go through the same runner, with a changed or an ad-hoc record.

To add a condition, write its violation and draw, append a record to
_CONDITIONS, and add its label to EXPECTED_VERDICTS. EXPECTED_VERDICTS records
which verdicts the two functionals are supposed to produce, and
audit_deviations flags departures.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import rand
from .errors import BadShape, ValidationError
from .entropy import (
    compressed_entropy,
    compressed_state,
    conditional_entropy,
    joint_entropy,
    pinch,
    self_conditional_entropy,
    von_neumann_entropy,
)
from .matcore import (
    DensityMatrix,
    IdentityResolution,
    Projector,
    hermitize,
    spectral_resolution,
)
from .resolutions import (
    commutant_dim,
    conditional_entropy_of_states,
    resolution_entropy,
    resolution_joint_entropy,
)
from .serialize import doc_to_matrix, matrix_to_doc
from .states import coupled_pair_split, coupled_pair_state, tilted_pair_state

__all__ = [
    "AuditReport",
    "ConditionEntry",
    "EXPECTED_VERDICTS",
    "EnsembleConfig",
    "audit_deviations",
    "axiom_audit",
    "coupled_family_probe",
    "dim2_demo",
    "impossibility_demos",
    "random_density",
    "random_projector",
    "random_resolution",
    "random_unitary",
    "replay_witness",
    "tilted_family_probe",
]

_FUNCTIONAL_IDS = ("scond", "hres")

HOLDS = "holds-on-sample"
FAILS = "fails-with-witness"

EXPECTED_VERDICTS = {
    "scond": {
        "1-invariance": HOLDS,
        "2-bounds": HOLDS,
        "2-eq-self": FAILS,
        "2-eq-trivial": HOLDS,
        "3-commuting-symmetry": FAILS,
        "4-symmetry": FAILS,
        "5-continuity-sigma": FAILS,
        "6-concavity-rho": HOLDS,
        "6-concavity-sigma": FAILS,
    },
    "hres": {
        "1-invariance": HOLDS,
        "2-bounds": FAILS,
        "2-eq-self": HOLDS,
        "2-eq-trivial": HOLDS,
        "3-commuting-symmetry": HOLDS,
        "4-symmetry": HOLDS,
        "5-continuity-sigma": FAILS,
        "6-concavity-rho": FAILS,
        "6-concavity-sigma": FAILS,
    },
}


# ---------------------------------------------------------------------------
# Ensembles


def random_unitary(dim: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed."""
    if dim < 1:
        raise BadShape("dimension must be positive")
    return rand.haar_unitary(dim, rand.rng_for(seed))


def random_density(dim: int, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Trace-normalized Wishart state G G* / tr with G complex Gaussian dim x rank."""
    if dim < 1:
        raise BadShape("dimension must be positive")
    rank = dim if rank is None else int(rank)
    if rank < 1 or rank > dim:
        raise BadShape(f"rank {rank} outside [1, {dim}]")
    return DensityMatrix(rand.ginibre_density(dim, rank, rand.rng_for(seed)))


def random_projector(dim: int, rank: int, seed: int = 0) -> Projector:
    """Projector onto a Haar-random subspace of the given rank."""
    if dim < 1:
        raise BadShape("dimension must be positive")
    rank = int(rank)
    if rank < 0 or rank > dim:
        raise BadShape(f"rank {rank} outside [0, {dim}]")
    return Projector.from_basis(rand.haar_basis(dim, rank, rand.rng_for(seed)))


def random_resolution(dim: int, block_sizes, seed: int = 0) -> IdentityResolution:
    """Resolution with the given block sizes along a Haar-random frame."""
    sizes = [int(s) for s in block_sizes]
    if any(s < 1 for s in sizes) or sum(sizes) != dim:
        raise BadShape(f"block sizes {sizes} do not partition dimension {dim}")
    u = rand.haar_unitary(dim, rand.rng_for(seed))
    return IdentityResolution._from_frame(u, sizes)


# ---------------------------------------------------------------------------
# Draw helpers for the audit


def _draw_density(dim: int, rng: np.random.Generator, profile: str) -> DensityMatrix:
    rank = dim if profile == "full" else int(rng.integers(1, dim + 1))
    return DensityMatrix(rand.ginibre_density(dim, rank, rng))


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
    frame = rand.haar_unitary(dim, rng)
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
    frame = rand.haar_unitary(dim, rng)
    mat = (frame * levels) @ frame.conj().T
    return DensityMatrix(hermitize(mat))


def _draw_commuting_pair(rng: np.random.Generator, dim: int, t: int, cfg) -> dict:
    """Two exactly degenerate states diagonal in one Haar-random frame."""
    frame = rand.haar_unitary(dim, rng)
    pair = []
    for _ in range(2):
        sizes = _random_composition(dim, rng, degenerate=True)
        levels = _spaced_levels(sizes, rng, cfg.gap_floor)
        pair.append(_rotate(DensityMatrix.diagonal(np.repeat(levels, sizes)), frame))
    return {"rho": pair[0], "sigma": pair[1]}


def _draw_conditioning(
    dim: int, rng: np.random.Generator, trial: int, gap_floor: float
) -> DensityMatrix:
    """Nondegenerate on even trials, exactly degenerate blocks on odd ones."""
    if trial % 2:
        return _draw_degenerate_state(dim, rng, gap_floor)
    return _draw_nondegenerate_state(dim, rng, gap_floor)


def _rotate(state: DensityMatrix, unitary: np.ndarray) -> DensityMatrix:
    return DensityMatrix(hermitize(unitary @ state.mat @ unitary.conj().T))


def _rotation(theta: float) -> np.ndarray:
    """Real rotation of the plane by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _encode(value):
    """A witness field: matrices and states as matrix documents, the rest as is."""
    if isinstance(value, DensityMatrix):
        value = value.mat
    return matrix_to_doc(value) if isinstance(value, np.ndarray) else value


# ---------------------------------------------------------------------------
# Audit configuration


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape of a randomized audit: dimensions, trials per dim, seed, draws."""

    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    trials: int = 200
    seed: int = 0
    rank_profile: str = "mixed"
    gap_floor: float = 1e-3

    def __post_init__(self):
        if not self.dims or any(int(d) < 2 for d in self.dims):
            raise ValidationError("dims must be a nonempty tuple of dimensions >= 2")
        if int(self.trials) < 1:
            raise ValidationError("trials must be positive")
        if int(self.seed) < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.rank_profile not in ("full", "mixed"):
            raise ValidationError('rank_profile must be "full" or "mixed"')
        if not 0.0 < float(self.gap_floor) < 0.5:
            raise ValidationError("gap_floor must lie in (0, 0.5)")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "gap_floor", float(self.gap_floor))

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "trials": self.trials,
            "seed": self.seed,
            "rank_profile": self.rank_profile,
            "gap_floor": self.gap_floor,
        }


# A condition fails on a violation above _VIOLATION_TOL unless its record sets
# another threshold; _continuity counts a first-step jump only above
# _JUMP_FACTOR times every later step and above _JUMP_FACTOR * _JUMP_FLOOR;
# impossibility_demos calls a forced-zero value above _CONTRADICTION_TOL a
# contradiction.
_VIOLATION_TOL = 1e-9
_JUMP_FACTOR = 10.0
_JUMP_FLOOR = 1e-9
_CONTRADICTION_TOL = 1e-9


# ---------------------------------------------------------------------------
# The desiderata audit


def _functional(functional_id: str):
    if functional_id == "scond":
        return lambda rho, sigma: conditional_entropy(rho, sigma).total
    if functional_id == "hres":
        return conditional_entropy_of_states
    raise ValidationError(f"unknown functional {functional_id!r}; use one of {_FUNCTIONAL_IDS}")


def _joint_value(functional_id: str, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    if functional_id == "scond":
        return joint_entropy(rho, sigma)
    return resolution_joint_entropy(spectral_resolution(rho), spectral_resolution(sigma))


def _trivial_benchmark(functional_id: str, rho: DensityMatrix) -> float:
    if functional_id == "scond":
        return von_neumann_entropy(rho)
    return resolution_entropy(spectral_resolution(rho))


@dataclass(frozen=True)
class ConditionEntry:
    """Verdict for one audited condition."""

    condition: int
    label: str
    verdict: str
    max_violation: float
    witness: dict | None
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    """All condition entries for one functional under one configuration."""

    functional_id: str
    config: EnsembleConfig
    entries: tuple[ConditionEntry, ...]

    def entry(self, label: str) -> ConditionEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def verdicts(self) -> dict:
        return {e.label: e.verdict for e in self.entries}

    def to_dict(self) -> dict:
        return {
            "functional": self.functional_id,
            "config": self.config.to_dict(),
            "entries": [e.to_dict() for e in self.entries],
        }


def audit_deviations(report: AuditReport) -> tuple[str, ...]:
    """Labels whose verdict departs from the expected table."""
    expected = EXPECTED_VERDICTS[report.functional_id]
    return tuple(
        label
        for label, verdict in report.verdicts().items()
        if expected.get(label) is not None and verdict != expected[label]
    )


@dataclass(frozen=True)
class _Condition:
    """One audited condition: how to probe it and how to score a probe.

    violation(fid, inputs) -> (violation, details) scores one probe; the
    audit and replay_witness both call it. Constructed probes() give
    (tag, inputs) pairs and run first; then, unless draw is None,
    draw(rng, dim, trial, cfg) gives the inputs of each sampled trial, on
    rand.rng_for(seed, stream, dim, trial), tagged with tag (None: no tag).
    A violation above threshold fails the condition. The witness of the
    worst one is {kind, functional, [tag], inputs..., details..., violation}.
    aside(fid, inputs, details), when set, is a side value whose maximum
    fills {aside} in notes.
    """

    condition: int
    label: str
    notes: str
    kind: str
    violation: Callable
    stream: int = 0
    draw: Callable | None = None
    tag: str | None = None
    probes: Callable[[], tuple] = tuple
    threshold: float = _VIOLATION_TOL
    aside: Callable | None = None


def _invariance(fid: str, x: dict):
    f = _functional(fid)
    base = f(x["rho"], x["sigma"])
    moved = f(_rotate(x["rho"], x["unitary"]), _rotate(x["sigma"], x["unitary"]))
    return abs(moved - base), {"value": base, "value_moved": moved}


def _bound(fid: str, x: dict):
    value = _functional(fid)(x["rho"], x["sigma"])
    upper = von_neumann_entropy(x["rho"])
    violation = max(max(-value, 0.0), max(value - upper, 0.0))
    return violation, {"value": value, "entropy_rho": upper}


def _eq_self(fid: str, x: dict):
    value = _functional(fid)(x["rho"], x["rho"])
    return abs(value), {"value": value}


def _eq_trivial(fid: str, x: dict):
    rho = x["rho"]
    value = _functional(fid)(rho, DensityMatrix.maximally_mixed(rho.dim))
    benchmark = _trivial_benchmark(fid, rho)
    return abs(value - benchmark), {"value": value, "benchmark": benchmark}


def _joint_symmetry(fid: str, x: dict):
    j_rs = _joint_value(fid, x["rho"], x["sigma"])
    j_sr = _joint_value(fid, x["sigma"], x["rho"])
    return abs(j_rs - j_sr), {"joint": j_rs, "joint_swapped": j_sr}


def _continuity(fid: str, x: dict):
    """The first step's jump, counted only when it is above 10x every later step."""
    f = _functional(fid)
    rho, end = x["rho"], x["sigma_end"]
    uniform = DensityMatrix.maximally_mixed(rho.dim)
    values = [f(rho, DensityMatrix((1.0 - t) * uniform.mat + t * end.mat)) for t in x["path"]]
    jump = abs(values[1] - values[0])
    smooth = max((abs(b - a) for a, b in zip(values[1:], values[2:])), default=0.0)
    details = {"values": values, "jump": jump, "smooth_variation": smooth}
    return (jump if jump > _JUMP_FACTOR * max(smooth, _JUMP_FLOOR) else 0.0), details


def _concavity(fid: str, x: dict, first: bool = True):
    """Jensen gap of mixing arg1 and arg2 in the first (or the second) argument."""
    f = _functional(fid)
    g = f if first else (lambda a, b: f(b, a))
    lam, a1, a2, fixed = x["lambda"], x["arg1"], x["arg2"], x["fixed"]
    mixed = DensityMatrix(lam * a1.mat + (1.0 - lam) * a2.mat)
    gap = lam * g(a1, fixed) + (1.0 - lam) * g(a2, fixed) - g(mixed, fixed)
    return max(gap, 0.0), {}


_SYMMETRY_NOTES = "joint value J(a,b) = marginal(b) + conditional(a|b) compared under swap"


def _swap_probe() -> tuple:
    """A commuting pair with asymmetric joints for the weighted functional."""
    flat, uniform = DensityMatrix.diagonal([0.5, 0.5, 0.0]), DensityMatrix.maximally_mixed(3)
    return (("constructed", {"rho": flat, "sigma": uniform}),)


_CONDITIONS = (
    _Condition(
        1, "1-invariance", "conjugating both arguments by one unitary",
        "invariance", _invariance, stream=21, threshold=1e-8,
        draw=lambda rng, dim, t, cfg: {
            "rho": _draw_density(dim, rng, cfg.rank_profile),
            "sigma": _draw_degenerate_state(dim, rng, cfg.gap_floor),
            "unitary": rand.haar_unitary(dim, rng),
        },
    ),
    _Condition(
        2, "2-bounds", "two-sided bound 0 <= value <= entropy of the first argument",
        "bound", _bound, stream=22, tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "rho": _draw_density(dim, rng, cfg.rank_profile),
            "sigma": _draw_conditioning(dim, rng, t, cfg.gap_floor),
        },
        # Eigenvalue-blind conditioning can exceed S(rho).
        probes=lambda: (("constructed", {
            "rho": DensityMatrix.diagonal([0.9, 0.1]), "sigma": DensityMatrix.maximally_mixed(2)
        }),),
    ),
    _Condition(
        2, "2-eq-self", "conditioning a state on itself should give zero",
        "eq-self", _eq_self, stream=23, tag="sampled",
        draw=lambda rng, dim, t, cfg: {"rho": _draw_conditioning(dim, rng, t, cfg.gap_floor)},
        probes=lambda: (("constructed", {"rho": DensityMatrix.maximally_mixed(2)}),),
    ),
    _Condition(
        2, "2-eq-trivial",
        "conditioning on the maximally mixed state reaches the functional's own "
        "maximal value; max gap against the von Neumann entropy was {aside:.6g}",
        "eq-trivial", _eq_trivial, stream=24,
        draw=lambda rng, dim, t, cfg: {"rho": _draw_density(dim, rng, cfg.rank_profile)},
        aside=lambda fid, x, details: abs(details["value"] - von_neumann_entropy(x["rho"])),
    ),
    _Condition(
        3, "3-commuting-symmetry", _SYMMETRY_NOTES, "joint-symmetry", _joint_symmetry,
        stream=25, draw=_draw_commuting_pair, tag="sampled-commuting", probes=_swap_probe,
    ),
    _Condition(
        4, "4-symmetry", _SYMMETRY_NOTES, "joint-symmetry", _joint_symmetry,
        stream=26, tag="sampled", probes=_swap_probe,
        draw=lambda rng, dim, t, cfg: {
            "rho": _draw_degenerate_state(dim, rng, cfg.gap_floor),
            "sigma": _draw_degenerate_state(dim, rng, cfg.gap_floor),
        },
    ),
    _Condition(
        5, "5-continuity-sigma",
        "straight path from the maximally mixed state; the value jumps at the "
        "degeneracy-pattern change at the endpoint",
        "continuity", _continuity, threshold=0.0,
        probes=lambda: ((None, {
            "rho": _rotate(DensityMatrix.diagonal([0.7, 0.3]), _rotation(math.pi / 5.0)),
            "sigma_end": DensityMatrix.diagonal([0.75, 0.25]),
            "path": [k / 8 for k in range(9)],
        }),),
    ),
    _Condition(
        6, "6-concavity-rho", "mixing the first argument", "concavity-rho", _concavity,
        stream=27, tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "lambda": float(rng.random()),
            "arg1": _draw_density(dim, rng, cfg.rank_profile),
            "arg2": _draw_density(dim, rng, cfg.rank_profile),
            "fixed": _draw_degenerate_state(dim, rng, cfg.gap_floor),
        },
        # Eigenvalue swap whose midpoint is maximally mixed: blind functionals
        # drop to zero there while both endpoints score ln 2.
        probes=lambda: (("constructed", {
            "lambda": 0.5, "arg1": DensityMatrix.diagonal([0.3, 0.7]),
            "arg2": DensityMatrix.diagonal([0.7, 0.3]), "fixed": DensityMatrix.maximally_mixed(2),
        }),),
    ),
    _Condition(
        6, "6-concavity-sigma", "mixing the conditioning state", "concavity-sigma",
        lambda fid, x: _concavity(fid, x, first=False), stream=28, tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "lambda": float(rng.random()),
            "arg1": _draw_degenerate_state(dim, rng, cfg.gap_floor),
            "arg2": _draw_degenerate_state(dim, rng, cfg.gap_floor),
            "fixed": _draw_density(dim, rng, cfg.rank_profile),
        },
        # Midpoint of (uniform, pure) is nondegenerate, so the weighted
        # functional drops to zero against a positive average.
        probes=lambda: (("constructed", {
            "lambda": 0.5, "arg1": DensityMatrix.maximally_mixed(2),
            "arg2": DensityMatrix.diagonal([1.0, 0.0]),
            "fixed": _rotate(DensityMatrix.diagonal([0.7, 0.3]), _rotation(math.pi / 5.0)),
        }),),
    ),
)
_BY_KIND = {c.kind: c for c in _CONDITIONS}


def _probes(c: _Condition, cfg: EnsembleConfig):
    yield from c.probes()
    for dim in cfg.dims if c.draw is not None else ():
        for t in range(cfg.trials):
            yield c.tag, c.draw(rand.rng_for(cfg.seed, c.stream, dim, t), dim, t, cfg)


def _decode(key: str, value):
    """Inverse of _encode: matrix documents are states, except the unitary."""
    if not isinstance(value, dict):
        return value
    mat = doc_to_matrix(value)
    return mat if key == "unitary" else DensityMatrix(mat)


def _run(c: _Condition, fid: str, cfg: EnsembleConfig) -> ConditionEntry:
    worst, witness, aside = 0.0, None, 0.0
    for tag, inputs in _probes(c, cfg):
        violation, details = c.violation(fid, inputs)
        if c.aside is not None:
            aside = max(aside, c.aside(fid, inputs, details))
        if violation > worst:
            worst = violation
            if violation > c.threshold:
                # Serialized only for a new worst, so most probes cost no encoding.
                witness = {"kind": c.kind, "functional": fid}
                if tag is not None:
                    witness["tag"] = tag
                witness.update((k, _encode(v)) for k, v in inputs.items())
                witness.update(details, violation=violation)
    verdict = HOLDS if witness is None else FAILS
    notes = c.notes.format(aside=aside)
    return ConditionEntry(c.condition, c.label, verdict, worst, witness, notes)


def axiom_audit(functional_id: str, cfg: EnsembleConfig) -> AuditReport:
    """Audit one functional against the desiderata; deterministic per seed."""
    _functional(functional_id)  # rejects an unknown id
    entries = tuple(_run(c, functional_id, cfg) for c in _CONDITIONS)
    return AuditReport(functional_id=functional_id, config=cfg, entries=entries)


def replay_witness(witness: dict) -> float:
    """Recompute a witness's violation: its condition's violation on its inputs."""
    condition = _BY_KIND.get(witness["kind"])
    if condition is None:
        raise ValidationError(f"unknown witness kind {witness['kind']!r}")
    inputs = {k: _decode(k, v) for k, v in witness.items()}
    return condition.violation(witness.get("functional", "scond"), inputs)[0]


# ---------------------------------------------------------------------------
# Demonstration probes


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
    w, v = rho._eigh()
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
    q1, q2 = coupled_pair_split()
    blocks = IdentityResolution([q1, q2])
    ln2, ln4 = math.log(2.0), math.log(4.0)
    kappas, block_sums, entropies = [], [], []
    claimed, corrected = [], []
    max_dev_ln2 = 0.0
    max_sum_minus_entropy = -math.inf
    max_dev_corrected = 0.0
    min_dev_claimed = math.inf
    max_pinch_dev = 0.0
    for k in range(grid_points):
        kappa = k / (grid_points - 1)
        rho = coupled_pair_state(kappa)
        bs = compressed_entropy(rho, q1) + compressed_entropy(rho, q2)
        entropy = von_neumann_entropy(rho)
        mix = 0.0
        for x in (1.0 + kappa, 1.0 - kappa):
            if x > 0.0:
                mix += 0.5 * x * math.log(x)
        claim = ln2 - mix
        correct = ln4 - mix
        pinch_entropy = von_neumann_entropy(pinch(rho, blocks))
        kappas.append(kappa)
        block_sums.append(bs)
        entropies.append(entropy)
        claimed.append(claim)
        corrected.append(correct)
        max_dev_ln2 = max(max_dev_ln2, abs(bs - ln2))
        max_sum_minus_entropy = max(max_sum_minus_entropy, bs - entropy)
        max_dev_corrected = max(max_dev_corrected, abs(entropy - correct))
        min_dev_claimed = min(min_dev_claimed, abs(entropy - claim))
        max_pinch_dev = max(max_pinch_dev, abs(pinch_entropy - ln4))
    return {
        "kappa": kappas,
        "block_sum": block_sums,
        "entropy": entropies,
        "claimed_closed_form": claimed,
        "corrected_closed_form": corrected,
        "entropy_at_zero": entropies[0],
        "entropy_at_one": entropies[-1],
        "max_block_sum_dev_from_ln2": max_dev_ln2,
        "max_block_sum_minus_entropy": max_sum_minus_entropy,
        "max_entropy_dev_from_corrected": max_dev_corrected,
        "min_entropy_dev_from_claimed": min_dev_claimed,
        "max_pinched_entropy_dev_from_ln4": max_pinch_dev,
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
    cos2_1, cos2_2 = _TILTED_SPECIAL
    phi1 = math.acos(math.sqrt(cos2_1))
    phi2 = math.acos(math.sqrt(cos2_2))
    rho, q = tilted_pair_state(phi1, phi2, _TILTED_WEIGHT1)
    value = compressed_entropy(rho, q)
    entropy = von_neumann_entropy(rho)
    inside = compressed_state(rho, q)
    inside_entropy = von_neumann_entropy(inside)
    half_projector_dev = float(np.max(np.abs(inside.mat - q.mat / 2.0)))
    max_excess = -math.inf
    for i in range(grid_points):
        for j in range(grid_points):
            a = 0.5 * math.pi * i / (grid_points - 1)
            b = 0.5 * math.pi * j / (grid_points - 1)
            r, qq = tilted_pair_state(a, b, _TILTED_WEIGHT1)
            excess = compressed_entropy(r, qq) - von_neumann_entropy(r)
            max_excess = max(max_excess, excess)
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
        "max_compressed_entropy_minus_entropy": max_excess,
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
    sigma = _draw_nondegenerate_state(2, rand.rng_for(seed, 99), 1e-3)
    return {
        "rho": matrix_to_doc(rho.mat, "rho"),
        "entropy": von_neumann_entropy(rho),
        "conditional_on_uniform": conditional_entropy(rho, uniform).total,
        "conditional_on_nondegenerate": conditional_entropy(rho, sigma).total,
        "conditional_on_itself": self_conditional_entropy(rho),
        "self_information_gain_of_uniform": von_neumann_entropy(uniform)
        - self_conditional_entropy(uniform),
        "commutant_dim_rho": commutant_dim(rho),
        "commutant_dim_uniform": commutant_dim(uniform),
        "notes": [
            "conditioning on the uniform state returns the full entropy; "
            "conditioning on any nondegenerate state returns zero",
            "the uniform state carries no information about itself: its "
            "self-conditional entropy equals its entropy",
        ],
    }
