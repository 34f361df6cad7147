"""A randomized desiderata audit: the condition table and its runner.

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

To add a condition, write its violation and draw, and append a record to
_CONDITIONS with the verdicts the two functionals are supposed to produce
(expected=). EXPECTED_VERDICTS is built from the table, and audit_deviations
flags departures from it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import rand
from .errors import ValidationError
from .entropy import conditional_entropy, joint_entropy, von_neumann_entropy
from .matcore import DensityMatrix, _rotate, _rotation, spectral_resolution
from .rand import _RANK_PROFILES
from .resolutions import (
    conditional_entropy_of_states,
    resolution_entropy,
    resolution_joint_entropy,
)
from .serialize import doc_to_matrix, matrix_to_doc

__all__ = [
    "AuditReport", "ConditionEntry", "EXPECTED_VERDICTS", "EnsembleConfig", "FAILS", "HOLDS",
    "audit_deviations", "axiom_audit", "replay_witness",
]

HOLDS = "holds-on-sample"
FAILS = "fails-with-witness"


# ---------------------------------------------------------------------------
# Audit configuration


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape of a randomized audit: dimensions, trials per dim, seed, draws.

    dims, trials and seed are integers; a float among them raises TypeError.
    rank_profile is a key of rand._RANK_PROFILES. Spaced draws aim for levels
    and level gaps of at least gap_floor; after 200 missed tries they take
    evenly spread levels, whose gaps can be smaller.
    """

    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    trials: int = 200
    seed: int = 0
    rank_profile: str = "mixed"
    gap_floor: float = 1e-3

    def __post_init__(self):
        dims = tuple(map(operator.index, self.dims))
        trials, seed = operator.index(self.trials), operator.index(self.seed)
        if not dims or min(dims) < 2:
            raise ValidationError("dims must be a nonempty tuple of dimensions >= 2")
        if trials < 1:
            raise ValidationError("trials must be positive")
        if seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.rank_profile not in _RANK_PROFILES:
            raise ValidationError(f"rank_profile must be one of {tuple(_RANK_PROFILES)}")
        if not 0.0 < float(self.gap_floor) < 0.5:
            raise ValidationError("gap_floor must lie in (0, 0.5)")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "gap_floor", float(self.gap_floor))

    def to_dict(self) -> dict:
        return {**asdict(self), "dims": list(self.dims)}


# A condition fails on a violation above _VIOLATION_TOL unless its record sets
# another threshold; _continuity counts a first-step jump only above
# _JUMP_FACTOR times every later step and above _JUMP_FACTOR * _JUMP_FLOOR.
_VIOLATION_TOL = 1e-9
_JUMP_FACTOR = 10.0
_JUMP_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# The desiderata audit


# functional id -> (value f(rho, sigma), joint value J(rho, sigma), the
# benchmark trivial(rho) that f(rho, I/d) should reach).
_FUNCTIONALS = {
    "scond": (
        lambda rho, sigma: conditional_entropy(rho, sigma).total,
        joint_entropy,
        von_neumann_entropy,
    ),
    "hres": (
        conditional_entropy_of_states,
        lambda rho, sigma: resolution_joint_entropy(
            spectral_resolution(rho), spectral_resolution(sigma)
        ),
        lambda rho: resolution_entropy(spectral_resolution(rho)),
    ),
}


def _functional(functional_id: str) -> tuple:
    if functional_id not in _FUNCTIONALS:
        raise ValidationError(
            f"unknown functional {functional_id!r}; use one of {tuple(_FUNCTIONALS)}"
        )
    return _FUNCTIONALS[functional_id]


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
    rand._rng_for(seed, stream, dim, trial), tagged with tag (None: no tag).
    A violation above threshold fails the condition. The witness of the
    worst one is {kind, functional, [tag], inputs..., details..., violation}.
    aside(fid, inputs, details), when set, is a side value whose maximum
    fills {aside} in notes. expected holds the verdicts the audit should
    give for the functionals, in the order of _FUNCTIONALS; a record run
    outside _CONDITIONS has none.
    """

    condition: int
    label: str
    notes: str
    kind: str
    violation: Callable
    expected: tuple[str, ...] = ()
    stream: int = 0
    draw: Callable | None = None
    tag: str | None = None
    probes: Callable[[], tuple] = tuple
    threshold: float = _VIOLATION_TOL
    aside: Callable | None = None


def _invariance(fid: str, x: dict):
    f, _, _ = _functional(fid)
    base = f(x["rho"], x["sigma"])
    moved = f(_rotate(x["rho"], x["unitary"]), _rotate(x["sigma"], x["unitary"]))
    return abs(moved - base), {"value": base, "value_moved": moved}


def _bound(fid: str, x: dict):
    f, _, _ = _functional(fid)
    value = f(x["rho"], x["sigma"])
    upper = von_neumann_entropy(x["rho"])
    violation = max(max(-value, 0.0), max(value - upper, 0.0))
    return violation, {"value": value, "entropy_rho": upper}


def _eq_self(fid: str, x: dict):
    f, _, _ = _functional(fid)
    value = f(x["rho"], x["rho"])
    return abs(value), {"value": value}


def _eq_trivial(fid: str, x: dict):
    rho = x["rho"]
    f, _, trivial = _functional(fid)
    value = f(rho, DensityMatrix.maximally_mixed(rho.dim))
    benchmark = trivial(rho)
    return abs(value - benchmark), {"value": value, "benchmark": benchmark}


def _joint_symmetry(fid: str, x: dict):
    _, joint, _ = _functional(fid)
    j_rs = joint(x["rho"], x["sigma"])
    j_sr = joint(x["sigma"], x["rho"])
    return abs(j_rs - j_sr), {"joint": j_rs, "joint_swapped": j_sr}


def _continuity(fid: str, x: dict):
    """The first step's jump, counted only when it is above 10x every later step."""
    f, _, _ = _functional(fid)
    rho, end = x["rho"], x["sigma_end"]
    uniform = DensityMatrix.maximally_mixed(rho.dim)
    values = [f(rho, DensityMatrix((1.0 - t) * uniform.mat + t * end.mat)) for t in x["path"]]
    jump = abs(values[1] - values[0])
    smooth = max((abs(b - a) for a, b in zip(values[1:], values[2:])), default=0.0)
    details = {"values": values, "jump": jump, "smooth_variation": smooth}
    return (jump if jump > _JUMP_FACTOR * max(smooth, _JUMP_FLOOR) else 0.0), details


def _concavity(fid: str, x: dict, first: bool = True):
    """Jensen gap of mixing arg1 and arg2 in the first (or the second) argument."""
    f, _, _ = _functional(fid)
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
        "invariance", _invariance, expected=(HOLDS, HOLDS), stream=21, threshold=1e-8,
        draw=lambda rng, dim, t, cfg: {
            "rho": rand._draw_density(dim, rng, cfg.rank_profile),
            "sigma": rand._draw_degenerate_state(dim, rng, cfg.gap_floor),
            "unitary": rand._haar_unitary(dim, rng),
        },
    ),
    _Condition(
        2, "2-bounds", "two-sided bound 0 <= value <= entropy of the first argument",
        "bound", _bound, expected=(HOLDS, FAILS), stream=22, tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "rho": rand._draw_density(dim, rng, cfg.rank_profile),
            "sigma": rand._draw_conditioning(dim, rng, t, cfg.gap_floor),
        },
        # Eigenvalue-blind conditioning can exceed S(rho).
        probes=lambda: (("constructed", {
            "rho": DensityMatrix.diagonal([0.9, 0.1]), "sigma": DensityMatrix.maximally_mixed(2)
        }),),
    ),
    _Condition(
        2, "2-eq-self", "conditioning a state on itself should give zero",
        "eq-self", _eq_self, expected=(FAILS, HOLDS), stream=23, tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "rho": rand._draw_conditioning(dim, rng, t, cfg.gap_floor)
        },
        probes=lambda: (("constructed", {"rho": DensityMatrix.maximally_mixed(2)}),),
    ),
    _Condition(
        2, "2-eq-trivial",
        "conditioning on the maximally mixed state reaches the functional's own "
        "maximal value; max gap against the von Neumann entropy was {aside:.6g}",
        "eq-trivial", _eq_trivial, expected=(HOLDS, HOLDS), stream=24,
        draw=lambda rng, dim, t, cfg: {"rho": rand._draw_density(dim, rng, cfg.rank_profile)},
        aside=lambda fid, x, details: abs(details["value"] - von_neumann_entropy(x["rho"])),
    ),
    _Condition(
        3, "3-commuting-symmetry", _SYMMETRY_NOTES, "joint-symmetry", _joint_symmetry,
        expected=(FAILS, HOLDS), stream=25, tag="sampled-commuting", probes=_swap_probe,
        draw=lambda rng, dim, t, cfg: dict(
            zip(("rho", "sigma"), rand._draw_commuting_pair(dim, rng, cfg.gap_floor))
        ),
    ),
    _Condition(
        4, "4-symmetry", _SYMMETRY_NOTES, "joint-symmetry", _joint_symmetry,
        expected=(FAILS, HOLDS), stream=26, tag="sampled", probes=_swap_probe,
        draw=lambda rng, dim, t, cfg: {
            "rho": rand._draw_degenerate_state(dim, rng, cfg.gap_floor),
            "sigma": rand._draw_degenerate_state(dim, rng, cfg.gap_floor),
        },
    ),
    _Condition(
        5, "5-continuity-sigma",
        "straight path from the maximally mixed state; the value jumps at the "
        "degeneracy-pattern change at the endpoint",
        "continuity", _continuity, expected=(FAILS, FAILS), threshold=0.0,
        probes=lambda: ((None, {
            "rho": _rotate(DensityMatrix.diagonal([0.7, 0.3]), _rotation(math.pi / 5.0)),
            "sigma_end": DensityMatrix.diagonal([0.75, 0.25]),
            "path": [k / 8 for k in range(9)],
        }),),
    ),
    _Condition(
        6, "6-concavity-rho", "mixing the first argument", "concavity-rho", _concavity,
        expected=(HOLDS, FAILS), stream=27, tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "lambda": float(rng.random()),
            "arg1": rand._draw_density(dim, rng, cfg.rank_profile),
            "arg2": rand._draw_density(dim, rng, cfg.rank_profile),
            "fixed": rand._draw_degenerate_state(dim, rng, cfg.gap_floor),
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
        lambda fid, x: _concavity(fid, x, first=False), expected=(FAILS, FAILS), stream=28,
        tag="sampled",
        draw=lambda rng, dim, t, cfg: {
            "lambda": float(rng.random()),
            "arg1": rand._draw_degenerate_state(dim, rng, cfg.gap_floor),
            "arg2": rand._draw_degenerate_state(dim, rng, cfg.gap_floor),
            "fixed": rand._draw_density(dim, rng, cfg.rank_profile),
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
# functional id -> {label: the verdict the audit should give}; audit_deviations
# flags departures from it.
EXPECTED_VERDICTS = {
    fid: {c.label: c.expected[i] for c in _CONDITIONS} for i, fid in enumerate(_FUNCTIONALS)
}


def _probes(c: _Condition, cfg: EnsembleConfig):
    yield from c.probes()
    for dim in cfg.dims if c.draw is not None else ():
        for t in range(cfg.trials):
            yield c.tag, c.draw(rand._rng_for(cfg.seed, c.stream, dim, t), dim, t, cfg)


def _encode(value):
    """A witness field: matrices and states as matrix documents, the rest as is."""
    if isinstance(value, DensityMatrix):
        value = value.mat
    return matrix_to_doc(value) if isinstance(value, np.ndarray) else value


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


class _Witness(dict):
    def __missing__(self, key):  # a missing field raises ValidationError, not KeyError
        raise ValidationError(f"witness has no {key!r} field")


def replay_witness(witness: dict) -> float:
    """Recompute a witness's violation: its condition's violation on its inputs."""
    kind = _Witness(witness)["kind"]
    condition = _BY_KIND.get(kind)
    if condition is None:
        raise ValidationError(f"unknown witness kind {kind!r}")
    inputs = _Witness((k, _decode(k, v)) for k, v in witness.items())
    return condition.violation(witness.get("functional", "scond"), inputs)[0]
