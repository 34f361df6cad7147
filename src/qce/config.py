"""Numerical tolerances, kept in one record so every module agrees on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ValidationError

__all__ = ["DEFAULT_TOLERANCES", "Tolerances", "tolerance_profile"]


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by validation and clustering.

    herm: max entrywise deviation from Hermitian symmetry.
    idem: max entrywise deviation of Q@Q from Q, for projector matrices only.
    orth: max entrywise deviation for orthogonality/completeness checks.
    psd: eigenvalues below -psd are an error; in (-psd, 0) they are clamped to 0.
    trace: allowed deviation of a trace from its target (1 for states,
        an integer rank for projectors).
    cluster: eigenvalue clustering scale; gaps <= cluster/4 merge, gaps in
        (cluster/4, cluster) are ambiguous, gaps >= cluster separate, and a
        merged cluster spanning cluster or more (first level minus last) is
        ambiguous too.
    support: eigenvalues <= support count as zero for support/kernel decisions.

    Built (also by dataclasses.replace), the record checks itself: cluster
    must be finite and positive, every other field finite and nonnegative,
    else ValidationError. Consumers read the fields without checking again.
    """

    herm: float = 1e-8
    idem: float = 1e-8
    orth: float = 1e-8
    psd: float = 1e-10
    trace: float = 1e-9
    cluster: float = 1e-9
    support: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.cluster < math.inf:
            raise ValidationError("cluster tolerance must be positive")
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValidationError(f"{f.name} tolerance must be finite and nonnegative")


DEFAULT_TOLERANCES = Tolerances()

# Profiles scale the validation tolerances; "strict" is for well-conditioned
# analytic inputs, "loose" for matrices that went through heavy arithmetic.
_PROFILES = {
    "default": DEFAULT_TOLERANCES,
    "strict": replace(
        DEFAULT_TOLERANCES,
        herm=1e-10, idem=1e-10, orth=1e-10, psd=1e-12, trace=1e-11,
    ),
    "loose": replace(
        DEFAULT_TOLERANCES,
        herm=1e-6, idem=1e-6, orth=1e-6, psd=1e-8, trace=1e-7, support=1e-7,
    ),
}


def tolerance_profile(name: str) -> Tolerances:
    """Return a named tolerance profile ("default", "strict", "loose")."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown tolerance profile {name!r}; choose from {sorted(_PROFILES)}"
        ) from None
