"""Classical entropies over realization-free partition data.

A pair of partitions is described entirely by its joint table J[a, b] =
P(X=a, Y=b); no underlying sample space is ever materialized. The marginals
(p, q) and the conditional p_given_q are derived from the table once, when
it is stored; H(Y|X) is read through swapped(), the transposed table.
Weights, whether a marginal or a distribution given to shannon_entropy, are
checked by one private rule, _weights. All entropies are in nats.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import BadShape, InvalidPartitionData, ValidationError

__all__ = [
    "ClassicalPartitionData", "conditional_shannon_entropy",
    "is_consequence", "is_independent", "joint_shannon_entropy", "mutual_information",
    "shannon_entropy",
]


def _weights(weights, tol: Tolerances) -> np.ndarray:
    """Nonnegative weights summing to 1, as a frozen float array.

    Weights are accepted when they sum to 1 within tol.trace, and are then
    divided by their sum unless it is 1 within the rounding of the sum
    itself (size * machine epsilon). Every entropy built on them sees a
    normalized distribution, and validating stored weights again leaves
    them unchanged.
    """
    w = np.array(weights, dtype=float, copy=True)
    if w.ndim > 1:
        raise BadShape(f"probability vector must be 1-D, got shape {w.shape}")
    w = w.reshape(-1)
    if w.size == 0:
        raise BadShape("probability vector must be nonempty")
    if not np.all(np.isfinite(w)):
        raise ValidationError("probability vector has non-finite entries")
    if w.min() < -tol.psd:
        raise ValidationError(f"weight {w.min():.3e} below -{tol.psd:g}")
    np.clip(w, 0.0, None, out=w)
    total = float(w.sum())
    if abs(total - 1.0) > tol.trace:
        raise ValidationError(f"weights sum to {total!r}, not 1")
    if abs(total - 1.0) > w.size * np.finfo(float).eps:
        w /= total
    w.flags.writeable = False
    return w


def _h(w: np.ndarray) -> float:
    # -sum x ln x over positive entries; zero entries contribute nothing.
    # Conditional columns, which are not renormalized, can sum to 1 plus a
    # rounding error and give a result just below zero; that is reported as
    # 0, and so is the -0.0 of a point mass (-(1 ln 1)), which would print
    # as -0.
    pos = w[w > 0.0]
    h = float(-np.sum(pos * np.log(pos)))
    if h <= 0.0:
        return 0.0
    return h


def shannon_entropy(p, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Entropy -sum p ln p of a distribution, in nats.

    The weights are validated under tol, and renormalized as _weights does;
    weights that already sum to 1 (the marginals of ClassicalPartitionData,
    say) are read bit for bit.
    """
    return _h(_weights(p, tol))


def _clip_nonnegative(name: str, table: np.ndarray, tol: Tolerances) -> None:
    """Require finite entries, none below -tol.support, and clip them to 0 in place."""
    if not np.all(np.isfinite(table)):
        raise InvalidPartitionData(f"{name} has non-finite entries")
    if table.min() < -tol.support:
        raise InvalidPartitionData(f"{name} has a negative entry {table.min():.3e}")
    np.clip(table, 0.0, None, out=table)


def _columns_over(table: np.ndarray, marginal: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Each column of table divided by its marginal entry; uniform where that is dead."""
    out = np.full(table.shape, 1.0 / table.shape[0])
    live = marginal > tol.support
    out[:, live] = table[:, live] / marginal[live]
    out.flags.writeable = False
    return out


class ClassicalPartitionData:
    """Realization-free description of a pair of partitions (X, Y).

    Stored as the joint table J[a, b] = P(X=a, Y=b), which joint() returns;
    the marginals p, q (its row and column sums) and the conditional
    p_given_q[a, b] = P(X=a | Y=b) (the columns of J over their raw
    marginal; uniform on an outcome of probability at most tol.support, a
    dead branch) are derived from it once. The other conditional,
    P(Y=b | X=a), is swapped().p_given_q. from_joint checks the table once
    and swapped() transposes it unchecked. The four-field constructor takes
    both conditionals, checks them like a joint, requires their live columns
    to sum to 1, and builds J = p_given_q q, which p, q and q_given_p must
    agree with (the mixture identities and the Bayes rule), all within
    tol.trace; q_given_p is checked, not kept.
    """

    def __init__(self, p, q, p_given_q, q_given_p, tol: Tolerances = DEFAULT_TOLERANCES):
        p, q = _weights(p, tol), _weights(q, tol)
        pg = np.array(p_given_q, dtype=float, copy=True)
        qg = np.array(q_given_p, dtype=float, copy=True)
        for name, kernel, given, other in (("p_given_q", pg, q, p), ("q_given_p", qg, p, q)):
            shape = (other.size, given.size)
            if kernel.shape != shape:
                raise BadShape(f"{name} must have shape {shape}, got {kernel.shape}")
            _clip_nonnegative(name, kernel, tol)
            if np.any(np.abs(kernel[:, given > tol.support].sum(axis=0) - 1.0) > tol.trace):
                raise InvalidPartitionData(f"columns of {name} do not sum to 1")
        joint = pg * q
        if np.abs(joint.sum(axis=1) - p).max() > tol.trace:
            raise InvalidPartitionData("mixture of p_given_q columns does not give p")
        if np.abs(qg @ p - q).max() > tol.trace:
            raise InvalidPartitionData("mixture of q_given_p columns does not give q")
        if np.abs(joint - (qg * p).T).max() > tol.trace:
            raise InvalidPartitionData("Bayes rule fails: p(a|b) q(b) != q(b|a) p(a)")
        self._store(joint, tol)

    def _store(self, joint: np.ndarray, tol: Tolerances) -> "ClassicalPartitionData":
        """Keep a checked, nonnegative joint and derive the marginals and p_given_q."""
        cols = joint.sum(axis=0)
        joint.flags.writeable = False
        self._joint, self._tol = joint, tol
        self.p, self.q = _weights(joint.sum(axis=1), tol), _weights(cols, tol)
        self.p_given_q = _columns_over(joint, cols, tol)
        return self

    @classmethod
    def from_joint(cls, joint, tol: Tolerances = DEFAULT_TOLERANCES) -> "ClassicalPartitionData":
        """Build from a joint matrix J[a, b] = P(X=a, Y=b)."""
        j = np.array(joint, dtype=float, copy=True)
        if j.ndim != 2 or 0 in j.shape:
            raise BadShape(f"joint must be a nonempty 2-D matrix, got shape {j.shape}")
        _clip_nonnegative("joint", j, tol)
        if abs(j.sum() - 1.0) > tol.trace:
            raise InvalidPartitionData(f"joint sums to {float(j.sum())!r}, not 1")
        return cls.__new__(cls)._store(j, tol)

    def joint(self) -> np.ndarray:
        """The stored joint matrix J[a, b] = P(X=a, Y=b), read-only."""
        return self._joint

    def swapped(self) -> "ClassicalPartitionData":
        """The same pair with the roles of X and Y exchanged: the transposed table."""
        data = ClassicalPartitionData.__new__(ClassicalPartitionData)
        return data._store(self._joint.T, self._tol)

    def __repr__(self) -> str:
        return f"ClassicalPartitionData(|X|={self.p.size}, |Y|={self.q.size})"


def conditional_shannon_entropy(data: ClassicalPartitionData) -> float:
    """H(X|Y) = sum_b q(b) H(column b of p_given_q)."""
    total = 0.0
    for b in range(data.q.size):
        if data.q[b] > 0.0:
            total += data.q[b] * _h(data.p_given_q[:, b])
    return total


def joint_shannon_entropy(data: ClassicalPartitionData) -> float:
    """H(X, Y) = H(Y) + H(X|Y)."""
    return _h(data.q) + conditional_shannon_entropy(data)


def mutual_information(data: ClassicalPartitionData) -> float:
    """I(X; Y) = H(X) - H(X|Y)."""
    return _h(data.p) - conditional_shannon_entropy(data)


def is_consequence(data: ClassicalPartitionData) -> bool:
    """True when X is determined by Y: every live column of p_given_q is 0/1.

    Outcomes with q above the data's tol.support are live; the 0/1 test
    allows tol.trace.
    """
    tol = data._tol
    live = data.q > tol.support
    if not live.any():
        return True
    return bool(data.p_given_q[:, live].max(axis=0).min() >= 1.0 - tol.trace)


def is_independent(data: ClassicalPartitionData) -> bool:
    """True when every live conditional column equals the marginal p.

    Outcomes with q above the data's tol.support are live; columns may
    differ from p by tol.trace.
    """
    tol = data._tol
    live = data.q > tol.support
    if not live.any():
        return True
    dev = np.abs(data.p_given_q[:, live] - data.p[:, None])
    return bool(dev.max() <= tol.trace)
