"""Classical entropies over realization-free partition data.

A pair of partitions is described entirely by its marginals and conditionals
(p, q, p_given_q, q_given_p) tied together by the Bayes rule; no underlying
sample space is ever materialized. All entropies are in nats.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import BadShape, InvalidPartitionData, ValidationError


class ProbabilityVector:
    """Nonnegative weights summing to 1; stored as a frozen float array.

    Weights are accepted when they sum to 1 within tol.trace, and are then
    divided by their sum unless it is 1 within the rounding of the sum
    itself (size * machine epsilon). Every entropy built on them sees a
    normalized distribution, and validating stored weights again leaves
    them unchanged.
    """

    __slots__ = ("weights",)

    def __init__(self, weights, tol: Tolerances = DEFAULT_TOLERANCES):
        w = np.array(weights, dtype=float, copy=True).reshape(-1)
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
        self.weights = w

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return f"ProbabilityVector({np.array2string(self.weights, precision=6)})"


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

    A ProbabilityVector is used as it is; anything else is validated as one
    under tol.
    """
    if not isinstance(p, ProbabilityVector):
        p = ProbabilityVector(p, tol)
    return _h(p.weights)


class ClassicalPartitionData:
    """Realization-free description of a pair of partitions (X, Y).

    p[a] and q[b] are the marginals; p_given_q[a, b] = P(X=a | Y=b) and
    q_given_p[b, a] = P(Y=b | X=a). Consistency (mixture identities and the
    Bayes rule) is validated entrywise at construction; columns conditioned
    on a zero-probability outcome are dead branches and are only required to
    be finite and nonnegative. Sums, mixtures and the Bayes rule are checked
    against tol.trace; negative entries and live outcomes against tol.support.
    """

    def __init__(self, p, q, p_given_q, q_given_p, tol: Tolerances = DEFAULT_TOLERANCES):
        self._tol = tol
        self.p = ProbabilityVector(p, tol).weights
        self.q = ProbabilityVector(q, tol).weights
        pg = np.array(p_given_q, dtype=float, copy=True)
        qg = np.array(q_given_p, dtype=float, copy=True)
        n, m = self.p.size, self.q.size
        if pg.shape != (n, m):
            raise BadShape(f"p_given_q must have shape {(n, m)}, got {pg.shape}")
        if qg.shape != (m, n):
            raise BadShape(f"q_given_p must have shape {(m, n)}, got {qg.shape}")
        for name, arr in (("p_given_q", pg), ("q_given_p", qg)):
            if not np.all(np.isfinite(arr)):
                raise InvalidPartitionData(f"{name} has non-finite entries")
            if arr.min() < -tol.support:
                raise InvalidPartitionData(f"{name} has a negative entry {arr.min():.3e}")
            np.clip(arr, 0.0, None, out=arr)
        live_q = self.q > tol.support
        live_p = self.p > tol.support
        col_err = np.abs(pg[:, live_q].sum(axis=0) - 1.0)
        if live_q.any() and col_err.max() > tol.trace:
            raise InvalidPartitionData("columns of p_given_q do not sum to 1")
        col_err = np.abs(qg[:, live_p].sum(axis=0) - 1.0)
        if live_p.any() and col_err.max() > tol.trace:
            raise InvalidPartitionData("columns of q_given_p do not sum to 1")
        if np.abs(pg @ self.q - self.p).max() > tol.trace:
            raise InvalidPartitionData("mixture of p_given_q columns does not give p")
        if np.abs(qg @ self.p - self.q).max() > tol.trace:
            raise InvalidPartitionData("mixture of q_given_p columns does not give q")
        bayes = pg * self.q[None, :] - (qg * self.p[None, :]).T
        if np.abs(bayes).max() > tol.trace:
            raise InvalidPartitionData("Bayes rule fails: p(a|b) q(b) != q(b|a) p(a)")
        pg.flags.writeable = False
        qg.flags.writeable = False
        self.p_given_q = pg
        self.q_given_p = qg

    @classmethod
    def from_joint(cls, joint, tol: Tolerances = DEFAULT_TOLERANCES) -> "ClassicalPartitionData":
        """Build from a joint matrix J[a, b] = P(X=a, Y=b)."""
        j = np.array(joint, dtype=float, copy=True)
        if j.ndim != 2 or 0 in j.shape:
            raise BadShape(f"joint must be a nonempty 2-D matrix, got shape {j.shape}")
        if not np.all(np.isfinite(j)):
            raise InvalidPartitionData("joint has non-finite entries")
        if j.min() < -tol.support:
            raise InvalidPartitionData(f"joint has a negative entry {j.min():.3e}")
        np.clip(j, 0.0, None, out=j)
        if abs(j.sum() - 1.0) > tol.trace:
            raise InvalidPartitionData(f"joint sums to {float(j.sum())!r}, not 1")
        p = j.sum(axis=1)
        q = j.sum(axis=0)
        n, m = j.shape
        pg = np.full((n, m), 1.0 / n)
        qg = np.full((m, n), 1.0 / m)
        live_q = q > tol.support
        live_p = p > tol.support
        pg[:, live_q] = j[:, live_q] / q[live_q]
        qg[:, live_p] = j.T[:, live_p] / p[live_p]
        return cls(p, q, pg, qg, tol)

    @classmethod
    def from_conditional(
        cls, p_given_q, q, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "ClassicalPartitionData":
        """Build from q and the conditional columns p_given_q[:, b]."""
        qv = ProbabilityVector(q, tol).weights
        pg = np.asarray(p_given_q, dtype=float)
        if pg.ndim != 2 or pg.shape[1] != qv.size:
            raise BadShape(
                f"p_given_q must have {qv.size} columns, got shape {pg.shape}"
            )
        return cls.from_joint(pg * qv[None, :], tol)

    def joint(self) -> np.ndarray:
        """Joint matrix J[a, b] = p(a|b) q(b)."""
        return self.p_given_q * self.q[None, :]

    def swapped(self) -> "ClassicalPartitionData":
        """The same pair with the roles of X and Y exchanged."""
        return ClassicalPartitionData(self.q, self.p, self.q_given_p, self.p_given_q, self._tol)

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
