"""Validated matrix types and spectral primitives.

Everything downstream works with four value types built here:

- DensityMatrix: Hermitian, positive semidefinite, unit trace.
- Projector: Hermitian idempotent, stored as its range basis alone (rank = width >= 0).
- IdentityResolution: one orthonormal frame V (dim x dim) cut into
  consecutive nonzero column blocks; block j is the projector V_j V_j*.
- SpectralResolution: the IdentityResolution subclass that adds one level
  per block, strictly descending (the distinct eigenvalues of the resolved
  state), and each block's weight tr(Q_j sigma). It has one way in,
  spectral_resolution(DensityMatrix), and goes wherever a resolution of the
  identity is expected; the levels are then ignored.

Construction is where validation and cleanup happen: matrices are
symmetrized, eigenvalues in (-eps_psd, 0) are clamped to zero, and arrays are
frozen. Operations may then assume their inputs are well formed.

A resolution is checked once, on its frame: max|V* V - I| <= tol.orth. With
dim columns that single O(dim^3) test covers both orthogonality of the blocks
and completeness, so no block is checked on its own and no pair of blocks is
multiplied. Built from projectors, the frame is their stacked range bases;
built by spectral_resolution, it is the eigenvector matrix. The frame is the
only representation: consumers work on its column blocks, read through
bases() or straight from frame and bounds, and a block's projector is
V_j V_j* of its block V_j, formed only where a dense matrix is wanted
(serialize.resolution_to_doc). A Projector is read the same way, through
its range basis B; its mat is B B*, formed on each read by the same helper.

The operand checks shared across modules (a DensityMatrix, a Projector, an
IdentityResolution, equal dimensions, a positive dimension) live here too, so
every entry point raises the same TypeError, DimMismatch or BadShape for the
same fault; so do _rotate (U rho U*) and _rotation (a plane rotation).

A DensityMatrix is diagonalized once, by its constructor, which keeps the
frozen eigh of the matrix it stores (after a clamp, of the rebuilt one).
The state's resolution, the optimizer and the audit all read that one
decomposition, and so does every functional that needs only the state's
own spectrum: von_neumann_entropy, the compressed entropy in a block
spanning the whole space (conditioning on I/d or on the trivial resolution),
and the rank-constrained maxima, the entropy masses of the top eigenvalues.
The state is immutable, and its spectral resolution depends on the state
and the Tolerances record alone, so spectral_resolution memoises it on the
state, keyed by the (frozen, hashable) Tolerances: every caller that
resolves the same state object under the same tolerances shares one
clustering and one frame check. A failed resolution is never stored, so
errors repeat on every call; equal but distinct states are resolved
afresh. Memory: a state keeps its eigenvectors, one dim x dim complex frame,
from construction on. A resolution's frame is the reversed view of those
eigenvectors, so resolving adds only levels, weights and block bounds per
Tolerances record.

Eigenvalue clustering turns a raw descending spectrum, taken as Python
floats, into distinct levels at the scale tol.cluster, which the Tolerances
record checked finite and positive when it was built. Gaps at most
tol.cluster/4 merge, gaps of at least tol.cluster separate, and gaps
strictly between signal an unstable grouping and raise ClusterAmbiguity
rather than silently committing to either reading. A cluster whose merged
gaps add up to tol.cluster or more (its first level minus its last) raises
ClusterAmbiguity too: rounding in eigh is far below the scale, so a chain
that wide is structure, not noise. An ambiguous gap anywhere is reported
before a chain that is too wide.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    BadShape,
    ClusterAmbiguity,
    DimMismatch,
    NotHermitian,
    NotPSD,
    ValidationError,
)

__all__ = [
    "DensityMatrix", "IdentityResolution", "Projector", "SpectralResolution",
    "commutator_residual", "hermitize", "max_abs", "spectral_resolution",
]


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting bad shapes and non-finite entries."""
    a = np.array(obj, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadShape(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise BadShape("matrix must be at least 1 x 1")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def max_abs(a) -> float:
    """Largest entry magnitude (entrywise max norm)."""
    return float(np.max(np.abs(a)))


def hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2, the Hermitian part; of each matrix, for a stack (..., n, n)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _span_matrix(b: np.ndarray) -> np.ndarray:
    """hermitize(B B*), the projector onto the span of orthonormal columns B."""
    return hermitize(b @ b.conj().T)


def commutator_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise max norm of AB - BA."""
    return max_abs(a @ b - b @ a)


def _require_hermitian(a: np.ndarray, tol: Tolerances, what: str = "matrix") -> np.ndarray:
    if max_abs(a - a.conj().T) > tol.herm:
        raise NotHermitian(f"{what} deviates from Hermitian symmetry beyond {tol.herm:g}")
    return hermitize(a)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Eigenvalues in (-eps_psd, 0) are clamped to zero at construction; the
    stored array is frozen. dim is the ambient dimension. _eig is the frozen
    np.linalg.eigh(mat), one dim x dim complex frame beside the matrix, run
    by the constructor; the spectral resolution, memoised per Tolerances
    record (see spectral_resolution), is a view of that frame.
    """

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOLERANCES):
        a = _require_hermitian(as_complex_matrix(mat), tol, "density matrix")
        tr = float(np.trace(a).real)
        if abs(tr - 1.0) > tol.trace:
            raise ValidationError(f"trace {tr!r} is not 1 within {tol.trace:g}")
        w, v = np.linalg.eigh(a)
        if w[0] < -tol.psd:
            raise NotPSD(f"density matrix eigenvalue {w[0]:.3e} below -{tol.psd:g}")
        if w[0] < 0.0:
            a = hermitize((v * np.clip(w, 0.0, None)) @ v.conj().T)
            w, v = np.linalg.eigh(a)
        self.mat = _freeze(a)
        self.dim = a.shape[0]
        self._eig = (_freeze(w), _freeze(v))
        self._resolutions = {}  # Tolerances -> SpectralResolution

    @classmethod
    def diagonal(cls, values, tol: Tolerances = DEFAULT_TOLERANCES) -> "DensityMatrix":
        """State with the given diagonal in the coordinate basis."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise BadShape("diagonal expects a nonempty 1-D sequence")
        return cls(np.diag(vals.astype(np.complex128)), tol)

    @classmethod
    def pure(cls, vector, tol: Tolerances = DEFAULT_TOLERANCES) -> "DensityMatrix":
        """Rank-one state from a (not necessarily normalized) vector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if v.size == 0:
            raise BadShape("pure state vector must be nonempty")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValidationError("pure state vector must be nonzero")
        v = v / nrm
        return cls(np.outer(v, v.conj()), tol)

    @classmethod
    def maximally_mixed(cls, dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> "DensityMatrix":
        _check_dim(dim)
        return cls(np.eye(dim, dtype=np.complex128) / dim, tol)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _rotate(state: DensityMatrix, unitary: np.ndarray) -> DensityMatrix:
    """U rho U*; the constructor symmetrizes the product."""
    return DensityMatrix(unitary @ state.mat @ unitary.conj().T)


def _rotation(theta: float) -> np.ndarray:
    """Real rotation of the plane by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


class Projector:
    """Hermitian idempotent matrix of integer rank (zero allowed), stored as its range basis."""

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOLERANCES):
        a = _require_hermitian(as_complex_matrix(mat), tol, "projector")
        w, v = np.linalg.eigh(a)
        basis = np.ascontiguousarray(v[:, w > 0.5])
        if max_abs(a @ a - a) > tol.idem:
            raise ValidationError(f"matrix is not idempotent within {tol.idem:g}")
        rank = basis.shape[1]
        tr = float(np.trace(a).real)
        if abs(tr - rank) > max(tol.trace, a.shape[0] * tol.idem):
            raise ValidationError(f"projector trace {tr!r} is not near an integer")
        self._basis = _freeze(basis)
        self.dim, self.rank = a.shape[0], rank

    @classmethod
    def from_basis(cls, basis, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        """Projector onto the span of orthonormal columns B, shape (dim, r), dim >= 1.

        The one check is a frame's, |B*B - I| <= eps = tol.orth, which gives
        ||(BB*)^2 - BB*|| = ||B (B*B - I) B*|| <= r eps (1 + r eps). B's copy is the basis.
        """
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim != 2:
            raise BadShape(f"basis must be 2-D, got shape {b.shape}")
        dim, r = b.shape
        _check_dim(dim)
        if r > dim:
            raise BadShape(f"basis has more columns ({r}) than rows ({dim})")
        if r > 0 and not float(_orth_deviation(b).max()) <= tol.orth:
            raise ValidationError(f"basis columns are not orthonormal within {tol.orth:g}")
        q = cls.__new__(cls)
        q._basis = _freeze(np.array(b, copy=True))
        q.dim, q.rank = dim, r
        return q

    @classmethod
    def zero(cls, dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        return cls.coordinate(dim, (), tol)

    @classmethod
    def identity(cls, dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        _check_dim(dim)
        return cls.from_basis(np.eye(dim, dtype=np.complex128), tol)

    @classmethod
    def coordinate(cls, dim: int, indices, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        """Projector onto the span of the given coordinate axes."""
        _check_dim(dim)
        idx = sorted(set(map(operator.index, indices)))
        if any(i < 0 or i >= dim for i in idx):
            raise BadShape(f"coordinate indices {idx} outside range(0, {dim})")
        b = np.zeros((dim, len(idx)), dtype=np.complex128)
        for col, i in enumerate(idx):
            b[i, col] = 1.0
        return cls.from_basis(b, tol)

    @property
    def mat(self) -> np.ndarray:
        """B B* of the range basis; for Projector(m), the projector onto its kept eigenvectors."""
        return _span_matrix(self._basis)

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range, shape (dim, rank), frozen at construction."""
        return self._basis

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


def _offsets(sizes) -> tuple[int, ...]:
    """Block bounds (0, s0, s0+s1, ..., sum) from block sizes, already Python ints."""
    return tuple(accumulate(sizes, initial=0))


def _orth_deviation(b: np.ndarray) -> np.ndarray:
    """|B* B - I| entrywise, bit for bit, with 1.0 taken off the Gram diagonal in place.

    ascontiguousarray copies nothing (matmul returns C order) and makes ravel
    a view whatever the layout of B.
    """
    gram = np.ascontiguousarray(b.conj().T @ b)
    gram.ravel()[:: gram.shape[0] + 1] -= 1.0
    return np.abs(gram)


def _check_frame(frame: np.ndarray, bounds: tuple[int, ...], tol: Tolerances) -> None:
    """The one resolution check: the frame's columns are orthonormal and span.

    On failure, names the first pair of blocks whose columns overlap; when no
    pair does, the blocks miss dimensions.
    """
    dim, width = frame.shape
    dev = _orth_deviation(frame)
    if width == dim and float(dev.max()) <= tol.orth:
        return
    block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    r, c = np.nonzero((dev > tol.orth) & (block[:, None] < block[None, :]))
    if r.size:
        i, j = min(zip(block[r].tolist(), block[c].tolist()))
        raise ValidationError(f"blocks {i} and {j} are not orthogonal")
    raise ValidationError("blocks do not sum to the identity")


class IdentityResolution:
    """Family of pairwise-orthogonal nonzero projectors summing to the identity.

    Stored as one orthonormal frame (dim x dim, frozen) whose column blocks
    frame[:, bounds[j]:bounds[j + 1]] span the blocks, checked once at
    construction (see the module docstring).
    """

    def __init__(self, projectors, tol: Tolerances = DEFAULT_TOLERANCES):
        projs = tuple(projectors)
        if not projs:
            raise ValidationError("resolution needs at least one projector")
        if not all(isinstance(p, Projector) for p in projs):
            raise TypeError("resolution blocks must be Projector instances")
        dim = projs[0].dim
        if any(p.dim != dim for p in projs):
            raise DimMismatch("resolution blocks live in different dimensions")
        if any(p.rank == 0 for p in projs):
            raise ValidationError("resolution blocks must be nonzero")
        frame = np.concatenate([p.range_basis() for p in projs], axis=1)
        self._adopt(frame, _offsets(p.rank for p in projs), tol)

    @classmethod
    def _from_frame(
        cls, frame, sizes, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "IdentityResolution":
        """Resolution whose blocks are consecutive column groups of a unitary frame.

        Sizes that do not partition its dim raise BadShape. A complex frame is
        adopted and frozen, not copied.
        """
        frame = np.asarray(frame, dtype=np.complex128)
        sizes = [operator.index(s) for s in sizes]
        if sum(sizes) != frame.shape[0] or min(sizes, default=0) < 1:
            raise BadShape(f"block sizes {sizes} do not partition dimension {frame.shape[0]}")
        res = cls.__new__(cls)
        res._adopt(frame, _offsets(sizes), tol)
        return res

    def _adopt(self, frame: np.ndarray, bounds: tuple[int, ...], tol: Tolerances) -> None:
        _check_frame(frame, bounds, tol)
        self.frame = _freeze(frame)
        self.bounds = bounds
        self.dim = frame.shape[0]

    @classmethod
    def coordinate(
        cls, dim: int, sizes, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "IdentityResolution":
        """Consecutive coordinate blocks of the given sizes."""
        _check_dim(dim)
        return IdentityResolution._from_frame(np.eye(dim), sizes, tol)

    def bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis of each block, as read-only views of the frame."""
        b = self.bounds
        return tuple(self.frame[:, b[j]:b[j + 1]] for j in range(len(b) - 1))

    def ranks(self) -> tuple[int, ...]:
        return tuple(int(r) for r in np.diff(self.bounds))

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __repr__(self) -> str:
        return f"IdentityResolution(dim={self.dim}, ranks={self.ranks()})"


class SpectralResolution(IdentityResolution):
    """An IdentityResolution with one level per block: distinct eigenvalues, descending.

    Built only by spectral_resolution, from a DensityMatrix. eigenvalues
    holds the levels, strictly descending in [0, 1] with consecutive gaps
    of at least the clustering scale (up to the rounding of the block means);
    weights holds each block's mass tr(Q_j sigma) = level_j * rank_j under
    the resolved state, exactly 1.0 for a single block, and sums to 1 within
    tol.trace. Both are tuples of floats, one per block.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "SpectralResolution is built by spectral_resolution(DensityMatrix); "
            "use IdentityResolution for blocks without levels"
        )

    def blocks(self) -> IdentityResolution:
        """The resolution itself: forgetting the levels needs no conversion.

        Kept because the benchmark ladder (bench/probes.py) calls it.
        """
        return self

    def reconstruct(self) -> np.ndarray:
        """Sum of value * projector."""
        v = self.frame
        levels = np.repeat(self.eigenvalues, self.ranks())
        return hermitize((v * levels) @ v.conj().T)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{v:.6g}x{r}" for v, r in zip(self.eigenvalues, self.ranks())
        )
        return f"SpectralResolution(dim={self.dim}, [{pairs}])"


def _cluster_sizes(w: list[float], ctol: float) -> list[int]:
    """Sizes of the clusters of a descending spectrum w, given as Python floats.

    One pass over the gaps w[i] - w[i+1], formed once, applies the
    three-band rule at the scale ctol: gaps at most ctol/4 merge, gaps of at
    least ctol cut, and gaps strictly between are ambiguous. The two
    refusals come in this order, each a ClusterAmbiguity: first the first
    ambiguous gap anywhere in the spectrum, then the first cluster whose
    first level minus its last reaches ctol. Python float subtraction and
    comparison are the IEEE double operations numpy applies to float64
    arrays, so every decision and every number in a message is the one the
    array arithmetic gives.
    """
    gaps = list(map(operator.sub, w, w[1:]))
    quarter = ctol / 4.0
    for gap in gaps:
        if quarter < gap < ctol:
            raise ClusterAmbiguity(
                f"eigenvalue gap {gap:.3e} falls in the unstable band ({quarter:.3e}, {ctol:.3e})"
            )
    bounds = [0, *(i for i, gap in enumerate(gaps, 1) if gap >= ctol), len(w)]
    # Merging is gap by gap, so small gaps can chain into a cluster wider than
    # the scale. A cluster of one level spans 0.0: with no merge, none can.
    if len(bounds) <= len(w):
        for first, end in zip(bounds, bounds[1:]):
            top, bottom = w[first], w[end - 1]
            if top - bottom >= ctol:
                raise ClusterAmbiguity(
                    f"eigenvalues {top!r} to {bottom!r} chain into one cluster spanning "
                    f"{top - bottom:.3e}, at least the clustering scale {ctol:.3e}"
                )
    return list(map(operator.sub, bounds[1:], bounds))


def spectral_resolution(rho, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralResolution:
    """Canonical spectral resolution of a density matrix.

    Eigenvalues are clustered at the scale tol.cluster; each cluster becomes
    one block of the eigenvector frame, with the cluster's mean eigenvalue as
    the level. Raises TypeError unless rho is a DensityMatrix, and
    ClusterAmbiguity when a gap falls strictly between tol.cluster/4 and
    tol.cluster, or when merged gaps chain into a cluster spanning
    tol.cluster or more. _cluster_sizes makes both decisions.

    The state is resolved from the eigendecomposition it kept at
    construction, and keeps its resolution per Tolerances record, so
    resolving the same state again under the same tolerances returns the
    same object. The resolution's frame is a view of the state's kept
    eigenvectors, so it adds no dim x dim array to the state. Failures are
    not kept.
    """
    _check_state(rho, "rho")
    res = rho._resolutions.get(tol)
    if res is None:
        res = rho._resolutions[tol] = _resolve(rho, tol)
    return res


def _resolve(rho: DensityMatrix, tol: Tolerances) -> SpectralResolution:
    """Cluster a state's kept spectrum; the frame is the reversed view of its eigenvectors.

    The one place a block's weight tr(Q_j sigma) is computed: level_j * rank_j,
    or exactly 1.0 when one block spans the space (the state's unit trace).
    A level is its block's mean eigenvalue clamped to [0, 1]: the eigenvalue
    itself when every block has rank one, else numpy's reduceat sum, whose
    summation order sets the bits, over the rank.
    """
    w, v = rho._eig
    w, v = w[::-1], v[:, ::-1]
    levels = w.tolist()
    sizes = _cluster_sizes(levels, tol.cluster)
    bounds = _offsets(sizes)
    if len(sizes) < len(levels):
        levels = (np.add.reduceat(w, bounds[:-1]) / sizes).tolist()
    levels = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in levels]
    weights = tuple(map(operator.mul, levels, sizes)) if len(sizes) > 1 else (1.0,)
    mass = sum(weights)
    if abs(mass - 1.0) > tol.trace:
        raise ValidationError(f"eigenvalue mass {mass!r} is not 1")
    res = SpectralResolution.__new__(SpectralResolution)
    res._adopt(v, bounds, tol)
    res.eigenvalues = tuple(levels)
    res.weights = weights
    return res


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise BadShape("dimension must be positive")


def _check_state(x, name: str) -> DensityMatrix:
    if not isinstance(x, DensityMatrix):
        raise TypeError(f"{name} must be a DensityMatrix, got {type(x).__name__}")
    return x


def _check_projector(x, name: str) -> Projector:
    if not isinstance(x, Projector):
        raise TypeError(f"{name} must be a Projector, got {type(x).__name__}")
    return x


def _check_resolution(x, name: str) -> IdentityResolution:
    if not isinstance(x, IdentityResolution):
        raise TypeError(f"{name} must be an IdentityResolution, got {type(x).__name__}")
    return x


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"operands have dims {a.dim} and {b.dim}")
