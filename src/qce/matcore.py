"""Validated matrix types and spectral primitives.

Everything downstream works with four value types built here:

- DensityMatrix: Hermitian, positive semidefinite, unit trace.
- Projector: Hermitian idempotent with integer rank (zero allowed).
- IdentityResolution: one orthonormal frame V (dim x dim) cut into
  consecutive nonzero column blocks; block j is the projector V_j V_j*.
- SpectralResolution: the IdentityResolution subclass that adds one level
  per block, strictly descending (the distinct eigenvalues of the resolved
  matrix). It goes wherever a resolution of the identity is expected, and
  the levels are then ignored.

Construction is where validation and cleanup happen: matrices are
symmetrized, eigenvalues in (-eps_psd, 0) are clamped to zero, and arrays are
frozen. Operations may then assume their inputs are well formed.

A resolution is checked once, on its frame: max|V* V - I| <= tol.orth. With
dim columns that single O(dim^3) test covers both orthogonality of the blocks
and completeness, so no block is checked on its own and no pair of blocks is
multiplied. Built from projectors, the frame is their stacked range bases;
built by spectral_resolution, it is the eigenvector matrix. Consumers work on
the frame's column blocks (bases()) of either kind of resolution; the
projectors attribute builds dense Projector views over those blocks on each
access, trusted without a second check and not kept.

The operand checks shared by the functionals (a DensityMatrix, an
IdentityResolution, equal dimensions) live here too, so every entry point
raises the same TypeError or DimMismatch for the same fault.

A DensityMatrix is diagonalized once. The constructor's eigh, which checks
positivity, is kept (frozen) when no eigenvalue had to be clamped; when one
was, the matrix was rebuilt and is diagonalized again on first use. Its
resolution, the optimizer and the audit all read that one decomposition, and
so does every functional that needs only the state's own spectrum:
von_neumann_entropy, the compressed entropy in a block spanning the whole
space (conditioning on I/d or on the trivial resolution), and the
rank-constrained maxima, which are the entropy masses of the top eigenvalues.
The state is immutable, and its spectral resolution depends on the state
and the Tolerances record alone, so spectral_resolution memoises it on the
state, keyed by the (frozen, hashable) Tolerances: every caller that
resolves the same state object under the same tolerances shares one
clustering and one frame check. The cluster scale is validated before the
lookup and a failed resolution is never stored, so errors repeat on every
call; raw arrays and equal but distinct states are resolved afresh.
Memory: a state keeps its eigenvectors, one dim x dim complex frame, as
much again as its own matrix, from construction on, resolved or not. A
resolution's frame is the reversed view of those eigenvectors, so resolving
adds no second frame, only levels and block bounds per Tolerances record.

Eigenvalue clustering turns a raw descending spectrum into distinct levels
at the scale tol.cluster, which must be finite and positive. Gaps at most
tol.cluster/4 merge, gaps of at least tol.cluster separate, and gaps strictly
between signal an unstable grouping and raise ClusterAmbiguity rather than
silently committing to either reading.
"""

from __future__ import annotations

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

# Dense square complex ndarray; the universal carrier type.
ComplexMatrix = np.ndarray


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting bad shapes and non-finite entries."""
    a = np.array(obj, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadShape(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise BadShape("matrix must be at least 1 x 1")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix has non-finite entries")
    return a


def max_abs(a) -> float:
    """Largest entry magnitude (entrywise max norm)."""
    return float(np.max(np.abs(a)))


def hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2, the Hermitian part; of each matrix, for a stack (..., n, n)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


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


def trace_xlnx(a, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """tr(A ln A) for PSD A, with the 0 ln 0 = 0 convention.

    Eigenvalues in (-tol.psd, 0) are treated as zero; anything below -tol.psd
    raises NotPSD.
    """
    m = _require_hermitian(as_complex_matrix(a), tol)
    w = np.linalg.eigvalsh(m)
    if w[0] < -tol.psd:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol.psd:g}")
    pos = w[w > 0.0]
    return float(np.sum(pos * np.log(pos)))


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    Eigenvalues in (-eps_psd, 0) are clamped to zero at construction; the
    stored array is frozen. dim is the ambient dimension. The state keeps
    the eigendecomposition its constructor computed, one dim x dim complex
    frame beside the matrix (after a clamp, that of the rebuilt matrix,
    computed on first use); the spectral resolution, memoised per
    Tolerances record (see spectral_resolution), is a view of that frame.
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
            # The rebuilt matrix is diagonalized afresh, on first use.
            self._eig = None
        else:
            self._eig = (_freeze(w), _freeze(v))
        self.mat = _freeze(a)
        self.dim = a.shape[0]
        self._resolutions = {}  # Tolerances -> SpectralResolution

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """np.linalg.eigh(self.mat) as (ascending eigenvalues, eigenvectors), frozen.

        Kept from construction when no eigenvalue was clamped; otherwise
        computed once, on the first call.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self.mat)
            self._eig = (_freeze(w), _freeze(v))
        return self._eig

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
        if dim < 1:
            raise BadShape("dimension must be positive")
        return cls(np.eye(dim, dtype=np.complex128) / dim, tol)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class Projector:
    """Hermitian idempotent matrix with integer rank; the zero projector is allowed."""

    def __init__(self, mat, tol: Tolerances = DEFAULT_TOLERANCES):
        a = _require_hermitian(as_complex_matrix(mat), tol, "projector")
        if max_abs(a @ a - a) > tol.idem:
            raise ValidationError(f"matrix is not idempotent within {tol.idem:g}")
        tr = float(np.trace(a).real)
        rank = int(round(tr))
        if abs(tr - rank) > max(tol.trace, a.shape[0] * tol.idem):
            raise ValidationError(f"projector trace {tr!r} is not near an integer")
        if rank < 0 or rank > a.shape[0]:
            raise ValidationError(f"projector rank {rank} outside [0, {a.shape[0]}]")
        self.mat = _freeze(a)
        self.dim = a.shape[0]
        self.rank = rank
        self._basis = None

    @classmethod
    def from_basis(cls, basis, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        """Projector onto the span of orthonormal columns.

        basis has shape (dim, r); columns must be orthonormal within tol.orth.
        """
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim != 2:
            raise BadShape(f"basis must be 2-D, got shape {b.shape}")
        dim, r = b.shape
        if r > dim:
            raise BadShape(f"basis has more columns ({r}) than rows ({dim})")
        if r > 0 and max_abs(b.conj().T @ b - np.eye(r)) > tol.orth:
            raise ValidationError(f"basis columns are not orthonormal within {tol.orth:g}")
        mat = b @ b.conj().T if r > 0 else np.zeros((dim, dim), dtype=np.complex128)
        q = cls(hermitize(mat), tol)
        q._basis = _freeze(np.array(b, copy=True))
        return q

    @classmethod
    def zero(cls, dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        return cls.from_basis(np.zeros((dim, 0), dtype=np.complex128), tol)

    @classmethod
    def identity(cls, dim: int, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        return cls.from_basis(np.eye(dim, dtype=np.complex128), tol)

    @classmethod
    def coordinate(cls, dim: int, indices, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projector":
        """Projector onto the span of the given coordinate axes."""
        idx = sorted(set(int(i) for i in indices))
        if any(i < 0 or i >= dim for i in idx):
            raise BadShape(f"coordinate indices {idx} outside range(0, {dim})")
        b = np.zeros((dim, len(idx)), dtype=np.complex128)
        for col, i in enumerate(idx):
            b[i, col] = 1.0
        return cls.from_basis(b, tol)

    @classmethod
    def _view(cls, basis: np.ndarray) -> "Projector":
        """Projector onto columns already checked orthonormal (a frame block)."""
        q = cls.__new__(cls)
        q.mat = _freeze(hermitize(basis @ basis.conj().T))
        q.dim, q.rank = basis.shape
        q._basis = basis
        return q

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range, shape (dim, rank). Cached."""
        if self._basis is None:
            w, v = np.linalg.eigh(self.mat)
            cols = v[:, w > 0.5]
            self._basis = _freeze(np.ascontiguousarray(cols))
        return self._basis

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


def _offsets(sizes) -> tuple[int, ...]:
    """Block bounds (0, s0, s0+s1, ..., sum) from block sizes."""
    return tuple(accumulate((int(s) for s in sizes), initial=0))


def _check_frame(frame: np.ndarray, bounds: tuple[int, ...], tol: Tolerances) -> None:
    """The one resolution check: the frame's columns are orthonormal and span.

    On failure, names the first pair of blocks whose columns overlap; when no
    pair does, the blocks miss dimensions.
    """
    dim, width = frame.shape
    dev = np.abs(frame.conj().T @ frame - np.eye(width))
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
        self._projectors = projs

    @classmethod
    def _from_frame(
        cls, frame, sizes, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "IdentityResolution":
        """Resolution whose blocks are consecutive column groups of a unitary frame.

        A complex frame is adopted and frozen, not copied.
        """
        res = cls.__new__(cls)
        res._adopt(np.asarray(frame, dtype=np.complex128), _offsets(sizes), tol)
        return res

    def _adopt(self, frame: np.ndarray, bounds: tuple[int, ...], tol: Tolerances) -> None:
        _check_frame(frame, bounds, tol)
        self.frame = _freeze(frame)
        self.bounds = bounds
        self.dim = frame.shape[0]
        self._projectors = None

    @classmethod
    def coordinate(
        cls, dim: int, sizes, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "IdentityResolution":
        """Consecutive coordinate blocks of the given sizes."""
        sizes = [int(s) for s in sizes]
        if sum(sizes) != dim or any(s < 1 for s in sizes):
            raise BadShape(f"block sizes {sizes} do not partition dimension {dim}")
        return IdentityResolution._from_frame(np.eye(dim), sizes, tol)

    @property
    def projectors(self) -> tuple[Projector, ...]:
        """Block projectors.

        Those given to the constructor are returned as they are; for a family
        built from a frame, dense unchecked views of the frame are built on
        each access and not kept, so a memoised resolution holds only its frame.
        """
        if self._projectors is not None:
            return self._projectors
        return tuple(Projector._view(b) for b in self.bases())

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

    Invariants: strictly descending values with consecutive gaps above the
    clustering scale, one per block. When density=True the values must lie
    in [0, 1] and satisfy sum(rank_i * value_i) = 1 within tol.trace. The
    frame is checked first (as for any IdentityResolution), then the levels.
    """

    def __init__(
        self,
        eigenvalues,
        projectors,
        tol: Tolerances = DEFAULT_TOLERANCES,
        *,
        density: bool = False,
    ):
        super().__init__(projectors, tol)
        self._set_levels(eigenvalues, tol, density)

    def _set_levels(self, eigenvalues, tol: Tolerances, density: bool) -> None:
        ctol = _cluster_scale(tol)
        vals = tuple(float(x) for x in eigenvalues)
        if len(vals) != len(self):
            raise ValidationError("eigenvalue and projector counts differ")
        for k in range(len(vals) - 1):
            gap = vals[k] - vals[k + 1]
            if gap <= ctol:
                raise ValidationError(
                    f"eigenvalues are not descending with gaps above {ctol:g}"
                )
        if density:
            if vals[-1] < 0.0 or vals[0] > 1.0:
                raise ValidationError("density eigenvalues must lie in [0, 1]")
            mass = sum(v * r for v, r in zip(vals, self.ranks()))
            if abs(mass - 1.0) > tol.trace:
                raise ValidationError(f"eigenvalue mass {mass!r} is not 1")
        self.eigenvalues = vals

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


def _cluster_scale(tol: Tolerances) -> float:
    """tol.cluster, checked finite and positive (NaN or inf would merge every gap)."""
    ctol = float(tol.cluster)
    if not 0.0 < ctol < np.inf:
        raise ValidationError("cluster tolerance must be positive")
    return ctol


def _cluster_sizes(w_desc: np.ndarray, ctol: float) -> list[int]:
    """Group a descending spectrum into clusters, refusing the ambiguous band."""
    gaps = w_desc[:-1] - w_desc[1:]
    ambiguous = np.nonzero((gaps > ctol / 4.0) & (gaps < ctol))[0]
    if ambiguous.size:
        raise ClusterAmbiguity(
            f"eigenvalue gap {float(gaps[ambiguous[0]]):.3e} falls in the unstable band "
            f"({ctol / 4.0:.3e}, {ctol:.3e})"
        )
    cuts = np.nonzero(gaps >= ctol)[0] + 1
    return np.diff(np.concatenate(([0], cuts, [len(w_desc)]))).tolist()


def spectral_resolution(rho, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralResolution:
    """Canonical spectral resolution of a density matrix (or Hermitian matrix).

    Eigenvalues are clustered at the scale tol.cluster; each cluster becomes
    one block of the eigenvector frame, with the cluster's mean eigenvalue as
    the level. Raises ValidationError when tol.cluster is not finite and
    positive, and ClusterAmbiguity when a gap falls strictly between
    tol.cluster/4 and tol.cluster, or when merging leaves two adjacent levels
    closer than tol.cluster.

    A DensityMatrix is resolved from the eigendecomposition it kept at
    construction, and keeps its resolution per Tolerances record, so
    resolving the same state again under the same tolerances returns the
    same object. The resolution's frame is a view of the state's kept
    eigenvectors, so it adds no dim x dim array to the state. Failures are
    not kept, and raw arrays are diagonalized and resolved on every call.
    """
    ctol = _cluster_scale(tol)
    if not isinstance(rho, DensityMatrix):
        mat = _require_hermitian(as_complex_matrix(rho), tol)
        return _resolve(np.linalg.eigh(mat), ctol, tol, False)
    res = rho._resolutions.get(tol)
    if res is None:
        res = rho._resolutions[tol] = _resolve(rho._eigh(), ctol, tol, True)
    return res


def _resolve(eig, ctol: float, tol: Tolerances, density: bool) -> SpectralResolution:
    """Cluster an ascending (eigenvalues, eigenvectors) pair; the frame is its reversed view."""
    w, v = eig
    w, v = w[::-1], v[:, ::-1]
    sizes = _cluster_sizes(w, ctol)
    levels = np.add.reduceat(w, _offsets(sizes)[:-1]) / sizes
    if density:
        levels = np.clip(levels, 0.0, 1.0)
    if np.any(levels[:-1] - levels[1:] <= ctol):
        raise ClusterAmbiguity(
            "clustered levels collapsed within the clustering scale; "
            "no stable grouping at this tolerance"
        )
    res = SpectralResolution._from_frame(v, sizes, tol)
    res._set_levels(levels, tol, density)
    return res


def _check_state(x, name: str) -> DensityMatrix:
    if not isinstance(x, DensityMatrix):
        raise TypeError(f"{name} must be a DensityMatrix, got {type(x).__name__}")
    return x


def _check_resolution(x, name: str) -> IdentityResolution:
    if not isinstance(x, IdentityResolution):
        raise TypeError(f"{name} must be an IdentityResolution, got {type(x).__name__}")
    return x


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"operands have dims {a.dim} and {b.dim}")


def compress(rho, q: Projector, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Two-sided compression Q A Q, symmetrized."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else as_complex_matrix(rho)
    if not isinstance(q, Projector):
        raise TypeError("compress expects a Projector")
    if mat.shape[0] != q.dim:
        raise DimMismatch(f"operand dim {mat.shape[0]} != projector dim {q.dim}")
    return hermitize(q.mat @ mat @ q.mat)
