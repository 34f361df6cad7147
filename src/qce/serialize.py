"""JSON document formats for matrices, resolutions, and partition data.

A matrix document is {"dim": n, "re": [[...]], "im": [[...]], "label": ...}
with "im" and "label" optional. A resolution document is {"dim": n,
"blocks": [matrix documents]}. Partition data is either the four-field form
{"p", "q", "p_given_q", "q_given_p"} or {"joint": [[...]]}.

Structural problems (a file that cannot be read or is not UTF-8, bad or too
deeply nested JSON, missing keys, wrong shapes, non-finite numbers) raise
ParseError; whether the parsed numbers satisfy a role's
invariants is the caller's concern and raises validation errors instead.
Every numeric field is read by _numbers (numbers, right axes, nonempty,
finite); each reader checks its own dim x dim or cross-field shapes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ParseError
from .matcore import IdentityResolution, Projector, hermitize
from .shannon import ClassicalPartitionData

__all__ = [
    "doc_to_matrix", "doc_to_partition", "doc_to_resolution", "load_document",
    "matrix_to_doc", "resolution_to_doc",
]


def load_document(source) -> dict:
    """Read a JSON object from a path, or from a string that starts with '{'."""
    if isinstance(source, Path):
        text = _read_path(source)
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    elif isinstance(source, str):
        text = _read_path(Path(source))
    else:
        raise ParseError(f"cannot load a document from {type(source).__name__}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    return doc


def _read_path(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _numbers(doc: dict, key: str, ndim: int) -> np.ndarray:
    """doc[key] as a nonempty, finite float array with ndim axes, else ParseError."""
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f'"{key}" must be a rectangular array of numbers') from None
    if arr.ndim != ndim or 0 in arr.shape:
        raise ParseError(f'"{key}" must be a nonempty {ndim}-D array, got shape {arr.shape}')
    if not np.all(np.isfinite(arr)):
        raise ParseError(f'"{key}" contains non-finite entries')
    return arr


def _grid(doc: dict, key: str, dim: int) -> np.ndarray:
    arr = _numbers(doc, key, 2)
    if arr.shape != (dim, dim):
        raise ParseError(f'"{key}" must be a {dim} x {dim} grid, got shape {arr.shape}')
    return arr


def _dim(doc: dict) -> int:
    dim = doc["dim"]  # an integral JSON number (2 or 2.0), never a bool
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ParseError('"dim" must be an integer')
    if dim < 1:
        raise ParseError(f'"dim" must be positive, got {dim}')
    return dim


def doc_to_matrix(doc: dict) -> np.ndarray:
    """Matrix document -> complex ndarray."""
    if "dim" not in doc or "re" not in doc:
        raise ParseError('matrix document needs "dim" and "re" fields')
    dim = _dim(doc)
    re = _grid(doc, "re", dim)
    im = _grid(doc, "im", dim) if "im" in doc else np.zeros((dim, dim))
    return re + 1j * im


def matrix_to_doc(mat, label: str | None = None) -> dict:
    """Complex ndarray -> matrix document (plain lists, JSON-ready).

    The "im" grid is written only when some entry actually has an
    imaginary part, matching the optional-"im" input format.
    """
    a = np.asarray(mat, dtype=np.complex128)
    doc = {
        "dim": int(a.shape[0]),
        "re": [[float(x) for x in row] for row in a.real],
    }
    if np.any(a.imag != 0.0):
        doc["im"] = [[float(x) for x in row] for row in a.imag]
    if label is not None:
        doc["label"] = str(label)
    return doc


def doc_to_resolution(doc: dict, tol: Tolerances = DEFAULT_TOLERANCES) -> IdentityResolution:
    """Resolution document -> IdentityResolution (blocks validated as projectors)."""
    if "dim" not in doc or "blocks" not in doc:
        raise ParseError('resolution document needs "dim" and "blocks" fields')
    blocks = doc["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise ParseError('"blocks" must be a nonempty list of matrix documents')
    dim = _dim(doc)
    projs = []
    for k, entry in enumerate(blocks):
        if not isinstance(entry, dict):
            raise ParseError(f"block {k} is not a matrix document")
        mat = doc_to_matrix(entry)
        if mat.shape[0] != dim:
            raise ParseError(f'block {k} dim {mat.shape[0]} != document dim {doc["dim"]}')
        projs.append(Projector(mat, tol))
    return IdentityResolution(projs, tol)


def resolution_to_doc(res: IdentityResolution) -> dict:
    """IdentityResolution -> resolution document; block j is V_j V_j* of its frame columns."""
    return {
        "dim": res.dim,
        "blocks": [matrix_to_doc(hermitize(b @ b.conj().T)) for b in res.bases()],
    }


def doc_to_partition(doc: dict, tol: Tolerances = DEFAULT_TOLERANCES) -> ClassicalPartitionData:
    """Partition document -> ClassicalPartitionData."""
    if "joint" in doc:
        return ClassicalPartitionData.from_joint(_numbers(doc, "joint", 2), tol)
    axes = {"p": 1, "q": 1, "p_given_q": 2, "q_given_p": 2}
    if not all(k in doc for k in axes):
        raise ParseError(
            'partition document needs either "joint" or all of '
            '"p", "q", "p_given_q", "q_given_p"'
        )
    p, q, pg, qg = (_numbers(doc, k, ndim) for k, ndim in axes.items())
    # The constructor's convention: p_given_q[a, b] = P(X=a | Y=b).
    for name, arr, shape in (
        ("p_given_q", pg, (p.size, q.size)),
        ("q_given_p", qg, (q.size, p.size)),
    ):
        if arr.shape != shape:
            raise ParseError(f'"{name}" must have shape {shape}, got {arr.shape}')
    return ClassicalPartitionData(p, q, pg, qg, tol)
