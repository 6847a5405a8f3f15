"""JSON file formats: complex scalar = [re, im], matrix = a dense or a sparse cell.

A dense cell is a row-major nested array of [re, im] entries.  A sparse cell is
``{"shape": [r, c], "ij": [[i, j], ...], "v": [[re, im], ...]}``: the listed
entries, every other entry +0.0.  Every reader takes either form anywhere.
Triple documents carry ``"schema": 2`` and store each matrix whose nonzero
entries are at most `SPARSE_MAX_DENSITY` of the whole as a sparse cell.  Every
other document (perturbations, unitaries, idempotents) and every report matrix
is written dense, by `matrix_to_json`.

Loading validates schema and structural invariants (shapes, finiteness,
invertibility, unitarity, idempotency); spectral axioms stay with `check`.
"""
from __future__ import annotations

import json
from itertools import chain
from typing import Any

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, Automorphism, Unitary
from .linalg import DEFAULT_TOL, AntilinearOp, Tolerance
from .morita import AlgebraMatrix, IdempotentData, connection_with
from .pert import Perturbation, eta
from .triple import RealStructure, Representation, TwistedTriple, ko_signs

TRIPLE_SCHEMA = 2
# a triple file stores a matrix sparse when at most this share of its entries is nonzero
SPARSE_MAX_DENSITY = 0.25
# the most bytes a file may make the loader allocate before it reads the entries: the dense
# representation stack of a triple (N d^2 complex entries), or the declared shape of one sparse cell
MAX_DENSE_BYTES = 1 << 30


def complex_from_json(v: Any) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        raise ValueError(f"complex scalar must be a [re, im] pair, got {v!r}")
    return complex(v[0], v[1])


def _pairs(m: np.ndarray) -> np.ndarray:
    """The (r, c, 2) real view of a complex matrix: its [re, im] entries."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,))


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """A dense cell."""
    return _pairs(m).tolist()


def _cell_to_json(m: np.ndarray) -> list | dict:
    """A triple file's cell: sparse when at most SPARSE_MAX_DENSITY of the entries are nonzero, else dense.

    An entry is zero only when both parts are +0.0 bit for bit, so a -0.0 is
    listed and the round trip is exact.
    """
    pairs = _pairs(m)
    nonzero = np.flatnonzero(pairs.view(np.uint64).any(axis=-1))
    if nonzero.size > SPARSE_MAX_DENSITY * m.size:
        return pairs.tolist()
    rows, cols = m.shape
    return {"shape": [rows, cols], "ij": np.column_stack(np.divmod(nonzero, cols)).tolist(),
            "v": pairs.reshape(-1, 2)[nonzero].tolist()}


def _complex_matrix(rows: list[list]) -> np.ndarray | None:
    """One-shot conversion of well-formed [re, im] entries; None if any entry is not a pair of numbers.

    The types of all parts are one set, and the array's shape checks every entry's length.
    """
    try:
        if not set(map(type, chain.from_iterable(chain.from_iterable(rows)))) <= {int, float}:
            return None
        pairs = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return pairs.view(complex)[..., 0] if pairs.ndim == 3 and pairs.shape[2] == 2 else None


def _sparse_from_json(v: dict, shape: tuple[int, int] | None) -> np.ndarray:
    """The matrix of a sparse cell; its declared shape is checked against shape before anything is allocated."""
    if v.keys() != {"shape", "ij", "v"}:
        raise ValueError(f"sparse matrix cell must have exactly the keys shape, ij and v, got {sorted(v)}")
    declared, ij, values = v["shape"], v["ij"], v["v"]
    if not (isinstance(declared, list) and len(declared) == 2
            and all(type(n) is int and n >= 1 for n in declared)):
        raise ValueError(f"sparse cell shape must be a pair of positive JSON integers, got {declared!r}")
    rows, cols = declared
    if shape is not None and (rows, cols) != shape:
        raise ValueError(f"matrix of shape {(rows, cols)} where {shape} expected")
    if rows * cols * 16 > MAX_DENSE_BYTES:
        raise ValueError(f"sparse cell shape {declared} is {rows * cols * 16} bytes dense, "
                         f"over the {MAX_DENSE_BYTES}-byte bound")
    if not (isinstance(ij, list) and isinstance(values, list)):
        raise ValueError("sparse cell ij and v must be JSON lists")
    if len(ij) != len(values):
        raise ValueError(f"sparse cell has {len(ij)} indices in ij but {len(values)} values in v")
    seen = set()
    for p in ij:
        if not (isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
            raise ValueError(f"sparse cell index must be an [i, j] pair of JSON integers, got {p!r}")
        if not (0 <= p[0] < rows and 0 <= p[1] < cols):
            raise ValueError(f"sparse cell index {p} is out of range for shape {declared}")
        if (key := (p[0], p[1])) in seen:
            raise ValueError(f"sparse cell lists index {p} twice")
        seen.add(key)
    entries = _complex_matrix([values])
    if entries is None:   # the per-entry path names the first malformed value
        entries = np.array([[complex_from_json(z) for z in values]], dtype=complex)
    out = np.zeros((rows, cols), dtype=complex)
    idx = np.array(ij, dtype=np.intp).reshape(-1, 2)
    out[idx[:, 0], idx[:, 1]] = entries[0]
    return out


def matrix_from_json(v: Any, shape: tuple[int, int] | None = None) -> np.ndarray:
    """The matrix of a dense or a sparse cell, checked against shape when one is given."""
    if isinstance(v, dict):
        return _sparse_from_json(v, shape)
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ValueError("matrix must be a non-empty nested array")
    ncols = len(v[0])
    if any(len(r) != ncols for r in v):
        raise ValueError("matrix rows must have equal length")
    out = _complex_matrix(v)
    if out is None:   # the per-entry path names the first malformed entry
        out = np.array([[complex_from_json(z) for z in row] for row in v])
    if shape is not None and out.shape != shape:
        raise ValueError(f"matrix of shape {out.shape} where {shape} expected")
    return out


def element_to_json(a: AlgebraElement) -> list:
    return [matrix_to_json(b) for b in a.blocks]


def element_from_json(shape: AlgebraShape, v: Any) -> AlgebraElement:
    if not isinstance(v, list) or len(v) != shape.num_blocks:
        raise ValueError(f"algebra element must be a list of {shape.num_blocks} block matrices")
    blocks = tuple(matrix_from_json(b, (n, n)) for n, b in zip(shape.block_dims, v))
    return AlgebraElement(shape, blocks)


def pert_to_json(p: Perturbation) -> list:
    return [[element_to_json(a), element_to_json(b)] for a, b in p.pairs]


def pert_from_json(shape: AlgebraShape, v: Any) -> Perturbation:
    if not isinstance(v, list):
        raise ValueError("a perturbation must be a JSON list of element pairs")
    pairs = []
    for item in v:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError("each perturbation entry must be a pair of algebra elements")
        pairs.append((element_from_json(shape, item[0]), element_from_json(shape, item[1])))
    return Perturbation(shape, tuple(pairs))


def triple_to_json(t: TwistedTriple) -> dict:
    unit_images = {}
    for k, n in enumerate(t.shape.block_dims):
        for i in range(n):
            for j in range(n):
                unit_images[f"{k},{i},{j}"] = _cell_to_json(t.rep.unit_images[k][i, j])
    doc = {
        "schema": TRIPLE_SCHEMA,
        "algebra": {"blocks": list(t.shape.block_dims)},
        "hilbert_dim": t.dim,
        "representation": {"unit_images": unit_images},
        "dirac": _cell_to_json(t.dirac),
        "automorphism": {
            "perm": list(t.sigma.perm),
            "conjugators": [_cell_to_json(s) for s in t.sigma.conjugators],
        },
    }
    if t.grading is not None:
        doc["grading"] = _cell_to_json(t.grading)
    if t.real is not None:
        doc["real_structure"] = {"matrix": _cell_to_json(t.real.j.mat)}
    return doc


def _integer(v: Any, field: str) -> int:
    """A JSON integer; a bool, float, null or container raises ValueError naming the field."""
    if type(v) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {v!r}")
    return v


def _object(v: Any, field: str) -> dict:
    """A JSON object; any other value raises ValueError naming the field."""
    if not isinstance(v, dict):
        raise ValueError(f"{field} must be a JSON object, got {type(v).__name__}")
    return v


def _integers(v: Any, field: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ValueError(f"{field} must be a list of JSON integers, got {v!r}")
    return tuple(_integer(x, f"{field} entry") for x in v)


def triple_from_json(doc: Any, tol: Tolerance = DEFAULT_TOL) -> TwistedTriple:
    """The triple of a triple file; its KO signs are detected at tol.

    A file without a ``schema`` field loads as one of schema 2; any other schema is rejected.
    """
    if not isinstance(doc, dict):
        raise ValueError("triple file must be a JSON object")
    if "schema" in doc and not (type(doc["schema"]) is int and doc["schema"] == TRIPLE_SCHEMA):
        raise ValueError(f"triple file schema must be {TRIPLE_SCHEMA} or absent, got {doc['schema']!r}")
    try:
        blocks = _object(doc["algebra"], "algebra")["blocks"]
        dim = doc["hilbert_dim"]
        representation = _object(doc["representation"], "representation")
        unit_images = _object(representation["unit_images"], "representation.unit_images")
        dirac_json = doc["dirac"]
        auto = _object(doc["automorphism"], "automorphism")
        perm, conjugators = auto["perm"], auto["conjugators"]
        j_json = (_object(doc["real_structure"], "real_structure")["matrix"]
                  if "real_structure" in doc else None)
    except KeyError as exc:
        raise ValueError(f"triple file missing required field: {exc}") from exc
    shape = AlgebraShape(_integers(blocks, "algebra.blocks"))
    dim = _integer(dim, "hilbert_dim")
    if dim < 1:
        raise ValueError(f"hilbert_dim must be >= 1, got {dim}")
    if (size := shape.basis_size * dim * dim * 16) > MAX_DENSE_BYTES:
        raise ValueError(f"hilbert_dim {dim} with {shape.basis_size} matrix units makes the representation "
                         f"stack {size} bytes, over the {MAX_DENSE_BYTES}-byte bound")
    if not isinstance(conjugators, list) or len(conjugators) != shape.num_blocks:
        raise ValueError(f"automorphism needs a list of {shape.num_blocks} conjugators, one per block")
    unknown = sorted(unit_images.keys() - {f"{k},{i},{j}" for k, i, j in shape.labels()})
    if unknown:
        raise ValueError(f"representation.unit_images key {unknown[0]!r} names no matrix unit of the algebra")
    images = []
    for k, n in enumerate(shape.block_dims):
        arr = np.zeros((n, n, dim, dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                key = f"{k},{i},{j}"
                if key not in unit_images:
                    raise ValueError(f"representation is missing unit image '{key}'")
                arr[i, j] = matrix_from_json(unit_images[key], (dim, dim))
        images.append(arr)
    rep = Representation(shape, dim, tuple(images))
    dirac = matrix_from_json(dirac_json, (dim, dim))
    sigma = Automorphism(
        shape,
        _integers(perm, "automorphism.perm"),
        tuple(matrix_from_json(s, (n, n)) for n, s in zip(shape.block_dims, conjugators)),
    )
    grading = matrix_from_json(doc["grading"], (dim, dim)) if "grading" in doc else None
    real = None
    if j_json is not None:
        j = AntilinearOp(matrix_from_json(j_json, (dim, dim)))
        real = RealStructure(j, *(sign for sign, _ in ko_signs(j, dirac, grading, tol)))
    return TwistedTriple(shape, rep, dirac, sigma, grading=grading, real=real)


def unitary_from_json(shape: AlgebraShape, v: Any, tol: Tolerance = DEFAULT_TOL) -> Unitary:
    """The unitary of a unitary file, its unitarity checked at tol."""
    return Unitary(element_from_json(shape, v), tol)


def idempotent_to_json(e: IdempotentData) -> list:
    return [[element_to_json(x) for x in row] for row in e.matrix.entries]


def idempotent_from_json(shape: AlgebraShape, v: Any) -> IdempotentData:
    if not isinstance(v, list) or not v or any(not isinstance(r, list) or len(r) != len(v) for r in v):
        raise ValueError("idempotent file must be a square array of algebra elements")
    entries = tuple(tuple(element_from_json(shape, x) for x in row) for row in v)
    return IdempotentData(AlgebraMatrix(shape, entries))


def connection_cells_from_json(shape: AlgebraShape, v: Any) -> tuple[tuple[Perturbation, ...], ...]:
    """Connection file: rows of perturbation pair-lists, one per one-form entry.

    Only the schema is checked here; `connection_from_cells` checks that the
    array is n x n for the idempotent.
    """
    if not isinstance(v, list) or any(not isinstance(row, list) for row in v):
        raise ValueError("a connection must be an array of rows of one-form pair lists")
    cells = []
    for i, row in enumerate(v):
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(pert_from_json(shape, cell))
            except ValueError as exc:
                raise ValueError(f"cell ({i}, {j}): {exc}") from exc
        cells.append(tuple(parsed))
    return tuple(cells)


def connection_from_cells(t: TwistedTriple, e: IdempotentData, cells: tuple[tuple[Perturbation, ...], ...]):
    """The right connection whose one-form entry (i, j) is eta of cells[i][j]."""
    n = e.n
    if len(cells) != n or any(len(row) != n for row in cells):
        raise ValueError("connection file must be an n x n array of one-form pair lists")
    return connection_with(t, e, tuple(tuple(eta(t, p).op for p in row) for row in cells), "right")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_triple(path: str, tol: Tolerance = DEFAULT_TOL) -> TwistedTriple:
    return triple_from_json(load_json(path), tol)


def load_pert(path: str, shape: AlgebraShape) -> Perturbation:
    return pert_from_json(shape, load_json(path))


def load_unitary(path: str, shape: AlgebraShape, tol: Tolerance = DEFAULT_TOL) -> Unitary:
    return unitary_from_json(shape, load_json(path), tol)


def load_idempotent(path: str, shape: AlgebraShape) -> IdempotentData:
    return idempotent_from_json(shape, load_json(path))


def load_connection(path: str, shape: AlgebraShape) -> tuple[tuple[Perturbation, ...], ...]:
    """The parsed cells of a connection file; a schema error names the file."""
    doc = load_json(path)
    try:
        return connection_cells_from_json(shape, doc)
    except ValueError as exc:
        raise ValueError(f"connection file {path}: {exc}") from exc
