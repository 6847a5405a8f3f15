"""Finite multi-matrix *-algebras A = M_{n_1}(C) + ... + M_{n_B}(C).

Elements are block lists; automorphisms are (block permutation) composed with
an inner automorphism, which exhausts Aut(A) for these algebras.

Inputs are validated once, by the public constructors: `AlgebraElement(...)`
and `Automorphism(...)` check every block for shape and finiteness.  The
results of arithmetic on validated elements (sums, products, adjoints, twists,
units and random draws) are built by the trusted `_element` and skip the checks.

A trusted element may carry leading sample axes: blocks of shape
(..., n_k, n_k) hold a stack of elements, and +, -, *, scalars, `star`,
`coefficients` and automorphisms act on each element of the stack, so a
sampled spot check is one pass over its samples.  The public constructors
stay 2-D.
"""
from __future__ import annotations

import cmath
from dataclasses import InitVar, dataclass
from typing import Iterator

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, cmatrix, frobenius, rel_defect, rel_defects


@dataclass(frozen=True)
class AlgebraShape:
    block_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.block_dims)
        if not dims:
            raise ValueError("algebra must have at least one block")
        if any(n < 1 for n in dims):
            raise ValueError("block dimensions must be >= 1")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def basis_size(self) -> int:
        """N = sum n_k^2, the number of matrix units."""
        return sum(n * n for n in self.block_dims)

    def _offsets(self) -> list[int]:
        """Basis index of each block's first matrix unit E^(k)_00."""
        return [sum(n * n for n in self.block_dims[:k]) for k in range(self.num_blocks)]

    def unit_products(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Basis indices (u, v, w) with E_u E_v = E_w; every other product of matrix units is 0."""
        out = []
        for off, n in zip(self._offsets(), self.block_dims):
            i, j, q = np.indices((n, n, n)).reshape(3, -1)
            out.append((off + i * n + j, off + j * n + q, off + i * n + q))
        return tuple(np.concatenate(col) for col in zip(*out))

    def star_index(self) -> np.ndarray:
        """Basis index of E_u* = E^(k)_ji for each matrix unit E_u = E^(k)_ij."""
        out = []
        for off, n in zip(self._offsets(), self.block_dims):
            i, j = np.indices((n, n)).reshape(2, -1)
            out.append(off + j * n + i)
        return np.concatenate(out)

    def unit(self) -> AlgebraElement:
        return _element(self, tuple(np.eye(n, dtype=complex) for n in self.block_dims))

    def zero(self) -> AlgebraElement:
        return _element(self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_dims))

    def matrix_unit(self, k: int, i: int, j: int) -> AlgebraElement:
        blocks = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        blocks[k][i, j] = 1.0
        return _element(self, tuple(blocks))

    def labels(self) -> list[tuple[int, int, int]]:
        """Labels (k, i, j) of the matrix units E^(k)_ij, in basis order."""
        return [(k, i, j) for k, n in enumerate(self.block_dims) for i in range(n) for j in range(n)]

    def basis(self) -> Iterator[tuple[tuple[int, int, int], AlgebraElement]]:
        """All matrix units E^(k)_ij with their labels; they span the algebra."""
        for label in self.labels():
            yield label, self.matrix_unit(*label)

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
        """Block by block, the real and then the imaginary parts, standard normal times scale."""
        return _from_normals(self, rng.standard_normal(2 * self.basis_size), scale)

    def random_unitary(self, rng: np.random.Generator) -> Unitary:
        blocks = []
        for n in self.block_dims:
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(x)
            q = q @ np.diag(np.exp(1j * np.angle(np.diag(r))))
            blocks.append(q)
        return Unitary(_element(self, tuple(blocks)))


@dataclass(frozen=True)
class AlgebraElement:
    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != self.shape.num_blocks:
            raise ValueError("block count does not match algebra shape")
        coerced = []
        for n, blk in zip(self.shape.block_dims, self.blocks):
            b = cmatrix(np.atleast_2d(blk))
            if b.shape != (n, n):
                raise ValueError(f"block of shape {b.shape} where ({n},{n}) expected")
            coerced.append(b)
        object.__setattr__(self, "blocks", tuple(coerced))

    def _binary(self, other: AlgebraElement, op) -> AlgebraElement:
        if self.shape != other.shape:
            raise ValueError("algebra shape mismatch")
        return _element(self.shape, tuple(op(a, b) for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        return self._binary(other, lambda a, b: a @ b)

    def __rmul__(self, scalar) -> AlgebraElement:
        z = complex(scalar)
        if not cmath.isfinite(z):
            raise ValueError(f"scalar must be finite, got {z!r}")
        return _element(self.shape, tuple(z * b for b in self.blocks))

    def __neg__(self) -> AlgebraElement:
        return (-1.0) * self

    def star(self) -> AlgebraElement:
        """Blockwise conjugate transpose (the algebra involution)."""
        return _element(self.shape, tuple(b.conj().swapaxes(-1, -2) for b in self.blocks))

    def coefficients(self) -> np.ndarray:
        """The block entries in matrix-unit basis order, as one vector of length N per element of a stack."""
        lead = self.blocks[0].shape[:-2]
        return np.concatenate([b.reshape(lead + (b.shape[-1] ** 2,)) for b in self.blocks], axis=-1)

    def norm(self) -> float:
        return frobenius(self.coefficients())

    def defect(self, other: AlgebraElement) -> float:
        """`rel_defect` of the coefficient vectors: the Frobenius norms of all blocks at once."""
        if self.shape != other.shape:
            raise ValueError("algebra shape mismatch")
        return rel_defect(self.coefficients(), other.coefficients())


def _from_normals(shape: AlgebraShape, x: np.ndarray, scale: float) -> AlgebraElement:
    """The elements `random_element` makes of the standard normals x, 2N of them per element on x's last axis."""
    lead, blocks, start = x.shape[:-1], [], 0
    for n in shape.block_dims:
        re, im = x[..., start:start + n * n], x[..., start + n * n:start + 2 * n * n]
        blocks.append(scale * (re + 1j * im).reshape(lead + (n, n)))
        start += 2 * n * n
    return _element(shape, tuple(blocks))


def stack(shape: AlgebraShape, parts) -> AlgebraElement:
    """The list of elements (or equal-shaped stacks) parts as one stack over a new leading axis."""
    if any(x.shape != shape for x in parts):
        raise ValueError("algebra shape mismatch")
    if not parts:
        return _element(shape, tuple(np.zeros((0, n, n), dtype=complex) for n in shape.block_dims))
    return _element(shape, tuple(np.stack(blocks) for blocks in zip(*(x.blocks for x in parts))))


def _element(shape: AlgebraShape, blocks: tuple[np.ndarray, ...]) -> AlgebraElement:
    """The element with these blocks, trusted: they are finite complex (..., n_k, n_k) arrays, so nothing is checked."""
    out = object.__new__(AlgebraElement)
    out.__dict__.update(shape=shape, blocks=blocks)
    return out


@dataclass(frozen=True)
class Automorphism:
    """sigma(a)_{perm(k)} = S_k a_k S_k^{-1}: block permutation composed with inner.

    ``conjugators`` are read-only copies of the caller's arrays, so the cached
    inverses always belong to them.
    """

    shape: AlgebraShape
    perm: tuple[int, ...]
    conjugators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dims = self.shape.block_dims
        perm = tuple(int(p) for p in self.perm)
        if sorted(perm) != list(range(len(dims))):
            raise ValueError("perm must be a permutation of the block indices")
        if any(dims[perm[k]] != dims[k] for k in range(len(dims))):
            raise ValueError("perm must preserve block dimensions")
        conj = []
        conj_inv = []
        for k, n in enumerate(dims):
            s = cmatrix(np.atleast_2d(self.conjugators[k])).copy()   # the cached inverse must not go stale
            s.flags.writeable = False
            if s.shape != (n, n):
                raise ValueError(f"conjugator {k} has shape {s.shape}, expected ({n},{n})")
            try:
                conj_inv.append(np.linalg.inv(s))
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"conjugator {k} is singular") from exc
            conj.append(s)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "conjugators", tuple(conj))
        object.__setattr__(self, "_conjugator_invs", tuple(conj_inv))

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.shape != self.shape:
            raise ValueError("algebra shape mismatch")
        out = [None] * self.shape.num_blocks
        for k, s in enumerate(self.conjugators):
            out[self.perm[k]] = s @ a.blocks[k] @ self._conjugator_invs[k]
        return _element(self.shape, tuple(out))

    def matrix(self) -> np.ndarray:
        """sigma on the matrix-unit basis: row u holds the block coefficients of sigma(E_u).

        sigma(E^(k)_ij) = S_k[:, i] S_k^{-1}[j, :] sits in block perm(k), so the
        block (k, perm(k)) of the matrix is kron(S_k^T, S_k^{-1}).
        """
        offsets = self.shape._offsets()
        size = self.shape.basis_size
        out = np.zeros((size, size), dtype=complex)
        for k, (n, s, s_inv) in enumerate(zip(self.shape.block_dims, self.conjugators, self._conjugator_invs)):
            row, col = offsets[k], offsets[self.perm[k]]
            out[row:row + n * n, col:col + n * n] = np.kron(s.T, s_inv)
        return out

    def inverse(self) -> Automorphism:
        """sigma^-1, cached; its conjugators are the S_k^-1 and its inverse is sigma itself."""
        cached = getattr(self, "_inverse", None)
        if cached is None:
            inv_perm = tuple(int(k) for k in np.argsort(self.perm))
            cached = _automorphism(self.shape, inv_perm,
                                   tuple(self._conjugator_invs[k] for k in inv_perm),
                                   tuple(self.conjugators[k] for k in inv_perm))
            cached.__dict__["_inverse"] = self
            self.__dict__["_inverse"] = cached
        return cached

    def amplified(self, n: int) -> Automorphism:
        """id (x) sigma on M_n(A) = + M_{n n_k}(C), cached per n.

        It has the same block permutation, the conjugators kron(1_n, S_k) and
        their inverses kron(1_n, S_k^-1), so nothing is inverted again.
        """
        cache = self.__dict__.setdefault("_amplified", {})
        if n not in cache:
            eye = np.eye(n)
            cache[n] = _automorphism(AlgebraShape(tuple(n * nk for nk in self.shape.block_dims)), self.perm,
                                     tuple(np.kron(eye, s) for s in self.conjugators),
                                     tuple(np.kron(eye, s) for s in self._conjugator_invs))
        return cache[n]


def _automorphism(shape: AlgebraShape, perm: tuple[int, ...], conjugators: tuple[np.ndarray, ...],
                  conjugator_invs: tuple[np.ndarray, ...]) -> Automorphism:
    """The automorphism with these conjugators and their known inverses, trusted: nothing is checked or inverted."""
    out = object.__new__(Automorphism)
    out.__dict__.update(shape=shape, perm=perm, conjugators=conjugators, _conjugator_invs=conjugator_invs)
    return out


def identity_automorphism(shape: AlgebraShape) -> Automorphism:
    return Automorphism(
        shape,
        tuple(range(shape.num_blocks)),
        tuple(np.eye(n, dtype=complex) for n in shape.block_dims),
    )


@dataclass(frozen=True)
class RegularityReport:
    max_defect: float
    tol: Tolerance = DEFAULT_TOL

    @property
    def passes(self) -> bool:
        return self.tol.accepts(self.max_defect)


def check_regularity(sigma: Automorphism, tol: Tolerance = DEFAULT_TOL) -> RegularityReport:
    """Max defect of sigma(a*) = (sigma^{-1}(a))* over the matrix units.

    The identity is antilinear in a, so the matrix units decide it.  They are
    one stack, row u of the N x N identity holding the block entries of E_u;
    each side is one stacked twist, compared by `rel_defects` on coefficient rows.
    """
    shape, size = sigma.shape, sigma.shape.basis_size
    eye = np.eye(size, dtype=complex)
    x = _element(shape, tuple(eye[:, off:off + n * n].reshape(size, n, n)
                              for off, n in zip(shape._offsets(), shape.block_dims)))
    lhs, rhs = sigma(x.star()).coefficients(), sigma.inverse()(x).star().coefficients()
    defects = rel_defects(lhs[:, None], rhs[:, None])     # coefficient rows as 1 x N matrices
    return RegularityReport(float(defects.max()), tol)


@dataclass(frozen=True)
class Unitary:
    """An element with u u* = u* u = e, checked at tol."""

    element: AlgebraElement
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerance) -> None:
        e = self.element.shape.unit()
        u = self.element
        if u.defect(e) == 0.0:
            return
        if not tol.accepts((u * u.star()).defect(e), (u.star() * u).defect(e)):
            raise ValueError("element is not unitary: u u* = u* u = e fails")
