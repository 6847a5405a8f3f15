"""Real twisted spectral triples (A, H, D), sigma, J, Gamma in finite dimension.

The algebra acts through a representation given on matrix units; the real
structure is an antilinear isometry J inducing the right action
pi_opp(a) = J pi(a)* J^{-1}, and the twist enters through the twisted
commutator [D, pi(a)]_sigma = D pi(a) - pi(sigma(a)) D.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, Automorphism, check_regularity
from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    Tolerance,
    cmatrix,
    dagger,
    detect_sign,
    rel_defect,
    rel_defects,
    relative,
    sq_norms,
)

# KO-dimension mod 8 from the sign triple (eps, eps', eps''); graded cases carry eps''.
_KO_GRADED = {(1, 1, 1): 0, (-1, 1, -1): 2, (-1, 1, 1): 4, (1, 1, -1): 6}
_KO_ODD = {(1, -1): 1, (-1, 1): 3, (-1, -1): 5, (1, 1): 7}


# Working set, in bytes, of one chunk of a basis scan.  A scan holds thin factors
# of its (N, d, d) stacks of basis images besides the representation's own
# stack, and walks the rest of the basis, or of the N x N basis-pair grid, in
# chunks that fit this budget.
SCAN_BUDGET_BYTES = 1 << 18

_COMPLEX_BYTES = np.dtype(complex).itemsize
_EPS = np.finfo(float).eps

# The first-order witness is the first pair whose defect is within this relative
# distance of the maximum, so that pairs tied up to rounding resolve to the first.
WITNESS_RTOL = 1e-12


def _witness_index(defects: np.ndarray) -> int | None:
    """Index of the first defect within WITNESS_RTOL of the maximum; None when every defect is 0."""
    top = defects.max()
    return int(np.argmax(defects >= top * (1.0 - WITNESS_RTOL))) if top > 0.0 else None


def _slices(count: int, step: int) -> list[slice]:
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _fit(item_bytes: int, buffers: int) -> int:
    """How many items per buffer fit the budget when `buffers` buffers are live (at least 1)."""
    return max(1, SCAN_BUDGET_BYTES // (buffers * max(1, item_bytes)))


def _chunk(d: int, buffers: int) -> int:
    """How many (d, d) matrices per buffer fit the budget when `buffers` buffers are live."""
    return _fit(d * d * _COMPLEX_BYTES, buffers)


def _grid_sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the (axis 1, axis 3) slices of a contiguous (a, i, b, j) stack, as an (a, b) grid."""
    flat = x.view(float)
    return np.einsum("aibj,aibj->ab", flat, flat)


def _side_by_side(x: np.ndarray) -> np.ndarray:
    """The (u, d, c) stack X as one (d, u c) matrix [X_0 X_1 ...]."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise."""
    return (z * z.conj()).real


class _Monomial(NamedTuple):
    """Matrices with at most one nonzero in every row and every column, as index maps.

    Column c of a (d, d) matrix X is vals[c] e_rows[c]; a zero column has val 0
    and any row.  rows and vals hold one map per matrix along their leading
    axes.  The product of two such matrices is again one (`_compose`), and the
    distance of two is exact (`_sq_dist`), so neither needs a GEMM.
    """

    rows: np.ndarray    # (..., d) int
    vals: np.ndarray    # (..., d) complex

    def take(self, index) -> _Monomial:
        """The maps at index of the leading axes."""
        return _Monomial(self.rows[index], self.vals[index])


def _monomial_maps(images: Callable[[slice], np.ndarray], n: int, d: int) -> _Monomial | None:
    """The index maps of the n (d, d) matrices that images(chunk) returns chunk by chunk.

    None at the first chunk that holds a matrix with two nonzeros in a row or in a column.
    """
    rows, vals = np.empty((n, d), dtype=np.intp), np.empty((n, d), dtype=complex)
    for sl in _slices(n, _chunk(d, 2)):
        x = images(sl)
        nz = x != 0
        if (nz.sum(axis=1) > 1).any() or (nz.sum(axis=2) > 1).any():
            return None
        rows[sl] = nz.argmax(axis=1)
        vals[sl] = np.take_along_axis(x, rows[sl, None, :], axis=1)[:, 0]
    return _Monomial(rows, vals)


def _compose(x: _Monomial, y: _Monomial) -> _Monomial:
    """X_a Y_b for every a of the (a, d) maps x and b of the (b, d) maps y, as (a, b, d) maps.

    Column c of X Y is vals_y[c] times column rows_y[c] of X: one gather of x at the rows of y.
    """
    vals = np.take(x.vals, y.rows, axis=1)
    vals *= y.vals
    return _Monomial(np.take(x.rows, y.rows, axis=1), vals)


def _sq_norm(x: _Monomial) -> np.ndarray:
    return _abs2(x.vals).sum(axis=-1)


def _sq_dist(x: _Monomial, y: _Monomial) -> np.ndarray:
    """||X - Y||^2: |x - y|^2 summed over the columns where the rows agree, |x|^2 + |y|^2 over the others."""
    return np.where(x.rows == y.rows, _abs2(x.vals - y.vals), _abs2(x.vals) + _abs2(y.vals)).sum(axis=-1)


class _Factors(NamedTuple):
    """Thin SVDs X_u = U_u diag(s_u) Vh_u of a stack of N (d, d) matrices, with their norms ||X_u||.

    When rows is set, the factors are selectors: U_u[:, k] = e_rows[u, k] where s_u[k] > 0.
    """

    u: np.ndarray       # (N, d, r): orthonormal columns, and zero ones where a matrix is padded
    s: np.ndarray       # (N, r): 0 where a singular value is dropped or padded
    vh: np.ndarray      # (N, r, d): orthonormal rows, and zero ones where a matrix is padded
    norms: np.ndarray   # (N,)
    rows: np.ndarray | None = None   # (N, r)

    def scaled_u(self, sl: slice) -> np.ndarray:
        """U_v diag(s_v) for v in sl, side by side as one (d, |sl| r) matrix."""
        return _side_by_side(self.u[sl] * self.s[sl, None, :])

    def scaled_vh(self, sl: slice) -> np.ndarray:
        """diag(s_v) Vh_v for v in sl, stacked as one (|sl| r, d) matrix."""
        return (self.s[sl, :, None] * self.vh[sl]).reshape(-1, self.vh.shape[-1])

    def right_products(self, left: np.ndarray, sl: slice) -> np.ndarray:
        """L_u U_v diag(s_v) for each L_u of a (u, d, d) stack and v in sl, as a contiguous (v, d, u, r) stack.

        With selectors it is a gather of the columns of L_u, else one GEMM.
        """
        nu, d, _ = left.shape
        if self.rows is not None:
            y = np.take(left, self.rows[sl], axis=2) * self.s[sl]
        else:
            y = (left.reshape(nu * d, d) @ self.scaled_u(sl)).reshape(nu, d, sl.stop - sl.start, self.s.shape[1])
        return np.ascontiguousarray(y.transpose(2, 1, 0, 3))

    def left_products(self, left_cat: np.ndarray, sl: slice) -> np.ndarray:
        """diag(s_v) Vh_v L_u for v in sl and the L_u side by side in left_cat, as a (v, r, u, d) stack: one GEMM."""
        d, width = left_cat.shape
        return (self.scaled_vh(sl) @ left_cat).reshape(sl.stop - sl.start, self.s.shape[1], width // d, d)


def _selector_factors(m: _Monomial) -> _Factors:
    """The thin factors of an (N, d) stack of maps, without an SVD.

    Over the nonzero columns c of X_u, nonzero columns first, U_u[:, k] = e_rows[c],
    s_u[k] = |vals[c]| and Vh_u[k] = (vals[c] / |vals[c]|) e_c^T; r is the
    largest count of nonzero columns, and a matrix with fewer is padded with zeros.
    """
    n, d = m.vals.shape
    mags = np.abs(m.vals)
    r = int(np.count_nonzero(mags, axis=1).max(initial=0))
    cols = np.argsort(mags == 0, axis=1, kind="stable")[:, :r]
    s, rows = np.take_along_axis(mags, cols, axis=1), np.take_along_axis(m.rows, cols, axis=1)
    kept = s > 0
    idx, k = np.arange(n)[:, None], np.arange(r)
    u, vh = np.zeros((n, d, r), dtype=complex), np.zeros((n, r, d), dtype=complex)
    u[idx, rows, k] = kept
    vh[idx, k, cols] = np.take_along_axis(m.vals, cols, axis=1) / np.where(kept, s, 1.0)
    return _Factors(u, s, vh, np.sqrt(_sq_norm(m)), rows)


def _thin_factors(images: Callable[[slice], np.ndarray], n: int, d: int) -> _Factors:
    """Thin SVD factors of the n (d, d) matrices that images(chunk) returns chunk by chunk.

    Each matrix keeps its singular values above d * eps * s_max.  r is the
    largest count kept over the stack; a matrix of lower rank is padded with
    zero singular values and zero vectors, which changes no product exactly.
    r = 0 when every matrix is 0.
    """
    u, s, vh = np.zeros((n, d, 0), dtype=complex), np.zeros((n, 0)), np.zeros((n, 0, d), dtype=complex)
    norms = np.empty(n)
    for sl in _slices(n, _chunk(d, 4)):
        x = images(sl)
        norms[sl] = np.sqrt(sq_norms(x))
        cu, cs, cvh = np.linalg.svd(x, full_matrices=False)
        cs[cs <= d * _EPS * cs[:, :1]] = 0.0
        k = int(np.count_nonzero(cs, axis=1).max(initial=0))
        if k > s.shape[1]:   # widen r, padding the matrices already factored
            grow = k - s.shape[1]
            u = np.pad(u, ((0, 0), (0, 0), (0, grow)))
            s = np.pad(s, ((0, 0), (0, grow)))
            vh = np.pad(vh, ((0, 0), (0, grow), (0, 0)))
        u[sl, :, :k], s[sl, :k], vh[sl, :k] = cu[..., :k], cs[:, :k], cvh[:, :k]
    return _Factors(u, s, vh, norms)


def _split_sq_norms(y: np.ndarray, c: np.ndarray, vh: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||Y_uv Vh_v - C_v Z_uv||^2 over a tile of pairs, as a (v, u) grid; y is overwritten.

    y is the (v, d, u, ry) stack of Y_uv and z the (v, rc, u, d) stack of Z_uv.
    The nonzero columns of C_v (v, d, rc) are orthonormal and Z_uv is 0 in the
    rows of its zero columns; the nonzero rows of Vh_v (v, ry, d) are
    orthonormal and Y_uv is 0 in the columns of its zero rows.  With K = C^H Y
    the norm then splits without cancellation as ||Y - C K||^2 + ||K Vh - Z||^2,
    and both residuals are formed explicitly.
    """
    nv, d, nu, ry = y.shape
    rc = c.shape[2]
    flat = y.reshape(nv, d, nu * ry)
    k = np.matmul(np.conj(c).transpose(0, 2, 1), flat)
    flat -= np.matmul(c, k)
    kv = np.matmul(k.reshape(nv, rc * nu, ry), vh)
    kv -= z.reshape(nv, rc * nu, d)
    return _grid_sq_norms(y) + _grid_sq_norms(kv.reshape(nv, rc, nu, d))


# The scatter of `Representation.images` beats the GEMM only on large sparse
# stacks.  Timed with numpy 2.4 and one OpenBLAS thread on a 2-core Xeon: one
# image takes 2.1 us by GEMM and 6.6 us by scatter at d = 8 (U(1)xU(2)), the two
# tie at d = 16, and twelve images take 136 us against 30 us at d = 36 (M_6 on M_6).
SCATTER_MIN_DIM = 16
SCATTER_MAX_DENSITY = 0.25


def _scatter_columns(stack: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(cols, src) with stack[src[i], cols[i]] = 1 the only nonzero of column cols[i], or None.

    None unless every column holds at most one nonzero, each 1, d >= SCATTER_MIN_DIM
    and the nonzeros fill less than SCATTER_MAX_DENSITY of the stack.
    """
    if d < SCATTER_MIN_DIM:
        return None
    cols, src = np.nonzero(stack.T)   # sorted by column
    if len(cols) >= SCATTER_MAX_DENSITY * stack.size or (np.diff(cols) == 0).any() or (stack[src, cols] != 1).any():
        return None
    return cols, src


@dataclass(frozen=True)
class Representation:
    """Linear extension of (k,i,j) -> pi(E^(k)_ij).

    The basis images live in one contiguous (N, d*d) array ``stack``, N = sum n_k^2,
    rows in basis order; unit_images[k] is the (n_k, n_k, d, d) view of block k.
    With one block the stack is the caller's array, not a copy: the triple owns
    its unit images, and they must not be changed after construction.

    When every column of the stack holds at most one nonzero and that nonzero
    is 1 (Krajewski's normal form, pi = sum a_k (x) 1 in a permuted basis), and
    the images are large and sparse enough (`_scatter_columns`), pi is a scatter
    of coefficients into the zero image; otherwise it is one GEMM with the
    stack, which stays the general path and the oracle of the scatter.
    """

    shape: AlgebraShape
    dim: int
    unit_images: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.unit_images) != self.shape.num_blocks:
            raise ValueError("unit_images must have one entry per block")
        d = self.dim
        rows = []
        for n, u in zip(self.shape.block_dims, self.unit_images):
            arr = np.asarray(u, dtype=complex)
            if arr.shape != (n, n, d, d):
                raise ValueError(
                    f"unit images of shape {arr.shape} where ({n},{n},{d},{d}) expected"
                )
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError("unit images must be finite")
            rows.append(arr.reshape(n * n, d * d))
        # one block needs no copy, so loading a one-block triple holds its images once
        stack = np.concatenate(rows) if len(rows) > 1 else np.ascontiguousarray(rows[0])
        views, start = [], 0
        for n in self.shape.block_dims:
            views.append(stack[start:start + n * n].reshape(n, n, d, d))
            start += n * n
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "unit_images", tuple(views))
        object.__setattr__(self, "_scatter", _scatter_columns(stack, d))

    def __call__(self, a: AlgebraElement) -> np.ndarray:
        """pi(a), or a stack of pi images when a is a stack of elements."""
        if a.shape != self.shape:
            raise ValueError("algebra shape mismatch")
        return self.images(a.coefficients())

    def basis_images(self) -> np.ndarray:
        """pi(E_u) for every matrix unit, as an (N, d, d) view of the stack."""
        return self.stack.reshape(-1, self.dim, self.dim)

    def images(self, coeffs: np.ndarray) -> np.ndarray:
        """pi of the elements whose block coefficients lie along the last axis of coeffs, as a (..., d, d) stack.

        An (m, N) coeffs gives an (m, d, d) stack, one GEMM with the basis
        images or one scatter in normal form; a single (N,) row gives one (d, d) image.
        """
        out_shape = coeffs.shape[:-1] + (self.dim, self.dim)
        if self._scatter is None:
            return (coeffs @ self.stack).reshape(out_shape)
        cols, src = self._scatter
        out = np.zeros(coeffs.shape[:-1] + (self.stack.shape[1],), dtype=complex)
        out[..., cols] = coeffs[..., src]
        return out.reshape(out_shape)

    def monomial_maps(self) -> _Monomial | None:
        """The index maps of the basis images when each has at most one nonzero in every row and column, else None.

        Detected on the first call and kept: the unit images must not change after construction.
        """
        if not hasattr(self, "_maps"):
            p = self.basis_images()
            object.__setattr__(self, "_maps", _monomial_maps(lambda us: p[us], len(p), self.dim))
        return self._maps

    def homomorphism_defect(self) -> float:
        """Max defect of pi(E^(k)_ij) pi(E^(l)_pq) = delta_kl delta_jp pi(E^(k)_iq), over all pairs.

        When the basis images are monomial (`monomial_maps`), every product
        P_u P_v and its distance to the target P_w, or to 0, are taken on the
        index maps, chunked over u: no GEMM and no SVD, and the defect of an
        exact representation is exactly 0.  Otherwise, with the thin factors
        P_u = U_u S_u Vh_u, ||P_u P_v|| is the norm of the r x r core
        S_u (Vh_u U_v) S_v, and the cores of all pairs are one product chunked
        over u.  The pairs with E_u E_v = E_w compare (U_u core) Vh_v with
        U_w (S_w Vh_w) through `_split_sq_norms`.
        """
        p = self.basis_images()
        n, d = len(p), self.dim
        uu, vv, ww = self.shape.unit_products()
        maps = self.monomial_maps()
        if maps is not None:
            table = np.full((n, n), n)      # n: the zero matrix appended to the maps
            table[uu, vv] = ww
            targets = _Monomial(np.vstack([maps.rows, np.zeros(d, dtype=np.intp)]),
                                np.vstack([maps.vals, np.zeros(d, dtype=complex)]))
            worst = 0.0
            for us in _slices(n, _fit(n * d * _COMPLEX_BYTES, 8)):
                prod, target = _compose(maps.take(us), maps), targets.take(table[us])
                x = relative(np.sqrt(_sq_dist(prod, target)), np.sqrt(_sq_norm(prod)), np.sqrt(_sq_norm(target)))
                worst = max(worst, float(x.max()))
            return worst
        f = _thin_factors(lambda us: p[us], n, d)
        r = f.s.shape[1]
        rows = f.scaled_vh(slice(None))
        cols = f.scaled_u(slice(None))
        defects = np.empty((n, n))
        for us in _slices(n, _fit(n * r * r * _COMPLEX_BYTES, 1)):
            core = (rows[us.start * r:us.stop * r] @ cols).reshape(us.stop - us.start, r, n, r)
            norms = np.sqrt(_grid_sq_norms(core))
            defects[us] = relative(norms, norms)
        for hs in _slices(len(uu), _fit(d * r * _COMPLEX_BYTES, 8)):
            u, v, w = uu[hs], vv[hs], ww[hs]
            core = np.matmul(rows.reshape(n, r, d)[u], f.u[v] * f.s[v, None, :])
            y = np.matmul(f.u[u], core)[:, :, None, :]
            z = (f.s[w, :, None] * f.vh[w])[:, :, None, :]
            x = np.sqrt(_split_sq_norms(y, f.u[w], f.vh[v], z)[:, 0])
            defects[u, v] = relative(x, np.sqrt(sq_norms(core)), f.norms[w])
        return float(defects.max())

    def involution_defect(self) -> float:
        """Max defect of pi(E^(k)_ij)* = pi(E^(k)_ji)."""
        p = self.basis_images()
        star = self.shape.star_index()
        defects = [rel_defects(np.conj(p[us]).transpose(0, 2, 1).copy(), p[star[us]])
                   for us in _slices(len(p), _chunk(self.dim, 3))]
        return float(np.concatenate(defects).max())

    def unital_defect(self) -> float:
        return rel_defect(self(self.shape.unit()), np.eye(self.dim))

    def unit_is_projection(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        p = self(self.shape.unit())
        return tol.accepts(rel_defect(p @ p, p), rel_defect(dagger(p), p))

    def is_faithful(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """pi is injective iff the images of the matrix units are linearly independent.

        When every column of the stack holds at most one nonzero, the images
        have disjoint supports: they are orthogonal, and their norms are the
        singular values of the stack, so pi is faithful iff no image is within
        tol of 0.  Any other stack takes `np.linalg.matrix_rank`.
        """
        eps = tol.abs_eps * max(1.0, float(np.abs(self.stack).max(initial=0.0)))
        if (np.count_nonzero(self.stack, axis=0) <= 1).all():
            return bool((np.sqrt(sq_norms(self.basis_images())) > eps).all())
        return bool(np.linalg.matrix_rank(self.stack, tol=eps) == len(self.stack))


@dataclass(frozen=True)
class RealStructure:
    """Antilinear isometry J with KO signs; None marks a sign not yet detected."""

    j: AntilinearOp
    epsilon: int | None = None
    epsilon_prime: int | None = None
    epsilon_double_prime: int | None = None


def ko_signs(j: AntilinearOp, dirac: np.ndarray, grading: np.ndarray | None, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """The KO signs of J, as `detect_sign` results (sign, defect).

    They are those of J^2 = eps, J D J^-1 = eps' D and, when graded,
    J Gamma J^-1 = eps'' Gamma: two results for an ungraded triple, three for
    a graded one.
    """
    relations = [(j.squared(), np.eye(len(j.mat))), (j.conjugate(dirac), dirac)]
    if grading is not None:
        relations.append((j.conjugate(grading), grading))
    return tuple(detect_sign(x, y, tol) for x, y in relations)


def ko_dimension(signs) -> int | None:
    """KO-dimension mod 8 of the signs (eps, eps') or, graded, (eps, eps', eps'').

    None if a sign is None or the signs match no KO-dimension.
    """
    signs = tuple(signs)
    if None in signs:
        return None
    return (_KO_GRADED if len(signs) == 3 else _KO_ODD).get(signs)


@dataclass(frozen=True)
class TwistedTriple:
    shape: AlgebraShape
    rep: Representation
    dirac: np.ndarray
    sigma: Automorphism
    grading: np.ndarray | None = None
    real: RealStructure | None = None

    def __post_init__(self) -> None:
        d = cmatrix(self.dirac)
        if d.shape != (self.rep.dim, self.rep.dim):
            raise ValueError("dirac matrix does not match the Hilbert dimension")
        object.__setattr__(self, "dirac", d)
        if self.grading is not None:
            g = cmatrix(self.grading)
            if g.shape != d.shape:
                raise ValueError("grading does not match the Hilbert dimension")
            object.__setattr__(self, "grading", g)
        if self.real is not None and self.real.j.mat.shape != d.shape:
            raise ValueError("real structure does not match the Hilbert dimension")
        if self.rep.shape != self.shape or self.sigma.shape != self.shape:
            raise ValueError("representation/automorphism shape mismatch")

    # -- actions ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.rep.dim

    def pi(self, a: AlgebraElement) -> np.ndarray:
        return self.rep(a)

    def require_real(self) -> RealStructure:
        if self.real is None:
            raise ValueError("real structure required")
        return self.real

    def hat(self, a: AlgebraElement) -> np.ndarray:
        """J pi(a) J^{-1}, the operator of the hat element a^hat = (a*)^opp."""
        return self.require_real().j.conjugate(self.pi(a))

    def pi_opp(self, a: AlgebraElement) -> np.ndarray:
        """Right-action operator pi_opp(a^opp) = J pi(a)* J^{-1}."""
        return self.require_real().j.conjugate_adjoint(self.pi(a))

    def opp_images(self, images: np.ndarray) -> np.ndarray:
        """J X* J^{-1} for each X of an (m, d, d) stack of pi images."""
        return self.require_real().j.conjugate_adjoint(images)

    def epsilon_prime(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """The declared eps', else the sign with J D J^-1 = eps' D within tol."""
        real = self.require_real()
        if real.epsilon_prime is not None:
            return real.epsilon_prime
        sign, _ = detect_sign(real.j.conjugate(self.dirac), self.dirac, tol)
        if sign is None:
            raise ValueError("JD = eps' DJ holds for neither sign")
        return sign

    # -- twisted commutators ----------------------------------------------

    def bracket_sigma(self, t: np.ndarray, a: AlgebraElement) -> np.ndarray:
        """[T, pi(a)]_sigma = T pi(a) - pi(sigma(a)) T."""
        return t @ self.pi(a) - self.pi(self.sigma(a)) @ t

    def bracket_sigma_opp(self, t: np.ndarray, a: AlgebraElement) -> np.ndarray:
        """[T, pi_opp(a)]_{sigma_opp} = T pi_opp(a) - pi_opp(sigma^{-1}(a)) T."""
        return t @ self.pi_opp(a) - self.pi_opp(self.sigma.inverse()(a)) @ t

    def bracket_hat(self, t: np.ndarray, a: AlgebraElement) -> np.ndarray:
        """[T, a^hat]_{sigma_opp} = T hat(a) - hat(sigma(a)) T."""
        return t @ self.hat(a) - self.hat(self.sigma(a)) @ t

    def twisted_commutator(self, a: AlgebraElement) -> np.ndarray:
        """delta(a) = D pi(a) - pi(sigma(a)) D."""
        return self.bracket_sigma(self.dirac, a)

    def twisted_commutator_opp(self, a: AlgebraElement) -> np.ndarray:
        """delta_opp(a) = D pi_opp(a) - pi_opp(sigma^{-1}(a)) D."""
        return self.bracket_sigma_opp(self.dirac, a)

    def first_order_defect(self, a: AlgebraElement, b: AlgebraElement) -> float:
        """Relative norm of [[D, pi(a)]_sigma, pi_opp(b)]_{sigma_opp}, as a 1 x 1 `_first_order_grid`."""
        q, q_twisted = self.pi_opp(b), self.pi_opp(self.sigma.inverse()(b))
        return float(_first_order_grid(self.twisted_commutator(a)[None], q[None], q_twisted[None])[0, 0])


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom max defects; analytic axioms that are vacuous in finite dimension
    (boundedness, compact resolvent) are recorded as trivially satisfied."""

    dirac_selfadjoint: float
    regularity: float
    rep_homomorphism: float
    rep_involution: float
    rep_unital: float
    rep_unit_is_projection: bool
    faithful: bool
    grading_hermitian: float | None = None
    grading_squares: float | None = None
    grading_commutes_algebra: float | None = None
    grading_anticommutes_dirac: float | None = None
    j_isometry: float | None = None
    epsilon: int | None = None
    epsilon_defect: float | None = None
    epsilon_prime: int | None = None
    epsilon_prime_defect: float | None = None
    epsilon_double_prime: int | None = None
    epsilon_double_prime_defect: float | None = None
    ko_dimension: int | None = None
    order_zero: float | None = None
    first_order: float | None = None
    first_order_witness: tuple | None = None
    bounded: bool = True
    compact_resolvent: bool = True
    warnings: tuple[str, ...] = ()
    tol: Tolerance = field(default=DEFAULT_TOL)

    def failures(self, require_first_order: bool = False) -> list[str]:
        """Names of the mandatory axioms whose defect the tolerance does not accept."""
        checks = {
            "dirac_selfadjoint": self.dirac_selfadjoint,
            "regularity": self.regularity,
            "rep_homomorphism": self.rep_homomorphism,
            "rep_involution": self.rep_involution,
            "grading_hermitian": self.grading_hermitian,
            "grading_squares": self.grading_squares,
            "grading_commutes_algebra": self.grading_commutes_algebra,
            "grading_anticommutes_dirac": self.grading_anticommutes_dirac,
            "j_isometry": self.j_isometry,
            "epsilon": self.epsilon_defect,
            "epsilon_prime": self.epsilon_prime_defect,
            "epsilon_double_prime": self.epsilon_double_prime_defect,
            "order_zero": self.order_zero,
        }
        if not self.rep_unit_is_projection:
            checks["rep_unital"] = self.rep_unital
        if require_first_order:
            checks["first_order"] = self.first_order
        return [name for name, defect in checks.items() if defect is not None and not self.tol.accepts(defect)]

    def passes(self, require_first_order: bool = False) -> bool:
        return not self.failures(require_first_order)


def _basis_pair_scans(t: TwistedTriple) -> tuple[np.ndarray, np.ndarray]:
    """Order-zero and first-order defects of every basis pair (E_u, E_v), as N x N grids.

    Q_v = pi_opp(E_v) and Qs_v = pi_opp(sigma^{-1}(E_v)) are factored once as
    thin factors U S Vh, and no d x d product of a pair is formed.  P_u = pi(E_u)
    and inner_u = D P_u - pi(sigma(E_u)) D are built per chunk of u.
    Order zero compares P_u Q_v = (P_u U_v S_v) Vh_v with Q_v P_u = U_v (S_v Vh_v P_u),
    scaled by max(1, ||P_u Q_v||, ||Q_v P_u||).  First order is
    ||inner_u Q_v - Qs_v inner_u|| / max(1, ||inner_u||, ||Q_v||), where
    inner_u Q_v = (inner_u U_v S_v) Vh_v and Qs_v inner_u = Uc_v (Sc_v Vch_v inner_u).
    `_split_sq_norms` takes both norms, so a pair costs O(d^2 r), not O(d^3).

    When the Q_v are monomial, as on every triple the library builds, their
    factors are selectors (`_selector_factors`), not SVDs, and inner_u U_v S_v
    is a gather of columns of inner_u.  When the P_u are monomial too, order
    zero compares the index maps of the two products (`_compose`, `_sq_dist`).
    The dense Qs_v keep their SVDs.
    """
    rep, dirac, d = t.rep, t.dirac, t.dim
    p = rep.basis_images()
    n = len(p)
    sigma, sigma_inv = t.sigma.matrix(), t.sigma.inverse().matrix()
    opp = lambda vs: t.opp_images(p[vs])
    q_maps = _monomial_maps(opp, n, d)
    q = _thin_factors(opp, n, d) if q_maps is None else _selector_factors(q_maps)
    qs = _thin_factors(lambda vs: t.opp_images(rep.images(sigma_inv[vs])), n, d)
    p_maps = None if q_maps is None else rep.monomial_maps()
    oz = np.empty((n, n))
    fo = np.empty((n, n))
    pair_bytes = d * max(q.s.shape[1], qs.s.shape[1], 2) * _COMPLEX_BYTES   # at least the maps of two products
    for us in _slices(n, _chunk(d, 3)):
        inner = np.matmul(dirac, p[us])
        inner -= np.matmul(rep.images(sigma[us]), dirac)
        inner_norms = np.sqrt(sq_norms(inner))
        p_cat, inner_cat = None if p_maps is not None else _side_by_side(p[us]), _side_by_side(inner)
        for vs in _slices(n, _fit((us.stop - us.start) * pair_bytes, 3)):
            if p_maps is not None:
                pq, qp = _compose(p_maps.take(us), q_maps.take(vs)), _compose(q_maps.take(vs), p_maps.take(us))
                qp = _Monomial(qp.rows.swapaxes(0, 1), qp.vals.swapaxes(0, 1))
                scale = np.sqrt(np.maximum(_sq_norm(pq), _sq_norm(qp)))
                oz[us, vs] = relative(np.sqrt(_sq_dist(pq, qp)), scale)
            else:
                y, z = q.right_products(p[us], vs), q.left_products(p_cat, vs)
                scale = np.sqrt(np.maximum(_grid_sq_norms(y), _grid_sq_norms(z)))
                oz[us, vs] = relative(np.sqrt(_split_sq_norms(y, q.u[vs], q.vh[vs], z)), scale).T
            y, z = q.right_products(inner, vs), qs.left_products(inner_cat, vs)
            fo[us, vs] = relative(np.sqrt(_split_sq_norms(y, qs.u[vs], q.vh[vs], z)).T,
                                  inner_norms[:, None], q.norms[vs])
    return oz, fo


def _first_order_grid(inner: np.ndarray, q: np.ndarray, q_twisted: np.ndarray) -> np.ndarray:
    """The first-order pair defects ||inner_i q_k - qt_k inner_i|| / max(1, ||inner_i||, ||q_k||), as an (i, k) grid.

    inner, q and q_twisted are (m, d, d) stacks of delta(a_i), pi_opp(b_k) and
    pi_opp(sigma^-1(b_k)).  This is the one definition of the pair defect:
    `TwistedTriple.first_order_defect` is a 1 x 1 grid, and the leg
    diagnostic of `pert.fluctuate` is a larger one.  Each
    norm is one `np.linalg.norm` call on a (d, d) matrix, and the products of
    one inner_i with every q_k are one batched matmul, so an entry does not
    depend on the other rows or columns of its grid.
    """
    norm = np.linalg.norm
    outer = np.empty((len(inner), len(q)))
    for i, x in enumerate(inner):
        y = np.matmul(x, q)
        y -= np.matmul(q_twisted, x)
        outer[i] = [norm(z) for z in y]
    return relative(outer, np.maximum.outer([norm(x) for x in inner], [norm(z) for z in q]))


def check_axioms(
    t: TwistedTriple,
    samples: int = 20,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """Evaluate every axiom on the matrix-unit basis of A.

    Each axiom is linear, antilinear or bilinear in its algebra arguments, and
    pi is the linear extension of its basis images, so an axiom holds on all of
    A exactly when it holds on the N matrix units (and, for order zero and
    first order, on the N x N grid of basis pairs).  Each reported defect is
    the largest relative defect over that basis, compared against tol; a
    sampled element can read higher, so a defect within a small factor of tol
    may pass here where a sampled check failed it.  The report depends on the
    triple and tol alone: samples and seed are accepted and ignored.

    When the basis images and their pi_opp images have at most one nonzero
    in every row and column, as on every triple the library builds, the
    homomorphism identities and order zero are decided on index maps, and
    the first-order grid factors pi_opp(E_v) by selectors, not SVDs
    (`Representation.homomorphism_defect`, `_basis_pair_scans`).  Any other
    triple takes the SVD and GEMM scans, which are the oracle of these.
    """
    d = t.dirac
    eye = np.eye(t.dim)
    warnings: list[str] = []

    dirac_sa = rel_defect(d, dagger(d))
    regularity = check_regularity(t.sigma, tol=tol).max_defect

    rep_hom = t.rep.homomorphism_defect()
    rep_inv = t.rep.involution_defect()
    rep_unital = t.rep.unital_defect()
    unit_proj = t.rep.unit_is_projection(tol)
    faithful = t.rep.is_faithful(tol)
    if not faithful:
        warnings.append("representation is not faithful")
    if unit_proj and not tol.accepts(rep_unital):
        warnings.append("pi(unit) is a proper projection, not the identity")

    g_herm = g_sq = g_comm = g_anti = None
    if t.grading is not None:
        g = t.grading
        g_herm = rel_defect(g, dagger(g))
        g_sq = rel_defect(g @ g, eye)
        p = t.rep.basis_images()
        g_comm = float(np.concatenate([rel_defects(np.matmul(g, p[us]), np.matmul(p[us], g))
                                       for us in _slices(len(p), _chunk(t.dim, 2))]).max())
        g_anti = rel_defect(g @ d, -d @ g)

    j_iso = ko = None
    signs: tuple = ()
    order_zero = first_order = None
    fo_witness = None
    if t.real is not None:
        j_iso = t.real.j.isometry_defect()
        signs = ko_signs(t.real.j, d, t.grading, tol)
        declared = (t.real.epsilon, t.real.epsilon_prime, t.real.epsilon_double_prime)
        if any(s is not None and det is not None and s != det
               for s, (det, _) in zip(declared, signs)):
            warnings.append("declared KO signs disagree with detected ones")
        ko = ko_dimension(s for s, _ in signs)
        if ko is None and None not in (signs[0][0], signs[1][0]):
            warnings.append("sign triple matches no KO-dimension")

        oz_grid, fo_grid = _basis_pair_scans(t)
        order_zero, first_order = float(oz_grid.max()), float(fo_grid.max())
        # within tolerance every defect is rounding noise, whose largest pair depends on the basis of H
        w = None if tol.accepts(first_order) else _witness_index(fo_grid.ravel())
        if w is not None:
            labels = t.shape.labels()
            u, v = divmod(w, len(labels))
            fo_witness = (labels[u], labels[v])

    (eps, eps_def), (epsp, epsp_def), (epspp, epspp_def) = signs + ((None, None),) * (3 - len(signs))
    return AxiomReport(
        dirac_selfadjoint=dirac_sa,
        regularity=regularity,
        rep_homomorphism=rep_hom,
        rep_involution=rep_inv,
        rep_unital=rep_unital,
        rep_unit_is_projection=unit_proj,
        faithful=faithful,
        grading_hermitian=g_herm,
        grading_squares=g_sq,
        grading_commutes_algebra=g_comm,
        grading_anticommutes_dirac=g_anti,
        j_isometry=j_iso,
        epsilon=eps,
        epsilon_defect=eps_def,
        epsilon_prime=epsp,
        epsilon_prime_defect=epsp_def,
        epsilon_double_prime=epspp,
        epsilon_double_prime_defect=epspp_def,
        ko_dimension=ko,
        order_zero=order_zero,
        first_order=first_order,
        first_order_witness=fo_witness,
        warnings=tuple(warnings),
        tol=tol,
    )
