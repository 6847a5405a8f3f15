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

from .algebra import AlgebraElement, AlgebraShape, Automorphism, _from_normals, check_regularity
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


class _Factors(NamedTuple):
    """Thin SVDs X_u = U_u diag(s_u) Vh_u of a stack of N (d, d) matrices, with their norms ||X_u||."""

    u: np.ndarray       # (N, d, r): orthonormal columns, and zero ones where a matrix is padded
    s: np.ndarray       # (N, r): 0 where a singular value is dropped or padded
    vh: np.ndarray      # (N, r, d): orthonormal rows, and zero ones where a matrix is padded
    norms: np.ndarray   # (N,)

    def scaled_u(self, sl: slice) -> np.ndarray:
        """U_v diag(s_v) for v in sl, side by side as one (d, |sl| r) matrix."""
        return _side_by_side(self.u[sl] * self.s[sl, None, :])

    def scaled_vh(self, sl: slice) -> np.ndarray:
        """diag(s_v) Vh_v for v in sl, stacked as one (|sl| r, d) matrix."""
        return (self.s[sl, :, None] * self.vh[sl]).reshape(-1, self.vh.shape[-1])


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


def _tile_products(left: np.ndarray, left_cat: np.ndarray, right: np.ndarray,
                   w: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Y_uv = L_u R_v as a (v, d, u, r) stack and Z_uv = W_v L_u as a (v, rc, u, d) stack.

    left is the (u, d, d) stack L and left_cat the same side by side; right
    holds the nv (d, r) factors R_v side by side and w the (rc, d) factors W_v stacked.
    """
    nu, d, _ = left.shape
    y = (left.reshape(nu * d, d) @ right).reshape(nu, d, nv, right.shape[1] // nv)
    z = (w @ left_cat).reshape(nv, w.shape[0] // nv, nu, d)
    return np.ascontiguousarray(y.transpose(2, 1, 0, 3)), z


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

    def homomorphism_defect(self) -> float:
        """Max defect of pi(E^(k)_ij) pi(E^(l)_pq) = delta_kl delta_jp pi(E^(k)_iq), over all pairs.

        With the thin factors P_u = U_u S_u Vh_u, ||P_u P_v|| is the norm of the
        r x r core S_u (Vh_u U_v) S_v, and the cores of all pairs are one product
        chunked over u.  The pairs with E_u E_v = E_w compare (U_u core) Vh_v
        with U_w (S_w Vh_w) through `_split_sq_norms`.
        """
        p = self.basis_images()
        n, d = len(p), self.dim
        f = _thin_factors(lambda us: p[us], n, d)
        r = f.s.shape[1]
        rows = f.scaled_vh(slice(None))
        cols = f.scaled_u(slice(None))
        defects = np.empty((n, n))
        for us in _slices(n, _fit(n * r * r * _COMPLEX_BYTES, 1)):
            core = (rows[us.start * r:us.stop * r] @ cols).reshape(us.stop - us.start, r, n, r)
            norms = np.sqrt(_grid_sq_norms(core))
            defects[us] = relative(norms, norms)
        uu, vv, ww = self.shape.unit_products()
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
        worst = 0.0
        for us in _slices(len(p), _chunk(self.dim, 3)):
            adjoints = np.conj(p[us]).transpose(0, 2, 1).copy()
            worst = max(worst, float(rel_defects(adjoints, p[star[us]]).max()))
        return worst

    def unital_defect(self) -> float:
        return rel_defect(self(self.shape.unit()), np.eye(self.dim))

    def unit_is_projection(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        p = self(self.shape.unit())
        return rel_defect(p @ p, p) <= tol.abs_eps and rel_defect(dagger(p), p) <= tol.abs_eps

    def is_faithful(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """pi is injective iff the images of the matrix units are linearly independent."""
        scale = max(1.0, float(np.abs(self.stack).max(initial=0.0)))
        return bool(np.linalg.matrix_rank(self.stack, tol=tol.abs_eps * scale) == len(self.stack))


@dataclass(frozen=True)
class RealStructure:
    """Antilinear isometry J with KO signs; None marks a sign not yet detected."""

    j: AntilinearOp
    epsilon: int | None = None
    epsilon_prime: int | None = None
    epsilon_double_prime: int | None = None


def ko_signs(j: AntilinearOp, dirac: np.ndarray, grading: np.ndarray | None,
             tol: Tolerance = DEFAULT_TOL, restrict: np.ndarray | None = None) -> tuple:
    """The KO signs of J, as `detect_sign` results (sign, defect).

    They are those of J^2 = eps, J D J^-1 = eps' D and, when graded,
    J Gamma J^-1 = eps'' Gamma: two results for an ungraded triple, three for
    a graded one.  With restrict a projection P, each relation X = s Y is
    compared on the range of P, as X P = s Y P.
    """
    relations = [(j.squared(), np.eye(len(j.mat))), (j.conjugate(dirac), dirac)]
    if grading is not None:
        relations.append((j.conjugate(grading), grading))
    if restrict is not None:
        relations = [(x @ restrict, y @ restrict) for x, y in relations]
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
        """Names of the mandatory axioms whose defect exceeds the tolerance."""
        eps = self.tol.abs_eps
        out = []
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
        for name, defect in checks.items():
            if defect is not None and defect > eps:
                out.append(name)
        if self.rep_unital > eps and not self.rep_unit_is_projection:
            out.append("rep_unital")
        if require_first_order and self.first_order is not None and self.first_order > eps:
            out.append("first_order")
        return out

    def passes(self, require_first_order: bool = False) -> bool:
        return not self.failures(require_first_order)


def _basis_pair_scans(t: TwistedTriple) -> tuple[np.ndarray, np.ndarray]:
    """Order-zero and first-order defects of every basis pair (E_u, E_v), as N x N grids.

    Q_v = pi_opp(E_v) and Qs_v = pi_opp(sigma^{-1}(E_v)) are factored once as
    thin SVDs U S Vh, and no d x d product of a pair is formed.  P_u = pi(E_u)
    and inner_u = D P_u - pi(sigma(E_u)) D are built per chunk of u.
    Order zero compares P_u Q_v = (P_u U_v S_v) Vh_v with Q_v P_u = U_v (S_v Vh_v P_u),
    scaled by max(1, ||P_u Q_v||, ||Q_v P_u||).  First order is
    ||inner_u Q_v - Qs_v inner_u|| / max(1, ||inner_u||, ||Q_v||), where
    inner_u Q_v = (inner_u U_v S_v) Vh_v and Qs_v inner_u = Uc_v (Sc_v Vch_v inner_u).
    `_split_sq_norms` takes both norms, so a pair costs O(d^2 r), not O(d^3).
    """
    rep, dirac, d = t.rep, t.dirac, t.dim
    p = rep.basis_images()
    n = len(p)
    sigma, sigma_inv = t.sigma.matrix(), t.sigma.inverse().matrix()
    q = _thin_factors(lambda vs: t.opp_images(p[vs]), n, d)
    qs = _thin_factors(lambda vs: t.opp_images(rep.images(sigma_inv[vs])), n, d)
    oz = np.empty((n, n))
    fo = np.empty((n, n))
    pair_bytes = d * max(q.s.shape[1], qs.s.shape[1]) * _COMPLEX_BYTES
    for us in _slices(n, _chunk(d, 3)):
        inner = np.matmul(dirac, p[us])
        inner -= np.matmul(rep.images(sigma[us]), dirac)
        inner_norms = np.sqrt(sq_norms(inner))
        p_cat, inner_cat = _side_by_side(p[us]), _side_by_side(inner)
        for vs in _slices(n, _fit((us.stop - us.start) * pair_bytes, 3)):
            nv, right, vh = vs.stop - vs.start, q.scaled_u(vs), q.vh[vs]
            y, z = _tile_products(p[us], p_cat, right, q.scaled_vh(vs), nv)
            scale = np.sqrt(np.maximum(_grid_sq_norms(y), _grid_sq_norms(z)))
            oz[us, vs] = relative(np.sqrt(_split_sq_norms(y, q.u[vs], vh, z)), scale).T
            y, z = _tile_products(inner, inner_cat, right, qs.scaled_vh(vs), nv)
            fo[us, vs] = relative(np.sqrt(_split_sq_norms(y, qs.u[vs], vh, z)).T, inner_norms[:, None], q.norms[vs])
    return oz, fo


def _first_order_grid(inner: np.ndarray, q: np.ndarray, q_twisted: np.ndarray) -> np.ndarray:
    """The first-order pair defects ||inner_i q_k - qt_k inner_i|| / max(1, ||inner_i||, ||q_k||), as an (i, k) grid.

    inner, q and q_twisted are (m, d, d) stacks of delta(a_i), pi_opp(b_k) and
    pi_opp(sigma^-1(b_k)).  This is the one definition of the pair defect:
    `TwistedTriple.first_order_defect` is a 1 x 1 grid, and the random-pair
    scan and the leg diagnostic of `pert.fluctuate` are larger ones.  Each
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


def _random_pair_scans(t: TwistedTriple, left: AlgebraElement, right: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """Order-zero and first-order defects of every pair (a, b) of the stacks left x right, as grids.

    Order zero is rel_defect of pi(a) pi_opp(b) against pi_opp(b) pi(a), and
    first order is `_first_order_grid`, one call per chunk of right.  Each
    stack of images is one GEMM of coefficients.  sigma and sigma^-1 act on
    the elements, as in `TwistedTriple.first_order_defect`:
    `Automorphism.matrix()` rounds differently and can turn a defect that is
    exactly 0 there into rounding noise, moving the witness.
    """
    rep, dirac, d = t.rep, t.dirac, t.dim
    a = t.pi(left)
    inner = np.matmul(dirac, a)
    inner -= np.matmul(t.pi(t.sigma(left)), dirac)
    right_c, right_twisted_c = right.coefficients(), t.sigma.inverse()(right).coefficients()
    oz = np.empty((len(a), len(right_c)))
    fo = np.empty((len(a), len(right_c)))
    for ks in _slices(len(right_c), _chunk(d, 4)):
        q = t.opp_images(rep.images(right_c[ks]))
        qs = t.opp_images(rep.images(right_twisted_c[ks]))
        for i in range(len(a)):
            oz[i, ks] = rel_defects(np.matmul(a[i], q), np.matmul(q, a[i]))
        fo[:, ks] = _first_order_grid(inner, q, qs)
    return oz, fo


def check_axioms(
    t: TwistedTriple,
    samples: int = 20,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """Evaluate every axiom on all matrix units plus seeded random elements.

    Matrix units span the algebra, so unit-level passes imply algebra-level
    passes by linearity; the random samples guard the linear extension itself.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = t.dirac
    eye = np.eye(t.dim)
    warnings: list[str] = []

    labels = t.shape.labels()
    # one draw of the stream of `samples` successive `random_element` calls
    normals = rng.standard_normal((samples, 2 * t.shape.basis_size))
    randoms = _from_normals(t.shape, normals, 1.0)

    dirac_sa = rel_defect(d, dagger(d))
    regularity = check_regularity(t.sigma, samples=samples, rng=rng, tol=tol).max_defect

    rep_hom = t.rep.homomorphism_defect()
    rep_inv = t.rep.involution_defect()
    rep_unital = t.rep.unital_defect()
    unit_proj = t.rep.unit_is_projection(tol)
    faithful = t.rep.is_faithful(tol)
    if not faithful:
        warnings.append("representation is not faithful")
    if rep_unital > tol.abs_eps and unit_proj:
        warnings.append("pi(unit) is a proper projection, not the identity")

    g_herm = g_sq = g_comm = g_anti = None
    if t.grading is not None:
        g = t.grading
        g_herm = rel_defect(g, dagger(g))
        g_sq = rel_defect(g @ g, eye)
        p = t.rep.basis_images()
        stacks = [p[us] for us in _slices(len(p), _chunk(t.dim, 2))] + [t.pi(randoms)]
        g_comm = max(float(rel_defects(np.matmul(g, x), np.matmul(x, g)).max()) for x in stacks)
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
        # the first 4 * samples pairs of the samples x samples grid, in row-major order
        rows = min(4, samples)
        rand_pairs = [(i, k) for i in range(rows) for k in range(samples)]
        rand_oz, rand_fo = _random_pair_scans(t, _from_normals(t.shape, normals[:rows], 1.0), randoms)
        order_zero = float(max(oz_grid.max(), rand_oz.max()))
        fo_all = np.concatenate([fo_grid.ravel(), rand_fo.ravel()])   # basis pairs in row-major (u, v) order, then random
        first_order = float(fo_all.max())
        # within tolerance every defect is rounding noise, whose largest pair depends on the basis of H
        w = _witness_index(fo_all) if first_order > tol.abs_eps else None
        if w is not None:
            n = len(labels)
            fo_witness = ((labels[w // n], labels[w % n]) if w < n * n
                          else tuple(("rand", x) for x in rand_pairs[w - n * n]))

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
