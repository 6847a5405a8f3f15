"""Export of twisted triples through finite projective modules.

The right module is e A^n (columns), the left module A^n e (rows), and the
real construction lives on e M_n(H) e.  Everything is realized inside concrete
matrix spaces as ranges of explicit projections, so every claimed identity is
testable as a matrix equation.

Module laws used throughout: for a one-form w, a.w = sigma(a) w and w.a = w a;
for an opposite one-form, a.w = w a^opp and w.a = sigma_opp(a^opp) w.

The checks draw no random numbers: each identity is linear, antilinear,
bilinear or sesquilinear, so it is decided on the bases of `IdempotentData` and
the matrix units of A, each one stack over a leading axis (algebra matrices,
their twists, the grids and the connection operators all accept one).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, Automorphism, _element, check_regularity
from .linalg import DEFAULT_TOL, AntilinearOp, Tolerance, dagger, rel_defect, rel_defects, relative, sq_norms
from .pert import OppPerturbation, _opp_bracket_sum
from .triple import TwistedTriple, _basis_pair_scans, _grid_sq_norms, ko_dimension, ko_signs


# ---------------------------------------------------------------------------
# matrices over the algebra and module vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class AlgebraMatrix:
    """n x n matrix over A (houses idempotents and B = eM_n(A)e), held as one element of M_n(A).

    M_n(A) = + M_{n n_k}(C) is itself a multi-matrix algebra: entry (i, j) of block k
    is the n_k x n_k tile at rows i n_k.. and columns j n_k.. of the element's block k.
    The constructor validates the entries; results of arithmetic are trusted,
    and may be stacks of matrices over leading axes of the element.
    """

    shape: AlgebraShape
    n: int
    element: AlgebraElement

    def __init__(self, shape: AlgebraShape, entries) -> None:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("algebra matrix must be square")
        if any(x.shape != shape for row in entries for x in row):
            raise ValueError("entry with mismatched algebra shape")
        blocks = tuple(np.array([[x.blocks[k] for x in row] for row in entries], dtype=complex)
                       .transpose(0, 2, 1, 3).reshape(n * nk, n * nk) for k, nk in enumerate(shape.block_dims))
        self.__dict__.update(shape=shape, n=n, element=AlgebraElement(_amplified(shape, n), blocks))

    def __getitem__(self, key) -> AlgebraMatrix:
        """The matrices x[key] of a stack, key indexing its leading axes."""
        return _packed(self.shape, self.n, _element(self.element.shape, tuple(b[key] for b in self.element.blocks)))

    def entry(self, i: int, j: int) -> AlgebraElement:
        """Entry (i, j), of every matrix of a stack, as an AlgebraElement whose blocks are views of the tiles."""
        return _element(self.shape, tuple(b[..., i * nk:(i + 1) * nk, j * nk:(j + 1) * nk]
                                          for b, nk in zip(self.element.blocks, self.shape.block_dims)))

    @cached_property
    def entries(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        return tuple(tuple(self.entry(i, j) for j in range(self.n)) for i in range(self.n))

    def __add__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        return _packed(self.shape, self.n, self.element + self._compat(other))

    def __sub__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        return _packed(self.shape, self.n, self.element - self._compat(other))

    def __mul__(self, other: AlgebraMatrix) -> AlgebraMatrix:
        return _packed(self.shape, self.n, self.element * self._compat(other))

    def _compat(self, other: AlgebraMatrix) -> AlgebraElement:
        if self.shape != other.shape or self.n != other.n:
            raise ValueError("algebra matrix mismatch")
        return other.element

    def star(self) -> AlgebraMatrix:
        """Transpose composed with the entrywise involution."""
        return _packed(self.shape, self.n, self.element.star())

    def map(self, sigma: Automorphism) -> AlgebraMatrix:
        """Entrywise sigma, which is id (x) sigma on M_n(A): `sigma.amplified(n)`."""
        return _packed(self.shape, self.n, sigma.amplified(self.n)(self.element))

    def norm(self) -> float:
        return self.element.norm()

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.element.blocks)

    def defect(self, other: AlgebraMatrix) -> float:
        return self.element.defect(self._compat(other))

    def defects(self, other: AlgebraMatrix) -> np.ndarray:
        """The defect of each pair of matrices of two stacks, over their leading axes."""
        rows = lambda x: x.coefficients()[..., None, :]     # coefficient rows as 1 x N matrices
        return rel_defects(rows(self.element), rows(self._compat(other)))


def _amplified(shape: AlgebraShape, n: int) -> AlgebraShape:
    return AlgebraShape(tuple(n * nk for nk in shape.block_dims))


def _packed(shape: AlgebraShape, n: int, element: AlgebraElement) -> AlgebraMatrix:
    """The n x n matrix held as `element` of M_n(A), trusted: no re-packing, no checks."""
    out = object.__new__(AlgebraMatrix)
    out.__dict__.update(shape=shape, n=n, element=element)
    return out


def amat_unit(shape: AlgebraShape, n: int) -> AlgebraMatrix:
    return _packed(shape, n, _amplified(shape, n).unit())


def amat_scalar(a: AlgebraElement, n: int) -> AlgebraMatrix:
    """a 1_n, the diagonal matrix with every diagonal entry a: xi a is the product xi * amat_scalar(a, n)."""
    eye = np.eye(n)
    return _packed(a.shape, n, _element(_amplified(a.shape, n), tuple(np.kron(eye, b) for b in a.blocks)))


# A vector xi of the right module e A^n is held as column 0 of a packed n x n
# matrix, every other column 0; a row vector of the left module A^n e is held
# as row 0.  The module operations are then products of packed matrices:
# (m xi)_i = sum_k m_i^k xi_k is m * xi, (zeta m)^i = sum_k zeta^k m_k^i is
# zeta * m, xi a is xi * amat_scalar(a, n), and the entrywise twist is xi.map(sigma).
ModuleVector = AlgebraMatrix


def _rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[index] over the leading axis, 0 where index is -1: the gathers of the basis checks."""
    return np.concatenate([a, np.zeros_like(a[:1])])[index]


def _take(x: AlgebraMatrix, index: np.ndarray) -> AlgebraMatrix:
    """The matrices x[index] of a stack, the zero matrix where index is -1."""
    return _packed(x.shape, x.n, _element(x.element.shape, tuple(_rows(b, index) for b in x.element.blocks)))


def _worst(defects: np.ndarray) -> float:
    return float(defects.max(initial=0.0))     # 0 over an empty basis


CHUNK_BYTES = 1 << 24


def _worst_over(defects, count: int, row_bytes: int) -> float:
    """Max of defects(s) over slices s of range(count): a grid of row_bytes per index, in chunks of CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // max(row_bytes, 1))
    return max((_worst(defects(slice(i, i + step))) for i in range(0, count, step)), default=0.0)


def _pair_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[u] @ b[v] for every pair (u, v) of a (U, m, k) and a (V, k, r) stack: one GEMM, a contiguous (U, m, V, r) array."""
    (nu, m, k), (nv, _, r) = a.shape, b.shape
    return (a.reshape(nu * m, k) @ b.transpose(1, 0, 2).reshape(k, nv * r)).reshape(nu, m, nv, r)


def _pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_pair_grid` as a (U, V, m, r) grid of matrices, a view."""
    return _pair_grid(a, b).swapaxes(1, 2)


def _commutator_norms(a: np.ndarray, b: np.ndarray, c: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||a[u] b[v] - c[v] e[u]|| and max(||a[u] b[v]||, ||c[v] e[u]||) over the pairs (u, v), as (U, V) grids.

    Each side is one `_pair_grid`; the norms are taken on the grids as they lie, and
    the second side is subtracted from the first in place, so no third grid forms.
    """
    x, y = _pair_grid(a, b), _pair_grid(c, e)
    scale = np.sqrt(np.maximum(_grid_sq_norms(x), _grid_sq_norms(y).T))
    x -= y.transpose(2, 1, 0, 3)
    return np.sqrt(_grid_sq_norms(x)), scale


def _columns(m: AlgebraMatrix) -> ModuleVector:
    """The n columns of m as module vectors, stacked over a new leading axis: column j at index j, m E_j0."""
    selectors = np.eye(m.n)[:, :, None] * np.eye(m.n)[0]     # E_j0 at index j, an exact 0/1 factor
    return m * _packed(m.shape, m.n, _element(m.element.shape, tuple(np.kron(selectors, np.eye(nk))
                                                                     for nk in m.shape.block_dims)))


# ---------------------------------------------------------------------------
# idempotent checks and lifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentData:
    """An n x n matrix e over A, and for a projection (e* = e = e^2) bases of B = e M_n(A) e and of e A^n.

    With W_k an isometry onto the range of block k of e (one `eigh`), the units
    W_k E_ij W_k* span B = + M_{r_k}(C) and the vectors W_k[:, i] e_c^T (c < n_k)
    span e A^n; their adjoints span A^n e.  Each basis is one stack, block by
    block and row-major.  The tables index products of basis elements, -1 for 0.
    """

    matrix: AlgebraMatrix

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def isometries(self) -> tuple[np.ndarray, ...]:
        return tuple(v[:, w > 0.5] for w, v in map(np.linalg.eigh, self.matrix.element.blocks))

    def _basis(self, rows) -> AlgebraMatrix:
        """The matrices W_k[:, i] rows[k][j] in block k of M_n(A), over k, i and j in that order, as one stack."""
        parts = [(w.T[:, None, :, None] * y[None, :, None, :]).reshape(-1, len(w), len(w))
                 for w, y in zip(self.isometries, rows)]
        blocks = [np.zeros((sum(map(len, parts)),) + p.shape[1:], dtype=complex) for p in parts]
        for b, p, start in zip(blocks, parts, np.cumsum([0] + [len(p) for p in parts])):
            b[start:start + len(p)] = p     # block k holds its own elements, the others' are 0 in it
        return _packed(self.matrix.shape, self.n, _element(self.matrix.element.shape, tuple(blocks)))

    @cached_property
    def units(self) -> AlgebraMatrix:
        return self._basis([w.conj().T for w in self.isometries])

    @cached_property
    def columns(self) -> ModuleVector:
        return self._basis([np.eye(nk, len(w)) for w, nk in zip(self.isometries, self.matrix.shape.block_dims)])

    def _labels(self, widths) -> np.ndarray:
        """Rows k, i, j and index of the basis elements (k, i, j), j < widths[k], in stack order, as columns."""
        labels = [(k, i, j) for k, w in enumerate(self.isometries) for i in range(w.shape[1]) for j in range(widths[k])]
        return np.vstack([np.array(labels, dtype=int).reshape(-1, 3).T, np.arange(len(labels))])[..., None]

    @cached_property
    def unit_products(self) -> np.ndarray:
        """[u, v]: the unit E_il = E_ij E_jl for units u = E_ij and v = E_jl of one block."""
        k, i, j, u = self._labels([w.shape[1] for w in self.isometries])
        return np.where((k == k.T) & (j == i.T), u - j + j.T, -1)

    @cached_property
    def column_actions(self) -> np.ndarray:
        """[p, u]: the vector x_p E_u, for a unit E_u = E^k_cb of A in the block k of x_p at its column c."""
        k, _, c, p = self._labels(self.matrix.shape.block_dims)
        ka, a, b = np.array(self.matrix.shape.labels()).T
        return np.where((k == ka) & (c == a), p - c + b, -1)

    @cached_property
    def pairings(self) -> np.ndarray:
        """[p, q]: the unit E^k_cd of A that x_p* x_q is, for x_p and x_q of one block k and one i."""
        k, i, c, _ = self._labels(self.matrix.shape.block_dims)
        first = np.array(self.matrix.shape._offsets())[k] + c * np.array(self.matrix.shape.block_dims)[k]
        return np.where((k == k.T) & (i == i.T), first + c.T, -1)


@dataclass(frozen=True)
class IdempotentReport:
    idempotent_defect: float
    selfadjoint_defect: float
    lift_defect: float            # || e sigma(e) e - e ||
    lift_inverse_defect: float    # || e sigma^{-1}(e) e - e ||
    twist_invariance_defect: float
    twist_commutation_defect: float
    tol: Tolerance = DEFAULT_TOL

    @property
    def twist_invariant(self) -> bool:
        return self.tol.accepts(self.twist_invariance_defect)

    @property
    def twist_commuting(self) -> bool:
        return self.tol.accepts(self.twist_commutation_defect)

    @property
    def lift_invertible(self) -> bool:
        return self.tol.accepts(self.lift_defect, self.lift_inverse_defect)

    @property
    def passes(self) -> bool:
        return (self.tol.accepts(self.idempotent_defect, self.selfadjoint_defect)
                and self.lift_invertible and (self.twist_invariant or self.twist_commuting))


def check_idempotent(t: TwistedTriple, e: IdempotentData, tol: Tolerance = DEFAULT_TOL) -> IdempotentReport:
    m = e.matrix
    sig = m.map(t.sigma)
    sig_inv = m.map(t.sigma.inverse())
    d = np.kron(np.eye(m.n), t.dirac)
    delta = _blocks(d @ _pi_grid(t, m) - _pi_grid(t, sig) @ d, m.n)     # delta(m_i^j) as blocks
    return IdempotentReport(
        idempotent_defect=(m * m).defect(m),
        selfadjoint_defect=m.star().defect(m),
        lift_defect=(m * sig * m).defect(m),
        lift_inverse_defect=(m * sig_inv * m).defect(m),
        twist_invariance_defect=sig.defect(m),
        twist_commutation_defect=relative(float(np.linalg.norm(delta, axis=(2, 3)).max()), m.norm()),
        tol=tol,
    )


@dataclass(frozen=True)
class ModuleLift:
    """Lift of the twist to e A^n and to B = e M_n(A) e; builders assume one from `lift_maps`, which checks e.

    The laws of sigma' that the export checks read are computed once per lift, on the units of B.
    """

    triple: TwistedTriple
    idempotent: IdempotentData
    report: IdempotentReport

    def sigma_lift(self, xi: ModuleVector) -> ModuleVector:
        return self.idempotent.matrix * xi.map(self.triple.sigma)

    def sigma_lift_inv(self, xi: ModuleVector) -> ModuleVector:
        return self.idempotent.matrix * xi.map(self.triple.sigma.inverse())

    def sigma_prime(self, b: AlgebraMatrix) -> AlgebraMatrix:
        e = self.idempotent.matrix
        return e * b.map(self.triple.sigma) * e

    def sigma_prime_inv(self, b: AlgebraMatrix) -> AlgebraMatrix:
        e = self.idempotent.matrix
        return e * b.map(self.triple.sigma.inverse()) * e

    @cached_property
    def _sigma_prime_units(self) -> AlgebraMatrix:
        return self.sigma_prime(self.idempotent.units)

    @cached_property
    def sigma_prime_multiplicative(self) -> float:
        """Max defect of sigma'(b c) = sigma'(b) sigma'(c) over the pairs of units of B; b c is a unit or 0."""
        sp, table = self._sigma_prime_units, self.idempotent.unit_products
        return _worst_over(lambda s: _take(sp, table[s]).defects(sp[s, None] * sp), len(table), sp.nbytes)

    @cached_property
    def sigma_prime_regularity(self) -> float:
        """Max defect of sigma'(b*) = (sigma'^-1(b))* over the units of B."""
        units = self.idempotent.units
        return _worst(self.sigma_prime(units.star()).defects(self.sigma_prime_inv(units).star()))


NOT_A_PROJECTION = "not a selfadjoint idempotent: e*e = e = e^dagger fails"


def lift_maps(t: TwistedTriple, e: IdempotentData, tol: Tolerance = DEFAULT_TOL, samples: int = 5) -> ModuleLift:
    """The lift of the twist through the projection e, once e and the lift laws pass; `samples` is ignored.

    The laws, which the preconditions guarantee, are decided on the bases of e A^n, A and B; the first
    failing law, in the order listed, raises.
    """
    report = check_idempotent(t, e, tol)
    if not tol.accepts(report.idempotent_defect, report.selfadjoint_defect):
        raise ValueError(NOT_A_PROJECTION)
    if not report.lift_invertible:
        raise ValueError("lift of the twist is not invertible: e sigma(e) e = e fails")
    if not (report.twist_invariant or report.twist_commuting):
        raise ValueError("idempotent is neither twist-invariant (sigma(e)=e) nor twist-commuting (delta(e)=0)")
    lift = ModuleLift(t, e, report)
    # x_p E_u is x_q at the pairs (p, u) of the table, else 0, as is sigma_lift(x_p) sigma(E_u) = e sigma(x_p E_u)
    (p, u), sl_x, sig = np.nonzero(e.column_actions >= 0), lift.sigma_lift(e.columns), t.sigma(t.shape.units())
    q = e.column_actions[p, u]
    scaled = lambda s: sl_x[p[s]] * amat_scalar(_element(t.shape, tuple(b[u[s]] for b in sig.blocks)), e.n)
    laws = [
        (_worst_over(lambda s: sl_x[q[s]].defects(scaled(s)), len(q), e.matrix.nbytes),
         "lift does not intertwine the module action with the twist"),
        (lift.sigma_lift_inv(sl_x).defects(e.columns), "lift roundtrip is not the identity on the module"),
        (lift.sigma_prime_multiplicative, "lifted twist is not multiplicative on the endomorphism algebra"),
        (lift.sigma_prime_inv(lift._sigma_prime_units).defects(e.units),
         "lifted twist roundtrip fails on the endomorphism algebra"),
    ]
    if check_regularity(t.sigma, tol=tol).passes:
        laws.append((lift.sigma_prime_regularity, "lifted twist loses the regularity property"))
    for defects, message in laws:
        if not tol.accepts(defects):
            raise ValueError(message)
    return lift


# ---------------------------------------------------------------------------
# block operators on H^n and M_n(H)
# ---------------------------------------------------------------------------


# The block operators below act on one operator or on a stack of them over
# leading axes; lead is the shape of those axes.


def _grid(blocks) -> np.ndarray:
    """Operator on H^n, flattened as (r, H), whose (r, c) block is blocks[..., r, c, :, :]."""
    b = np.asarray(blocks, dtype=complex)
    lead, n, d = b.shape[:-4], b.shape[-4], b.shape[-1]
    return b.swapaxes(-3, -2).reshape(lead + (n * d, n * d))


def _blocks(g: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _grid: the (..., n, n, d, d) blocks of an operator on H^n."""
    d = g.shape[-1] // n
    return g.reshape(g.shape[:-2] + (n, d, n, d)).swapaxes(-3, -2)


def _coefficients(m: AlgebraMatrix) -> np.ndarray:
    """The block coefficients of the entries in row-major order, one row per entry, as a (..., n*n, N) stack."""
    n, lead = m.n, m.element.blocks[0].shape[:-2]
    return np.concatenate([b.reshape(lead + (n, nk, n, nk)).swapaxes(-3, -2).reshape(lead + (n * n, nk * nk))
                           for nk, b in zip(m.shape.block_dims, m.element.blocks)], axis=-1)


def _column0(m: AlgebraMatrix) -> np.ndarray:
    """The block coefficients of the entries of column 0, as an (..., n, N) stack: a right module vector's entries."""
    return _coefficients(m)[..., ::m.n, :]


def _row0(m: AlgebraMatrix) -> np.ndarray:
    """The block coefficients of the entries of row 0, as an (..., n, N) stack: a left module vector's entries."""
    return _coefficients(m)[..., :m.n, :]


def _images(t: TwistedTriple, m: AlgebraMatrix) -> np.ndarray:
    """pi of the entries in row-major order, as a (..., n, n, d, d) stack: one product of their block coefficients."""
    x = t.rep.images(_coefficients(m))
    return x.reshape(x.shape[:-3] + (m.n, m.n, t.dim, t.dim))


def _pi_grid(t: TwistedTriple, m: AlgebraMatrix) -> np.ndarray:
    """Left multiplication on columns: (m xi)_r = sum_c pi(m_r^c) xi_c."""
    return _grid(_images(t, m))


def _opp_grid(t: TwistedTriple, m: AlgebraMatrix) -> np.ndarray:
    """Right multiplication on row vectors: (Phi m)^j = sum_l pi_opp(m_l^j) psi^l."""
    return _grid(t.opp_images(_images(t, m)).swapaxes(-4, -3))


def _on_rows(g: np.ndarray, n: int) -> np.ndarray:
    """Lift of an operator on H^n to M_n(H), flattened as (i, j, H), acting on the row index i."""
    lead, d = g.shape[:-2], g.shape[-1] // n
    x = np.einsum("...ahbc,jk->...ajhbkc", g.reshape(lead + (n, d, n, d)), np.eye(n))
    return x.reshape(lead + (n * n * d, n * n * d))


def _on_cols(g: np.ndarray, n: int) -> np.ndarray:
    """Lift of an operator on H^n to M_n(H) acting on the column index j."""
    return np.kron(np.eye(n), g)


def _dirac_grid(t: TwistedTriple, ops) -> np.ndarray:
    """D on every copy of H plus the one-form blocks ops[r][c]."""
    return np.kron(np.eye(len(ops)), t.dirac) + _grid(ops)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Connection:
    """Grassmann connection plus a matrix of represented one-form operators.

    side "right": entries m_i^j are twisted one-forms on e A^n; side "left":
    entries are opposite one-forms on A^n e.  The entries are one read-only
    (n, n, d, d) stack, entry (i, j) at one_forms[i, j].  Hermiticity is a
    checked property (see check_hermitian), demanded by the triple builders,
    which check it once per triple and tolerance.
    """

    side: str
    idempotent: IdempotentData
    one_forms: np.ndarray

    def __post_init__(self) -> None:
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        n = self.idempotent.n
        try:
            stack = np.array(self.one_forms, dtype=complex)
        except ValueError as exc:   # ragged rows or entries of unequal shape
            raise ValueError(f"one-form matrix must be n x n square operators: {exc}") from exc
        if stack.ndim != 4 or stack.shape[:2] != (n, n) or stack.shape[2] != stack.shape[3]:
            raise ValueError(f"one-form matrix must be an ({n}, {n}, d, d) stack, got shape {stack.shape}")
        stack.flags.writeable = False
        object.__setattr__(self, "one_forms", stack)

    @property
    def n(self) -> int:
        return self.idempotent.n

    def is_grassmann(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return tol.accepts(np.linalg.norm(self.one_forms, axis=(2, 3)))


def grassmann(t: TwistedTriple, e: IdempotentData, side: str = "right") -> Connection:
    return Connection(side, e, np.zeros((e.n, e.n, t.dim, t.dim), dtype=complex))


def connection_with(t: TwistedTriple, e: IdempotentData, one_forms, side: str = "right") -> Connection:
    return Connection(side, e, one_forms)


def _nabla_ops(t: TwistedTriple, conn: Connection, x: ModuleVector) -> np.ndarray:
    """The one-form operators of nabla(x), one per e-column (right) or e-row (left), as a (..., n, d, d) stack.

    Right: the op of e-column j is delta(xi_j) + sum_k m_j^k pi(xi_k).  Left: the
    op of e-row j is delta_opp(zeta_j) + sum_k m_k^j pi_opp(zeta_k).  The entries
    and their twists are one `rep.images` product, the sums over k one GEMM with the grid of m.
    """
    if conn.side == "right":
        entries, m = _column0, conn.one_forms
        images = t.rep.images(np.concatenate([entries(x), entries(x.map(t.sigma))], axis=-2))
    else:
        entries, m = _row0, conn.one_forms.swapaxes(0, 1)
        images = t.opp_images(t.rep.images(np.concatenate([entries(x), entries(x.map(t.sigma.inverse()))], axis=-2)))
    p, ps = np.split(images, 2, axis=-3)
    return t.dirac @ p - ps @ t.dirac + (_grid(m) @ p.reshape(p.shape[:-3] + (conn.n * t.dim, t.dim))).reshape(p.shape)


@dataclass(frozen=True)
class HermiticityReport:
    identity_defect: float
    selfadjoint_defect: float     # one-form matrix vs its Omega-involution transpose
    sandwich_defect: float        # e . M . e = M under the twisted module law
    tol: Tolerance = DEFAULT_TOL

    @property
    def passes(self) -> bool:
        return self.tol.accepts(self.identity_defect, self.selfadjoint_defect, self.sandwich_defect)


def _sandwich_right(t: TwistedTriple, e: AlgebraMatrix, m) -> np.ndarray:
    """e . M . e with a.w = sigma(a) w on the left and w.a = w a on the right, as (n, n, d, d) blocks."""
    return _blocks(_pi_grid(t, e.map(t.sigma)) @ _grid(m) @ _pi_grid(t, e), e.n)


def _sandwich_left(t: TwistedTriple, e: AlgebraMatrix, m) -> np.ndarray:
    """e . N . e for opposite one-forms: a.w = w pi_opp(a), w.a = pi_opp(sigma^{-1}(a)) w.

    On the transposed layout of H^n e (block (l, j) holds N_j^l) both legs act by
    right multiplication, so the sandwich is a product of three grids.
    """
    g = _opp_grid(t, e.map(t.sigma.inverse())) @ _grid(np.swapaxes(m, 0, 1)) @ _opp_grid(t, e)
    return _blocks(g, e.n).swapaxes(0, 1)


def check_hermitian(t: TwistedTriple, conn: Connection, samples: int = 10, seed: int = 0,
                    tol: Tolerance = DEFAULT_TOL) -> HermiticityReport:
    """Hermiticity identity plus the structure of the one-form matrix; `samples` and `seed` are ignored.

    The identity is sesquilinear, so it is decided on all pairs of the basis of
    e A^n (of A^n e on the left side), which exists for a projection e alone:
    its left side is one GEMM, its right side a gather.
    """
    e, m = conn.idempotent.matrix, conn.one_forms
    if not tol.accepts((e * e).defect(e), e.star().defect(e)):
        raise ValueError(NOT_A_PROJECTION)

    sa = float(rel_defects(dagger(m), m.swapaxes(0, 1)).max())
    sandwich = _sandwich_right(t, e, m) if conn.side == "right" else _sandwich_left(t, e, m)
    sw = float(rel_defects(sandwich, m).max())

    sinv, units, x = t.sigma.inverse(), t.shape.units(), conn.idempotent.columns
    if conn.side == "right":
        # (xi', nabla xi) - (nabla(Sigma^{-1} xi'), xi) = delta((xi', xi)) over the pairs (xi', xi); (xi', e_j)
        # is entry (0, j) of xi'* e and (e_j, xi) entry (j, 0) of e* xi, for e_j the e-column j
        outer = [t.rep.images(_row0((x.star() * e).map(t.sigma))), -dagger(_nabla_ops(t, conn, e * x.map(sinv)))]
        inner = [_nabla_ops(t, conn, x), t.rep.images(_column0(e.star() * x))]
        rhs, table = t.twisted_commutator(units), conn.idempotent.pairings
    else:
        # -{zeta', nabla(Sigma_opp zeta)} + {nabla zeta', zeta} = delta_opp({zeta', zeta}) over the pairs
        # (zeta, zeta') of rows zeta = x*; {zeta', e_j} is entry (0, j) of zeta' e* and {e_j, zeta} entry
        # (j, 0) of e zeta*, for e_j the e-row j
        zeta = x.star()
        pi_opp = lambda c: t.opp_images(t.rep.images(c))
        outer = [pi_opp(_column0((e * x).map(sinv))), -dagger(_nabla_ops(t, conn, zeta.map(t.sigma) * e))]
        inner = [_nabla_ops(t, conn, zeta), pi_opp(_row0(zeta * e.star()))]
        rhs, table = t.twisted_commutator_opp(units), conn.idempotent.pairings.T
    # the sums over j of outer[p, j] @ inner[q, j] of the pairs (p, q), one GEMM per chunk of p
    a, b = np.concatenate(outer, axis=1), np.concatenate(inner, axis=1)
    (p, m, d, _), q = a.shape, len(b)
    a, b = a.transpose(0, 2, 1, 3).reshape(p, d, m * d), b.reshape(q, m * d, d)
    identity = _worst_over(lambda s: rel_defects(_pair_products(a[s], b), _rows(rhs, table[s])), p, b.nbytes)
    return HermiticityReport(identity, sa, sw, tol)


def conjugate_connection(t: TwistedTriple, conn: Connection, tol: Tolerance = DEFAULT_TOL) -> Connection:
    """Conjugate of a right connection on the conjugate module: entries eps' J m_k^r J^{-1} transposed."""
    if conn.side != "right":
        raise ValueError("conjugation starts from a right connection")
    real = t.require_real()
    if not tol.accepts(_triple_first_order_defect(t)):
        raise ValueError("conjugation requires first order")
    ep = t.epsilon_prime(tol)
    return Connection("left", conn.idempotent, (ep * real.j.conjugate(conn.one_forms)).swapaxes(0, 1))


def _triple_first_order_defect(t: TwistedTriple) -> float:
    """Max first-order defect over all basis pairs, from the batched scan of `check_axioms`; cached on t."""
    cached = getattr(t, "_first_order_defect", None)
    if cached is None:
        cached = float(_basis_pair_scans(t)[1].max())
        object.__setattr__(t, "_first_order_defect", cached)
    return cached


# ---------------------------------------------------------------------------
# right and left Morita triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RightTriple:
    """(B, H_R, D_R), sigma' with H_R = e H^n realized as the range of a projection."""

    triple: TwistedTriple
    lift: ModuleLift
    connection: Connection
    projection: np.ndarray
    d_r: np.ndarray


@dataclass(frozen=True)
class LeftTriple:
    """(B, H_L, D_L), sigma'^{-1} with H_L = H^n e (rows) in the same ambient space."""

    triple: TwistedTriple
    lift: ModuleLift
    connection: Connection
    projection: np.ndarray
    d_l: np.ndarray


def _require_hermitian(t: TwistedTriple, conn: Connection, tol: Tolerance) -> None:
    """Raise unless `check_hermitian(t, conn, tol=tol)` passes; its report is cached on conn for t and tol.

    The one-form stack is read-only, so the report of a connection changes
    only with the triple (compared by identity) and the tolerance.
    """
    cached = conn.__dict__.get("_hermiticity")
    if cached is None or cached[0] is not t or cached[1] != tol:
        cached = (t, tol, check_hermitian(t, conn, tol=tol))
        object.__setattr__(conn, "_hermiticity", cached)
    report = cached[2]
    if not report.passes:
        raise ValueError(
            "connection is not hermitian "
            f"(identity {report.identity_defect:.2e}, selfadjoint {report.selfadjoint_defect:.2e}, "
            f"sandwich {report.sandwich_defect:.2e})"
        )


def build_right_triple(lift: ModuleLift, conn: Connection, tol: Tolerance = DEFAULT_TOL) -> RightTriple:
    """Right export through e A^n, unverified: `check_morita_triple` checks it."""
    t, e = lift.triple, lift.idempotent
    if conn.side != "right":
        raise ValueError("right triple needs a right connection")
    _require_hermitian(t, conn, tol)
    em = e.matrix
    proj = _pi_grid(t, em)
    d_r = _pi_grid(t, em * em.map(t.sigma)) @ _dirac_grid(t, conn.one_forms) @ proj
    return RightTriple(t, lift, conn, proj, d_r)


def build_left_triple(lift: ModuleLift, conn: Connection, tol: Tolerance = DEFAULT_TOL) -> LeftTriple:
    """Left export through A^n e, unverified: `check_morita_triple` checks it."""
    t, e = lift.triple, lift.idempotent
    if conn.side != "left":
        raise ValueError("left triple needs a left connection")
    _require_hermitian(t, conn, tol)
    em = e.matrix
    proj = _opp_grid(t, em)
    # (Phi N)^l = sum_j N_j^l psi^j: block (l, j) carries the (j, l) one-form
    dn = _dirac_grid(t, conn.one_forms.swapaxes(0, 1))
    d_l = _opp_grid(t, em.map(t.sigma.inverse()) * em) @ dn @ proj
    return LeftTriple(t, lift, conn, proj, d_l)


@dataclass(frozen=True)
class MoritaTripleReport:
    selfadjoint_defect: float
    bracket_identity_defect: float | None   # right side only
    sigma_prime_multiplicative: float
    sigma_prime_regularity: float
    rep_homomorphism: float
    rep_involution: float
    tol: Tolerance = DEFAULT_TOL

    @property
    def passes(self) -> bool:
        bracket = () if self.bracket_identity_defect is None else (self.bracket_identity_defect,)
        return self.tol.accepts(self.selfadjoint_defect, self.sigma_prime_multiplicative,
                                self.sigma_prime_regularity, self.rep_homomorphism, self.rep_involution, *bracket)


def _right_factor(proj: np.ndarray) -> np.ndarray:
    """F = U S of the SVD proj = U S V*, zero singular values dropped: ||X proj|| = ||X F|| for every X.

    A right factor proj of both sides of an identity becomes F, which leaves every relative
    defect as it is; F has rank(proj) columns, and is an isometry for an orthogonal projection.
    """
    u, s, _ = np.linalg.svd(proj)
    keep = s > len(s) * np.finfo(float).eps * s.max(initial=0.0)
    return u[:, keep] * s[keep]


def check_morita_triple(rt: RightTriple | LeftTriple, samples: int = 10, seed: int = 0,
                        tol: Tolerance = DEFAULT_TOL) -> MoritaTripleReport:
    """Twisted-triple axiom suite for an exported triple on the units of B; `samples` and `seed` are ignored.

    The laws of sigma' are read from the lift.  The homomorphism law is one GEMM per chunk of the pairs
    of units, with the right factor proj made `_right_factor`, against a gather of their products.
    """
    t, e, proj = rt.triple, rt.lift.idempotent, rt.projection
    right = isinstance(rt, RightTriple)
    dd, grid = (rt.d_r, _pi_grid) if right else (rt.d_l, _opp_grid)

    sa = rel_defect(proj @ dd @ proj, dagger(proj @ dd @ proj))
    # pi_R(b) = rep(b) = g(b) proj; pi_L is an anti-representation: pi_L(b) pi_L(c) = pi_L(c b)
    g = grid(t, e.units)
    rep, gf = g @ proj, g @ _right_factor(proj)
    table = e.unit_products if right else e.unit_products.T
    hom = _worst_over(lambda s: rel_defects(_pair_products(rep[s], gf), _rows(gf, table[s])), len(g), gf.nbytes)
    sandwich = lambda x: proj @ x @ proj
    inv = _worst(rel_defects(dagger(sandwich(rep)), sandwich(grid(t, e.units.star()) @ proj)))
    bracket_id = None
    if right:
        # [D_R, pi_R(b)]_sigma' = e [D_M, pi(b)]_sigma e with D_M the Dirac grid of the one-forms
        dm = _dirac_grid(t, rt.connection.one_forms)
        bracket = dd @ rep - _pi_grid(t, rt.lift._sigma_prime_units) @ proj @ dd
        inner = dm @ g - _pi_grid(t, e.units.map(t.sigma)) @ dm
        bracket_id = _worst(rel_defects(bracket @ proj, _pi_grid(t, e.matrix) @ inner @ proj))
    return MoritaTripleReport(sa, bracket_id, rt.lift.sigma_prime_multiplicative, rt.lift.sigma_prime_regularity,
                              hom, inv, tol)


# ---------------------------------------------------------------------------
# the real construction on e M_n(H) e
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealTriple:
    """(B, H', D'), sigma', J', Gamma' with H' = e M_n(H) e."""

    triple: TwistedTriple
    lift: ModuleLift
    connection: Connection
    projection: np.ndarray
    d_prime: np.ndarray
    d_second: np.ndarray
    j_prime: AntilinearOp
    gamma_prime: np.ndarray

    def pi_prime(self, b: AlgebraMatrix) -> np.ndarray:
        return _on_rows(_pi_grid(self.triple, b), b.n) @ self.projection

    def pi_prime_opp(self, c: AlgebraMatrix) -> np.ndarray:
        return _on_cols(_opp_grid(self.triple, c), c.n) @ self.projection


def build_real_triple(lift: ModuleLift, conn: Connection, tol: Tolerance = DEFAULT_TOL) -> RealTriple:
    """Real, graded export through e A^n, unverified: `check_real_triple` checks it.

    Demands the first-order condition on the input; the self-Morita case
    without first order is handled by the fluctuation machinery in `pert` instead.
    """
    t, e = lift.triple, lift.idempotent
    if t.real is None or t.grading is None:
        raise ValueError("real construction requires a real, graded triple")
    if not tol.accepts(_triple_first_order_defect(t)):
        raise ValueError("real construction requires the twisted first-order condition")
    if conn.side != "right":
        raise ValueError("real construction starts from a right connection")
    _require_hermitian(t, conn, tol)

    em = e.matrix
    n = e.n
    ep = t.epsilon_prime(tol)
    j = t.real.j

    proj = _on_rows(_pi_grid(t, em), n) @ _on_cols(_opp_grid(t, em), n)
    left = _on_rows(_pi_grid(t, em * em.map(t.sigma)), n)                  # e sigma(e) on the rows
    right = _on_cols(_opp_grid(t, em.map(t.sigma.inverse()) * em), n)      # sigma^{-1}(e) e on the columns
    d_full = np.kron(np.eye(n * n), t.dirac)

    # connection entries of nabla(e-columns): w_p^k = delta(e_p^k) + (M e)_p^k is op p of nabla(column k)
    m = conn.one_forms
    w = _nabla_ops(t, conn, _columns(em)).swapaxes(0, 1)

    # the column index carries the conjugate entries: block (j, l) is eps' J x_j^l J^{-1}
    conj = lambda ops: _on_cols(_grid(ep * j.conjugate(ops)), n)
    w_rows = _on_rows(_grid(w), n)
    left_right = left @ right
    d_prime = (right @ left @ (d_full + w_rows) + left_right @ conj(w)) @ proj
    # left-then-right assembly with the conjugate connection entries eps' J m^T J^{-1}
    d_second = left_right @ (d_full + conj(m) + w_rows) @ proj

    # (J' Psi)_i^j = J Psi_j^i
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
    gamma_p = np.kron(np.eye(n * n), t.grading)
    return RealTriple(t, lift, conn, proj, d_prime, d_second, AntilinearOp(np.kron(swap, j.mat)), gamma_p)


@dataclass(frozen=True)
class RealTripleReport:
    selfadjoint_defect: float
    d_second_defect: float
    order_zero: float
    first_order: float
    j_squared_sign: int | None
    j_dirac_sign: int | None
    j_grading_sign: int | None
    ko_dimension: int | None
    tol: Tolerance = DEFAULT_TOL

    @property
    def passes(self) -> bool:
        return (self.tol.accepts(self.selfadjoint_defect, self.d_second_defect, self.order_zero, self.first_order)
                and None not in (self.j_squared_sign, self.j_dirac_sign, self.j_grading_sign))


def check_real_triple(rt: RealTriple, samples: int = 8, seed: int = 0,
                      tol: Tolerance = DEFAULT_TOL) -> RealTripleReport:
    """Axioms of the real export; `samples` and `seed` are ignored.

    Order zero and first order are decided on the pairs of units of B, each side one GEMM per chunk
    of pairs, with the right factor proj made `_right_factor`.
    """
    lift, proj, dp, units = rt.lift, rt.projection, rt.d_prime, rt.lift.idempotent.units

    sa = rel_defect(proj @ dp @ proj, dagger(proj @ dp @ proj))
    dsec = rel_defect(dp, rt.d_second)

    # the signs on the subspace H' = range(proj)
    signs = [sign for sign, _ in ko_signs(rt.j_prime, dp, rt.gamma_prime, tol, restrict=proj)]

    pb, pc, f = rt.pi_prime(units), rt.pi_prime_opp(units), _right_factor(proj)
    pcf = pc @ f
    oz = _worst_over(lambda s: relative(*_commutator_norms(pb[s], pcf, pc, pb[s] @ f)), len(pb), pcf.nbytes)
    x, pc_inv = dp @ pb - rt.pi_prime(lift._sigma_prime_units) @ dp, rt.pi_prime_opp(lift.sigma_prime_inv(units))
    fo = _worst_over(lambda s: relative(_commutator_norms(x[s], pcf, pc_inv, x[s] @ f)[0],
                                        np.sqrt(sq_norms(x[s]))[:, None]), len(x), pcf.nbytes)
    return RealTripleReport(sa, dsec, oz, fo, *signs, ko_dimension(signs), tol)


def opp_one_form_action_corrected(
    t: TwistedTriple, q: OppPerturbation, base_one_form: np.ndarray
) -> np.ndarray:
    """Self-Morita action of an opposite one-form without first order.

    Returns eta_opp(q) plus the correction sum_j pi_opp(a_j)[w, pi_opp(b_j)]_{sigma_opp}
    with w the base (right) fluctuation one-form; this is exactly the non-linear
    term mechanism used by the fluctuation in `pert`.  The bracket is linear
    in its operator, so the sum is the opposite pair-bracket sum of D + w.
    """
    return _opp_bracket_sum(t, q, t.dirac + base_one_form)
