"""Built-in models.

The main entry is the minimally twisted U(1)xU(2) geometry: the even algebra
C+C+M2(C) is doubled, the two copies act on the grading eigenspaces, and the
twist is the flip.  Fluctuations of its Dirac operator are governed by six
complex parameters whose closed form is verified entry by entry.

Also provides small first-order-satisfying and generic real twisted triples
used as a test corpus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape, Automorphism, identity_automorphism
from .linalg import AntilinearOp, relative
from .pert import Perturbation, _fluctuate_each, fluctuate
from .triple import AxiomReport, RealStructure, Representation, TwistedTriple, check_axioms

# block order of the doubled even algebra: (lR^r, lL^r, m^r, lR^l, lL^l, m^l)
U1U2_SHAPE = AlgebraShape((1, 1, 2, 1, 1, 2))
_BLK_LR_R, _BLK_LL_R, _BLK_M_R, _BLK_LR_L, _BLK_LL_L, _BLK_M_L = range(6)

# a matrix-unit pair whose first-order defect is 0 exactly when ky is.  It attains the maximum,
# min(|ky|, 1), only at small |kx|: at |kx| = 1 the first maximal pair, and so the reported
# witness, is ((_BLK_M_R, 0, 0), (_BLK_LR_L, 0, 0))
FIRST_ORDER_WITNESS = ((_BLK_LR_R, 0, 0), (_BLK_LR_L, 0, 0))


def _eu(n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = 1.0
    return out


def _u1u2_representation() -> Representation:
    d, i2 = 8, np.eye(2)
    images = []
    for k, n in enumerate(U1U2_SHAPE.block_dims):
        arr = np.zeros((n, n, d, d), dtype=complex)
        for i in range(n):
            for j in range(n):
                img = np.zeros((d, d), dtype=complex)
                if k == _BLK_LR_R and i == j == 0:
                    img[:4, :4] = np.kron(_eu(2, 0, 0), i2)
                elif k == _BLK_LL_L and i == j == 0:
                    img[:4, :4] = np.kron(_eu(2, 1, 1), i2)
                elif k == _BLK_M_L:
                    img[4:, 4:] = np.kron(_eu(2, 0, 0), _eu(2, i, j))
                elif k == _BLK_M_R:
                    img[4:, 4:] = np.kron(_eu(2, 1, 1), _eu(2, i, j))
                # lL^r and lR^l act as zero: the doubled presentation is not faithful
                arr[i, j] = img
        images.append(arr)
    return Representation(U1U2_SHAPE, d, tuple(images))


def u1u2_flip() -> Automorphism:
    conj = tuple(np.eye(n, dtype=complex) for n in U1U2_SHAPE.block_dims)
    return Automorphism(U1U2_SHAPE, (3, 4, 5, 0, 1, 2), conj)


@dataclass(frozen=True)
class U1U2Model:
    kx: complex
    ky: complex
    triple: TwistedTriple
    axioms: AxiomReport


def build_u1u2(kx: complex, ky: complex, samples: int = 10, seed: int = 0) -> U1U2Model:
    """The U(1)xU(2) triple at (kx, ky) with its axiom report; samples and seed are accepted and ignored."""
    kx, ky = complex(kx), complex(ky)
    i2, z4 = np.eye(2), np.zeros((4, 4))
    x = np.kron(np.array([[0, kx], [np.conj(kx), 0]]), i2)
    low = ky * np.kron(_eu(2, 0, 0), _eu(2, 0, 0))
    up = np.conj(ky) * np.kron(_eu(2, 0, 0), _eu(2, 0, 0))
    dirac = np.block([[x, up], [low, np.conj(x)]])
    grading = np.diag([1, 1, -1, -1, -1, -1, 1, 1]).astype(complex)
    jmat = np.block([[z4, np.eye(4)], [np.eye(4), z4]])
    real = RealStructure(AntilinearOp(jmat), epsilon=1, epsilon_prime=1, epsilon_double_prime=-1)
    triple = TwistedTriple(U1U2_SHAPE, _u1u2_representation(), dirac, u1u2_flip(),
                           grading=grading, real=real)
    return U1U2Model(kx, ky, triple, check_axioms(triple))


@dataclass(frozen=True)
class FlucParams:
    """The six complex fluctuation parameters (three once the one-form is selfadjoint).

    Of a stack of perturbations, each field holds one entry per perturbation on a leading axis.
    """

    phi: complex
    phi_prime: complex
    sigma_lower: np.ndarray   # shape (2,), indexed by I'
    sigma_upper: np.ndarray   # shape (2,), indexed by J'


def _params(p: Perturbation, lr: int, ll: int, m: int) -> FlucParams:
    """The parameter sums over the pair axis; the legs the twist routes are read from blocks lr, ll and m (l or r copy)."""
    a, b = p.first.blocks, p.second.blocks
    a_lr_r, b_lr_r, b_ll_r = a[_BLK_LR_R][..., 0, 0], b[_BLK_LR_R][..., 0, 0], b[_BLK_LL_R][..., 0, 0]
    b_lr, a_m, b_mr = b[lr][..., 0, 0], a[m], b[_BLK_M_R]
    phi = (a_lr_r * (b[ll][..., 0, 0] - b_lr)).sum(axis=-1)
    phi_p = (a[ll][..., 0, 0] * (b_lr_r - b_ll_r)).sum(axis=-1)
    s_up = (a_lr_r[..., None] * (b[m][..., 0, :] - b_lr[..., None] * [1.0, 0.0])).sum(axis=-2)
    s_lo = (a_m[..., :, 0] * b_lr_r[..., None] - (a_m @ b_mr)[..., :, 0]).sum(axis=-2)
    return FlucParams(phi, phi_p, s_lo, s_up)


def extract_params(model: U1U2Model, p: Perturbation) -> FlucParams:
    """Closed-form parameters of the fluctuation from the perturbation pairs, or of each perturbation of a stack.

    The twist routes the otherwise-unrepresented components lR^l, lL^r of the
    second legs into the result, so they are read even though pi ignores them.
    """
    if p.shape != U1U2_SHAPE:
        raise ValueError("perturbation does not live in the doubled even algebra")
    return _params(p, _BLK_LR_L, _BLK_LL_L, _BLK_M_L)


def assemble_fluctuated_dirac(model: U1U2Model, params: FlucParams) -> np.ndarray:
    """Literal index assembly of the fluctuated Dirac operator from the parameters, one per entry of a stack of them.

    The kx blocks are 2 x 2 matrices (x) 1_2, and the ky blocks E_11 (x) an outer product.
    """
    kx, ky = model.kx, model.ky
    phi, phi_p = np.asarray(params.phi), np.asarray(params.phi_prime)
    e1 = np.array([1.0, 0.0])
    lower, upper = params.sigma_lower + e1, params.sigma_upper + e1
    out = np.zeros(phi.shape + (8, 8), dtype=complex)
    for i in range(2):
        out[..., i, 2 + i] = kx * (1 + phi)
        out[..., 2 + i, i] = np.conj(kx) * (1 + phi_p)
        out[..., 4 + i, 6 + i] = np.conj(kx) * (1 + np.conj(phi))
        out[..., 6 + i, 4 + i] = kx * (1 + np.conj(phi_p))
    out[..., 4:6, :2] = ky * (lower[..., :, None] * np.conj(upper)[..., None, :])
    out[..., :2, 4:6] = np.conj(ky) * (np.conj(lower)[..., :, None] * upper[..., None, :])
    return out


@dataclass(frozen=True)
class FormulaReport:
    """The largest entrywise defect and the parameters; of a stack, one defect per perturbation, a (P,) array."""

    max_defect: float
    params: FlucParams


def verify_fluctuation_formula(model: U1U2Model, p: Perturbation) -> FormulaReport:
    """Compare the fluctuation against the parameter assembly; max entrywise defect.

    p is one perturbation, fluctuated by `fluctuate`, or a stack of them (see
    `pert`), fluctuated in one pass by `pert._fluctuate_each`.
    """
    single = p.first.blocks[0].ndim == 3
    if single:
        flu = fluctuate(model.triple, p)
        p, d_omega = flu.pert, flu.d_omega
    else:
        p, d_omega = _fluctuate_each(model.triple, p)
    params = extract_params(model, p)
    literal = assemble_fluctuated_dirac(model, params)
    entrywise = lambda x: np.abs(x).max(axis=(-2, -1))
    defect = relative(entrywise(d_omega - literal), entrywise(d_omega), entrywise(literal))
    return FormulaReport(float(defect) if single else defect, params)


def untwisted_params(p: Perturbation) -> FlucParams:
    """Parameter formulas of the non-twisted model (single copy, r-components only)."""
    return _params(p, _BLK_LR_R, _BLK_LL_R, _BLK_M_R)


# ---------------------------------------------------------------------------
# corpus triples
# ---------------------------------------------------------------------------


def two_point_model(m: complex = 0.8 + 0.3j) -> TwistedTriple:
    """Two-point commutative triple on C^3 satisfying the first-order condition.

    Basis labels (1,1), (2,1), (1,2): the algebra C+C acts by rows, the right
    action by columns, J transposes the labels; D links entries sharing a row
    or a column index, which is exactly what first order allows.
    """
    shape = AlgebraShape((1, 1))
    d = 3
    images = []
    diag_masks = {0: [1.0, 0.0, 1.0], 1: [0.0, 1.0, 0.0]}
    for k in range(2):
        arr = np.zeros((1, 1, d, d), dtype=complex)
        arr[0, 0] = np.diag(diag_masks[k])
        images.append(arr)
    rep = Representation(shape, d, tuple(images))
    m = complex(m)
    dirac = np.array([[0, m, np.conj(m)], [np.conj(m), 0, 0], [m, 0, 0]], dtype=complex)
    jmat = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    grading = np.diag([1.0, -1.0, -1.0]).astype(complex)
    real = RealStructure(AntilinearOp(jmat), epsilon=1, epsilon_prime=1, epsilon_double_prime=1)
    return TwistedTriple(shape, rep, dirac, identity_automorphism(shape), grading=grading, real=real)


def random_real_triple(seed: int = 0) -> TwistedTriple:
    """Seeded 6-dimensional real twisted triple with a nontrivial inner twist.

    A = M2(C)+C acting on M2(C)+C^2 (left multiplication and scalars); J is
    entrywise adjoint on the matrix part, plain conjugation on the rest, so the
    order-zero condition holds while first order generically fails.  The twist
    conjugates the M2 block by a random positive matrix, which keeps the
    regularity property.
    """
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((2, 1))
    d = 6
    arr0 = np.zeros((2, 2, d, d), dtype=complex)
    for i in range(2):
        for j in range(2):
            arr0[i, j][:4, :4] = np.kron(_eu(2, i, j), np.eye(2))
    arr1 = np.zeros((1, 1, d, d), dtype=complex)
    arr1[0, 0][4:, 4:] = np.eye(2)
    rep = Representation(shape, d, (arr0, arr1))

    swap4 = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap4[2 * i + j, 2 * j + i] = 1.0
    jmat = np.zeros((d, d), dtype=complex)
    jmat[:4, :4] = swap4
    jmat[4:, 4:] = np.eye(2)
    j = AntilinearOp(jmat)

    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = 0.5 * (x + np.conj(x.T))
    dirac = x + j.conjugate(x)

    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = 0.5 * (h + np.conj(h.T))
    s = np.eye(2) + 0.4 * h / max(1.0, float(np.linalg.norm(h)))
    sigma = Automorphism(shape, (0, 1), (s, np.eye(1, dtype=complex)))
    real = RealStructure(j, epsilon=1, epsilon_prime=1)
    return TwistedTriple(shape, rep, dirac, sigma, real=real)
