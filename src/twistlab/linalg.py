"""Dense complex matrix kernels and antilinear-operator support.

Everything downstream works with plain ``numpy`` arrays of dtype complex128;
this module owns the comparison policy and the antilinear operators that
realize real structures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

DEFAULT_EPS = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Relative Frobenius threshold: X ~ Y iff ||X-Y||_F <= abs_eps * max(1, ||X||_F, ||Y||_F)."""

    abs_eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if not self.abs_eps > 0:
            raise ValueError("tolerance must be positive")


DEFAULT_TOL = Tolerance()


def cmatrix(data) -> np.ndarray:
    """Validate and coerce to a finite complex128 2-D array."""
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():   # a complex entry is finite iff both its parts are
        raise ValueError("matrix entries must be finite")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., m, n) stack."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of an array of any shape (a matrix, or an algebra element's coefficient vector): one vdot."""
    return math.sqrt(np.vdot(a, a).real)


def relative(dist, *norms):
    """dist / max(1, *norms), elementwise with broadcasting: the one floor of every defect in the library."""
    if isinstance(dist, float):     # the builtin max, as a ufunc call on floats costs more than an element defect
        return dist / max((1.0, *norms))
    return dist / reduce(np.maximum, norms, 1.0)


def rel_defect(x: np.ndarray, y: np.ndarray) -> float:
    """||x-y||_F scaled by max(1, ||x||_F, ||y||_F), through `relative`."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return relative(frobenius(x - y), frobenius(x), frobenius(y))


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the trailing (m, n) matrices of a complex stack, over its leading axes."""
    flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)).view(float)
    return np.einsum("...i,...i->...", flat, flat)


def rel_defects(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rel_defect of each matrix of a complex (..., m, n) stack x against y; x is overwritten by x - y."""
    scale = np.sqrt(np.maximum(sq_norms(x), sq_norms(y)))
    np.subtract(x, y, out=x)
    return relative(np.sqrt(sq_norms(x)), scale)


class _Monomial(NamedTuple):
    """J's matrix M as a permutation with phases, M[i, p_i] = ph_i, as flat gathers on (d*d) operators.

    (M conj(X) M^-1)[i, k] = ph_i conj(X)[p_i, p_k] / ph_k and
    (M X^T M^-1)[i, k] = ph_i X[p_k, p_i] / ph_k.
    """

    index: np.ndarray               # (d*d,): p_i * d + p_k at i * d + k
    index_adjoint: np.ndarray       # (d*d,): p_k * d + p_i at i * d + k
    factor: np.ndarray | None       # (d*d,): ph_i / ph_k at i * d + k; None when every phase is 1


def _monomial_gathers(m: np.ndarray) -> _Monomial | None:
    """The gathers of a square m with exactly one nonzero in every row and every column, else None."""
    rows, cols = np.nonzero(m)   # row-major: rows == 0..d-1 is one nonzero in every row
    d = len(m)
    if len(rows) != d or (rows != np.arange(d)).any() or (np.bincount(cols, minlength=d) != 1).any():
        return None
    ph = m[rows, cols]
    index = np.add.outer(cols * d, cols)
    factor = None if (ph == 1).all() else np.divide.outer(ph, ph).ravel()
    return _Monomial(index.ravel(), index.T.ravel(), factor)


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator psi -> mat @ conj(psi).

    Real structures J enter every formula either applied to vectors or through
    the conjugations T -> J T J^{-1} and T -> J T* J^{-1}; these two methods
    are the only places where an operator meets J's matrix.  ``mat`` is a
    read-only copy.  When it is monomial (a permutation with phases, as on
    every triple the library builds) both conjugations are one index gather
    of the flattened operators; otherwise they are the two GEMMs with mat and
    its inverse, which stay the general path and the oracle of the gather.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = cmatrix(self.mat).copy()   # cached facts about mat must not go stale under the caller
        if m.shape[0] != m.shape[1]:
            raise ValueError("antilinear operator matrix must be square")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_monomial", _monomial_gathers(m))

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.mat @ np.conj(psi)

    @property
    def inv_mat(self) -> np.ndarray:
        cached = getattr(self, "_inv_mat", None)
        if cached is None:
            try:
                cached = np.linalg.inv(self.mat)
            except np.linalg.LinAlgError as exc:
                raise ValueError("real structure not invertible") from exc
            cached.flags.writeable = False
            object.__setattr__(self, "_inv_mat", cached)
        return cached

    def _operand(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        if t.shape[-2:] != self.mat.shape:
            raise ValueError(f"shape mismatch: {t.shape} vs (..., {self.mat.shape[0]}, {self.mat.shape[1]})")
        return t

    def _gather(self, t: np.ndarray, index: np.ndarray, conj: bool) -> np.ndarray:
        """The flat (d*d) entries of each T at index, conjugated if conj, times the phase factor."""
        out = np.take(t.reshape(t.shape[:-2] + (t.shape[-1] ** 2,)), index, axis=-1)
        if conj:
            np.conjugate(out, out=out)
        if self._monomial.factor is not None:
            out *= self._monomial.factor
        return out.reshape(t.shape)

    def conjugate(self, t: np.ndarray) -> np.ndarray:
        """J T J^{-1} = mat @ conj(T) @ mat^{-1}, for a (d, d) T or each T of a (..., d, d) stack."""
        t = self._operand(t)
        if self._monomial is not None:
            return self._gather(t, self._monomial.index, True)
        return self.mat @ np.conj(t) @ self.inv_mat

    def conjugate_adjoint(self, t: np.ndarray) -> np.ndarray:
        """J T* J^{-1} = mat @ T^T @ mat^{-1}, for a (d, d) T or each T of a (..., d, d) stack."""
        t = self._operand(t)
        if self._monomial is not None:
            return self._gather(t, self._monomial.index_adjoint, False)
        return self.mat @ t.swapaxes(-1, -2) @ self.inv_mat

    def isometry_defect(self) -> float:
        return rel_defect(dagger(self.mat) @ self.mat, np.eye(self.mat.shape[0]))

    def squared(self) -> np.ndarray:
        """J^2 as a linear matrix (mat @ conj(mat))."""
        return self.mat @ np.conj(self.mat)


def detect_sign(transformed: np.ndarray, original: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Return (sign, defect) with sign in {+1,-1,None} minimizing ||transformed - sign*original||.

    -1 needs the strictly smaller defect (NaN is the largest); a defect over tol, or NaN, gives no sign.
    """
    d_plus = rel_defect(transformed, original)
    d_minus = rel_defect(transformed, -original)
    sign, defect = (-1, d_minus) if d_minus < d_plus or math.isnan(d_plus) else (1, d_plus)
    return (sign if defect <= tol.abs_eps else None), defect
