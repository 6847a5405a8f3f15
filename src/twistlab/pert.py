"""Twisted one-forms, perturbation semi-groups, and inner fluctuations.

A perturbation is a formal sum of pairs a_j (x) b_j in the enveloping algebra,
the semi-group element, held as two stacks of legs over a leading pair axis.
The fluctuation depends on the pairs only through C = sum_j a_j (x) b_j, the
leg diagnostic on the pairs.  Twisted normalisation means sum_j a_j sigma(b_j) = e.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, Unitary, _element, stack
from .linalg import DEFAULT_TOL, Tolerance, dagger, rel_defect
from .triple import TwistedTriple, _first_order_grid


def _unstack(x: AlgebraElement) -> list[AlgebraElement]:
    """The elements of a stack over one leading axis, as views of its blocks."""
    return [_element(x.shape, tuple(b[j] for b in x.blocks)) for j in range(len(x.blocks[0]))]


def _append(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The stack x with the element y appended."""
    return _element(x.shape, tuple(np.concatenate([bx, by[None]]) for bx, by in zip(x.blocks, y.blocks)))


def _outer(x: AlgebraElement, y: AlgebraElement, op) -> AlgebraElement:
    """op(x_j, y_k) on the blocks of every pair of elements of two stacks, in j-major order, as one stack."""
    return _element(x.shape, tuple(op(bx[:, None], by[None]).reshape((len(bx) * len(by),) + bx.shape[1:])
                                   for bx, by in zip(x.blocks, y.blocks)))


@dataclass(frozen=True, init=False)
class _PairSum:
    """Formal sum of element pairs; the two sides differ only in the normalisation product.

    The legs a_j and b_j are the read-only stacks `first` and `second`, of
    length len(p); `pairs` is the tuple of (a_j, b_j) as views of them.
    """

    shape: AlgebraShape
    first: AlgebraElement
    second: AlgebraElement

    def __init__(self, shape: AlgebraShape, pairs) -> None:
        pairs = tuple((a, b) for a, b in pairs)
        if any(x.blocks[0].ndim != 2 for pair in pairs for x in pair):
            raise ValueError("a pair element must be one element, not a stack")
        self._hold(stack(shape, [a for a, _ in pairs]), stack(shape, [b for _, b in pairs]))

    def _hold(self, first: AlgebraElement, second: AlgebraElement) -> None:
        for b in first.blocks + second.blocks:
            b.flags.writeable = False
        self.__dict__.update(shape=first.shape, first=first, second=second)

    @classmethod
    def _of(cls, first: AlgebraElement, second: AlgebraElement):
        """The formal sum of these leg stacks, trusted: equal lengths, and arrays no one else writes."""
        out = object.__new__(cls)
        out._hold(first, second)
        return out

    def __len__(self) -> int:
        return len(self.first.blocks[0])

    @cached_property
    def pairs(self) -> tuple[tuple[AlgebraElement, AlgebraElement], ...]:
        return tuple(zip(_unstack(self.first), _unstack(self.second)))

    def _normalization_sum(self, sigma) -> AlgebraElement:
        terms = self._normalizer(self.first, self.second, sigma)
        return _element(self.shape, tuple(b.sum(axis=0) for b in terms.blocks))

    def normalization_defect(self, sigma) -> float:
        return self._normalization_sum(sigma).defect(self.shape.unit())

    def is_normalized(self, sigma, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.normalization_defect(sigma) <= tol.abs_eps


class Perturbation(_PairSum):
    """Formal sum sum_j a_j (x) b_j^opp acting from both sides of an operator."""

    @staticmethod
    def _normalizer(a, b, sigma):
        return a * sigma(b)


class OppPerturbation(_PairSum):
    """Formal sum sum_j a_j^opp (x) b_j; normalised iff sum_j b_j sigma(a_j) = e."""

    @staticmethod
    def _normalizer(a, b, sigma):
        return b * sigma(a)


def _adjoint_pairs(t: TwistedTriple, p: _PairSum, tol: Tolerance):
    if not p.is_normalized(t.sigma, tol):
        raise ValueError("adjoint pairs require a twisted-normalised perturbation")
    return type(p)._of(p.second.star(), p.first.star())


@dataclass(frozen=True)
class TwistedOneForm:
    op: np.ndarray
    source: Perturbation


def pert_unit(shape: AlgebraShape) -> Perturbation:
    e = shape.unit()
    return Perturbation(shape, ((e, e),))


def pert_mul(p: Perturbation, q: Perturbation) -> Perturbation:
    """Product in the enveloping algebra: (a (x) b^opp)(a' (x) b'^opp) = aa' (x) (b'b)^opp."""
    if p.shape != q.shape:
        raise ValueError("algebra shape mismatch")
    return Perturbation._of(_outer(p.first, q.first, np.matmul), _outer(p.second, q.second, lambda b, bp: bp @ b))


def opp_mul(p: OppPerturbation, q: OppPerturbation) -> OppPerturbation:
    """(a^opp (x) b)(a'^opp (x) b') = (a'a)^opp (x) bb'."""
    if p.shape != q.shape:
        raise ValueError("algebra shape mismatch")
    return OppPerturbation._of(_outer(p.first, q.first, lambda a, ap: ap @ a), _outer(p.second, q.second, np.matmul))


def normalize(t: TwistedTriple, p: Perturbation) -> Perturbation:
    """Append the pair (e - sum_j a_j sigma(b_j), e); eta is unchanged since delta(e) = 0."""
    e = p.shape.unit()
    return Perturbation._of(_append(p.first, e - p._normalization_sum(t.sigma)), _append(p.second, e))


def _legs(t: TwistedTriple, p: Perturbation) -> tuple[np.ndarray, np.ndarray]:
    """A perturbation's leg images, formed once and shared by every sum over its pairs.

    Returns pi(a_j), pi(b_j) and pi(sigma(b_j)) as one (3, m, d, d) array, one `pi` call,
    and delta(b_j) = D pi(b_j) - pi(sigma(b_j)) D as an (m, d, d) stack.
    """
    images = t.pi(stack(p.shape, [p.first, p.second, t.sigma(p.second)]))
    delta = np.matmul(t.dirac, images[1])
    delta -= np.matmul(images[2], t.dirac)
    return images, delta


def _pair_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j left_j right_j over two (m, d, d) stacks as one (d, m d) x (m d, d) GEMM; 0 when m = 0."""
    m, d, _ = right.shape
    return left.transpose(1, 0, 2).reshape(d, m * d) @ right.reshape(m * d, d)


def _bracket_sum(left: np.ndarray, t: np.ndarray, right: np.ndarray, right_twisted: np.ndarray) -> np.ndarray:
    """sum_j L_j (T R_j - Rt_j T) over (m, d, d) stacks L, R and Rt: the pair sum of twisted brackets of T."""
    return _pair_sum(left, np.matmul(t, right) - np.matmul(right_twisted, t))


def eta(t: TwistedTriple, p: Perturbation) -> TwistedOneForm:
    """Represented twisted one-form sum_j pi(a_j) (D pi(b_j) - pi(sigma(b_j)) D)."""
    images, delta = _legs(t, p)
    return TwistedOneForm(_pair_sum(images[0], delta), p)


def eta_adjoint_pairs(t: TwistedTriple, p: Perturbation, tol: Tolerance = DEFAULT_TOL) -> Perturbation:
    """Pairs (b_j*, a_j*), realizing eta(p)^dagger; requires a twisted-normalised input."""
    return _adjoint_pairs(t, p, tol)


def eta_opp(t: TwistedTriple, p: OppPerturbation) -> np.ndarray:
    """sum_j pi_opp(a_j) [D, pi_opp(b_j)]_{sigma_opp}."""
    return _opp_bracket_sum(t, p, t.dirac)


def _opp_bracket_sum(t: TwistedTriple, p: OppPerturbation, op: np.ndarray) -> np.ndarray:
    """sum_j pi_opp(a_j) [T, pi_opp(b_j)]_{sigma_opp}; the images of all legs are one GEMM and one J-conjugation."""
    a, b, b_twisted = t.opp_images(t.pi(stack(p.shape, [p.first, p.second, t.sigma.inverse()(p.second)])))
    return _bracket_sum(a, op, b, b_twisted)


def opp_adjoint_pairs(t: TwistedTriple, p: OppPerturbation, tol: Tolerance = DEFAULT_TOL) -> OppPerturbation:
    return _adjoint_pairs(t, p, tol)


def hat_pert(t: TwistedTriple, p: Perturbation, tol: Tolerance = DEFAULT_TOL) -> OppPerturbation:
    """Image of p under the hat homomorphism: pairs (a_j*, b_j*) read in the opposite algebra."""
    t.require_real()
    if not p.is_normalized(t.sigma, tol):
        raise ValueError("hat requires a twisted-normalised perturbation")
    return OppPerturbation._of(p.first.star(), p.second.star())


def p_of_u(t: TwistedTriple, u: Unitary) -> Perturbation:
    """Unitary embedding u -> sigma(u) (x) (u*)^opp."""
    return Perturbation(u.element.shape, ((t.sigma(u.element), u.element.star()),))


def p_opp_of_u(t: TwistedTriple, u: Unitary) -> OppPerturbation:
    """Opposite-side unitary embedding, pairs (sigma(u)*, u)."""
    return OppPerturbation(u.element.shape, ((t.sigma(u.element).star(), u.element),))


class _LegDefect:
    """The leg first-order diagnostic of one fluctuation, computed on its first read and then kept.

    Until then it holds the triple and the stack of second legs b_k.  The read
    forms delta(b_k) and pi_opp of the hat legs b_k* and of sigma^-1(b_k*) leg
    by leg, as `TwistedTriple.first_order_defect` does, so that it reproduces
    it bit for bit, takes the max of `_first_order_grid` and drops its inputs.
    """

    def __init__(self, t: TwistedTriple, legs: AlgebraElement):
        self._inputs = (t, legs)
        self._value: float | None = None

    @property
    def value(self) -> float:
        if self._value is None:
            t, legs = self._inputs
            sinv = t.sigma.inverse()
            legs = _unstack(legs)
            hats = [b.star() for b in legs]
            self._value = float(_first_order_grid(np.array([t.twisted_commutator(b) for b in legs]),
                                                  np.array([t.pi_opp(c) for c in hats]),
                                                  np.array([t.pi_opp(sinv(c)) for c in hats])).max())
            self._inputs = None
        return self._value


@dataclass(frozen=True)
class FluctuationReport:
    """Fluctuated operator D_omega = D + omega1 + omega1_hat + omega2 with diagnostics.

    first_order_defect is the max of `TwistedTriple.first_order_defect(b_i, b_j*)`
    over ordered pairs of the perturbation's second legs b_i, b_j, bit for bit:
    both are `triple._first_order_grid` on images formed leg by leg.  omega2 is
    sum_j hat(a_j) [omega1, hat(b_j)] and hat(b_j) = pi_opp(b_j*), so the
    opposite side takes the hat legs b_j*.  With order zero and a regular twist,
    omega2 = 0 when this defect is 0.  It is computed on its first read, once
    per normalised perturbation: a report returned again for the same
    perturbation (see `fluctuate`) shares it.  The arrays are read-only.
    """

    pert: Perturbation
    omega1: np.ndarray
    omega1_hat: np.ndarray
    omega2: np.ndarray
    d_omega: np.ndarray
    selfadjoint_omega1: bool
    selfadjoint_d_omega: bool
    j_compat_defect: float
    omega2_gate_defect: float
    _leg_defect: _LegDefect = field(repr=False)

    @property
    def first_order_defect(self) -> float:
        return self._leg_defect.value


def fluctuate(t: TwistedTriple, p: Perturbation, tol: Tolerance = DEFAULT_TOL) -> FluctuationReport:
    """Twisted inner fluctuation including the non-linear term.

    omega2 is computed by two independent formulas, as a hat-twisted bracket of
    omega1 and as a plain-twisted bracket of omega1_hat; their agreement rests
    on the order-zero condition, so divergence signals a broken input.  The leg
    images are formed once (`_legs`), and omega1 and both omega2 formulas are
    one GEMM each over them.  The leg diagnostic first_order_defect, which
    most callers never read, waits for its first read (`_LegDefect`); the
    omega2 gate is a check that raises, so it stays eager.

    The report is remembered on the normalised perturbation it describes,
    report.pert, without a reference back to the report: fluctuate(t,
    report.pert, tol) on the same triple with an equal tol returns it again.
    An input that is not normalised is normalised into a new perturbation on
    every call, so it is never a hit.
    """
    hit = p.__dict__.get("_fluctuation")
    if hit is not None and hit[0] is t and hit[1] == tol:
        return FluctuationReport(pert=p, **hit[2])
    real = t.require_real()
    if not p.is_normalized(t.sigma, tol):
        p = normalize(t, p)
    ep = t.epsilon_prime(tol)

    images, delta = _legs(t, p)
    a, b, b_sigma = images
    hat_a, hat_b, hat_b_sigma = real.j.conjugate(images)
    omega1 = _pair_sum(a, delta)
    omega1_hat = ep * real.j.conjugate(omega1)
    omega2_a = _bracket_sum(hat_a, omega1, hat_b, hat_b_sigma)
    omega2_b = _bracket_sum(a, omega1_hat, b, b_sigma)
    gate = rel_defect(omega2_a, omega2_b)
    if not gate <= tol.abs_eps:   # a NaN gate fails too
        raise ValueError(
            f"omega2 formulas diverge (defect {gate:.3e}); order-zero condition is likely broken"
        )
    d_omega = t.dirac + omega1 + omega1_hat + omega2_a
    for x in (omega1, omega1_hat, omega2_a, d_omega):
        x.flags.writeable = False
    fields = dict(
        omega1=omega1,
        omega1_hat=omega1_hat,
        omega2=omega2_a,
        d_omega=d_omega,
        selfadjoint_omega1=rel_defect(omega1, dagger(omega1)) <= tol.abs_eps,
        selfadjoint_d_omega=rel_defect(d_omega, dagger(d_omega)) <= tol.abs_eps,
        j_compat_defect=rel_defect(real.j.conjugate(d_omega), ep * d_omega),
        omega2_gate_defect=gate,
        _leg_defect=_LegDefect(t, p.second),
    )
    p.__dict__["_fluctuation"] = (t, tol, fields)
    return FluctuationReport(pert=p, **fields)


def act_mu(t: TwistedTriple, p: Perturbation, target: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Action of p (x) hat(p) on an operator: sum_{j,i} a_j hat(a_i) T hat(b_i) b_j.

    For target = D this is the twisted fluctuation D_omega.  The images of all
    legs are one GEMM and their hats one J-conjugation; each sum is one GEMM.
    """
    t.require_real()
    if not p.is_normalized(t.sigma, tol):
        raise ValueError("the combined action requires a twisted-normalised perturbation")
    target = np.asarray(target, dtype=complex)
    images = t.pi(stack(p.shape, [p.first, p.second]))
    a, b = images
    hat_a, hat_b = t.real.j.conjugate(images)
    inner = _pair_sum(np.matmul(hat_a, target), hat_b)
    return _pair_sum(np.matmul(a, inner), b)
