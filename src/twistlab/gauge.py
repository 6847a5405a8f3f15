"""Gauge transformations of perturbations and Dirac operators.

A unitary u acts through Ad(u) psi = u psi u*; on perturbations it acts by
semi-group multiplication with p(u) = sigma(u) (x) (u*)^opp, and the two
descriptions agree on the fluctuated Dirac operator even without the
first-order condition.  Twisted conjugation does not preserve selfadjointness;
the criterion diagnostics live here too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, Unitary
from .linalg import DEFAULT_TOL, Tolerance, dagger, frobenius, rel_defect, relative
from .pert import FluctuationReport, Perturbation, fluctuate, p_of_u, pert_mul
from .triple import TwistedTriple


def _gauge_images(t: TwistedTriple, u: Unitary) -> tuple[np.ndarray, np.ndarray]:
    """pi and hat of sigma(u), u* and sigma(u*) as two (3, d, d) stacks.

    The three images are one `rep.images_of` GEMM and their hats one
    J-conjugation; every operator of the gauge action is built from them.
    """
    us = u.element.star()
    images = t.rep.images_of([t.sigma(u.element), us, t.sigma(us)])
    return images, t.require_real().j.conjugate(images)


def gauge_pert(t: TwistedTriple, p: Perturbation, u: Unitary, tol: Tolerance = DEFAULT_TOL) -> Perturbation:
    """Gauge-transformed perturbation: product by p(u) = sigma(u) (x) (u*)^opp."""
    if not p.is_normalized(t.sigma, tol):
        raise ValueError("gauge transformation requires a twisted-normalised perturbation")
    return pert_mul(p_of_u(t, u), p)


@dataclass(frozen=True)
class GaugeDiracReport:
    """Conjugated-vs-refluctuated comparison plus the bare-operator four-term law."""

    lhs: np.ndarray                  # Ad(sigma(u)) D_omega Ad(u)*
    rhs: np.ndarray                  # fluctuation of the gauge-transformed perturbation
    defect: float
    bare_lhs: np.ndarray             # Ad(sigma(u)) D Ad(u)*
    bare_terms: tuple[np.ndarray, np.ndarray, np.ndarray]
    bare_defect: float
    fluctuation: FluctuationReport
    gauged_fluctuation: FluctuationReport


def _bare_terms(d: np.ndarray, images: np.ndarray, hats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (pi_su, pi_us, pi_sus), (hat_su, hat_us, hat_sus) = images, hats
    t1 = pi_su @ (d @ pi_us - pi_sus @ d)
    t2 = hat_su @ (d @ hat_us - hat_sus @ d)
    t3 = hat_su @ (t1 @ hat_us - hat_sus @ t1)
    return t1, t2, t3


def bare_conjugation_terms(t: TwistedTriple, u: Unitary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three correction terms of Ad(sigma(u)) D Ad(u)* = D + t1 + t2 + t3.

    t1 = sigma(u)[D,u*]_sigma, t2 = the hat-side mirror of t1, and t3 the mixed
    bracket coupling them; t3 vanishes exactly when the first-order condition holds.
    """
    return _bare_terms(t.dirac, *_gauge_images(t, u))


def _gauged_fluctuation(t: TwistedTriple, p: Perturbation, u: Unitary, tol: Tolerance) -> FluctuationReport:
    """fluctuate(t, gauge_pert(t, p, u, tol), tol), with the gauged perturbation remembered on p for u.

    `gauge_dirac` and `selfadjointness_report` both need it for the same
    normalised p and u; remembering the fluctuated perturbation lets the
    second call take `fluctuate`'s remembered report.
    """
    hit = p.__dict__.get("_gauged")
    if hit is not None and hit[0] is t and hit[1] is u and hit[2] == tol:
        return fluctuate(t, hit[3], tol)
    gauged = fluctuate(t, gauge_pert(t, p, u, tol), tol)
    p.__dict__["_gauged"] = (t, u, tol, gauged.pert)
    return gauged


def gauge_dirac(t: TwistedTriple, p: Perturbation, u: Unitary, tol: Tolerance = DEFAULT_TOL) -> GaugeDiracReport:
    flu = fluctuate(t, p, tol)
    images, hats = _gauge_images(t, u)
    ad_sigma_u, ad_u_star = images[0] @ hats[0], images[1] @ hats[1]   # Ad(sigma(u)) and Ad(u)*
    lhs = ad_sigma_u @ flu.d_omega @ ad_u_star
    gauged = _gauged_fluctuation(t, flu.pert, u, tol)
    rhs = gauged.d_omega

    t1, t2, t3 = _bare_terms(t.dirac, images, hats)
    bare_lhs = ad_sigma_u @ t.dirac @ ad_u_star
    bare_defect = rel_defect(bare_lhs, t.dirac + t1 + t2 + t3)
    return GaugeDiracReport(
        lhs=lhs,
        rhs=rhs,
        defect=rel_defect(lhs, rhs),
        bare_lhs=bare_lhs,
        bare_terms=(t1, t2, t3),
        bare_defect=bare_defect,
        fluctuation=flu,
        gauged_fluctuation=gauged,
    )


@dataclass(frozen=True)
class SelfAdjointnessReport:
    """Criterion for D_{omega^u} = D_{omega^u}^dagger in terms of frak_u = sigma(u)* u."""

    frak_u: AlgebraElement
    gamma_u: np.ndarray              # hat(sigma(frak_u)) [D_omega, frak_u]_sigma
    defect_op: np.ndarray            # gamma + eps' J gamma J^{-1} + [[D_omega, u]_sigma, u^hat]_{sigma_opp}
    criterion_defect: float
    gauge_sa_defect: float           # || D_{omega^u} - D_{omega^u}^dagger || (relative)
    decomposition_defect: float      # exact identity: [D_omega, u u^hat]_sigma = defect_op


def selfadjointness_report(
    t: TwistedTriple, p: Perturbation, u: Unitary, tol: Tolerance = DEFAULT_TOL
) -> SelfAdjointnessReport:
    flu = fluctuate(t, p, tol)
    if not flu.selfadjoint_d_omega:
        raise ValueError("criterion requires selfadjoint start")
    d_omega = flu.d_omega
    ep = t.epsilon_prime(tol)
    fu = t.sigma(u.element).star() * u.element
    images = t.rep.images_of([fu, t.sigma(fu)])
    (pi_fu, pi_sfu), (hat_fu, hat_sfu) = images, t.real.j.conjugate(images)

    bracket = d_omega @ pi_fu - pi_sfu @ d_omega
    gamma_u = hat_sfu @ bracket
    defect_op = gamma_u + ep * t.real.j.conjugate(gamma_u) + (bracket @ hat_fu - hat_sfu @ bracket)

    # exact decomposition: [D_omega, fu fu^hat]_sigma with sigma acting as
    # sigma on the plain factor and the hat of sigma on the hat factor
    mixed = d_omega @ (pi_fu @ hat_fu) - (pi_sfu @ hat_sfu) @ d_omega
    decomposition_defect = rel_defect(mixed, defect_op)

    gauged = _gauged_fluctuation(t, flu.pert, u, tol)
    gauge_sa = rel_defect(gauged.d_omega, dagger(gauged.d_omega))
    return SelfAdjointnessReport(
        frak_u=fu,
        gamma_u=gamma_u,
        defect_op=defect_op,
        criterion_defect=relative(frobenius(defect_op), frobenius(d_omega)),
        gauge_sa_defect=gauge_sa,
        decomposition_defect=decomposition_defect,
    )


def find_selfadjointness_witness(
    t: TwistedTriple,
    p: Perturbation,
    seed: int = 0,
    attempts: int = 40,
    min_defect: float = 1e-3,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Unitary, SelfAdjointnessReport]:
    """Deterministic seeded scan for a unitary breaking selfadjointness.

    Scans diagonal-phase unitaries (asymmetric across blocks, hence not
    twist-invariant for a block-permuting twist) and returns the first witness
    whose gauge-transformed Dirac operator has selfadjointness defect and
    criterion defect both >= min_defect.
    """
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        blocks = []
        for n in t.shape.block_dims:
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
            blocks.append(np.diag(phases))
        u = Unitary(AlgebraElement(t.shape, tuple(blocks)))
        report = selfadjointness_report(t, p, u, tol)
        if report.gauge_sa_defect >= min_defect and report.criterion_defect >= min_defect:
            return u, report
    raise ValueError("no selfadjointness-breaking witness found in the scanned family")
