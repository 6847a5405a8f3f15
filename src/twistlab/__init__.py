"""Finite-dimensional real twisted spectral triples as explicit complex matrices.

Axiom verification, twisted inner fluctuations with the non-linear term, gauge
transformations, the perturbation semi-group, Morita-equivalent triples, and a
built-in minimally twisted U(1)xU(2) model.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .linalg import AntilinearOp, Tolerance, rel_defect
from .algebra import (
    AlgebraElement,
    AlgebraShape,
    Automorphism,
    Unitary,
    check_regularity,
    identity_automorphism,
)
from .triple import (
    AxiomReport,
    RealStructure,
    Representation,
    TwistedTriple,
    check_axioms,
)
from .pert import (
    FluctuationReport,
    OppPerturbation,
    Perturbation,
    TwistedOneForm,
    act_mu,
    eta,
    eta_adjoint_pairs,
    eta_opp,
    fluctuate,
    hat_pert,
    normalize,
    opp_mul,
    p_of_u,
    p_opp_of_u,
    pert_mul,
    pert_unit,
)
from .gauge import (
    SelfAdjointnessReport,
    find_selfadjointness_witness,
    gauge_dirac,
    gauge_pert,
    selfadjointness_report,
)
from .morita import (
    AlgebraMatrix,
    Connection,
    IdempotentData,
    ModuleLift,
    build_left_triple,
    build_real_triple,
    build_right_triple,
    check_hermitian,
    check_idempotent,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    grassmann,
    lift_maps,
)
from .models import (
    FlucParams,
    U1U2Model,
    build_u1u2,
    extract_params,
    random_real_triple,
    two_point_model,
    verify_fluctuation_formula,
)
