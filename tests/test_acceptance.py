"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

The corpus is seeded throughout; total runtime stays well under ten seconds.
"""
import numpy as np
import pytest

import twistlab as tw
from twistlab.gauge import (
    find_selfadjointness_witness,
    gauge_dirac,
    selfadjointness_report,
)
from twistlab.linalg import dagger, rel_defect
from twistlab.models import FIRST_ORDER_WITNESS, U1U2_SHAPE, two_point_model
from twistlab.morita import (
    AlgebraMatrix,
    IdempotentData,
    amat_unit,
    build_left_triple,
    build_real_triple,
    build_right_triple,
    check_hermitian,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    connection_with,
    grassmann,
    lift_maps,
)
from twistlab.pert import (
    act_mu,
    eta,
    eta_adjoint_pairs,
    eta_opp,
    fluctuate,
    hat_pert,
    opp_adjoint_pairs,
    opp_mul,
    p_of_u,
    p_opp_of_u,
    pert_mul,
    pert_unit,
)
from twistlab.triple import Representation, TwistedTriple

from conftest import random_normalized_pert, random_pert

KX = 1 + 0.5j
KY = 0.7 - 0.2j


def report(name, worst, bound, extra=""):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"ACCEPTANCE {name}: max defect {worst:.3e} (bound {bound:.0e}){extra} {status}")
    assert worst <= bound


def selfadjoint_pert(t, rng, n_pairs=2):
    p = random_normalized_pert(t, rng, n_pairs)
    padj = eta_adjoint_pairs(t, p)
    return tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs)
                           + tuple((0.5 * a, b) for a, b in padj.pairs))


@pytest.fixture(scope="module")
def model():
    return tw.build_u1u2(KX, KY, samples=10, seed=0)


@pytest.fixture(scope="module")
def corpus3(model):
    return [two_point_model(), model.triple, tw.random_real_triple(3)]


def test_criterion_1_u1u2_axiom_suite(model):
    t = model.triple
    r = model.axioms
    worst = max(
        r.dirac_selfadjoint,
        r.grading_hermitian, r.grading_squares,
        r.grading_commutes_algebra, r.grading_anticommutes_dirac,
        r.j_isometry, r.epsilon_defect, r.epsilon_prime_defect, r.epsilon_double_prime_defect,
    )
    assert (r.epsilon, r.epsilon_prime, r.epsilon_double_prime) == (1, 1, -1)
    assert r.ko_dimension == 6
    order_zero = max(
        rel_defect(t.pi(a) @ t.pi_opp(b), t.pi_opp(b) @ t.pi(a))
        for _, a in U1U2_SHAPE.basis() for _, b in U1U2_SHAPE.basis()
    )
    witness_defect = t.first_order_defect(
        U1U2_SHAPE.matrix_unit(*FIRST_ORDER_WITNESS[0]),
        U1U2_SHAPE.matrix_unit(*FIRST_ORDER_WITNESS[1]),
    )
    assert witness_defect >= 0.05 * abs(KY)
    # defect scales to zero with ky
    fo = {}
    for scale in (1.0, 1e-2, 1e-4, 0.0):
        tt = tw.build_u1u2(KX, scale * KY, samples=2, seed=0).triple
        fo[scale] = max(
            tt.first_order_defect(a, b)
            for _, a in U1U2_SHAPE.basis() for _, b in U1U2_SHAPE.basis()
        )
    assert fo[0.0] <= 1e-14
    assert fo[1e-2] <= 2e-2 * fo[1.0] and fo[1e-4] <= 2e-4 * fo[1.0]
    report("1 (U(1)xU(2) axioms)", max(worst, order_zero), 1e-12,
           extra=f", witness {witness_defect:.3f} >= {0.05 * abs(KY):.3f}, ky->0 gives {fo[0.0]:.1e}")


def test_criterion_2_formula_reproduction(model):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p = random_pert(model.triple, rng)
        worst = max(worst, tw.verify_fluctuation_formula(model, p).max_defect)
    worst_params = 0.0
    for _ in range(10):
        sym = selfadjoint_pert(model.triple, rng)
        params = tw.extract_params(model, fluctuate(model.triple, sym).pert)
        worst_params = max(
            worst_params,
            abs(params.phi_prime - np.conj(params.phi)),
            float(np.abs(params.sigma_upper - np.conj(params.sigma_lower)).max()),
        )
    assert worst_params <= 1e-12
    report("2 (closed-form fluctuation)", worst, 1e-10,
           extra=f", selfadjoint parameter relations {worst_params:.1e}")


def test_criterion_3_three_way_agreement(corpus3):
    rng = np.random.default_rng(3)
    worst = 0.0
    for t in corpus3:
        ep = t.epsilon_prime()
        for _ in range(67):
            p = random_normalized_pert(t, rng)
            f = fluctuate(t, p)
            # assembly with the alternative nonlinear-term formula
            omega2_alt = np.zeros_like(f.omega1)
            for a, b in p.pairs:
                omega2_alt += t.pi(a) @ (f.omega1_hat @ t.pi(b) - t.pi(t.sigma(b)) @ f.omega1_hat)
            d_alt = t.dirac + f.omega1 + f.omega1_hat + omega2_alt
            d_mu = act_mu(t, p, t.dirac)
            worst = max(worst, rel_defect(f.d_omega, d_alt), rel_defect(f.d_omega, d_mu),
                        rel_defect(d_alt, d_mu))
    report("3 (three-way fluctuation agreement, 201 perturbations)", worst, 1e-12)


def test_criterion_4_gauge_covariance(model):
    t = model.triple
    rng = np.random.default_rng(4)
    worst = worst_bare = 0.0
    for _ in range(100):
        p = random_normalized_pert(t, rng)
        u = t.shape.random_unitary(rng)
        rep = gauge_dirac(t, p, u)
        worst = max(worst, rep.defect)
        worst_bare = max(worst_bare, rep.bare_defect)
    report("4 (gauge covariance)", max(worst, worst_bare), 1e-10,
           extra=f", four-term bare law {worst_bare:.1e}")


def test_criterion_5_selfadjointness_criterion(model):
    t = model.triple
    rng = np.random.default_rng(5)
    worst_id = 0.0
    for _ in range(100):
        p = selfadjoint_pert(t, rng)
        u = t.shape.random_unitary(rng)
        rep = selfadjointness_report(t, p, u)
        worst_id = max(worst_id, rep.decomposition_defect)
    # twist-invariant unitary preserves selfadjointness
    blocks = []
    for n in t.shape.block_dims[:3]:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(x)
        blocks.append(q @ np.diag(np.exp(1j * np.angle(np.diag(r)))))
    u_inv = tw.Unitary(tw.AlgebraElement(t.shape, tuple(blocks + blocks)))
    p = selfadjoint_pert(t, np.random.default_rng(55))
    rep_inv = selfadjointness_report(t, p, u_inv)
    assert rep_inv.gauge_sa_defect <= 1e-10 and rep_inv.criterion_defect <= 1e-10
    u_w, rep_w = find_selfadjointness_witness(t, p, seed=0)
    assert rep_w.gauge_sa_defect >= 1e-3 and rep_w.criterion_defect >= 1e-3
    report("5 (selfadjointness criterion)", worst_id, 1e-10,
           extra=f", witness breaks at {rep_w.gauge_sa_defect:.2e}")


def test_criterion_6_semigroup_laws(model):
    t = model.triple
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        p, q, r = (random_normalized_pert(t, rng, 2) for _ in range(3))
        # associativity and unit at operator level
        worst = max(worst, rel_defect(eta(t, pert_mul(pert_mul(p, q), r)).op,
                                      eta(t, pert_mul(p, pert_mul(q, r))).op))
        worst = max(worst, rel_defect(act_mu(t, pert_mul(pert_mul(p, q), r), t.dirac),
                                      act_mu(t, pert_mul(p, pert_mul(q, r)), t.dirac)))
        worst = max(worst, rel_defect(eta(t, pert_mul(pert_unit(t.shape), p)).op, eta(t, p).op))
        # eta and eta_opp adjoint laws
        worst = max(worst, rel_defect(eta(t, eta_adjoint_pairs(t, p)).op, dagger(eta(t, p).op)))
        hp = hat_pert(t, p)
        worst = max(worst, rel_defect(eta_opp(t, opp_adjoint_pairs(t, hp)), dagger(eta_opp(t, hp))))
        # transitivity of the combined action
        worst = max(worst, rel_defect(act_mu(t, q, act_mu(t, p, t.dirac)),
                                      act_mu(t, pert_mul(q, p), t.dirac)))
    # unitary embeddings are homomorphisms
    for _ in range(10):
        u, v = t.shape.random_unitary(rng), t.shape.random_unitary(rng)
        uv = tw.Unitary(u.element * v.element)
        worst = max(worst, rel_defect(eta(t, pert_mul(p_of_u(t, u), p_of_u(t, v))).op,
                                      eta(t, p_of_u(t, uv)).op))
        worst = max(worst, rel_defect(eta_opp(t, opp_mul(p_opp_of_u(t, u), p_opp_of_u(t, v))),
                                      eta_opp(t, p_opp_of_u(t, uv))))
    report("6 (semi-group laws)", worst, 1e-11)


def test_criterion_7_morita_suite(model):
    ky0 = tw.build_u1u2(KX, 0.0, samples=2, seed=0).triple
    rng = np.random.default_rng(7)
    worst = 0.0
    # self-Morita fluctuations
    w = eta(ky0, selfadjoint_pert(ky0, rng)).op
    e1 = IdempotentData(amat_unit(ky0.shape, 1))
    rt = build_right_triple(lift_maps(ky0, e1), connection_with(ky0, e1, [[w]], "right"))
    assert check_morita_triple(rt, samples=4).passes
    worst = max(worst, rel_defect(rt.d_r, ky0.dirac + w))
    rconn = connection_with(ky0, e1, [[w]], "right")
    lt = build_left_triple(lift_maps(ky0, e1), conjugate_connection(ky0, rconn))
    assert check_morita_triple(lt, samples=4).passes
    worst = max(worst, rel_defect(lt.d_l, ky0.dirac + ky0.epsilon_prime() * ky0.real.j.conjugate(w)))
    # conjugate of Grassmann is the left Grassmann
    e2 = IdempotentData(AlgebraMatrix(ky0.shape, ((0.5 * ky0.shape.unit(),) * 2,) * 2))
    gr = grassmann(ky0, e2, "right")
    conj_gr = conjugate_connection(ky0, gr)
    assert conj_gr.side == "left" and conj_gr.is_grassmann()
    assert check_hermitian(ky0, conj_gr).passes
    # twist-invariant idempotent in M2(A): full right-triple axiom suite (ky != 0 is fine here)
    t = model.triple
    e2_full = IdempotentData(AlgebraMatrix(t.shape, ((0.5 * t.shape.unit(),) * 2,) * 2))
    right_report = check_morita_triple(build_right_triple(lift_maps(t, e2_full), grassmann(t, e2_full, "right")))
    assert right_report.passes
    # sigma' regularity is part of the report; surface it in the defect track
    worst = max(worst, right_report.sigma_prime_regularity)
    # real construction: D'' = D'
    wsym = eta(ky0, selfadjoint_pert(ky0, rng)).op
    conn = connection_with(ky0, e2, [[0.5 * wsym, 0.5 * wsym], [0.5 * wsym, 0.5 * wsym]], "right")
    real = build_real_triple(lift_maps(ky0, e2), conn)
    real_report = check_real_triple(real)
    assert real_report.passes
    worst = max(worst, real_report.d_second_defect)
    # the lift-violating idempotent is rejected with the named error
    shape_cc = tw.AlgebraShape((1, 1))
    images = []
    for k in range(2):
        arr = np.zeros((1, 1, 2, 2), complex)
        arr[0, 0][k, k] = 1.0
        images.append(arr)
    rep_cc = Representation(shape_cc, 2, tuple(images))
    flip_cc = tw.Automorphism(shape_cc, (1, 0), (np.eye(1), np.eye(1)))
    t_cc = TwistedTriple(shape_cc, rep_cc, np.array([[0, 1.0], [1.0, 0]]), flip_cc)
    e_bad = IdempotentData(AlgebraMatrix(
        shape_cc, ((tw.AlgebraElement(shape_cc, (np.eye(1), np.zeros((1, 1)))),),)))
    with pytest.raises(ValueError, match=r"e sigma\(e\) e = e fails"):
        lift_maps(t_cc, e_bad)
    report("7 (Morita suite)", worst, 1e-10,
           extra=f", D''=D' at {real_report.d_second_defect:.1e}, violator rejected")


def test_criterion_8_identity_suite(corpus3):
    worst = 0.0
    for t in corpus3:
        rng = np.random.default_rng(8)
        sinv = t.sigma.inverse()
        for _ in range(100):
            a, b = t.shape.random_element(rng), t.shape.random_element(rng)
            # twisted Leibniz, both sides
            worst = max(worst, rel_defect(
                t.twisted_commutator(a * b),
                t.twisted_commutator(a) @ t.pi(b) + t.pi(t.sigma(a)) @ t.twisted_commutator(b)))
            worst = max(worst, rel_defect(
                t.twisted_commutator_opp(a * b),
                t.pi_opp(sinv(b)) @ t.twisted_commutator_opp(a)
                + t.twisted_commutator_opp(b) @ t.pi_opp(a)))
            # involution rules
            worst = max(worst, rel_defect(t.twisted_commutator(a.star()),
                                          -dagger(t.twisted_commutator(sinv(a)))))
            worst = max(worst, rel_defect(t.twisted_commutator_opp(a.star()),
                                          -dagger(t.twisted_commutator_opp(t.sigma(a)))))
            # mixed-bracket identity
            worst = max(worst, rel_defect(
                t.bracket_hat(t.twisted_commutator(b), a),
                t.bracket_sigma(t.bracket_hat(t.dirac, a), b)))
            # bimodule involution rules
            w = eta(t, tw.Perturbation(t.shape, ((a, b),))).op
            worst = max(worst, rel_defect(dagger(t.pi(t.sigma(a)) @ w),
                                          dagger(w) @ t.pi(t.sigma(a).star())))
            sa_star = t.sigma(a).star()
            worst = max(worst, rel_defect(dagger(w @ t.pi(a)),
                                          t.pi(t.sigma(sa_star)) @ dagger(w)))
    report("8 (derivation/involution identities)", worst, 1e-11)
