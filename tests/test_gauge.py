import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.gauge import (
    bare_conjugation_terms,
    find_selfadjointness_witness,
    gauge_dirac,
    gauge_pert,
    selfadjointness_report,
)
from twistlab.linalg import rel_defect
from twistlab.pert import eta, eta_adjoint_pairs, fluctuate, pert_unit

from conftest import random_normalized_pert
from test_pert_oracle import assert_close
from test_scan_oracle import triples


def selfadjoint_pert(t, rng, n_pairs=2):
    p = random_normalized_pert(t, rng, n_pairs)
    padj = eta_adjoint_pairs(t, p)
    return tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs)
                           + tuple((0.5 * a, b) for a, b in padj.pairs))


def unit_unitary(t):
    return tw.Unitary(t.shape.unit())


def twist_invariant_unitary(t, rng):
    """Same unitary in both halves of the doubled algebra, so the flip fixes it."""
    blocks = []
    half = len(t.shape.block_dims) // 2
    for n in t.shape.block_dims[:half]:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(x)
        blocks.append(q @ np.diag(np.exp(1j * np.angle(np.diag(r)))))
    return tw.Unitary(tw.AlgebraElement(t.shape, tuple(blocks + blocks)))


class TestGaugePert:
    def test_unit_unitary_is_neutral(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(0)
        p = random_normalized_pert(t, rng)
        q = gauge_pert(t, p, unit_unitary(t))
        assert rel_defect(eta(t, q).op, eta(t, p).op) <= 1e-12
        assert rel_defect(fluctuate(t, q).d_omega, fluctuate(t, p).d_omega) <= 1e-12

    def test_operator_assembly(self, u1u2):
        # eta(gauge_pert(p, u)) = sigma(u) w u* + sigma(u) [D, u*]_sigma
        t = u1u2.triple
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = random_normalized_pert(t, rng)
            u = t.shape.random_unitary(rng)
            w = eta(t, p).op
            su, us = t.sigma(u.element), u.element.star()
            expected = t.pi(su) @ w @ t.pi(us) + t.pi(su) @ t.bracket_sigma(t.dirac, us)
            assert rel_defect(eta(t, gauge_pert(t, p, u)).op, expected) <= 1e-11

    def test_two_transforms_compose_contravariantly(self, u1u2):
        # u then v equals the single transform by vu
        t = u1u2.triple
        rng = np.random.default_rng(2)
        p = random_normalized_pert(t, rng)
        u, v = t.shape.random_unitary(rng), t.shape.random_unitary(rng)
        seq = gauge_pert(t, gauge_pert(t, p, u), v)
        single = gauge_pert(t, p, tw.Unitary(v.element * u.element))
        assert rel_defect(eta(t, seq).op, eta(t, single).op) <= 1e-11


class TestGaugeDirac:
    def test_unit_unitary_gives_zero_defect(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(3)
        p = random_normalized_pert(t, rng)
        report = gauge_dirac(t, p, unit_unitary(t))
        assert report.defect <= 1e-12
        assert rel_defect(report.lhs, fluctuate(t, p).d_omega) <= 1e-12

    def test_covariance_without_first_order(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_normalized_pert(t, rng)
            u = t.shape.random_unitary(rng)
            assert gauge_dirac(t, p, u).defect <= 1e-10

    def test_bare_four_term_law(self, corpus):
        for t in corpus.values():
            rng = np.random.default_rng(5)
            for _ in range(5):
                u = t.shape.random_unitary(rng)
                ad_sigma_u, ad_u_star = loop_context(t, u)
                t1, t2, t3 = bare_conjugation_terms(t, u)
                lhs = ad_sigma_u @ t.dirac @ ad_u_star
                assert rel_defect(lhs, t.dirac + t1 + t2 + t3) <= 1e-11

    def test_mixed_term_vanishes_with_first_order(self, toy):
        rng = np.random.default_rng(6)
        u = toy.shape.random_unitary(rng)
        _, _, t3 = bare_conjugation_terms(toy, u)
        assert np.linalg.norm(t3) <= 1e-12
        # and the gauged fluctuation keeps omega2 = 0
        p = random_normalized_pert(toy, rng)
        report = gauge_dirac(toy, p, u)
        f = report.gauged_fluctuation
        assert np.linalg.norm(f.omega2) <= 1e-11
        assert rel_defect(report.lhs, toy.dirac + f.omega1 + f.omega1_hat) <= 1e-10


# -- the shared gauge images against per-element formulas ---------------------------


def loop_context(t, u):
    """(Ad(sigma(u)), Ad(u)*), each factor its own pi or hat call."""
    su, us = t.sigma(u.element), u.element.star()
    return t.pi(su) @ t.hat(su), t.pi(us) @ t.hat(us)


def loop_bare_terms(t, u):
    us, su = u.element.star(), t.sigma(u.element)
    t1 = t.pi(su) @ t.bracket_sigma(t.dirac, us)
    t2 = t.hat(su) @ t.bracket_hat(t.dirac, us)
    t3 = t.hat(su) @ t.bracket_hat(t1, us)
    return t1, t2, t3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=triples(), seed=st.integers(0, 1000))
def test_shared_gauge_images_match_the_per_element_formulas(t, seed):
    u = t.shape.random_unitary(np.random.default_rng(seed))
    ad_sigma_u, ad_u_star = loop_context(t, u)
    if t.real.epsilon_prime is not None:   # gauge_dirac fluctuates, which needs eps'; a random J has none
        assert_close(gauge_dirac(t, pert_unit(t.shape), u).bare_lhs, ad_sigma_u @ t.dirac @ ad_u_star)
    for term, loop in zip(bare_conjugation_terms(t, u), loop_bare_terms(t, u)):
        assert_close(term, loop)


def test_selfadjointness_operators_match_the_per_element_formulas(u1u2):
    t = u1u2.triple
    rng = np.random.default_rng(13)
    p = selfadjoint_pert(t, rng)
    for _ in range(3):
        u = t.shape.random_unitary(rng)
        report = selfadjointness_report(t, p, u)
        fu, d_omega = report.frak_u, fluctuate(t, p).d_omega
        bracket = t.bracket_sigma(d_omega, fu)
        gamma_u = t.hat(t.sigma(fu)) @ bracket
        assert_close(report.gamma_u, gamma_u)
        assert_close(report.defect_op, gamma_u + t.epsilon_prime() * t.real.j.conjugate(gamma_u)
                     + t.bracket_hat(bracket, fu))


def test_gauge_dirac_and_the_criterion_share_the_gauged_fluctuation(u1u2, monkeypatch):
    import twistlab.pert as pert

    legs = []
    def counted(t, pairs, _f=pert._legs):
        legs.append(len(pairs))
        return _f(t, pairs)
    monkeypatch.setattr(pert, "_legs", counted)
    t = u1u2.triple
    rng = np.random.default_rng(14)
    p, u = selfadjoint_pert(t, rng), t.shape.random_unitary(rng)
    report = gauge_dirac(t, p, u)
    sa = selfadjointness_report(t, p, u)
    assert legs == [len(p.pairs), len(p.pairs)]   # p, then the gauged perturbation
    assert sa.gauge_sa_defect == rel_defect(report.rhs, report.rhs.conj().T)
    selfadjointness_report(t, p, t.shape.random_unitary(rng))   # another unitary is another gauged perturbation
    assert len(legs) == 3


class TestSelfAdjointness:
    def test_unit_unitary_all_zero(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(7)
        p = selfadjoint_pert(t, rng)
        report = selfadjointness_report(t, p, unit_unitary(t))
        assert report.criterion_defect <= 1e-12
        assert report.gauge_sa_defect <= 1e-12
        assert np.linalg.norm(report.gamma_u) <= 1e-12

    def test_twist_invariant_unitary_preserves_selfadjointness(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(8)
        p = selfadjoint_pert(t, rng)
        u = twist_invariant_unitary(t, rng)
        report = selfadjointness_report(t, p, u)
        assert report.frak_u.defect(t.shape.unit()) <= 1e-12
        assert report.criterion_defect <= 1e-11
        assert report.gauge_sa_defect <= 1e-11

    def test_recorded_witness_breaks_selfadjointness(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(9)
        p = selfadjoint_pert(t, rng)
        u, report = find_selfadjointness_witness(t, p, seed=0)
        assert report.criterion_defect >= 1e-3
        assert report.gauge_sa_defect >= 1e-3
        assert t.sigma(u.element).defect(u.element) > 1e-3   # not twist-invariant

    def test_decomposition_identity(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = selfadjoint_pert(t, rng)
            u = t.shape.random_unitary(rng)
            report = selfadjointness_report(t, p, u)
            assert report.decomposition_defect <= 1e-10

    def test_covanishing_on_corpus(self, u1u2):
        # criterion defect and gauge selfadjointness defect vanish together
        t = u1u2.triple
        rng = np.random.default_rng(11)
        p = selfadjoint_pert(t, rng)
        cases = [unit_unitary(t), twist_invariant_unitary(t, rng)]
        cases += [t.shape.random_unitary(rng) for _ in range(6)]
        for u in cases:
            report = selfadjointness_report(t, p, u)
            assert (report.criterion_defect <= 1e-10) == (report.gauge_sa_defect <= 1e-10)

    def test_requires_selfadjoint_start(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(12)
        p = random_normalized_pert(t, rng)          # generic: D_omega not selfadjoint
        assert not fluctuate(t, p).selfadjoint_d_omega
        with pytest.raises(ValueError, match="selfadjoint start"):
            selfadjointness_report(t, p, t.shape.random_unitary(rng))
