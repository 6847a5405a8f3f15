import numpy as np
import pytest

import twistlab as tw
from twistlab.linalg import dagger, rel_defect
from twistlab.pert import (
    OppPerturbation,
    act_mu,
    eta,
    eta_adjoint_pairs,
    eta_opp,
    fluctuate,
    hat_pert,
    normalize,
    opp_adjoint_pairs,
    opp_mul,
    p_of_u,
    p_opp_of_u,
    pert_mul,
    pert_unit,
)

from conftest import random_normalized_pert, random_pert


class TestEta:
    def test_unit_pert_gives_zero(self, u1u2):
        t = u1u2.triple
        assert np.linalg.norm(eta(t, pert_unit(t.shape)).op) <= 1e-14

    def test_gauge_potential_shape_for_identity_twist(self, toy):
        rng = np.random.default_rng(0)
        u = toy.shape.random_unitary(rng)
        p = tw.Perturbation(toy.shape, ((u.element, u.element.star()),))
        expected = toy.pi(u.element) @ (
            toy.dirac @ toy.pi(u.element.star()) - toy.pi(u.element.star()) @ toy.dirac
        )
        assert rel_defect(eta(toy, p).op, expected) <= 1e-13


class TestNormalize:
    def test_already_normalized_appends_zero_pair(self, u1u2):
        t = u1u2.triple
        p = pert_unit(t.shape)
        q = normalize(t, p)
        assert len(q.pairs) == 2
        assert q.pairs[-1][0].norm() <= 1e-14
        assert q.is_normalized(t.sigma)
        assert rel_defect(eta(t, q).op, eta(t, p).op) <= 1e-14

    def test_empty_pert_normalizes_to_unit(self, u1u2):
        t = u1u2.triple
        q = normalize(t, tw.Perturbation(t.shape, ()))
        assert len(q.pairs) == 1
        assert q.pairs[0][0].defect(t.shape.unit()) == 0.0
        assert q.pairs[0][1].defect(t.shape.unit()) == 0.0

    def test_random_pert_eta_preserved(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_pert(t, rng)
            q = normalize(t, p)
            assert q.is_normalized(t.sigma)
            assert rel_defect(eta(t, q).op, eta(t, p).op) <= 1e-12


class TestSemigroup:
    def test_unit_is_neutral_at_operator_level(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(2)
        p = random_normalized_pert(t, rng)
        left = pert_mul(pert_unit(t.shape), p)
        right = pert_mul(p, pert_unit(t.shape))
        for q in (left, right):
            assert rel_defect(eta(t, q).op, eta(t, p).op) <= 1e-12
            assert rel_defect(act_mu(t, q, t.dirac), act_mu(t, p, t.dirac)) <= 1e-12

    def test_unitary_embedding_is_homomorphism(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(3)
        u, v = t.shape.random_unitary(rng), t.shape.random_unitary(rng)
        uv = tw.Unitary(u.element * v.element)
        prod = pert_mul(p_of_u(t, u), p_of_u(t, v))
        direct = p_of_u(t, uv)
        # exact at pair level: (sigma(u)sigma(v), v* u*) = (sigma(uv), (uv)*)
        assert prod.pairs[0][0].defect(direct.pairs[0][0]) <= 1e-13
        assert prod.pairs[0][1].defect(direct.pairs[0][1]) <= 1e-13

    def test_opp_unitary_embedding_is_homomorphism(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(4)
        u, v = t.shape.random_unitary(rng), t.shape.random_unitary(rng)
        uv = tw.Unitary(u.element * v.element)
        prod = opp_mul(p_opp_of_u(t, u), p_opp_of_u(t, v))
        direct = p_opp_of_u(t, uv)
        assert rel_defect(eta_opp(t, prod), eta_opp(t, direct)) <= 1e-12
        assert prod.is_normalized(t.sigma)

    def test_normalization_closed_under_product(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(5)
        for _ in range(5):
            p, q = random_normalized_pert(t, rng), random_normalized_pert(t, rng)
            assert pert_mul(p, q).is_normalized(t.sigma)

    def test_associativity_at_operator_level(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(6)
        p, q, r = (random_normalized_pert(t, rng, 2) for _ in range(3))
        left = pert_mul(pert_mul(p, q), r)
        right = pert_mul(p, pert_mul(q, r))
        assert rel_defect(eta(t, left).op, eta(t, right).op) <= 1e-11
        assert rel_defect(act_mu(t, left, t.dirac), act_mu(t, right, t.dirac)) <= 1e-11


class TestAdjoints:
    def test_unit_pair_fixed(self, u1u2):
        t = u1u2.triple
        p = pert_unit(t.shape)
        q = eta_adjoint_pairs(t, p)
        assert q.pairs[0][0].defect(t.shape.unit()) == 0.0

    def test_selfadjoint_one_form_reproduced(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(7)
        p = random_normalized_pert(t, rng)
        padj = eta_adjoint_pairs(t, p)
        sym = tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs)
                              + tuple((0.5 * a, b) for a, b in padj.pairs))
        w = eta(t, sym).op
        assert rel_defect(w, dagger(w)) <= 1e-12
        assert rel_defect(eta(t, eta_adjoint_pairs(t, sym)).op, w) <= 1e-12

    def test_adjoint_law(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_normalized_pert(t, rng)
            q = eta_adjoint_pairs(t, p)
            assert q.is_normalized(t.sigma)
            assert rel_defect(eta(t, q).op, dagger(eta(t, p).op)) <= 1e-11

    def test_requires_normalization(self, u1u2):
        t = u1u2.triple
        p = random_pert(t, np.random.default_rng(9))
        with pytest.raises(ValueError, match="normalised"):
            eta_adjoint_pairs(t, p)

    def test_opp_adjoint_law(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_normalized_pert(t, rng)
            q = hat_pert(t, p)
            qadj = opp_adjoint_pairs(t, q)
            assert qadj.is_normalized(t.sigma)
            assert rel_defect(eta_opp(t, qadj), dagger(eta_opp(t, q))) <= 1e-11


class TestHatPert:
    def test_unit_maps_to_unit(self, u1u2):
        t = u1u2.triple
        q = hat_pert(t, pert_unit(t.shape))
        assert q.pairs[0][0].defect(t.shape.unit()) == 0.0
        assert q.is_normalized(t.sigma)

    def test_eta_opp_of_hat_is_j_conjugate(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(11)
        p = random_normalized_pert(t, rng)
        lhs = eta_opp(t, hat_pert(t, p))
        rhs = t.epsilon_prime() * t.real.j.conjugate(eta(t, p).op)
        assert rel_defect(lhs, rhs) <= 1e-12

    def test_hat_is_semigroup_homomorphism(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(12)
        p, q = random_normalized_pert(t, rng, 2), random_normalized_pert(t, rng, 2)
        lhs = eta_opp(t, opp_mul(hat_pert(t, p), hat_pert(t, q)))
        rhs = eta_opp(t, hat_pert(t, pert_mul(p, q)))
        assert rel_defect(lhs, rhs) <= 1e-11

    def test_normalization_of_hat(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(13)
        for _ in range(5):
            assert hat_pert(t, random_normalized_pert(t, rng)).is_normalized(t.sigma)


class TestFluctuate:
    def test_unit_pert_returns_dirac(self, u1u2):
        t = u1u2.triple
        f = fluctuate(t, pert_unit(t.shape))
        for part in (f.omega1, f.omega1_hat, f.omega2):
            assert np.linalg.norm(part) <= 1e-13
        assert rel_defect(f.d_omega, t.dirac) <= 1e-13

    def test_first_order_triple_has_no_nonlinear_term(self, toy):
        rng = np.random.default_rng(14)
        p = random_normalized_pert(toy, rng)
        f = fluctuate(toy, p)
        assert f.first_order_defect <= 1e-12
        assert np.linalg.norm(f.omega2) <= 1e-12
        assert rel_defect(f.d_omega, toy.dirac + f.omega1 + f.omega1_hat) <= 1e-12

    def test_first_order_defect_pairs_the_legs_with_their_hats(self, u1u2):
        # omega2 brackets omega1 with hat(b_j) = pi_opp(b_j*).  Legs b in the right
        # null space of the first-order form, F(x, b) = 0 for every x, gave a defect
        # of about 1e-16 when the legs were paired unstarred, while ||omega2|| is O(1).
        t = u1u2.triple
        basis = [a for _, a in t.shape.basis()]
        form = np.array([np.concatenate([t.bracket_sigma_opp(t.twisted_commutator(a), c).ravel()
                                         for a in basis]) for c in basis]).T
        _, s, vh = np.linalg.svd(form)
        null = vh[np.count_nonzero(s > 1e-10 * s[0]):].conj()
        assert len(null) == 8
        rng = np.random.default_rng(0)

        def null_element():
            coeffs = null.T @ (rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null)))
            return sum((complex(c) * e for c, e in zip(coeffs, basis)), t.shape.zero())

        legs = [null_element() for _ in range(2)]
        f = fluctuate(t, tw.Perturbation(t.shape, tuple((t.shape.random_element(rng, 0.5), b) for b in legs)))
        all_legs = [b for _, b in f.pert.pairs]
        assert max(t.first_order_defect(b, c) for b in all_legs for c in all_legs) <= 1e-14
        assert np.linalg.norm(f.omega2) > 1.0
        assert f.first_order_defect > 0.1
        assert f.first_order_defect == max(t.first_order_defect(b, c.star()) for b in all_legs for c in all_legs)

        # legs whose adjoints lie in the null space: zero defect, and omega2 vanishes
        legs = [null_element().star() for _ in range(2)]
        f = fluctuate(t, tw.Perturbation(t.shape, tuple((t.shape.random_element(rng, 0.5), b) for b in legs)))
        assert f.first_order_defect <= 1e-14
        assert np.linalg.norm(f.omega2) <= 1e-13

    def test_report_assembly(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(15)
        f = fluctuate(t, random_normalized_pert(t, rng))
        assert rel_defect(f.d_omega, t.dirac + f.omega1 + f.omega1_hat + f.omega2) == 0.0
        assert f.omega2_gate_defect <= 1e-13
        assert f.j_compat_defect <= 1e-12
        assert np.linalg.norm(f.omega2) > 1e-3   # nonlinear term is alive here

    def test_nonlinearity_is_quadratic_not_affine(self, u1u2):
        # doubling the left legs doubles omega1 but quadruples omega2, so the
        # map omega1 -> D_omega is not affine
        t = u1u2.triple
        rng = np.random.default_rng(16)
        p = random_normalized_pert(t, rng)
        f1 = fluctuate(t, p)
        doubled = normalize(t, tw.Perturbation(t.shape, tuple((2.0 * a, b) for a, b in p.pairs)))
        f2 = fluctuate(t, doubled)
        assert rel_defect(f2.omega1, 2.0 * f1.omega1) <= 1e-12
        assert rel_defect(f2.omega2, 4.0 * f1.omega2) <= 1e-12
        assert np.linalg.norm(f2.omega2 - 2.0 * f1.omega2) > 1e-3

    def test_omega2_depends_only_on_omega1_for_normalized_pairs(self, rand6):
        # two different normalised decompositions with the same one-form give
        # the same nonlinear term: the dependence is on eta(p), quadratically
        t = rand6
        rng = np.random.default_rng(17)
        p = random_normalized_pert(t, rng, 2)
        f = fluctuate(t, p)
        shuffled = tw.Perturbation(t.shape, tuple(reversed(p.pairs)))
        f2 = fluctuate(t, shuffled)
        assert rel_defect(f.omega1, f2.omega1) <= 1e-13
        assert rel_defect(f.omega2, f2.omega2) <= 1e-12
        # genuinely different decomposition of the same form: append pairs
        # (x, y), (x sigma(y), e) minus their normalisation, built from scratch
        x, y = t.shape.random_element(rng, 0.4), t.shape.random_element(rng, 0.4)
        extra = tw.Perturbation(t.shape, p.pairs + ((x, y),))
        extra = normalize(t, extra)
        f3 = fluctuate(t, extra)
        delta1 = eta(t, tw.Perturbation(t.shape, ((x, y),))).op
        assert rel_defect(f3.omega1, f.omega1 + delta1) <= 1e-12


class TestMuAction:
    def test_unit_leaves_target(self, u1u2):
        t = u1u2.triple
        target = np.arange(64).reshape(8, 8).astype(complex)
        assert rel_defect(act_mu(t, pert_unit(t.shape), target), target) <= 1e-13

    def test_action_on_dirac_is_fluctuation(self, corpus):
        for t in corpus.values():
            rng = np.random.default_rng(18)
            p = random_normalized_pert(t, rng)
            f = fluctuate(t, p)
            assert rel_defect(act_mu(t, p, t.dirac), f.d_omega) <= 1e-12

    def test_transitivity(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(19)
        p, q = random_normalized_pert(t, rng, 2), random_normalized_pert(t, rng, 2)
        lhs = act_mu(t, q, act_mu(t, p, t.dirac))
        rhs = act_mu(t, pert_mul(q, p), t.dirac)
        assert rel_defect(lhs, rhs) <= 1e-11

    def test_requires_normalization(self, u1u2):
        t = u1u2.triple
        with pytest.raises(ValueError, match="normalised"):
            act_mu(t, random_pert(t, np.random.default_rng(20)), t.dirac)


class TestBimoduleInvolution:
    def test_involution_rules(self, corpus):
        # (a.w)^dagger = w^dagger . sigma(a)^* and (w.a)^dagger = sigma(a)^* . w^dagger
        for t in corpus.values():
            rng = np.random.default_rng(21)
            for _ in range(10):
                p = random_normalized_pert(t, rng)
                w = eta(t, p).op
                a = t.shape.random_element(rng)
                left = t.pi(t.sigma(a)) @ w              # a . w
                assert rel_defect(dagger(left), dagger(w) @ t.pi(t.sigma(a).star())) <= 1e-12
                right = w @ t.pi(a)                      # w . a
                sa_star = t.sigma(a).star()
                assert rel_defect(dagger(right), t.pi(t.sigma(sa_star)) @ dagger(w)) <= 1e-12


class TestOppNormalization:
    def test_equivalent_form(self, u1u2):
        # sum_j b_j sigma(a_j) = e characterizes normalisation on the opposite side
        t = u1u2.triple
        rng = np.random.default_rng(22)
        u = t.shape.random_unitary(rng)
        q = p_opp_of_u(t, u)
        assert q.is_normalized(t.sigma)
        bad = OppPerturbation(t.shape, ((2.0 * t.shape.unit(), t.shape.unit()),))
        assert not bad.is_normalized(t.sigma)
