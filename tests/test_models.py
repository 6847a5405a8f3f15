import numpy as np
import pytest

import twistlab as tw
from twistlab.algebra import AlgebraElement, _element
from twistlab.linalg import dagger, rel_defect
from twistlab.models import (
    _BLK_LL_L,
    _BLK_LL_R,
    _BLK_LR_L,
    _BLK_LR_R,
    _BLK_M_L,
    _BLK_M_R,
    FIRST_ORDER_WITNESS,
    U1U2_SHAPE,
    assemble_fluctuated_dirac,
    extract_params,
    two_point_model,
    untwisted_params,
    verify_fluctuation_formula,
)
from twistlab.pert import _fluctuate_each, fluctuate, normalize, pert_unit
from twistlab.triple import check_axioms

from conftest import random_normalized_pert, random_pert


def identify_left_right(a: AlgebraElement) -> AlgebraElement:
    """Collapse the doubling by copying the r-components over the l-components."""
    if a.shape != U1U2_SHAPE:
        raise ValueError("element does not live in the doubled even algebra")
    b = list(a.blocks)
    b[_BLK_LR_L], b[_BLK_LL_L], b[_BLK_M_L] = b[_BLK_LR_R], b[_BLK_LL_R], b[_BLK_M_R]
    return AlgebraElement(U1U2_SHAPE, tuple(b))


def elem(**blocks):
    vals = [0.0, 0.0, np.zeros((2, 2)), 0.0, 0.0, np.zeros((2, 2))]
    keys = {"lr_r": 0, "ll_r": 1, "m_r": 2, "lr_l": 3, "ll_l": 4, "m_l": 5}
    for k, v in blocks.items():
        vals[keys[k]] = v
    return tw.AlgebraElement(U1U2_SHAPE, tuple(np.atleast_2d(v) for v in vals))


class TestBuild:
    def test_structure_relations_for_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            kx = complex(*rng.standard_normal(2))
            ky = complex(*rng.standard_normal(2))
            m = tw.build_u1u2(kx, ky)
            t = m.triple
            assert rel_defect(t.dirac, dagger(t.dirac)) == 0.0
            assert rel_defect(t.real.j.squared(), np.eye(8)) == 0.0
            assert rel_defect(t.real.j.conjugate(t.dirac), t.dirac) <= 1e-15
            assert rel_defect(t.real.j.conjugate(t.grading), -t.grading) == 0.0

    def test_first_order_vanishes_with_ky(self):
        m = tw.build_u1u2(1.0, 0.0)
        worst = max(
            m.triple.first_order_defect(a, b)
            for _, a in U1U2_SHAPE.basis() for _, b in U1U2_SHAPE.basis()
        )
        assert worst <= 1e-14

    def test_first_order_witness_recorded(self):
        m = tw.build_u1u2(1.0, 1.0)
        a = U1U2_SHAPE.matrix_unit(*FIRST_ORDER_WITNESS[0])
        b = U1U2_SHAPE.matrix_unit(*FIRST_ORDER_WITNESS[1])
        assert m.triple.first_order_defect(a, b) > 0.1


class TestParams:
    def test_single_pair_direct_substitution(self, u1u2):
        a = elem(lr_r=1.0)
        b = elem(ll_l=2.0, lr_l=0.0)
        p = tw.Perturbation(U1U2_SHAPE, ((a, b),))
        params = extract_params(u1u2, p)
        assert params.phi == pytest.approx(2.0)
        assert params.phi_prime == 0.0
        assert np.allclose(params.sigma_lower, 0.0)
        assert np.allclose(params.sigma_upper, 0.0)

    def test_unit_pert_gives_zero_params(self, u1u2):
        params = extract_params(u1u2, pert_unit(U1U2_SHAPE))
        assert params.phi == 0.0 and params.phi_prime == 0.0
        assert np.allclose(params.sigma_lower, 0.0)
        assert np.allclose(params.sigma_upper, 0.0)

    def test_entry_reading_oracle(self, u1u2):
        # read the parameters back from the matrix entries of omega1:
        # diagonal block entry (alpha=1, beta=2) is kx*phi, (2,1) is conj(kx)*phi';
        # the off-diagonal blocks carry ky*sigma_lower and conj(ky)*sigma_upper
        t = u1u2.triple
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_pert(t, rng)
            f = fluctuate(t, p)
            params = extract_params(u1u2, f.pert)
            w = f.omega1
            assert abs(w[0, 2] / u1u2.kx - params.phi) <= 1e-11
            assert abs(w[2, 0] / np.conj(u1u2.kx) - params.phi_prime) <= 1e-11
            assert np.allclose(w[4:6, 0] / u1u2.ky, params.sigma_lower, atol=1e-11)
            assert np.allclose(w[0, 4:6] / np.conj(u1u2.ky), params.sigma_upper, atol=1e-11)

    def test_wrong_shape_rejected(self, u1u2, toy):
        with pytest.raises(ValueError, match="doubled even algebra"):
            extract_params(u1u2, pert_unit(toy.shape))


class TestFormula:
    def test_unit_pert_echoes_dirac(self, u1u2):
        rep = verify_fluctuation_formula(u1u2, pert_unit(U1U2_SHAPE))
        assert rep.max_defect <= 1e-14
        assembled = assemble_fluctuated_dirac(u1u2, rep.params)
        assert rel_defect(assembled, u1u2.triple.dirac) <= 1e-14

    def test_random_perturbations(self, u1u2):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(25):
            worst = max(worst, verify_fluctuation_formula(u1u2, random_pert(u1u2.triple, rng)).max_defect)
        assert worst <= 1e-10

    def test_selfadjoint_restriction(self, u1u2):
        from twistlab.pert import eta_adjoint_pairs

        t = u1u2.triple
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = random_normalized_pert(t, rng)
            padj = eta_adjoint_pairs(t, p)
            sym = tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs)
                                  + tuple((0.5 * a, b) for a, b in padj.pairs))
            f = fluctuate(t, sym)
            assert f.selfadjoint_omega1
            params = extract_params(u1u2, f.pert)
            assert abs(params.phi_prime - np.conj(params.phi)) <= 1e-12
            assert np.allclose(params.sigma_upper, np.conj(params.sigma_lower), atol=1e-12)
            assert verify_fluctuation_formula(u1u2, sym).max_defect <= 1e-11


class TestBlockStructure:
    def test_omega1_second_diagonal_block_vanishes(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(4)
        f = fluctuate(t, random_pert(t, rng))
        assert np.linalg.norm(f.omega1[4:, 4:]) <= 1e-13
        assert np.linalg.norm(f.omega1_hat[:4, :4]) <= 1e-13

    def test_omega2_diagonal_blocks_vanish(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(5)
        f = fluctuate(t, random_pert(t, rng))
        assert np.linalg.norm(f.omega2[:4, :4]) <= 1e-13
        assert np.linalg.norm(f.omega2[4:, 4:]) <= 1e-13

    def test_omega1_hat_blocks_are_conjugates(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(6)
        f = fluctuate(t, random_pert(t, rng))
        assert np.allclose(f.omega1_hat[4:, 4:], np.conj(f.omega1[:4, :4]), atol=1e-12)
        assert np.allclose(f.omega1_hat[4:, :4], np.conj(f.omega1[:4, 4:]), atol=1e-12)
        assert np.allclose(f.omega1_hat[:4, 4:], np.conj(f.omega1[4:, :4]), atol=1e-12)

    def test_omega2_off_diagonal_rank_one(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(7)
        f = fluctuate(t, random_pert(t, rng))
        params = extract_params(u1u2, f.pert)
        low = f.omega2[4:6, :2]    # (alpha'=1, I') x (beta=1, J) corner
        expected = u1u2.ky * np.outer(params.sigma_lower, np.conj(params.sigma_upper))
        assert np.allclose(low, expected, atol=1e-11)
        assert abs(np.linalg.det(low)) <= 1e-11 * max(1.0, np.linalg.norm(low)) ** 2

    def test_identifying_left_right_gives_untwisted_params(self, u1u2):
        rng = np.random.default_rng(8)
        p = random_pert(u1u2.triple, rng)
        identified = tw.Perturbation(
            U1U2_SHAPE,
            tuple((identify_left_right(a), identify_left_right(b)) for a, b in p.pairs),
        )
        twisted = extract_params(u1u2, identified)
        plain = untwisted_params(p)
        assert abs(twisted.phi - plain.phi) <= 1e-12
        assert abs(twisted.phi_prime - plain.phi_prime) <= 1e-12
        assert np.allclose(twisted.sigma_lower, plain.sigma_lower, atol=1e-12)
        assert np.allclose(twisted.sigma_upper, plain.sigma_upper, atol=1e-12)


class TestCorpusTriples:
    def test_two_point_model_axioms(self):
        r = check_axioms(two_point_model())
        assert r.passes(require_first_order=True)
        assert r.ko_dimension == 0

    def test_random_real_triple_axioms(self):
        t = tw.random_real_triple(11)
        r = check_axioms(t)
        assert r.passes()
        assert r.regularity <= 1e-12
        assert r.order_zero <= 1e-12


# -- a stack of perturbations against the per-perturbation loop ------------------


def loop_draws(shape, rng, count):
    """The perturbations `model --verify count` drew one at a time: a pair count, then its pairs."""
    return [tw.Perturbation(shape, tuple((shape.random_element(rng, 0.6), shape.random_element(rng, 0.6))
                                         for _ in range(int(rng.integers(1, 4)))))
            for _ in range(count)]


def stacked(perts):
    """The perturbations as one stack, zero-padded to the largest pair count, as `random_perturbations` lays it out."""
    m = max(len(p) for p in perts)

    def side(legs):
        return _element(perts[0].shape, tuple(
            np.stack([np.concatenate([b, np.zeros((m - len(b),) + b.shape[1:], dtype=complex)]) for b in blocks])
            for blocks in zip(*(x.blocks for x in legs))))

    return tw.Perturbation._of(side([p.first for p in perts]), side([p.second for p in perts]))


def close(x, y, rtol=1e-13):
    """Entrywise within rtol of the largest entry of y (and of 1): rounding noise of sums in another order."""
    return np.abs(np.asarray(x) - y).max() <= rtol * max(1.0, np.abs(y).max())


def batches(model):
    """Stacks of mixed pair counts (1 to 3), of one perturbation, and with an already normalised member."""
    t, rng = model.triple, np.random.default_rng(21)
    mixed = loop_draws(t.shape, rng, 9)
    assert {len(p) for p in mixed} == {1, 2, 3}
    with_normalized = mixed[:3] + [random_normalized_pert(t, rng, 2)] + mixed[3:5]
    return [mixed, mixed[:1], with_normalized, [random_normalized_pert(t, rng, 1)]]


class TestStackedVerification:
    @pytest.fixture(params=["u1u2", "u1u2_ky0"])
    def model(self, request):
        return request.getfixturevalue(request.param)

    def test_each_perturbation_matches_the_loop(self, model):
        t = model.triple
        for perts in batches(model):
            report = verify_fluctuation_formula(model, stacked(perts))
            _, d_omega = _fluctuate_each(t, stacked(perts))
            assert report.max_defect.shape == d_omega.shape[:1] == (len(perts),)
            for k, p in enumerate(perts):
                single = verify_fluctuation_formula(model, p)
                assert abs(report.max_defect[k] - single.max_defect) <= 1e-15
                assert close(d_omega[k], fluctuate(t, p).d_omega)
                for name in ("phi", "phi_prime", "sigma_lower", "sigma_upper"):
                    assert close(getattr(report.params, name)[k], getattr(single.params, name))

    def test_only_the_perturbations_not_normalised_get_the_normalising_pair(self, model):
        t = model.triple
        perts = batches(model)[2]
        normalized, _ = _fluctuate_each(t, stacked(perts))
        for k, p in enumerate(perts):
            last = [(b[k, -1], bs[k, -1]) for b, bs in zip(normalized.first.blocks, normalized.second.blocks)]
            if p.is_normalized(t.sigma):
                assert all(not a.any() and not b.any() for a, b in last)
            else:
                want = normalize(t, p)
                assert all(close(a, wa[-1]) and np.array_equal(b, wb[-1])
                           for (a, b), wa, wb in zip(last, want.first.blocks, want.second.blocks))

    def test_one_failing_perturbation_fails_the_gate_of_the_stack(self, u1u2):
        e = U1U2_SHAPE.unit()
        rng = np.random.default_rng(22)
        perts = loop_draws(U1U2_SHAPE, rng, 2) + [tw.Perturbation(U1U2_SHAPE, ((1e200 * e, 1e200 * e),))]
        _fluctuate_each(u1u2.triple, stacked(perts[:2]))   # the others pass
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"omega2 formulas diverge \(defect nan\)"):
            verify_fluctuation_formula(u1u2, stacked(perts))
