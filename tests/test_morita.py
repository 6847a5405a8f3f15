import tracemalloc

import numpy as np
import pytest

import twistlab as tw
from twistlab.algebra import AlgebraShape
from twistlab.linalg import rel_defect
from twistlab.morita import (
    AlgebraMatrix,
    IdempotentData,
    amat_scalar,
    amat_unit,
    build_left_triple,
    build_real_triple,
    build_right_triple,
    check_hermitian,
    check_idempotent,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    connection_with,
    grassmann,
    lift_maps,
    opp_one_form_action_corrected,
)
from twistlab.pert import eta, eta_adjoint_pairs, fluctuate, hat_pert, normalize
from twistlab.triple import Representation, TwistedTriple

from conftest import (
    apply_connection,
    apply_connection_left,
    column,
    inner_product,
    module_vector,
    random_module_vector,
    random_normalized_pert,
    random_row_vector,
    row,
)


def selfadjoint_one_form(t, rng):
    p = random_normalized_pert(t, rng, 2)
    padj = eta_adjoint_pairs(t, p)
    sym = tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs)
                          + tuple((0.5 * a, b) for a, b in padj.pairs))
    return eta(t, sym).op


def half_idempotent(shape, n=2):
    h = 0.5 * shape.unit()
    return IdempotentData(AlgebraMatrix(shape, tuple(tuple(h for _ in range(n)) for _ in range(n))))


def unit_idempotent(shape, n):
    return IdempotentData(amat_unit(shape, n))


@pytest.fixture(scope="module")
def flip_cc():
    """A = C + C with the flip twist; D off-diagonal; J entrywise conjugation base."""
    shape = AlgebraShape((1, 1))
    images = []
    for k in range(2):
        arr = np.zeros((1, 1, 2, 2), complex)
        arr[0, 0][k, k] = 1.0
        images.append(arr)
    rep = Representation(shape, 2, tuple(images))
    dirac = np.array([[0, 0.8 + 0.3j], [0.8 - 0.3j, 0]])
    flip = tw.Automorphism(shape, (1, 0), (np.eye(1), np.eye(1)))
    return TwistedTriple(shape, rep, dirac, flip)


class TestIdempotent:
    def test_unit_idempotent_all_clear(self, u1u2):
        t = u1u2.triple
        report = check_idempotent(t, unit_idempotent(t.shape, 2))
        assert report.passes
        assert report.twist_invariant and report.twist_commuting
        assert max(report.idempotent_defect, report.selfadjoint_defect,
                   report.lift_defect, report.lift_inverse_defect) == 0.0

    def test_unit_or_zero_entries_pass(self, u1u2):
        t = u1u2.triple
        e, z = t.shape.unit(), t.shape.zero()
        data = IdempotentData(AlgebraMatrix(t.shape, ((e, z), (z, z))))
        assert check_idempotent(t, data).passes

    def test_lift_violating_projection_rejected(self, flip_cc):
        t = flip_cc
        e_proj = tw.AlgebraElement(t.shape, (np.eye(1), np.zeros((1, 1))))
        data = IdempotentData(AlgebraMatrix(t.shape, ((e_proj,),)))
        report = check_idempotent(t, data)
        assert report.lift_defect > 0.5            # e sigma(e) e = 0 here
        assert report.twist_commuting              # delta(e) = 0, so the other gate passes
        assert not report.twist_invariant
        with pytest.raises(ValueError, match=r"e sigma\(e\) e = e fails"):
            lift_maps(t, data)

    def test_lift_roundtrip_fails_for_violator(self, flip_cc):
        # direct check that Sigma Sigma^{-1} != id on the violating module:
        # the flip moves the support of e to the other summand, so e sigma(xi) = 0
        t = flip_cc
        e_proj = tw.AlgebraElement(t.shape, (np.eye(1), np.zeros((1, 1))))
        em = AlgebraMatrix(t.shape, ((e_proj,),))
        xi = em * module_vector(t.shape, (e_proj,))
        assert column(xi)[0].norm() == 1.0
        fwd = em * xi.map(t.sigma)
        assert column(fwd)[0].norm() <= 1e-14
        back = em * fwd.map(t.sigma.inverse())
        assert column(back)[0].defect(column(xi)[0]) > 0.5


class TestLift:
    def test_identity_twist_gives_identity_lift(self, toy):
        lift = lift_maps(toy, unit_idempotent(toy.shape, 2))
        rng = np.random.default_rng(1)
        xi = random_module_vector(lift.idempotent.matrix, rng)
        out = lift.sigma_lift(xi)
        assert all(o.defect(x) <= 1e-12 for o, x in zip(column(out), column(xi)))

    def test_self_morita_lift_is_sigma(self, u1u2):
        t = u1u2.triple
        lift = lift_maps(t, unit_idempotent(t.shape, 1))
        rng = np.random.default_rng(2)
        a = t.shape.random_element(rng)
        assert column(lift.sigma_lift(module_vector(t.shape, (a,))))[0].defect(t.sigma(a)) <= 1e-12
        b = AlgebraMatrix(t.shape, ((a,),))
        assert lift.sigma_prime(b).entries[0][0].defect(t.sigma(a)) <= 1e-12

    def test_module_morphism_property(self, u1u2):
        # Sigma(xi a) = Sigma(xi) sigma(a)
        t = u1u2.triple
        lift = lift_maps(t, half_idempotent(t.shape))
        rng = np.random.default_rng(3)
        for _ in range(10):
            xi = random_module_vector(lift.idempotent.matrix, rng)
            a = t.shape.random_element(rng)
            lhs = column(lift.sigma_lift(module_vector(t.shape, [x * a for x in column(xi)])))
            rhs = [s * t.sigma(a) for s in column(lift.sigma_lift(xi))]
            assert all(l.defect(r) <= 1e-12 for l, r in zip(lhs, rhs))

    def test_roundtrip_on_50_vectors(self, u1u2):
        t = u1u2.triple
        lift = lift_maps(t, half_idempotent(t.shape))
        rng = np.random.default_rng(4)
        for _ in range(50):
            xi = random_module_vector(lift.idempotent.matrix, rng)
            back = lift.sigma_lift_inv(lift.sigma_lift(xi))
            assert all(b.defect(x) <= 1e-12 for b, x in zip(column(back), column(xi)))

    def test_sigma_prime_automorphism_and_regularity(self, u1u2):
        t = u1u2.triple
        e = half_idempotent(t.shape)
        lift = lift_maps(t, e)
        rng = np.random.default_rng(5)
        em = e.matrix
        for _ in range(10):
            raw_b = AlgebraMatrix(t.shape, tuple(
                tuple(t.shape.random_element(rng, 0.7) for _ in range(2)) for _ in range(2)))
            raw_c = AlgebraMatrix(t.shape, tuple(
                tuple(t.shape.random_element(rng, 0.7) for _ in range(2)) for _ in range(2)))
            b, c = em * raw_b * em, em * raw_c * em
            assert lift.sigma_prime(b * c).defect(lift.sigma_prime(b) * lift.sigma_prime(c)) <= 1e-11
            assert lift.sigma_prime_inv(lift.sigma_prime(b)).defect(b) <= 1e-11
            assert lift.sigma_prime(b.star()).defect(lift.sigma_prime_inv(b).star()) <= 1e-11


class TestConnections:
    def test_grassmann_leibniz(self, u1u2):
        # nabla0(xi a) - (nabla0 xi) a = xi (x) delta(a), compared through the
        # one-form action on H after contracting the module legs
        t = u1u2.triple
        e = half_idempotent(t.shape)
        conn = grassmann(t, e, "right")
        rng = np.random.default_rng(6)
        for _ in range(5):
            xi = random_module_vector(e.matrix, rng)
            a = t.shape.random_element(rng)
            xi_a = xi * amat_scalar(a, 2)
            probe = random_module_vector(e.matrix, rng)
            lhs = np.zeros((t.dim, t.dim), complex)
            for x0, om in apply_connection(t, conn, xi_a):
                lhs += t.pi(t.sigma(inner_product(probe, x0))) @ om
            for x0, om in apply_connection(t, conn, xi):
                lhs -= t.pi(t.sigma(inner_product(probe, x0))) @ om @ t.pi(a)
            rhs = t.pi(t.sigma(inner_product(probe, xi))) @ t.twisted_commutator(a)
            assert rel_defect(lhs, rhs) <= 1e-11

    def test_twist_invariant_idempotent_kills_sandwich(self, u1u2):
        # e . delta(e) . e = 0 when sigma(e) = e
        t = u1u2.triple
        em = half_idempotent(t.shape).matrix
        n = 2
        delta_e = [[t.twisted_commutator(em.entries[i][j]) for j in range(n)] for i in range(n)]
        left = [[sum(t.pi(t.sigma(em.entries[i][k])) @ delta_e[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        total = [[sum(left[i][k] @ t.pi(em.entries[k][j]) for k in range(n))
                  for j in range(n)] for i in range(n)]
        assert max(np.linalg.norm(total[i][j]) for i in range(n) for j in range(n)) <= 1e-12

    def test_kernel_vectors_have_zero_grassmann_image(self, u1u2):
        # entries proportional to the unit lie in ker(delta)
        t = u1u2.triple
        e = unit_idempotent(t.shape, 2)
        conn = grassmann(t, e, "right")
        xi = module_vector(t.shape, (0.3 * t.shape.unit(), -1.7 * t.shape.unit()))
        for _, om in apply_connection(t, conn, xi):
            assert np.linalg.norm(om) <= 1e-13

    def test_grassmann_is_hermitian(self, u1u2):
        t = u1u2.triple
        for e in (unit_idempotent(t.shape, 2), half_idempotent(t.shape)):
            assert check_hermitian(t, grassmann(t, e, "right")).passes

    def test_selfadjoint_matrix_part_is_hermitian(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(7)
        w = selfadjoint_one_form(t, rng)
        e = half_idempotent(t.shape)
        conn = connection_with(t, e, [[0.5 * w, 0.5 * w], [0.5 * w, 0.5 * w]], "right")
        report = check_hermitian(t, conn)
        assert report.passes

    def test_non_selfadjoint_part_detected(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(8)
        b = t.shape.random_element(rng)
        bad = 1j * t.twisted_commutator(b)     # i E11 (x) [D, b]_sigma pattern at n = 1
        e = unit_idempotent(t.shape, 1)
        conn = connection_with(t, e, [[bad]], "right")
        report = check_hermitian(t, conn)
        assert report.selfadjoint_defect > 1e-3
        assert report.identity_defect > 1e-6
        assert not report.passes

    def test_self_morita_selfadjoint_omega_hermitian(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(9)
        w = selfadjoint_one_form(t, rng)
        conn = connection_with(t, unit_idempotent(t.shape, 1), [[w]], "right")
        assert check_hermitian(t, conn).passes


class TestConjugateConnection:
    def test_grassmann_maps_to_left_grassmann(self, u1u2_ky0):
        t = u1u2_ky0.triple
        e = half_idempotent(t.shape)
        left = conjugate_connection(t, grassmann(t, e, "right"))
        assert left.side == "left"
        assert left.is_grassmann()
        assert check_hermitian(t, left).passes

    def test_self_morita_entry(self, u1u2_ky0):
        t = u1u2_ky0.triple
        rng = np.random.default_rng(10)
        w = selfadjoint_one_form(t, rng)
        conn = connection_with(t, unit_idempotent(t.shape, 1), [[w]], "right")
        left = conjugate_connection(t, conn)
        expected = t.epsilon_prime() * t.real.j.conjugate(w)
        assert rel_defect(left.one_forms[0][0], expected) <= 1e-12
        assert check_hermitian(t, left).passes

    def test_left_leibniz(self, u1u2_ky0):
        # nabla_opp(a zeta) = a nabla_opp(zeta) + delta_opp(a) (x) zeta, contracted
        # against a probe row with the balanced pairing w (x) z -> (w . {z, probe})
        t = u1u2_ky0.triple
        e = half_idempotent(t.shape)
        left = conjugate_connection(t, grassmann(t, e, "right"))
        rng = np.random.default_rng(11)
        sinv = t.sigma.inverse()
        pair = lambda zp, z: sum((x * y.star() for x, y in zip(row(zp)[1:], row(z)[1:])),
                                 row(zp)[0] * row(z)[0].star())
        contract = lambda om, z0, probe: t.pi_opp(sinv(pair(z0, probe))) @ om
        for _ in range(5):
            zeta = random_row_vector(e.matrix, rng)
            a = t.shape.random_element(rng)
            a_zeta = amat_scalar(a, 2) * zeta
            probe = random_row_vector(e.matrix, rng)
            lhs = np.zeros((t.dim, t.dim), complex)
            for om, z0 in apply_connection_left(t, left, a_zeta):
                lhs += contract(om, z0, probe)
            # a . nabla(zeta): module law a.w = w a^opp on the one-form leg
            for om, z0 in apply_connection_left(t, left, zeta):
                lhs -= contract(om @ t.pi_opp(a), z0, probe)
            rhs = contract(t.twisted_commutator_opp(a), zeta, probe)
            assert rel_defect(lhs, rhs) <= 1e-11

    def test_requires_first_order(self, u1u2):
        t = u1u2.triple   # ky != 0 violates first order
        e = unit_idempotent(t.shape, 1)
        with pytest.raises(ValueError, match="first order"):
            conjugate_connection(t, grassmann(t, e, "right"))


class TestRightTriple:
    def test_self_morita_is_fluctuation(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(12)
        w = selfadjoint_one_form(t, rng)
        e = unit_idempotent(t.shape, 1)
        rt = build_right_triple(lift_maps(t, e), connection_with(t, e, [[w]], "right"))
        assert check_morita_triple(rt, samples=4).passes
        assert rel_defect(rt.d_r, t.dirac + w) <= 1e-13

    def test_unit_idempotent_amplifies_dirac(self, u1u2):
        t = u1u2.triple
        e = unit_idempotent(t.shape, 2)
        rt = build_right_triple(lift_maps(t, e), grassmann(t, e, "right"))
        assert check_morita_triple(rt, samples=4).passes
        assert rel_defect(rt.d_r, np.kron(np.eye(2), t.dirac)) <= 1e-13

    def test_axiom_suite_on_twist_invariant_idempotent(self, u1u2):
        t = u1u2.triple
        e = half_idempotent(t.shape)
        rt = build_right_triple(lift_maps(t, e), grassmann(t, e, "right"))
        report = check_morita_triple(rt)
        assert report.passes

    def test_bracket_identity_with_one_form_part(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(13)
        w = selfadjoint_one_form(t, rng)
        e = half_idempotent(t.shape)
        conn = connection_with(t, e, [[0.5 * w, 0.5 * w], [0.5 * w, 0.5 * w]], "right")
        rt = build_right_triple(lift_maps(t, e), conn)
        report = check_morita_triple(rt)
        assert report.passes
        assert report.bracket_identity_defect <= 1e-11

    def test_rejects_non_hermitian_connection(self, u1u2):
        t = u1u2.triple
        rng = np.random.default_rng(14)
        b = t.shape.random_element(rng)
        e = unit_idempotent(t.shape, 1)
        conn = connection_with(t, e, [[1j * t.twisted_commutator(b)]], "right")
        with pytest.raises(ValueError, match="not hermitian"):
            build_right_triple(lift_maps(t, e), conn)

    def test_rejection_names_the_sandwich_defect(self, u1u2):
        # equal blocks are selfadjoint and satisfy the identity, but e . M . e != M
        # for the idempotent onto (1, -i)/sqrt(2)
        t = u1u2.triple
        w = selfadjoint_one_form(t, np.random.default_rng(42))
        h = 0.5 * t.shape.unit()
        e = IdempotentData(AlgebraMatrix(t.shape, ((h, 1j * h), (-1j * h, h))))
        conn = connection_with(t, e, [[0.5 * w, 0.5 * w], [0.5 * w, 0.5 * w]], "right")
        report = check_hermitian(t, conn)
        assert max(report.identity_defect, report.selfadjoint_defect) <= 1e-12
        assert report.sandwich_defect > 1e-3
        with pytest.raises(ValueError, match=r"not hermitian .*sandwich \d"):
            build_right_triple(lift_maps(t, e), conn)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_refuses_what_is_not_a_projection_as_lift_maps_does(self, u1u2, side):
        # the bases of the hermiticity identity exist for a projection alone; an idempotent that is not
        # selfadjoint, and a selfadjoint matrix that is not idempotent, are refused before any basis is formed
        t = u1u2.triple
        h, z = t.shape.unit(), t.shape.zero()
        for entries in (((h, h), (z, z)), ((h, z), (z, 0.5 * h))):
            e = IdempotentData(AlgebraMatrix(t.shape, entries))
            with pytest.raises(ValueError) as lifted:
                lift_maps(t, e)
            with pytest.raises(ValueError) as checked:
                check_hermitian(t, grassmann(t, e, side))
            assert str(checked.value) == str(lifted.value) and "not a selfadjoint idempotent" in str(lifted.value)
            assert "isometries" not in e.__dict__


class TestLeftTriple:
    def test_self_morita_is_opposite_fluctuation(self, u1u2_ky0):
        t = u1u2_ky0.triple
        rng = np.random.default_rng(15)
        w = selfadjoint_one_form(t, rng)
        e = unit_idempotent(t.shape, 1)
        left = conjugate_connection(t, connection_with(t, e, [[w]], "right"))
        lt = build_left_triple(lift_maps(t, e), left)
        assert check_morita_triple(lt, samples=4).passes
        expected = t.dirac + t.epsilon_prime() * t.real.j.conjugate(w)
        assert rel_defect(lt.d_l, expected) <= 1e-12

    def test_unit_idempotent_amplifies_dirac(self, u1u2_ky0):
        t = u1u2_ky0.triple
        e = unit_idempotent(t.shape, 2)
        lt = build_left_triple(lift_maps(t, e), conjugate_connection(t, grassmann(t, e, "right")))
        assert check_morita_triple(lt, samples=4).passes
        assert rel_defect(lt.d_l, np.kron(np.eye(2), t.dirac)) <= 1e-13

    def test_axiom_suite(self, u1u2_ky0):
        t = u1u2_ky0.triple
        e = half_idempotent(t.shape)
        lt = build_left_triple(lift_maps(t, e), conjugate_connection(t, grassmann(t, e, "right")))
        assert check_morita_triple(lt).passes


class TestRealTriple:
    def test_self_morita_linear_fluctuation(self, u1u2_ky0):
        # first-order triple: D' = D + omega1 + omega1_hat
        t = u1u2_ky0.triple
        rng = np.random.default_rng(16)
        w = selfadjoint_one_form(t, rng)
        e = unit_idempotent(t.shape, 1)
        real = build_real_triple(lift_maps(t, e), connection_with(t, e, [[w]], "right"))
        assert check_real_triple(real, samples=4).passes
        expected = t.dirac + w + t.epsilon_prime() * t.real.j.conjugate(w)
        assert rel_defect(real.d_prime, expected) <= 1e-12
        assert rel_defect(real.d_second, expected) <= 1e-12

    def test_grassmann_amplification(self, u1u2_ky0):
        t = u1u2_ky0.triple
        e = unit_idempotent(t.shape, 2)
        real = build_real_triple(lift_maps(t, e), grassmann(t, e, "right"))
        report = check_real_triple(real)
        assert report.passes
        assert rel_defect(real.d_prime @ real.projection,
                          np.kron(np.eye(4), t.dirac) @ real.projection) <= 1e-12

    def test_check_peak_is_two_pair_grids_and_six_stacks(self, u1u2_ky0):
        """On the half idempotent, check_real_triple holds at most the two sides of one pair grid at once.

        With U the units of B, m = dim H' and r = rank P, a pair grid is U^2 m r
        complex numbers and a stack of operators U m^2; the bound is two grids
        and six stacks (pi', pi'_opp, their twisted images, the commutators and
        one temporary).  A difference formed into a third grid, or norms taken
        on a copy of a swapped-axes view, goes over it.
        """
        t = u1u2_ky0.triple
        real = build_real_triple(lift_maps(t, half_idempotent(t.shape)), grassmann(t, half_idempotent(t.shape)))
        check_real_triple(real)     # first call fills the lazy caches of the lift
        u, m, _ = real.pi_prime(real.lift.idempotent.units).shape
        r = np.linalg.matrix_rank(real.projection)
        bound = 16 * (2 * u * u * m * r + 6 * u * m * m)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_real_triple(real)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (u, m, r) == (12, 32, 8)
        assert peak <= bound, f"peak {peak} B above the bound {bound} B"

    def test_full_report_with_nontrivial_idempotent_and_m(self, u1u2_ky0):
        t = u1u2_ky0.triple
        rng = np.random.default_rng(17)
        w = selfadjoint_one_form(t, rng)
        e = half_idempotent(t.shape)
        conn = connection_with(t, e, [[0.5 * w, 0.5 * w], [0.5 * w, 0.5 * w]], "right")
        real = build_real_triple(lift_maps(t, e), conn)
        report = check_real_triple(real)
        assert report.passes
        assert report.d_second_defect <= 1e-10
        assert report.ko_dimension == 6     # inherited from the input triple
        assert report.order_zero <= 1e-11
        assert report.first_order <= 1e-11

    def test_toy_real_construction(self, toy):
        rng = np.random.default_rng(18)
        w = selfadjoint_one_form(toy, rng)
        e = half_idempotent(toy.shape)
        conn = connection_with(toy, e, [[0.5 * w, 0.5 * w], [0.5 * w, 0.5 * w]], "right")
        real = build_real_triple(lift_maps(toy, e), conn)
        report = check_real_triple(real)
        assert report.passes
        assert report.ko_dimension == 0

    def test_refuses_first_order_violation(self, u1u2):
        t = u1u2.triple
        e = unit_idempotent(t.shape, 1)
        with pytest.raises(ValueError, match="first-order"):
            build_real_triple(lift_maps(t, e), grassmann(t, e, "right"))

    def test_requires_real_and_graded(self, rand6):
        e = unit_idempotent(rand6.shape, 1)
        with pytest.raises(ValueError, match="real, graded"):
            build_real_triple(lift_maps(rand6, e), grassmann(rand6, e, "right"))


class TestCrossModuleAgreement:
    def test_corrected_opposite_action_reproduces_nonlinear_term(self, u1u2):
        # without first order, the right-module action of an opposite one-form
        # gains exactly the correction that the fluctuation calls omega2
        t = u1u2.triple
        rng = np.random.default_rng(19)
        p = random_normalized_pert(t, rng)
        f = fluctuate(t, p)
        hat = hat_pert(t, f.pert)
        corrected = opp_one_form_action_corrected(t, hat, f.omega1)
        assert rel_defect(corrected, f.omega1_hat + f.omega2) <= 1e-11

    def test_correction_vanishes_under_first_order(self, toy):
        t = toy
        rng = np.random.default_rng(20)
        p = random_normalized_pert(t, rng)
        f = fluctuate(t, p)
        hat = hat_pert(t, f.pert)
        from twistlab.pert import eta_opp
        corrected = opp_one_form_action_corrected(t, hat, f.omega1)
        assert rel_defect(corrected, eta_opp(t, hat)) <= 1e-11
