"""The batched fluctuation sums against the per-pair loops they replace, and the report reuse rule.

The reference functions below are the loops that eta, eta_opp, act_mu and
fluctuate ran pair by pair.  The batched code forms each leg's images once and
takes every sum over the pairs as one GEMM, so its matrices agree with the
loops up to rounding.  The leg first-order diagnostic forms the second legs
exactly as the loop did, so first_order_defect is identical, bit for bit.
"""
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.linalg import DEFAULT_TOL, Tolerance, dagger, rel_defect
from twistlab.morita import opp_one_form_action_corrected
from twistlab.pert import OppPerturbation, Perturbation, act_mu, eta, eta_opp, fluctuate, normalize

from conftest import ladder_triple, random_pert
from test_scan_oracle import triples

RTOL = 1e-13
ATOL = 1e-14   # times max(1, max |entry|): rounding noise of an entry that is 0 in exact arithmetic


# -- reference loops ------------------------------------------------------------


def loop_eta(t, p):
    op = np.zeros((t.dim, t.dim), dtype=complex)
    for a, b in p.pairs:
        op += t.pi(a) @ t.twisted_commutator(b)
    return op


def loop_eta_opp(t, p):
    op = np.zeros((t.dim, t.dim), dtype=complex)
    for a, b in p.pairs:
        op += t.pi_opp(a) @ t.twisted_commutator_opp(b)
    return op


def loop_opp_action_corrected(t, q, w):
    """eta_opp(q) plus sum_j pi_opp(a_j) [w, pi_opp(b_j)]_{sigma_opp}, pair by pair."""
    op = loop_eta_opp(t, q)
    for a, b in q.pairs:
        op += t.pi_opp(a) @ t.bracket_sigma_opp(w, b)
    return op


def loop_act_mu(t, p, target):
    inner = np.zeros_like(target)
    for a, b in p.pairs:
        inner += t.hat(a) @ target @ t.hat(b)
    out = np.zeros_like(target)
    for a, b in p.pairs:
        out += t.pi(a) @ inner @ t.pi(b)
    return out


def loop_fluctuate(t, p, tol=DEFAULT_TOL):
    """The fields of the fluctuation report, computed pair by pair."""
    real = t.require_real()
    if not p.is_normalized(t.sigma, tol):
        p = normalize(t, p)
    ep = t.epsilon_prime(tol)
    omega1 = loop_eta(t, p)
    omega1_hat = ep * real.j.conjugate(omega1)
    omega2_a = np.zeros_like(omega1)
    omega2_b = np.zeros_like(omega1)
    for a, b in p.pairs:
        omega2_a += t.hat(a) @ t.bracket_hat(omega1, b)
        omega2_b += t.pi(a) @ (omega1_hat @ t.pi(b) - t.pi(t.sigma(b)) @ omega1_hat)
    gate = rel_defect(omega2_a, omega2_b)
    if gate > tol.abs_eps:
        raise ValueError(f"omega2 formulas diverge (defect {gate:.3e}); order-zero condition is likely broken")
    d_omega = t.dirac + omega1 + omega1_hat + omega2_a

    sinv = t.sigma.inverse()
    legs = [b for _, b in p.pairs]
    deltas = [t.twisted_commutator(b) for b in legs]
    opps = [(t.pi_opp(c), t.pi_opp(sinv(c))) for c in (b.star() for b in legs)]
    fo = 0.0
    for inner in deltas:
        n_inner = float(np.linalg.norm(inner))
        for op, op_twisted in opps:
            outer = inner @ op - op_twisted @ inner
            fo = max(fo, float(np.linalg.norm(outer)) / max(1.0, n_inner, float(np.linalg.norm(op))))
    return dict(
        omega1=omega1,
        omega1_hat=omega1_hat,
        omega2=omega2_a,
        d_omega=d_omega,
        selfadjoint_omega1=rel_defect(omega1, dagger(omega1)) <= tol.abs_eps,
        selfadjoint_d_omega=rel_defect(d_omega, dagger(d_omega)) <= tol.abs_eps,
        first_order_defect=fo,
    )


def outcome(f, *args):
    """f(*args), or the start of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc).split(" (")[0])


def assert_close(batched, loop):
    np.testing.assert_allclose(batched, loop, rtol=RTOL, atol=ATOL * max(1.0, float(np.abs(loop).max())))


# -- the batched sums against the loops -------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=triples(), m=st.integers(1, 5), seed=st.integers(0, 1000))
def test_batched_sums_match_the_loops(t, m, seed):
    rng = np.random.default_rng(seed)
    p = random_pert(t, rng, m)
    assert_close(eta(t, p).op, loop_eta(t, p))
    q = OppPerturbation(t.shape, p.pairs)
    assert_close(eta_opp(t, q), loop_eta_opp(t, q))

    loop = outcome(loop_fluctuate, t, p)
    f = outcome(fluctuate, t, p)
    if isinstance(loop, tuple):   # the omega2 gate, or the eps' detection, refuses both alike
        assert f == loop
        return
    for name in ("omega1", "omega1_hat", "omega2", "d_omega"):
        assert_close(getattr(f, name), loop[name])
    for name in ("selfadjoint_omega1", "selfadjoint_d_omega", "first_order_defect"):
        assert getattr(f, name) == loop[name]
    target = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    assert_close(act_mu(t, f.pert, target), loop_act_mu(t, f.pert, target))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=triples(), m=st.integers(1, 4), seed=st.integers(0, 1000))
def test_corrected_opposite_action_matches_the_pair_loop(t, m, seed):
    # one pair-bracket sum of D + w against eta_opp plus a bracket of w per pair, on a random w: O(1) values
    rng = np.random.default_rng(seed)
    q = OppPerturbation(t.shape, random_pert(t, rng, m).pairs)
    w = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    got, loop = opp_one_form_action_corrected(t, q, w), loop_opp_action_corrected(t, q, w)
    assume(np.linalg.norm(loop) > 1e-3)     # not the 1 x 1 ladder, whose brackets all vanish
    assert np.linalg.norm(got - loop) <= 1e-12 * np.linalg.norm(loop)


@pytest.mark.parametrize("build", [
    lambda: ladder_triple(6, 0),
    lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    tw.two_point_model,
], ids=["ladder6", "u1u2", "toy"])
def test_batched_fluctuation_matches_the_loop_on_fixed_triples(build):
    t = build()
    rng = np.random.default_rng(3)
    for m in (1, 3, 4):
        p = random_pert(t, rng, m)
        f, loop = fluctuate(t, p), loop_fluctuate(t, p)
        for name in ("omega1", "omega1_hat", "omega2", "d_omega"):
            assert_close(getattr(f, name), loop[name])
        assert f.first_order_defect == loop["first_order_defect"]
        assert_close(act_mu(t, f.pert, t.dirac), loop_act_mu(t, f.pert, t.dirac))


# -- zero pairs ----------------------------------------------------------------------


def test_zero_pairs_give_the_zero_operator(u1u2):
    t = u1u2.triple
    zero = np.zeros((t.dim, t.dim))
    assert np.array_equal(eta(t, Perturbation(t.shape, ())).op, zero)
    assert np.array_equal(eta_opp(t, OppPerturbation(t.shape, ())), zero)


# -- reuse of a normalised perturbation's report ----------------------------------


class TestReuse:
    FIELDS = ("omega1", "omega1_hat", "omega2", "d_omega")

    def test_the_normalised_perturbation_returns_its_report(self, u1u2):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(1), 2))
        g = fluctuate(t, f.pert)
        assert all(getattr(g, field.name) is getattr(f, field.name) for field in dataclasses.fields(f))

    def test_a_normalised_input_is_the_report_pert(self, u1u2):
        t = u1u2.triple
        p = normalize(t, random_pert(t, np.random.default_rng(2), 2))
        f = fluctuate(t, p)
        assert f.pert is p
        assert fluctuate(t, p).d_omega is f.d_omega

    def test_the_arrays_are_read_only(self, u1u2):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(3), 2))
        for name in self.FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(f, name)[0, 0] = 1.0

    def test_another_triple_recomputes(self, u1u2):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(4), 2))
        twin = tw.TwistedTriple(t.shape, t.rep, t.dirac, t.sigma, t.grading, t.real)
        g = fluctuate(twin, f.pert)
        assert g.pert is f.pert and g.d_omega is not f.d_omega
        assert np.array_equal(g.d_omega, f.d_omega)

    def test_another_tolerance_recomputes(self, u1u2):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(5), 2))
        g = fluctuate(t, f.pert, Tolerance(1e-9))
        assert g.d_omega is not f.d_omega
        assert fluctuate(t, f.pert, Tolerance(1e-9)).d_omega is g.d_omega
        assert fluctuate(t, f.pert, Tolerance(DEFAULT_TOL.abs_eps)).d_omega is not f.d_omega   # g replaced it

    def test_an_input_that_is_not_normalised_recomputes(self, u1u2):
        t = u1u2.triple
        p = random_pert(t, np.random.default_rng(6), 2)
        f, g = fluctuate(t, p), fluctuate(t, p)
        assert g.pert is not f.pert and g.d_omega is not f.d_omega
        assert np.array_equal(g.d_omega, f.d_omega)

    def test_the_perturbation_dies_with_its_report(self, u1u2):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(7), 2))
        fluctuate(t, f.pert)
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = weakref.ref(f.pert)
            del f
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


# -- the leg diagnostic, computed on first read ---------------------------------------


class TestLazyLegDefect:
    @pytest.fixture
    def pi_opp_calls(self, monkeypatch):
        calls = []
        def counted(self, a, _f=tw.TwistedTriple.pi_opp):
            calls.append(a)
            return _f(self, a)
        monkeypatch.setattr(tw.TwistedTriple, "pi_opp", counted)
        return calls

    def test_nothing_is_formed_until_the_first_read(self, u1u2, pi_opp_calls):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(8), 2))
        assert pi_opp_calls == []
        f.first_order_defect
        assert len(pi_opp_calls) == 2 * len(f.pert.pairs)

    def test_a_second_read_and_a_read_through_a_reused_report_form_nothing(self, u1u2, pi_opp_calls):
        t = u1u2.triple
        f = fluctuate(t, random_pert(t, np.random.default_rng(9), 2))
        g = fluctuate(t, f.pert)   # a reuse hit before the first read shares the value
        value = g.first_order_defect
        formed = len(pi_opp_calls)
        assert g.first_order_defect == value and f.first_order_defect == value
        assert fluctuate(t, f.pert).first_order_defect == value
        assert len(pi_opp_calls) == formed

    @pytest.mark.parametrize("build", [
        lambda: ladder_triple(4, 1),
        lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    ], ids=["ladder4", "u1u2"])
    def test_the_value_is_the_eager_formula(self, build):
        t = build()
        f = fluctuate(t, random_pert(t, np.random.default_rng(11), 3))
        legs = [b for _, b in f.pert.pairs]
        assert f.first_order_defect == max(t.first_order_defect(b, c.star()) for b in legs for c in legs)
