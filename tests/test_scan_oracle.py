"""The batched basis scans against the per-pair loops they replace.

The reference functions below are the loops that check_axioms and
Representation ran pair by pair; the batched scans must reproduce their
values and, for first order, the witness: the first pair, in row-major
(u, v) order and then over the random pairs, whose defect is within
WITNESS_RTOL of the maximum.
"""
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.linalg import dagger, rel_defect
from twistlab.triple import WITNESS_RTOL, _basis_pair_scans, _witness_index, check_axioms

from conftest import ladder_triple

RTOL, ATOL = 1e-13, 1e-15   # ATOL: rounding noise of a defect that is 0 in exact arithmetic


# -- reference loops ------------------------------------------------------------


def loop_pairs(t, pairs):
    """(order_zero, first_order, first_order_witness) over labelled pairs (la, a, lb, b).

    The witness is the first pair whose defect is within WITNESS_RTOL of the maximum.
    """
    order_zero = 0.0
    defects = []
    for la, a, lb, b in pairs:
        order_zero = max(order_zero, rel_defect(t.pi(a) @ t.pi_opp(b), t.pi_opp(b) @ t.pi(a)))
        defects.append(t.first_order_defect(a, b))
    first_order = max(defects)
    witness = None
    if first_order > 0.0:
        for (la, _, lb, _), fo in zip(pairs, defects):
            if fo >= first_order * (1.0 - WITNESS_RTOL):
                witness = (la, lb)
                break
    return order_zero, first_order, witness


def basis_pairs(t):
    basis = list(t.shape.basis())
    return [(la, a, lb, b) for la, a in basis for lb, b in basis]


def randoms(t, samples, seed):
    """The random elements check_axioms draws first from its seeded generator."""
    rng = np.random.default_rng(seed)
    return [t.shape.random_element(rng) for _ in range(samples)]


def random_pairs(t, samples, seed):
    rs = randoms(t, samples, seed)
    return [(("rand", i), a, ("rand", k), b) for i, a in enumerate(rs) for k, b in enumerate(rs)][: 4 * samples]


def loop_homomorphism(rep):
    worst = 0.0
    units = list(rep.shape.basis())
    for (k, i, j), ea in units:
        pa = rep(ea)
        for (l, p, q), eb in units:
            expected = rep(rep.shape.matrix_unit(k, i, q)) if (k == l and j == p) \
                else np.zeros((rep.dim, rep.dim), dtype=complex)
            worst = max(worst, rel_defect(pa @ rep(eb), expected))
    return worst


def loop_involution(rep):
    return max(rel_defect(dagger(rep(ea)), rep(rep.shape.matrix_unit(k, j, i)))
               for (k, i, j), ea in rep.shape.basis())


def loop_grading(t, samples, seed):
    g = t.grading
    elements = [a for _, a in t.shape.basis()] + randoms(t, samples, seed)
    return max(rel_defect(g @ t.pi(a), t.pi(a) @ g) for a in elements)


def einsum_pi(rep, a):
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for blk, units in zip(a.blocks, rep.unit_images):
        out += np.einsum("ij,ijpq->pq", blk, units)
    return out


# -- triples ----------------------------------------------------------------------


@st.composite
def triples(draw):
    """Ladder triples (inner twist), U(1)xU(2) (multi-block, flip twist, graded),
    the graded two-point toy, the two-block generic triple and a ladder with a random J."""
    kind = draw(st.sampled_from(["ladder", "u1u2", "toy", "two_block", "random_j"]))
    event(kind)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(4)
    if kind == "ladder":
        return ladder_triple(draw(st.integers(1, 4)), seed)
    if kind == "random_j":   # a J unrelated to the representation, so order zero fails too
        t = ladder_triple(draw(st.integers(2, 3)), seed)
        q, _ = np.linalg.qr(rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim)))
        return tw.TwistedTriple(t.shape, t.rep, t.dirac, t.sigma, real=tw.RealStructure(tw.AntilinearOp(q)))
    if kind == "u1u2":
        return tw.build_u1u2(complex(z[0], z[1]), complex(z[2], z[3]), samples=1).triple
    if kind == "toy":
        return tw.two_point_model(complex(z[0], z[1]))
    return tw.random_real_triple(seed)


def assert_close(batched, loop):
    np.testing.assert_allclose(batched, loop, rtol=RTOL, atol=ATOL)


def check_pair_scans(t, samples, seed):
    oz, fo = _basis_pair_scans(t)
    pairs = basis_pairs(t)
    assert_close(oz.ravel(), [rel_defect(t.pi(a) @ t.pi_opp(b), t.pi_opp(b) @ t.pi(a)) for _, a, _, b in pairs])
    assert_close(fo.ravel(), [t.first_order_defect(a, b) for _, a, _, b in pairs])

    # witness over the basis pairs alone, where ties such as pi(E_00) + pi(E_11) = 1 occur
    _, _, loop_witness = loop_pairs(t, pairs)
    w = _witness_index(fo.ravel())
    labels = t.shape.labels()
    assert loop_witness == (None if w is None else (labels[w // len(labels)], labels[w % len(labels)]))

    # what check_axioms reports, random pairs included
    r = check_axioms(t, samples=samples, seed=seed)
    loop_oz, loop_fo, loop_witness = loop_pairs(t, pairs + random_pairs(t, samples, seed))
    assert_close(r.order_zero, loop_oz)
    assert_close(r.first_order, loop_fo)
    assert r.first_order_witness == loop_witness
    if t.grading is not None:
        assert_close(r.grading_commutes_algebra, loop_grading(t, samples, seed))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=triples(), samples=st.integers(1, 6), seed=st.integers(0, 1000))
def test_pair_scans_match_the_loop(t, samples, seed):
    check_pair_scans(t, samples, seed)


@pytest.mark.parametrize("build", [
    lambda: ladder_triple(6, 0),
    lambda: tw.build_u1u2(1.0, 1.0).triple,
    lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    lambda: tw.build_u1u2(1 + 0.5j, 0.0).triple,
    tw.two_point_model,
], ids=["ladder6", "u1u2", "u1u2_complex", "u1u2_ky0", "toy"])
def test_pair_scans_match_the_loop_on_fixed_triples(build):
    check_pair_scans(build(), 10, 0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(t=triples())
def test_representation_checks_match_the_loop(t):
    rep = t.rep
    assert_close(rep.homomorphism_defect(), loop_homomorphism(rep))
    assert_close(rep.involution_defect(), loop_involution(rep))
    a = t.shape.random_element(np.random.default_rng(0))
    assert_close(rep(a), einsum_pi(rep, a))


def test_broken_representation_matches_the_loop():
    # a perturbed image breaks both identities; the scans must see the same defects
    t = ladder_triple(3, 5)
    units = [u.copy() for u in t.rep.unit_images]
    units[0][1, 2] += 0.3 * np.eye(t.dim)
    rep = tw.Representation(t.shape, t.dim, tuple(units))
    assert rep.homomorphism_defect() > 0.1 and rep.involution_defect() > 0.1
    assert_close(rep.homomorphism_defect(), loop_homomorphism(rep))
    assert_close(rep.involution_defect(), loop_involution(rep))


def test_unit_images_are_views_of_the_stack():
    rep = tw.build_u1u2(1.0, 1.0).triple.rep
    assert rep.stack.shape == (rep.shape.basis_size, rep.dim * rep.dim)
    assert rep.stack.flags.c_contiguous
    for block in rep.unit_images:
        assert np.shares_memory(block, rep.stack)


def test_all_zero_defects_give_no_witness():
    # D = 0 makes every twisted commutator vanish exactly
    t = ladder_triple(3, 2)
    flat = tw.TwistedTriple(t.shape, t.rep, np.zeros((t.dim, t.dim)), t.sigma, real=t.real)
    _, fo = _basis_pair_scans(flat)
    assert not fo.any()
    r = check_axioms(flat, samples=3)
    assert r.first_order == 0.0 and r.first_order_witness is None
    assert loop_pairs(flat, basis_pairs(flat) + random_pairs(flat, 3, 0))[2] is None
