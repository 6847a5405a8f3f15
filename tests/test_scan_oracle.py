"""The batched and factored basis scans against the reference computations they replace.

The reference functions below are the loops that check_axioms and
Representation ran pair by pair, and the dense scans that formed every d x d
product of a basis pair before the scans ran on thin factors.  The scans
must reproduce their values and, for first order, the witness: the first
pair, in row-major (u, v) order and then over the random pairs, whose defect
is within WITNESS_RTOL of the maximum.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.algebra import stack
from twistlab.linalg import DEFAULT_TOL, dagger, rel_defect
from twistlab.triple import (
    WITNESS_RTOL,
    _basis_pair_scans,
    _first_order_grid,
    _random_pair_scans,
    _witness_index,
    check_axioms,
)

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


def _norms(x):
    return np.linalg.norm(x, axis=(-2, -1))


def dense_pair_scans(t):
    """Order-zero and first-order grids with every d x d product of a pair formed, O(N^2 d^3)."""
    rep, dirac = t.rep, t.dirac
    p = rep.basis_images()
    q = t.opp_images(p)
    qs = t.opp_images(rep.images(t.sigma.inverse().matrix()))
    inner = dirac @ p - rep.images(t.sigma.matrix()) @ dirac
    oz = np.empty((len(p), len(p)))
    fo = np.empty_like(oz)
    for u in range(len(p)):
        pq, qp = p[u] @ q, q @ p[u]
        oz[u] = _norms(pq - qp) / np.maximum(1.0, np.maximum(_norms(pq), _norms(qp)))
        fo[u] = _norms(inner[u] @ q - qs @ inner[u]) / np.maximum(1.0, np.maximum(_norms(inner[u]), _norms(q)))
    return oz, fo


def dense_homomorphism(rep):
    """Max defect of pi(E_u) pi(E_v) against pi(E_u E_v), with every product formed, O(N^2 d^3)."""
    p = rep.basis_images()
    uu, vv, ww = rep.shape.unit_products()
    worst = 0.0
    for u in range(len(p)):
        prod = p[u] @ p
        target = np.zeros_like(prod)
        target[vv[uu == u]] = p[ww[uu == u]]
        defects = _norms(prod - target) / np.maximum(1.0, np.maximum(_norms(prod), _norms(target)))
        worst = max(worst, float(defects.max()))
    return worst


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
    assert r.first_order_witness == (loop_witness if loop_fo > DEFAULT_TOL.abs_eps else None)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=triples(), m=st.integers(0, 3), n=st.integers(0, 4), seed=st.integers(0, 1000))
def test_first_order_grid_is_the_pair_defect(t, m, n, seed):
    # the unit leads both lists, so every grid holds defects that are exactly 0
    rng = np.random.default_rng(seed)
    left = [t.shape.unit()] + [t.shape.random_element(rng) for _ in range(m)]
    right = [t.shape.unit()] + [t.shape.random_element(rng) for _ in range(n)]
    sinv = t.sigma.inverse()
    grid = _first_order_grid(np.array([t.twisted_commutator(a) for a in left]),
                             np.array([t.pi_opp(b) for b in right]),
                             np.array([t.pi_opp(sinv(b)) for b in right]))
    assert grid.shape == (len(left), len(right))
    for i, a in enumerate(left):
        for k, b in enumerate(right):
            assert grid[i, k] == t.first_order_defect(a, b)
    _, fo = _random_pair_scans(t, stack(t.shape, left), stack(t.shape, right))
    assert_close(fo, grid)


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


# -- the factored scans against the dense ones ----------------------------------------


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


def rotated(t, seed):
    """t in the basis W H for a random unitary W: pi, D, Gamma and J conjugated by W, the declared signs kept."""
    w = random_unitary(t.dim, seed)
    wh = np.conj(w.T)
    units = tuple(w @ u @ wh for u in t.rep.unit_images)
    j = tw.AntilinearOp(w @ t.real.j.mat @ w.T)   # W J W^-1 psi = W M conj(W^H psi)
    grading = None if t.grading is None else w @ t.grading @ wh
    return tw.TwistedTriple(t.shape, tw.Representation(t.shape, t.dim, units), w @ t.dirac @ wh, t.sigma,
                            grading, dataclasses.replace(t.real, j=j))


def with_graded_j(t, seed, decades=5):
    """t with J = W diag(10^-k) V for random unitaries W, V: its images have singular values over `decades` decades."""
    rng = np.random.default_rng(seed)
    w, v = (np.linalg.qr(rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim)))[0]
            for _ in range(2))
    j = tw.AntilinearOp(w @ np.diag(np.logspace(0, -decades, t.dim)) @ v)
    return tw.TwistedTriple(t.shape, t.rep, t.dirac, t.sigma, real=tw.RealStructure(j))


def with_zero_block(t, scale=1.0):
    """C + A acting through 0 on the C summand and `scale` times pi on A."""
    shape = tw.AlgebraShape((1,) + t.shape.block_dims)
    units = (np.zeros((1, 1, t.dim, t.dim), dtype=complex),) + tuple(scale * u for u in t.rep.unit_images)
    sigma = tw.Automorphism(shape, (0,) + tuple(k + 1 for k in t.sigma.perm), (np.eye(1),) + t.sigma.conjugators)
    return tw.TwistedTriple(shape, tw.Representation(shape, t.dim, units), t.dirac, sigma, real=t.real)


FACTORED_CASES = {
    "ladder5": lambda: ladder_triple(5, 3),
    "ladder6": lambda: ladder_triple(6, 4),
    "ladder4_rotated": lambda: rotated(ladder_triple(4, 5), 6),
    "ladder3_graded_j": lambda: with_graded_j(ladder_triple(3, 9), 10),
    "zero_unit_image": lambda: with_zero_block(ladder_triple(3, 7)),
    "zero_representation": lambda: with_zero_block(ladder_triple(2, 8), scale=0.0),
}


def assert_factored_close(factored, dense, d):
    # values that are 0 in exact arithmetic are rounding noise on both sides, about d * eps
    np.testing.assert_allclose(factored, dense, rtol=1e-12, atol=8 * d * np.finfo(float).eps)


@pytest.mark.parametrize("name", FACTORED_CASES)
def test_factored_pair_scans_match_the_dense_scans(name):
    t = FACTORED_CASES[name]()
    oz, fo = _basis_pair_scans(t)
    dense_oz, dense_fo = dense_pair_scans(t)
    assert_factored_close(oz, dense_oz, t.dim)
    assert_factored_close(fo, dense_fo, t.dim)
    assert _witness_index(fo.ravel()) == _witness_index(dense_fo.ravel())
    eps = DEFAULT_TOL.abs_eps
    assert (oz.max() <= eps) == (dense_oz.max() <= eps)
    assert (fo.max() <= eps) == (dense_fo.max() <= eps)


@pytest.mark.parametrize("name", FACTORED_CASES)
def test_factored_homomorphism_matches_the_dense_scan(name):
    rep = FACTORED_CASES[name]().rep
    hom, dense = rep.homomorphism_defect(), dense_homomorphism(rep)
    assert_factored_close(hom, dense, rep.dim)
    assert (hom <= DEFAULT_TOL.abs_eps) == (dense <= DEFAULT_TOL.abs_eps)


def test_factored_homomorphism_matches_the_dense_scan_on_a_broken_representation():
    t = ladder_triple(3, 5)
    units = [u.copy() for u in t.rep.unit_images]
    units[0][1, 2] += 0.3 * np.eye(t.dim)   # full rank, so r = d for this stack
    rep = tw.Representation(t.shape, t.dim, tuple(units))
    assert_factored_close(rep.homomorphism_defect(), dense_homomorphism(rep), rep.dim)


def test_the_rotated_ladder_keeps_its_verdicts():
    # order zero holds and first order fails in every basis
    t = rotated(ladder_triple(4, 5), 6)
    r = check_axioms(t, samples=3)
    assert r.order_zero <= 1e-13 and r.first_order > 0.1 and r.rep_homomorphism <= 1e-13


# -- the grading check against its per-sample loop ------------------------------------


@pytest.mark.parametrize("build", [lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple, tw.two_point_model],
                         ids=["u1u2", "toy"])
@pytest.mark.parametrize("samples", [1, 6])
def test_grading_check_matches_its_per_sample_loop(build, samples):
    # Gamma rotated by a random unitary no longer commutes with pi, so the defects are O(1)
    t = build()
    w = random_unitary(t.dim, 4)
    t = dataclasses.replace(t, grading=w @ t.grading @ np.conj(w.T))
    got = check_axioms(t, samples=samples, seed=2).grading_commutes_algebra
    loop = loop_grading(t, samples, 2)
    assert loop > 1e-3 and abs(got - loop) <= 1e-12 * loop


# -- basis invariance: a unitary change of basis of H changes no verdict ---------------


INVARIANCE_CASES = {
    "u1u2": lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    "u1u2_ky0": lambda: tw.build_u1u2(1 + 0.5j, 0.0).triple,
    "random_real_triple": lambda: tw.random_real_triple(3),
    "ladder4": lambda: ladder_triple(4, 5),
}


@pytest.mark.parametrize("seed", [6, 7])
@pytest.mark.parametrize("name", INVARIANCE_CASES)
def test_check_axioms_is_invariant_under_a_unitary_change_of_basis(name, seed):
    """pi, D, Gamma and J' = W J W^T in the basis W H give the same report.

    Verdicts, signs and flags are identical.  An O(1) defect agrees to rtol
    1e-12; a defect that is 0 in exact arithmetic stays rounding noise on both
    sides.  The first-order witness is the same on every triple: None where
    first order holds, although the noise pairs of the two bases differ.
    """
    t = INVARIANCE_CASES[name]()
    r, rr = check_axioms(t, samples=5, seed=1), check_axioms(rotated(t, seed), samples=5, seed=1)
    assert r.failures() == rr.failures() and r.failures(True) == rr.failures(True)
    assert r.warnings == rr.warnings
    for f in dataclasses.fields(r):
        x, y = getattr(r, f.name), getattr(rr, f.name)
        if f.name in ("first_order_witness", "warnings"):
            continue
        if isinstance(x, float):
            if max(x, y) > 1e-12:
                assert abs(x - y) <= 1e-12 * max(x, y), f.name
            else:
                assert abs(x - y) <= 1e-13, f.name
        else:
            assert x == y, f.name
    assert r.first_order_witness == rr.first_order_witness
