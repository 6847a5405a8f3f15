"""The batched and factored basis scans against the reference computations they replace.

The reference functions below are the loops that check_axioms and
Representation ran pair by pair, and the dense scans that formed every d x d
product of a basis pair before the scans ran on thin factors.  The scans
must reproduce their values and, for first order, the witness: the first
basis pair, in row-major (u, v) order, whose defect is within WITNESS_RTOL of
the maximum.

check_axioms decides every axiom on the matrix units.  It once also sampled
seeded random elements and pairs; `sampled_reference` rebuilds that report,
and its verdicts must be the basis verdicts.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.linalg import DEFAULT_TOL, dagger, rel_defect
from twistlab.triple import (
    WITNESS_RTOL,
    _basis_pair_scans,
    _compose,
    _Factors,
    _first_order_grid,
    _monomial_maps,
    _selector_factors,
    _sq_dist,
    _sq_norm,
    _witness_index,
    check_axioms,
)

from conftest import ladder_triple
from test_algebra import loop_check_regularity

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
    """The random elements the sampled check_axioms drew first from its seeded generator."""
    rng = np.random.default_rng(seed)
    return [t.shape.random_element(rng) for _ in range(samples)]


def random_pairs(t, samples, seed):
    """The sampled pairs: the first 4 * samples of the samples x samples grid, in row-major order."""
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


def loop_grading(t, samples=0, seed=0):
    """Max defect of Gamma pi(a) = pi(a) Gamma over the matrix units and then `samples` random elements."""
    g = t.grading
    elements = [a for _, a in t.shape.basis()] + randoms(t, samples, seed)
    return max(rel_defect(g @ t.pi(a), t.pi(a) @ g) for a in elements)


def sampled_reference(t, samples, seed):
    """The report of the sampled check_axioms: its basis report, with regularity, the grading check,
    order zero and first order also taken over seeded random elements, as it drew them.

    From one generator at seed it drew `samples` elements, which built the
    grading samples and the `random_pairs`, and then `samples` more for regularity.
    """
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        t.shape.random_element(rng)
    changes = {"regularity": loop_check_regularity(t.sigma, samples, rng)}
    if t.grading is not None:
        changes["grading_commutes_algebra"] = loop_grading(t, samples, seed)
    if t.real is not None:
        pairs = basis_pairs(t) + random_pairs(t, samples, seed)
        changes["order_zero"], changes["first_order"], _ = loop_pairs(t, pairs)
    return dataclasses.replace(check_axioms(t), **changes)


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


def check_pair_scans(t):
    oz, fo = _basis_pair_scans(t)
    pairs = basis_pairs(t)
    assert_close(oz.ravel(), [rel_defect(t.pi(a) @ t.pi_opp(b), t.pi_opp(b) @ t.pi(a)) for _, a, _, b in pairs])
    assert_close(fo.ravel(), [t.first_order_defect(a, b) for _, a, _, b in pairs])

    # the witness, where ties such as pi(E_00) + pi(E_11) = 1 occur
    loop_oz, loop_fo, loop_witness = loop_pairs(t, pairs)
    w = _witness_index(fo.ravel())
    labels = t.shape.labels()
    assert loop_witness == (None if w is None else (labels[w // len(labels)], labels[w % len(labels)]))

    # what check_axioms reports
    r = check_axioms(t)
    assert_close(r.order_zero, loop_oz)
    assert_close(r.first_order, loop_fo)
    assert r.first_order_witness == (loop_witness if loop_fo > DEFAULT_TOL.abs_eps else None)
    if t.grading is not None:
        assert_close(r.grading_commutes_algebra, loop_grading(t))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=triples())
def test_pair_scans_match_the_loop(t):
    check_pair_scans(t)


@pytest.mark.parametrize("build", [
    lambda: ladder_triple(6, 0),
    lambda: tw.build_u1u2(1.0, 1.0).triple,
    lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    lambda: tw.build_u1u2(1 + 0.5j, 0.0).triple,
    tw.two_point_model,
], ids=["ladder6", "u1u2", "u1u2_complex", "u1u2_ky0", "toy"])
def test_pair_scans_match_the_loop_on_fixed_triples(build):
    check_pair_scans(build())


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
    r = check_axioms(flat)
    assert r.first_order == 0.0 and r.first_order_witness is None
    assert loop_pairs(flat, basis_pairs(flat) + random_pairs(flat, 3, 0))[2] is None


# -- the factored scans against the dense ones ----------------------------------------


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


def rotated(t, seed):
    """t in the basis W H for a random unitary W: pi, D, Gamma and J conjugated by W, the declared signs kept."""
    return conjugated(t, random_unitary(t.dim, seed))


def conjugated(t, w):
    """t in the basis W H for a unitary W, the declared signs kept."""
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
    r = check_axioms(t)
    assert r.order_zero <= 1e-13 and r.first_order > 0.1 and r.rep_homomorphism <= 1e-13


# -- the monomial scans: index maps and selectors against the dense scans and the loops -----


def opp_maps(t):
    """The index maps of the pi_opp(E_v), or None when one of them is not monomial."""
    p = t.rep.basis_images()
    return _monomial_maps(lambda vs: t.opp_images(p[vs]), len(p), t.dim)


def takes_the_monomial_path(t):
    return t.rep.monomial_maps() is not None and opp_maps(t) is not None


def diagonal_unitary(d, seed):
    return np.diag(np.exp(2j * np.pi * np.random.default_rng(seed).random(d)))


def permutation(d, seed):
    return np.eye(d)[np.random.default_rng(seed).permutation(d)]


def with_moved_entry(t):
    """t with the 1 of pi(E_12) at (3, 6) moved to (0, 0): still one nonzero per row and column, not a homomorphism."""
    units = [u.copy() for u in t.rep.unit_images]
    units[0][1, 2, 3, 6], units[0][1, 2, 0, 0] = 0.0, 1.0
    return dataclasses.replace(t, rep=tw.Representation(t.shape, t.dim, tuple(units)))


MONOMIAL_CASES = {
    **{f"ladder{n}": (lambda n=n: ladder_triple(n, n)) for n in range(1, 7)},
    "u1u2": lambda: tw.build_u1u2(1.0, 1.0).triple,
    "u1u2_complex": lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    "u1u2_large_ky": lambda: tw.build_u1u2(0.3, -2.5 + 1j).triple,
    "u1u2_ky0": lambda: tw.build_u1u2(1 + 0.5j, 0.0).triple,
    "toy": tw.two_point_model,
    "ladder4_diagonal": lambda: conjugated(ladder_triple(4, 5), diagonal_unitary(16, 6)),
    "ladder4_permuted": lambda: conjugated(ladder_triple(4, 5), permutation(16, 7)),
    "ladder3_moved_entry": lambda: with_moved_entry(ladder_triple(3, 5)),
    "zero_unit_image": lambda: with_zero_block(ladder_triple(3, 7)),
}


def partial_permutations(rng, count, d, unit_values):
    """count (d, d) matrices with at most one nonzero per row and column: a random permutation with
    about a third of its columns dropped, its values 1 or random complex numbers."""
    x = np.zeros((count, d, d), dtype=complex)
    for m in x:
        cols = np.flatnonzero(rng.random(d) < 0.7)
        m[rng.permutation(d)[cols], cols] = 1.0 if unit_values else rng.standard_normal(len(cols)) + 1j
    return x


def dense_maps(m):
    """The (..., d, d) matrices of (..., d) index maps."""
    d = m.rows.shape[-1]
    out = np.zeros(m.rows.shape + (d,), dtype=complex)
    np.put_along_axis(out, m.rows[..., None, :], m.vals[..., None, :], axis=-2)
    return out


@pytest.mark.parametrize("unit_values", [True, False], ids=["permutations", "complex_values"])
@pytest.mark.parametrize("d", [1, 5, 12])
def test_index_maps_multiply_and_compare_as_their_matrices(d, unit_values):
    rng = np.random.default_rng(d)
    x, y = partial_permutations(rng, 3, d, unit_values), partial_permutations(rng, 4, d, unit_values)
    mx, my = _monomial_maps(lambda s: x[s], 3, d), _monomial_maps(lambda s: y[s], 4, d)
    assert np.array_equal(dense_maps(mx), x) and np.array_equal(dense_maps(my), y)
    xy, yx = _compose(mx, my), _compose(my, mx)
    np.testing.assert_allclose(dense_maps(xy), x[:, None] @ y[None], rtol=1e-15, atol=0)
    np.testing.assert_allclose(dense_maps(yx), y[:, None] @ x[None], rtol=1e-15, atol=0)
    yx_t = type(yx)(yx.rows.swapaxes(0, 1), yx.vals.swapaxes(0, 1))
    dense_diff = x[:, None] @ y[None] - (y[:, None] @ x[None]).swapaxes(0, 1)
    np.testing.assert_allclose(_sq_dist(xy, yx_t), np.linalg.norm(dense_diff, axis=(-2, -1)) ** 2, rtol=1e-14)
    np.testing.assert_allclose(_sq_norm(xy), np.linalg.norm(x[:, None] @ y[None], axis=(-2, -1)) ** 2, rtol=1e-14)


def with_extra_entry(t, row, col):
    """t with one more 1 in pi(E_12), at (row, col)."""
    units = [u.copy() for u in t.rep.unit_images]
    units[0][1, 2, row, col] = 1.0
    return dataclasses.replace(t, rep=tw.Representation(t.shape, t.dim, tuple(units)))


@pytest.mark.parametrize("row, col", [(3, 0), (0, 6)], ids=["two_in_a_row", "two_in_a_column"])
def test_a_second_nonzero_in_a_row_or_column_takes_the_general_path(row, col):
    # pi(E_12) of the n = 3 ladder has its 1s at (3 + k, 6 + k); pi_opp(E_12) has pi's columns as its rows
    t = with_extra_entry(ladder_triple(3, 5), row, col)
    assert t.rep.monomial_maps() is None and opp_maps(t) is None
    oz, fo = _basis_pair_scans(t)
    dense_oz, dense_fo = dense_pair_scans(t)
    assert_factored_close(oz, dense_oz, t.dim)
    assert_factored_close(fo, dense_fo, t.dim)
    assert_factored_close(t.rep.homomorphism_defect(), dense_homomorphism(t.rep), t.dim)


@pytest.mark.parametrize("name", MONOMIAL_CASES)
def test_monomial_scans_match_the_dense_scans_and_the_loops(name):
    t = MONOMIAL_CASES[name]()
    assert takes_the_monomial_path(t)
    oz, fo = _basis_pair_scans(t)
    dense_oz, dense_fo = dense_pair_scans(t)
    assert_factored_close(oz, dense_oz, t.dim)
    assert_factored_close(fo, dense_fo, t.dim)
    assert _witness_index(fo.ravel()) == _witness_index(dense_fo.ravel())
    hom = t.rep.homomorphism_defect()
    assert_factored_close(hom, dense_homomorphism(t.rep), t.dim)
    assert_close(hom, loop_homomorphism(t.rep))
    check_pair_scans(t)


def test_a_moved_entry_breaks_the_homomorphism_on_the_monomial_path():
    t = MONOMIAL_CASES["ladder3_moved_entry"]()
    assert takes_the_monomial_path(t)
    assert t.rep.homomorphism_defect() > 0.1
    assert "rep_homomorphism" in check_axioms(t).failures()


@pytest.mark.parametrize("name", ["ladder2", "ladder6", "u1u2_complex", "u1u2_ky0", "toy", "ladder4_permuted"])
def test_an_exact_monomial_representation_has_homomorphism_defect_zero(name):
    # 0/1 images multiply exactly, where the SVD path read rounding noise
    t = MONOMIAL_CASES[name]()
    assert t.rep.homomorphism_defect() == 0.0 and check_axioms(t).rep_homomorphism == 0.0


@pytest.mark.parametrize("build", [
    lambda: rotated(ladder_triple(4, 5), 6),
    lambda: rotated(tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple, 7),
], ids=["ladder4_rotated", "u1u2_rotated"])
def test_a_rotated_triple_takes_the_general_path(build):
    t = build()
    assert t.rep.monomial_maps() is None and opp_maps(t) is None


def test_a_random_j_keeps_the_svd_factors_of_pi_opp():
    # pi is monomial, its images under an unrelated J are not: order zero and first order take the GEMMs
    t = FACTORED_CASES["ladder3_graded_j"]()
    assert t.rep.monomial_maps() is not None and opp_maps(t) is None


@pytest.mark.parametrize("name", ["ladder4_diagonal", "u1u2_complex", "ladder3_moved_entry"])
def test_the_general_order_zero_tile_on_selectors_matches_the_dense_scan(name):
    """With the maps of pi withheld, order zero runs the SVD path's tile on the selectors of pi_opp."""
    t = MONOMIAL_CASES[name]()
    object.__setattr__(t.rep, "_maps", None)    # what monomial_maps caches for a stack that is not monomial
    assert t.rep.monomial_maps() is None and opp_maps(t) is not None
    oz, fo = _basis_pair_scans(t)
    dense_oz, dense_fo = dense_pair_scans(t)
    assert_factored_close(oz, dense_oz, t.dim)
    assert_factored_close(fo, dense_fo, t.dim)
    assert _witness_index(fo.ravel()) == _witness_index(dense_fo.ravel())


@pytest.mark.parametrize("name", ["ladder5", "u1u2_complex", "ladder4_diagonal", "zero_unit_image"])
def test_selector_factors_are_thin_factors(name):
    """U diag(s) Vh rebuilds each pi_opp(E_v); U has orthonormal kept columns, r is the largest rank,
    and the column gather of the selectors equals the GEMM with the same factors."""
    t = MONOMIAL_CASES[name]()
    q_maps = opp_maps(t)
    q = _selector_factors(q_maps)
    images = t.opp_images(t.rep.basis_images())
    np.testing.assert_allclose(q.u * q.s[:, None, :] @ q.vh, images, rtol=0, atol=4 * np.finfo(float).eps)
    np.testing.assert_allclose(q.norms, np.linalg.norm(images, axis=(1, 2)), rtol=1e-15)
    gram = dagger(q.u) @ q.u
    kept = (q.s > 0)[:, :, None] & (q.s > 0)[:, None, :]
    assert np.array_equal(np.where(kept, gram, 0), np.where(kept, np.eye(q.s.shape[1]), 0))
    assert q.s.shape[1] == max(np.linalg.matrix_rank(x) for x in images)
    left = np.random.default_rng(0).standard_normal((3, t.dim, t.dim)) + 0j
    gemm = _Factors(q.u, q.s, q.vh, q.norms)
    for sl in (slice(0, len(images)), slice(1, 3)):
        np.testing.assert_allclose(q.right_products(left, sl), gemm.right_products(left, sl), rtol=1e-14, atol=1e-15)


# -- faithfulness: orthogonal images against the rank ---------------------------------


FAITHFUL_CASES = {
    "ladder4": lambda: ladder_triple(4, 1),
    "u1u2": lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    "toy": tw.two_point_model,
    "random_real_triple": lambda: tw.random_real_triple(3),
    "zero_unit_image": lambda: with_zero_block(ladder_triple(3, 7)),
    "tiny_images": lambda: scaled(ladder_triple(2, 7), 1e-12),   # nonzero, but within tol of 0
}


def scaled(t, factor):
    return dataclasses.replace(t, rep=tw.Representation(t.shape, t.dim, tuple(factor * u for u in t.rep.unit_images)))


@pytest.mark.parametrize("rotate", [False, True], ids=["disjoint", "rotated"])
@pytest.mark.parametrize("name", FAITHFUL_CASES)
def test_faithfulness_is_the_rank_verdict(name, rotate):
    """Disjoint images are decided by their norms, any other stack by the rank; both give the rank's verdict."""
    t = FAITHFUL_CASES[name]()
    if rotate:
        w = random_unitary(t.dim, 3)
        units = tuple(w @ u @ np.conj(w.T) for u in t.rep.unit_images)
        t = dataclasses.replace(t, rep=tw.Representation(t.shape, t.dim, units))
    stack = t.rep.stack
    assert (np.count_nonzero(stack, axis=0) <= 1).all() != rotate
    eps = DEFAULT_TOL.abs_eps * max(1.0, float(np.abs(stack).max()))
    expected = np.linalg.matrix_rank(stack, tol=eps) == len(stack)
    assert t.rep.is_faithful() == expected
    assert expected == (name in ("ladder4", "toy", "random_real_triple"))


# -- the grading check against its per-element loop -----------------------------------


@pytest.mark.parametrize("build", [lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple, tw.two_point_model],
                         ids=["u1u2", "toy"])
@pytest.mark.parametrize("samples", [1, 6])
def test_grading_check_matches_its_per_sample_loop(build, samples):
    # Gamma rotated by a random unitary no longer commutes with pi, so the defects are O(1);
    # the value is the loop's over the matrix units, and `samples` random elements more change no verdict
    t = build()
    w = random_unitary(t.dim, 4)
    t = dataclasses.replace(t, grading=w @ t.grading @ np.conj(w.T))
    got = check_axioms(t).grading_commutes_algebra
    loop = loop_grading(t)
    assert loop > 1e-3 and abs(got - loop) <= 1e-12 * loop
    assert DEFAULT_TOL.accepts(got) == DEFAULT_TOL.accepts(loop_grading(t, samples, 2))


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
    r, rr = check_axioms(t), check_axioms(rotated(t, seed))
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


# -- the basis decides: verdicts of the sampled reference, and no dependence on samples or seed


REFERENCE_CORPUS = {
    "ladder6_seed0": lambda: ladder_triple(6, 0),
    "ladder6_seed11": lambda: ladder_triple(6, 11),
    "u1u2": lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
    "u1u2_ky0": lambda: tw.build_u1u2(1 + 0.5j, 0.0).triple,
    "toy": tw.two_point_model,
    "random_real_triple": lambda: tw.random_real_triple(3),
}


def check_basis_decides(t, samples, seed):
    """The basis report has the sampled verdicts and a witness that attains it, whatever samples and seed say."""
    r = check_axioms(t)
    ref = sampled_reference(t, samples, seed)
    assert r.failures() == ref.failures()
    assert r.failures(require_first_order=True) == ref.failures(require_first_order=True)
    if r.first_order_witness is not None:
        (la, lb), sh = r.first_order_witness, t.shape
        own = t.first_order_defect(sh.matrix_unit(*la), sh.matrix_unit(*lb))
        assert abs(own - r.first_order) <= WITNESS_RTOL * r.first_order
    assert check_axioms(t, samples=samples, seed=seed) == r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=triples(), samples=st.integers(1, 6), seed=st.integers(0, 1000))
def test_basis_verdicts_are_the_sampled_verdicts(t, samples, seed):
    check_basis_decides(t, samples, seed)


@pytest.mark.parametrize("name", REFERENCE_CORPUS)
def test_basis_verdicts_are_the_sampled_verdicts_on_the_corpus(name):
    check_basis_decides(REFERENCE_CORPUS[name](), 10, 0)


@pytest.mark.parametrize("kx, ky", [(1.0, 1.0), (1 + 0.5j, 0.7 - 0.2j), (1.0, 1e-6), (1.0, 2.0)])
def test_u1u2_first_order_is_abs_ky(kx, ky):
    # the first maximal basis pair has defect |ky| / max(1, |ky|), whatever samples and seed say
    r = tw.build_u1u2(kx, ky, samples=3, seed=5).axioms
    assert r.first_order == pytest.approx(min(abs(ky), 1.0), rel=1e-12, abs=0.0)
    assert r.first_order_witness == ((2, 0, 0), (3, 0, 0))


def test_a_first_order_defect_near_the_tolerance_passes_on_the_basis():
    # the samples read 1.5 to 2.7 times |ky|, above tol; the basis maximum is |ky|, within it
    t = tw.build_u1u2(1.0, 7e-11).triple
    r = check_axioms(t)
    assert r.first_order == pytest.approx(7e-11, rel=1e-12, abs=0.0)
    assert r.failures(require_first_order=True) == []
    for samples, seed in [(10, 0), (20, 0), (10, 3)]:
        assert sampled_reference(t, samples, seed).failures(require_first_order=True) == ["first_order"]
