"""The index-gather paths of J and pi against the GEMMs they replace.

When J's matrix is monomial (a permutation with phases), `AntilinearOp.conjugate`
and `conjugate_adjoint` gather entries instead of multiplying by the matrix and
its inverse.  When the basis images of pi are in normal form (every column of
the stack has at most one nonzero, equal to 1) and large enough,
`Representation.images` scatters coefficients instead of multiplying by the
stack.  The GEMMs stay the general path, and here they are the oracles: with
unit phases and in normal form the two paths agree bit for bit.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.morita import AlgebraMatrix, IdempotentData, build_real_triple, grassmann, lift_maps
from twistlab.triple import SCATTER_MIN_DIM

from conftest import ladder_triple

PHASE_RTOL = 1e-14   # a phase ratio ph_i / ph_k against ph_i * inv(M)[p_k, k]: a few roundings apart


@lru_cache(maxsize=None)
def ladder(n):
    return ladder_triple(n, 0)


@lru_cache(maxsize=None)
def u1u2():
    return tw.build_u1u2(1 + 0.5j, 0.0, samples=1).triple


@lru_cache(maxsize=None)
def morita_j():
    """J' = kron(swap, J) of the real Morita export of U(1)xU(2) through e = 1/2 [[1, 1], [1, 1]]."""
    t = u1u2()
    h = 0.5 * t.shape.unit()
    e = IdempotentData(AlgebraMatrix(t.shape, ((h, h), (h, h))))
    return build_real_triple(lift_maps(t, e), grassmann(t, e)).j_prime


def j_of(source):
    if source == "u1u2":
        return u1u2().real.j
    if source == "morita":
        return morita_j()
    return ladder(source).real.j


def crand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(d, rng):
    return np.linalg.qr(crand(rng, (d, d)))[0]


def stack_shape(kind, d):
    return {"one": (d, d), "stack": (3, d, d), "grid": (2, 2, d, d)}[kind]


SOURCES = st.sampled_from([2, 3, 4, 5, 6, "u1u2", "morita"])
KINDS = st.sampled_from(["one", "stack", "grid"])


# -- J --------------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(source=SOURCES, kind=KINDS, seed=st.integers(0, 1000))
def test_gather_conjugations_equal_the_gemms(source, kind, seed):
    j = j_of(source)
    assert j._monomial is not None and j._monomial.factor is None
    x = crand(np.random.default_rng(seed), stack_shape(kind, len(j.mat)))
    assert np.array_equal(j.conjugate(x), j.mat @ np.conj(x) @ j.inv_mat)
    assert np.array_equal(j.conjugate_adjoint(x), j.mat @ x.swapaxes(-1, -2) @ j.inv_mat)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 12), kind=KINDS, quarter_turns=st.booleans(), seed=st.integers(0, 1000))
def test_phased_monomial_agrees_with_the_gemm(d, kind, quarter_turns, seed):
    """A permutation times phases, powers of i or arbitrary unit phases, gathers with its phase ratios."""
    rng = np.random.default_rng(seed)
    p = rng.permutation(d)
    phases = 1j ** rng.integers(0, 4, d) if quarter_turns else np.exp(2j * np.pi * rng.random(d))
    m = np.zeros((d, d), dtype=complex)
    m[np.arange(d), p] = phases
    j = tw.AntilinearOp(m)
    assert j._monomial is not None
    x = crand(rng, stack_shape(kind, d))
    np.testing.assert_allclose(j.conjugate(x), m @ np.conj(x) @ j.inv_mat, rtol=PHASE_RTOL, atol=0)
    np.testing.assert_allclose(j.conjugate_adjoint(x), m @ x.swapaxes(-1, -2) @ j.inv_mat,
                               rtol=PHASE_RTOL, atol=0)


@pytest.mark.parametrize("source", [4, 6, "u1u2", "morita"])
def test_rotated_j_takes_the_gemm_path(source):
    """W J W^-1 for a unitary W is not monomial, so both conjugations are the GEMMs."""
    j = j_of(source)
    rng = np.random.default_rng(3)
    w = random_unitary(len(j.mat), rng)
    jw = tw.AntilinearOp(w @ j.mat @ w.T)
    assert jw._monomial is None
    x = crand(rng, (2, len(j.mat), len(j.mat)))
    assert np.array_equal(jw.conjugate(x), jw.mat @ np.conj(x) @ jw.inv_mat)
    assert np.array_equal(jw.conjugate_adjoint(x), jw.mat @ x.swapaxes(-1, -2) @ jw.inv_mat)


@pytest.mark.parametrize("m", [[[1, 1], [0, 0]], [[1, 0], [1, 0]], [[0, 1], [0, 0]]],
                         ids=["row_of_two", "column_of_two", "zero_row"])
def test_singular_patterns_are_not_monomial(m):
    """d nonzeros that miss a row or a column take the GEMM path, which rejects the singular J."""
    j = tw.AntilinearOp(np.array(m, dtype=complex))
    assert j._monomial is None
    with pytest.raises(ValueError, match="real structure not invertible"):
        j.conjugate_adjoint(np.eye(2))


def test_mutating_the_source_matrix_leaves_j_unchanged():
    """J copies its matrix, so a later write to the caller's array cannot pair a new mat with a cached inverse."""
    src = ladder(3).real.j.mat.copy()
    j = tw.AntilinearOp(src)
    x = crand(np.random.default_rng(0), (9, 9))
    before, before_adjoint, inverse = j.conjugate(x), j.conjugate_adjoint(x), j.inv_mat.copy()
    src[:] = random_unitary(9, np.random.default_rng(1))
    assert np.array_equal(j.conjugate(x), before)
    assert np.array_equal(j.conjugate_adjoint(x), before_adjoint)
    assert np.array_equal(j.inv_mat, inverse)
    assert np.array_equal(j.mat @ j.inv_mat, np.eye(9))
    with pytest.raises(ValueError):
        j.mat[0, 0] = 2.0
    with pytest.raises(ValueError):
        j.inv_mat[0, 0] = 2.0


# -- pi -------------------------------------------------------------------------------


def coefficient_shapes(n):
    return [(n,), (3, n), (2, 3, n), (0, n)]


def assert_images_equal_the_gemm(rep, seed):
    rng = np.random.default_rng(seed)
    for shape in coefficient_shapes(len(rep.stack)):
        c = crand(rng, shape)
        got = rep.images(c)
        assert got.shape == shape[:-1] + (rep.dim, rep.dim)
        assert np.array_equal(got, (c @ rep.stack).reshape(got.shape))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), seed=st.integers(0, 1000))
def test_scattered_images_equal_the_gemm(n, seed):
    rep = ladder(n).rep
    assert (rep._scatter is not None) == (rep.dim >= SCATTER_MIN_DIM)
    assert_images_equal_the_gemm(rep, seed)


def test_scatter_matches_elements_and_real_coefficients():
    """pi of algebra elements and of real coefficient rows goes through the same scatter."""
    t = ladder(5)
    assert t.rep._scatter is not None
    rng = np.random.default_rng(4)
    xs = [t.shape.random_element(rng) for _ in range(3)]
    coeffs = np.array([x.coefficients() for x in xs])
    assert np.array_equal(t.rep.images_of(xs), (coeffs @ t.rep.stack).reshape(3, t.dim, t.dim))
    real = rng.standard_normal((2, len(t.rep.stack)))
    assert np.array_equal(t.rep.images(real), (real @ t.rep.stack).reshape(2, t.dim, t.dim))


def rotated_rep(rep, seed):
    w = random_unitary(rep.dim, np.random.default_rng(seed))
    units = tuple(w @ u @ np.conj(w.T) for u in rep.unit_images)
    return tw.Representation(rep.shape, rep.dim, units)


@pytest.mark.parametrize("rep", [
    pytest.param(lambda: u1u2().rep, id="u1u2_small"),
    pytest.param(lambda: tw.random_real_triple(0).rep, id="random_real_triple_small"),
    pytest.param(lambda: rotated_rep(ladder(4).rep, 2), id="ladder4_rotated"),
    pytest.param(lambda: rotated_rep(ladder(6).rep, 2), id="ladder6_rotated"),
    pytest.param(lambda: tw.Representation(ladder(4).shape, 16, (2 * ladder(4).rep.unit_images[0],)),
                 id="ladder4_scaled"),
])
def test_other_stacks_take_the_gemm_path(rep):
    """Small stacks, stacks out of normal form and nonzeros other than 1 keep the GEMM."""
    rep = rep()
    assert rep._scatter is None
    assert_images_equal_the_gemm(rep, 5)


def test_dense_column_stack_takes_the_gemm_path():
    """A column holding two nonzeros, each 1, is not normal form even at a large sparse d."""
    units = ladder(4).rep.unit_images[0].copy()
    units[0, 1, 0, 0] = 1.0   # pi(E_00) already has a 1 at (0, 0)
    rep = tw.Representation(ladder(4).shape, 16, (units,))
    assert rep._scatter is None
    assert_images_equal_the_gemm(rep, 6)
