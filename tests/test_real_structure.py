"""The seams through which the real structure J acts: J-conjugation of operator
stacks, KO-sign detection, and connections held as one operator stack."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab as tw
from twistlab.linalg import detect_sign
from twistlab.morita import Connection, conjugate_connection, connection_with, grassmann
from twistlab.triple import _KO_GRADED, _KO_ODD, ko_dimension, ko_signs

from test_morita import unit_idempotent
from test_scan_oracle import triples


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- J-conjugation of matrices and stacks ------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=triples(), m=st.integers(0, 4), n=st.integers(1, 3), seed=st.integers(0, 1000))
def test_stacked_conjugations_are_the_per_matrix_products(t, m, n, seed):
    j, d = t.real.j, t.dim
    rng = np.random.default_rng(seed)
    for stack in (crand(rng, m, d, d), crand(rng, n, n, d, d)):
        hats, opps = j.conjugate(stack), j.conjugate_adjoint(stack)
        assert hats.shape == opps.shape == stack.shape
        for idx in np.ndindex(stack.shape[:-2]):
            x = stack[idx]
            assert np.array_equal(hats[idx], j.mat @ np.conj(x) @ j.inv_mat)
            assert np.array_equal(opps[idx], j.mat @ x.T @ j.inv_mat)
    x = crand(rng, d, d)
    assert np.array_equal(j.conjugate(x), j.mat @ np.conj(x) @ j.inv_mat)
    assert np.array_equal(j.conjugate_adjoint(x), j.mat @ x.T @ j.inv_mat)
    for bad in ((d, d + 1), (2, d + 1, d), (d,)):
        with pytest.raises(ValueError, match="shape mismatch"):
            j.conjugate(np.zeros(bad))
        with pytest.raises(ValueError, match="shape mismatch"):
            j.conjugate_adjoint(np.zeros(bad))


def test_pi_opp_is_the_adjoint_conjugation_of_pi(u1u2):
    t = u1u2.triple
    a = t.shape.random_element(np.random.default_rng(2))
    assert np.array_equal(t.pi_opp(a), t.real.j.conjugate_adjoint(t.pi(a)))
    assert np.array_equal(t.opp_images(t.rep.images_of([a]))[0], t.real.j.conjugate_adjoint(t.rep.images_of([a])[0]))


# -- KO signs ----------------------------------------------------------------------


@pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=3)))
def test_ko_dimension_of_every_graded_sign_triple(signs):
    assert ko_dimension(signs) == _KO_GRADED.get(signs)
    assert ko_dimension(signs[:2]) == _KO_ODD[signs[:2]]


def test_ko_dimension_table():
    assert sorted(_KO_GRADED.values()) == [0, 2, 4, 6]
    assert sorted(_KO_ODD.values()) == [1, 3, 5, 7]
    assert ko_dimension((1, 1, -1)) == 6 and ko_dimension((-1, 1)) == 3
    assert ko_dimension(iter([1, 1, 1])) == 0


@pytest.mark.parametrize("signs", [(None, 1), (1, None), (None, None), (1, 1, None), (None, 1, 1), (1, None, -1)])
def test_ko_dimension_is_none_when_a_sign_is_none(signs):
    assert ko_dimension(signs) is None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(t=triples(), rank=st.integers(1, 8), seed=st.integers(0, 1000))
def test_ko_signs_are_detect_sign_on_each_relation(t, rank, seed):
    j, dirac, grading = t.real.j, t.dirac, t.grading
    relations = [(j.squared(), np.eye(t.dim)), (j.conjugate(dirac), dirac)]
    if grading is not None:
        relations.append((j.conjugate(grading), grading))
    assert ko_signs(j, dirac, grading) == tuple(detect_sign(x, y) for x, y in relations)
    q, _ = np.linalg.qr(crand(np.random.default_rng(seed), t.dim, min(rank, t.dim)))
    p = q @ np.conj(q.T)
    restricted = ko_signs(j, dirac, grading, restrict=p)
    assert restricted == tuple(detect_sign(x @ p, y @ p) for x, y in relations)
    assert len(restricted) == (3 if grading is not None else 2)


def test_the_model_signs_give_ko_dimension_six(u1u2):
    t = u1u2.triple
    signs = ko_signs(t.real.j, t.dirac, t.grading)
    assert [s for s, _ in signs] == [1, 1, -1]
    assert ko_dimension(s for s, _ in signs) == 6 == tw.check_axioms(t, samples=2).ko_dimension


def test_the_loader_declares_the_detected_signs(u1u2):
    from twistlab.files import triple_from_json, triple_to_json

    t = triple_from_json(triple_to_json(u1u2.triple))
    assert (t.real.epsilon, t.real.epsilon_prime, t.real.epsilon_double_prime) == (1, 1, -1)
    odd = tw.TwistedTriple(t.shape, t.rep, t.dirac, t.sigma, real=tw.RealStructure(t.real.j))
    loaded = triple_from_json(triple_to_json(odd))
    assert (loaded.real.epsilon, loaded.real.epsilon_prime, loaded.real.epsilon_double_prime) == (1, 1, None)


# -- connections as one stack ------------------------------------------------------


def test_one_forms_are_one_read_only_stack(u1u2):
    t = u1u2.triple
    e = unit_idempotent(t.shape, 2)
    w = np.random.default_rng(4).standard_normal((t.dim, t.dim)) + 0j
    rows = [[w, 2 * w], [3 * w, 4 * w]]
    conn = connection_with(t, e, rows, "right")
    assert isinstance(conn.one_forms, np.ndarray)
    assert conn.one_forms.shape == (2, 2, t.dim, t.dim) and conn.one_forms.dtype == complex
    assert not conn.one_forms.flags.writeable
    assert np.array_equal(conn.one_forms[1][0], 3 * w) and np.array_equal(conn.one_forms[0, 1], 2 * w)
    with pytest.raises(ValueError):
        conn.one_forms[0, 0] += 1.0
    source = np.array(rows, dtype=complex)
    Connection("right", e, source)
    assert source.flags.writeable   # the caller's array is copied, not frozen
    assert grassmann(t, e).one_forms.shape == (2, 2, t.dim, t.dim)
    assert grassmann(t, e).is_grassmann()


@pytest.mark.parametrize("one_forms", [
    lambda w: [[w]],                          # 1 x 1 for n = 2
    lambda w: [[w, w], [w]],                  # ragged rows
    lambda w: [[w, w], [w, w[:-1]]],          # an entry of another shape
    lambda w: [[w, w], [w, w], [w, w]],       # 3 x 2
    lambda w: [[w[:, :-1]] * 2] * 2,          # non-square entries
    lambda w: [w, w],                         # one row of operators, not a matrix of them
])
def test_wrongly_shaped_one_forms_raise(u1u2, one_forms):
    t = u1u2.triple
    w = np.eye(t.dim, dtype=complex)
    with pytest.raises(ValueError):
        connection_with(t, unit_idempotent(t.shape, 2), one_forms(w), "right")


def test_conjugate_connection_is_the_per_entry_loop(u1u2_ky0):
    t = u1u2_ky0.triple
    rng = np.random.default_rng(6)
    e = unit_idempotent(t.shape, 2)
    conn = connection_with(t, e, crand(rng, 2, 2, t.dim, t.dim), "right")
    left = conjugate_connection(t, conn)
    ep, j = t.epsilon_prime(), t.real.j
    assert left.side == "left"
    for r in range(2):
        for k in range(2):
            assert np.array_equal(left.one_forms[r][k], ep * j.conjugate(conn.one_forms[k][r]))

