"""The packed algebra matrices, the Morita block assemblers and the first-order gate against the loops they replaced.

The loops below are the reference oracles: block placement is exact, so the
entries, +, - and star of a packed matrix, the grid assemblers and the exported
operators must equal them bit for bit; products, the entrywise twist, norms,
the sandwiches and the first-order gate reassociate sums and agree to rtol 1e-13.
"""
import numpy as np
import pytest

import twistlab as tw
from twistlab.morita import (
    AlgebraMatrix,
    IdempotentData,
    _blocks,
    _grid,
    _on_cols,
    _on_rows,
    _opp_grid,
    _pi_grid,
    _sandwich_left,
    _sandwich_right,
    _triple_first_order_defect,
    amat_random,
    amat_unit,
    build_left_triple,
    build_real_triple,
    build_right_triple,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    connection_with,
    grassmann,
    lift_maps,
)

from twistlab.pert import eta, eta_adjoint_pairs

from conftest import ladder_triple, random_normalized_pert
from test_morita import half_idempotent, selfadjoint_one_form

RTOL = 1e-13


# ---------------------------------------------------------------------------
# loop oracles
# ---------------------------------------------------------------------------


def loop_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]


def loop_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]


def loop_mul(a, b):
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a.shape.zero()
            for k in range(n):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return out


def loop_star(a):
    return [[a.entries[j][i].star() for j in range(a.n)] for i in range(a.n)]


def loop_map(a, f):
    return [[f(x) for x in row] for row in a.entries]


def loop_norm(entries):
    return float(np.sqrt(sum(x.norm() ** 2 for row in entries for x in row)))


def loop_random(shape, n, rng, scale=1.0):
    """The entries `amat_random` samples, drawn entry by entry in row-major order."""
    return [[shape.random_element(rng, scale) for _ in range(n)] for _ in range(n)]


def _blk_pi(t, m):
    n, d = m.n, t.dim
    out = np.zeros((n * d, n * d), complex)
    for i in range(n):
        for j in range(n):
            out[i * d:(i + 1) * d, j * d:(j + 1) * d] = t.pi(m.entries[i][j])
    return out


def _blk_ops(ops, d):
    n = len(ops)
    out = np.zeros((n * d, n * d), complex)
    for i in range(n):
        for j in range(n):
            out[i * d:(i + 1) * d, j * d:(j + 1) * d] = ops[i][j]
    return out


def _blk_right(t, m):
    n, d = m.n, t.dim
    out = np.zeros((n * d, n * d), complex)
    for j in range(n):
        for l in range(n):
            out[j * d:(j + 1) * d, l * d:(l + 1) * d] = t.pi_opp(m.entries[l][j])
    return out


def _blk_transposed(ops, d):
    """Block (l, j) carries ops[j][l]: the one-form layout of the left triple."""
    n = len(ops)
    out = np.zeros((n * d, n * d), complex)
    for l in range(n):
        for j in range(n):
            out[l * d:(l + 1) * d, j * d:(j + 1) * d] = ops[j][l]
    return out


def _left_op_alg(t, m):
    n, d = m.n, t.dim
    out = np.zeros((n * n * d, n * n * d), complex)
    for i in range(n):
        for k in range(n):
            blk = t.pi(m.entries[i][k])
            for j in range(n):
                r, c = (i * n + j) * d, (k * n + j) * d
                out[r:r + d, c:c + d] += blk
    return out


def _right_op_alg(t, m):
    n, d = m.n, t.dim
    out = np.zeros((n * n * d, n * n * d), complex)
    for j in range(n):
        for l in range(n):
            blk = t.pi_opp(m.entries[l][j])
            for i in range(n):
                r, c = (i * n + j) * d, (i * n + l) * d
                out[r:r + d, c:c + d] += blk
    return out


def _left_op(ops, n, d):
    out = np.zeros((n * n * d, n * n * d), complex)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                r, c = (i * n + j) * d, (k * n + j) * d
                out[r:r + d, c:c + d] += ops[i][k]
    return out


def _right_op(ops, n, d):
    out = np.zeros((n * n * d, n * n * d), complex)
    for j in range(n):
        for l in range(n):
            for i in range(n):
                r, c = (i * n + j) * d, (i * n + l) * d
                out[r:r + d, c:c + d] += ops[l][j]
    return out


def _j_prime(jmat, n):
    d = jmat.shape[0]
    out = np.zeros((n * n * d, n * n * d), complex)
    for i in range(n):
        for jj in range(n):
            r, c = (i * n + jj) * d, (jj * n + i) * d
            out[r:r + d, c:c + d] = jmat
    return out


def loop_sandwich_right(t, e, m):
    n = e.n
    left = [[sum(t.pi(t.sigma(e.entries[i][k])) @ m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return [[sum(left[i][k] @ t.pi(e.entries[k][j]) for k in range(n)) for j in range(n)]
            for i in range(n)]


def loop_sandwich_left(t, e, m):
    n = e.n
    sinv = t.sigma.inverse()
    right = [[sum(t.pi_opp(sinv(e.entries[k][j])) @ m[i][k] for k in range(n)) for j in range(n)]
             for i in range(n)]
    return [[sum(right[k][j] @ t.pi_opp(e.entries[i][k]) for k in range(n)) for j in range(n)]
            for i in range(n)]


def loop_first_order(t):
    worst = 0.0
    for _, a in t.shape.basis():
        for _, b in t.shape.basis():
            worst = max(worst, t.first_order_defect(a, b))
    return worst


def loop_right_export(t, em, m):
    proj = _blk_pi(t, em)
    amp_d = np.kron(np.eye(em.n), t.dirac)
    return proj, _blk_pi(t, em * em.map(t.sigma)) @ (amp_d + _blk_ops(m, t.dim)) @ proj


def loop_left_export(t, em, m):
    proj = _blk_right(t, em)
    amp_d = np.kron(np.eye(em.n), t.dirac)
    return proj, _blk_right(t, em.map(t.sigma.inverse()) * em) @ (amp_d + _blk_transposed(m, t.dim)) @ proj


def loop_real_export(t, em, m):
    n, d = em.n, t.dim
    ep, j = t.epsilon_prime(), t.real.j
    proj = _left_op_alg(t, em) @ _right_op_alg(t, em)
    e_sig_e = em * em.map(t.sigma)
    sinv_e_e = em.map(t.sigma.inverse()) * em
    d_full = np.kron(np.eye(n * n), t.dirac)
    me = [[sum(m[p][r] @ t.pi(em.entries[r][k]) for r in range(n)) for k in range(n)]
          for p in range(n)]
    w = [[t.twisted_commutator(em.entries[p][k]) + me[p][k] for k in range(n)] for p in range(n)]
    term12 = _right_op_alg(t, sinv_e_e) @ _left_op_alg(t, e_sig_e) @ (d_full + _left_op(w, n, d))
    v = [[ep * j.conjugate(w[p][l]) for p in range(n)] for l in range(n)]
    term3 = _left_op_alg(t, e_sig_e) @ _right_op_alg(t, sinv_e_e) @ _right_op(v, n, d)
    n_ops = [[ep * j.conjugate(m[l][r]) for l in range(n)] for r in range(n)]
    d_second = (
        _left_op_alg(t, e_sig_e) @ _right_op_alg(t, sinv_e_e)
        @ (d_full + _right_op(n_ops, n, d) + _left_op(w, n, d)) @ proj
    )
    return proj, (term12 + term3) @ proj, d_second, _j_prime(j.mat, n)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


def random_ops(rng, n, d):
    return [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n)]
            for _ in range(n)]


def assembler_cases():
    """(triple, algebra matrix, operator blocks): the half idempotent on U(1)xU(2), random data on rand6."""
    u1u2 = tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple
    rand6 = tw.random_real_triple(3)
    rng = np.random.default_rng(21)
    cases = [(u1u2, half_idempotent(u1u2.shape).matrix, random_ops(rng, 2, u1u2.dim))]
    for n in (1, 2, 3):
        for t in (rand6, u1u2):
            cases.append((t, amat_random(t.shape, n, rng), random_ops(rng, n, t.dim)))
    return cases


CASES = assembler_cases()
CASE_IDS = [f"d{t.dim}-n{m.n}-{k}" for k, (t, m, _) in enumerate(CASES)]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def _entries_equal(m, loop):
    return all(np.array_equal(x, y) for rm, rl in zip(m.entries, loop) for a, b in zip(rm, rl)
               for x, y in zip(a.blocks, b.blocks))


def _entries_close(m, loop):
    diff = loop_norm([[a - b for a, b in zip(rm, rl)] for rm, rl in zip(m.entries, loop)])
    return diff <= RTOL * loop_norm(loop)


def packed_cases():
    """(sigma, n): U(1)xU(2) with its flip twist and random_real_triple(3), n = 1..3."""
    u1u2 = tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple
    rand6 = tw.random_real_triple(3)
    return [pytest.param(t.sigma, n, id=f"{name}-n{n}")
            for name, t in (("u1u2", u1u2), ("rand6", rand6)) for n in (1, 2, 3)]


@pytest.mark.parametrize("sigma, n", packed_cases())
class TestPackedArithmetic:
    """M_n(A) held as one element of + M_{n n_k}(C) against the entrywise loops it replaced."""

    @pytest.fixture
    def pair(self, sigma, n):
        rng = np.random.default_rng(31 + n)
        a, b = amat_random(sigma.shape, n, rng), amat_random(sigma.shape, n, rng, 0.5)
        rng = np.random.default_rng(31 + n)
        return a, b, loop_random(sigma.shape, n, rng), loop_random(sigma.shape, n, rng, 0.5)

    def test_entries_follow_the_rng_entry_by_entry(self, pair):
        a, b, la, lb = pair
        assert _entries_equal(a, la) and _entries_equal(b, lb)

    def test_exact_operations(self, pair):
        a, b, _, _ = pair
        assert _entries_equal(a + b, loop_add(a, b))
        assert _entries_equal(a - b, loop_sub(a, b))
        assert _entries_equal(a.star(), loop_star(a))

    def test_reassociated_operations(self, pair, sigma):
        a, b, _, _ = pair
        assert _entries_close(a * b, loop_mul(a, b))
        assert _entries_close(b * a, loop_mul(b, a))
        assert _entries_close(a.map(sigma), loop_map(a, sigma))
        assert _entries_close(a.map(sigma.inverse()), loop_map(a, sigma.inverse()))
        assert abs(a.norm() - loop_norm(a.entries)) <= RTOL * loop_norm(a.entries)

    def test_repacking_the_entries_round_trips(self, pair):
        a, _, _, _ = pair
        again = AlgebraMatrix(a.shape, a.entries)
        assert again.n == a.n
        assert all(np.array_equal(x, y) for x, y in zip(again.element.blocks, a.element.blocks))

    def test_unit(self, sigma, n):
        unit = amat_unit(sigma.shape, n)
        e, z = sigma.shape.unit(), sigma.shape.zero()
        assert _entries_equal(unit, [[e if i == j else z for j in range(n)] for i in range(n)])


def test_packing_validates_the_entries():
    shape = tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple.shape
    a = shape.unit()
    with pytest.raises(ValueError, match="square"):
        AlgebraMatrix(shape, ((a, a), (a,)))
    with pytest.raises(ValueError, match="mismatched algebra shape"):
        AlgebraMatrix(shape, ((tw.AlgebraShape((2,)).unit(),),))


@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
class TestAssemblers:
    def test_h_n_grids(self, t, m, ops):
        d = t.dim
        assert np.array_equal(_pi_grid(t, m), _blk_pi(t, m))
        assert np.array_equal(_opp_grid(t, m), _blk_right(t, m))
        assert np.array_equal(_grid(ops), _blk_ops(ops, d))
        assert np.array_equal(_grid(list(zip(*ops))), _blk_transposed(ops, d))
        assert np.array_equal(_blocks(_grid(ops), m.n), np.asarray(ops))

    def test_m_n_lifts(self, t, m, ops):
        n, d = m.n, t.dim
        assert np.array_equal(_on_rows(_pi_grid(t, m), n), _left_op_alg(t, m))
        assert np.array_equal(_on_cols(_opp_grid(t, m), n), _right_op_alg(t, m))
        assert np.array_equal(_on_rows(_grid(ops), n), _left_op(ops, n, d))
        assert np.array_equal(_on_cols(_grid(list(zip(*ops))), n), _right_op(ops, n, d))


@pytest.mark.parametrize("t, e, ops", CASES[1:], ids=CASE_IDS[1:])
def test_sandwiches_match_loops(t, e, ops):
    # a random e is not symmetric, so a sandwich with a transposed index order would show
    assert e.n == 1 or max(e.entries[i][j].defect(e.entries[j][i])
                           for i in range(e.n) for j in range(e.n)) > 1e-3
    for new, loop in ((_sandwich_right(t, e, ops), loop_sandwich_right(t, e, ops)),
                      (_sandwich_left(t, e, ops), loop_sandwich_left(t, e, ops))):
        loop = np.asarray(loop)
        assert np.linalg.norm(new - loop) <= RTOL * np.linalg.norm(loop)


def export_cases():
    ky0 = tw.build_u1u2(1 + 0.5j, 0.0).triple
    toy = tw.two_point_model()
    h = 0.5 * ky0.shape.unit()
    nonsym = IdempotentData(AlgebraMatrix(ky0.shape, ((h, 1j * h), (-1j * h, h))))
    cases = []
    for name, t, e, with_form in (("ky0-half-w", ky0, half_idempotent(ky0.shape), True),
                                  ("ky0-nonsym-grassmann", ky0, nonsym, False),
                                  ("ky0-unit3-w", ky0, IdempotentData(amat_unit(ky0.shape, 3)), True),
                                  ("toy-half-w", toy, half_idempotent(toy.shape), True)):
        n = e.n
        if with_form:
            w = selfadjoint_one_form(t, np.random.default_rng(len(cases)))
            conn = connection_with(t, e, [[w / n] * n] * n, "right")
        else:
            conn = grassmann(t, e, "right")
        cases.append(pytest.param(t, e, conn, id=name))
    # a one-form matrix [[w1, x], [x^dagger, w2]] that is not blockwise symmetric
    for name, t in (("ky0", ky0), ("toy", toy)):
        rng = np.random.default_rng(5)
        w1, w2 = selfadjoint_one_form(t, rng), selfadjoint_one_form(t, rng)
        p = random_normalized_pert(t, rng, 2)
        x, x_dagger = eta(t, p).op, eta(t, eta_adjoint_pairs(t, p)).op
        e = IdempotentData(amat_unit(t.shape, 2))
        conn = connection_with(t, e, [[w1, x], [x_dagger, w2]], "right")
        cases.append(pytest.param(t, e, conn, id=f"{name}-unit2-asymmetric"))
    return cases


@pytest.mark.parametrize("t, e, conn", export_cases())
def test_exports_equal_the_loop_assembly(t, e, conn):
    em = e.matrix
    rt = build_right_triple(lift_maps(t, e), conn)
    assert check_morita_triple(rt, samples=4).passes
    proj, d_r = loop_right_export(t, em, conn.one_forms)
    assert np.array_equal(rt.projection, proj) and np.array_equal(rt.d_r, d_r)

    left = conjugate_connection(t, conn)
    lt = build_left_triple(lift_maps(t, e), left)
    assert check_morita_triple(lt, samples=4).passes
    proj, d_l = loop_left_export(t, em, left.one_forms)
    assert np.array_equal(lt.projection, proj) and np.array_equal(lt.d_l, d_l)

    real = build_real_triple(lift_maps(t, e), conn)
    assert check_real_triple(real, samples=4).passes
    proj, d_prime, d_second, jp = loop_real_export(t, em, conn.one_forms)
    assert np.array_equal(real.projection, proj)
    assert np.array_equal(real.d_prime, d_prime)
    assert np.array_equal(real.d_second, d_second)
    assert np.array_equal(real.j_prime.mat, jp)


@pytest.mark.parametrize("name", ["u1u2", "ky0", "toy", "rand6", "ladder2", "ladder3"])
def test_first_order_gate_matches_pair_loop(name):
    t = {
        "u1u2": lambda: tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
        "ky0": lambda: tw.build_u1u2(1 + 0.5j, 0.0).triple,
        "toy": tw.two_point_model,
        "rand6": lambda: tw.random_real_triple(3),
        "ladder2": lambda: ladder_triple(2, 5),
        "ladder3": lambda: ladder_triple(3, 6),
    }[name]()
    gate, loop = _triple_first_order_defect(t), loop_first_order(t)
    assert abs(gate - loop) <= RTOL * loop + 1e-15
