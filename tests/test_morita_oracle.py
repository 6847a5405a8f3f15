"""The packed algebra matrices, the Morita block assemblers, the first-order gate and the basis checks against the loops they replaced.

The loops below are the reference oracles: block placement is exact, so the
entries, +, - and star of a packed matrix, the grid assemblers and the exported
operators must equal them bit for bit; products, the entrywise twist, norms,
the sandwiches, the module-vector helpers and the first-order gate reassociate
sums and agree to rtol 1e-13.  Arithmetic results skip validation, and must be
byte for byte what the validating constructor makes of the same blocks.

`lift_maps` and `check_hermitian` decide each identity on the bases of
`IdempotentData`, one stack per basis, with the products of basis elements as
gathers.  `check_morita_triple` and `check_real_triple` run `check_axioms` on
the export compressed to the range of its projection, over the units of B.
The per-element loops in the ambient space are kept here, and agree with them
to 1e-12.  The sampled loops they replaced are kept too: on a corpus of
exports each basis verdict is the sampled verdict.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab as tw
import twistlab.morita as morita
from twistlab.algebra import AlgebraElement, AlgebraShape, Automorphism, _element, check_regularity
from twistlab.linalg import DEFAULT_TOL, Tolerance, dagger, detect_sign, rel_defect
from twistlab.morita import (
    AlgebraMatrix,
    Connection,
    IdempotentData,
    IdempotentReport,
    ModuleLift,
    RealTriple,
    RightTriple,
    _amplified,
    _blocks,
    _compress,
    _dirac_grid,
    _grid,
    _on_cols,
    _on_rows,
    _opp_grid,
    _packed,
    _pi_grid,
    _sandwich_left,
    _sandwich_right,
    _triple_first_order_defect,
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
)

from twistlab.pert import eta, eta_adjoint_pairs
from twistlab.triple import ko_dimension

from conftest import (
    apply_connection,
    apply_connection_left,
    amat_random,
    column,
    inner_product,
    ladder_triple,
    module_vector,
    random_module_vector,
    random_normalized_pert,
    random_projection,
    random_row_vector,
    row,
    row_vector,
)
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


def pi_prime(rt, b):
    """pi'(b) of the real export: pi of the entries of b on the row index of M_n(H), times the projection."""
    return _on_rows(_pi_grid(rt.triple, b), b.n) @ rt.projection


def pi_prime_opp(rt, c):
    """pi'_opp(c) of the real export: pi_opp of the entries of c on the column index of M_n(H), times the projection."""
    return _on_cols(_opp_grid(rt.triple, c), c.n) @ rt.projection


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


# module vectors as tuples of entries, as they were held before packing


def loop_apply_matrix(m, xi):
    n = m.n
    return tuple(
        sum((m.entries[i][k] * xi[k] for k in range(1, n)), m.entries[i][0] * xi[0])
        for i in range(n)
    )


def loop_apply_matrix_right(xi, m):
    n = m.n
    return tuple(
        sum((xi[k] * m.entries[k][i] for k in range(1, n)), xi[0] * m.entries[0][i])
        for i in range(n)
    )


def loop_random_module_vector(e, rng):
    return loop_apply_matrix(e, tuple(e.shape.random_element(rng) for _ in range(e.n)))


def loop_random_row_vector(e, rng):
    return loop_apply_matrix_right(tuple(e.shape.random_element(rng) for _ in range(e.n)), e)


def loop_inner_product(xp, x):
    acc = xp[0].star() * x[0]
    for a, b in zip(xp[1:], x[1:]):
        acc = acc + a.star() * b
    return acc


def loop_pairing(zp, z):
    return sum((zp[i] * z[i].star() for i in range(1, len(z))), zp[0] * z[0].star())


def loop_sigma_lift(e, xi, sigma):
    return loop_apply_matrix(e, tuple(sigma(x) for x in xi))


def loop_apply_connection(t, conn, xi):
    e, n = conn.idempotent.matrix, conn.n
    out = []
    for j in range(n):
        op = t.twisted_commutator(xi[j])
        for k in range(n):
            op = op + conn.one_forms[j][k] @ t.pi(xi[k])
        out.append((tuple(e.entries[i][j] for i in range(n)), op))
    return out


def loop_apply_connection_left(t, conn, zeta):
    e, n = conn.idempotent.matrix, conn.n
    out = []
    for j in range(n):
        op = t.twisted_commutator_opp(zeta[j])
        for k in range(n):
            op = op + conn.one_forms[k][j] @ t.pi_opp(zeta[k])
        out.append((op, tuple(e.entries[j][i] for i in range(n))))
    return out


def loop_hermitian_identity(t, conn):
    """identity_defect of `check_hermitian`, with module vectors as tuples, one pair of spanning vectors at a time."""
    e = conn.idempotent.matrix
    sinv = t.sigma.inverse()
    vectors = [tuple(column(x)) for x in loop_columns(conn.idempotent)]
    worst = 0.0
    for xip in vectors:
        for xi in vectors:
            lhs = np.zeros((t.dim, t.dim), complex)
            if conn.side == "right":
                for x0, om in loop_apply_connection(t, conn, xi):
                    lhs += t.pi(t.sigma(loop_inner_product(xip, x0))) @ om
                for x0, om in loop_apply_connection(t, conn, loop_sigma_lift(e, xip, sinv)):
                    lhs -= dagger(om) @ t.pi(loop_inner_product(x0, xi))
                rhs = t.twisted_commutator(loop_inner_product(xip, xi))
            else:
                zeta, zetap = tuple(x.star() for x in xi), tuple(x.star() for x in xip)    # rows of A^n e
                szeta = loop_apply_matrix_right(tuple(t.sigma(z) for z in zeta), e)
                for om, z0 in loop_apply_connection_left(t, conn, szeta):
                    lhs -= dagger(om) @ t.pi_opp(loop_pairing(zetap, z0))
                for om, z0 in loop_apply_connection_left(t, conn, zetap):
                    lhs += t.pi_opp(sinv(loop_pairing(z0, zeta))) @ om
                rhs = t.twisted_commutator_opp(loop_pairing(zetap, zeta))
            worst = max(worst, rel_defect(lhs, rhs))
    return worst


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
    assert check_real_triple(real).passes
    proj, d_prime, d_second, jp = loop_real_export(t, em, conn.one_forms)
    assert np.array_equal(real.projection, proj)
    assert np.array_equal(real.d_prime, d_prime)
    assert np.array_equal(real.d_second, d_second)
    assert np.array_equal(real.j_prime.mat, jp)


def _in_b(e, shape, x):
    """A stack x of elements of B = e M_n(A) e in the coordinates of B: the blocks W_k* x_k W_k of rank r_k > 0."""
    return _element(shape, tuple(dagger(w) @ b @ w for w, b in zip(e.isometries, x.element.blocks) if w.shape[1]))


def _transposed(x):
    return _element(x.shape, tuple(b.swapaxes(-1, -2) for b in x.blocks))


def _close(got, want):
    return np.linalg.norm(got - want) <= RTOL * max(np.linalg.norm(want), 1.0)


@pytest.mark.parametrize("t, e, conn", export_cases())
def test_compressed_exports_are_the_ambient_operators_on_the_range(t, e, conn):
    """Each export, on an orthonormal basis V of the range of its projection, is V* X V of each of its operators X.

    B has the nonzero ranks of e's blocks.  On the units of B, pi' is V* G V with G the ambient images,
    and the twist is sigma'(b) = e sigma(b) e in the coordinates of B.  The left export is read through
    the transpose tau of B: unit (k, i, j) takes the image of unit (k, j, i), and its twist is
    tau sigma'^-1 tau.  The real export has Gamma' = V* Gamma V and J' = V* M conj(V).
    """
    lift, units = lift_maps(t, e), e.units
    shape = lift.twist.shape
    star = shape.star_index()
    assert shape.block_dims == tuple(w.shape[1] for w in e.isometries if w.shape[1])
    twist = _in_b(e, shape, lift.sigma_prime(units)).coefficients()
    exports = [(build_right_triple(lift, conn), _pi_grid(t, units), twist),
               (build_left_triple(lift, conjugate_connection(t, conn)), _opp_grid(t, units)[star],
                _transposed(_in_b(e, shape, lift.sigma_prime_inv(units[star]))).coefficients()),
               (build_real_triple(lift, conn), _on_rows(_pi_grid(t, units), e.n), twist)]
    for rt, images, twisted in exports:
        x = _compress(rt)
        w, v = np.linalg.eigh(rt.projection)
        v = v[:, w > 0.5]
        squeeze = lambda op: dagger(v) @ op @ v
        assert x.shape == shape and x.dim == v.shape[1] == np.linalg.matrix_rank(rt.projection)
        assert _close(x.rep.basis_images(), squeeze(images))
        assert _close(x.dirac, squeeze(rt.d_prime if isinstance(rt, RealTriple) else
                                       rt.d_r if isinstance(rt, RightTriple) else rt.d_l))
        assert _close(x.sigma(x.shape.units()).coefficients(), twisted)
        assert _close(x.sigma.inverse()(x.sigma(x.shape.units())).coefficients(), np.eye(x.shape.basis_size))
        assert (x.real is None) == (x.grading is None) == (not isinstance(rt, RealTriple))
        if x.real is not None:
            assert _close(x.grading, squeeze(rt.gamma_prime))
            assert _close(x.real.j.mat, dagger(v) @ rt.j_prime.mat @ v.conj())
        assert tw.check_axioms(x).passes(require_first_order=x.real is not None)


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


# ---------------------------------------------------------------------------
# trusted arithmetic, the cached id (x) sigma and packed module vectors
# ---------------------------------------------------------------------------


def _same_bytes(blocks, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(blocks, want))


def twist_cases():
    return [pytest.param(t.sigma, id=name) for name, t in
            (("u1u2", tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple), ("rand6", tw.random_real_triple(3)))]


@pytest.mark.parametrize("sigma", twist_cases())
def test_trusted_results_equal_the_validating_constructor(sigma):
    shape = sigma.shape
    validated = lambda blocks: AlgebraElement(shape, tuple(blocks)).blocks
    rng = np.random.default_rng(41)
    a, b = shape.random_element(rng), shape.random_element(rng, 0.5)
    twisted = [None] * shape.num_blocks
    for k, (s, x, s_inv) in enumerate(zip(sigma.conjugators, a.blocks, sigma._conjugator_invs)):
        twisted[sigma.perm[k]] = s @ x @ s_inv
    unit_blocks = [np.zeros((n, n), dtype=complex) for n in shape.block_dims]
    unit_blocks[-1][0, -1] = 1.0
    cases = [
        (a + b, [x + y for x, y in zip(a.blocks, b.blocks)]),
        (a - b, [x - y for x, y in zip(a.blocks, b.blocks)]),
        (a * b, [x @ y for x, y in zip(a.blocks, b.blocks)]),
        (a.star(), [np.conj(x.T) for x in a.blocks]),
        ((0.5 - 2j) * a, [(0.5 - 2j) * x for x in a.blocks]),
        (sigma(a), twisted),
        (shape.unit(), [np.eye(n) for n in shape.block_dims]),
        (shape.zero(), [np.zeros((n, n)) for n in shape.block_dims]),
        (shape.matrix_unit(shape.num_blocks - 1, 0, shape.block_dims[-1] - 1), unit_blocks),
    ]
    for got, blocks in cases:
        assert _same_bytes(got.blocks, validated(blocks))
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    drawn = [0.7 * (r2.standard_normal((n, n)) + 1j * r2.standard_normal((n, n))) for n in shape.block_dims]
    assert _same_bytes(shape.random_element(r1, 0.7).blocks, validated(drawn))
    m = amat_random(shape, 2, rng)
    assert all(_same_bytes(x.blocks, validated(x.blocks)) for row in m.entries for x in row)


def _automorphisms_close(got, want):
    close = lambda xs, ys: all(np.linalg.norm(x - y) <= RTOL * np.linalg.norm(y) for x, y in zip(xs, ys))
    return (got.shape == want.shape and got.perm == want.perm
            and close(got.conjugators, want.conjugators)
            and close(got._conjugator_invs, want._conjugator_invs))


@pytest.mark.parametrize("sigma, n", packed_cases())
def test_amplified_equals_a_validated_kron_automorphism(sigma, n):
    eye = np.eye(n)
    fresh = Automorphism(_amplified(sigma.shape, n), sigma.perm,
                         tuple(np.kron(eye, s) for s in sigma.conjugators))
    amp = sigma.amplified(n)
    assert sigma.amplified(n) is amp
    assert all(np.array_equal(x, y) for x, y in zip(amp.conjugators, fresh.conjugators))
    x = amp.shape.random_element(np.random.default_rng(n))
    for got, want in ((amp, fresh), (amp.inverse(), fresh.inverse()),
                      (sigma.inverse().amplified(n), fresh.inverse())):
        assert _automorphisms_close(got, want)
        assert got(x).defect(want(x)) <= RTOL


def _elements_equal(xs, ys):
    return all(np.array_equal(x, y) for a, b in zip(xs, ys) for x, y in zip(a.blocks, b.blocks))


def _vectors_close(got, loop):
    diff = loop_norm([[a - b for a, b in zip(got, loop)]])
    return diff <= RTOL * loop_norm([loop])


@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
class TestModuleVectors:
    """Module vectors packed as column (row) 0 of an n x n matrix against the tuple loops they replaced."""

    def test_products_pairings_and_lifts(self, t, m, ops):
        shape, n = t.shape, m.n
        rng = np.random.default_rng(51)
        xs = [shape.random_element(rng) for _ in range(n)]
        ys = [shape.random_element(rng) for _ in range(n)]
        a = shape.random_element(rng)
        xi, eta = module_vector(shape, xs), module_vector(shape, ys)
        zeta, zetap = row_vector(shape, xs), row_vector(shape, ys)
        assert _elements_equal(column(xi), xs) and _elements_equal(row(zeta), xs)
        assert _vectors_close(column(m * xi), loop_apply_matrix(m, xs))
        assert _vectors_close(row(zeta * m), loop_apply_matrix_right(xs, m))
        assert _vectors_close(column(xi * amat_scalar(a, n)), [x * a for x in xs])
        assert _vectors_close(row(amat_scalar(a, n) * zeta), [a * z for z in xs])
        assert _vectors_close([inner_product(eta, xi)], [loop_inner_product(ys, xs)])
        assert _vectors_close([(zetap * zeta.star()).entries[0][0]], [loop_pairing(ys, xs)])
        lift = ModuleLift(t, IdempotentData(m), None)
        assert _vectors_close(column(lift.sigma_lift(xi)), loop_sigma_lift(m, xs, t.sigma))
        assert _vectors_close(column(lift.sigma_lift_inv(xi)), loop_sigma_lift(m, xs, t.sigma.inverse()))

    def test_random_vectors_draw_in_the_same_order(self, t, m, ops):
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        assert _vectors_close(column(random_module_vector(m, r1)), loop_random_module_vector(m, r2))
        assert _vectors_close(row(random_row_vector(m, r1)), loop_random_row_vector(m, r2))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_connections(self, t, m, ops, side):
        conn = Connection(side, IdempotentData(m), ops)
        rng = np.random.default_rng(61)
        if side == "right":
            xi = random_module_vector(m, rng)
            pairs = [(column(c), op) for c, op in apply_connection(t, conn, xi)]
            loop = loop_apply_connection(t, conn, column(xi))
        else:
            zeta = random_row_vector(m, rng)
            pairs = [(row(r), op) for op, r in apply_connection_left(t, conn, zeta)]
            loop = [(r, op) for op, r in loop_apply_connection_left(t, conn, row(zeta))]
        assert len(pairs) == len(loop) == m.n
        for (vec, op), (loop_vec, loop_op) in zip(pairs, loop):
            assert _elements_equal(vec, loop_vec)
            assert np.linalg.norm(op - loop_op) <= RTOL * np.linalg.norm(loop_op)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_hermiticity_identity(self, t, m, ops, side):
        # random one-forms are far from hermitian, so the identity defect is O(1) and comparable
        conn = Connection(side, projected(t, m), ops)
        got = check_hermitian(t, conn).identity_defect
        loop = loop_hermitian_identity(t, conn)
        assert loop > 1e-3
        assert abs(got - loop) <= RTOL * loop


# ---------------------------------------------------------------------------
# the bases, one element at a time
# ---------------------------------------------------------------------------


def projected(t, m, seed=0):
    """A random projection of the size of m, of rank about half in each block: the bases exist for projections alone."""
    ranks = [(m.n * nk + 1) // 2 for nk in t.shape.block_dims]
    return IdempotentData(random_projection(t.shape, m.n, np.random.default_rng(seed), ranks))


def _single(e, k, block):
    """The n x n matrix over A whose block k in M_n(A) is block, every other block 0."""
    amp = e.matrix.element.shape
    blocks = [np.zeros((m, m), complex) for m in amp.block_dims]
    blocks[k] = block
    return _packed(e.matrix.shape, e.n, AlgebraElement(amp, tuple(blocks)))


def loop_units(e):
    """The matrix units W_k E_ij W_k* of B, one at a time, in the order of `IdempotentData.units`."""
    return [_single(e, k, np.outer(w[:, i], w[:, j].conj()))
            for k, w in enumerate(e.isometries) for i in range(w.shape[1]) for j in range(w.shape[1])]


def loop_columns(e):
    """The vectors W_k[:, i] e_c^T that span e A^n, one at a time, in the order of `IdempotentData.columns`."""
    out = []
    for k, w in enumerate(e.isometries):
        for i in range(w.shape[1]):
            for c in range(e.matrix.shape.block_dims[k]):
                x = np.zeros((len(w), len(w)), complex)
                x[:, c] = w[:, i]
                out.append(_single(e, k, x))
    return out


def loop_scalars(t, n):
    """The matrix units E_u of A as the scalars E_u 1_n, one at a time."""
    return [amat_scalar(x, n) for _, x in t.shape.basis()]


def _same_matrices(stack, matrices):
    return len(stack.element.blocks[0]) == len(matrices) and all(
        np.array_equal(a[u], b) for u, x in enumerate(matrices) for a, b in zip(stack.element.blocks, x.element.blocks))


def _gram(matrices):
    """Frobenius inner products of the matrices, as a matrix."""
    flat = np.array([np.concatenate([b.ravel() for b in x.element.blocks]) for x in matrices])
    flat = flat.reshape(len(matrices), -1)
    return flat.conj() @ flat.T


# Each check decides its identities on these bases: the module vectors of e A^n ("column") or A^n e ("row"),
# the matrix units of A as scalars ("scalar"), and the matrix units of B ("unit").
CHECK_BASES = {
    "lift_maps": ("column", "scalar", "unit"),
    "check_hermitian right": ("column",),
    "check_hermitian left": ("row",),
    "check_morita_triple and check_real_triple": ("unit",),
}


@pytest.mark.parametrize("kinds", list(CHECK_BASES.values()), ids=list(CHECK_BASES))
@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
def test_stacked_draws_equal_the_sequential_ones(t, m, ops, kinds):
    """The basis each check draws on, held as one stack, equals its elements built one at a time, bit for bit.

    The units are an orthonormal basis of B = e M_n(A) e and the columns one
    of e A^n: e u e = u and e x = x, with sum r_k^2 and sum r_k n_k elements.
    """
    e = projected(t, m)
    em, ranks = e.matrix, [w.shape[1] for w in e.isometries]
    stacked = {"column": e.columns, "row": e.columns.star(), "scalar": amat_scalar(t.shape.units(), e.n),
               "unit": e.units}
    sequential = {"column": loop_columns(e), "row": [x.star() for x in loop_columns(e)],
                  "scalar": loop_scalars(t, e.n), "unit": loop_units(e)}
    sizes = {"column": sum(r * nk for r, nk in zip(ranks, t.shape.block_dims)), "unit": sum(r * r for r in ranks)}
    for kind in kinds:
        assert _same_matrices(stacked[kind], sequential[kind])
        if kind in sizes:
            assert len(sequential[kind]) == sizes[kind]
            assert np.allclose(_gram(sequential[kind]), np.eye(sizes[kind]), rtol=0, atol=1e-13)
    for x in sequential["column"]:
        assert (em * x).defect(x) <= 1e-14
    for u in sequential["unit"]:
        assert (em * u * em).defect(u) <= 1e-14


def _zero_or(stack, index):
    """The matrix at index of a list, or None where index is -1."""
    return None if index < 0 else stack[index]


@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
def test_basis_products_are_the_gathers(t, m, ops):
    """Products of basis elements are basis elements or 0, at the indices of the gather tables of `IdempotentData`."""
    e = projected(t, m)
    units, columns, scalars = loop_units(e), loop_columns(e), loop_scalars(t, e.n)

    def is_(x, want):
        return x.norm() <= 1e-14 if want is None else x.defect(want) <= 1e-14

    assert e.unit_products.shape == (len(units),) * 2 and e.pairings.shape == (len(columns),) * 2
    assert e.column_actions.shape == (len(columns), len(scalars))
    for u, b in enumerate(units):
        assert all(is_(b * c, _zero_or(units, e.unit_products[u, v])) for v, c in enumerate(units))
    for p, x in enumerate(columns):
        assert all(is_(x * a, _zero_or(columns, e.column_actions[p, u])) for u, a in enumerate(scalars))
        for q, y in enumerate(columns):
            unit = e.pairings[p, q]
            want = None if unit < 0 else amat_scalar(t.shape.matrix_unit(*t.shape.labels()[unit]), 1)
            assert is_(amat_scalar(inner_product(x, y), 1), want)


# ---------------------------------------------------------------------------
# the basis checks against their per-element loops, and the sampled loops they replaced
# ---------------------------------------------------------------------------

STACKED_RTOL = 1e-12

LAWS = (
    "lift does not intertwine the module action with the twist",
    "lift roundtrip is not the identity on the module",
    "lifted twist is not multiplicative on the endomorphism algebra",
    "lifted twist roundtrip fails on the endomorphism algebra",
    "lifted twist loses the regularity property",
)


def _random_b(e, rng):
    return e * amat_random(e.shape, e.n, rng, 0.7) * e


def loop_lift_laws(lift, tol=DEFAULT_TOL, samples=5):
    """The sampled laws of `lift_maps`, one sample at a time: the first failing (sample, law) raises."""
    t, e = lift.triple, lift.idempotent
    rng = np.random.default_rng(0)
    em = e.matrix
    eps = tol.abs_eps
    regular = check_regularity(t.sigma, tol=tol).passes
    for _ in range(samples):
        xi = random_module_vector(em, rng)
        a = amat_scalar(t.shape.random_element(rng), e.n)
        if lift.sigma_lift(xi * a).defect(lift.sigma_lift(xi) * a.map(t.sigma)) > eps:
            raise ValueError(LAWS[0])
        if lift.sigma_lift_inv(lift.sigma_lift(xi)).defect(xi) > eps:
            raise ValueError(LAWS[1])
        b, c = _random_b(em, rng), _random_b(em, rng)
        if lift.sigma_prime(b * c).defect(lift.sigma_prime(b) * lift.sigma_prime(c)) > eps:
            raise ValueError(LAWS[2])
        if lift.sigma_prime_inv(lift.sigma_prime(b)).defect(b) > eps:
            raise ValueError(LAWS[3])
        if regular and lift.sigma_prime(b.star()).defect(lift.sigma_prime_inv(b).star()) > eps:
            raise ValueError(LAWS[4])


def loop_basis_lift_laws(lift, tol=DEFAULT_TOL):
    """The laws of `lift_maps` on the bases, one element or pair at a time: the first failing law raises."""
    t, e = lift.triple, lift.idempotent
    sl, sl_inv, sp, sp_inv = lift.sigma_lift, lift.sigma_lift_inv, lift.sigma_prime, lift.sigma_prime_inv
    xs, bs = loop_columns(e), loop_units(e)
    worst = [
        max((sl(x * a).defect(sl(x) * a.map(t.sigma)) for x in xs for a in loop_scalars(t, e.n)), default=0.0),
        max((sl_inv(sl(x)).defect(x) for x in xs), default=0.0),
        max((sp(b * c).defect(sp(b) * sp(c)) for b in bs for c in bs), default=0.0),
        max((sp_inv(sp(b)).defect(b) for b in bs), default=0.0),
    ]
    if check_regularity(t.sigma, tol=tol).passes:
        worst.append(max((sp(b.star()).defect(sp_inv(b).star()) for b in bs), default=0.0))
    for defect, message in zip(worst, LAWS):
        if defect > tol.abs_eps:
            raise ValueError(message)


def sampled_vectors(conn, samples=10, seed=0):
    """The pairs (xi', xi) of e A^n, or (zeta', zeta) of A^n e, that the sampled check drew: xi, then xi'."""
    rng = np.random.default_rng(seed)
    draw = random_module_vector if conn.side == "right" else random_row_vector
    e, out = conn.idempotent.matrix, []
    for _ in range(samples):
        x = draw(e, rng)
        out.append((draw(e, rng), x))
    return out


def basis_vectors(conn):
    """Every pair (xi', xi) of the vectors that span e A^n, or (zeta', zeta) of their adjoints, which span A^n e."""
    xs = loop_columns(conn.idempotent)
    xs = xs if conn.side == "right" else [x.star() for x in xs]
    return [(xp, x) for xp in xs for x in xs]


def loop_identity_defect(t, conn, pairs):
    """The largest defect of the hermiticity identity over pairs of module vectors, one pair and one entry at a time."""
    e = conn.idempotent.matrix
    sinv = t.sigma.inverse()
    worst = 0.0
    for xp, x in pairs:
        lhs = np.zeros((t.dim, t.dim), complex)
        if conn.side == "right":
            for x0, om in apply_connection(t, conn, x):
                lhs += t.pi(t.sigma(inner_product(xp, x0))) @ om
            for x0, om in apply_connection(t, conn, e * xp.map(sinv)):
                lhs -= dagger(om) @ t.pi(inner_product(x0, x))
            rhs = t.twisted_commutator(inner_product(xp, x))
        else:
            pairing = lambda zp, z: (zp * z.star()).entries[0][0]
            for om, z0 in apply_connection_left(t, conn, x.map(t.sigma) * e):
                lhs -= dagger(om) @ t.pi_opp(pairing(xp, z0))
            for om, z0 in apply_connection_left(t, conn, xp):
                lhs += t.pi_opp(sinv(pairing(z0, x))) @ om
            rhs = t.twisted_commutator_opp(pairing(xp, x))
        worst = max(worst, rel_defect(lhs, rhs))
    return worst


def loop_check_hermitian(t, conn):
    """(identity, selfadjoint, sandwich) defects of `check_hermitian`, one basis pair and one entry at a time."""
    e, n, m = conn.idempotent.matrix, conn.n, conn.one_forms
    sa = max(rel_defect(dagger(m[i][j]), m[j][i]) for i in range(n) for j in range(n))
    sandwich = _sandwich_right(t, e, m) if conn.side == "right" else _sandwich_left(t, e, m)
    sw = max(rel_defect(sandwich[i][j], m[i][j]) for i in range(n) for j in range(n))
    return loop_identity_defect(t, conn, basis_vectors(conn)), sa, sw


def sampled_pairs(e, samples, seed=0):
    """The pairs (b, c) of B that the sampled checks drew: b, then c."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        b = _random_b(e.matrix, rng)
        out.append((b, _random_b(e.matrix, rng)))
    return out


def basis_pairs(e):
    units = loop_units(e)
    return [(b, c) for b in units for c in units]


def loop_check_morita_triple(rt, pairs):
    """The defects (sa, mult, reg, hom, inv, bracket) of `check_morita_triple` over pairs (b, c) of B, one at a time.

    Every operator acts on H^n, compared on range(P) through the right factor P; sa reads P D P,
    and reg, inv and the bracket identity read b alone.
    """
    t, proj = rt.triple, rt.projection
    right = isinstance(rt, RightTriple)
    dd = rt.d_r if right else rt.d_l
    rep = lambda b: (_pi_grid if right else _opp_grid)(t, b) @ proj     # pi_R or pi_L
    sp, sp_inv = rt.lift.sigma_prime, rt.lift.sigma_prime_inv
    dm, pe = _dirac_grid(t, rt.connection.one_forms), _pi_grid(t, rt.lift.idempotent.matrix)
    worst = lambda defects: max(defects, default=0.0)
    bs = list({id(b): b for b, _ in pairs}.values())
    sa = rel_defect(proj @ dd @ proj, dagger(proj @ dd @ proj))
    mult = worst(sp(b * c).defect(sp(b) * sp(c)) for b, c in pairs)
    # pi_L is an anti-representation: pi_L(b) pi_L(c) = pi_L(c b)
    hom = worst(rel_defect(rep(b) @ rep(c), rep(b * c if right else c * b)) for b, c in pairs)
    reg = worst(sp(b.star()).defect(sp_inv(b).star()) for b in bs)
    inv = worst(rel_defect(dagger(proj @ rep(b) @ proj), proj @ rep(b.star()) @ proj) for b in bs)
    bracket = None
    if right:
        inner = lambda b: dm @ _pi_grid(t, b) - _pi_grid(t, b.map(t.sigma)) @ dm
        bracket = worst(rel_defect((rt.d_r @ rep(b) - rep(sp(b)) @ rt.d_r) @ proj, pe @ inner(b) @ proj) for b in bs)
    return sa, mult, reg, hom, inv, bracket


def loop_check_real_triple(rt, pairs):
    """The defects (sa, order zero, first order) and KO signs of `check_real_triple` over pairs (b, c) of B.

    One pair at a time, on M_n(H): each operator is compared on range(P), as X P, and first order is
    scaled as `check_axioms` scales it, by max(1, ||delta'(b)||, ||pi'_opp(c)||).  The signs are those
    of J'^2 = eps, J' D' J'^-1 = eps' D' and J' Gamma' J'^-1 = eps'' Gamma', each compared as X P = s Y P.
    """
    proj, dp, j, g = rt.projection, rt.d_prime, rt.j_prime, rt.gamma_prime
    sp, sp_inv = rt.lift.sigma_prime, rt.lift.sigma_prime_inv
    sa = rel_defect(proj @ dp @ proj, dagger(proj @ dp @ proj))
    relations = ((j.squared(), np.eye(len(proj))), (j.conjugate(dp), dp), (j.conjugate(g), g))
    signs = tuple(detect_sign(x @ proj, y @ proj)[0] for x, y in relations)
    oz = fo = 0.0
    for b, c in pairs:
        pb, pc = pi_prime(rt, b), pi_prime_opp(rt, c)
        oz = max(oz, rel_defect(pb @ pc @ proj, pc @ pb @ proj))
        x = dp @ pb - pi_prime(rt, sp(b)) @ dp
        outer = x @ pc - pi_prime_opp(rt, sp_inv(c)) @ x
        fo = max(fo, float(np.linalg.norm(outer @ proj)) / max(1.0, np.linalg.norm(x), np.linalg.norm(pc)))
    return sa, oz, fo, signs


def _agree(got, loop):
    """Basis and loop defects agree to STACKED_RTOL, relative to the loop's and at least to 1."""
    return abs(got - loop) <= STACKED_RTOL * max(loop, 1.0)


def _morita_defects(report):
    return (report.selfadjoint_defect, report.sigma_prime_multiplicative, report.sigma_prime_regularity,
            report.rep_homomorphism, report.rep_involution, report.bracket_identity_defect)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
def test_stacked_check_hermitian_matches_its_loop(t, m, ops, side):
    # random one-forms are far from hermitian, so all three defects are O(1)
    conn = Connection(side, projected(t, m), ops)
    got = check_hermitian(t, conn)
    loop = loop_check_hermitian(t, conn)
    assert min(loop) > 1e-3
    for g, want in zip((got.identity_defect, got.selfadjoint_defect, got.sandwich_defect), loop):
        assert _agree(g, want)


def _exports(monkeypatch, t, e, ops):
    """The right and left exports of the projection e with the random one-forms ops, hermiticity unchecked.

    Random one-forms are far from hermitian, so D_R and D_L are far from selfadjoint: that defect is O(1).
    """
    monkeypatch.setattr(morita, "_require_hermitian", lambda *args: None)
    lift = ModuleLift(t, e, None)
    return build_right_triple(lift, Connection("right", e, ops)), build_left_triple(lift, Connection("left", e, ops))


def _morita_verdict(loop):
    return DEFAULT_TOL.accepts(*(x for x in loop if x is not None))


@pytest.mark.parametrize("t, m, ops", CASES[1:], ids=CASE_IDS[1:])
def test_stacked_check_morita_triple_matches_its_loop(monkeypatch, t, m, ops):
    # on a random projection with random one-forms D_R and D_L are far from selfadjoint, while pi' is a
    # representation: its defects are round-off in both the check and the loop
    e = projected(t, m)
    for rt in _exports(monkeypatch, t, e, ops):
        report = check_morita_triple(rt)
        loop = loop_check_morita_triple(rt, basis_pairs(e))
        assert loop[0] > 1e-3
        for g, want in zip(_morita_defects(report), loop):
            assert (g is want is None) or _agree(g, want)
        assert report.passes == _morita_verdict(loop)


@pytest.mark.parametrize("t, m, ops", CASES[1:], ids=CASE_IDS[1:])
def test_stacked_regularity_matches_its_loop_on_a_non_regular_twist(monkeypatch, t, m, ops):
    # sigma(a) = S a S^-1 with S upper unitriangular, not unitary on the blocks of size 2, breaks
    # sigma(a*) = (sigma^-1(a))*, and with it the regularity of sigma' on a projection: that defect is O(1)
    sigma = Automorphism(t.shape, t.sigma.perm, tuple(np.triu(np.ones((nk, nk))) for nk in t.shape.block_dims))
    assert not check_regularity(sigma).passes
    t = dataclasses.replace(t, sigma=sigma)
    e = projected(t, m)
    for rt in _exports(monkeypatch, t, e, ops):
        got, loop = check_morita_triple(rt).sigma_prime_regularity, loop_check_morita_triple(rt, basis_pairs(e))[2]
        assert loop > 1e-3 and _agree(got, loop)


def real_cases():
    """Random m with random one-forms on the first-order triples U(1)xU(2) at ky = 0 and the toy."""
    rng = np.random.default_rng(71)
    ky0, toy = tw.build_u1u2(1 + 0.5j, 0.0).triple, tw.two_point_model()
    return [pytest.param(t, amat_random(t.shape, n, rng), random_ops(rng, n, t.dim), id=f"{name}-n{n}")
            for name, t, n in (("ky0", ky0, 1), ("ky0", ky0, 2), ("toy", toy, 2))]


def _real_export(monkeypatch, t, e, ops):
    """The real export of the projection e with the random one-forms ops, hermiticity unchecked."""
    monkeypatch.setattr(morita, "_require_hermitian", lambda *args: None)
    return build_real_triple(ModuleLift(t, e, None), Connection("right", e, ops))


@pytest.mark.parametrize("t, m, ops", real_cases())
def test_stacked_check_real_triple_matches_its_loop(monkeypatch, t, m, ops):
    # on a random projection with random one-forms D' is neither selfadjoint nor of first order: both defects
    # are O(1), while order zero is round-off in both
    e = projected(t, m)
    rt = _real_export(monkeypatch, t, e, ops)
    report = check_real_triple(rt)
    sa, oz, fo, signs = loop_check_real_triple(rt, basis_pairs(e))
    assert min(sa, fo) > 1e-3
    for g, want in zip((report.selfadjoint_defect, report.order_zero, report.first_order), (sa, oz, fo)):
        assert _agree(g, want)
    assert (report.j_squared_sign, report.j_dirac_sign, report.j_grading_sign) == signs
    assert report.passes == (DEFAULT_TOL.accepts(sa, report.d_second_defect, oz, fo) and None not in signs)


@pytest.mark.parametrize("t, m, ops", real_cases())
def test_one_index_chunks_give_the_defects_of_the_whole_grids(monkeypatch, t, m, ops):
    # on random one-forms every chunked defect is O(1); taken one basis element at a time, the maxima are the same
    e = projected(t, m)

    def defects():
        right, left = map(check_morita_triple, _exports(monkeypatch, t, e, ops))
        real = check_real_triple(_real_export(monkeypatch, t, e, ops))
        return [("identity_defect", check_hermitian(t, Connection("right", e, ops)).identity_defect),
                ("identity_defect", check_hermitian(t, Connection("left", e, ops)).identity_defect),
                ("sigma_prime_multiplicative", ModuleLift(t, e, None).sigma_prime_multiplicative),
                ("selfadjoint_defect", right.selfadjoint_defect), ("selfadjoint_defect", left.selfadjoint_defect),
                ("selfadjoint_defect", real.selfadjoint_defect), ("first_order", real.first_order)]

    whole = defects()
    monkeypatch.setattr(morita, "CHUNK_BYTES", 1)
    chunked = defects()
    assert len(chunked) == len(whole) == 7
    # sigma' is multiplicative on every projection when sigma is the identity, as on the toy
    identity = (list(t.sigma.perm) == sorted(t.sigma.perm)
                and all(np.array_equal(s, np.eye(len(s))) for s in t.sigma.conjugators))
    assert min(w for f, w in whole if not (identity and f == "sigma_prime_multiplicative")) > 1e-3
    assert all(_agree(c, w) for (_, c), (_, w) in zip(chunked, whole))


@pytest.mark.parametrize("t, m, ops", real_cases())
def test_real_export_matches_the_entry_loops(monkeypatch, t, m, ops):
    # the connection entries w_p^k of a random m and random one-forms are O(1); `build_real_triple` forms them as
    # `_nabla_ops` of the columns of m, the loop entry by entry
    monkeypatch.setattr(morita, "_require_hermitian", lambda *args: None)
    e = IdempotentData(m)
    rt = build_real_triple(ModuleLift(t, e, None), Connection("right", e, ops))
    _, d_prime, d_second, _ = loop_real_export(t, m, rt.connection.one_forms)
    for got, loop in ((rt.d_prime, d_prime), (rt.d_second, d_second)):
        assert np.linalg.norm(loop) > 1e-3
        assert np.linalg.norm(got - loop) <= STACKED_RTOL * np.linalg.norm(loop)


def _lift_outcome(f):
    try:
        f()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("t, m, ops", CASES[1:], ids=CASE_IDS[1:])
def test_failing_lift_maps_raises_the_loops_first_failure(monkeypatch, t, m, ops):
    # a random projection passed off as a lift-invertible, twist-invariant one fails the laws with O(1)
    # defects (the first law holds for any e); over a sweep of tolerances through those defects the first
    # failing law moves, and the message must follow the loop
    e = projected(t, m)
    monkeypatch.setattr(morita, "check_idempotent", lambda t, e, tol: IdempotentReport(0, 0, 0, 0, 0, 0, tol))
    outcomes = []
    for eps in np.concatenate([[1e-13, 1e-6], np.geomspace(0.05, 2.0, 25), [1e2]]):
        tol = Tolerance(float(eps))
        want = _lift_outcome(lambda: loop_basis_lift_laws(ModuleLift(t, e, None), tol))
        assert _lift_outcome(lambda: lift_maps(t, e, tol)) == want
        outcomes.append(want)
    assert outcomes[0] is not None and outcomes[-1] is None


def test_the_zero_projection_gives_zero_defects_as_the_loops(monkeypatch):
    # e = 0: every basis is empty and B = 0, so no export compresses, and every defect is 0, as over an empty loop
    t, m, ops = CASES[3]
    e = IdempotentData(random_projection(t.shape, m.n, np.random.default_rng(0), [0] * t.shape.num_blocks))
    assert len(e.units.element.blocks[0]) == len(e.columns.element.blocks[0]) == 0
    assert ModuleLift(t, e, None).twist is None
    conn = Connection("right", e, ops)
    assert check_hermitian(t, conn).identity_defect == loop_identity_defect(t, conn, basis_vectors(conn)) == 0.0
    for rt in _exports(monkeypatch, t, e, ops):
        assert _compress(rt) is None
        assert _morita_defects(check_morita_triple(rt)) == loop_check_morita_triple(rt, []) == (
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0 if isinstance(rt, RightTriple) else None)
    t, m, ops = real_cases()[1].values
    e = IdempotentData(random_projection(t.shape, m.n, np.random.default_rng(0), [0] * t.shape.num_blocks))
    real = _real_export(monkeypatch, t, e, ops)
    report = check_real_triple(real)
    assert _compress(real) is None
    assert ((report.selfadjoint_defect, report.order_zero, report.first_order,
             (report.j_squared_sign, report.j_dirac_sign, report.j_grading_sign))
            == loop_check_real_triple(real, []) == (0.0, 0.0, 0.0, (1, 1, 1)))
    assert lift_maps(t, e).idempotent is e


def test_an_export_onto_zero_over_a_nonzero_b_gives_zero_defects_as_the_loops(monkeypatch):
    # e = E^0_00 + E^3_00 on U(1)xU(2) at ky = 0: B = C + C, but pi(e) and pi_opp(e) have no common support,
    # so the real export acts on H' = 0; its axioms hold vacuously, each KO sign is +1 and the KO-dimension 0,
    # whatever the one-forms
    t = tw.build_u1u2(1 + 0.5j, 0.0).triple
    x = t.shape.matrix_unit(0, 0, 0) + t.shape.matrix_unit(3, 0, 0)
    e = IdempotentData(AlgebraMatrix(t.shape, ((x,),)))
    assert lift_maps(t, e).twist.shape == AlgebraShape((1, 1))
    ops = random_ops(np.random.default_rng(3), 1, t.dim)
    real = _real_export(monkeypatch, t, e, ops)
    assert not real.projection.any() and _compress(real) is None
    report = check_real_triple(real)
    assert ((report.selfadjoint_defect, report.order_zero, report.first_order,
             (report.j_squared_sign, report.j_dirac_sign, report.j_grading_sign))
            == loop_check_real_triple(real, basis_pairs(e)) == (0.0, 0.0, 0.0, (1, 1, 1)))
    assert report.passes and report.ko_dimension == 0 and report.d_second_defect == 0.0


def test_samples_and_seed_are_ignored():
    t = tw.build_u1u2(1 + 0.5j, 0.0).triple
    e = half_idempotent(t.shape)
    conn = connection_with(t, e, [[selfadjoint_one_form(t, np.random.default_rng(0)) / 2] * 2] * 2)
    lift = lift_maps(t, e)
    exports = (build_right_triple(lift, conn), build_left_triple(lift, conjugate_connection(t, conn)))
    for kw in ({"samples": 0}, {"samples": 4, "seed": 9}, {"seed": 3}):
        assert all(check_morita_triple(rt, **kw) == check_morita_triple(rt) for rt in exports)


# ---------------------------------------------------------------------------
# basis verdicts against the sampled verdicts they replaced
# ---------------------------------------------------------------------------


def verdicts(t, e, conn, left=None):
    """The verdict of each check on (t, e, conn) and its exports: (basis verdicts, sampled verdicts).

    The sampled verdicts are those of the sampled checks the bases replaced,
    at their default samples and seed 0: the report with its defects and KO
    signs replaced by the loops' in the ambient space.  Exports are built whether or not the connection
    is hermitian, so that a non-hermitian one is checked too.  left is the
    left connection, by default the conjugate of conn when t is real and of
    first order.
    """
    basis = {"lift": _lift_outcome(lambda: lift_maps(t, e))}
    if basis["lift"] is not None and basis["lift"] not in LAWS:    # a precondition, checked before any law
        return basis, dict(basis)
    lift = ModuleLift(t, e, check_idempotent(t, e))
    sampled = {"lift": _lift_outcome(lambda: loop_lift_laws(lift))}
    first_order = DEFAULT_TOL.accepts(_triple_first_order_defect(t))
    if left is None and t.real is not None and first_order:
        left = conjugate_connection(t, conn)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morita, "_require_hermitian", lambda *args: None)
        for side, c, build in (("right", conn, build_right_triple), ("left", left, build_left_triple)):
            if c is None:
                continue
            report = check_hermitian(t, c)
            basis[f"{side} hermitian"] = report.passes
            sampled[f"{side} hermitian"] = dataclasses.replace(
                report, identity_defect=loop_identity_defect(t, c, sampled_vectors(c))).passes
            report = check_morita_triple(build(lift, c))
            sa, mult, reg, hom, inv, bracket = loop_check_morita_triple(build(lift, c), sampled_pairs(e, 10))
            basis[f"{side} triple"] = report.passes
            sampled[f"{side} triple"] = dataclasses.replace(
                report, selfadjoint_defect=sa, sigma_prime_multiplicative=mult, sigma_prime_regularity=reg,
                rep_homomorphism=hom, rep_involution=inv, bracket_identity_defect=bracket).passes
        if t.real is not None and t.grading is not None and first_order:
            real = build_real_triple(lift, conn)
            report = check_real_triple(real)
            sa, oz, fo, signs = loop_check_real_triple(real, sampled_pairs(e, 8))
            basis["real triple"], basis["real ko"] = report.passes, report.ko_dimension
            sampled["real triple"] = dataclasses.replace(
                report, selfadjoint_defect=sa, order_zero=oz, first_order=fo, j_squared_sign=signs[0],
                j_dirac_sign=signs[1], j_grading_sign=signs[2]).passes
            sampled["real ko"] = ko_dimension(signs)
    return basis, sampled


def _diagonal(shape, entries):
    zero = shape.zero()
    return IdempotentData(AlgebraMatrix(shape, tuple(tuple(x if i == j else zero for j in range(len(entries)))
                                                     for i, x in enumerate(entries))))


def _sandwiched(t, e, w):
    """The right connection with one-form matrix e.(w 1_n).e: hermitian for a selfadjoint w and a twist-invariant e."""
    return connection_with(t, e, _sandwich_right(t, e.matrix, np.kron(np.eye(e.n), w).reshape(e.n, t.dim, e.n, t.dim)
                                                 .swapaxes(1, 2)))


def verdict_corpus():
    """U(1)xU(2) at ky = 0 with the half idempotent and E = diag(p, 1), p the sum of E^k_00 over blocks 0, 2, 3
    and 5, each with a Grassmann, a hermitian and a non-hermitian connection; the `morita --self` exports (e = 1)
    of U(1)xU(2); random_real_triple(3) with a projection onto eigenvectors of its twist."""
    ky0, u1u2, rand6 = (tw.build_u1u2(1 + 0.5j, 0.0).triple, tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j).triple,
                        tw.random_real_triple(3))
    shape = ky0.shape
    p = sum((shape.matrix_unit(k, 0, 0) for k in (2, 3, 5)), shape.matrix_unit(0, 0, 0))
    rng = np.random.default_rng(81)
    cases = []
    for name, e in (("half", half_idempotent(shape)), ("diag-p-1", _diagonal(shape, (p, shape.unit())))):
        w = selfadjoint_one_form(ky0, rng)
        for kind, conn in (("grassmann", grassmann(ky0, e)), ("hermitian", _sandwiched(ky0, e, w)),
                           ("non-hermitian", connection_with(ky0, e, random_ops(rng, e.n, ky0.dim)))):
            cases.append(pytest.param(ky0, e, conn, None, id=f"ky0-{name}-{kind}"))
    w = selfadjoint_one_form(u1u2, rng)
    one = IdempotentData(amat_unit(u1u2.shape, 1))
    cases.append(pytest.param(u1u2, one, connection_with(u1u2, one, [[w]]),
                              connection_with(u1u2, one, [[u1u2.epsilon_prime() * u1u2.real.j.conjugate(w)]], "left"),
                              id="u1u2-self"))
    # sigma is conjugation by a positive S: a projection onto eigenvectors of S (amplified) is twist-invariant
    s = rand6.sigma.conjugators[0]
    v = np.linalg.eigh(s)[1]
    q = np.kron(np.diag([1.0, 0.0]), np.outer(v[:, 0], v[:, 0].conj())) + np.kron(np.diag([0.0, 1.0]), np.eye(2))
    e = IdempotentData(_packed(rand6.shape, 2, AlgebraElement(_amplified(rand6.shape, 2), (q, np.diag([1.0, 0.0])))))
    cases.append(pytest.param(rand6, e, grassmann(rand6, e), None, id="rand6-eigen-grassmann"))
    return cases


@pytest.mark.parametrize("t, e, conn, left", verdict_corpus())
def test_basis_morita_verdicts_are_the_sampled_verdicts(t, e, conn, left):
    basis, sampled = verdicts(t, e, conn, left)
    assert basis == sampled


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2]), hermitian=st.booleans())
def test_basis_morita_verdicts_are_the_sampled_verdicts_on_drawn_projections(seed, n, hermitian):
    """Random twist-invariant projections of U(1)xU(2) at ky = 0 (the flip twist swaps blocks k and k + 3)."""
    t = tw.build_u1u2(1 + 0.5j, 0.0).triple
    rng = np.random.default_rng(seed)
    half = random_projection(AlgebraShape(t.shape.block_dims[:3]), n, rng).element.blocks
    e = IdempotentData(_packed(t.shape, n, AlgebraElement(_amplified(t.shape, n), half + half)))
    conn = (_sandwiched(t, e, selfadjoint_one_form(t, rng)) if hermitian
            else connection_with(t, e, random_ops(rng, n, t.dim)))
    basis, sampled = verdicts(t, e, conn)
    assert basis == sampled


def test_a_real_first_order_defect_reads_lower_on_the_basis_than_on_the_samples(monkeypatch):
    # the basis and the samples take the maximum over different elements, so their defects differ, and a
    # verdict can differ where a defect is within a small factor of the tolerance: on the real export of the
    # half idempotent at ky = 0 with a non-hermitian connection, first order reads 0.89 on the basis and 2.3
    # on the samples, so at a tolerance of 1 the basis passes what the samples failed
    monkeypatch.setattr(morita, "_require_hermitian", lambda *args: None)
    [(t, e, conn, _)] = [p.values for p in verdict_corpus() if p.id == "ky0-half-non-hermitian"]
    real = build_real_triple(lift_maps(t, e), conn)
    basis = check_real_triple(real, tol=Tolerance(1.0)).first_order
    _, _, sampled, _ = loop_check_real_triple(real, sampled_pairs(e, 8))
    assert 0.5 < basis < 1.0 < 2.0 < sampled < 2.6
    assert abs(basis - loop_check_real_triple(real, basis_pairs(e))[2]) <= STACKED_RTOL
