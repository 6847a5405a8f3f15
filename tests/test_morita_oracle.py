"""The packed algebra matrices, the Morita block assemblers, the first-order gate and the stacked spot checks against the loops they replaced.

The loops below are the reference oracles: block placement is exact, so the
entries, +, - and star of a packed matrix, the grid assemblers and the exported
operators must equal them bit for bit; products, the entrywise twist, norms,
the sandwiches, the module-vector helpers and the first-order gate reassociate
sums and agree to rtol 1e-13.  Arithmetic results skip validation, and must be
byte for byte what the validating constructor makes of the same blocks.

The spot checks of `lift_maps`, `check_hermitian`, `check_morita_triple` and
`check_real_triple` draw their samples at once and evaluate each identity over
a sample axis.  Their per-sample loops are kept here: the stacked draws equal
the sequential ones bit for bit, and on data with O(1) defects every stacked
defect agrees with its loop to rtol 1e-12.
"""
import numpy as np
import pytest

import twistlab as tw
import twistlab.morita as morita
from twistlab.algebra import AlgebraElement, Automorphism, check_regularity
from twistlab.linalg import DEFAULT_TOL, Tolerance, dagger, rel_defect
from twistlab.morita import (
    AlgebraMatrix,
    Connection,
    IdempotentData,
    IdempotentReport,
    ModuleLift,
    RightTriple,
    _amplified,
    _blocks,
    _dirac_grid,
    _grid,
    _on_cols,
    _on_rows,
    _opp_grid,
    _pi_grid,
    _samples,
    _sandwich_left,
    _sandwich_right,
    _triple_first_order_defect,
    amat_random,
    amat_scalar,
    amat_unit,
    apply_connection,
    apply_connection_left,
    build_left_triple,
    build_real_triple,
    build_right_triple,
    check_hermitian,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    connection_with,
    grassmann,
    inner_product,
    lift_maps,
    module_vector,
    random_module_vector,
    random_row_vector,
    row_vector,
)

from twistlab.pert import eta, eta_adjoint_pairs

from conftest import column, ladder_triple, random_normalized_pert, row
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


def loop_hermitian_identity(t, conn, samples=10, seed=0):
    """identity_defect of `check_hermitian`, with module vectors as tuples."""
    rng = np.random.default_rng(seed)
    e = conn.idempotent.matrix
    sinv = t.sigma.inverse()
    worst = 0.0
    for _ in range(samples):
        lhs = np.zeros((t.dim, t.dim), complex)
        if conn.side == "right":
            xi, xip = loop_random_module_vector(e, rng), loop_random_module_vector(e, rng)
            for x0, om in loop_apply_connection(t, conn, xi):
                lhs += t.pi(t.sigma(loop_inner_product(xip, x0))) @ om
            for x0, om in loop_apply_connection(t, conn, loop_sigma_lift(e, xip, sinv)):
                lhs -= dagger(om) @ t.pi(loop_inner_product(x0, xi))
            rhs = t.twisted_commutator(loop_inner_product(xip, xi))
        else:
            zeta, zetap = loop_random_row_vector(e, rng), loop_random_row_vector(e, rng)
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
        conn = Connection(side, IdempotentData(m), ops)
        got = check_hermitian(t, conn, samples=3, seed=7).identity_defect
        loop = loop_hermitian_identity(t, conn, samples=3, seed=7)
        assert loop > 1e-3
        assert abs(got - loop) <= RTOL * loop


# ---------------------------------------------------------------------------
# the stacked spot checks against their per-sample loops
# ---------------------------------------------------------------------------

STACKED_RTOL = 1e-12


def _random_b(e, rng):
    return e * amat_random(e.shape, e.n, rng, 0.7) * e


def loop_lift_laws(lift, tol=DEFAULT_TOL, samples=5):
    """The spot checks of `lift_maps`, one sample at a time: the first failing (sample, law) raises."""
    t, e = lift.triple, lift.idempotent
    rng = np.random.default_rng(0)
    em = e.matrix
    eps = tol.abs_eps
    regular = check_regularity(t.sigma, tol=tol).passes
    for _ in range(samples):
        xi = random_module_vector(em, rng)
        a = amat_scalar(t.shape.random_element(rng), e.n)
        if lift.sigma_lift(xi * a).defect(lift.sigma_lift(xi) * a.map(t.sigma)) > eps:
            raise ValueError("lift does not intertwine the module action with the twist")
        if lift.sigma_lift_inv(lift.sigma_lift(xi)).defect(xi) > eps:
            raise ValueError("lift roundtrip is not the identity on the module")
        b, c = _random_b(em, rng), _random_b(em, rng)
        if lift.sigma_prime(b * c).defect(lift.sigma_prime(b) * lift.sigma_prime(c)) > eps:
            raise ValueError("lifted twist is not multiplicative on the endomorphism algebra")
        if lift.sigma_prime_inv(lift.sigma_prime(b)).defect(b) > eps:
            raise ValueError("lifted twist roundtrip fails on the endomorphism algebra")
        if regular and lift.sigma_prime(b.star()).defect(lift.sigma_prime_inv(b).star()) > eps:
            raise ValueError("lifted twist loses the regularity property")


def loop_check_hermitian(t, conn, samples=10, seed=0):
    """(identity, selfadjoint, sandwich) defects of `check_hermitian`, one sample and one entry at a time."""
    rng = np.random.default_rng(seed)
    e = conn.idempotent.matrix
    n = conn.n
    m = conn.one_forms

    sa = max(rel_defect(dagger(m[i][j]), m[j][i]) for i in range(n) for j in range(n))
    sandwich = _sandwich_right(t, e, m) if conn.side == "right" else _sandwich_left(t, e, m)
    sw = max(rel_defect(sandwich[i][j], m[i][j]) for i in range(n) for j in range(n))

    worst = 0.0
    sinv = t.sigma.inverse()
    for _ in range(samples):
        if conn.side == "right":
            xi = random_module_vector(e, rng)
            xip = random_module_vector(e, rng)
            lhs = np.zeros((t.dim, t.dim), complex)
            for x0, om in apply_connection(t, conn, xi):
                lhs += t.pi(t.sigma(inner_product(xip, x0))) @ om
            sxi = e * xip.map(sinv)
            for x0, om in apply_connection(t, conn, sxi):
                lhs -= dagger(om) @ t.pi(inner_product(x0, xi))
            rhs = t.twisted_commutator(inner_product(xip, xi))
            worst = max(worst, rel_defect(lhs, rhs))
        else:
            zeta = random_row_vector(e, rng)
            zetap = random_row_vector(e, rng)
            pairing = lambda zp, z: (zp * z.star()).entries[0][0]
            szeta = zeta.map(t.sigma) * e
            lhs = np.zeros((t.dim, t.dim), complex)
            for om, z0 in apply_connection_left(t, conn, szeta):
                lhs -= dagger(om) @ t.pi_opp(pairing(zetap, z0))
            for om, z0 in apply_connection_left(t, conn, zetap):
                lhs += t.pi_opp(sinv(pairing(z0, zeta))) @ om
            rhs = t.twisted_commutator_opp(pairing(zetap, zeta))
            worst = max(worst, rel_defect(lhs, rhs))
    return worst, sa, sw


def loop_check_morita_triple(rt, samples=10, seed=0):
    """The sampled defects of `check_morita_triple` (mult, reg, hom, inv, bracket), one sample at a time."""
    t = rt.triple
    e = rt.lift.idempotent.matrix
    rng = np.random.default_rng(seed)
    proj = rt.projection
    rep = rt.pi_r if isinstance(rt, RightTriple) else rt.pi_l
    sp = rt.lift.sigma_prime
    sp_inv = rt.lift.sigma_prime_inv
    mult = reg = hom = inv = 0.0
    bracket_id = 0.0 if isinstance(rt, RightTriple) else None
    dm = _dirac_grid(t, rt.connection.one_forms)
    for _ in range(samples):
        b, c = _random_b(e, rng), _random_b(e, rng)
        mult = max(mult, sp(b * c).defect(sp(b) * sp(c)))
        reg = max(reg, sp(b.star()).defect(sp_inv(b).star()))
        prod = b * c if isinstance(rt, RightTriple) else c * b
        hom = max(hom, rel_defect(rep(b) @ rep(c), rep(prod)))
        inv = max(inv, rel_defect(dagger(proj @ rep(b) @ proj), proj @ rep(b.star()) @ proj))
        if isinstance(rt, RightTriple):
            inner = dm @ _pi_grid(t, b) - _pi_grid(t, b.map(t.sigma)) @ dm
            rhs = _pi_grid(t, e) @ inner @ proj
            bracket_id = max(bracket_id, rel_defect(rt.bracket(b) @ proj, rhs))
    return mult, reg, hom, inv, bracket_id


def loop_check_real_triple(rt, samples=8, seed=0):
    """The sampled defects of `check_real_triple` (order zero, first order), one sample at a time."""
    e = rt.lift.idempotent.matrix
    rng = np.random.default_rng(seed)
    proj, dp = rt.projection, rt.d_prime
    oz = fo = 0.0
    sp, sp_inv = rt.lift.sigma_prime, rt.lift.sigma_prime_inv
    for _ in range(samples):
        b, c = _random_b(e, rng), _random_b(e, rng)
        pb, pc = rt.pi_prime(b), rt.pi_prime_opp(c)
        oz = max(oz, rel_defect(pb @ pc @ proj, pc @ pb @ proj))
        x = dp @ pb - rt.pi_prime(sp(b)) @ dp
        outer = x @ pc - rt.pi_prime_opp(sp_inv(c)) @ x
        fo = max(fo, float(np.linalg.norm(outer @ proj)) / max(1.0, float(np.linalg.norm(x))))
    return oz, fo


def _agree(got, loop):
    """Stacked and loop defects agree to STACKED_RTOL, and the loop's is O(1), so the agreement says something."""
    return loop > 1e-3 and abs(got - loop) <= STACKED_RTOL * loop


# Each check draws these kinds of sample per round; the sequential helpers it replaced draw them one by one.
CHECK_DRAWS = {
    "lift_maps": ("column", "scalar", "endo", "endo"),
    "check_hermitian right": ("column", "column"),
    "check_hermitian left": ("row", "row"),
    "check_morita_triple and check_real_triple": ("endo", "endo"),
}
SEQUENTIAL_DRAWS = {
    "column": random_module_vector,
    "row": random_row_vector,
    "scalar": lambda e, rng: amat_scalar(e.shape.random_element(rng), e.n),
    "endo": _random_b,
}


@pytest.mark.parametrize("kinds", list(CHECK_DRAWS.values()), ids=list(CHECK_DRAWS))
@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
def test_stacked_draws_equal_the_sequential_ones(t, m, ops, kinds):
    samples = 3
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    stacked = _samples(m, r1, samples, kinds)
    for s in range(samples):
        for kind, x in zip(kinds, stacked):
            want = SEQUENTIAL_DRAWS[kind](m, r2)
            assert x.n == want.n
            assert all(np.array_equal(a[s], b) for a, b in zip(x.element.blocks, want.element.blocks))
    assert r1.random() == r2.random()


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("t, m, ops", CASES, ids=CASE_IDS)
def test_stacked_check_hermitian_matches_its_loop(t, m, ops, side):
    # random one-forms are far from hermitian, so all three defects are O(1)
    conn = Connection(side, IdempotentData(m), ops)
    got = check_hermitian(t, conn, samples=4, seed=3)
    loop = loop_check_hermitian(t, conn, samples=4, seed=3)
    for g, want in zip((got.identity_defect, got.selfadjoint_defect, got.sandwich_defect), loop):
        assert _agree(g, want)


def _unchecked_exports(monkeypatch, t, m, ops):
    """The right and left exports of a random, non-idempotent m with random one-forms, hermiticity unchecked."""
    monkeypatch.setattr(morita, "_require_hermitian", lambda *args: None)
    e = IdempotentData(m)
    lift = ModuleLift(t, e, None)
    return (build_right_triple(lift, Connection("right", e, ops)),
            build_left_triple(lift, Connection("left", e, ops)))


@pytest.mark.parametrize("t, m, ops", CASES[1:], ids=CASE_IDS[1:])
def test_stacked_check_morita_triple_matches_its_loop(monkeypatch, t, m, ops):
    for rt in _unchecked_exports(monkeypatch, t, m, ops):
        got = check_morita_triple(rt, samples=4, seed=5)
        loop = loop_check_morita_triple(rt, samples=4, seed=5)
        values = (got.sigma_prime_multiplicative, got.sigma_prime_regularity, got.rep_homomorphism,
                  got.rep_involution, got.bracket_identity_defect)
        for g, want in zip(values, loop):
            assert (g is want is None) or _agree(g, want)


def real_cases():
    """Random non-idempotent m with random one-forms on the first-order triples U(1)xU(2) at ky = 0 and the toy.

    The toy's algebra C + C is commutative, so its order-zero defect is O(1) only from n = 2 on.
    """
    rng = np.random.default_rng(71)
    ky0, toy = tw.build_u1u2(1 + 0.5j, 0.0).triple, tw.two_point_model()
    return [pytest.param(t, amat_random(t.shape, n, rng), random_ops(rng, n, t.dim), id=f"{name}-n{n}")
            for name, t, n in (("ky0", ky0, 1), ("ky0", ky0, 2), ("toy", toy, 2))]


@pytest.mark.parametrize("t, m, ops", real_cases())
def test_stacked_check_real_triple_matches_its_loop(monkeypatch, t, m, ops):
    monkeypatch.setattr(morita, "_require_hermitian", lambda *args: None)
    e = IdempotentData(m)
    rt = build_real_triple(ModuleLift(t, e, None), Connection("right", e, ops))
    got = check_real_triple(rt, samples=3, seed=2)
    for g, want in zip((got.order_zero, got.first_order), loop_check_real_triple(rt, samples=3, seed=2)):
        assert _agree(g, want)


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
    # a random m passed off as a lift-invertible idempotent fails the spot checks with O(1) defects
    # (the first law holds for any m); over a sweep of tolerances through those defects the first
    # failing (sample, law) pair moves, and the message must follow the loop
    e = IdempotentData(m)
    monkeypatch.setattr(morita, "check_idempotent", lambda t, e, tol: IdempotentReport(0, 0, 0, 0, 0, 0, tol))
    outcomes = []
    for eps in np.concatenate([[1e-13, 1e-6], np.geomspace(0.5, 2.0, 25), [1e2]]):
        tol = Tolerance(float(eps))
        want = _lift_outcome(lambda: loop_lift_laws(ModuleLift(t, e, None), tol))
        assert _lift_outcome(lambda: lift_maps(t, e, tol)) == want
        outcomes.append(want)
    assert outcomes[0] is not None and outcomes[-1] is None


def test_no_samples_give_zero_sampled_defects_as_the_loops(monkeypatch):
    t, m, ops = CASES[3]
    conn = Connection("right", IdempotentData(m), ops)
    assert check_hermitian(t, conn, samples=0).identity_defect == loop_check_hermitian(t, conn, samples=0)[0] == 0.0
    for rt in _unchecked_exports(monkeypatch, t, m, ops):
        report = check_morita_triple(rt, samples=0)
        values = (report.sigma_prime_multiplicative, report.sigma_prime_regularity, report.rep_homomorphism,
                  report.rep_involution, report.bracket_identity_defect)
        assert values == loop_check_morita_triple(rt, samples=0)
    t, m, ops = real_cases()[1].values
    e = IdempotentData(m)
    real = build_real_triple(ModuleLift(t, e, None), Connection("right", e, ops))
    report = check_real_triple(real, samples=0)
    assert (report.order_zero, report.first_order) == loop_check_real_triple(real, samples=0) == (0.0, 0.0)
    monkeypatch.setattr(morita, "check_idempotent", lambda t, e, tol: IdempotentReport(0, 0, 0, 0, 0, 0, tol))
    assert lift_maps(t, e, samples=0).idempotent is e
