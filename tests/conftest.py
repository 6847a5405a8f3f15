import numpy as np
import pytest

import twistlab as tw
from twistlab.algebra import AlgebraElement
from twistlab.morita import AlgebraMatrix, _amplified, _columns, _nabla_ops, _packed


@pytest.fixture(scope="session")
def u1u2():
    return tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j)


@pytest.fixture(scope="session")
def u1u2_ky0():
    return tw.build_u1u2(1 + 0.5j, 0.0)


@pytest.fixture(scope="session")
def toy():
    return tw.two_point_model()


@pytest.fixture(scope="session")
def rand6():
    return tw.random_real_triple(3)


@pytest.fixture(scope="session")
def corpus(u1u2, toy, rand6):
    return {"toy": toy, "u1u2": u1u2.triple, "rand6": rand6}


def random_pert(t, rng, n_pairs=None, scale=0.5):
    n = int(rng.integers(1, 4)) if n_pairs is None else n_pairs
    pairs = tuple(
        (t.shape.random_element(rng, scale), t.shape.random_element(rng, scale)) for _ in range(n)
    )
    return tw.Perturbation(t.shape, pairs)


def random_normalized_pert(t, rng, n_pairs=None, scale=0.5):
    return tw.normalize(t, random_pert(t, rng, n_pairs, scale))


def amat_random(shape, n, rng, scale=1.0):
    """An n x n matrix over A with random entries, drawn entry by entry in row-major order."""
    return AlgebraMatrix(shape, [[shape.random_element(rng, scale) for _ in range(n)] for _ in range(n)])


def module_vector(shape, entries):
    """The column vector with these entries, as column 0 of an n x n matrix."""
    zero = shape.zero()
    return AlgebraMatrix(shape, [[x] + [zero] * (len(entries) - 1) for x in entries])


def row_vector(shape, entries):
    """The row vector with these entries, as row 0 of an n x n matrix."""
    zero = shape.zero()
    n = len(entries)
    return AlgebraMatrix(shape, [list(entries)] + [[zero] * n for _ in range(n - 1)])


def random_module_vector(e, rng, scale=1.0):
    """e xi for xi with n random entries, drawn in order."""
    return e * module_vector(e.shape, [e.shape.random_element(rng, scale) for _ in range(e.n)])


def random_row_vector(e, rng, scale=1.0):
    """zeta e for zeta with n random entries, drawn in order."""
    return row_vector(e.shape, [e.shape.random_element(rng, scale) for _ in range(e.n)]) * e


def inner_product(xp, x):
    """(xi', xi) = sum_i xi'_i* xi_i, entry (0, 0) of xi'* xi."""
    return (xp.star() * x).entry(0, 0)


def apply_connection(t, conn, xi):
    """Snyder decomposition of nabla(xi) on e A^n: a list of (e-column j, delta(xi_j) + sum_k m_j^k pi(xi_k))."""
    if conn.side != "right":
        raise ValueError("apply_connection handles right connections")
    ops, columns = _nabla_ops(t, conn, xi), _columns(conn.idempotent.matrix)
    return [(columns[j], ops[j]) for j in range(conn.n)]


def apply_connection_left(t, conn, zeta):
    """Snyder decomposition of nabla_opp(zeta) on A^n e: a list of (opposite one-form op, e-row j)."""
    if conn.side != "left":
        raise ValueError("apply_connection_left handles left connections")
    ops = _nabla_ops(t, conn, zeta)
    rows = _columns(conn.idempotent.matrix.star()).star()    # row j of e is column j of e*, starred
    return [(ops[j], rows[j]) for j in range(conn.n)]


def random_projection(shape, n, rng, ranks=None):
    """A random projection e = e* = e^2 in M_n(A): in block k of + M_{n n_k}(C), of rank ranks[k] or drawn."""
    blocks = []
    for k, m in enumerate(n * nk for nk in shape.block_dims):
        r = int(rng.integers(0, m + 1)) if ranks is None else ranks[k]
        q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0][:, :r]
        blocks.append(q @ q.conj().T)
    return _packed(shape, n, AlgebraElement(_amplified(shape, n), tuple(blocks)))


def column(xi):
    """The entries of a packed module vector, held in column 0; every other column must be exactly 0."""
    assert all(not np.any(b) for row in xi.entries for x in row[1:] for b in x.blocks)
    return [row[0] for row in xi.entries]


def row(zeta):
    """The entries of a packed row vector, held in row 0; every other row must be exactly 0."""
    assert all(not np.any(b) for r in zeta.entries[1:] for x in r for b in x.blocks)
    return list(zeta.entries[0])


def ladder_triple(n, seed):
    """Seeded M_n acting on H = M_n by left multiplication (d = n^2).

    J is the entrywise adjoint, D = X + J X J^-1 with X random hermitian, and
    the twist is conjugation by a positive matrix: order zero holds exactly,
    first order generically fails.
    """
    rng = np.random.default_rng(seed)
    d = n * n
    shape = tw.AlgebraShape((n,))
    units = np.zeros((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            units[i, j] = np.kron(e, np.eye(n))
    swap = np.zeros((d, d), dtype=complex)
    for p in range(n):
        for q in range(n):
            swap[p * n + q, q * n + p] = 1.0
    j = tw.AntilinearOp(swap)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = 0.5 * (x + np.conj(x.T))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + np.conj(h.T))
    s = np.eye(n) + 0.4 * h / max(1.0, float(np.linalg.norm(h)))
    return tw.TwistedTriple(shape, tw.Representation(shape, d, (units,)), x + j.conjugate(x),
                            tw.Automorphism(shape, (0,), (s,)),
                            real=tw.RealStructure(j, epsilon=1, epsilon_prime=1))
