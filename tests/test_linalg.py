import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.linalg import (
    AntilinearOp,
    Tolerance,
    cmatrix,
    dagger,
    frobenius,
    rel_defect,
    rel_defects,
    relative,
    sq_norms,
)

RNG = np.random.default_rng(0)


def crand(*shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(n, rng=RNG):
    q, r = np.linalg.qr(crand(n, n, rng=rng))
    return q @ np.diag(np.exp(1j * np.angle(np.diag(r))))


class TestApproxEq:
    """X ~ Y at a tolerance iff rel_defect(X, Y) <= abs_eps."""

    def test_equal(self):
        x = crand(3, 3)
        assert rel_defect(x, x) == 0.0

    def test_below_threshold(self):
        x = np.zeros((2, 2))
        y = np.zeros((2, 2))
        y[0, 0] = 0.5e-10
        assert rel_defect(x, y) <= Tolerance().abs_eps

    def test_above_threshold(self):
        x = np.eye(2)
        y = np.eye(2).astype(complex)
        y[0, 0] += 1e-3
        assert not rel_defect(x, y) <= Tolerance().abs_eps

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rel_defect(np.eye(2), np.eye(3))

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            Tolerance(0.0)


class TestCMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            cmatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            cmatrix([1.0, 2.0])


class TestAdjoint:
    def test_product_adjoint(self):
        a, b = crand(3, 4), crand(4, 3)
        assert rel_defect(dagger(a @ b), dagger(b) @ dagger(a)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
    def test_product_adjoint_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = crand(n, n, rng=rng), crand(n, n, rng=rng)
        assert rel_defect(dagger(a @ b), dagger(b) @ dagger(a)) <= 1e-10


class TestAntilinear:
    def test_plain_conjugation_flips_i(self):
        j = AntilinearOp(np.eye(2))
        assert np.allclose(j.conjugate(1j * np.eye(2)), -1j * np.eye(2))

    def test_real_matrices_fixed(self):
        j = AntilinearOp(np.eye(3))
        t = np.real(crand(3, 3))
        assert np.allclose(j.conjugate(t), t)

    def test_defining_property_on_vectors(self):
        # (J T J^{-1})(J psi) = J(T psi) for 20 random psi
        j = AntilinearOp(random_unitary(4))
        t = crand(4, 4)
        conj_t = j.conjugate(t)
        for _ in range(20):
            psi = crand(4, 1)[:, 0]
            assert np.allclose(conj_t @ j(psi), j(t @ psi), atol=1e-10)

    def test_multiplicative_for_unitary(self):
        j = AntilinearOp(random_unitary(3))
        t, s = crand(3, 3), crand(3, 3)
        assert rel_defect(j.conjugate(t @ s), j.conjugate(t) @ j.conjugate(s)) <= 1e-10

    def test_isometry_defect(self):
        assert AntilinearOp(random_unitary(5)).isometry_defect() <= 1e-12
        assert AntilinearOp(2 * np.eye(2)).isometry_defect() > 1e-3

    def test_singular_matrix_rejected(self):
        j = AntilinearOp(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="real structure not invertible"):
            j.conjugate(np.eye(2))


class TestStackedDefects:
    def test_rel_defects_match_rel_defect_per_matrix(self):
        x, y = crand(3, 2, 4, 5), crand(3, 2, 4, 5)
        x[0, 1] *= 1e-3    # a pair below the unit scale
        expected = [[rel_defect(x[i, j], y[i, j]) for j in range(2)] for i in range(3)]
        diff = x - y
        got = rel_defects(x, y)
        assert got.shape == (3, 2)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)
        assert np.array_equal(x, diff)     # x is overwritten by x - y

    def test_rel_defects_on_a_transposed_view(self):
        x, y = crand(4, 3, 3), crand(4, 3, 3)
        expected = [rel_defect(dagger(x[k]), y[k]) for k in range(4)]
        assert np.allclose(rel_defects(dagger(x), y), expected, rtol=1e-12, atol=0)

    def test_sq_norms_and_empty_stacks(self):
        x = crand(2, 3, 3)
        assert np.allclose(sq_norms(x), [np.linalg.norm(m) ** 2 for m in x], rtol=1e-12, atol=0)
        assert sq_norms(np.zeros((0, 3, 3), complex)).shape == (0,)
        assert rel_defects(np.zeros((0, 3, 3), complex), np.zeros((0, 3, 3), complex)).shape == (0,)


class TestRelative:
    """`relative` is the one floor of every defect: dist / max(1, *norms), elementwise."""

    def test_below_norm_one_it_is_the_absolute_distance(self):
        assert relative(0.3, 0.5, 0.9) == 0.3
        assert relative(0.3) == 0.3
        assert relative(2e-12, 1e-12, 1.0) == 2e-12

    def test_above_norm_one_it_is_the_relative_distance(self):
        assert relative(3.0, 2.0, 6.0) == 0.5
        assert relative(3.0, 6.0, 2.0) == 0.5

    def test_elementwise_on_a_grid(self):
        rng = np.random.default_rng(1)
        dist, rows, cols = rng.uniform(0, 3, (4, 5)), rng.uniform(0, 3, 4), rng.uniform(0, 3, 5)
        got = relative(dist, rows[:, None], cols)
        assert got.shape == (4, 5)
        assert np.array_equal(got, [[dist[i, k] / max(1.0, rows[i], cols[k]) for k in range(5)] for i in range(4)])

    def test_floats_and_arrays_agree(self):
        for dist, norms in ((0.3, (0.5, 0.9)), (3.0, (2.0, 6.0)), (1.5, (7.0,))):
            assert relative(np.array(dist), *map(np.array, norms)) == relative(dist, *norms)

    @pytest.mark.parametrize("scale", [1e-12, 1e-3, 1.0, 1e3, 1e12])
    def test_rel_defect_and_rel_defects_follow_it(self, scale):
        x, y = scale * crand(3, 4, 4), scale * crand(3, 4, 4)
        want = [relative(frobenius(a - b), frobenius(a), frobenius(b)) for a, b in zip(x, y)]
        assert [rel_defect(a, b) for a, b in zip(x, y)] == want
        assert np.allclose(rel_defects(x.copy(), y), want, rtol=1e-14, atol=0)
        if scale < 1e-3:
            assert np.allclose(want, [frobenius(a - b) for a, b in zip(x, y)], rtol=0, atol=0)

    def test_frobenius_is_the_matrix_norm(self):
        x = crand(5, 7)
        assert abs(frobenius(x) - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)
        assert frobenius(x.ravel()) == frobenius(x)
