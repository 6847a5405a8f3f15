import numpy as np
import pytest

from twistlab.algebra import (
    AlgebraElement,
    AlgebraShape,
    Automorphism,
    Unitary,
    check_regularity,
    identity_automorphism,
)
from twistlab.linalg import DEFAULT_TOL, Tolerance

SHAPE = AlgebraShape((1, 2))          # C + M2(C)
DOUBLE = AlgebraShape((1, 2, 1, 2))   # (C + M2) + (C + M2), for the flip


def flip_double():
    conj = tuple(np.eye(n, dtype=complex) for n in DOUBLE.block_dims)
    return Automorphism(DOUBLE, (2, 3, 0, 1), conj)


def random_inner_m2(rng, unitary=False):
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if unitary:
        q, r = np.linalg.qr(x)
        x = q @ np.diag(np.exp(1j * np.angle(np.diag(r))))
    else:
        x = x + 2.0 * np.eye(2)  # keep it comfortably invertible
    return Automorphism(SHAPE, (0, 1), (np.eye(1, dtype=complex), x))


class TestElementOps:
    def test_unit_law(self):
        rng = np.random.default_rng(1)
        a = SHAPE.random_element(rng)
        assert (SHAPE.unit() * a).defect(a) == 0.0
        assert (a * SHAPE.unit()).defect(a) == 0.0

    def test_star_involutive(self):
        a = SHAPE.random_element(np.random.default_rng(2))
        assert a.star().star().defect(a) == 0.0

    def test_star_antimultiplicative_blockwise_oracle(self):
        rng = np.random.default_rng(3)
        a, b = SHAPE.random_element(rng), SHAPE.random_element(rng)
        lhs = (a * b).star()
        rhs = b.star() * a.star()
        # entrywise oracle, block by block
        for la, lb, ba, bb in zip(lhs.blocks, rhs.blocks, a.blocks, b.blocks):
            assert np.allclose(la, np.conj((ba @ bb).T), atol=1e-12)
            assert np.allclose(la, lb, atol=1e-12)

    def test_shape_mismatch(self):
        other = AlgebraShape((2, 1))
        with pytest.raises(ValueError):
            SHAPE.unit() * other.unit()
        with pytest.raises(ValueError, match="shape mismatch"):
            SHAPE.unit().defect(other.unit())

    def test_norm_and_defect_match_the_per_block_norms(self):
        rng = np.random.default_rng(4)
        a, b = DOUBLE.random_element(rng), DOUBLE.random_element(rng)
        block_norm = lambda x: np.sqrt(sum(np.linalg.norm(blk) ** 2 for blk in x.blocks))
        assert a.norm() == pytest.approx(block_norm(a), rel=1e-15)
        expected = block_norm(a - b) / max(1.0, block_norm(a), block_norm(b))
        assert a.defect(b) == pytest.approx(expected, rel=1e-14)
        assert DOUBLE.zero().norm() == 0.0 and a.defect(a) == 0.0


class TestAutomorphism:
    def test_identity(self):
        rng = np.random.default_rng(4)
        a = SHAPE.random_element(rng)
        assert identity_automorphism(SHAPE)(a).defect(a) == 0.0

    def test_flip_swaps_halves(self):
        rng = np.random.default_rng(5)
        x, y = SHAPE.random_element(rng), SHAPE.random_element(rng)
        a = AlgebraElement(DOUBLE, x.blocks + y.blocks)
        flipped = flip_double()(a)
        assert flipped.defect(AlgebraElement(DOUBLE, y.blocks + x.blocks)) == 0.0

    def test_inner_multiplicative_on_50_pairs(self):
        rng = np.random.default_rng(6)
        sigma = random_inner_m2(rng)
        for _ in range(50):
            a, b = SHAPE.random_element(rng), SHAPE.random_element(rng)
            assert sigma(a * b).defect(sigma(a) * sigma(b)) <= 1e-12

    def test_unit_preserved(self):
        rng = np.random.default_rng(7)
        sigma = random_inner_m2(rng)
        assert sigma(SHAPE.unit()).defect(SHAPE.unit()) <= 1e-12
        assert flip_double()(DOUBLE.unit()).defect(DOUBLE.unit()) == 0.0

    def test_inverse_identity_and_flip(self):
        inv = identity_automorphism(SHAPE).inverse()
        assert inv.perm == tuple(range(SHAPE.num_blocks))
        for _, a in SHAPE.basis():
            assert inv(a).defect(a) == 0.0
        flip = flip_double()
        rng = np.random.default_rng(8)
        a = DOUBLE.random_element(rng)
        assert flip.inverse()(a).defect(flip(a)) == 0.0  # flip is involutive

    def test_inverse_roundtrip_50(self):
        rng = np.random.default_rng(9)
        sigma = random_inner_m2(rng)
        inv = sigma.inverse()
        for _ in range(50):
            a = SHAPE.random_element(rng)
            assert inv(sigma(a)).defect(a) <= 1e-12
            assert sigma(inv(a)).defect(a) <= 1e-12

    def test_dimension_preserving_perm_required(self):
        with pytest.raises(ValueError):
            Automorphism(SHAPE, (1, 0), (np.eye(1), np.eye(2)))

    def test_writing_the_source_conjugator_leaves_sigma_unchanged(self):
        rng = np.random.default_rng(11)
        source = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        sigma = Automorphism(SHAPE, (0, 1), (np.eye(1, dtype=complex), source))
        a = SHAPE.random_element(rng)
        before = sigma(a).blocks[1].copy()
        source[:] = np.diag([3.0, 0.5])   # the caller reuses its array
        assert np.array_equal(sigma(a).blocks[1], before)
        assert sigma.inverse()(sigma(a)).defect(a) <= 1e-12
        assert source.flags.writeable and not sigma.conjugators[1].flags.writeable


class TestRegularity:
    def test_identity_automorphism(self):
        assert check_regularity(identity_automorphism(SHAPE)).max_defect == 0.0

    def test_flip_with_trivial_conjugators(self):
        assert check_regularity(flip_double()).max_defect <= 1e-14

    def test_hermitian_conjugator_is_regular(self):
        # diag(2,1) is hermitian, and sigma(a*) = (sigma^{-1}(a))* holds for
        # exactly the conjugators that are a phase times a hermitian matrix
        sigma = Automorphism(SHAPE, (0, 1), (np.eye(1), np.diag([2.0, 1.0])))
        assert check_regularity(sigma).max_defect <= 1e-14

    def test_phase_times_hermitian_is_regular(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = 0.5 * (h + np.conj(h.T)) + 3.0 * np.eye(2)
        s = np.exp(0.7j) * h
        sigma = Automorphism(SHAPE, (0, 1), (np.eye(1), s))
        assert check_regularity(sigma).max_defect <= 1e-12

    def test_unitary_with_nonscalar_square_is_irregular(self):
        sigma = Automorphism(SHAPE, (0, 1), (np.eye(1), np.diag([1.0, 1j])))
        report = check_regularity(sigma)
        assert report.max_defect > 1.0
        assert not report.passes

    def test_generic_conjugator_is_irregular(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        sigma = Automorphism(SHAPE, (0, 1), (np.eye(1), s))
        assert check_regularity(sigma).max_defect > 1e-3


def loop_check_regularity(sigma, samples, rng):
    """The per-element loop over the matrix units and then `samples` random elements, five elements built per one."""
    inv = sigma.inverse()
    elements = [a for _, a in sigma.shape.basis()]
    elements += [sigma.shape.random_element(rng) for _ in range(samples)]
    return max(sigma(a.star()).defect(inv(a).star()) for a in elements)


def regularity_cases():
    rng = np.random.default_rng(15)
    generic = lambda n: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return [
        pytest.param(identity_automorphism(SHAPE), id="identity"),
        pytest.param(flip_double(), id="flip"),
        pytest.param(Automorphism(SHAPE, (0, 1), (np.eye(1), np.diag([1.0, 1j]))), id="unitary-irregular"),
        pytest.param(random_inner_m2(rng), id="generic-inner"),
        pytest.param(Automorphism(DOUBLE, (2, 3, 0, 1), tuple(generic(n) for n in DOUBLE.block_dims)),
                     id="flip-generic"),
        pytest.param(Automorphism(AlgebraShape((3,)), (0,), (generic(3),)), id="m3-generic"),
    ]


@pytest.mark.parametrize("sigma", regularity_cases())
@pytest.mark.parametrize("samples", [1, 7, 20])
def test_batched_regularity_matches_the_loop(sigma, samples):
    # the value is the loop's over the matrix units; the loop over `samples` random elements too gives the verdict
    report = check_regularity(sigma)
    loop = loop_check_regularity(sigma, 0, None)
    assert abs(report.max_defect - loop) <= 1e-13 * loop + 1e-15
    assert report.passes == DEFAULT_TOL.accepts(loop_check_regularity(sigma, samples, np.random.default_rng(samples)))


def block_loop_check_regularity(sigma, samples, rng):
    """The defect of each matrix unit and then of `samples` random elements, by per-block stacks.

    Block k of the elements is one (N + samples, n_k, n_k) stack; each side is
    S_k X S_k^-1 on it, and an element's squared norm is the sum over its blocks.
    """
    shape, inv = sigma.shape, sigma.inverse()
    randoms = [shape.random_element(rng) for _ in range(samples)]
    size = shape.basis_size
    lhs, rhs = [None] * shape.num_blocks, [None] * shape.num_blocks
    for k, (n, off) in enumerate(zip(shape.block_dims, shape._offsets())):
        x = np.zeros((size + samples, n, n), dtype=complex)
        x[off:off + n * n] = np.eye(n * n).reshape(n * n, n, n)
        x[size:] = [a.blocks[k] for a in randoms]
        lhs[sigma.perm[k]] = sigma.conjugators[k] @ x.conj().swapaxes(1, 2) @ sigma._conjugator_invs[k]
        rhs[inv.perm[k]] = (inv.conjugators[k] @ x @ inv._conjugator_invs[k]).conj().swapaxes(1, 2)
    sq_norms = lambda blocks: sum(np.sum(np.abs(b) ** 2, axis=(1, 2)) for b in blocks)
    scale = np.sqrt(np.maximum(sq_norms(lhs), sq_norms(rhs)))
    return np.sqrt(sq_norms([a - b for a, b in zip(lhs, rhs)])) / np.maximum(1.0, scale)


@pytest.mark.parametrize("sigma", [c for c in regularity_cases() if c.id not in ("identity", "flip")])
@pytest.mark.parametrize("samples", [1, 7, 20])
def test_stacked_regularity_matches_the_block_loop(sigma, samples):
    # the twists with a generic or non-scalar-square conjugator, whose defects are O(1)
    defects = block_loop_check_regularity(sigma, samples, np.random.default_rng(samples))
    loop = defects[:sigma.shape.basis_size].max()
    report = check_regularity(sigma)
    assert loop > 1e-3 and abs(report.max_defect - loop) <= 1e-12 * loop
    assert report.passes == DEFAULT_TOL.accepts(defects.max())


class TestUnitary:
    def test_accepts_unitary(self):
        u = SHAPE.random_unitary(np.random.default_rng(13))
        e = SHAPE.unit()
        assert (u.element * u.element.star()).defect(e) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(2.0 * SHAPE.unit())

    def test_unitarity_is_checked_at_the_given_tolerance(self):
        # a unitary times (1 + 1e-8): its defect, about 2e-8, is over the default 1e-10 and within 1e-6
        near = (1 + 1e-8) * SHAPE.random_unitary(np.random.default_rng(14)).element
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(near)
        assert Unitary(near, Tolerance(1e-6)).element is near
