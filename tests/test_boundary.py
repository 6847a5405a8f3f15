"""Inputs are validated once, at the public constructors: every one rejects a non-finite entry.

Arithmetic on validated elements is trusted and skips the checks, so these
constructors (and the file loaders built on them) are the only guard against
NaN and infinity.  Each case puts NaN, +inf or -inf into the real or the
imaginary part of one complex128 entry.
"""
import numpy as np
import pytest

import twistlab as tw
from twistlab.morita import AlgebraMatrix

SHAPE = tw.AlgebraShape((1, 2))


def bad_values():
    out = []
    for name, v in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
        out.append(pytest.param(complex(v, 0.0), id=f"real-{name}"))
        out.append(pytest.param(complex(0.0, v), id=f"imag-{name}"))
    return out


BAD = bad_values()


def poisoned(n, z):
    """An n x n complex128 identity whose last diagonal entry is z."""
    m = np.eye(n, dtype=complex)
    m[-1, -1] = z
    return m


@pytest.mark.parametrize("z", BAD)
class TestPublicConstructorsRejectNonFinite:
    def test_algebra_element(self, z):
        with pytest.raises(ValueError, match="finite"):
            tw.AlgebraElement(SHAPE, (np.ones((1, 1), dtype=complex), poisoned(2, z)))

    def test_automorphism_conjugator(self, z):
        with pytest.raises(ValueError, match="finite"):
            tw.Automorphism(SHAPE, (0, 1), (np.eye(1, dtype=complex), poisoned(2, z)))

    def test_algebra_matrix_entry(self, z):
        # an element changed in place after it was validated
        a = SHAPE.unit()
        a.blocks[1][1, 1] = z
        one = SHAPE.unit()
        with pytest.raises(ValueError, match="finite"):
            AlgebraMatrix(SHAPE, ((one, one), (one, a)))

    def test_antilinear_op(self, z):
        with pytest.raises(ValueError, match="finite"):
            tw.AntilinearOp(poisoned(3, z))

    @pytest.mark.parametrize("field", ["dirac", "grading"])
    def test_triple_operator(self, z, field, toy):
        ops = {"dirac": toy.dirac, "grading": toy.grading}
        ops[field] = poisoned(toy.dim, z)
        with pytest.raises(ValueError, match="finite"):
            tw.TwistedTriple(toy.shape, toy.rep, ops["dirac"], toy.sigma, grading=ops["grading"],
                             real=toy.real)

    def test_scalar_multiple(self, z):
        with pytest.raises(ValueError, match="finite"):
            z * SHAPE.unit()


@pytest.mark.parametrize("scalar", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_scalar(scalar):
    with pytest.raises(ValueError, match="finite"):
        scalar * SHAPE.unit()
