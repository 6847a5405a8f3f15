"""The one pass rule, `Tolerance.accepts`: a NaN defect never passes a verdict."""
import dataclasses

import numpy as np
import pytest

import twistlab as tw
from twistlab.algebra import RegularityReport
from twistlab.linalg import DEFAULT_TOL, Tolerance
from twistlab.models import U1U2_SHAPE
from twistlab.morita import (
    IdempotentData,
    amat_unit,
    build_real_triple,
    build_right_triple,
    check_hermitian,
    check_idempotent,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    grassmann,
    lift_maps,
)
from twistlab.triple import RealStructure, Representation, check_axioms

NAN = float("nan")


class TestAccepts:
    tol = Tolerance(1e-10)

    @pytest.mark.parametrize("defect", [0.0, 1e-10, np.float64(1e-11), np.array([0.0, 1e-10]),
                                        np.zeros((2, 3)), np.array([]), 0])
    def test_at_most_eps_is_accepted(self, defect):
        assert self.tol.accepts(defect) is True

    @pytest.mark.parametrize("defect", [2e-10, np.float64(1.0), np.array([0.0, 1e-9]), NAN, np.float64(NAN),
                                        np.array([0.0, NAN]), float("inf"), np.array([np.inf])])
    def test_over_eps_or_nan_is_refused(self, defect):
        assert self.tol.accepts(defect) is False

    def test_minus_infinity_is_at_most_eps(self):
        assert self.tol.accepts(-float("inf")) is True

    def test_several_defects_must_all_pass(self):
        assert self.tol.accepts() is True
        assert self.tol.accepts(0.0, np.array([1e-12]), np.array([])) is True
        assert self.tol.accepts(0.0, np.array([1e-12]), NAN) is False
        assert self.tol.accepts(NAN, 0.0) is False
        assert self.tol.accepts(0.0, 1.0) is False

    def test_the_rule_is_the_tolerance(self):
        assert Tolerance(1e-3).accepts(1e-4) and not DEFAULT_TOL.accepts(1e-4)


@pytest.fixture(scope="module")
def exports(u1u2_ky0):
    """Real reports of the first-order U(1)xU(2) triple and its unit-idempotent exports, each passing."""
    t = u1u2_ky0.triple
    e = IdempotentData(amat_unit(t.shape, 1))
    lift = lift_maps(t, e)
    conn = grassmann(t, e)
    reports = {
        "hermiticity": check_hermitian(t, conn, samples=2),
        "idempotent": check_idempotent(t, e),
        "morita": check_morita_triple(build_right_triple(lift, conn), samples=2),
        "real": check_real_triple(build_real_triple(lift, conn), samples=2),
    }
    assert all(r.passes for r in reports.values())
    return reports


def defect_fields(report):
    return [f.name for f in dataclasses.fields(report) if isinstance(getattr(report, f.name), float)]


class TestReportsRefuseNaN:
    @pytest.mark.parametrize("kind", ["hermiticity", "morita", "real"])
    def test_any_nan_field_fails(self, exports, kind):
        report = exports[kind]
        fields = defect_fields(report)
        assert len(fields) >= 3
        for name in fields:
            assert not dataclasses.replace(report, **{name: NAN}).passes, name

    def test_idempotent(self, exports):
        report = exports["idempotent"]
        for name in ("idempotent_defect", "selfadjoint_defect", "lift_defect", "lift_inverse_defect"):
            assert not dataclasses.replace(report, **{name: NAN}).passes, name
        assert not dataclasses.replace(report, lift_inverse_defect=NAN).lift_invertible
        assert not dataclasses.replace(report, twist_invariance_defect=NAN).twist_invariant
        assert not dataclasses.replace(report, twist_commutation_defect=NAN).twist_commuting
        assert not dataclasses.replace(report, twist_invariance_defect=NAN, twist_commutation_defect=NAN).passes

    def test_regularity(self):
        assert not RegularityReport(NAN).passes


class TestAxiomFailures:
    NAMES = {"dirac_selfadjoint": "dirac_selfadjoint", "regularity": "regularity",
             "rep_homomorphism": "rep_homomorphism", "rep_involution": "rep_involution",
             "grading_hermitian": "grading_hermitian", "grading_squares": "grading_squares",
             "grading_commutes_algebra": "grading_commutes_algebra",
             "grading_anticommutes_dirac": "grading_anticommutes_dirac", "j_isometry": "j_isometry",
             "epsilon_defect": "epsilon", "epsilon_prime_defect": "epsilon_prime",
             "epsilon_double_prime_defect": "epsilon_double_prime", "order_zero": "order_zero"}

    @pytest.mark.parametrize("field", sorted(NAMES))
    def test_a_nan_defect_is_named(self, u1u2_ky0, field):
        report = u1u2_ky0.axioms
        assert report.failures(True) == []
        assert dataclasses.replace(report, **{field: NAN}).failures() == [self.NAMES[field]]

    def test_nan_first_order_fails_only_when_required(self, u1u2_ky0):
        report = dataclasses.replace(u1u2_ky0.axioms, first_order=NAN)
        assert report.failures() == []
        assert report.failures(require_first_order=True) == ["first_order"]

    def test_nan_unital_defect_fails_unless_a_projection(self, u1u2_ky0):
        report = dataclasses.replace(u1u2_ky0.axioms, rep_unital=NAN)
        assert report.failures() == []     # a proper projection is a warning, not a failure
        assert dataclasses.replace(report, rep_unit_is_projection=False).failures() == ["rep_unital"]


class TestWarnings:
    def test_proper_projection_unit(self, toy):
        # block 1 acts as zero, so pi(1) = diag(1, 0, 1): a projection, not the identity
        rep = Representation(toy.shape, toy.dim, (toy.rep.unit_images[0], np.zeros_like(toy.rep.unit_images[1])))
        report = check_axioms(dataclasses.replace(toy, rep=rep), samples=2)
        assert report.rep_unit_is_projection and report.rep_unital > 0.1
        assert "pi(unit) is a proper projection, not the identity" in report.warnings
        assert "rep_unital" not in report.failures()

    def test_declared_signs_disagree(self, u1u2_ky0):
        t = u1u2_ky0.triple
        real = RealStructure(t.real.j, epsilon=-1, epsilon_prime=1, epsilon_double_prime=-1)
        report = check_axioms(dataclasses.replace(t, real=real), samples=2)
        assert report.epsilon == 1
        assert "declared KO signs disagree with detected ones" in report.warnings


class TestOverflow:
    """Finite inputs of size 1e200 overflow to NaN defects, which every gate refuses."""

    @pytest.fixture(scope="class")
    def huge(self):
        with np.errstate(all="ignore"):
            return tw.build_u1u2(1e200, 1e200)

    def test_axioms_report_nan_first_order(self, huge):
        assert np.isnan(huge.axioms.first_order)
        assert huge.axioms.first_order_witness is None
        assert huge.axioms.failures(require_first_order=True) == ["first_order"]

    def test_unitary_refuses(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not unitary"):
            tw.Unitary(1e200 * U1U2_SHAPE.unit())

    def test_conjugate_connection_refuses(self, huge):
        t = huge.triple
        e = IdempotentData(amat_unit(t.shape, 1))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="conjugation requires first order"):
            conjugate_connection(t, grassmann(t, e))

    def test_real_export_refuses(self, huge):
        t = huge.triple
        e = IdempotentData(amat_unit(t.shape, 1))
        with np.errstate(all="ignore"):
            lift = lift_maps(t, e)
            with pytest.raises(ValueError, match="requires the twisted first-order condition"):
                build_real_triple(lift, grassmann(t, e))
