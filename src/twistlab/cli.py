"""Command-line workbench.

Exit codes: 0 success (all mandatory checks pass), 1 axiom/check failure,
2 file, parse or schema error.  `check` decides every axiom on the matrix
units, and the sampled checks of `model` and `morita` are seeded, so repeated
runs produce identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .files import (
    connection_from_cells,
    load_connection,
    load_idempotent,
    load_pert,
    load_triple,
    load_unitary,
    matrix_to_json,
    pert_to_json,
    triple_to_json,
)
from .gauge import gauge_dirac, selfadjointness_report
from .linalg import DEFAULT_TOL, Tolerance, dagger, rel_defect
from .models import build_u1u2, verify_fluctuation_formula
from .morita import (
    IdempotentData,
    amat_unit,
    build_left_triple,
    build_real_triple,
    build_right_triple,
    check_idempotent,
    check_morita_triple,
    check_real_triple,
    conjugate_connection,
    connection_with,
    grassmann,
    lift_maps,
)
from .pert import Perturbation, act_mu, eta, eta_adjoint_pairs, fluctuate, normalize, pert_mul, random_perturbations
from .triple import check_axioms


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _dumps(doc) -> str:
    """The one JSON layout: compact, sorted keys, every ndarray a dense cell; one pass of json's C encoder."""
    return json.dumps(doc, sort_keys=True, default=matrix_to_json)


def _emit(doc: dict, as_json: bool) -> None:
    """Print a command's report: one JSON line, or one `key: value` line per field, keys sorted alike."""
    if as_json:
        print(_dumps(doc))
        return
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, float):
            text = f"{value:.3e}"
        elif isinstance(value, np.ndarray):
            text = np.array2string(value, precision=6, suppress_small=True)
        elif isinstance(value, (list, dict)):
            text = _dumps(value)
        else:
            text = value
        print(f"{key}: {text}")


def _status(defect: float, tol: Tolerance) -> str:
    return f"{defect:.3e} {'PASS' if tol.accepts(defect) else 'FAIL'}"


def _normalized(t, p, tol: Tolerance):
    """p if it is twisted-normalised, else `normalize(t, p)`, which would append a zero pair to a normalised p."""
    return p if p.is_normalized(t.sigma, tol) else normalize(t, p)


def cmd_check(args) -> int:
    t = load_triple(args.triple, args.tol)
    tol = args.tol
    report = check_axioms(t, tol=tol)
    if args.json:
        _emit({
            "dirac_selfadjoint": report.dirac_selfadjoint,
            "regularity": report.regularity,
            "rep_homomorphism": report.rep_homomorphism,
            "rep_involution": report.rep_involution,
            "rep_unital": report.rep_unital,
            "faithful": report.faithful,
            "grading": {
                "hermitian": report.grading_hermitian,
                "squares_to_identity": report.grading_squares,
                "commutes_with_algebra": report.grading_commutes_algebra,
                "anticommutes_with_dirac": report.grading_anticommutes_dirac,
            },
            "real": {
                "isometry": report.j_isometry,
                "epsilon": report.epsilon,
                "epsilon_prime": report.epsilon_prime,
                "epsilon_double_prime": report.epsilon_double_prime,
                "ko_dimension": report.ko_dimension,
            },
            "order_zero": report.order_zero,
            "first_order": report.first_order,
            "first_order_witness": list(report.first_order_witness) if report.first_order_witness else None,
            "bounded": report.bounded,
            "compact_resolvent": report.compact_resolvent,
            "warnings": list(report.warnings),
            "failures": report.failures(args.require_first_order),
        }, True)
    else:
        print(f"dirac_selfadjoint: {_status(report.dirac_selfadjoint, tol)}")
        print(f"regularity: {_status(report.regularity, tol)}")
        print(f"rep_homomorphism: {_status(report.rep_homomorphism, tol)}")
        print(f"rep_involution: {_status(report.rep_involution, tol)}")
        print(f"rep_unital: {_status(report.rep_unital, tol)}"
              + (" (projection)" if report.rep_unit_is_projection and not tol.accepts(report.rep_unital) else ""))
        print(f"faithful: {report.faithful}" + ("" if report.faithful else " (warning only)"))
        if report.grading_hermitian is not None:
            print(f"grading_hermitian: {_status(report.grading_hermitian, tol)}")
            print(f"grading_squares: {_status(report.grading_squares, tol)}")
            print(f"grading_commutes_algebra: {_status(report.grading_commutes_algebra, tol)}")
            print(f"grading_anticommutes_dirac: {_status(report.grading_anticommutes_dirac, tol)}")
        if report.j_isometry is not None:
            print(f"j_isometry: {_status(report.j_isometry, tol)}")
            print(f"ko_signs: ({report.epsilon}, {report.epsilon_prime}, {report.epsilon_double_prime})"
                  f" ko_dimension: {report.ko_dimension}")
            print(f"order_zero: {_status(report.order_zero, tol)}")
            label = "PASS" if tol.accepts(report.first_order) else "VIOLATED"
            print(f"first_order: {report.first_order:.3e} {label}"
                  f" (witness {report.first_order_witness})")
        print("bounded: trivially satisfied (finite dimension)")
        print("compact_resolvent: trivially satisfied (finite dimension)")
        for w in report.warnings:
            print(f"warning: {w}")
    return 1 if report.failures(args.require_first_order) else 0


def cmd_fluctuate(args) -> int:
    t = load_triple(args.triple, args.tol)
    p = load_pert(args.pert, t.shape)
    tol = args.tol
    report = fluctuate(t, p, tol)
    doc = {
        "normalization_defect": report.pert.normalization_defect(t.sigma),
        "selfadjoint_omega1": report.selfadjoint_omega1,
        "selfadjoint_d_omega": report.selfadjoint_d_omega,
        "j_compat_defect": report.j_compat_defect,
        "omega2_gate_defect": report.omega2_gate_defect,
        "first_order_defect": report.first_order_defect,
        "omega1": report.omega1,
        "omega1_hat": report.omega1_hat,
        "omega2": report.omega2,
        "d_omega": report.d_omega,
    }
    if args.check_mu:
        doc["mu_action_defect"] = rel_defect(act_mu(t, report.pert, t.dirac, tol), report.d_omega)
    _emit(doc, args.json)
    return 0


def cmd_gauge(args) -> int:
    t = load_triple(args.triple, args.tol)
    p = load_pert(args.pert, t.shape)
    u = load_unitary(args.unitary, t.shape, args.tol)
    tol = args.tol
    p = _normalized(t, p, tol)
    report = gauge_dirac(t, p, u, tol)
    doc = {
        "covariance_defect": report.defect,
        "bare_four_term_defect": report.bare_defect,
        "gauged_selfadjoint": report.gauged_fluctuation.selfadjoint_d_omega,
        "gauged_d_omega": report.rhs,
    }
    if report.fluctuation.selfadjoint_d_omega:
        sa = selfadjointness_report(t, p, u, tol)
        doc["criterion_defect"] = sa.criterion_defect
        doc["gauge_sa_defect"] = sa.gauge_sa_defect
        doc["decomposition_defect"] = sa.decomposition_defect
    _emit(doc, args.json)
    return 0


def cmd_pert_mul(args) -> int:
    t = load_triple(args.triple, args.tol)
    p = load_pert(args.left, t.shape)
    q = load_pert(args.right, t.shape)
    prod = pert_mul(p, q)
    _emit({
        "pairs": len(prod),
        "normalization_defect": prod.normalization_defect(t.sigma),
        "eta_norm": float(np.linalg.norm(eta(t, prod).op)),
        "product": pert_to_json(prod),
    }, args.json)
    return 0


def _parse_complex(text: str) -> complex:
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


def cmd_model(args) -> int:
    if args.which != "u1u2":
        return _fail(f"unknown model '{args.which}'")
    try:
        kx = _parse_complex(args.kx)
        ky = _parse_complex(args.ky)
    except ValueError:
        return _fail("--kx/--ky must be RE,IM pairs")
    tol = args.tol
    model = build_u1u2(kx, ky)
    perts = random_perturbations(model.triple.shape, np.random.default_rng(args.seed), args.verify, 0.6)
    max_defect = float(np.max(verify_fluctuation_formula(model, perts).max_defect))
    doc = {
        "ko_dimension": model.axioms.ko_dimension,
        "order_zero": model.axioms.order_zero,
        "first_order": model.axioms.first_order,
        "formula_max_defect": max_defect,
        "written": args.out or None,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            # one dumps call, which uses json's C encoder; json.dump always encodes in pure Python
            fh.write(_dumps(triple_to_json(model.triple)))
    else:
        doc["triple"] = triple_to_json(model.triple)
    _emit(doc, args.json)
    return 0 if tol.accepts(max_defect) and model.axioms.passes() else 1


def cmd_morita(args) -> int:
    t = load_triple(args.triple, args.tol)
    tol = args.tol

    if args.self_morita:
        if not args.omega:
            return _fail("--self requires --omega PERT_FILE")
        p = _normalized(t, load_pert(args.omega, t.shape), tol)
        # selfadjoint one-form via pair-level symmetrization (stays normalised)
        padj = eta_adjoint_pairs(t, p, tol)
        p_sym = Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs + padj.pairs))
        w = eta(t, p_sym).op
        idem = IdempotentData(amat_unit(t.shape, 1))
        ep = t.epsilon_prime(tol)
        lift = lift_maps(t, idem, tol)
        rt = build_right_triple(lift, connection_with(t, idem, [[w]], "right"), tol)
        wbar = ep * t.real.j.conjugate(w)
        lt = build_left_triple(lift, connection_with(t, idem, [[wbar]], "left"), tol)
        doc = {
            "d_r_equals_d_plus_omega": rel_defect(rt.d_r, t.dirac + w),
            "d_l_equals_d_plus_conj_omega": rel_defect(lt.d_l, t.dirac + wbar),
            "omega_selfadjoint": rel_defect(w, dagger(w)),
        }
        _emit(doc, args.json)
        exports_pass = True
        for side, x in (("right", rt), ("left", lt)):
            report = check_morita_triple(x, seed=args.seed, tol=tol)
            if not report.passes:
                print(f"error: exported {side} triple fails verification: {report}", file=sys.stderr)
                exports_pass = False
        return 0 if exports_pass and tol.accepts(*doc.values()) else 1

    if not args.idempotent:
        return _fail("choose --self --omega PERT or --idempotent FILE")
    e = load_idempotent(args.idempotent, t.shape)
    cells = load_connection(args.connection, t.shape) if args.connection else None
    doc, ok, lift = {}, True, None
    try:
        conn = grassmann(t, e, "right") if cells is None else connection_from_cells(t, e, cells)
        lift = lift_maps(t, e, tol)
        rt = build_right_triple(lift, conn, tol)
        right_report = check_morita_triple(rt, seed=args.seed, tol=tol)
        doc["right_triple_passes"] = right_report.passes
        doc["right_selfadjoint_defect"] = right_report.selfadjoint_defect
        doc["right_bracket_defect"] = right_report.bracket_identity_defect
        ok = ok and right_report.passes
        if t.real is not None:
            try:
                lconn = conjugate_connection(t, conn, tol)
                lt = build_left_triple(lift, lconn, tol)
                left_report = check_morita_triple(lt, seed=args.seed, tol=tol)
                doc["left_triple_passes"] = left_report.passes
                ok = ok and left_report.passes
            except ValueError as exc:
                doc["left_triple_error"] = str(exc)
        if t.real is not None and t.grading is not None:
            try:
                real = build_real_triple(lift, conn, tol)
                real_report = check_real_triple(real, seed=args.seed, tol=tol)
                doc["real_triple_passes"] = real_report.passes
                doc["real_d_second_defect"] = real_report.d_second_defect
                doc["real_ko_dimension"] = real_report.ko_dimension
                ok = ok and real_report.passes
            except ValueError as exc:
                doc["real_triple_error"] = str(exc)
    except ValueError as exc:
        doc["construction_error"] = str(exc)
        ok = False
    # a lift exists only once its idempotent has passed check_idempotent
    idem_report = lift.report if lift is not None else check_idempotent(t, e, tol)
    fields = ("idempotent_defect", "selfadjoint_defect", "lift_defect", "lift_inverse_defect",
              "twist_invariant", "twist_commuting")
    doc = {**{k: getattr(idem_report, k) for k in fields}, **doc}
    _emit(doc, args.json)
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> Tolerance:
    try:
        return Tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    A subcommand runs the module's `cmd_*` function looked up when it runs, so
    a rebinding of that name (a tracer, a test double) takes effect.
    """
    parser = argparse.ArgumentParser(prog="twistlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"twistlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the --verify draws of model and of the spot checks of morita;"
                            " the other commands accept and ignore it")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="comparison tolerance (> 0)")

    p = sub.add_parser("check", help="verify the axioms of a triple file")
    p.add_argument("triple")
    p.add_argument("--samples", type=_positive_int, default=10,
                   help="ignored: every axiom is decided on the matrix units (>= 1)")
    p.add_argument("--require-first-order", action="store_true")
    common(p)

    p = sub.add_parser("fluctuate", help="twisted inner fluctuation of a triple by a perturbation")
    p.add_argument("triple")
    p.add_argument("pert")
    p.add_argument("--check-mu", action="store_true", help="also verify the semi-group action")
    common(p)

    p = sub.add_parser("gauge", help="gauge-transform a fluctuated Dirac operator")
    p.add_argument("triple")
    p.add_argument("pert")
    p.add_argument("unitary")
    common(p)

    p = sub.add_parser("pert-mul", help="semi-group product of two perturbation files")
    p.add_argument("triple")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("model", help="emit a built-in model and its verification report")
    p.add_argument("which", choices=["u1u2"])
    p.add_argument("--kx", required=True, help="RE,IM")
    p.add_argument("--ky", required=True, help="RE,IM")
    p.add_argument("--verify", type=_positive_int, default=20, help="number of random formula checks (>= 1)")
    p.add_argument("--out", help="write the triple file here")
    common(p)

    p = sub.add_parser("morita", help="Morita constructions over a triple")
    p.add_argument("triple")
    p.add_argument("--self", dest="self_morita", action="store_true",
                   help="self-Morita fluctuation comparison")
    p.add_argument("--omega", help="perturbation file for --self")
    p.add_argument("--idempotent", help="idempotent file for the module construction")
    p.add_argument("--connection", help="connection file (n x n array of pair lists); Grassmann if absent")
    common(p)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # an overflow in numpy is not reported where it happens: the NaN-safe verdicts and gates report it
    with np.errstate(all="ignore"):
        try:
            return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
        except (OSError, ValueError) as exc:   # file, parse and schema errors, JSONDecodeError included
            return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
