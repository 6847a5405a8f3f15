"""The three benchmark workloads, each a closed loop of jobs run by one client.

A workload is built from the benchmark seed (its set-up: generating triples,
perturbations, unitaries and JSON files), then runs job ``i`` on demand.
``verify`` returns the problems found in a job's output, empty when the
output is correct; ``digest`` condenses an output so that a traced and an
untraced run of the same job can be compared byte for byte.

Jobs call twistlab through module attributes (``cli.main``, ``pert.fluctuate``)
so that the tracer's rebound wrappers are the ones that run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import twistlab.cli as cli
import twistlab.gauge as gauge
import twistlab.pert as pert
from twistlab.files import element_to_json, idempotent_to_json, pert_to_json
from twistlab.linalg import rel_defect
from twistlab.models import U1U2_SHAPE, build_u1u2
from twistlab.morita import AlgebraMatrix, IdempotentData
from twistlab.pert import Perturbation, eta_adjoint_pairs, normalize

from ladder import CHECK_SAMPLES, LADDER_N, ladder_json, ladder_triple, self_check, verdict_problems

FORMULA_BOUND = 1e-10   # acceptance bounds, as in tests/test_acceptance.py
MU_BOUND = 1e-12
COVARIANCE_BOUND = 1e-10
MORITA_BOUND = 1e-10


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _cli_digest(results) -> str:
    h = hashlib.sha256()
    for rc, out, err in results:
        h.update(f"{rc}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class MnCheck:
    """`twistlab check FILE --json --samples 10` on one n=6 ladder triple file."""

    name = "mn_check"

    def __init__(self, seed: int, workdir: str):
        self.path = os.path.join(workdir, "ladder.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(ladder_json(ladder_triple(LADDER_N, seed)))

    def self_check(self) -> None:
        """Every job re-checks the triple's verdicts, so there is nothing extra to do."""

    def job(self, i: int):
        return [run_cli(["check", self.path, "--json", "--samples", str(CHECK_SAMPLES)])]

    def verify(self, out) -> list[str]:
        [(rc, stdout, _)] = out
        if rc != 0:
            return [f"check exited {rc}"]
        doc = json.loads(stdout)
        return verdict_problems(doc["failures"], doc["real"]["epsilon"], doc["real"]["epsilon_prime"],
                                doc["order_zero"], doc["first_order"])

    digest = staticmethod(_cli_digest)


class MnFluctuate:
    """Library stream on one n=6 ladder triple: fluctuate, act_mu, gauge_dirac per job."""

    name = "mn_fluctuate"
    POOL = 48   # a multiple of 3: job i has 1 + i % 3 pairs, so every seed does equal work

    def __init__(self, seed: int, workdir: str):
        self.triple = ladder_triple(LADDER_N, seed)
        shape = self.triple.shape
        rng = np.random.default_rng([seed, 1])
        self.perts = []
        self.unitaries = []
        for k in range(self.POOL):
            pairs = tuple((shape.random_element(rng, 0.5), shape.random_element(rng, 0.5))
                          for _ in range(1 + k % 3))
            self.perts.append(Perturbation(shape, pairs))
            self.unitaries.append(shape.random_unitary(rng))

    def self_check(self) -> None:
        self_check(self.triple)

    def job(self, i: int):
        t = self.triple
        k = i % self.POOL
        f = pert.fluctuate(t, self.perts[k])
        mu = pert.act_mu(t, f.pert, t.dirac)
        g = gauge.gauge_dirac(t, f.pert, self.unitaries[k])
        return f.d_omega, mu, g

    def verify(self, out) -> list[str]:
        d_omega, mu, g = out
        problems = []
        mu_defect = rel_defect(mu, d_omega)
        if not mu_defect <= MU_BOUND:
            problems.append(f"act_mu vs d_omega defect {mu_defect:.3e}")
        if not g.defect <= COVARIANCE_BOUND:
            problems.append(f"gauge covariance defect {g.defect:.3e}")
        if not g.bare_defect <= COVARIANCE_BOUND:
            problems.append(f"bare four-term defect {g.bare_defect:.3e}")
        return problems

    @staticmethod
    def digest(out) -> str:
        d_omega, mu, g = out
        h = hashlib.sha256()
        for arr in (d_omega, mu, g.lhs, g.rhs, g.bare_lhs):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _complex_arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


class U1U2Cli:
    """The paper's end-to-end CLI session on the U(1)xU(2) model, one session per job.

    P is a selfadjoint perturbation (twisted-normalised pairs symmetrised with
    their adjoint pairs, as `morita --self` does), so that `gauge` also
    evaluates the selfadjointness criterion.
    """

    name = "u1u2_cli"
    POOL = 24
    PAIRS = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        model = build_u1u2(1.0, 1.0)   # the pairs depend on the flip twist only, not on (kx, ky)
        self.sessions = []
        for k in range(self.POOL):
            kx, ky = (r * np.exp(1j * phi) for r, phi in zip(rng.uniform(0.5, 1.5, 2),
                                                             rng.uniform(0.0, 2 * np.pi, 2)))
            pairs = tuple((U1U2_SHAPE.random_element(rng, 0.5), U1U2_SHAPE.random_element(rng, 0.5))
                          for _ in range(self.PAIRS))
            p = normalize(model.triple, Perturbation(U1U2_SHAPE, pairs))
            p_adj = eta_adjoint_pairs(model.triple, p)
            p_sym = Perturbation(U1U2_SHAPE, tuple((0.5 * a, b) for a, b in p.pairs + p_adj.pairs))
            p_file = _write(os.path.join(workdir, f"pert{k}.json"), pert_to_json(p_sym))
            u_file = _write(os.path.join(workdir, f"unitary{k}.json"),
                            element_to_json(U1U2_SHAPE.random_unitary(rng).element))
            self.sessions.append((complex(kx), complex(ky), p_file, u_file))
        self.pairs = len(p_sym.pairs)
        h = 0.5 * U1U2_SHAPE.unit()
        self.idempotent = _write(os.path.join(workdir, "idempotent.json"),
                                 idempotent_to_json(IdempotentData(AlgebraMatrix(U1U2_SHAPE, ((h, h), (h, h))))))
        self.t = os.path.join(workdir, "u1u2.json")
        self.t0 = os.path.join(workdir, "u1u2_ky0.json")

    def self_check(self) -> None:
        """The session's own `model --verify` and `check` steps verify the triples."""

    def job(self, i: int):
        kx, ky, p, u = self.sessions[i % self.POOL]
        t, t0 = self.t, self.t0
        commands = [
            ["model", "u1u2", f"--kx={_complex_arg(kx)}", f"--ky={_complex_arg(ky)}",
             "--verify", "20", "--out", t, "--json"],
            ["check", t, "--json"],
            ["fluctuate", t, p, "--check-mu", "--json"],
            ["gauge", t, p, u, "--json"],
            ["pert-mul", t, p, p, "--json"],
            ["morita", t, "--self", "--omega", p, "--json"],
            ["model", "u1u2", f"--kx={_complex_arg(kx)}", "--ky=0,0", "--verify", "20", "--out", t0, "--json"],
            ["morita", t0, "--idempotent", self.idempotent, "--json"],
        ]
        return [run_cli(argv) for argv in commands]

    def verify(self, out) -> list[str]:
        names = ["model", "check", "fluctuate", "gauge", "pert-mul", "morita --self", "model ky=0",
                 "morita --idempotent"]
        bad = [f"{name} exited {rc}" for name, (rc, _, _) in zip(names, out) if rc != 0]
        if bad:
            return bad
        model, check, fluc, gau, mul, self_m, model0, idem = (json.loads(o) for _, o, _ in out)
        checks = {
            "model ko_dimension is 6": model["ko_dimension"] == 6,
            "model formula_max_defect": model["formula_max_defect"] <= FORMULA_BOUND,
            "check ko_dimension is 6": check["real"]["ko_dimension"] == 6,
            "check lists no failures": check["failures"] == [],
            "fluctuate mu_action_defect": fluc["mu_action_defect"] <= MU_BOUND,
            "gauge covariance_defect": gau["covariance_defect"] <= COVARIANCE_BOUND,
            "gauge selfadjointness decomposition_defect":
                gau.get("decomposition_defect", 1.0) <= COVARIANCE_BOUND,
            "pert-mul pair count": mul["pairs"] == self.pairs ** 2,
            "self-Morita defects": max(self_m.values()) <= MORITA_BOUND,
            "model ky=0 ko_dimension is 6": model0["ko_dimension"] == 6,
            "model ky=0 formula_max_defect": model0["formula_max_defect"] <= FORMULA_BOUND,
            "right/left/real triples pass": all(idem.get(k) is True for k in
                                                ("right_triple_passes", "left_triple_passes",
                                                 "real_triple_passes")),
            "real_ko_dimension is 6": idem.get("real_ko_dimension") == 6,
        }
        return [name for name, ok in checks.items() if not ok]

    digest = staticmethod(_cli_digest)


WORKLOADS = {w.name: w for w in (MnCheck, MnFluctuate, U1U2Cli)}
