"""Seeded "ladder" triple: M_n acting on H = M_n by left multiplication, d = n^2.

J is the entrywise adjoint psi -> psi*, D = X + J X J^-1 with X a random
hermitian matrix, and the twist is conjugation by the positive matrix
S = 1 + 0.4 h / max(1, ||h||).  Order zero holds exactly (left and right
multiplication commute), the KO signs are (eps, eps') = (+1, +1), and first
order generically fails.  Built only from twistlab's public constructors.
"""
from __future__ import annotations

import json

import numpy as np

from twistlab.algebra import AlgebraShape, Automorphism
from twistlab.files import triple_to_json
from twistlab.linalg import AntilinearOp
from twistlab.triple import RealStructure, Representation, TwistedTriple, check_axioms

LADDER_N = 6
CHECK_SAMPLES = 10


def ladder_triple(n: int, seed: int) -> TwistedTriple:
    rng = np.random.default_rng(seed)
    d = n * n
    shape = AlgebraShape((n,))
    units = np.zeros((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            units[i, j] = np.kron(e, np.eye(n))
    rep = Representation(shape, d, (units,))

    # psi is flattened row-major, entry (p, q) at index p*n + q
    swap = np.zeros((d, d), dtype=complex)
    for p in range(n):
        for q in range(n):
            swap[p * n + q, q * n + p] = 1.0
    j = AntilinearOp(swap)

    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = 0.5 * (x + np.conj(x.T))
    dirac = x + j.conjugate(x)

    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + np.conj(h.T))
    s = np.eye(n) + 0.4 * h / max(1.0, float(np.linalg.norm(h)))
    sigma = Automorphism(shape, (0,), (s,))
    return TwistedTriple(shape, rep, dirac, sigma, real=RealStructure(j, epsilon=1, epsilon_prime=1))


def ladder_json(t: TwistedTriple) -> str:
    """The triple file text; compact and key-sorted, so equal triples give equal bytes."""
    return json.dumps(triple_to_json(t), sort_keys=True)


def verdict_problems(failures, epsilon, epsilon_prime, order_zero, first_order) -> list[str]:
    """What a correct axiom report on a ladder triple must say; empty when it does."""
    problems = []
    if failures:
        problems.append(f"mandatory axioms fail: {failures}")
    if (epsilon, epsilon_prime) != (1, 1):
        problems.append(f"KO signs (eps, eps') = ({epsilon}, {epsilon_prime}), expected (1, 1)")
    if order_zero is None or not order_zero <= 1e-12:
        problems.append(f"order_zero defect {order_zero} above 1e-12")
    if first_order is None or not first_order > 1e-10:
        problems.append(f"first order defect {first_order} should be violated (> 1e-10)")
    return problems


def self_check(t: TwistedTriple) -> None:
    """Raise ValueError unless the generated triple has the ladder's verdicts."""
    r = check_axioms(t, samples=CHECK_SAMPLES)
    problems = verdict_problems(r.failures(), r.epsilon, r.epsilon_prime, r.order_zero, r.first_order)
    if problems:
        raise ValueError("ladder triple fails its self-check: " + "; ".join(problems))
