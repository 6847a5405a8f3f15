import numpy as np

from ladder import LADDER_N, ladder_json, ladder_triple, self_check
from twistlab.triple import check_axioms


def test_same_seed_gives_identical_bytes():
    assert ladder_json(ladder_triple(LADDER_N, 7)) == ladder_json(ladder_triple(LADDER_N, 7))
    assert ladder_json(ladder_triple(LADDER_N, 7)) != ladder_json(ladder_triple(LADDER_N, 8))


def test_ladder_verdicts_at_benchmark_size():
    t = ladder_triple(LADDER_N, 0)
    assert t.dim == LADDER_N ** 2
    self_check(t)
    r = check_axioms(t, samples=10)
    assert r.failures() == []
    assert (r.epsilon, r.epsilon_prime) == (1, 1)
    assert r.order_zero <= 1e-12
    assert r.first_order > 1.0


def test_twist_conjugator_is_positive():
    s = ladder_triple(3, 4).sigma.conjugators[0]
    assert np.allclose(s, s.conj().T)
    assert np.linalg.eigvalsh(s).min() > 0.5
