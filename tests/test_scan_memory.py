"""The basis scans of check_axioms stay within a fixed memory budget.

numpy reports its array allocations to tracemalloc, so the peak is
deterministic.  The bound is one (N, d, d) stack plus a few chunks of
SCAN_BUDGET_BYTES; the scans hold thin (N, d, r) factors of their stacks,
and an unchunked scan over all basis pairs would hold several such stacks.
"""
import tracemalloc

from twistlab.triple import SCAN_BUDGET_BYTES, check_axioms

from conftest import ladder_triple


def assert_peak_allocation_is_bounded(ladder_n):
    t = ladder_triple(ladder_n, 0)
    check_axioms(t, samples=10)   # first call caches sigma^{-1} and J^{-1}
    n, d = t.shape.basis_size, t.dim
    bound = 4 * SCAN_BUDGET_BYTES + n * d * d * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_axioms(t, samples=10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} B above the bound {bound} B"


def test_check_axioms_peak_allocation_is_bounded():
    assert_peak_allocation_is_bounded(6)


def test_check_axioms_peak_allocation_is_bounded_at_n8():
    assert_peak_allocation_is_bounded(8)
