"""The banded class expansion against the heap kept in conftest.

Claims covered:
    - the class stream (length, vertex, count, mass) is bit-identical to the
      best-first heap's, and so is every count/prob family and the
      transform sum, with the small-band Python step forced everywhere and
      with the numpy step forced everywhere
    - graphs: both two-vertex graphs to x = 30 (counts past 2.9e11),
      seeded 6-vertex rings, a chain of near-tie loops wider than the merge
      tolerance, and 12 unit loops whose class counts 12^k pass int64 (the
      count to x = 20 is the closed form sum of 12^k)
    - a merge bucket that reaches past the end of its band waits for the
      rows the band itself still makes; counts whose sum passes int64 add
      up exactly
    - the band stream overflows the budget exactly as the heap does: the
      same classes before the error, the same BudgetOverflow arguments
"""

import math

import numpy as np
import pytest

from orbitcount import build_graph, oracle
from orbitcount.errors import BudgetOverflow

from conftest import (
    assert_matches_heap,
    family_pairs,
    heap_expand_classes,
    ring_spec,
    two_vertex_spec,
)


@pytest.fixture(params=["python", "numpy"])
def band_step(request, monkeypatch):
    """Force one band step for every band (numpy also folds band by band)."""
    if request.param == "python":
        monkeypatch.setattr(oracle, "_NUMPY_BAND_ROWS", math.inf)
    else:
        monkeypatch.setattr(oracle, "_NUMPY_BAND_ROWS", 0)
        monkeypatch.setattr(oracle, "_FOLD_ROWS", 1)
    return request.param


def _loops(*lengths):
    return build_graph(
        {"vertices": 1, "edges": [{"from": 1, "to": 1, "length": l} for l in lengths]}
    )


@pytest.mark.parametrize("probability", [None, 0.45])
def test_two_vertex_to_30_matches_heap(band_step, probability):
    g = build_graph(two_vertex_spec(probability))
    got = assert_matches_heap(g, 30.0)
    assert max(got[2].tolist()) > 10**10
    if probability is None:
        assert oracle.count_paths_exact(g, 1, 1, 30.0) > 2.9e11


@pytest.mark.parametrize("seed", [3, 11, 303])
def test_seeded_six_vertex_rings_match_heap(band_step, seed):
    g = build_graph(ring_spec(seed, 6, 0.9))
    got = assert_matches_heap(g, 9.0)
    assert len(got[0]) > 400


def test_near_tie_chain_wider_than_tolerance_matches_heap(band_step):
    # Sums of k loops spread over k * 1.2e-9 in steps of 6e-10: each step is
    # within the tolerance of the next, the whole run is not, so the heap
    # cuts it into several buckets from head to head.
    g = _loops(1.0, 1.0 + 6e-10, 1.0 + 1.2e-9)
    got = assert_matches_heap(g, 12.0)
    assert len(got[0]) > 13  # more classes than whole loop counts


def test_bucket_at_band_end_waits_for_the_next_band(band_step):
    # Bands are 1.0 wide.  The loop of length 2 - 5e-10 lands in band 1, and
    # the path of two unit loops (length 2, band 2) is only made while band 1
    # is expanded; the heap merges the two into one class.
    g = _loops(1.0, 2.0 - 5e-10)
    got = assert_matches_heap(g, 12.0)
    assert got[0][2] == 2.0 - 5e-10 and got[2][2] == 2


def test_count_sums_past_int64_stay_exact(band_step):
    # 12 loops of lengths 1.000 ... 1.011: many classes per loop count, each
    # within int64, whose counts add up past it (sum of 12^k for k <= 18).
    g = _loops(*[1.0 + 0.001 * i for i in range(12)])
    got = assert_matches_heap(g, 18.5, grid=[18.5, 9.5, 17.5])
    assert max(got[2].tolist()) < 2**63 < sum(got[2].tolist())
    assert oracle.count_paths_exact(g, 1, 1, 18.5) == sum(12**k for k in range(19))


def test_twelve_unit_loops_pass_int64_exactly(band_step):
    g = _loops(*[1.0] * 12)
    got = assert_matches_heap(g, 20.0, grid=[20.0, 0.5, 17.5, 18.0, 5.5])
    assert got[2].tolist() == [12**k for k in range(21)]
    assert 12**20 > 2**63
    assert oracle.count_paths_exact(g, 1, 1, 20.0) == sum(12**k for k in range(21))
    assert oracle.count_paths_exact(g, 1, 1, [18.5, 2.0]) == [
        sum(12**k for k in range(19)), 1 + 12 + 144]
    assert oracle.count_edge_hits_exact(g, 1, 5, 20.5) == 12**20


def test_budget_overflow_matches_heap(band_step):
    g = build_graph(two_vertex_spec(0.45))
    for name, library, heap in family_pairs(g, [1.0, 12.0, 3.0], 12.0, max_paths=50):
        with pytest.raises(BudgetOverflow) as got:
            library()
        with pytest.raises(BudgetOverflow) as want:
            heap()
        assert got.value.args == want.value.args, name
        assert "after 51 items" in str(got.value), name
    bands, rows = [], []
    budget = oracle.EnumerationBudget(max_length=12.0, max_paths=50)
    with pytest.raises(BudgetOverflow):
        bands.extend(oracle._expand_classes(g, 1, budget))
    assert budget.overflow
    with pytest.raises(BudgetOverflow):
        rows.extend(heap_expand_classes(g, 1, oracle.EnumerationBudget(12.0, 50)))
    got = [np.concatenate(column).tolist() for column in zip(*bands)]
    assert got == [list(column) for column in zip(*rows)]
    assert len(got[0]) == 50
