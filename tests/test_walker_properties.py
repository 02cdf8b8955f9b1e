"""Property tests of the walk kernel on random graphs.

Claims covered:
    - on ring graphs with n = 1..12 and p in {0.6, 0.9, 1}, from any start
      vertex and at any horizon, the padded-table ensemble step yields the
      same outcome codes, with the same dtype, as the per-vertex loop kept in
      conftest
    - on random strongly connected graphs (a ring plus random out-edges,
      loops and parallel edges allowed) with generic lengths and p in
      {0.6, 0.9, 1}, at a horizon where no path ends, ensemble survival and
      the on-edge frequency of one edge agree with the exact oracle within
      four binomial standard errors of the exact value, and equal it where
      it is 0 or 1

Needs the optional ``hypothesis`` test dependency; skipped without it.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from orbitcount import build_graph, oracle
from orbitcount.walker import ensemble_edge_probability, ensemble_survival

from conftest import assert_matches_loop_kernel, ring_spec


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    p=st.sampled_from([0.6, 0.9, 1.0]),
    start=st.integers(1, 12),
    horizon=st.floats(0.0, 12.0),
    walkers=st.integers(1, 2000),
)
def test_kernel_matches_vertex_loop_on_rings(seed, n, p, start, horizon, walkers):
    g = build_graph(ring_spec(seed, n, p))
    start = (start - 1) % n + 1
    assert_matches_loop_kernel(g, start, horizon, walkers, seed)


@st.composite
def walk_cases(draw):
    """A probability-annotated graph spec with generic lengths, a start
    vertex, an edge id and a horizon."""
    n = draw(st.integers(1, 6))
    p = draw(st.sampled_from([0.6, 0.9, 1.0]))
    edges = []
    for v in range(1, n + 1):
        targets = [v % n + 1] + draw(st.lists(st.integers(1, n), max_size=2))
        for t in targets:
            length = draw(st.floats(0.5, 2.0))
            edges.append({"from": v, "to": t, "length": length, "probability": p / len(targets)})
    start = draw(st.integers(1, n))
    edge = draw(st.integers(0, len(edges) - 1))
    # The irrational offset keeps simple horizons off simple path lengths.
    horizon = draw(st.floats(1.0, 5.0)) + math.sqrt(2) * 1e-3
    return {"vertices": n, "edges": edges}, start, edge, horizon


WALKERS = 20_000


def _assert_within_4_sigma(estimate, exact):
    if min(exact, 1.0 - exact) <= 1e-12:  # 0 or 1, up to rounding in the oracle's sums
        assert estimate.point_estimate == round(exact)
    else:
        sigma = math.sqrt(exact * (1.0 - exact) / WALKERS)
        assert abs(estimate.point_estimate - exact) <= 4.0 * sigma


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=walk_cases(), seed=st.integers(0, 2**32 - 1))
def test_ensemble_matches_oracle_off_atoms(case, seed):
    spec, start, edge, horizon = case
    g = build_graph(spec)
    # Off atom times the walker's and the oracle's definitions coincide: no
    # path from start ends within 1e-6 of the horizon.
    near = [
        oracle.vertex_probability_atoms(g, start, j, horizon + 1e-6, window=2e-6)
        for j in range(1, g.vertex_count + 1)
    ]
    assume(not any(near))
    _assert_within_4_sigma(
        ensemble_survival(g, start, horizon, WALKERS, seed),
        oracle.survival_exact(g, start, horizon),
    )
    _assert_within_4_sigma(
        ensemble_edge_probability(g, start, edge, horizon, WALKERS, seed),
        oracle.edge_probability_exact(g, start, edge, horizon),
    )
