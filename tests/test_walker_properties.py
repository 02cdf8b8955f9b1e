"""Property test of the walk kernel on random ring graphs.

Claims covered:
    - on ring graphs with n = 1..12 and p in {0.6, 0.9, 1}, from any start
      vertex and at any horizon, the padded-table ensemble step yields the
      same status, edge, vertex and time arrays, with the same dtypes, as
      the per-vertex loop kept in conftest

Needs the optional ``hypothesis`` test dependency; skipped without it.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from orbitcount import build_graph

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
