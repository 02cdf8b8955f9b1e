"""Property tests of the cycle search on random strongly connected graphs.

Claims covered:
    - on random strongly connected graphs (a ring 1 -> 2 -> ... -> n -> 1
      plus random edges, loops and parallel edges allowed) with generic,
      tied or commensurable lengths, the best-first cycle search gives the
      recursive DFS's sorted list bit for bit at every edge bound, and the
      incommensurability verdict equals the DFS scan's in every field

Needs the optional ``hypothesis`` test dependency; skipped without it.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from orbitcount import build_graph, cycle_lengths, incommensurability_check, strong_connectivity

from conftest import dfs_cycle_lengths, dfs_incommensurability_check

# Generic floats, a few repeated values (ties) and multiples of 0.25
# (commensurable pairs, so the scan runs past the first pair).
LENGTHS = st.one_of(
    st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]),
)


@st.composite
def strongly_connected_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(v, v % n + 1) for v in range(1, n + 1)]
    vertex = st.integers(1, n)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = [{"from": s, "to": t, "length": draw(LENGTHS)} for s, t in pairs]
    return build_graph({"vertices": n, "edges": edges})


@settings(max_examples=60, deadline=None)
@given(g=strongly_connected_graphs(), bound=st.integers(0, 8))
def test_search_matches_dfs(g, bound):
    assert strong_connectivity(g).strongly_connected
    max_edges = bound or None
    assert cycle_lengths(g, max_edges) == dfs_cycle_lengths(g, max_edges)
    assert incommensurability_check(g, max_edges) == dfs_incommensurability_check(g, max_edges)
