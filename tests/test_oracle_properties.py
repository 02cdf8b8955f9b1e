"""Property test of the banded class expansion on random graphs.

Claims covered:
    - on random strongly connected graphs (a ring plus random out-edges,
      loops and parallel edges allowed), counting or probability-annotated,
      the class stream and every family equal the heap reference kept in
      conftest, bit for bit, with the Python band step forced and with the
      numpy band step forced.  Lengths are generic, on the lattice
      a log 2 + b log 3 (many paths share a class), or 1, 1.5 or 2 nudged
      by multiples of 3e-10 (sums make chains of near ties and buckets at
      band ends)

Needs the optional ``hypothesis`` test dependency; skipped without it.
"""

import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from orbitcount import build_graph, oracle

from conftest import assert_matches_heap


@st.composite
def graphs_and_horizons(draw):
    """A graph spec and a horizon; near-tie graphs merge so much that they
    can go further, where chains of near ties grow long."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["generic", "lattice", "near-tie"]))
    p = draw(st.sampled_from([None, 0.6, 1.0]))

    def length():
        if kind == "lattice":
            a, b = draw(st.integers(0, 2)), draw(st.integers(0, 1))
            return {"log_of": 2**a * 3**b} if a + b else {"log_of": 1.5}
        if kind == "near-tie":
            return draw(st.sampled_from([1.0, 1.5, 2.0])) + 3e-10 * draw(st.integers(-3, 3))
        return draw(st.floats(0.5, 2.0))

    edges = []
    for v in range(1, n + 1):
        targets = [v % n + 1] + draw(st.lists(st.integers(1, n), max_size=2))
        for t in targets:
            edge = {"from": v, "to": t, "length": length()}
            if p is not None:
                edge["probability"] = p / len(targets)
            edges.append(edge)
    top = draw(st.floats(0.0, 12.0 if kind == "near-tie" else 6.0))
    return {"vertices": n, "edges": edges}, top


@settings(max_examples=30, deadline=None)
@given(case=graphs_and_horizons())
def test_band_expansion_matches_heap(case):
    spec, top = case
    g = build_graph(spec)
    for rows in (0, math.inf):
        with mock.patch.object(oracle, "_NUMPY_BAND_ROWS", rows):
            assert_matches_heap(g, top)
