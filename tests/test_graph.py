"""Graph model, validation, connectivity, cycles, and ratio diagnostics.

Claims covered:
    - the JSON schema round-trips and the log_of form stores exact logs
    - validation rejects bad lengths, indices, probability sums, mixed
      annotation
    - strong connectivity agrees with a brute-force transitive closure on
      all small random graphs
    - cycle enumeration finds each simple cycle once up to rotation and is
      stable under edge reordering
    - the best-first cycle search gives the recursive DFS's sorted list bit
      for bit, and the verdict equals the DFS scan's in every field, on
      seeded rings n = 5..100 with max_edges 1..8, the two-vertex example,
      integer loops, near-tie lengths and common-multiple graphs
    - the incommensurability verdict finds a witness for the two-vertex example,
      never flags graphs whose lengths share a common multiple, and reports
      inconclusive without two cycles
    - the scan reads cycles only as far as its first witness, also when that
      witness pairs the shortest cycle with a later one
    - the scan tests each pair of distinct lengths once: with tied lengths
      (the first two cycles equal) the verdict still equals the DFS scan's
      in every field, and a commensurable 16-vertex graph with 2,576 cycles
      of 43 lengths makes one rational approximation per pair of lengths
"""

import math

import numpy as np
import pytest

from orbitcount import (
    build_graph,
    cycle_lengths,
    graph,
    graph_to_dict,
    incommensurability_check,
    strong_connectivity,
)
from orbitcount.errors import (
    IndexOutOfRange,
    MixedProbabilityAnnotation,
    NonPositiveLength,
    ProbabilitySumExceedsOne,
    UnknownEdge,
)
from orbitcount.graph import (
    COMMENSURABLE_WITHIN_TOLERANCE,
    INCOMMENSURABLE_WITNESS,
    INCONCLUSIVE,
)

from conftest import dfs_cycle_lengths, dfs_incommensurability_check, ring_spec, two_vertex_spec


# -- construction and validation ----------------------------------------------


def test_two_vertex_builds_with_exact_log_lengths(two_vertex):
    assert two_vertex.vertex_count == 2
    assert two_vertex.edge_count == 4
    lengths = [e.length for e in two_vertex.edges]
    assert lengths == [math.log(2), math.log(2), math.log(1.5), math.log(3)]
    assert not two_vertex.has_probabilities


def test_single_vertex_loop_is_valid():
    g = build_graph({"vertices": 1, "edges": [{"from": 1, "to": 1, "length": 1.0}]})
    assert g.edge_count == 1


def test_zero_length_rejected():
    with pytest.raises(NonPositiveLength):
        build_graph({"vertices": 1, "edges": [{"from": 1, "to": 1, "length": 0.0}]})


def test_log_of_at_most_one_rejected():
    with pytest.raises(NonPositiveLength):
        build_graph(
            {"vertices": 1, "edges": [{"from": 1, "to": 1, "length": {"log_of": 1.0}}]}
        )


def test_vertex_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_graph({"vertices": 2, "edges": [{"from": 1, "to": 3, "length": 1.0}]})


def test_probability_sum_above_one_rejected():
    with pytest.raises(ProbabilitySumExceedsOne):
        build_graph(
            {
                "vertices": 1,
                "edges": [
                    {"from": 1, "to": 1, "length": 1.0, "probability": 0.7},
                    {"from": 1, "to": 1, "length": 2.0, "probability": 0.5},
                ],
            }
        )


def test_mixed_annotation_rejected():
    with pytest.raises(MixedProbabilityAnnotation):
        build_graph(
            {
                "vertices": 1,
                "edges": [
                    {"from": 1, "to": 1, "length": 1.0, "probability": 0.5},
                    {"from": 1, "to": 1, "length": 2.0},
                ],
            }
        )


def test_round_trip_field_for_field(two_vertex_stochastic):
    again = build_graph(graph_to_dict(two_vertex_stochastic))
    assert again == two_vertex_stochastic


def test_edge_lookup_by_name_id_and_pattern(two_vertex):
    assert two_vertex.edge("gamma2").length == math.log(3)
    assert two_vertex.edge(0).name == "alpha"
    assert two_vertex.edge("2-1#2").name == "gamma2"
    assert two_vertex.edge("1-1").name == "alpha"
    with pytest.raises(UnknownEdge):
        two_vertex.edge("2-1")  # two parallel edges, needs #k
    with pytest.raises(UnknownEdge):
        two_vertex.edge("delta")


# -- connectivity ---------------------------------------------------------------


def test_two_vertex_strongly_connected(two_vertex):
    report = strong_connectivity(two_vertex)
    assert report.strongly_connected
    assert report.components == (frozenset({1, 2}),)


def test_one_way_pair_not_strongly_connected():
    g = build_graph({"vertices": 2, "edges": [{"from": 1, "to": 2, "length": 1.0}]})
    report = strong_connectivity(g)
    assert not report.strongly_connected
    assert report.components == (frozenset({1}), frozenset({2}))


def test_single_vertex_with_loop_connected():
    g = build_graph({"vertices": 1, "edges": [{"from": 1, "to": 1, "length": 1.0}]})
    assert strong_connectivity(g).strongly_connected


def _closure_components(n, edges):
    reach = np.eye(n, dtype=bool)
    for src, dst in edges:
        reach[src - 1, dst - 1] = True
    for _ in range(n):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    comps = {}
    for v in range(n):
        key = frozenset(
            w + 1 for w in range(n) if reach[v, w] and reach[w, v]
        ) | {v + 1}
        comps.setdefault(key, set()).add(v + 1)
    return set(frozenset(c) for c in comps.values())


def test_connectivity_matches_transitive_closure_bruteforce():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 13))
        pairs = [
            (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(m)
        ]
        g = build_graph(
            {
                "vertices": n,
                "edges": [{"from": s, "to": t, "length": 1.0} for s, t in pairs],
            }
        )
        report = strong_connectivity(g)
        assert set(report.components) == _closure_components(n, pairs)
        assert report.strongly_connected == (len(report.components) == 1)


# -- cycles ----------------------------------------------------------------------


def test_two_vertex_cycles_up_to_two_edges(two_vertex):
    got = cycle_lengths(two_vertex, max_edges=2)
    assert got == pytest.approx([math.log(2), math.log(3), math.log(6)])


def test_single_loop_cycle():
    g = build_graph({"vertices": 1, "edges": [{"from": 1, "to": 1, "length": 1.0}]})
    assert cycle_lengths(g) == [1.0]


def test_parallel_loops_are_distinct_cycles(two_loops):
    # Loops revisit the vertex, so no simple cycle uses more than one of them.
    assert cycle_lengths(two_loops, max_edges=1) == [1.0, 2.0]
    assert cycle_lengths(two_loops, max_edges=2) == [1.0, 2.0]


def test_acyclic_graph_has_no_cycles():
    g = build_graph({"vertices": 2, "edges": [{"from": 1, "to": 2, "length": 1.0}]})
    assert cycle_lengths(g) == []


def test_cycle_lengths_invariant_under_edge_reordering(two_vertex):
    spec = two_vertex_spec()
    rng = np.random.default_rng(5)
    reference = cycle_lengths(two_vertex)
    for _ in range(5):
        shuffled = dict(spec)
        shuffled["edges"] = [spec["edges"][k] for k in rng.permutation(4)]
        assert cycle_lengths(build_graph(shuffled)) == pytest.approx(reference)


# -- incommensurability ------------------------------------------------------------


def test_two_vertex_incommensurable_witness(two_vertex):
    verdict = incommensurability_check(two_vertex)
    assert verdict.status == INCOMMENSURABLE_WITNESS
    a, b = verdict.witness
    assert (a, b) == pytest.approx((math.log(2), math.log(3)))
    p, q, residual = verdict.rational_approx
    assert q <= 10**6
    assert residual > 1e-12


def test_integer_loops_commensurable(two_loops):
    verdict = incommensurability_check(two_loops)
    assert verdict.status == COMMENSURABLE_WITHIN_TOLERANCE
    p, q, residual = verdict.rational_approx
    assert (p, q) == (1, 2)
    assert residual <= 1e-12


def test_single_cycle_inconclusive():
    g = build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": 1, "to": 2, "length": 1.0},
                {"from": 2, "to": 1, "length": 0.5},
            ],
        }
    )
    assert incommensurability_check(g).status == INCONCLUSIVE


def _common_multiple_graphs():
    """Twenty seeded graphs on 1..3 vertices, every length a multiple of 0.37."""
    rng = np.random.default_rng(99)
    base = 0.37
    for _ in range(20):
        n = int(rng.integers(1, 4))
        edges = [
            {
                "from": int(rng.integers(1, n + 1)),
                "to": int(rng.integers(1, n + 1)),
                "length": base * int(rng.integers(1, 9)),
            }
            for _ in range(int(rng.integers(2, 7)))
        ]
        yield build_graph({"vertices": n, "edges": edges})


def test_common_multiple_lengths_never_witness():
    for g in _common_multiple_graphs():
        verdict = incommensurability_check(g)
        assert verdict.status != INCOMMENSURABLE_WITNESS


def _assert_matches_dfs(g, max_edges=None):
    assert cycle_lengths(g, max_edges) == dfs_cycle_lengths(g, max_edges)
    assert incommensurability_check(g, max_edges) == dfs_incommensurability_check(g, max_edges)


@pytest.mark.parametrize("n", [5, 12, 20, 50, 100])
@pytest.mark.parametrize("seed", [3, 17])
def test_search_matches_dfs_on_rings(seed, n):
    g = build_graph(ring_spec(seed, n, 0.9))
    for max_edges in range(1, 9):
        _assert_matches_dfs(g, max_edges)


def test_search_matches_dfs_on_small_graphs(two_vertex, two_loops):
    near_tie = build_graph(
        {
            "vertices": 2,
            "edges": [
                {"from": 1, "to": 1, "length": 1.0 + 1e-15},
                {"from": 1, "to": 1, "length": 1.0},
                {"from": 1, "to": 2, "length": 0.5},
                {"from": 2, "to": 1, "length": 0.5},
                {"from": 2, "to": 2, "length": 1.0},
            ],
        }
    )
    assert cycle_lengths(near_tie) == [1.0, 1.0, 1.0, 1.0 + 1e-15]
    for g in [two_vertex, two_loops, near_tie, *_common_multiple_graphs()]:
        for max_edges in [None, 1, 2, 3]:
            _assert_matches_dfs(g, max_edges)


def _loops(*lengths):
    return build_graph(
        {"vertices": 1, "edges": [{"from": 1, "to": 1, "length": x} for x in lengths]}
    )


def _half_rounded_ring(n):
    """``ring_spec(1, n, 0.9)`` with every length rounded to a multiple of 0.5."""
    spec = ring_spec(1, n, 0.9)
    for edge in spec["edges"]:
        edge["length"] = round(edge["length"] * 2) / 2
    return build_graph(spec)


def test_scan_with_tied_lengths_matches_dfs():
    # The first two cycles tie in each loop graph; the verdict still reports
    # the approximation of that first raw pair, and the same first witness.
    tied_first = [
        _loops(1.0, 1.0),
        _loops(0.5, 0.5, 0.5),
        _loops(1.0, 1.0, 2.0, math.pi),
        _loops(3.0, 1.0, 2.0, 2.0, 1.0),
        _loops(2.0, 1.0, 1.0, math.sqrt(2), math.sqrt(2)),
    ]
    for g in tied_first:
        lengths = dfs_cycle_lengths(g)
        assert lengths[0] == lengths[1]
        assert incommensurability_check(g) == dfs_incommensurability_check(g)
    g = _half_rounded_ring(12)  # 453 cycles, every length a multiple of 0.5
    for max_edges in [None, 3, 6]:
        assert incommensurability_check(g, max_edges) == dfs_incommensurability_check(g, max_edges)


def test_commensurable_scan_reads_each_pair_of_values_once(monkeypatch):
    # 2,576 cycles with 43 distinct lengths: the scan over every pair of
    # cycles made ~3.3 million rational approximations and took seconds.
    g = _half_rounded_ring(16)
    lengths = dfs_cycle_lengths(g)
    distinct = len(set(lengths))
    assert (len(lengths), distinct) == (2576, 43)
    calls = []

    def counted(ratio, max_denominator):
        calls.append(ratio)
        return best_rational(ratio, max_denominator)

    best_rational = graph._best_rational
    monkeypatch.setattr(graph, "_best_rational", counted)
    verdict = incommensurability_check(g)
    assert verdict.status == COMMENSURABLE_WITHIN_TOLERANCE
    p, q = best_rational(lengths[0] / lengths[1], 10**6)
    assert verdict.rational_approx == (p, q, abs(lengths[0] * q - lengths[1] * p))
    tied_first_pair = lengths[0] == lengths[1]
    assert len(calls) == distinct * (distinct - 1) // 2 + tied_first_pair


def test_witness_after_the_second_cycle_is_read_lazily(monkeypatch):
    # Lengths 1, 2, 3 are commensurable; pi is the first witness, at pair
    # (0, 3).  The cycles after it must not be drawn from the search.
    lengths = [5.0, math.pi, 2.0, 6.0, 1.0, 3.0, 7.0]
    g = build_graph(
        {"vertices": 1, "edges": [{"from": 1, "to": 1, "length": x} for x in lengths]}
    )
    drawn = []

    def counted(*args):
        for length in search(*args):
            drawn.append(length)
            yield length

    search = graph._cycles_shortest_first
    monkeypatch.setattr(graph, "_cycles_shortest_first", counted)
    verdict = incommensurability_check(g)
    assert verdict == dfs_incommensurability_check(g)
    assert verdict.status == INCOMMENSURABLE_WITNESS
    assert verdict.witness == (1.0, math.pi)
    assert drawn == [1.0, 2.0, 3.0, math.pi]

