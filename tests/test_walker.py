"""Monte Carlo walker against exact masses and closed forms.

Claims covered:
    - identical inputs reproduce identical outcomes and estimates bit for bit
    - a single walk is run 0 of the vectorized ensemble: it matches a walk
      stepped by hand from the same uniforms
    - the padded-table ensemble step yields the same arrays, bit for bit and
      batch by batch, as the per-vertex loop kept in conftest
    - a horizon whose draw budget exceeds one batch, or a start vertex
      outside the graph, is a validation error raised before any draw
    - the probability-1 loop walk is deterministic: on-edge with the right
      offset, at-vertex at integer times and at T=0
    - ensemble survival and edge-occupation frequencies agree with the exact
      oracle within four binomial standard errors
    - stochastic graphs never lose a walker (estimate exactly 1, stderr 0)
    - pooling two half-ensembles reproduces the combined counts
    - log survival decays linearly in the horizon with slope near the
      critical exponent
"""

import math

import numpy as np
import pytest

from orbitcount import build_graph, walker
from orbitcount.errors import IndexOutOfRange, ValidationError
from orbitcount.oracle import edge_probability_exact, survival_exact
from orbitcount.walker import (
    AT_VERTEX,
    EXITED,
    ON_EDGE,
    STOCHASTIC_SLACK,
    WalkOutcome,
    ensemble_edge_probability,
    ensemble_survival,
    merge_estimates,
    simulate_walk,
)

from conftest import assert_matches_loop_kernel, ring_spec, two_vertex_spec


def test_unit_loop_walk_is_deterministic(unit_loop):
    out = simulate_walk(unit_loop, 1, 2.5, seed=1)
    assert out.status == ON_EDGE
    assert out.edge_id == 0
    assert out.offset == pytest.approx(0.5)
    assert out.path_length_traversed == 2.5
    assert simulate_walk(unit_loop, 1, 2.5, seed=99) == out


def test_walk_at_vertex_events(unit_loop):
    at_zero = simulate_walk(unit_loop, 1, 0.0, seed=4)
    assert at_zero.status == AT_VERTEX and at_zero.vertex == 1
    at_two = simulate_walk(unit_loop, 1, 2.0, seed=4)
    assert at_two.status == AT_VERTEX and at_two.path_length_traversed == 2.0


def test_half_loop_walk_exits_eventually(half_loop):
    statuses = {simulate_walk(half_loop, 1, 40.0, seed=s).status for s in range(40)}
    assert EXITED in statuses
    out = simulate_walk(half_loop, 1, 40.0, seed=0)
    if out.status == EXITED:
        assert out.exit_time <= 40.0
        assert out.exit_time == out.path_length_traversed


def test_walk_reproducible_bitwise(two_vertex_stochastic):
    a = simulate_walk(two_vertex_stochastic, 1, 7.3, seed=123)
    b = simulate_walk(two_vertex_stochastic, 1, 7.3, seed=123)
    assert a == b


def _literal_walk(g, start, horizon, seed):
    """One walk stepped by hand: one Philox uniform per vertex decision."""
    draws = np.random.Generator(np.random.Philox(seed)).random(
        int(horizon / g.min_edge_length()) + 2
    )
    vertex, t = start, 0.0
    for u in draws:
        if t == horizon:
            return WalkOutcome(status=AT_VERTEX, path_length_traversed=t, vertex=vertex)
        edges = g.out_edges(vertex)
        cum = np.cumsum([e.probability for e in edges]) if edges else np.zeros(0)
        if len(cum) and abs(cum[-1] - 1.0) <= STOCHASTIC_SLACK:
            cum[-1] = 1.0
        k = int(np.searchsorted(cum, u, side="right"))
        if k == len(cum):
            return WalkOutcome(status=EXITED, path_length_traversed=t, exit_time=t)
        arrival = t + edges[k].length
        if arrival > horizon:
            return WalkOutcome(
                status=ON_EDGE,
                path_length_traversed=horizon,
                edge_id=edges[k].id,
                offset=horizon - t,
            )
        vertex, t = edges[k].target, arrival
    raise AssertionError("draw budget exhausted")


def test_single_walk_is_run_zero_of_the_ensemble():
    # p = 0.9 over two out-edges per vertex: walks end on an edge, at a
    # vertex (T = 2 log 2 is an arrival time) or by leaving the graph.
    g = build_graph(two_vertex_spec(probability=0.45))
    statuses = set()
    for seed in range(60):
        for horizon in (0.0, 2 * math.log(2), 7.3, 30.3):
            out = simulate_walk(g, 1, horizon, seed)
            assert out == _literal_walk(g, 1, horizon, seed)
            statuses.add(out.status)
    assert statuses == {AT_VERTEX, ON_EDGE, EXITED}


# Out-degrees 3, 1, 0 and 2; vertex 2 is sub-stochastic between stochastic
# vertices 1 and 4, vertex 3 has no way out.  Dyadic lengths put many walkers
# exactly at a vertex at T = 3 and T = 4.5.
RAGGED_SPEC = {
    "vertices": 4,
    "edges": [
        {"from": 1, "to": 1, "length": 0.5, "probability": 0.2},
        {"from": 1, "to": 2, "length": 1.0, "probability": 0.3},
        {"from": 1, "to": 4, "length": 1.5, "probability": 0.5},
        {"from": 2, "to": 1, "length": 0.5, "probability": 0.6},
        {"from": 4, "to": 1, "length": 2.0, "probability": 0.5},
        {"from": 4, "to": 3, "length": 1.0, "probability": 0.5},
    ],
}
KERNEL_CASES = {
    "ragged": (RAGGED_SPEC, 1, (0.0, 3.0, 4.5, 7.3)),
    "ragged-from-3": (RAGGED_SPEC, 3, (0.0, 2.0)),
    "half_loop": ({"vertices": 1, "edges": [
        {"from": 1, "to": 1, "length": 1.0, "probability": 0.5}]}, 1, (0.0, 2.0, 2.5)),
    "unit_loop": ({"vertices": 1, "edges": [
        {"from": 1, "to": 1, "length": 1.0, "probability": 1.0}]}, 1, (0.0, 3.0, 3.5)),
    "two_vertex_p09": (two_vertex_spec(probability=0.45), 2, (0.0, 2 * math.log(2), 7.3)),
    "ring20_p09": (ring_spec(20, 20, 0.9), 1, (0.0, 8.3)),
    "ring50_p1": (ring_spec(50, 50, 1.0), 7, (11.3,)),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_matches_vertex_loop_reference(case, monkeypatch):
    spec, start, horizons = KERNEL_CASES[case]
    g = build_graph(spec)
    statuses = set()
    for horizon in horizons:
        statuses.update(assert_matches_loop_kernel(g, start, horizon, 3000, seed=5).tolist())
    # A small batch cap makes every walk set span several batches.
    monkeypatch.setattr(walker, "_BATCH_DRAWS", 256)
    for horizon in horizons:
        statuses.update(assert_matches_loop_kernel(g, start, horizon, 200, seed=9).tolist())
    if case in ("ragged", "two_vertex_p09"):
        assert statuses == {0, 1, 2}


def test_uniform_equal_to_a_cumulative_probability_takes_the_next_edge():
    # searchsorted(side="right") counts cum <= u, so a draw equal to the
    # first cumulative probability picks the second edge.
    u = float(np.random.Generator(np.random.Philox(3)).random())
    g = build_graph({"vertices": 1, "edges": [
        {"from": 1, "to": 1, "length": 1.0, "probability": u},
        {"from": 1, "to": 1, "length": 2.0, "probability": 1.0 - u},
    ]})
    assert simulate_walk(g, 1, 0.5, seed=3).edge_id == 1
    assert_matches_loop_kernel(g, 1, 0.5, 1, seed=3)


@pytest.mark.parametrize("horizon", [1e300, math.inf, math.nan])
def test_unbounded_draw_budget_is_a_validation_error(horizon, half_loop):
    with pytest.raises(ValidationError, match="uniform draws per walk"):
        ensemble_survival(half_loop, 1, horizon, 10, seed=0)


def test_draw_budget_limit_is_one_batch(unit_loop, monkeypatch):
    # Unit loop: T needs int(T) + 2 draws.  With 64 draws per batch, T = 62.5
    # is the last horizon that fits, one walker per batch.
    monkeypatch.setattr(walker, "_BATCH_DRAWS", 64)
    est = ensemble_survival(unit_loop, 1, 62.5, 3, seed=0)
    assert est.point_estimate == 1.0
    with pytest.raises(ValidationError):
        ensemble_survival(unit_loop, 1, 63.0, 3, seed=0)


def test_start_outside_the_graph_is_a_validation_error(half_loop):
    for start in (0, 2, -1):
        with pytest.raises(IndexOutOfRange):
            ensemble_survival(half_loop, start, 2.5, 10, seed=0)


def test_ensemble_survival_matches_exact(half_loop):
    est = ensemble_survival(half_loop, 1, 2.5, 200_000, seed=42)
    exact = survival_exact(half_loop, 1, 2.5)
    assert exact == 0.125
    assert abs(est.point_estimate - exact) <= 4 * est.standard_error
    assert est.standard_error == pytest.approx(
        math.sqrt(est.point_estimate * (1 - est.point_estimate) / est.sample_count)
    )


def test_ensemble_reproducible(half_loop):
    a = ensemble_survival(half_loop, 1, 2.5, 50_000, seed=7)
    b = ensemble_survival(half_loop, 1, 2.5, 50_000, seed=7)
    assert a == b


def test_ensemble_edge_probability_matches_exact(two_vertex_stochastic):
    t = 6.4
    for name in ("alpha", "gamma2"):
        est = ensemble_edge_probability(two_vertex_stochastic, 1, name, t, 200_000, seed=11)
        exact = edge_probability_exact(two_vertex_stochastic, 1, name, t)
        assert abs(est.point_estimate - exact) <= 4 * est.standard_error


def test_stochastic_ensemble_survival_is_exactly_one(two_vertex_stochastic):
    est = ensemble_survival(two_vertex_stochastic, 1, 9.7, 50_000, seed=3)
    assert est.point_estimate == 1.0
    assert est.standard_error == 0.0


def test_ensemble_survival_at_time_zero(half_loop):
    est = ensemble_survival(half_loop, 1, 0.0, 5_000, seed=1)
    assert est.point_estimate == 1.0


def test_merge_pools_counts(half_loop):
    a = ensemble_survival(half_loop, 1, 2.5, 30_000, seed=1)
    b = ensemble_survival(half_loop, 1, 2.5, 50_000, seed=2)
    pooled = merge_estimates(a, b)
    assert pooled.sample_count == 80_000
    assert pooled.successes == a.successes + b.successes
    lo, hi = sorted((a.point_estimate, b.point_estimate))
    assert lo <= pooled.point_estimate <= hi


def test_survival_decay_slope_near_exponent(half_loop):
    horizons = np.array([2.0, 4.0, 8.0]) + 0.5
    logs = []
    for t in horizons:
        est = ensemble_survival(half_loop, 1, float(t), 1_000_000, seed=2024)
        logs.append(math.log(est.point_estimate))
    slope = np.polyfit(horizons, logs, 1)[0]
    lam = -math.log(2)
    assert abs(slope - lam) <= 0.1 * abs(lam)


def test_lambda_zero_long_horizon_occupancy(two_vertex_stochastic):
    # At large T the on-edge frequency settles to the exact occupation mass.
    t = 30.3
    est = ensemble_edge_probability(two_vertex_stochastic, 1, "gamma2", t, 400_000, seed=5)
    exact = edge_probability_exact(two_vertex_stochastic, 1, "gamma2", t)
    assert abs(est.point_estimate - exact) <= 4 * est.standard_error
