"""Monte Carlo walker against exact masses and closed forms.

Claims covered:
    - identical inputs reproduce identical outcomes and estimates bit for bit
    - run 0 of the vectorized ensemble matches a walk stepped by hand from
      the same uniforms
    - the padded-table ensemble step yields the same outcome codes, bit for
      bit and walker by walker, as the per-vertex loop kept in conftest, on
      1, 2 or 3 threads, with batches starting at every stream offset
      modulo 4 and with fewer walkers than threads
    - a horizon whose draw budget exceeds one batch, a start vertex outside
      the graph, a negative horizon or no walkers is a validation error
      raised before any draw
    - an error raised in a worker thread reaches the caller as the same
      exception object, with no worker thread left running
    - the probability-1 loop walk is deterministic: on the loop at
      non-integer times, at the vertex at integer times and at T=0
    - ensemble survival and edge-occupation frequencies agree with the exact
      oracle within four binomial standard errors
    - stochastic graphs never lose a walker (estimate exactly 1, stderr 0)
    - log survival decays linearly in the horizon with slope near the
      critical exponent
"""

import math
import threading

import numpy as np
import pytest

from orbitcount import build_graph, walker
from orbitcount.errors import IndexOutOfRange, ValidationError
from orbitcount.oracle import edge_probability_exact, survival_exact
from orbitcount.walker import (
    _AT_VERTEX,
    STOCHASTIC_SLACK,
    ensemble_edge_probability,
    ensemble_survival,
)

from conftest import assert_matches_loop_kernel, ring_spec, two_vertex_spec


def _run_zero(g, start, horizon, seed):
    """Outcome code of run 0 of the ensemble: an edge id, -1 or _AT_VERTEX."""
    [final] = walker._ensemble_outcomes(g, start, horizon, 1, seed)
    return int(final[0])


def _kinds(codes):
    """The outcome kinds among ``codes``: 0 on an edge, -1 exited, _AT_VERTEX."""
    return set(np.minimum(codes, 0).tolist())


def test_unit_loop_walk_is_deterministic(unit_loop):
    assert _run_zero(unit_loop, 1, 2.5, seed=1) == 0
    assert _run_zero(unit_loop, 1, 2.5, seed=99) == 0


def test_walk_at_vertex_events(unit_loop):
    assert _run_zero(unit_loop, 1, 0.0, seed=4) == _AT_VERTEX
    assert _run_zero(unit_loop, 1, 2.0, seed=4) == _AT_VERTEX


def test_half_loop_walk_exits_eventually(half_loop):
    codes = {_run_zero(half_loop, 1, 40.0, seed=s) for s in range(40)}
    assert -1 in codes


def test_walk_reproducible_bitwise(two_vertex_stochastic):
    a = _run_zero(two_vertex_stochastic, 1, 7.3, seed=123)
    assert _run_zero(two_vertex_stochastic, 1, 7.3, seed=123) == a


def _literal_walk(g, start, horizon, seed):
    """One walk stepped by hand: one Philox uniform per vertex decision."""
    draws = np.random.Generator(np.random.Philox(seed)).random(
        int(horizon / g.min_edge_length()) + 2
    )
    vertex, t = start, 0.0
    for u in draws:
        if t == horizon:
            return _AT_VERTEX
        edges = g.out_edges(vertex)
        cum = np.cumsum([e.probability for e in edges]) if edges else np.zeros(0)
        if len(cum) and abs(cum[-1] - 1.0) <= STOCHASTIC_SLACK:
            cum[-1] = 1.0
        k = int(np.searchsorted(cum, u, side="right"))
        if k == len(cum):
            return -1
        arrival = t + edges[k].length
        if arrival > horizon:
            return edges[k].id
        vertex, t = edges[k].target, arrival
    raise AssertionError("draw budget exhausted")


def test_single_walk_is_run_zero_of_the_ensemble():
    # p = 0.9 over two out-edges per vertex: walks end on an edge, at a
    # vertex (T = 2 log 2 is an arrival time) or by leaving the graph.
    g = build_graph(two_vertex_spec(probability=0.45))
    codes = []
    for seed in range(60):
        for horizon in (0.0, 2 * math.log(2), 7.3, 30.3):
            code = _run_zero(g, 1, horizon, seed)
            assert code == _literal_walk(g, 1, horizon, seed)
            codes.append(code)
    assert _kinds(codes) == {_AT_VERTEX, -1, 0}


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
    "ring50_p1": (ring_spec(50, 50, 1.0), 7, (0.0, 11.3)),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_matches_vertex_loop_reference(case, monkeypatch):
    spec, start, horizons = KERNEL_CASES[case]
    g = build_graph(spec)
    kinds, offsets = set(), set()
    walk_batch = walker._walk_batch

    def recorded(tables, start, horizon, k_draws, seed, first, size):
        offsets.add(first * k_draws % 4)
        # A batch holds one thread's share of the uniforms, or one walker.
        assert size * k_draws <= max(walker._BATCH_DRAWS // workers, k_draws)
        return walk_batch(tables, start, horizon, k_draws, seed, first, size)

    monkeypatch.setattr(walker, "_walk_batch", recorded)
    for workers in (1, 2, 3):
        monkeypatch.setattr(walker, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(walker, "_BATCH_DRAWS", 1 << 21)
        for horizon in horizons:
            kinds |= _kinds(assert_matches_loop_kernel(g, start, horizon, 3000, seed=5))
        # A small batch cap makes every walk set span several batches, and
        # puts batch starts at offsets the 4-double Philox jump cannot reach.
        monkeypatch.setattr(walker, "_BATCH_DRAWS", 250)
        for horizon in horizons:
            for n in (1, 2, 200):  # fewer walkers than threads, too
                kinds |= _kinds(assert_matches_loop_kernel(g, start, horizon, n, seed=9))
    # An even draw budget (as at T = 0) reaches offsets 0 and 2 only.
    assert offsets == {0, 1, 2, 3} if case in ("ragged", "unit_loop", "two_vertex_p09") else {0, 2}
    if case in ("ragged", "two_vertex_p09"):
        assert kinds == {_AT_VERTEX, -1, 0}


def test_uniform_equal_to_a_cumulative_probability_takes_the_next_edge():
    # searchsorted(side="right") counts cum <= u, so a draw equal to the
    # first cumulative probability picks the second edge.
    u = float(np.random.Generator(np.random.Philox(3)).random())
    g = build_graph({"vertices": 1, "edges": [
        {"from": 1, "to": 1, "length": 1.0, "probability": u},
        {"from": 1, "to": 1, "length": 2.0, "probability": 1.0 - u},
    ]})
    assert _run_zero(g, 1, 0.5, seed=3) == 1
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


def test_validation_errors_come_before_any_draw(half_loop, monkeypatch):
    def walked(*args):
        raise AssertionError("a batch was walked")

    monkeypatch.setattr(walker, "_walk_batch", walked)
    monkeypatch.setattr(walker, "_usable_cpus", lambda: 2)
    for start, horizon, n in ((1, -1.0, 10), (1, 2.5, 0), (1, math.inf, 10), (2, 2.5, 10)):
        with pytest.raises(ValidationError):
            ensemble_survival(half_loop, start, horizon, n, seed=0)


def test_worker_error_reaches_the_caller_with_no_thread_left(half_loop, monkeypatch):
    error = RuntimeError("batch failed")
    walk_batch = walker._walk_batch

    def failing(tables, start, horizon, k_draws, seed, first, size):
        if first == 3 * size:  # the fourth batch of many
            raise error
        return walk_batch(tables, start, horizon, k_draws, seed, first, size)

    monkeypatch.setattr(walker, "_walk_batch", failing)
    monkeypatch.setattr(walker, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(walker, "_BATCH_DRAWS", 256)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError) as raised:
        ensemble_survival(half_loop, 1, 2.5, 1000, seed=0)
    assert raised.value is error
    assert set(threading.enumerate()) == before


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
