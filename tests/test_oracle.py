"""Exact counting and probability masses against hand counts and identities.

Claims covered:
    - the path-by-path reference enumeration is exhaustive below the
      horizon, ordered by length, includes the empty path, and respects the
      safety cap; on a graph without edges the class route also gives just
      the empty path
    - path counts match hand enumerations (compositions into loop lengths,
      shortest connecting paths) and an independent recursive counter
    - the aggregated length-class route agrees exactly with the literal
      per-atom route wherever both are feasible
    - on-edge counts obey the difference identity B(x) = A(x) - A(x - l)
    - at-vertex masses, on-edge masses, and survival match closed forms on
      loop graphs and satisfy the measure bookkeeping on stochastic graphs
    - truncated transform sums converge to the resolvent entry
    - a grid of query points gives exactly the pointwise answers, in input
      order, overflows exactly when its largest point does, and costs the
      CLI one class expansion per count/prob query
"""

import json
import math

import numpy as np
import pytest

from orbitcount import build_graph, oracle
from orbitcount.cli import run
from orbitcount.errors import BudgetOverflow, MissingProbabilities
from orbitcount.oracle import (
    EnumerationBudget,
    count_edge_hits_exact,
    count_paths_exact,
    edge_probability_exact,
    survival_exact,
    truncated_laplace_sum,
    vertex_probability_atoms,
)
from orbitcount.spectral import MatrixFunction, Mode, solve_lambda

from conftest import enumerate_paths, two_vertex_spec


def dfs_count(g, v, j, remaining):
    total = 1 if v == j else 0
    for e in g.out_edges(v):
        if e.length <= remaining:
            total += dfs_count(g, e.target, j, remaining - e.length)
    return total


# -- enumeration ----------------------------------------------------------------


def test_two_loop_compositions(two_loops):
    budget = EnumerationBudget(max_length=5.0)
    atoms = list(enumerate_paths(two_loops, 1, budget))
    # Compositions of 0..5 into parts {1, 2}: 1+1+2+3+5+8.
    assert len(atoms) == 20
    assert count_paths_exact(two_loops, 1, 1, 5.0) == 20


def test_short_horizon_yields_only_empty_path(two_vertex):
    budget = EnumerationBudget(max_length=0.5 * math.log(1.5))
    atoms = list(enumerate_paths(two_vertex, 2, budget))
    assert len(atoms) == 1
    assert atoms[0].edge_count == 0
    assert atoms[0].length == 0.0
    assert atoms[0].terminal_vertex == 2
    assert atoms[0].probability == 1.0


def test_two_vertex_from_two_below_log2(two_vertex):
    budget = EnumerationBudget(max_length=math.log(2))
    atoms = list(enumerate_paths(two_vertex, 2, budget))
    assert [a.terminal_vertex for a in atoms] == [2, 1]
    assert atoms[1].length == pytest.approx(math.log(1.5))


def test_emission_order_nondecreasing():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        edges = [
            {
                "from": int(rng.integers(1, n + 1)),
                "to": int(rng.integers(1, n + 1)),
                "length": float(rng.uniform(0.2, 1.5)),
            }
            for _ in range(int(rng.integers(1, 7)))
        ]
        g = build_graph({"vertices": n, "edges": edges})
        budget = EnumerationBudget(max_length=4.0, max_paths=100_000)
        lengths = [a.length for a in enumerate_paths(g, 1, budget)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_budget_overflow_flags_and_raises(two_vertex):
    budget = EnumerationBudget(max_length=8.0, max_paths=10)
    with pytest.raises(BudgetOverflow):
        list(enumerate_paths(two_vertex, 1, budget))
    assert budget.overflow
    with pytest.raises(BudgetOverflow):
        count_paths_exact(two_vertex, 1, 1, 12.0, max_paths=50)


# -- path counts ------------------------------------------------------------------


def test_counts_match_independent_dfs(two_vertex, two_loops):
    for g, i, j, xs in (
        (two_vertex, 1, 1, (2.0, 5.0, 7.3)),
        (two_vertex, 1, 2, (2.0, 5.0, 7.3)),
        (two_vertex, 2, 1, (2.0, 5.0)),
        (two_loops, 1, 1, (5.0, 9.0)),
    ):
        for x in xs:
            assert count_paths_exact(g, i, j, x) == dfs_count(g, i, j, x)


def test_counts_match_literal_atoms(two_vertex):
    budget = EnumerationBudget(max_length=8.0)
    atoms = list(enumerate_paths(two_vertex, 1, budget))
    for j in (1, 2):
        for x in (1.3, 4.7, 8.0):
            literal = sum(
                1 for a in atoms if a.terminal_vertex == j and a.length <= x
            )
            assert count_paths_exact(two_vertex, 1, j, x) == literal


def test_empty_path_counts_at_zero(two_vertex):
    assert count_paths_exact(two_vertex, 1, 1, 0.0) == 1
    assert count_paths_exact(two_vertex, 1, 2, 0.0) == 0
    assert count_paths_exact(two_vertex, 1, 1, -1.0) == 0


def test_edgeless_graph_has_only_the_empty_path():
    g = build_graph({"vertices": 1, "edges": []})
    budget = EnumerationBudget(max_length=5.0)
    assert [(a.terminal_vertex, a.length) for a in enumerate_paths(g, 1, budget)] == [(1, 0.0)]
    assert count_paths_exact(g, 1, 1, 5.0) == 1
    assert count_paths_exact(g, 1, 1, [5.0, -0.5, 0.0]) == [1, 0, 1]
    assert truncated_laplace_sum(g, 1, 1, 1.7, 5.0) == 1.0
    assert truncated_laplace_sum(g, 1, 1, complex(1.7, 3.0), 5.0) == 1.0


def test_shortest_connecting_path(two_vertex):
    assert count_paths_exact(two_vertex, 1, 2, math.log(2) + 1e-9) == 1


# -- on-edge counts ----------------------------------------------------------------


def test_edge_hit_at_zero(two_vertex):
    assert count_edge_hits_exact(two_vertex, 1, "alpha", 0.0) == 1
    assert count_edge_hits_exact(two_vertex, 1, "beta", 0.0) == 1
    # gamma2 leaves vertex 2; the empty path at 1 does not sit on it.
    assert count_edge_hits_exact(two_vertex, 1, "gamma2", 0.0) == 0


def test_edge_hit_hand_count(two_vertex):
    # Paths 1 -> 2 with l <= log 5 < l + log 3: beta (log 2 <= log 5 < log 6)
    # and alpha.beta (log 4 <= log 5 < log 12).
    assert count_edge_hits_exact(two_vertex, 1, "gamma2", math.log(5)) == 2
    # Below log 4 only beta qualifies.
    assert count_edge_hits_exact(two_vertex, 1, "gamma2", math.log(3.9)) == 1


def test_edge_hits_reconcile_with_count_differences(two_vertex):
    for alpha in two_vertex.edges:
        j = alpha.source
        for x in (1.3, 2.9, 4.7, 6.1):
            direct = count_edge_hits_exact(two_vertex, 1, alpha.id, x)
            via_a = count_paths_exact(two_vertex, 1, j, x) - count_paths_exact(
                two_vertex, 1, j, x - alpha.length
            )
            assert direct == via_a


# -- probability masses --------------------------------------------------------------


def test_vertex_atoms_unit_loop(unit_loop):
    assert vertex_probability_atoms(unit_loop, 1, 1, 3.0) == 1.0
    assert vertex_probability_atoms(unit_loop, 1, 1, 2.5) == 0.0
    assert vertex_probability_atoms(unit_loop, 1, 1, 2.5, window=0.5) == 1.0


def test_vertex_atoms_half_loop(half_loop):
    for k in (0, 1, 3, 7):
        assert vertex_probability_atoms(half_loop, 1, 1, float(k)) == 0.5**k


def test_vertex_atoms_need_probabilities(two_vertex):
    with pytest.raises(MissingProbabilities):
        vertex_probability_atoms(two_vertex, 1, 1, 1.0)


def test_edge_probability_loops(unit_loop, half_loop):
    for t in (0.0, 0.5, 2.5, 10.25):
        assert edge_probability_exact(unit_loop, 1, 0, t) == 1.0
    assert edge_probability_exact(half_loop, 1, 0, 2.5) == 0.125


def test_survival_loops(unit_loop, half_loop):
    for t in (0.0, 2.5, 7.75):
        assert survival_exact(unit_loop, 1, t) == 1.0
    assert survival_exact(half_loop, 1, 2.5) == 0.125
    assert survival_exact(half_loop, 1, 0.0) == 0.5


def test_survival_is_edge_sum(two_vertex_stochastic):
    for t in (3.3, 8.7, 14.1):
        total = sum(
            edge_probability_exact(two_vertex_stochastic, 1, e.id, t)
            for e in two_vertex_stochastic.edges
        )
        assert survival_exact(two_vertex_stochastic, 1, t) == pytest.approx(total, abs=1e-14)


def test_stochastic_survival_is_one(two_vertex_stochastic):
    for t in (0.0, 1.7, 9.4, 17.9):
        assert survival_exact(two_vertex_stochastic, 1, t) == pytest.approx(1.0, abs=1e-12)


# -- convergence to the leading term ---------------------------------------------


def test_counts_monotone_in_horizon(two_vertex):
    grid = np.linspace(0.0, 9.0, 40)
    counts = [count_paths_exact(two_vertex, 1, 1, float(x)) for x in grid]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert all(c >= 0 for c in counts)


def test_windowed_deviation_decreases(two_vertex):
    # The pointwise ratio against the leading term oscillates; its mean
    # absolute deviation over unit windows shrinks as the horizon grows.
    coefficient = 6.0 / math.log(432.0)
    means = []
    for center in (6.0, 8.0, 10.0, 12.0):
        devs = [
            abs(
                count_paths_exact(two_vertex, 1, 1, float(x))
                / (coefficient * math.exp(x))
                - 1.0
            )
            for x in np.linspace(center - 0.5, center + 0.5, 21)
        ]
        means.append(float(np.mean(devs)))
    assert all(a > b or math.isclose(a, b, rel_tol=0.02) for a, b in zip(means, means[1:]))
    assert means[-1] < means[0]


# -- transform sums ------------------------------------------------------------------


def test_truncated_sum_approaches_resolvent(two_vertex):
    f = MatrixFunction(two_vertex, Mode.COUNTING)
    resolvent = np.linalg.inv(np.eye(2) - f.evaluate(2.0))
    got = truncated_laplace_sum(two_vertex, 1, 1, 2.0, max_length=12.0)
    # Tail is geometric with rate s - lam = 1 beyond the horizon.
    assert abs(got / resolvent[0, 0] - 1.0) <= 1e-4
    better = truncated_laplace_sum(two_vertex, 1, 1, 2.0, max_length=16.0)
    assert abs(better - resolvent[0, 0]) < abs(got - resolvent[0, 0])


def test_random_graph_integration():
    # A seeded 5-vertex graph with irrational-ratio lengths: the exponent
    # solve, the resolvent, and the exact counts must all agree.
    rng = np.random.default_rng(77)
    n = 5
    edges = [
        {"from": k + 1, "to": (k + 1) % n + 1, "length": float(rng.uniform(0.4, 1.3))}
        for k in range(n)
    ]
    edges.append({"from": 1, "to": 1, "length": float(rng.uniform(0.4, 1.3))})
    for _ in range(6):
        edges.append(
            {
                "from": int(rng.integers(1, n + 1)),
                "to": int(rng.integers(1, n + 1)),
                "length": float(rng.uniform(0.4, 1.3)),
            }
        )
    g = build_graph({"vertices": n, "edges": edges})
    f = MatrixFunction(g, Mode.COUNTING)
    sol = solve_lambda(f)
    assert sol.residual <= 1e-12
    s = sol.lam + 1.0
    resolvent = np.linalg.inv(np.eye(n) - f.evaluate(s))
    horizon = 14.0
    for j in (1, 3, 5):
        series = truncated_laplace_sum(g, 2, j, s, max_length=horizon)
        # Tail bound: geometric with rate (s - lam) past the horizon.
        assert abs(series - resolvent[1, j - 1]) <= 10 * math.exp(-horizon)
    # Counts grow at the predicted exponential rate.
    c1 = count_paths_exact(g, 1, 1, 10.0)
    c2 = count_paths_exact(g, 1, 1, 13.0)
    implied = math.log(c2 / c1) / 3.0
    assert implied == pytest.approx(sol.lam, rel=0.05)


def test_truncated_sum_weighted_matches_probability_resolvent(two_vertex_stochastic):
    f = MatrixFunction(two_vertex_stochastic, Mode.PROBABILITY)
    resolvent = np.linalg.inv(np.eye(2) - f.evaluate(1.0))
    got = truncated_laplace_sum(
        two_vertex_stochastic, 1, 2, 1.0, max_length=18.0, weighted=True
    )
    assert got == pytest.approx(resolvent[0, 1], rel=1e-6)


# -- query grids ------------------------------------------------------------------


def _grid_graphs():
    """The lattice two-vertex graph (many merged classes) and random ring graphs."""
    graphs = [build_graph(two_vertex_spec(probability=0.45))]
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        edges = [
            {"from": v, "to": t, "length": float(rng.uniform(0.5, 2.0)), "probability": 0.3}
            for v in range(1, n + 1)
            for t in [v % n + 1] + [int(t) + 1 for t in rng.integers(0, n, 2)]
        ]
        graphs.append(build_graph({"vertices": n, "edges": edges}))
    return graphs


GRID_FAMILIES = {
    "A": lambda g, x, **kw: count_paths_exact(g, 1, 2, x, **kw),
    "B": lambda g, x, **kw: count_edge_hits_exact(g, 1, 1, x, **kw),
    "C": lambda g, x, **kw: vertex_probability_atoms(g, 1, 1, x, window=0.4, **kw),
    "C0": lambda g, x, **kw: vertex_probability_atoms(g, 1, 2, x, **kw),
    "D": lambda g, x, **kw: edge_probability_exact(g, 1, 2, x, **kw),
    "survival": lambda g, x, **kw: survival_exact(g, 1, x, **kw),
}


@pytest.mark.parametrize("family", sorted(GRID_FAMILIES))
def test_grid_equals_pointwise_calls(family):
    exact = GRID_FAMILIES[family]
    rng = np.random.default_rng(5)
    for g in _grid_graphs():
        top = 13.0 if g.vertex_count == 2 else 7.0
        grid = [float(v) for v in rng.uniform(-1.0, top, 9)] + [0.0, top / 2]
        grid.append(grid[3])  # a repeated point
        got = exact(g, grid)
        want = [exact(g, x) for x in grid]
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("family", sorted(GRID_FAMILIES))
def test_grid_keeps_input_order_and_is_zero_below_start(family):
    exact = GRID_FAMILIES[family]
    g = build_graph(two_vertex_spec(probability=0.45))
    grid = [7.5, -2.0, 3.1, -0.5, 5.2, 0.0]
    got = exact(g, grid)
    assert got[1] == got[3] == 0 and type(got[1]) is type(exact(g, -2.0))
    ascending = exact(g, sorted(grid))
    assert got == [ascending[sorted(grid).index(x)] for x in grid]
    assert exact(g, tuple(grid)) == exact(g, np.array(grid)) == got
    assert exact(g, []) == [] and exact(g, [-1.0, -3.0]) == [0, 0]


@pytest.mark.parametrize("family", sorted(GRID_FAMILIES))
def test_grid_overflows_exactly_as_its_largest_point(family):
    exact = GRID_FAMILIES[family]
    g = build_graph(two_vertex_spec(probability=0.45))
    with pytest.raises(BudgetOverflow) as alone:
        exact(g, 12.0, max_paths=50)
    with pytest.raises(BudgetOverflow) as grid:
        exact(g, [1.0, 12.0, 3.0], max_paths=50)
    assert grid.value.args == alone.value.args
    assert exact(g, [1.0, 2.5], max_paths=50) == [exact(g, 1.0), exact(g, 2.5)]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "A", "--from", "1", "--to", "2"],
        ["count", "--family", "B", "--from", "1", "--edge", "gamma2"],
        ["prob", "--family", "C", "--from", "1", "--to", "2", "--window", "0.5"],
        ["prob", "--family", "D", "--from", "1", "--edge", "beta"],
        ["prob", "--family", "survival", "--from", "1"],
    ],
    ids=lambda argv: argv[2],
)
def test_cli_grid_query_expands_once(argv, tmp_path, monkeypatch, capsys):
    calls = []
    expand = oracle._expand_classes

    def counted(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(oracle, "_expand_classes", counted)
    path = tmp_path / "two_vertex.json"
    path.write_text(json.dumps(two_vertex_spec(probability=0.45)))
    flag = "--x" if argv[0] == "count" else "--T"
    assert run([argv[0], str(path), *argv[1:], flag, "9.1,2.2,5.15,12.8,3.6,7.4,11.05,1.1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert len(calls) == 1
