"""Shared fixtures: the canonical two-vertex example and small loop graphs."""

import random

import numpy as np
import pytest

from orbitcount import build_graph, walker


def two_vertex_spec(probability=None):
    def edge(src, dst, log_of, name):
        item = {"from": src, "to": dst, "length": {"log_of": log_of}, "name": name}
        if probability is not None:
            item["probability"] = probability
        return item

    return {
        "vertices": 2,
        "edges": [
            edge(1, 1, 2, "alpha"),
            edge(1, 2, 2, "beta"),
            edge(2, 1, 1.5, "gamma1"),
            edge(2, 1, 3, "gamma2"),
        ],
    }


def ring_spec(seed, n, p):
    """Ring 1 -> 2 -> ... -> n -> 1 plus two seeded random out-edges per vertex.

    Loops and parallel edges are allowed; lengths are U[0.5, 2] rounded to
    six decimals, and each vertex splits mass ``p`` evenly over its three
    out-edges.  ``random.random`` is reproducible for a given integer seed,
    so the spec is fixed.
    """
    rng = random.Random(seed)
    edges = []
    for v in range(1, n + 1):
        targets = [v % n + 1] + [int(rng.random() * n) + 1 for _ in range(2)]
        for t in targets:
            length = round(0.5 + 1.5 * rng.random(), 6)
            edges.append({"from": v, "to": t, "length": length, "probability": p / 3})
    return {"vertices": n, "edges": edges}


def cofactor_adjugate(a):
    """Transpose of the cofactor matrix, one determinant per minor: O(n^5).

    The literal definition, kept as the oracle for the library's adjugate.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=a.dtype)
    out = np.empty_like(a)
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = a[np.ix_(rows != i, rows != j)]
            out[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def loop_ensemble_outcomes(g, start, horizon, n, seed):
    """The walk ensemble stepped with a Python loop over the vertices.

    The literal per-vertex kernel, kept as the oracle for the library's
    padded-table step: same Philox stream, draw budget and batching, and the
    same (status, edge_id, vertex, time) arrays batch by batch.
    """
    tables = {}
    for v in range(1, g.vertex_count + 1):
        edges = g.out_edges(v)
        cum = np.cumsum([e.probability for e in edges]) if edges else np.zeros(0)
        if len(cum) and abs(cum[-1] - 1.0) <= walker.STOCHASTIC_SLACK:
            cum[-1] = 1.0
        tables[v] = (
            cum,
            np.array([e.length for e in edges]),
            np.array([e.target for e in edges], dtype=np.int64),
            np.array([e.id for e in edges], dtype=np.int64),
        )
    k_draws = walker._draw_budget(g, horizon)
    batch = max(1, walker._BATCH_DRAWS // k_draws)
    rng = np.random.Generator(np.random.Philox(seed))
    done = 0
    while done < n:
        size = min(batch, n - done)
        uniforms = rng.random((size, k_draws))
        vertex = np.full(size, start, dtype=np.int64)
        t = np.zeros(size)
        status = np.full(size, -1, dtype=np.int8)  # -1 while walking
        edge_id = np.full(size, -1, dtype=np.int64)
        for step in range(k_draws):
            walking = status == -1
            if not walking.any():
                break
            at_horizon = walking & (t == horizon)
            status[at_horizon] = 0
            walking &= ~at_horizon
            # Snapshot the positions so each walker takes exactly one
            # decision per step, even after moving to a not-yet-visited vertex.
            positions = np.where(walking, vertex, -1)
            for v, (cum, lengths, targets, ids) in tables.items():
                idx = np.where(positions == v)[0]
                if idx.size == 0:
                    continue
                choice = np.searchsorted(cum, uniforms[idx, step], side="right")
                exits = choice == len(cum)
                status[idx[exits]] = 2
                moves = idx[~exits]
                picked = choice[~exits]
                arrival = t[moves] + lengths[picked]
                onto = arrival > horizon
                stopped = moves[onto]
                status[stopped] = 1
                edge_id[stopped] = ids[picked[onto]]
                go = moves[~onto]
                vertex[go] = targets[picked[~onto]]
                t[go] = arrival[~onto]
        leftover = status == -1
        if leftover.any() and bool((t[leftover] < horizon).any()):
            raise AssertionError("draw budget exhausted; walk logic violated its bound")
        status[leftover] = 0  # walkers sitting at a vertex exactly at T
        yield status, edge_id, vertex, t
        done += size


def assert_matches_loop_kernel(g, start, horizon, n, seed):
    """Assert the library's ensemble equals the loop reference, batch by batch.

    Every array must match bit for bit and in dtype; returns the statuses.
    """
    got = list(walker._ensemble_outcomes(g, start, horizon, n, seed))
    want = list(loop_ensemble_outcomes(g, start, horizon, n, seed))
    assert len(got) == len(want)
    for batch, expected in zip(got, want):
        for a, b in zip(batch, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    return np.concatenate([batch[0] for batch in got])


@pytest.fixture
def two_vertex():
    """Two vertices, four edges alpha/beta/gamma1/gamma2 with log-lengths."""
    return build_graph(two_vertex_spec())


@pytest.fixture
def two_vertex_stochastic():
    """Same graph with every transition probability 1/2 (right stochastic)."""
    return build_graph(two_vertex_spec(probability=0.5))


@pytest.fixture
def unit_loop():
    """Single vertex, one loop of length 1, probability 1 (walker never leaves)."""
    return build_graph(
        {"vertices": 1, "edges": [{"from": 1, "to": 1, "length": 1.0, "probability": 1.0}]}
    )


@pytest.fixture
def half_loop():
    """Single vertex, one loop of length 1, probability 1/2 (sub-stochastic)."""
    return build_graph(
        {"vertices": 1, "edges": [{"from": 1, "to": 1, "length": 1.0, "probability": 0.5}]}
    )


@pytest.fixture
def two_loops():
    """Single vertex with integer loops of lengths 1 and 2."""
    return build_graph(
        {
            "vertices": 1,
            "edges": [
                {"from": 1, "to": 1, "length": 1.0},
                {"from": 1, "to": 1, "length": 2.0},
            ],
        }
    )
