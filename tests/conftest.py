"""Shared fixtures: the canonical two-vertex example and small loop graphs."""

import random

import numpy as np
import pytest

from orbitcount import build_graph


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
