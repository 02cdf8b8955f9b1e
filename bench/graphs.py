"""Seeded input generators: random ring graphs, the two-vertex example, rules.

Every generator takes a ``numpy.random.Generator`` so that one workload seed
fixes every input.  Graphs are plain JSON-ready dicts in the schema the
``orbitcount`` command reads; the benchmark's reference checks work from the
same dicts, never from the program's parsed objects.
"""

from __future__ import annotations

import math

import numpy as np

EXTRA_OUT_EDGES = 2
LENGTH_RANGE = (0.5, 2.0)


def ring_graph(rng: np.random.Generator, n: int, p: float | None = None) -> dict:
    """Ring 1 -> 2 -> ... -> n -> 1 plus 2 random out-edges per vertex.

    Lengths are drawn from U[0.5, 2]; targets of the extra edges are uniform
    over all vertices (loops and parallel edges allowed).  With ``p`` given,
    each vertex splits mass ``p`` evenly over its out-edges, so ``p = 1`` is
    stochastic and ``p < 1`` leaks mass ``1 - p`` at every vertex.
    """
    edges = []
    for v in range(1, n + 1):
        targets = [v % n + 1] + [int(t) + 1 for t in rng.integers(0, n, EXTRA_OUT_EDGES)]
        for t in targets:
            edge = {"from": v, "to": t, "length": float(rng.uniform(*LENGTH_RANGE))}
            if p is not None:
                edge["probability"] = p / len(targets)
            edges.append(edge)
    return {"vertices": n, "edges": edges}


# The paper's two-vertex example.  Every length is log 2^a 3^b, so path
# lengths live on the lattice a log 2 + b log 3 and many paths share a class.
TWO_VERTEX_EDGES = (
    # (from, to, log_of, exponent of 2, exponent of 3, name)
    (1, 1, 2, 1, 0, "alpha"),
    (1, 2, 2, 1, 0, "beta"),
    (2, 1, 1.5, -1, 1, "gamma1"),
    (2, 1, 3, 0, 1, "gamma2"),
)


def two_vertex_graph(p: float | None = None) -> dict:
    edges = []
    for src, dst, base, _, _, name in TWO_VERTEX_EDGES:
        edge = {"from": src, "to": dst, "length": {"log_of": base}, "name": name}
        if p is not None:
            edge["probability"] = p / 2
        edges.append(edge)
    return {"vertices": 2, "edges": edges}


def edge_length(edge: dict) -> float:
    """Length of one edge dict, as the program's graph reader computes it."""
    raw = edge["length"]
    if isinstance(raw, dict):
        return math.log(float(raw["log_of"]))
    return float(raw)


def split_rule(rng: np.random.Generator) -> dict:
    """A two-prototile, one-dimensional, volume-conserving substitution rule."""
    a = round(float(rng.uniform(0.2, 0.6)), 6)
    b = round(float(rng.uniform(0.15, 0.4)), 6)
    c = round(float(rng.uniform(0.15, 0.4)), 6)
    return {
        "dimension": 1,
        "prototiles": [
            {"children": [{"type": 1, "scale": a}, {"type": 2, "scale": 1 - a}]},
            {
                "children": [
                    {"type": 1, "scale": b},
                    {"type": 2, "scale": c},
                    {"type": 1, "scale": 1 - b - c},
                ]
            },
        ],
    }
