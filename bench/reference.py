"""Reference answers computed without the program under test.

Each function here re-derives one of the program's outputs by a different
algorithm, from the benchmark's own graph dicts:

- ``matrix`` / ``critical_exponent`` / ``rank_one_q``: dense ``M(s)`` and a
  bisection on the spectral radius from ``numpy.linalg.eigvals``; ``Q`` as
  ``v u^T / (-u^T M'(lambda) v)`` from a plain eigendecomposition.
- ``path_table``: every path from a start vertex up to a horizon, expanded
  breadth-first by edge count, with equal lengths at the same vertex merged
  (the program expands best-first by length).  On the two-vertex example
  paths are aggregated on the exact lattice ``a log 2 + b log 3`` instead,
  so counts up to ~1e10 paths stay cheap.
- ``kakutani_intervals``: the longest-interval splitting sequence with a
  heap keyed ``(-length, left)`` (the program rescans a list).
- ``threshold_intervals``: the threshold partition by recursive splitting.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from graphs import TWO_VERTEX_EDGES, edge_length

LOG2, LOG3 = math.log(2.0), math.log(3.0)


# -- spectral ----------------------------------------------------------------------


def matrix(spec: dict, mode: str, s: float, derivative: bool = False) -> np.ndarray:
    """M(s) (or M'(s)) in counting, probability or edge mode."""
    edges = spec["edges"]
    lengths = [edge_length(e) for e in edges]

    def term(k, weight):
        value = weight * math.exp(-s * lengths[k])
        return -lengths[k] * value if derivative else value

    if mode == "edge":
        m = np.zeros((len(edges), len(edges)))
        for a, alpha in enumerate(edges):
            for b, beta in enumerate(edges):
                if beta["from"] == alpha["to"]:
                    m[b, a] += term(a, beta["probability"])
        return m
    m = np.zeros((spec["vertices"], spec["vertices"]))
    for k, e in enumerate(edges):
        weight = 1.0 if mode == "counting" else e["probability"]
        m[e["from"] - 1, e["to"] - 1] += term(k, weight)
    return m


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def critical_exponent(spec: dict, mode: str) -> float:
    """The real s with spectral radius of M(s) equal to 1, by bisection."""

    def excess(s):
        return spectral_radius(matrix(spec, mode, s)) - 1.0

    if abs(excess(0.0)) <= 1e-13:
        return 0.0
    step = 1.0 if excess(0.0) > 0 else -1.0
    lo, hi = 0.0, step
    while (excess(hi) > 0) == (step > 0):
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (excess(mid) > 0) == (step > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _perron_vector(m: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(m)
    v = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    return v / v.sum()


def rank_one_q(spec: dict, mode: str, lam: float) -> np.ndarray:
    """Q = v u^T / (-u^T M'(lam) v) from numpy's eigenvectors at eigenvalue 1."""
    m = matrix(spec, mode, lam)
    v = _perron_vector(m)
    u = _perron_vector(m.T)
    return np.outer(v, u) / -(u @ matrix(spec, mode, lam, derivative=True) @ v)


# -- path tables -------------------------------------------------------------------


@dataclass(frozen=True)
class PathTable:
    """Paths from one start vertex up to a horizon, possibly aggregated.

    Row r stands for ``count[r]`` paths ending at ``vertex[r]`` (1-based),
    all of length ``length[r]`` and of total probability ``mass[r]``.
    """

    spec: dict
    vertex: np.ndarray
    length: np.ndarray
    count: np.ndarray
    mass: np.ndarray

    def out_edges(self):
        """(source, length, probability) of every edge."""
        return [
            (e["from"], edge_length(e), e.get("probability")) for e in self.spec["edges"]
        ]

    def distance_to_critical(self, t: float, window: float = 0.0) -> float:
        """Distance from ``t`` to the nearest time at which some answer below
        is discontinuous: a path length, a path length plus ``window``, or a
        path length plus the length of an edge leaving the path's end."""
        nearest = min(float(np.abs(self.length - t).min()),
                      float(np.abs(self.length + window - t).min()))
        for source, length, _ in self.out_edges():
            ends = self.length[self.vertex == source]
            if ends.size:
                nearest = min(nearest, float(np.abs(ends + length - t).min()))
        return nearest

    def count_paths(self, j: int, x: float) -> int:
        return int(self.count[(self.vertex == j) & (self.length <= x)].sum())

    def count_edge_hits(self, edge: int, x: float) -> int:
        source, length, _ = self.out_edges()[edge]
        sel = (self.vertex == source) & (self.length <= x) & (x < self.length + length)
        return int(self.count[sel].sum())

    def vertex_probability(self, j: int, t: float, window: float) -> float:
        sel = (self.vertex == j) & (self.length <= t) & (self.length >= t - window)
        return float(self.mass[sel].sum())

    def edge_probability(self, edge: int, t: float) -> float:
        source, length, p = self.out_edges()[edge]
        sel = (self.vertex == source) & (self.length <= t) & (t < self.length + length)
        return float(self.mass[sel].sum()) * p

    def survival(self, t: float) -> float:
        total = 0.0
        for source, length, p in self.out_edges():
            sel = (self.vertex == source) & (self.length <= t) & (t < self.length + length)
            total += float(self.mass[sel].sum()) * p
        return total


def path_table(spec: dict, start: int, horizon: float) -> PathTable:
    """Every path from ``start`` of length <= horizon, expanded by edge count.

    Lengths and masses accumulate edge by edge from the start, in the order
    a walk traverses them.  After each step, rows that end at the same vertex
    with lengths equal to within ~2e-10 are merged (counts and masses add):
    reorderings of the same edges have the same length, and without the
    merge the table would grow like the path count, not the class count.
    """
    edges = [(e["from"], e["to"], edge_length(e), e.get("probability", 1.0))
             for e in spec["edges"]]
    stride = spec["vertices"] + 1
    vertex, length = np.array([start]), np.array([0.0])
    count, mass = np.array([1], dtype=np.int64), np.array([1.0])
    parts = []
    while vertex.size:
        parts.append((vertex, length, count, mass))
        grown = []
        for source, target, l, p in edges:
            sel = vertex == source
            ext = length[sel] + l
            keep = ext <= horizon
            grown.append((np.full(int(keep.sum()), target), ext[keep],
                          count[sel][keep], mass[sel][keep] * p))
        vertex, length, count, mass = (np.concatenate(col) for col in zip(*grown))
        if not vertex.size:
            break
        key = np.round(length * 2.0**32).astype(np.int64) * stride + vertex
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        vertex, length = vertex[order][heads], length[order][heads]
        count = np.add.reduceat(count[order], heads)
        mass = np.add.reduceat(mass[order], heads)
    vertex, length, count, mass = (np.concatenate(col) for col in zip(*parts))
    return PathTable(spec, vertex, length, count, mass)


def two_vertex_table(spec: dict, start: int, horizon: float) -> PathTable:
    """Paths on the two-vertex example, aggregated by exact lattice class.

    A class is (end vertex, exponent of 2, exponent of 3, edge count); its
    length is e2 log 2 + e3 log 3 and each of its paths has probability
    p^edges when every edge carries the same probability p.
    """
    exps = [(src, dst, a, b) for src, dst, _, a, b, _ in TWO_VERTEX_EDGES]
    probs = {e.get("probability", 1.0) for e in spec["edges"]}
    if len(probs) != 1:
        raise ValueError("lattice reference needs one probability on every edge")
    p = probs.pop()
    frontier = {(start, 0, 0, 0): 1}
    rows = []
    while frontier:
        rows.extend(frontier.items())
        nxt: dict[tuple, int] = {}
        for (v, a, b, k), cnt in frontier.items():
            for src, dst, da, db in exps:
                if src == v and (a + da) * LOG2 + (b + db) * LOG3 <= horizon:
                    key = (dst, a + da, b + db, k + 1)
                    nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
    vertex = np.array([key[0] for key, _ in rows])
    length = np.array([key[1] * LOG2 + key[2] * LOG3 for key, _ in rows])
    count = np.array([cnt for _, cnt in rows], dtype=np.int64)
    mass = np.array([cnt * p ** key[3] for key, cnt in rows])
    return PathTable(spec, vertex, length, count, mass)


# -- splitting ---------------------------------------------------------------------


def kakutani_intervals(alpha: float, n: int) -> list[tuple[float, float]]:
    """(left, length) after n splits of the longest interval, leftmost on ties."""
    scales = (alpha, 1.0 - alpha)
    heap = [(-1.0, 0.0)]
    for _ in range(n):
        neg, left = heapq.heappop(heap)
        for scale in scales:
            size = -neg * scale
            heapq.heappush(heap, (-size, left))
            left += size
    return sorted((left, -neg) for neg, left in heap)


def threshold_intervals(alpha: float, x: float) -> list[tuple[float, float]]:
    """(left, length) after splitting every interval longer than e^(-x)."""
    cutoff = math.exp(-x)
    out = []

    def split(left, length):
        if length <= cutoff:
            out.append((left, length))
            return
        for scale in (alpha, 1.0 - alpha):
            size = length * scale
            split(left, size)
            left += size

    split(0.0, 1.0)
    return out


def threshold_is_ambiguous(alpha: float, x: float) -> bool:
    """True when some interval met while splitting is within 1e-9 of e^(-x)."""
    cutoff = math.exp(-x)
    stack = [1.0]
    while stack:
        length = stack.pop()
        if abs(length / cutoff - 1.0) < 1e-9:
            return True
        if length > cutoff:
            stack.extend(length * scale for scale in (alpha, 1.0 - alpha))
    return False


def discrepancy(intervals: list[tuple[float, float]]) -> float:
    """Star discrepancy of the right endpoints against the uniform law."""
    points = np.sort(np.array([left + length for left, length in intervals]))
    k = len(points)
    return float(
        np.max(np.maximum(np.arange(1, k + 1) / k - points, points - np.arange(0, k) / k))
    )
