"""Exact brute-force counting and probability masses, the library's ground truth.

Two expansion engines share the same best-first (smallest length first)
discipline:

- :func:`enumerate_paths` streams every individual finite path as a
  :class:`PathAtom`, exactly once, in non-decreasing length order.  Its cost
  is proportional to the number of paths, which grows exponentially in the
  horizon.
- The counting and probability operations below instead expand *length
  classes*: all paths sharing a terminal vertex and (up to float noise) the
  same exact length are carried as one heap entry with an integer path count
  and an aggregated probability mass.  Future extensions of a path depend
  only on its terminal vertex, so the aggregation is lossless, and horizons
  far beyond per-atom reach stay exact (counts are arbitrary-precision
  integers).

Length comparisons against the half-open windows [l(gamma), l(gamma)+l(alpha))
use plain <= and < with no epsilon fudge; callers should choose query points
away from atom boundaries.

Every counting and probability operation takes one query point or a grid of
them.  A grid is answered from a single expansion up to its largest point:
each point sums the same classes, in the same order, as an expansion up to
that point alone, so the answers are bit-identical to one call per point.
The one exception is a point within ``MERGE_TOLERANCE`` of a path length,
where a merge bucket may straddle the point; such points are excluded above
anyway.  The budget counts the classes of that single expansion, so a grid
overflows exactly when its largest point does.
"""

from __future__ import annotations

import cmath
import heapq
import math
import numbers
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count as _counter

from .errors import BudgetOverflow, MissingProbabilities, ValidationError
from .graph import WeightedDigraph

DEFAULT_MAX_PATHS = 50_000_000

# Classes closer than this are merged (same true length, differing by float
# noise from different summation orders).  Kept far below any realistic edge
# length and far above accumulated rounding of desk-scale horizons.
MERGE_TOLERANCE = 1e-9

# One query point, or a grid of them (answered from one expansion).
Points = float | Sequence[float]


@dataclass(frozen=True)
class PathAtom:
    """One finite path: where it ends, its exact length and weight."""

    terminal_vertex: int
    length: float
    probability: float
    edge_count: int


@dataclass
class EnumerationBudget:
    """Horizon and safety cap for one enumeration.

    ``overflow`` is set (and :class:`BudgetOverflow` raised) when the cap is
    reached, so truncated results are flagged rather than silently wrong.
    The cap counts emitted atoms for :func:`enumerate_paths` and emitted
    length classes for the aggregated operations.
    """

    max_length: float
    max_paths: int = DEFAULT_MAX_PATHS
    overflow: bool = False


def enumerate_paths(g: WeightedDigraph, start: int, budget: EnumerationBudget):
    """Yield every path from ``start`` of length <= budget.max_length.

    Includes the empty path (length 0, zero edges) at ``start``; emission is
    best-first, so lengths are non-decreasing and truncation at the horizon
    is exact.  Paths on an unannotated graph carry probability 1.
    """
    g.out_edges(start)  # index check
    seq = _counter()
    heap = []
    if budget.max_length >= 0.0:
        heap.append((0.0, next(seq), start, 1.0, 0))
    emitted = 0
    while heap:
        length, _, vertex, prob, edges = heapq.heappop(heap)
        emitted += 1
        if emitted > budget.max_paths:
            budget.overflow = True
            raise BudgetOverflow(emitted)
        yield PathAtom(
            terminal_vertex=vertex, length=length, probability=prob, edge_count=edges
        )
        for e in g.out_edges(vertex):
            ext = length + e.length
            if ext <= budget.max_length:
                p = prob if e.probability is None else prob * e.probability
                heapq.heappush(heap, (ext, next(seq), e.target, p, edges + 1))


def _expand_classes(g: WeightedDigraph, start: int, budget: EnumerationBudget):
    """Yield (length, vertex, path_count, probability_mass) classes, best-first.

    Heap entries with the same terminal vertex whose lengths differ by less
    than the merge tolerance are coalesced before emission.
    """
    g.out_edges(start)
    tol = min(MERGE_TOLERANCE, g.min_edge_length() / 4.0)
    heap = []
    if budget.max_length >= 0.0:
        heap.append((0.0, start, 1, 1.0))
    emitted = 0
    while heap:
        head = heap[0][0]
        bucket: dict[int, list] = {}
        while heap and heap[0][0] <= head + tol:
            length, vertex, cnt, mass = heapq.heappop(heap)
            slot = bucket.get(vertex)
            if slot is None:
                bucket[vertex] = [length, cnt, mass]
            else:
                slot[1] += cnt
                slot[2] += mass
        for vertex in sorted(bucket):
            length, cnt, mass = bucket[vertex]
            emitted += 1
            if emitted > budget.max_paths:
                budget.overflow = True
                raise BudgetOverflow(emitted)
            yield length, vertex, cnt, mass
            for e in g.out_edges(vertex):
                ext = length + e.length
                if ext <= budget.max_length:
                    m = mass if e.probability is None else mass * e.probability
                    heapq.heappush(heap, (ext, e.target, cnt, m))


def _sweep(g: WeightedDigraph, start: int, x, max_paths: int, terms, zero=0, scale=None):
    """Sum class weights at every point of ``x`` from one expansion.

    The classes are expanded once, up to the largest point.  ``terms(grid,
    length, vertex, cnt, mass)`` lists the (weight, stop) pairs of one class:
    the weight goes to the sorted grid points >= length below index ``stop``,
    the number of points that pass the family's window test.  That test
    holds on a prefix of the grid; ``bisect_left(grid, end)`` counts the
    points with t < end by that very float comparison.  Each point adds its
    weights in emission order, as an expansion up to that point alone would;
    each finished sum is multiplied by ``scale`` if given.  A number ``x``
    gives a number, a sequence a list in its own order; negative points give
    ``zero``.
    """
    scalar = isinstance(x, numbers.Real)
    points = [x] if scalar else list(x)
    order = sorted(range(len(points)), key=points.__getitem__)
    grid = [points[k] for k in order]
    sums = [zero] * len(grid)
    if grid and grid[-1] >= 0.0:
        budget = EnumerationBudget(max_length=grid[-1], max_paths=max_paths)
        for length, vertex, cnt, mass in _expand_classes(g, start, budget):
            first = bisect_left(grid, length)
            for weight, stop in terms(grid, length, vertex, cnt, mass):
                for k in range(first, stop):
                    sums[k] += weight
    totals = [zero] * len(grid)
    for k, total in zip(order, sums):
        totals[k] = total if scale is None else total * scale
    return totals[0] if scalar else totals


def _require_probabilities(g: WeightedDigraph):
    if not g.has_probabilities:
        raise MissingProbabilities("operation needs a probability-annotated graph")


def count_paths_exact(
    g: WeightedDigraph, i: int, j: int, x: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> int | list[int]:
    """Number of paths from i to j of length at most x (empty path included)."""

    def terms(grid, length, vertex, cnt, mass):
        return ((cnt, len(grid)),) if vertex == j else ()

    return _sweep(g, i, x, max_paths, terms)


def count_edge_hits_exact(
    g: WeightedDigraph, i: int, edge_ref, x: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> int | list[int]:
    """Number of paths of length exactly x from i to a point on the edge.

    Counts paths gamma ending at the edge's origin with
    l(gamma) <= x < l(gamma) + l(edge).
    """
    alpha = g.edge(edge_ref)

    def terms(grid, length, vertex, cnt, mass):
        if vertex != alpha.source:
            return ()
        return ((cnt, bisect_left(grid, length + alpha.length)),)

    return _sweep(g, i, x, max_paths, terms)


def vertex_probability_atoms(
    g: WeightedDigraph,
    i: int,
    j: int,
    time: Points,
    window: float = 0.0,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> float | list[float]:
    """Probability mass of being exactly at vertex j during [time-window, time].

    The at-vertex occupation is purely atomic (a sum of point masses at path
    lengths); ``window=0`` returns the single-time atom mass.
    """
    _require_probabilities(g)
    if window < 0.0:
        raise ValidationError("window must be >= 0")

    def terms(grid, length, vertex, cnt, mass):
        if vertex != j:
            return ()
        # Tested as written: t <= length + window can differ in floats.
        stop = 0
        while stop < len(grid) and length >= grid[stop] - window:
            stop += 1
        return ((mass, stop),)

    return _sweep(g, i, time, max_paths, terms, 0.0)


def edge_probability_exact(
    g: WeightedDigraph, i: int, edge_ref, time: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> float | list[float]:
    """Probability that the walker from i is on the given edge at ``time``."""
    _require_probabilities(g)
    alpha = g.edge(edge_ref)

    def terms(grid, length, vertex, cnt, mass):
        if vertex != alpha.source:
            return ()
        return ((mass, bisect_left(grid, length + alpha.length)),)

    return _sweep(g, i, time, max_paths, terms, 0.0, scale=alpha.probability)


def survival_exact(
    g: WeightedDigraph, i: int, time: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> float | list[float]:
    """Probability that the walker from i is still on some edge at ``time``.

    Equals the sum of :func:`edge_probability_exact` over all edges, computed
    in a single expansion.  At times where the walker sits exactly at a
    vertex, the mass of walkers choosing to leave the graph right then is not
    on any edge, so for sub-stochastic graphs this is the on-edge mass, not
    the not-yet-exited mass.
    """
    _require_probabilities(g)
    exits = {
        v: [(e.probability, e.length) for e in g.out_edges(v)]
        for v in range(1, g.vertex_count + 1)
    }

    def terms(grid, length, vertex, cnt, mass):
        return [(mass * p, bisect_left(grid, length + l)) for p, l in exits[vertex]]

    return _sweep(g, i, time, max_paths, terms, 0.0)


def truncated_laplace_sum(
    g: WeightedDigraph,
    i: int,
    j: int,
    s,
    max_length: float,
    max_paths: int = DEFAULT_MAX_PATHS,
    weighted: bool = False,
):
    """Sum of e^(-s*l(gamma)) over paths i -> j with l(gamma) <= max_length.

    With ``weighted=True`` each term carries the path probability.  As the
    horizon grows this converges, for Re(s) above the critical exponent, to
    the (i, j) resolvent entry adj(I - M(s))_ij / det(I - M(s)); the tail is
    geometrically small in the horizon.
    """
    exp, zero = (cmath.exp, 0.0j) if isinstance(s, complex) else (math.exp, 0.0)

    def terms(grid, length, vertex, cnt, mass):
        if vertex != j:
            return ()
        return (((mass if weighted else cnt) * exp(-s * length), len(grid)),)

    return _sweep(g, i, max_length, max_paths, terms, zero)
