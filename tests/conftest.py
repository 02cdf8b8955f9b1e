"""Shared fixtures and references.

Fixtures: the canonical two-vertex example and small loop graphs.  References
kept as oracles for the library's faster routes: the cofactor adjugate, the
per-vertex walk loop, the path-by-path enumeration, the best-first heap over
length-class rows with the per-class grid sweep of every count/prob family,
the recursive cycle DFS with the incommensurability scan over its full
sorted list, and the heap and stack that split intervals one at a time.
"""

import bisect
import cmath
import heapq
import itertools
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np
import pytest

from orbitcount import build_graph, graph, oracle, walker


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


@dataclass(frozen=True)
class PathAtom:
    """One finite path: where it ends, its exact length and weight."""

    terminal_vertex: int
    length: float
    probability: float
    edge_count: int


def enumerate_paths(g, start, budget):
    """Yield every path from ``start`` of length <= budget.max_length.

    The literal path-by-path enumeration, kept as the oracle for the
    library's length classes: includes the empty path (length 0, zero edges)
    at ``start``; emission is best-first, so lengths are non-decreasing and
    truncation at the horizon is exact.  Paths on an unannotated graph carry
    probability 1.  The budget caps the number of emitted paths.
    """
    g.out_edges(start)  # index check
    seq = itertools.count()
    heap = []
    if budget.max_length >= 0.0:
        heap.append((0.0, next(seq), start, 1.0, 0))
    emitted = 0
    while heap:
        length, _, vertex, prob, edges = heapq.heappop(heap)
        emitted += 1
        if emitted > budget.max_paths:
            budget.overflow = True
            raise oracle.BudgetOverflow(emitted)
        yield PathAtom(
            terminal_vertex=vertex, length=length, probability=prob, edge_count=edges
        )
        for e in g.out_edges(vertex):
            ext = length + e.length
            if ext <= budget.max_length:
                p = prob if e.probability is None else prob * e.probability
                heapq.heappush(heap, (ext, next(seq), e.target, p, edges + 1))


def heap_expand_classes(g, start, budget):
    """Yield (length, vertex, path_count, probability_mass) classes, best-first.

    The literal heap over rows, kept as the oracle for the library's banded
    expansion: heap entries with the same terminal vertex whose lengths lie
    within the merge tolerance of the bucket head are coalesced before
    emission, one class per vertex in vertex order.
    """
    g.out_edges(start)
    tol = min(oracle.MERGE_TOLERANCE, g.min_edge_length() / 4.0)
    heap = []
    if budget.max_length >= 0.0:
        heap.append((0.0, start, 1, 1.0))
    emitted = 0
    while heap:
        head = heap[0][0]
        bucket = {}
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
                raise oracle.BudgetOverflow(emitted)
            yield length, vertex, cnt, mass
            for e in g.out_edges(vertex):
                ext = length + e.length
                if ext <= budget.max_length:
                    m = mass if e.probability is None else mass * e.probability
                    heapq.heappush(heap, (ext, e.target, cnt, m))


def _heap_sweep(g, start, x, max_paths, terms, zero=0, scale=None):
    """Sum class weights at every point of ``x``, one heap class at a time.

    ``terms(grid, length, vertex, cnt, mass)`` lists the (weight, stop) pairs
    of one class: the weight goes to the sorted grid points >= length below
    index ``stop``, in emission order.
    """
    scalar = isinstance(x, numbers.Real)
    points = [x] if scalar else list(x)
    order = sorted(range(len(points)), key=points.__getitem__)
    grid = [points[k] for k in order]
    sums = [zero] * len(grid)
    if grid and grid[-1] >= 0.0:
        budget = oracle.EnumerationBudget(max_length=grid[-1], max_paths=max_paths)
        for length, vertex, cnt, mass in heap_expand_classes(g, start, budget):
            first = bisect.bisect_left(grid, length)
            for weight, stop in terms(grid, length, vertex, cnt, mass):
                for k in range(first, stop):
                    sums[k] += weight
    totals = [zero] * len(grid)
    for k, total in zip(order, sums):
        totals[k] = total if scale is None else total * scale
    return totals[0] if scalar else totals


def heap_count_paths(g, i, j, x, max_paths=oracle.DEFAULT_MAX_PATHS):
    def terms(grid, length, vertex, cnt, mass):
        return ((cnt, len(grid)),) if vertex == j else ()

    return _heap_sweep(g, i, x, max_paths, terms)


def heap_count_edge_hits(g, i, edge_ref, x, max_paths=oracle.DEFAULT_MAX_PATHS):
    alpha = g.edge(edge_ref)

    def terms(grid, length, vertex, cnt, mass):
        if vertex != alpha.source:
            return ()
        return ((cnt, bisect.bisect_left(grid, length + alpha.length)),)

    return _heap_sweep(g, i, x, max_paths, terms)


def heap_vertex_probability(g, i, j, time, window=0.0, max_paths=oracle.DEFAULT_MAX_PATHS):
    def terms(grid, length, vertex, cnt, mass):
        if vertex != j:
            return ()
        stop = 0
        while stop < len(grid) and length >= grid[stop] - window:
            stop += 1
        return ((mass, stop),)

    return _heap_sweep(g, i, time, max_paths, terms, 0.0)


def heap_edge_probability(g, i, edge_ref, time, max_paths=oracle.DEFAULT_MAX_PATHS):
    alpha = g.edge(edge_ref)

    def terms(grid, length, vertex, cnt, mass):
        if vertex != alpha.source:
            return ()
        return ((mass, bisect.bisect_left(grid, length + alpha.length)),)

    return _heap_sweep(g, i, time, max_paths, terms, 0.0, scale=alpha.probability)


def heap_survival(g, i, time, max_paths=oracle.DEFAULT_MAX_PATHS):
    exits = {
        v: [(e.probability, e.length) for e in g.out_edges(v)]
        for v in range(1, g.vertex_count + 1)
    }

    def terms(grid, length, vertex, cnt, mass):
        return [(mass * p, bisect.bisect_left(grid, length + l)) for p, l in exits[vertex]]

    return _heap_sweep(g, i, time, max_paths, terms, 0.0)


def heap_laplace_sum(g, i, j, s, max_length, max_paths=oracle.DEFAULT_MAX_PATHS, weighted=False):
    exp, zero = (cmath.exp, 0.0j) if isinstance(s, complex) else (math.exp, 0.0)

    def terms(grid, length, vertex, cnt, mass):
        if vertex != j:
            return ()
        return (((mass if weighted else cnt) * exp(-s * length), len(grid)),)

    return _heap_sweep(g, i, max_length, max_paths, terms, zero)


def band_classes(g, start, budget):
    """The library's banded class stream, concatenated into four columns."""
    bands = list(oracle._expand_classes(g, start, budget))
    return [np.concatenate(column) for column in zip(*bands)]


def family_pairs(g, grid, top, max_paths=oracle.DEFAULT_MAX_PATHS):
    """(name, library call, heap call) for the families on ``g``.

    Counts to vertex 1 and the last vertex, edge hits on the first and last
    edge and transform sums; on a probability-annotated graph also
    at-vertex masses with and without a window, on-edge masses, survival
    and weighted transform sums.  Every call gets ``max_paths``.
    """
    n, last = g.vertex_count, g.edges[-1].id
    cap = {"max_paths": max_paths}
    pairs = []
    for j in sorted({1, n}):
        pairs.append((f"A{j}", lambda j=j: oracle.count_paths_exact(g, 1, j, grid, **cap),
                      lambda j=j: heap_count_paths(g, 1, j, grid, **cap)))
        for s in (1.7, complex(1.7, 3.0)):
            pairs.append((f"laplace{j}/{s}",
                          lambda j=j, s=s: oracle.truncated_laplace_sum(g, 1, j, s, top, **cap),
                          lambda j=j, s=s: heap_laplace_sum(g, 1, j, s, top, **cap)))
    for e in sorted({0, last}):
        pairs.append((f"B{e}", lambda e=e: oracle.count_edge_hits_exact(g, 1, e, grid, **cap),
                      lambda e=e: heap_count_edge_hits(g, 1, e, grid, **cap)))
    if not g.has_probabilities:
        return pairs
    for j in sorted({1, n}):
        for w in (0.0, 0.5):
            pairs.append((
                f"C{j}/{w}",
                lambda j=j, w=w: oracle.vertex_probability_atoms(g, 1, j, grid, w, **cap),
                lambda j=j, w=w: heap_vertex_probability(g, 1, j, grid, w, **cap)))
        pairs.append((
            f"laplace-weighted{j}",
            lambda j=j: oracle.truncated_laplace_sum(g, 1, j, 0.3, top, weighted=True, **cap),
            lambda j=j: heap_laplace_sum(g, 1, j, 0.3, top, weighted=True, **cap)))
    for e in sorted({0, last}):
        pairs.append((f"D{e}", lambda e=e: oracle.edge_probability_exact(g, 1, e, grid, **cap),
                      lambda e=e: heap_edge_probability(g, 1, e, grid, **cap)))
    pairs.append(("survival", lambda: oracle.survival_exact(g, 1, grid, **cap),
                  lambda: heap_survival(g, 1, grid, **cap)))
    return pairs


def assert_matches_heap(g, top, grid=None):
    """Assert the banded stream and every family equal the heap reference.

    The class stream from vertex 1 up to ``top`` must match column by column
    (lengths, vertices, counts as Python ints, masses, all bit for bit), and
    every family's answers on ``grid`` (default: 8 points up to ``top`` and
    one below 0) must be equal in value and type.  Returns the stream.
    """
    want = list(heap_expand_classes(g, 1, oracle.EnumerationBudget(max_length=top)))
    got = band_classes(g, 1, oracle.EnumerationBudget(max_length=top))
    assert np.array_equal(got[0], [row[0] for row in want])
    assert np.array_equal(got[1], [row[1] for row in want])
    assert got[2].tolist() == [row[2] for row in want]
    assert np.array_equal(got[3], [row[3] for row in want])
    if grid is None:
        grid = [top * k / 8 + 0.01 for k in range(8)][::-1] + [top, -0.5]
    for name, library, heap in family_pairs(g, grid, top):
        result, expected = library(), heap()
        assert result == expected, name
        if not isinstance(result, list):
            result, expected = [result], [expected]
        assert [type(v) for v in result] == [type(v) for v in expected], name
    return got


def loop_ensemble_outcomes(g, start, horizon, n, seed):
    """The walk ensemble stepped with a Python loop over the vertices.

    The literal per-vertex kernel, kept as the oracle for the library's
    padded-table step: same Philox stream and draw budget, read by one
    generator from its start, and the same int64 outcome codes in walker
    order (the edge id at the horizon, -1 after an exit, ``walker._AT_VERTEX``
    at a vertex exactly at T).  Its batches hold ``_BATCH_DRAWS`` uniforms.
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
        walking = np.ones(size, dtype=bool)
        final = np.full(size, walker._AT_VERTEX, dtype=np.int64)
        for step in range(k_draws):
            walking &= t != horizon  # at a vertex exactly at T
            if not walking.any():
                break
            # Snapshot the positions so each walker takes exactly one
            # decision per step, even after moving to a not-yet-visited vertex.
            positions = np.where(walking, vertex, -1)
            for v, (cum, lengths, targets, ids) in tables.items():
                idx = np.where(positions == v)[0]
                if idx.size == 0:
                    continue
                choice = np.searchsorted(cum, uniforms[idx, step], side="right")
                exits = choice == len(cum)
                final[idx[exits]] = -1
                walking[idx[exits]] = False
                moves = idx[~exits]
                picked = choice[~exits]
                arrival = t[moves] + lengths[picked]
                onto = arrival > horizon
                stopped = moves[onto]
                final[stopped] = ids[picked[onto]]
                walking[stopped] = False
                go = moves[~onto]
                vertex[go] = targets[picked[~onto]]
                t[go] = arrival[~onto]
        if walking.any() and bool((t[walking] < horizon).any()):
            raise AssertionError("draw budget exhausted; walk logic violated its bound")
        yield final
        done += size


def assert_matches_loop_kernel(g, start, horizon, n, seed):
    """Assert the library's ensemble equals the loop reference, walker by walker.

    The two batch differently (the library per thread), so the concatenated
    codes must match bit for bit and every batch must be int64; returns them.
    """
    got = list(walker._ensemble_outcomes(g, start, horizon, n, seed))
    want = np.concatenate(list(loop_ensemble_outcomes(g, start, horizon, n, seed)))
    assert all(batch.dtype == np.int64 for batch in got)
    got = np.concatenate(got)
    assert np.array_equal(got, want)
    return got


def dfs_cycle_lengths(g, max_edges=None):
    """Sorted lengths of every simple cycle, found by a recursive DFS.

    The literal enumeration, kept as the oracle for the library's best-first
    search: canonical start at the cycle's smallest vertex, parallel edges
    distinct, each length summed along the path from 0.0.
    """
    if max_edges is None:
        max_edges = g.vertex_count
    lengths = []

    def explore(start, vertex, used, total, visited):
        for e in g.out_edges(vertex):
            if e.target == start and used + 1 <= max_edges:
                lengths.append(total + e.length)
            if e.target > start and e.target not in visited and used + 1 < max_edges:
                visited.add(e.target)
                explore(start, e.target, used + 1, total + e.length, visited)
                visited.discard(e.target)

    for start in range(1, g.vertex_count + 1):
        explore(start, start, 0, 0.0, {start})
    lengths.sort()
    return lengths


def dfs_incommensurability_check(g, max_edges=None, max_denominator=10**6, tolerance=1e-12):
    """The incommensurability scan over the DFS's full sorted list of lengths."""
    lengths = dfs_cycle_lengths(g, max_edges)
    if len(lengths) < 2:
        return graph.IncommensurabilityVerdict(status=graph.INCONCLUSIVE)
    first_approx = None
    for i in range(len(lengths)):
        for j in range(i + 1, len(lengths)):
            a, b = lengths[i], lengths[j]
            p, q = graph._best_rational(a / b, max_denominator)
            residual = abs(a * q - b * p)
            if residual > tolerance:
                return graph.IncommensurabilityVerdict(
                    status=graph.INCOMMENSURABLE_WITNESS,
                    witness=(a, b),
                    rational_approx=(p, q, residual),
                )
            if first_approx is None:
                first_approx = (p, q, residual)
    return graph.IncommensurabilityVerdict(
        status=graph.COMMENSURABLE_WITHIN_TOLERANCE,
        rational_approx=first_approx,
    )


def _split_children(rule, left, length, prototile):
    out = []
    for child_type, scale in rule.prototiles[prototile - 1]:
        size = length * scale
        out.append((left, size, child_type))
        left += size
    return out


def heap_kakutani_partition(rule, n):
    """(left, length, type) rows after n splits of the longest interval.

    The literal procedure, kept as the oracle for the library's selection
    over the split tree: a heap keyed on (-length, left, push order) pops the
    interval to split, and its children replace it.  Rows are sorted by left.
    """
    seq = itertools.count()
    heap = [(-1.0, 0.0, next(seq), 1)]
    for _ in range(n):
        neg, left, _, prototile = heapq.heappop(heap)
        for child in _split_children(rule, left, -neg, prototile):
            heapq.heappush(heap, (-child[1], child[0], next(seq), child[2]))
    return sorted((left, -neg, prototile) for neg, left, _, prototile in heap)


def stack_threshold_partition(rule, x):
    """(left, length, type) rows after splitting every interval above e^(-x).

    The literal procedure, kept as the oracle for the library's level-by-level
    expansion: a stack of intervals, each split or kept.  Returns the rows
    sorted by left and the number of splits.
    """
    cutoff = math.exp(-x)
    out, splits, stack = [], 0, [(0.0, 1.0, 1)]
    while stack:
        left, length, prototile = stack.pop()
        if length > cutoff:
            splits += 1
            stack.extend(_split_children(rule, left, length, prototile))
        else:
            out.append((left, length, prototile))
    out.sort()
    return out, splits


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
