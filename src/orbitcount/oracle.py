"""Exact brute-force counting and probability masses, the library's ground truth.

The counting and probability operations expand *length classes*, shortest
first: all paths sharing a terminal vertex and (up to float noise) the same
exact length are carried as one class with an integer path count and an
aggregated probability mass.  Future extensions of a path depend only on its
terminal vertex, so the aggregation is lossless, and horizons far beyond the
reach of path-by-path enumeration stay exact (counts never wrap: they turn
into arbitrary-precision integers where int64 could overflow).

Classes are expanded in length bands.  Extending a path adds at least
``m``, the shortest edge length, so the rows (unmerged extensions) with
length in ``[k m, (k+1) m)`` are all known once every earlier band has been
expanded.  Each band is sorted by ``(length, vertex, count, mass)`` and cut
into merge buckets anchored at their head (rows within ``MERGE_TOLERANCE``
of it); each bucket gives one class per vertex, in vertex order, with the
first row's length, the summed count and the mass summed in row order.  A
bucket whose head lies within two tolerances of the band's end, or of one
shortest edge past the band's first row, waits for the next band: rows it
may still gain are filed there.  The stream is the one a best-first heap
over rows would give, class for class and bit for bit.  Small bands take a
pure-Python step, large ones a numpy step; both give the same classes.

Length comparisons against the half-open windows [l(gamma), l(gamma)+l(alpha))
use plain <= and < with no epsilon fudge; callers should choose query points
away from atom boundaries.

Every counting and probability operation takes one query point or a grid of
them.  A grid is answered from a single expansion up to its largest point,
folded band by band into running per-point sums: each point adds the same
classes, in the same order and with sequential float sums, as an expansion
up to that point alone, so the answers are bit-identical to one call per
point.  The one exception is a point within ``MERGE_TOLERANCE`` of a path
length, where a merge bucket may straddle the point; such points are
excluded above anyway.  The budget counts the classes of that single
expansion, so a grid overflows exactly when its largest point does.
"""

from __future__ import annotations

import cmath
import heapq
import math
import numbers
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BudgetOverflow, MissingProbabilities, ValidationError
from .graph import WeightedDigraph

DEFAULT_MAX_PATHS = 50_000_000

# Classes closer than this are merged (same true length, differing by float
# noise from different summation orders).  Kept far below any realistic edge
# length and far above accumulated rounding of desk-scale horizons.
MERGE_TOLERANCE = 1e-9

# One query point, or a grid of them (answered from one expansion).
Points = float | Sequence[float]

# Bands with fewer rows than this take the pure-Python step, larger ones the
# numpy step (measured crossover, see CHANGES.md).
_NUMPY_BAND_ROWS = 128

# Bands are folded into per-point sums in batches of at least this many
# classes, so that small bands do not pay numpy's per-call cost one by one.
_FOLD_ROWS = 2048

_INT64_LIMIT = 2**63


@dataclass
class EnumerationBudget:
    """Horizon and safety cap for one enumeration.

    ``overflow`` is set (and :class:`BudgetOverflow` raised) when the cap is
    reached, so truncated results are flagged rather than silently wrong.
    The cap counts emitted length classes.
    """

    max_length: float
    max_paths: int = DEFAULT_MAX_PATHS
    overflow: bool = False


# -- class expansion ------------------------------------------------------------


def _out_tables(g: WeightedDigraph):
    """Per-vertex out-edge tables padded to the largest out-degree.

    Row ``v`` lists the edges leaving vertex ``v`` in input order: length
    (+inf past the out-degree, so no extension survives the horizon test),
    target, and probability (1.0 on an unannotated graph, which leaves a
    mass unchanged bit for bit).  Row 0 is padding.
    """
    n = g.vertex_count
    width = max(1, max(len(g.out_edges(v)) for v in range(1, n + 1)))
    length = np.full((n + 1, width), np.inf)
    target = np.zeros((n + 1, width), dtype=np.int64)
    probability = np.ones((n + 1, width))
    for v in range(1, n + 1):
        for slot, e in enumerate(g.out_edges(v)):
            length[v, slot] = e.length
            target[v, slot] = e.target
            if e.probability is not None:
                probability[v, slot] = e.probability
    return length, target, probability


def _count_array(values) -> np.ndarray:
    """Python-int counts as int64, or as Python ints where int64 cannot hold them."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _exact_sum(counts: np.ndarray) -> int:
    """Sum of non-empty integer counts as a Python int, never wrapping."""
    if counts.dtype == object or len(counts) * int(counts.max()) >= _INT64_LIMIT:
        return sum(counts.tolist())
    return int(counts.sum())


class _Bands:
    """Rows waiting to be expanded, filed by band index ``floor(length / m)``.

    A band keeps Python rows ``(length, vertex, count, mass)`` from the
    Python step and column chunks from the numpy step; whichever step takes
    the band converts the other kind.
    """

    def __init__(self, m: float):
        self.m = m
        self._held: dict[int, list] = {}  # band -> [rows, chunks, row count]
        self._keys: list[int] = []

    def _slot(self, k: int) -> list:
        slot = self._held.get(k)
        if slot is None:
            slot = self._held[k] = [[], [], 0]
            heapq.heappush(self._keys, k)
        return slot

    def add_rows(self, k: int, rows: list):
        slot = self._slot(k)
        slot[0].extend(rows)
        slot[2] += len(rows)

    def add_chunk(self, k: int, columns: tuple):
        slot = self._slot(k)
        slot[1].append(columns)
        slot[2] += len(columns[0])

    def pop(self):
        """The lowest waiting band: index, Python rows, column chunks, row count."""
        k = heapq.heappop(self._keys)
        return (k, *self._held.pop(k))

    def __bool__(self):
        return bool(self._keys)


def _late(k: int, m: float, first: float, tol: float) -> float:
    """Bucket heads from this length on wait for the band after band ``k``.

    A bucket is complete once no row within ``tol`` of its head can still
    appear.  Rows of later bands start at ``(k + 1) m``; extensions of this
    band's rows, which are made after the band, at ``first + m``, where
    ``first`` is the band's shortest row (a row that waited in the previous
    band can be shorter than ``k m``).  The second ``tol`` absorbs rounding
    in the band index.
    """
    return min((k + 1) * m, first + m) - 2.0 * tol


def _python_band(rows, chunks, k, tol, bands, exits, max_length):
    """Expand one small band: sort its rows, then cut buckets one by one.

    Returns the band's classes as columns (None if every bucket waits for
    the next band) and a function that files their extensions.
    """
    for columns in chunks:
        rows.extend(zip(*(c.tolist() for c in columns)))
    rows.sort()
    m = bands.m
    late = _late(k, m, rows[0][0], tol)
    classes = []
    i, n = 0, len(rows)
    while i < n:
        head = rows[i][0]
        if head >= late:
            bands.add_rows(k + 1, rows[i:])
            break
        reach = head + tol
        bucket: dict[int, list] = {}
        while i < n and rows[i][0] <= reach:
            length, vertex, cnt, mass = rows[i]
            i += 1
            slot = bucket.get(vertex)
            if slot is None:
                bucket[vertex] = [length, cnt, mass]
            else:
                slot[1] += cnt
                slot[2] += mass
        for vertex in sorted(bucket):
            length, cnt, mass = bucket[vertex]
            classes.append((length, vertex, cnt, mass))
    if not classes:
        return None, None

    def extend():
        children = defaultdict(list)
        for length, vertex, cnt, mass in classes:
            for step, target, p in exits[vertex]:
                ext = length + step
                if ext <= max_length:
                    b = int(ext / m)
                    children[b if b > k else k + 1].append(
                        (ext, target, cnt, mass if p is None else mass * p))
        for b, held in children.items():
            bands.add_rows(b, held)

    lengths, vertices, counts, masses = zip(*classes)
    band = (np.array(lengths), np.array(vertices, dtype=np.int64),
            _count_array(counts), np.array(masses))
    return band, extend


def _bucket_heads(lengths: np.ndarray, tol: float) -> np.ndarray:
    """Indices that start a merge bucket in sorted ``lengths``.

    A bucket takes every row within ``tol`` of its head.  A row beyond the
    reach of its predecessor starts a cluster that no earlier bucket can
    enter.  A cluster that fits within its first row's reach is one bucket;
    a wider one (a chain of near ties) is cut from head to head in order.
    """
    n = len(lengths)
    reach = lengths + tol
    starts = np.flatnonzero(np.concatenate(([True], lengths[1:] > reach[:-1])))
    ends = np.append(starts[1:], n)
    wide = lengths[ends - 1] > reach[starts]
    if not wide.any():
        return starts
    heads = [starts[~wide]]
    for s, e in zip(starts[wide].tolist(), ends[wide].tolist()):
        cut = []
        while s < e:
            cut.append(s)
            s = int(np.searchsorted(lengths, reach[s], side="right"))
        heads.append(np.array(cut, dtype=np.int64))
    return np.sort(np.concatenate(heads))


def _row_order(L, V, C, M) -> np.ndarray:
    """Indices that sort rows by (length, vertex, count, mass).

    A sort on length alone places every row whose length is unique; only
    runs of equal lengths (reorderings of the same edges) need the other
    keys.
    """
    order = np.argsort(L)
    sorted_length = L[order]
    tie = sorted_length[1:] == sorted_length[:-1]
    if tie.any():
        inside = np.zeros(len(L), dtype=bool)
        inside[1:] = tie
        inside[:-1] |= tie
        run = order[inside]
        order[inside] = run[np.lexsort((M[run], C[run], V[run], L[run]))]
    return order


def _numpy_band(rows, chunks, k, tol, bands, tables, max_length):
    """Expand one large band with array operations, as :func:`_python_band` does."""
    if rows:
        lengths, vertices, counts, masses = zip(*rows)
        chunks.append((np.array(lengths), np.array(vertices, dtype=np.int64),
                       _count_array(counts), np.array(masses)))
    L, V, C, M = (np.concatenate(column) for column in zip(*chunks))
    if C.dtype != object and len(C) * int(C.max()) >= _INT64_LIMIT:
        C = C.astype(object)  # class counts may pass int64: use Python ints
    order = _row_order(L, V, C, M)
    L, V, C, M = L[order], V[order], C[order], M[order]

    heads = _bucket_heads(L, tol)
    late = L[heads] >= _late(k, bands.m, float(L[0]), tol)
    cut = int(heads[np.argmax(late)]) if late.any() else len(L)
    if cut < len(L):
        bands.add_chunk(k + 1, (L[cut:], V[cut:], C[cut:], M[cut:]))
    heads = heads[heads < cut]
    if cut == 0:
        return None, None

    # Group rows by (bucket, vertex); a stable sort keeps the row order.
    bucket = np.zeros(cut, dtype=np.int64)
    bucket[heads[1:]] = 1
    bucket = np.cumsum(bucket)
    L, V, C, M = L[:cut], V[:cut], C[:cut], M[:cut]
    if not np.all((bucket[1:] > bucket[:-1]) | (V[1:] >= V[:-1])):
        order = np.lexsort((V, bucket))
        L, V, C, M, bucket = L[order], V[order], C[order], M[order], bucket[order]
    first = np.flatnonzero(np.concatenate(
        ([True], (bucket[1:] != bucket[:-1]) | (V[1:] != V[:-1]))))
    counts = np.add.reduceat(C, first)
    # Masses add up in row order: (((m1 + m2) + m3) + ...), one pass per rank.
    sizes = np.diff(np.append(first, cut))
    masses = M[first]
    active = np.flatnonzero(sizes > 1)
    rank = 1
    while active.size:
        masses[active] += M[first[active] + rank]
        rank += 1
        active = active[sizes[active] > rank]
    band = (L[first], V[first], counts, masses)

    def extend():
        cl, cv, cc, cm = band
        out_length, out_target, out_probability = tables
        ext = cl[:, None] + out_length[cv]
        row, slot = np.nonzero(ext <= max_length)
        if not row.size:
            return
        # File the children band by band; each band sorts its rows itself.
        index = np.maximum((ext[row, slot] / bands.m).astype(np.int64), k + 1)
        order = np.argsort(index)
        index, row, slot = index[order], row[order], slot[order]
        vertex = cv[row]
        children = (ext[row, slot], out_target[vertex, slot], cc[row],
                    cm[row] * out_probability[vertex, slot])
        bounds = np.flatnonzero(index[1:] != index[:-1]) + 1
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(index)]):
            bands.add_chunk(int(index[lo]), tuple(column[lo:hi] for column in children))

    return band, extend


def _expand_classes(g: WeightedDigraph, start: int, budget: EnumerationBudget):
    """Yield length classes from ``start``, shortest first, one band at a time.

    Each item is a tuple of arrays ``(length, vertex, count, mass)`` listing
    consecutive classes of the stream: rows whose lengths differ by less
    than the merge tolerance at the same terminal vertex are coalesced.
    Counts are int64, or Python ints once int64 could overflow.
    """
    g.out_edges(start)
    # Without edges the one band [0, inf) holds the empty path alone.
    m = g.min_edge_length() if g.edges else math.inf
    tol = min(MERGE_TOLERANCE, m / 4.0)
    if budget.max_length < 0.0:
        return
    bands = _Bands(m)
    bands.add_rows(0, [(0.0, start, 1, 1.0)])
    exits = {
        v: [(e.length, e.target, e.probability) for e in g.out_edges(v)]
        for v in range(1, g.vertex_count + 1)
    }
    tables = None
    emitted = 0
    while bands:
        k, rows, chunks, size = bands.pop()
        if size < _NUMPY_BAND_ROWS:
            band, extend = _python_band(rows, chunks, k, tol, bands, exits, budget.max_length)
        else:
            if tables is None:
                tables = _out_tables(g)
            band, extend = _numpy_band(rows, chunks, k, tol, bands, tables, budget.max_length)
        if band is None:
            continue
        emitted += len(band[0])
        if emitted > budget.max_paths:
            budget.overflow = True
            room = budget.max_paths - (emitted - len(band[0]))
            if room:
                yield tuple(column[:room] for column in band)
            raise BudgetOverflow(budget.max_paths + 1)
        yield band
        extend()


def _batched(stream):
    """Concatenate consecutive small bands into batches of >= _FOLD_ROWS classes."""
    pending, size = [], 0
    for band in stream:
        pending.append(band)
        size += len(band[0])
        if size >= _FOLD_ROWS:
            yield tuple(np.concatenate(column) for column in zip(*pending))
            pending, size = [], 0
    if pending:
        yield tuple(np.concatenate(column) for column in zip(*pending))


def _grid_sums(g: WeightedDigraph, start: int, x, max_paths: int, terms, zero, scale=None):
    """Sum class weights at every point of ``x`` from one expansion.

    The classes are expanded once, up to the largest point, and folded in
    emission order.  ``terms(grid, length, vertex, count, mass)`` returns
    the weights of a batch of classes, in emission order, and a boolean
    (points x weights) mask of the sorted grid points each weight goes to.
    Integer weights add up exactly; float weights add up sequentially from
    ``zero``, as one expansion per point would add them.  Each finished sum
    is multiplied by ``scale`` if given.  A number ``x`` gives a number, a
    sequence a list in its own order; negative points give ``zero``.
    """
    scalar = isinstance(x, numbers.Real)
    points = np.array([x] if scalar else list(x), dtype=float)
    order = np.argsort(points, kind="stable")
    grid = points[order]
    sums = [zero] * len(grid)
    if len(grid) and grid[-1] >= 0.0:
        budget = EnumerationBudget(max_length=float(grid[-1]), max_paths=max_paths)
        for batch in _batched(_expand_classes(g, start, budget)):
            weights, mask = terms(grid, *batch)
            for k, selected in enumerate(mask):
                picked = weights[selected]
                if not picked.size:
                    continue
                if isinstance(zero, int):
                    sums[k] += _exact_sum(picked)
                else:
                    sums[k] = float(np.cumsum(np.concatenate(([sums[k]], picked)))[-1])
    totals = [zero] * len(grid)
    for k, total in zip(order.tolist(), sums):
        totals[k] = total if scale is None else total * scale
    return totals[0] if scalar else totals


def _require_probabilities(g: WeightedDigraph):
    if not g.has_probabilities:
        raise MissingProbabilities("operation needs a probability-annotated graph")


def _on_edge(grid, length, edge_length):
    """Mask of the points in [length, length + edge_length), per class."""
    return (grid[:, None] >= length) & (grid[:, None] < length + edge_length)


def count_paths_exact(
    g: WeightedDigraph, i: int, j: int, x: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> int | list[int]:
    """Number of paths from i to j of length at most x (empty path included)."""

    def terms(grid, length, vertex, cnt, mass):
        hit = vertex == j
        return cnt[hit], grid[:, None] >= length[hit]

    return _grid_sums(g, i, x, max_paths, terms, 0)


def count_edge_hits_exact(
    g: WeightedDigraph, i: int, edge_ref, x: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> int | list[int]:
    """Number of paths of length exactly x from i to a point on the edge.

    Counts paths gamma ending at the edge's origin with
    l(gamma) <= x < l(gamma) + l(edge).
    """
    alpha = g.edge(edge_ref)

    def terms(grid, length, vertex, cnt, mass):
        hit = vertex == alpha.source
        return cnt[hit], _on_edge(grid, length[hit], alpha.length)

    return _grid_sums(g, i, x, max_paths, terms, 0)


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
    if not (math.isfinite(window) and window >= 0.0):
        raise ValidationError("window must be finite and >= 0")

    def terms(grid, length, vertex, cnt, mass):
        hit = vertex == j
        length = length[hit]
        # Tested as written: t <= length + window can differ in floats.
        return mass[hit], (grid[:, None] >= length) & (length >= (grid - window)[:, None])

    return _grid_sums(g, i, time, max_paths, terms, 0.0)


def edge_probability_exact(
    g: WeightedDigraph, i: int, edge_ref, time: Points, max_paths: int = DEFAULT_MAX_PATHS
) -> float | list[float]:
    """Probability that the walker from i is on the given edge at ``time``."""
    _require_probabilities(g)
    alpha = g.edge(edge_ref)

    def terms(grid, length, vertex, cnt, mass):
        hit = vertex == alpha.source
        return mass[hit], _on_edge(grid, length[hit], alpha.length)

    return _grid_sums(g, i, time, max_paths, terms, 0.0, scale=alpha.probability)


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
    out_length, _, out_probability = _out_tables(g)
    real = np.isfinite(out_length)

    def terms(grid, length, vertex, cnt, mass):
        # One weight per (class, out-edge), class by class in edge order.
        weights = mass[:, None] * out_probability[vertex]
        on = _on_edge(grid[:, None], length[:, None], out_length[vertex]) & real[vertex]
        return weights.ravel(), on.reshape(len(grid), -1)

    return _grid_sums(g, i, time, max_paths, terms, 0.0)


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
    exp, total = (cmath.exp, 0.0j) if isinstance(s, complex) else (math.exp, 0.0)
    if max_length < 0.0:
        return total
    budget = EnumerationBudget(max_length=max_length, max_paths=max_paths)
    for length, vertex, cnt, mass in _expand_classes(g, i, budget):
        hit = vertex == j
        weights = (mass if weighted else cnt)[hit].tolist()
        for ell, weight in zip(length[hit].tolist(), weights):
            total += weight * exp(-s * ell)
    return total
