"""Weighted directed multigraph model, validation, and orbit diagnostics.

Vertices are labelled 1..n to match the usual convention for these graphs;
matrix and array indices elsewhere in the package are 0-based.  A graph is
immutable after construction and safe to share across threads.

The JSON schema accepted by :func:`build_graph`::

    {"vertices": <int>,
     "edges": [{"from": <int>, "to": <int>,
                "length": <float> | {"log_of": <float>},
                "probability": <float, optional>,
                "name": <str, optional>}, ...]}

The ``log_of`` form stores the natural log of the given value, so lengths
like log 2 or log 3/2 can be entered exactly.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import re
from dataclasses import dataclass, field

from .errors import (
    IndexOutOfRange,
    MixedProbabilityAnnotation,
    NonPositiveLength,
    ProbabilitySumExceedsOne,
    UnknownEdge,
    ValidationError,
)

# Per-vertex probability sums may exceed 1 by at most this much (float slack).
PROBABILITY_SUM_SLACK = 1e-12


@dataclass(frozen=True)
class Edge:
    """One directed weighted edge.  ``source``/``target`` are 1-based."""

    id: int
    source: int
    target: int
    length: float
    probability: float | None = None
    name: str | None = None


@dataclass(frozen=True)
class WeightedDigraph:
    """Immutable directed weighted multigraph, optionally probability-annotated."""

    vertex_count: int
    edges: tuple[Edge, ...]
    _out: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise IndexOutOfRange(f"vertex_count must be >= 1, got {n}")
        annotated = [e.probability is not None for e in self.edges]
        if any(annotated) and not all(annotated):
            raise MixedProbabilityAnnotation(
                "either all edges carry a probability or none do"
            )
        out: dict[int, list[Edge]] = {v: [] for v in range(1, n + 1)}
        for e in self.edges:
            if not (1 <= e.source <= n and 1 <= e.target <= n):
                raise IndexOutOfRange(
                    f"edge {e.id}: endpoints ({e.source}, {e.target}) outside 1..{n}"
                )
            if not (e.length > 0.0 and math.isfinite(e.length)):
                raise NonPositiveLength(
                    f"edge {e.id}: length must be positive and finite, got {e.length!r}"
                )
            if e.probability is not None and not (0.0 < e.probability <= 1.0):
                raise ProbabilitySumExceedsOne(e.source, e.probability)
            out[e.source].append(e)
        for v in range(1, n + 1):
            probs = [e.probability for e in out[v] if e.probability is not None]
            if probs:
                total = sum(probs)
                if total > 1.0 + PROBABILITY_SUM_SLACK:
                    raise ProbabilitySumExceedsOne(v, total)
        object.__setattr__(self, "_out", out)

    # -- accessors ------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def has_probabilities(self) -> bool:
        return bool(self.edges) and self.edges[0].probability is not None

    def out_edges(self, vertex: int) -> list[Edge]:
        """Edges leaving ``vertex`` (1-based), in input order."""
        try:
            return self._out[vertex]
        except KeyError:
            raise IndexOutOfRange(f"vertex {vertex} outside 1..{self.vertex_count}")

    def min_edge_length(self) -> float:
        return min(e.length for e in self.edges)

    def edge(self, ref) -> Edge:
        """Resolve an edge by id, explicit name, or positional pattern.

        Accepts an integer id, a ``name`` given at construction, or the
        pattern ``"i-j#k"`` (k-th edge from i to j, 1-based; ``"i-j"`` when
        unique).
        """
        if isinstance(ref, Edge):
            return ref
        if isinstance(ref, int):
            if 0 <= ref < len(self.edges):
                return self.edges[ref]
            raise UnknownEdge(f"no edge with id {ref}")
        for e in self.edges:
            if e.name == ref:
                return e
        m = re.fullmatch(r"(\d+)-(\d+)(?:#(\d+))?", str(ref))
        if m:
            src, dst = int(m.group(1)), int(m.group(2))
            k = int(m.group(3)) if m.group(3) else 1
            matches = [e for e in self.edges if e.source == src and e.target == dst]
            if m.group(3) is None and len(matches) > 1:
                raise UnknownEdge(
                    f"{ref!r} is ambiguous ({len(matches)} parallel edges); use {ref}#k"
                )
            if 1 <= k <= len(matches):
                return matches[k - 1]
        raise UnknownEdge(f"no edge matching {ref!r}")


@dataclass(frozen=True)
class ConnectivityReport:
    strongly_connected: bool
    components: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class IncommensurabilityVerdict:
    """Heuristic verdict on the cycle-length spectrum.

    ``status`` is one of ``"incommensurable_witness"``,
    ``"commensurable_within_tolerance"``, ``"inconclusive"``.  Float lengths
    cannot prove irrationality, so a witness only certifies that no rational
    p/q with q <= the denominator bound approximates the ratio within
    tolerance.
    """

    status: str
    witness: tuple[float, float] | None = None
    rational_approx: tuple[int, int, float] | None = None


INCOMMENSURABLE_WITNESS = "incommensurable_witness"
COMMENSURABLE_WITHIN_TOLERANCE = "commensurable_within_tolerance"
INCONCLUSIVE = "inconclusive"


# -- construction / serialization ----------------------------------------------


def _whole_number(raw) -> int:
    """``int(raw)``, refusing a boolean or a number with a fractional part."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"{raw!r} is not a whole number")
    return int(raw)


def _parse_length(raw, edge_index):
    if isinstance(raw, dict):
        if set(raw) != {"log_of"}:
            raise NonPositiveLength(
                f"edge {edge_index}: length object must be {{'log_of': value}}"
            )
        base = float(raw["log_of"])
        if base <= 1.0:
            raise NonPositiveLength(
                f"edge {edge_index}: log_of value must exceed 1, got {base}"
            )
        return math.log(base)
    return float(raw)


def build_graph(spec: dict) -> WeightedDigraph:
    """Validate a raw graph description and build a :class:`WeightedDigraph`."""
    try:
        n = _whole_number(spec["vertices"])
        raw_edges = list(spec["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexOutOfRange(f"malformed graph spec: {exc}") from exc
    edges = []
    for k, item in enumerate(raw_edges):
        try:
            prob = item.get("probability")
            edge = Edge(
                id=k,
                source=_whole_number(item["from"]),
                target=_whole_number(item["to"]),
                length=_parse_length(item["length"], k),
                probability=None if prob is None else float(prob),
                name=item.get("name"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"edge {k}: bad or missing field: {exc}") from exc
        edges.append(edge)
    return WeightedDigraph(vertex_count=n, edges=tuple(edges))


def graph_to_dict(g: WeightedDigraph) -> dict:
    """Inverse of :func:`build_graph` (lengths emitted as plain floats)."""
    edges = []
    for e in g.edges:
        item = {"from": e.source, "to": e.target, "length": e.length}
        if e.probability is not None:
            item["probability"] = e.probability
        if e.name is not None:
            item["name"] = e.name
        edges.append(item)
    return {"vertices": g.vertex_count, "edges": edges}


def load_graph(path) -> WeightedDigraph:
    with open(path) as fh:
        return build_graph(json.load(fh))


# -- connectivity ---------------------------------------------------------------


def strong_connectivity(g: WeightedDigraph) -> ConnectivityReport:
    """Exact strongly-connected-component decomposition (iterative Tarjan)."""
    n = g.vertex_count
    succ = {v: sorted({e.target for e in g.out_edges(v)}) for v in range(1, n + 1)}
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in range(1, n + 1):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(frozenset(comp))

    components.sort(key=min)
    return ConnectivityReport(
        strongly_connected=len(components) == 1,
        components=tuple(components),
    )


# -- cycles and incommensurability -----------------------------------------------


def _cycles_shortest_first(g: WeightedDigraph, max_edges: int | None):
    """Yield the length of every simple cycle, shortest first (best-first search).

    A heap holds partial paths ``(total, tiebreak, start, vertex, used,
    visited)``, one seed per start vertex; ``visited`` is a bitmask of the
    path's vertices, and a path only extends to vertices above ``start``, so
    each cycle is found once, from its smallest vertex.  A path has fewer
    than ``max_edges`` edges, so it may always close: closing it back to its
    start pushes a finished entry (``vertex`` None) keyed by the cycle's
    length, yielded when popped.  Lengths are summed along the path from 0.0,
    and a child's key is never below its parent's (lengths are positive,
    rounding is monotone), so cycles come out in ascending order.  The
    counter breaks ties, so no two entries are compared past it.
    """
    if max_edges is None:
        max_edges = g.vertex_count
    if max_edges < 1:
        raise IndexOutOfRange(f"max_edges must be >= 1, got {max_edges}")
    n = g.vertex_count
    out = [None] + [[(e.target, e.length) for e in g.out_edges(v)] for v in range(1, n + 1)]
    tiebreak = itertools.count().__next__
    push, pop = heapq.heappush, heapq.heappop
    heap = [(0.0, tiebreak(), v, v, 0, 1 << v) for v in range(1, n + 1)]
    while heap:
        total, _, start, vertex, used, visited = pop(heap)
        if vertex is None:
            yield total
            continue
        used += 1
        for t, length in out[vertex]:
            if t == start:
                push(heap, (total + length, tiebreak(), start, None, 0, 0))
            elif t > start and used < max_edges and not visited >> t & 1:
                push(heap, (total + length, tiebreak(), start, t, used, visited | 1 << t))


def cycle_lengths(g: WeightedDigraph, max_edges: int | None = None) -> list[float]:
    """Lengths of all simple directed cycles with at most ``max_edges`` edges.

    Each cycle is counted once up to rotation (canonical start at its smallest
    vertex); parallel edges yield distinct cycles.  Sorted ascending: the list
    of the best-first search, which yields cycles shortest first.
    """
    return list(_cycles_shortest_first(g, max_edges))


def _best_rational(ratio: float, max_denominator: int):
    """Best rational p/q with q <= max_denominator minimizing |q*ratio - p|.

    Continued-fraction convergents are exactly the minimizers of |q*r - p|
    among all smaller denominators, so the last admissible convergent wins.
    """
    p_prev, q_prev = 1, 0
    p, q = int(math.floor(ratio)), 1
    x = ratio
    for _ in range(64):
        frac = x - math.floor(x)
        if q > max_denominator:
            break
        if frac == 0.0:
            break
        x = 1.0 / frac
        a = int(math.floor(x))
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    if q > max_denominator:
        p, q = p_prev, q_prev
    return p, q


def _ascending_pairs(lengths):
    """The first two lengths, then pairs ``(a_i, a_j)``, i < j, of distinct values.

    ``lengths`` ascends, so equal values are adjacent and only the first of
    each is kept: a repeated value repeats the ratios of earlier pairs, so the
    first witness in (i outer, j inner) order is the same.  The first pair is
    the raw one, even a tie, since the verdict reports its approximation.
    The pairs ``(a_0, a_j)`` come first, so the iterator is advanced one
    element per pair until it runs out; only then are the later rows scanned.
    """
    seen = list(itertools.islice(lengths, 2))
    if len(seen) < 2:
        return
    yield seen[0], seen[1]
    if seen[1] == seen[0]:
        seen.pop()
    for b in lengths:
        if b != seen[-1]:
            seen.append(b)
            yield seen[0], b
    for i in range(1, len(seen)):
        for j in range(i + 1, len(seen)):
            yield seen[i], seen[j]


def incommensurability_check(
    g: WeightedDigraph,
    max_edges: int | None = None,
    max_denominator: int = 10**6,
    tolerance: float = 1e-12,
) -> IncommensurabilityVerdict:
    """Scan cycle-length pairs for a ratio with no small rational approximation.

    Pairs (a, b) of the ascending cycle lengths are scanned with a the shorter,
    shortest a first and then shortest b, each pair of values once; cycles
    are drawn from the best-first search only as the scan reaches them, so it
    stops at the first witness: a pair whose min over convergents p/q,
    q <= max_denominator, of |a*q - b*p| exceeds ``tolerance``.  Reports
    commensurable-within-tolerance (with the first pair's approximation) when
    every pair admits one, which reads every cycle, and inconclusive when
    fewer than two cycles exist.
    """
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise IndexOutOfRange(f"tolerance must be positive and finite, got {tolerance!r}")
    if max_denominator < 1:
        raise IndexOutOfRange(f"max_denominator must be >= 1, got {max_denominator!r}")
    first_approx = None
    for a, b in _ascending_pairs(_cycles_shortest_first(g, max_edges)):
        p, q = _best_rational(a / b, max_denominator)
        residual = abs(a * q - b * p)
        if residual > tolerance:
            return IncommensurabilityVerdict(
                status=INCOMMENSURABLE_WITNESS,
                witness=(a, b),
                rational_approx=(p, q, residual),
            )
        if first_approx is None:
            first_approx = (p, q, residual)
    if first_approx is None:
        return IncommensurabilityVerdict(status=INCONCLUSIVE)
    return IncommensurabilityVerdict(
        status=COMMENSURABLE_WITHIN_TOLERANCE,
        rational_approx=first_approx,
    )
