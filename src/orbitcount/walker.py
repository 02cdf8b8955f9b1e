"""Monte Carlo simulation of the constant-speed random walk.

A walker starts at a vertex at time 0 and advances at speed 1.  At each
vertex it draws one uniform variate: the outgoing edges partition [0, sum p)
and the residual mass 1 - sum p means the walker leaves the graph on the
spot.  Vertex arrival at exactly the horizon reports an at-vertex outcome;
edge occupancy follows the half-open convention, matching the exact oracle.

Randomness comes from the counter-based Philox generator keyed by the caller
seed.  Ensemble run r consumes the uniform block [r*K, (r+1)*K) of that
stream (K = the per-run draw budget), which makes runs independent,
reproducible bit-for-bit, and insensitive to batching.  A horizon whose K
exceeds the uniforms held per batch is rejected before any draw.

One step moves every walker at once, whatever its vertex.  Padded tables
give each vertex a row of cumulative probabilities (+inf past its out-degree)
and a row of slots (its out-edges, then an exit slot of length +inf), so the
chosen slot is the row start plus the count of cumulative entries <= u:
the comparison ``searchsorted(side="right")`` makes.  Walkers that stop are
compacted out of the moving set, and only their final states are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingProbabilities, ValidationError
from .graph import WeightedDigraph

ON_EDGE = "on_edge"
AT_VERTEX = "at_vertex"
EXITED = "exited"

# Per-vertex probability sums within this of 1 are treated as exactly
# stochastic, so the exit branch is provably never taken.
STOCHASTIC_SLACK = 1e-12

_BATCH_DRAWS = 1 << 21  # uniforms held in memory at once per batch


@dataclass(frozen=True)
class WalkOutcome:
    """State of one walker at the horizon (or at its earlier exit)."""

    status: str
    path_length_traversed: float
    edge_id: int | None = None
    offset: float | None = None
    vertex: int | None = None
    exit_time: float | None = None


@dataclass(frozen=True)
class EnsembleEstimate:
    """Bernoulli frequency estimate with its binomial standard error."""

    point_estimate: float
    standard_error: float
    sample_count: int
    seed: int | None

    @property
    def successes(self) -> int:
        return round(self.point_estimate * self.sample_count)


def merge_estimates(a: EnsembleEstimate, b: EnsembleEstimate) -> EnsembleEstimate:
    """Pool two ensembles by adding success and sample counts."""
    n = a.sample_count + b.sample_count
    p = (a.successes + b.successes) / n
    return EnsembleEstimate(
        point_estimate=p,
        standard_error=math.sqrt(p * (1.0 - p) / n),
        sample_count=n,
        seed=None,
    )


def _walk_tables(g: WeightedDigraph):
    """Cumulative columns ``cum[j, v]`` (+inf past v's out-degree; columns
    >= 1 everywhere, which no u < 1 reaches, dropped) and flat per-slot
    ``length``/``target``/``ids`` arrays, ``width`` slots per vertex row.
    """
    if not g.has_probabilities:
        raise MissingProbabilities("the walk needs a probability-annotated graph")
    rows = g.vertex_count + 1  # row 0 is unused padding
    width = max(len(g.out_edges(v)) for v in range(1, rows)) + 1
    cum = np.full((width - 1, rows), np.inf)
    length = np.full((rows, width), np.inf)
    target = np.zeros((rows, width), dtype=np.int64)
    ids = np.full((rows, width), -1, dtype=np.int64)
    for v in range(1, rows):
        edges = g.out_edges(v)
        k = len(edges)
        if k:
            c = np.cumsum([e.probability for e in edges])
            if abs(c[-1] - 1.0) <= STOCHASTIC_SLACK:
                c[-1] = 1.0
            cum[:k, v] = c
            length[v, :k] = [e.length for e in edges]
            target[v, :k] = [e.target for e in edges]
            ids[v, :k] = [e.id for e in edges]
    cum = cum[(cum < 1.0).any(axis=1)]
    return cum, width, length.ravel(), target.ravel(), ids.ravel()


def _draw_budget(g: WeightedDigraph, horizon: float) -> int:
    # One uniform per vertex decision; every full traversal advances at least
    # the minimum edge length, plus one final (partial or exit) decision.
    traversals = horizon / g.min_edge_length()
    if not traversals < _BATCH_DRAWS - 1:  # also an infinite or NaN horizon
        raise ValidationError(
            f"horizon {horizon!r} needs more than {_BATCH_DRAWS} uniform draws per walk"
        )
    return int(traversals) + 2


def simulate_walk(g: WeightedDigraph, start: int, horizon: float, seed: int) -> WalkOutcome:
    """One walk from ``start`` up to time ``horizon``, deterministic in ``seed``.

    It is run 0 of the ensemble with the same seed, so it consumes the same
    uniforms and ends in the same state.
    """
    [(status, edge_id, vertex, t)] = _ensemble_outcomes(g, start, horizon, 1, seed)
    t = float(t[0])
    if status[0] == 0:
        return WalkOutcome(status=AT_VERTEX, path_length_traversed=t, vertex=int(vertex[0]))
    if status[0] == 2:
        return WalkOutcome(status=EXITED, path_length_traversed=t, exit_time=t)
    return WalkOutcome(
        status=ON_EDGE,
        path_length_traversed=horizon,
        edge_id=int(edge_id[0]),
        offset=horizon - t,
    )


def _ensemble_outcomes(g: WeightedDigraph, start: int, horizon: float, n: int, seed: int):
    """Yield (status_codes, edge_ids, vertices, times) arrays batch by batch.

    Status codes: 0 at-vertex, 1 on-edge, 2 exited.  ``vertices`` and
    ``times`` hold each walker's last vertex and its arrival time there (the
    departure vertex and time of an on-edge walker).
    """
    if horizon < 0.0:
        raise ValidationError("horizon must be >= 0")
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    g.out_edges(start)  # IndexOutOfRange for a start outside 1..n
    cum, width, length, target, ids = _walk_tables(g)
    k_draws = _draw_budget(g, horizon)
    batch = max(1, _BATCH_DRAWS // k_draws)
    rng = np.random.Generator(np.random.Philox(seed))
    done = 0
    while done < n:
        size = min(batch, n - done)
        uniforms = rng.random((size, k_draws))
        # Final states, written when a walker stops; at T = 0 nobody moves.
        status = np.zeros(size, dtype=np.int8)
        edge_id = np.full(size, -1, dtype=np.int64)
        vertex = np.full(size, start, dtype=np.int64)
        times = np.zeros(size)
        # The walkers still moving: their indices (None while that is all of
        # them), vertices and arrival times.
        idx = None
        v = np.full(size if horizon > 0.0 else 0, start, dtype=np.int64)
        t = np.zeros(v.size)
        for step in range(k_draws):
            if v.size == 0:
                break
            u = uniforms[:, step] if idx is None else uniforms[idx, step]
            slot = v * width
            for column in cum:  # the edge searchsorted(side="right") picks
                slot += column.take(v) <= u
            arrival = t + length.take(slot)
            stop = arrival >= horizon
            if stop.any():
                if idx is None:
                    idx = np.arange(size)
                who, a, e = idx[stop], arrival[stop], ids[slot[stop]]
                over = a > horizon  # on the edge or exited; else at a vertex at T
                status[who] = np.where(e < 0, 2, over)
                edge_id[who] = np.where(over, e, -1)
                vertex[who] = np.where(over, v[stop], target[slot[stop]])
                times[who] = np.where(over, t[stop], a)
                keep = np.flatnonzero(~stop)
                idx, slot, arrival = idx.take(keep), slot.take(keep), arrival.take(keep)
            v, t = target.take(slot), arrival
        if v.size:
            raise AssertionError("draw budget exhausted; walk logic violated its bound")
        yield status, edge_id, vertex, times
        done += size


def _estimate(successes: int, n: int, seed: int) -> EnsembleEstimate:
    p = successes / n
    return EnsembleEstimate(
        point_estimate=p,
        standard_error=math.sqrt(p * (1.0 - p) / n),
        sample_count=n,
        seed=seed,
    )


def ensemble_edge_probability(
    g: WeightedDigraph, start: int, edge_ref, horizon: float, n: int, seed: int
) -> EnsembleEstimate:
    """Fraction of n walkers sitting on the given edge at the horizon."""
    alpha = g.edge(edge_ref)
    hits = 0
    for status, edge_id, _, _ in _ensemble_outcomes(g, start, horizon, n, seed):
        hits += int(((status == 1) & (edge_id == alpha.id)).sum())
    return _estimate(hits, n, seed)


def ensemble_survival(
    g: WeightedDigraph, start: int, horizon: float, n: int, seed: int
) -> EnsembleEstimate:
    """Fraction of n walkers that never left the graph by the horizon."""
    hits = 0
    for status, _, _, _ in _ensemble_outcomes(g, start, horizon, n, seed):
        hits += int((status != 2).sum())
    return _estimate(hits, n, seed)
