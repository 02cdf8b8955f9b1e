"""Monte Carlo simulation of the constant-speed random walk.

A walker starts at a vertex at time 0 and advances at speed 1.  At each
vertex it draws one uniform variate: the outgoing edges partition [0, sum p)
and the residual mass 1 - sum p means the walker leaves the graph on the
spot.  Vertex arrival at exactly the horizon reports an at-vertex outcome;
edge occupancy follows the half-open convention, matching the exact oracle.

Randomness comes from the counter-based Philox generator keyed by the caller
seed.  Ensemble run r consumes the uniform block [r*K, (r+1)*K) of that
stream (K = the per-run draw budget), which makes runs independent,
reproducible bit-for-bit, and insensitive to batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingProbabilities
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


def _vertex_tables(g: WeightedDigraph):
    if not g.has_probabilities:
        raise MissingProbabilities("the walk needs a probability-annotated graph")
    tables = {}
    for v in range(1, g.vertex_count + 1):
        edges = g.out_edges(v)
        cum = np.cumsum([e.probability for e in edges]) if edges else np.zeros(0)
        if len(cum) and abs(cum[-1] - 1.0) <= STOCHASTIC_SLACK:
            cum[-1] = 1.0
        tables[v] = (
            cum,
            np.array([e.length for e in edges]),
            np.array([e.target for e in edges], dtype=np.int64),
            np.array([e.id for e in edges], dtype=np.int64),
        )
    return tables


def _draw_budget(g: WeightedDigraph, horizon: float) -> int:
    # One uniform per vertex decision; every full traversal advances at least
    # the minimum edge length, plus one final (partial or exit) decision.
    return int(horizon / g.min_edge_length()) + 2


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
        raise ValueError("horizon must be >= 0")
    if n < 1:
        raise ValueError("sample count must be >= 1")
    tables = _vertex_tables(g)
    k_draws = _draw_budget(g, horizon)
    batch = max(1, _BATCH_DRAWS // k_draws)
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
