"""Monte Carlo simulation of the constant-speed random walk.

A walker starts at a vertex at time 0 and advances at speed 1.  At each
vertex it draws one uniform variate: the outgoing edges partition [0, sum p)
and the residual mass 1 - sum p means the walker leaves the graph on the
spot.  Each walker ends with one outcome code: the id of the edge it is on
at the horizon, -1 if it left the graph first, or a private at-vertex code
if it arrived at a vertex exactly at the horizon.  Edge occupancy follows
the half-open convention, matching the exact oracle.

Randomness comes from the counter-based Philox generator keyed by the caller
seed.  Ensemble run r consumes the uniform block [r*K, (r+1)*K) of that
stream (K = the per-run draw budget), which makes runs independent,
reproducible bit-for-bit, and insensitive to batching.  A horizon whose K
exceeds the uniforms held at once is rejected before any draw.

Batches run concurrently, one thread per usable CPU (numpy releases the
interpreter lock in the Philox fill and the array loops of a step).  Each
batch builds its own generator and jumps it straight to its first walker's
block, so the outcomes do not depend on the CPU count or the batch size.
Batches shrink as threads are added, so the uniforms held at once stay
within the single-thread budget, and are cut equal, a whole number per
thread, so that no thread idles while another walks the last batch.

One step moves every walker at once, whatever its vertex.  Padded tables
give each vertex a row of cumulative probabilities (+inf past its out-degree)
and a row of slots (its out-edges, then an exit slot of length +inf), so the
chosen slot is the row start plus the count of cumulative entries <= u:
the comparison ``searchsorted(side="right")`` makes.  Walkers that stop are
compacted out of the moving set, and only their outcome codes are written.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MissingProbabilities, ValidationError
from .graph import WeightedDigraph

# Per-vertex probability sums within this of 1 are treated as exactly
# stochastic, so the exit branch is provably never taken.
STOCHASTIC_SLACK = 1e-12

_BATCH_DRAWS = 1 << 21  # uniforms held in memory at once, over all threads

# Outcome code of a walker sitting at a vertex exactly at the horizon; edge
# ids are >= 0 and the exit slot's id is -1.
_AT_VERTEX = -2


@dataclass(frozen=True)
class EnsembleEstimate:
    """Bernoulli frequency estimate with its binomial standard error."""

    point_estimate: float
    standard_error: float
    sample_count: int
    seed: int


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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _walk_batch(tables, start: int, horizon: float, k_draws: int, seed: int, first: int, size: int):
    """Outcome codes of walkers ``first`` .. ``first + size - 1``, one int64 each.

    Walker r reads the uniforms [r*K, (r+1)*K) of the seed's Philox stream.
    ``advance(d)`` skips 4d doubles, so the batch jumps to the block of
    ``first`` and drops the remainder of its offset modulo 4.
    """
    cum, width, length, target, ids = tables
    rng = np.random.Generator(np.random.Philox(seed))
    jump, skip = divmod(first * k_draws, 4)
    rng.bit_generator.advance(jump)
    uniforms = rng.random(skip + size * k_draws)[skip:].reshape(size, k_draws)
    # Outcome codes, written when a walker stops; at T = 0 nobody moves.
    final = np.full(size, _AT_VERTEX, dtype=np.int64)
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
            # Past T: on the edge, or exited (slot id -1); else at a vertex.
            final[idx[stop]] = np.where(arrival[stop] > horizon, ids[slot[stop]], _AT_VERTEX)
            keep = np.flatnonzero(~stop)
            idx, slot, arrival = idx.take(keep), slot.take(keep), arrival.take(keep)
        v, t = target.take(slot), arrival
    if v.size:
        raise AssertionError("draw budget exhausted; walk logic violated its bound")
    return final


def _ensemble_outcomes(g: WeightedDigraph, start: int, horizon: float, n: int, seed: int):
    """Yield one int64 array of outcome codes per batch, in walker order.

    A code is the id of the edge the walker is on at the horizon, -1 if it
    left the graph, or ``_AT_VERTEX`` if it arrived at a vertex exactly at
    the horizon (as every walker does at T = 0).
    """
    if horizon < 0.0:
        raise ValidationError("horizon must be >= 0")
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    g.out_edges(start)  # IndexOutOfRange for a start outside 1..n
    tables = _walk_tables(g)
    k_draws = _draw_budget(g, horizon)
    cpus = _usable_cpus()
    fit = _BATCH_DRAWS // k_draws  # walkers whose uniforms fit in memory at once
    # Each thread holds one batch, at most its share of the uniforms (or one
    # walker), so no more threads than such batches or than walkers that fit.
    workers = min(cpus, -(-n // max(1, fit // cpus)), fit)
    # Equal batches, in rounds of one per thread, so no thread idles at the end.
    rounds = -(-n // (max(1, fit // workers) * workers))
    batch = -(-n // (rounds * workers))
    firsts = range(0, n, batch)

    def walk(first):
        return _walk_batch(tables, start, horizon, k_draws, seed, first, min(batch, n - first))

    if workers == 1:
        yield from map(walk, firsts)
        return
    # Imported here, not at the top: it loads logging, ~7 ms at every start.
    from concurrent.futures import ThreadPoolExecutor

    # map yields in submission order, cancels the batches not yet started
    # when one raises or the caller stops, and re-raises the worker's
    # exception; leaving the block joins the threads.
    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(walk, firsts)


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
    for final in _ensemble_outcomes(g, start, horizon, n, seed):
        hits += int((final == alpha.id).sum())
    return _estimate(hits, n, seed)


def ensemble_survival(
    g: WeightedDigraph, start: int, horizon: float, n: int, seed: int
) -> EnsembleEstimate:
    """Fraction of n walkers that never left the graph by the horizon."""
    hits = 0
    for final in _ensemble_outcomes(g, start, horizon, n, seed):
        hits += int((final != -1).sum())
    return _estimate(hits, n, seed)
