"""Interval splitting sequences, substitution-rule graphs, Pascal region sums.

A volume-conserving substitution rule dissects each prototile into rescaled
prototile copies; its incidence data forms a weighted digraph with one vertex
per prototile and an edge of length -log(scale) per child tile.  In one
dimension the rule drives a splitting procedure on [0, 1]: repeatedly replace
the longest interval (ties broken leftmost) by its children.  Interval
counts of the threshold form of that procedure coincide with on-edge path
counts of the associated graph, which is the bridge the tests exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PropertyViolated, ValidationError, VolumeNotConserved
from .graph import Edge, WeightedDigraph, _whole_number
from .spectral import MatrixFunction, Mode, solve_lambda

VOLUME_TOLERANCE = 1e-12

# Threshold split trees deeper than this are refused.  A level costs ~20 us
# and ~0.75 KB in numpy arrays even when one interval splits, so 1e5 levels
# take ~2 s and ~75 MB; a scale just below 1 could ask for 1e13.
MAX_SPLIT_DEPTH = 100_000


@dataclass(frozen=True)
class SplitRule:
    """Per-prototile children as (child type, scale) with sum scale^d = 1.

    Types are 1-based prototile indices.  The one-dimensional single-prototile
    case (classic interval splitting with ratios summing to 1) is what
    :meth:`from_ratios` builds.
    """

    dimension: int
    prototiles: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise VolumeNotConserved(f"dimension must be >= 1, got {self.dimension}")
        if not self.prototiles:
            raise VolumeNotConserved("rule needs at least one prototile")
        n = len(self.prototiles)
        for t, children in enumerate(self.prototiles, start=1):
            if not children:
                raise VolumeNotConserved(f"prototile {t} has no children")
            for child_type, scale in children:
                if not 1 <= child_type <= n:
                    raise VolumeNotConserved(
                        f"prototile {t}: child type {child_type} outside 1..{n}"
                    )
                if not 0.0 < scale <= 1.0:
                    raise VolumeNotConserved(
                        f"prototile {t}: scale {scale!r} outside (0, 1]"
                    )
            total = sum(scale**self.dimension for _, scale in children)
            if abs(total - 1.0) > VOLUME_TOLERANCE:
                raise VolumeNotConserved(
                    f"prototile {t}: child volumes sum to {total!r}, not 1"
                )

    @classmethod
    def from_ratios(cls, ratios) -> "SplitRule":
        """One-dimensional rule splitting a single interval type by ``ratios``."""
        children = tuple((1, float(r)) for r in ratios)
        return cls(dimension=1, prototiles=(children,))

    @classmethod
    def from_dict(cls, spec: dict) -> "SplitRule":
        """Parse the rule JSON schema.

        ``{"dimension": d, "prototiles": [{"children": [{"type": t,
        "scale": s | {"ratio_of": [p, q]}}]}]}``
        """
        where = "rule"
        try:
            prototiles = []
            for t, proto in enumerate(spec["prototiles"], start=1):
                where = f"prototile {t}"
                children = []
                for c, child in enumerate(proto["children"], start=1):
                    where = f"prototile {t}, child {c}"
                    scale = child["scale"]
                    if isinstance(scale, dict):
                        p, q = scale["ratio_of"]
                        scale = p / q
                    children.append((_whole_number(child["type"]), float(scale)))
                prototiles.append(tuple(children))
            where = "rule"
            dimension = _whole_number(spec["dimension"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: bad or missing field: {exc}") from exc
        return cls(dimension=dimension, prototiles=tuple(prototiles))


@dataclass(frozen=True, eq=False)
class Partition:
    """Tiling of [0, 1] after ``generation`` splits, as arrays sorted by left end."""

    left: np.ndarray
    length: np.ndarray
    type: np.ndarray
    generation: int

    @property
    def interval_count(self) -> int:
        return len(self.left)

    def lengths(self) -> np.ndarray:
        return self.length

    def right_endpoints(self) -> np.ndarray:
        return self.left + self.length


def _levels(rule: SplitRule, splits):
    """Levels (left, length, type, parent index) of the tree splitting where ``splits(length)``."""
    if rule.dimension != 1:
        raise VolumeNotConserved(
            f"interval splitting needs a 1-dimensional rule, got d={rule.dimension}"
        )
    level, start = (np.zeros(1), np.ones(1), np.ones(1, int), np.zeros(1, int)), 0
    while len(level[0]):
        yield level
        split = splits(level[1]).nonzero()[0]
        columns = []
        for t, children in enumerate(rule.prototiles, start=1):
            parent = split[level[2][split] == t]
            at, size_of = level[0][parent], level[1][parent]
            for child_type, scale in children:
                size = size_of * scale
                columns.append((at, size, np.full(len(parent), child_type), start + parent))
                at = at + size  # one sibling at a time, so every float equals a loop's
        start += len(level[0])
        level = tuple(map(np.concatenate, zip(*columns)))


def _partition(tree, split) -> Partition:
    """The children of the nodes marked in ``split`` that are not split themselves."""
    leaf = np.flatnonzero(~split & np.append(True, split[tree[3][1:]]))
    leaf = leaf[np.argsort(tree[0][leaf])]  # disjoint leaves: distinct left ends
    return Partition(*(c[leaf] for c in tree[:3]), generation=int(np.count_nonzero(split)))


def kakutani_partition(rule: SplitRule, n: int) -> Partition:
    """Partition of [0, 1] after n rounds of splitting the longest interval.

    Ties break leftmost, so commensurable rules stay deterministic.  No child
    is longer than its parent and a scale-1 child ties it one level down, so
    the n first tree nodes under (-length, left, depth) split.  The tree grows
    level by level, splitting nodes no shorter than the n-th longest found, and
    stops once n nodes come before the best node left to split.
    """
    if n < 0:
        raise ValidationError("generation must be >= 0")
    # At least n nodes exceed c = 1/(n (k - 1) + 1), k the most children of a
    # prototile: the leaves below them sum to 1, and a split adds < k leaves.
    cutoff = 1.0 / (n * max(max(map(len, rule.prototiles)) - 1, 1) + 1)
    levels, size, floor, depth_due, size_due = [], 0, np.nextafter(cutoff, 2.0), 0, 0
    for level in _levels(rule, lambda length: length >= floor):
        levels.append(level)
        size += len(level[0])
        if size <= n or len(levels) <= depth_due and size < size_due:
            continue
        # Check again once the depth grows by an eighth or the node count doubles.
        depth_due, size_due = len(levels) + len(levels) // 8, 2 * size
        left, length = (np.concatenate([lv[c] for lv in levels]) for c in (0, 1))
        top = level[1].max()  # the best node left to split, if not below the floor
        first = level[0][level[1] == top].min()
        if top < floor or np.count_nonzero((length > top) | (length == top) & (left <= first)) > n:
            break  # (the count includes that node itself)
        floor = max(floor, np.partition(length, size - n)[size - n])
    tree = left, length, _, _ = [np.concatenate(c) for c in zip(*levels)]
    inner = np.flatnonzero(length >= floor)
    split = np.zeros(len(left), dtype=bool)
    split[inner[np.lexsort((left[inner], -length[inner]))[:n]]] = True
    return _partition(tree, split)


def kakutani_threshold_partition(rule: SplitRule, x: float) -> Partition:
    """Split every interval of length strictly greater than e^(-x).

    Splitting is order-independent here, and the interval count equals the
    total number of length-x paths onto edges of the associated graph
    (exactly, away from the countable set of boundary x values).  Scale-1
    children that form a cycle never shrink an interval, so they are refused.
    So is a tree that may be deeper than ``MAX_SPLIT_DEPTH`` levels.
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise ValidationError("threshold exponent must be finite and >= 0")
    step = {t: c for t, kids in enumerate(rule.prototiles, start=1) for c, s in kids if s == 1.0}
    for _ in rule.prototiles:
        step = {t: c for t, c in step.items() if c in step}
    if step:
        raise ValidationError("scale-1 children form a cycle, so splitting never ends")
    # Acyclic scale-1 chains take fewer than P levels, P prototiles, so a
    # path shrinks by the largest scale s* < 1 (one exists, or the chains
    # would cycle) at least once every P levels, and a split node is longer
    # than e^(-x): at most P (ceil(x / -log s*) + 1) levels in all.
    shrink = -math.log(max(s for kids in rule.prototiles for _, s in kids if s < 1.0))
    depth = len(rule.prototiles) * (math.ceil(min(x / shrink, MAX_SPLIT_DEPTH)) + 1)
    if depth > MAX_SPLIT_DEPTH:
        raise ValidationError(
            f"threshold exponent {x!r} may need more than {MAX_SPLIT_DEPTH} split levels"
        )
    cutoff = math.exp(-x)
    tree = [np.concatenate(c) for c in zip(*_levels(rule, lambda length: length > cutoff))]
    return _partition(tree, tree[1] > cutoff)


def discrepancy(partition: Partition) -> float:
    """Star discrepancy of the right endpoints against the uniform law.

    For sorted points x_1 <= ... <= x_k this is
    max_i max(i/k - x_i, x_i - (i-1)/k), computed exactly.
    """
    points = np.sort(partition.right_endpoints())
    k = len(points)
    up = np.arange(1, k + 1) / k
    down = np.arange(0, k) / k
    return float(np.max(np.maximum(up - points, points - down)))


def substitution_graph(rule: SplitRule, dimension: int | None = None) -> WeightedDigraph:
    """Graph of a substitution rule: one edge of length -log(scale) per child.

    Scale-1 children would produce zero-length edges and are rejected by
    graph validation; volume conservation in the stated dimension is checked
    up front.
    """
    dimension = rule.dimension if dimension is None else dimension
    if dimension != rule.dimension:
        # Re-validate the scale data in the requested dimension.
        SplitRule(dimension=dimension, prototiles=rule.prototiles)
    ends = [(s, t, c) for s, kids in enumerate(rule.prototiles, start=1) for t, c in kids]
    edges = [Edge(k, s, t, -math.log(c)) for k, (s, t, c) in enumerate(ends)]
    return WeightedDigraph(vertex_count=len(rule.prototiles), edges=tuple(edges))


@dataclass(frozen=True)
class SubstitutionReport:
    """Checked spectral facts of a substitution graph."""

    dimension: int
    lam: float
    lambda_residual: float
    eigenvector_residual: float


def verify_substitution_properties(
    g: WeightedDigraph, dimension: int, tol_lambda: float = 1e-10, tol_vector: float = 1e-10
) -> SubstitutionReport:
    """Check that the critical exponent equals the dimension and M(d) 1 = 1.

    Volume conservation makes every row of M(d) sum to 1, so the all-ones
    vector is the dominant eigenvector with eigenvalue 1.  Raises
    PropertyViolated with both residuals when either check fails.
    """
    sol = solve_lambda(MatrixFunction(g, Mode.COUNTING))
    lam_res = abs(sol.lam - dimension)
    m = MatrixFunction(g, Mode.COUNTING).evaluate(float(dimension))
    ones = np.ones(g.vertex_count)
    vec_res = float(np.max(np.abs(m @ ones - ones)))
    if lam_res > tol_lambda or vec_res > tol_vector:
        raise PropertyViolated(
            f"substitution graph fails d={dimension}: "
            f"|lam - d| = {lam_res:g}, |M(d) 1 - 1| = {vec_res:g}",
            residuals={"lambda": lam_res, "eigenvector": vec_res},
        )
    return SubstitutionReport(dimension, sol.lam, lam_res, vec_res)


def pascal_region_count(a: int, b: int, x: float) -> int:
    """Sum of binomial coefficients C(m+k, k) over the lattice m*a + k*b <= x.

    Equals the number of paths of length at most x on the one-vertex graph
    with two loops of lengths a and b (each path is an interleaving of m
    a-loops and k b-loops).
    """
    if a < 1 or b < 1:
        raise ValidationError("loop lengths a, b must be positive integers")
    total = 0
    m = 0
    while m * a <= x:
        k = 0
        while m * a + k * b <= x:
            total += math.comb(m + k, k)
            k += 1
        m += 1
    return total
