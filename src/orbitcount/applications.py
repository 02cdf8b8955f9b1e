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

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PropertyViolated, ValidationError, VolumeNotConserved
from .graph import Edge, WeightedDigraph, _whole_number
from .spectral import MatrixFunction, Mode, solve_lambda

VOLUME_TOLERANCE = 1e-12


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


@dataclass(frozen=True)
class Interval:
    left: float
    length: float
    type: int


@dataclass(frozen=True)
class Partition:
    """Ordered tiling of [0, 1] after ``generation`` splits."""

    intervals: tuple[Interval, ...]
    generation: int

    @property
    def interval_count(self) -> int:
        return len(self.intervals)

    def lengths(self) -> np.ndarray:
        return np.array([iv.length for iv in self.intervals])

    def right_endpoints(self) -> np.ndarray:
        return np.array([iv.left + iv.length for iv in self.intervals])


def _require_interval_rule(rule: SplitRule):
    if rule.dimension != 1:
        raise VolumeNotConserved(
            f"interval splitting needs a 1-dimensional rule, got d={rule.dimension}"
        )


def _children(rule: SplitRule, interval: Interval) -> list[Interval]:
    out = []
    left = interval.left
    for child_type, scale in rule.prototiles[interval.type - 1]:
        size = interval.length * scale
        out.append(Interval(left=left, length=size, type=child_type))
        left += size
    return out


def kakutani_partition(rule: SplitRule, n: int) -> Partition:
    """Partition of [0, 1] after n rounds of splitting the longest interval.

    Ties on the maximal length break to the leftmost interval, which keeps
    the procedure deterministic for commensurable rules.  A heap keyed on
    (-length, left) finds that interval, so the partition costs O(n log n).
    """
    _require_interval_rule(rule)
    if n < 0:
        raise ValidationError("generation must be >= 0")
    seq = itertools.count()  # never reached while left endpoints differ
    heap = [(-1.0, 0.0, next(seq), Interval(left=0.0, length=1.0, type=1))]
    for _ in range(n):
        best = heapq.heappop(heap)[-1]
        for child in _children(rule, best):
            heapq.heappush(heap, (-child.length, child.left, next(seq), child))
    intervals = sorted((item[-1] for item in heap), key=lambda iv: iv.left)
    return Partition(intervals=tuple(intervals), generation=n)


def kakutani_threshold_partition(rule: SplitRule, x: float) -> Partition:
    """Split every interval of length strictly greater than e^(-x).

    Splitting is order-independent here, and the interval count equals the
    total number of length-x paths onto edges of the associated graph
    (exactly, away from the countable set of boundary x values).
    """
    _require_interval_rule(rule)
    if x < 0.0:
        raise ValidationError("threshold exponent must be >= 0")
    cutoff = math.exp(-x)
    out = []
    splits = 0
    stack = [Interval(left=0.0, length=1.0, type=1)]
    while stack:
        interval = stack.pop()
        if interval.length > cutoff:
            splits += 1
            stack.extend(_children(rule, interval))
        else:
            out.append(interval)
    out.sort(key=lambda iv: iv.left)
    return Partition(intervals=tuple(out), generation=splits)


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
    if dimension is None:
        dimension = rule.dimension
    if dimension != rule.dimension:
        # Re-validate the scale data in the requested dimension.
        SplitRule(dimension=dimension, prototiles=rule.prototiles)
    edges = []
    for source, children in enumerate(rule.prototiles, start=1):
        for child_type, scale in children:
            edges.append(
                Edge(
                    id=len(edges),
                    source=source,
                    target=child_type,
                    length=-math.log(scale),
                )
            )
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
    return SubstitutionReport(
        dimension=dimension,
        lam=sol.lam,
        lambda_residual=lam_res,
        eigenvector_residual=vec_res,
    )


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
