"""Splitting sequences, substitution graphs, and Pascal region sums.

Claims covered:
    - the 1/3 splitting sequence reproduces the first partitions by hand,
      and every partition tiles [0, 1] to within 1e-12
    - the heap-driven splitting gives exactly the partitions of a literal
      longest-leftmost scan, with every split tied (1/2) and untied (1/3)
    - threshold partitions match the on-edge counts of the associated graph
      exactly at random thresholds, and measure is conserved at every x
    - star discrepancy matches closed forms (single point, uniform grid) and
      decreases along the splitting sequence
    - substitution graphs carry lengths -log(scale), reject volume
      violations, and satisfy exponent = dimension with the flat eigenvector
    - Pascal region sums equal two-loop path counts exactly over the whole
      (a, b) <= 3, x <= 12 range
"""

import math

import numpy as np
import pytest

from orbitcount import build_graph
from orbitcount.applications import (
    Interval,
    Partition,
    SplitRule,
    discrepancy,
    kakutani_partition,
    kakutani_threshold_partition,
    pascal_region_count,
    substitution_graph,
    verify_substitution_properties,
)
from orbitcount.errors import PropertyViolated, VolumeNotConserved
from orbitcount.oracle import count_edge_hits_exact, count_paths_exact


@pytest.fixture
def third_rule():
    return SplitRule.from_ratios([1 / 3, 2 / 3])


# -- splitting sequence ------------------------------------------------------------


def test_first_partitions_by_hand(third_rule):
    assert kakutani_partition(third_rule, 0).interval_count == 1
    p1 = kakutani_partition(third_rule, 1)
    assert sorted(iv.length for iv in p1.intervals) == pytest.approx([1 / 3, 2 / 3])
    p2 = kakutani_partition(third_rule, 2)
    assert sorted(iv.length for iv in p2.intervals) == pytest.approx(
        [2 / 9, 1 / 3, 4 / 9]
    )


def test_partition_lengths_always_sum_to_one(third_rule):
    for n in (0, 1, 7, 60, 200):
        part = kakutani_partition(third_rule, n)
        assert part.interval_count == n + 1
        assert float(part.lengths().sum()) == pytest.approx(1.0, abs=1e-12)
        lefts = [iv.left for iv in part.intervals]
        assert all(a < b for a, b in zip(lefts, lefts[1:]))


def test_ties_break_leftmost():
    rule = SplitRule.from_ratios([0.5, 0.5])
    p2 = kakutani_partition(rule, 2)
    assert [iv.length for iv in p2.intervals] == pytest.approx([0.25, 0.25, 0.5])


def _quadratic_partitions(rule, n):
    """Partitions 0..n by the literal rule: scan for the longest, leftmost first."""
    intervals = [Interval(left=0.0, length=1.0, type=1)]
    yield tuple(intervals)
    for _ in range(n):
        best = max(range(len(intervals)), key=lambda k: (intervals[k].length, -k))
        parent = intervals[best]
        children, left = [], parent.left
        for child_type, scale in rule.prototiles[parent.type - 1]:
            children.append(Interval(left=left, length=parent.length * scale, type=child_type))
            left += parent.length * scale
        intervals[best : best + 1] = children
        yield tuple(intervals)


@pytest.mark.parametrize("alpha", [1 / 2, 1 / 3])
def test_partition_matches_quadratic_scan(alpha):
    # alpha = 1/2 ties every split, so the leftmost rule decides each step.
    rule = SplitRule.from_ratios([alpha, 1.0 - alpha])
    for n, literal in enumerate(_quadratic_partitions(rule, 500)):
        if n % 7 == 0 or n == 500:
            assert kakutani_partition(rule, n).intervals == literal


# -- threshold form ------------------------------------------------------------------


def test_threshold_at_zero_is_trivial(third_rule):
    part = kakutani_threshold_partition(third_rule, 0.0)
    assert part.interval_count == 1


def test_threshold_log2_by_hand(third_rule):
    part = kakutani_threshold_partition(third_rule, math.log(2))
    assert sorted(iv.length for iv in part.intervals) == pytest.approx(
        [2 / 9, 1 / 3, 4 / 9]
    )


def test_threshold_measure_conserved(third_rule):
    for x in np.linspace(0.0, 8.0, 9):
        part = kakutani_threshold_partition(third_rule, float(x))
        assert float(part.lengths().sum()) == pytest.approx(1.0, abs=1e-12)


def test_threshold_counts_equal_edge_hits(third_rule):
    g = substitution_graph(third_rule)
    rng = np.random.default_rng(314)
    for x in rng.uniform(0.0, 8.0, 20):
        count = kakutani_threshold_partition(third_rule, float(x)).interval_count
        hits = sum(count_edge_hits_exact(g, 1, e.id, float(x)) for e in g.edges)
        assert count == hits


def test_threshold_growth_rate_near_exponent(third_rule):
    xs = np.array([4.0, 5.0, 6.0, 7.0, 8.0])
    counts = [
        kakutani_threshold_partition(third_rule, float(x)).interval_count for x in xs
    ]
    slope = np.polyfit(xs, np.log(counts), 1)[0]
    assert abs(slope - 1.0) <= 0.05


# -- discrepancy ----------------------------------------------------------------------


def test_discrepancy_single_point():
    trivial = Partition(intervals=(Interval(0.0, 1.0, 1),), generation=0)
    assert discrepancy(trivial) == 1.0


def test_discrepancy_uniform_grid():
    k = 8
    intervals = tuple(Interval(i / k, 1 / k, 1) for i in range(k))
    assert discrepancy(Partition(intervals=intervals, generation=0)) == pytest.approx(
        1 / k
    )


def test_discrepancy_decreases_along_sequence(third_rule):
    d20 = discrepancy(kakutani_partition(third_rule, 20))
    d200 = discrepancy(kakutani_partition(third_rule, 200))
    d2000 = discrepancy(kakutani_partition(third_rule, 2000))
    assert d2000 < d200 < d20


# -- substitution rules ----------------------------------------------------------------


def test_rule_validation():
    with pytest.raises(VolumeNotConserved):
        SplitRule.from_ratios([1 / 3, 1 / 2])
    with pytest.raises(VolumeNotConserved):
        SplitRule(dimension=1, prototiles=(((2, 0.5), (1, 0.5)),))  # type 2 missing
    with pytest.raises(VolumeNotConserved):
        SplitRule(dimension=0, prototiles=(((1, 1.0),),))


def test_substitution_graph_third_rule(third_rule):
    g = substitution_graph(third_rule)
    assert g.vertex_count == 1
    assert sorted(e.length for e in g.edges) == pytest.approx(
        [math.log(1.5), math.log(3.0)]
    )


def test_substitution_graph_dimension_revalidates(third_rule):
    with pytest.raises(VolumeNotConserved):
        substitution_graph(third_rule, dimension=2)


def test_two_prototile_cycle_rule():
    scale = 1 / math.sqrt(2)
    rule = SplitRule(
        dimension=2,
        prototiles=(((2, scale), (2, scale)), ((1, scale), (1, scale))),
    )
    g = substitution_graph(rule)
    assert g.vertex_count == 2 and g.edge_count == 4
    assert all(e.length == pytest.approx(math.log(2) / 2) for e in g.edges)
    report = verify_substitution_properties(g, 2)
    assert report.lam == pytest.approx(2.0, abs=1e-10)


def test_verify_properties_third_rule(third_rule):
    report = verify_substitution_properties(substitution_graph(third_rule), 1)
    assert report.lam == pytest.approx(1.0, abs=1e-10)
    assert report.eigenvector_residual <= 1e-10


def test_verify_properties_negative_control(third_rule):
    g = substitution_graph(third_rule)
    stretched = build_graph(
        {
            "vertices": 1,
            "edges": [
                {"from": e.source, "to": e.target, "length": 1.05 * e.length}
                for e in g.edges
            ],
        }
    )
    with pytest.raises(PropertyViolated):
        verify_substitution_properties(stretched, 1)


def test_rule_from_dict_ratio_form():
    rule = SplitRule.from_dict(
        {
            "dimension": 1,
            "prototiles": [
                {
                    "children": [
                        {"type": 1, "scale": {"ratio_of": [1, 3]}},
                        {"type": 1, "scale": {"ratio_of": [2, 3]}},
                    ]
                }
            ],
        }
    )
    assert rule.prototiles[0][0][1] == pytest.approx(1 / 3)


# -- Pascal regions ---------------------------------------------------------------------


def test_pascal_small_cases(two_loops):
    assert pascal_region_count(1, 2, 5.0) == 20
    assert pascal_region_count(1, 2, 5.0) == count_paths_exact(two_loops, 1, 1, 5.0)
    assert pascal_region_count(1, 1, 10.0) == 2**11 - 1
    assert pascal_region_count(2, 3, 1.5) == 1  # below both loop lengths


def test_pascal_matches_two_loop_counts_full_range():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            g = build_graph(
                {
                    "vertices": 1,
                    "edges": [
                        {"from": 1, "to": 1, "length": float(a)},
                        {"from": 1, "to": 1, "length": float(b)},
                    ],
                }
            )
            for x in (0.0, 1.5, 4.0, 7.5, 12.0):
                assert pascal_region_count(a, b, x) == count_paths_exact(g, 1, 1, x)
