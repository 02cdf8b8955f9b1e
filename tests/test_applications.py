"""Splitting sequences, substitution graphs, and Pascal region sums.

Claims covered:
    - the 1/3 splitting sequence reproduces the first partitions by hand,
      and every partition tiles [0, 1] to within 1e-12
    - the longest-interval partitions equal those of a literal
      longest-leftmost scan, with every split tied (1/2) and untied (1/3)
    - both partitions equal the one-interval-at-a-time heap and stack
      references bit for bit (left ends, lengths, types and split counts)
      for 1/2, 1/3, 0.21 and 0.3 splits, a three-child rule, a two-prototile
      rule and a rule with a scale-1 child, at n = 0..500, 2000 and 20000
      and at thresholds 0..9.5, and for 0.01 and 0.001 splits up to n = 2000
    - a rule whose scale-1 children cycle is refused by the threshold form,
      while the n-split form equals the heap reference on it
    - a few splits of a rule whose long child is nearly the whole interval
      (scale 1 - 1e-4, 1 - 1e-6, 1 - 1e-13) finish within a timeout
    - threshold partitions match the on-edge counts of the associated graph
      exactly at random thresholds, and measure is conserved at every x
    - star discrepancy matches closed forms (single point, uniform grid) and
      decreases along the splitting sequence
    - substitution graphs carry lengths -log(scale), reject volume
      violations, and satisfy exponent = dimension with the flat eigenvector
    - Pascal region sums equal two-loop path counts exactly over the whole
      (a, b) <= 3, x <= 12 range
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitcount
from orbitcount import build_graph
from orbitcount.applications import (
    Partition,
    SplitRule,
    discrepancy,
    kakutani_partition,
    kakutani_threshold_partition,
    pascal_region_count,
    substitution_graph,
    verify_substitution_properties,
)
from orbitcount.errors import PropertyViolated, ValidationError, VolumeNotConserved
from orbitcount.oracle import count_edge_hits_exact, count_paths_exact

from conftest import heap_kakutani_partition, stack_threshold_partition


@pytest.fixture
def third_rule():
    return SplitRule.from_ratios([1 / 3, 2 / 3])


# -- splitting sequence ------------------------------------------------------------


def test_first_partitions_by_hand(third_rule):
    assert kakutani_partition(third_rule, 0).interval_count == 1
    p1 = kakutani_partition(third_rule, 1)
    assert sorted(p1.length) == pytest.approx([1 / 3, 2 / 3])
    p2 = kakutani_partition(third_rule, 2)
    assert sorted(p2.length) == pytest.approx(
        [2 / 9, 1 / 3, 4 / 9]
    )


def test_partition_lengths_always_sum_to_one(third_rule):
    for n in (0, 1, 7, 60, 200):
        part = kakutani_partition(third_rule, n)
        assert part.interval_count == n + 1
        assert float(part.lengths().sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(part.left) > 0)


def test_ties_break_leftmost():
    rule = SplitRule.from_ratios([0.5, 0.5])
    p2 = kakutani_partition(rule, 2)
    assert p2.length.tolist() == pytest.approx([0.25, 0.25, 0.5])


def _quadratic_partitions(rule, n):
    """Partitions 0..n by the literal rule: scan for the longest, leftmost first."""
    intervals = [(0.0, 1.0, 1)]
    yield list(intervals)
    for _ in range(n):
        best = max(range(len(intervals)), key=lambda k: (intervals[k][1], -k))
        left, length, prototile = intervals[best]
        children = []
        for child_type, scale in rule.prototiles[prototile - 1]:
            children.append((left, length * scale, child_type))
            left += length * scale
        intervals[best : best + 1] = children
        yield list(intervals)


def _rows(part):
    return list(zip(part.left.tolist(), part.length.tolist(), part.type.tolist()))


@pytest.mark.parametrize("alpha", [1 / 2, 1 / 3])
def test_partition_matches_quadratic_scan(alpha):
    # alpha = 1/2 ties every split, so the leftmost rule decides each step.
    rule = SplitRule.from_ratios([alpha, 1.0 - alpha])
    for n, literal in enumerate(_quadratic_partitions(rule, 500)):
        if n % 7 == 0 or n == 500:
            assert _rows(kakutani_partition(rule, n)) == literal


# -- against the one-interval-at-a-time references ------------------------------------

REFERENCE_RULES = {
    "1/2": SplitRule.from_ratios([1 / 2, 1 / 2]),
    "1/3": SplitRule.from_ratios([1 / 3, 2 / 3]),
    "0.21": SplitRule.from_ratios([0.21, 0.79]),
    "0.3": SplitRule.from_ratios([0.3, 0.7]),
    "three-child": SplitRule.from_ratios([0.2, 0.5, 0.3]),
    "two-prototile": SplitRule(1, (((2, 0.4), (1, 0.6)), ((1, 0.25), (2, 0.75)))),
    # Prototile 1 becomes one prototile 2 of the same size, which halves into
    # two prototiles 1: each scale-1 child ties its parent on length and left.
    "scale-1-chain": SplitRule(1, (((2, 1.0),), ((1, 0.5), (1, 0.5)))),
}


@pytest.mark.parametrize("name", list(REFERENCE_RULES))
def test_partition_equals_heap_reference(name):
    rule = REFERENCE_RULES[name]
    for n in [*range(501), 2000, 20000]:
        part = kakutani_partition(rule, n)
        assert _rows(part) == heap_kakutani_partition(rule, n)
        assert part.generation == n


@pytest.mark.parametrize("name", list(REFERENCE_RULES))
def test_threshold_partition_equals_stack_reference(name):
    rule = REFERENCE_RULES[name]
    for x in np.arange(0.0, 9.75, 0.25):
        part = kakutani_threshold_partition(rule, float(x))
        assert (_rows(part), part.generation) == stack_threshold_partition(rule, float(x))


def test_scale_one_cycle_refused():
    # Prototiles 1 and 2 turn into each other at the same size: splitting
    # never shrinks an interval, so the threshold form could not finish.
    rule = SplitRule(1, (((2, 1.0),), ((1, 1.0),)))
    with pytest.raises(ValidationError, match="scale-1 children form a cycle"):
        kakutani_threshold_partition(rule, 1.0)


def test_split_deeper_than_the_limit_is_refused_at_once(monkeypatch):
    # Validation lets a scale within 1e-12 of 1 through; at x = 1 the only
    # child needs ~1e13 levels to shrink below e^(-1).
    with pytest.raises(ValidationError, match="may need more than 100000 split levels"):
        kakutani_threshold_partition(SplitRule(1, (((1, 1 - 1e-13),),)), 1.0)
    # Two prototiles, one a scale-1 step: 2 (ceil(x / -log 0.99) + 1) levels,
    # 200 at x = 0.99 and 202 at x = 1.
    monkeypatch.setattr(orbitcount.applications, "MAX_SPLIT_DEPTH", 200)
    rule = SplitRule(1, (((2, 0.01), (2, 0.99)), ((1, 1.0),)))
    part = kakutani_threshold_partition(rule, 0.99)
    assert (_rows(part), part.generation) == stack_threshold_partition(rule, 0.99)
    with pytest.raises(ValidationError, match="may need more than 200 split levels"):
        kakutani_threshold_partition(rule, 1.0)


SCALE_ONE_CYCLES = {
    "self": SplitRule(1, (((1, 1.0),),)),
    "pair": SplitRule(1, (((2, 1.0),), ((1, 1.0),))),
    "halves-then-pair": SplitRule(1, (((2, 0.5), (2, 0.5)), ((3, 1.0),), ((2, 1.0),))),
}


@pytest.mark.parametrize("name", list(SCALE_ONE_CYCLES))
def test_scale_one_cycle_partition_equals_heap_reference(name):
    # The n-split form stays finite on a cycle: its n splits are the first n
    # nodes of the endless same-size chain.
    rule = SCALE_ONE_CYCLES[name]
    for n in range(60):
        part = kakutani_partition(rule, n)
        assert (_rows(part), part.generation) == (heap_kakutani_partition(rule, n), n)


@pytest.mark.parametrize("alpha", [0.01, 0.001])
def test_skewed_rule_equals_heap_reference(alpha):
    # Deep, narrow trees: the split nodes run hundreds of levels down the
    # long child while the short children stay far below the n-th longest.
    rule = SplitRule.from_ratios([alpha, 1.0 - alpha])
    for n in [1, 2, 3, 10, 100, 777, 2000]:
        assert _rows(kakutani_partition(rule, n)) == heap_kakutani_partition(rule, n)


def _rows_in_child(rule, generations, timeout):
    """Partition rows for each n, computed in a child process under a timeout."""
    code = (
        "from orbitcount.applications import SplitRule, kakutani_partition\n"
        f"rule = SplitRule(1, {rule.prototiles!r})\n"
        f"for n in {list(generations)!r}:\n"
        "    p = kakutani_partition(rule, n)\n"
        "    print(list(zip(p.left.tolist(), p.length.tolist(), p.type.tolist())))\n"
    )
    src = str(Path(orbitcount.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert done.returncode == 0, done.stderr
    return [ast.literal_eval(line) for line in done.stdout.splitlines()]


@pytest.mark.parametrize(
    "rule, generations",
    [
        (SplitRule.from_ratios([1e-4, 1 - 1e-4]), [1]),
        (SplitRule.from_ratios([1e-6, 1 - 1e-6]), range(21)),
        (SplitRule(1, (((1, 1 - 1e-13),),)), range(6)),
    ],
    ids=["alpha-1e-4", "alpha-1e-6", "scale-1-minus-1e-13"],
)
def test_few_splits_of_a_nearly_whole_child_return_at_once(rule, generations):
    # The split tree down to 1/(n + 1) is thousands to 1e13 levels deep here,
    # but the first n splits all lie on the first n levels.
    rows = _rows_in_child(rule, generations, timeout=30)
    assert rows == [heap_kakutani_partition(rule, n) for n in generations]


# -- threshold form ------------------------------------------------------------------


def test_threshold_at_zero_is_trivial(third_rule):
    part = kakutani_threshold_partition(third_rule, 0.0)
    assert part.interval_count == 1


def test_threshold_log2_by_hand(third_rule):
    part = kakutani_threshold_partition(third_rule, math.log(2))
    assert sorted(part.length) == pytest.approx(
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
    trivial = Partition(np.array([0.0]), np.array([1.0]), np.array([1]), generation=0)
    assert discrepancy(trivial) == 1.0


def test_discrepancy_uniform_grid():
    k = 8
    grid = Partition(np.arange(k) / k, np.full(k, 1 / k), np.ones(k, int), generation=0)
    assert discrepancy(grid) == pytest.approx(1 / k)


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
