"""Command-line surface: subcommands, formats, determinism, exit codes.

Claims covered:
    - analyze prints the exponent, Q, Perron data, and the ratio verdict
      with 12 significant digits
    - count/prob/walk emit the documented CSV schemas and their ratio
      columns approach 1
    - kakutani and subst cover the partitions, discrepancy table and rule
      verification; laplace covers values and the residue scan
    - outputs are byte-for-byte deterministic given the same invocation;
      analyze, count, prob, walk and laplace outputs are frozen as golden
      bytes
    - exit codes: 1 validation (also from checks inside the library), 2
      numerical failure, 3 budget overflow; malformed graph and rule files
      (fractional or boolean vertex counts, endpoints, types and dimensions
      among them), bad --alpha ratios, fractional --n generations, vertex
      indices outside the graph and a family without its --to or --edge end
      in exit 1 with one diagnostic line, not a traceback
    - python -m orbitcount runs the same CLI
    - a parsed-then-serialized graph reparses identically
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitcount
from orbitcount import build_graph, graph_to_dict
from orbitcount.cli import run
from orbitcount.spectral import MatrixFunction, Mode, solve_lambda

from conftest import cofactor_adjugate, ring_spec, two_vertex_spec


@pytest.fixture
def two_vertex_path(tmp_path):
    path = tmp_path / "two_vertex.json"
    path.write_text(json.dumps(two_vertex_spec()))
    return str(path)


@pytest.fixture
def stochastic_path(tmp_path):
    path = tmp_path / "stoch.json"
    path.write_text(json.dumps(two_vertex_spec(probability=0.5)))
    return str(path)


def rule_spec():
    """The 1/3 : 2/3 interval splitting rule."""
    return {
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


@pytest.fixture
def rule_path(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule_spec()))
    return str(path)


def test_analyze_reports_exponent_and_verdict(two_vertex_path, capsys):
    assert run(["analyze", two_vertex_path]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out and "incommensurable_witness" in out
    assert "0.988724326063" in out  # Q_11 at 12 significant digits


def test_analyze_csv_and_jsonl(two_vertex_path, capsys):
    assert run(["analyze", two_vertex_path, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("key,value")
    assert run(["analyze", two_vertex_path, "--format", "jsonl"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert json.loads(line)["key"] == "vertices"


def test_count_family_b_table(two_vertex_path, capsys):
    assert run(
        ["count", two_vertex_path, "--family", "B", "--from", "1", "--edge", "gamma2",
         "--x", "6,8,10"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,exact,asymptotic,ratio"
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(0.9 <= r <= 1.1 for r in ratios)


def test_count_family_a_requires_target(two_vertex_path, capsys):
    assert run(["count", two_vertex_path, "--family", "A", "--from", "1", "--x", "4"]) == 1


def test_prob_survival_stochastic(stochastic_path, capsys):
    assert run(
        ["prob", stochastic_path, "--family", "survival", "--from", "1",
         "--T", "3.3,7.7"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T,exact,asymptotic,ratio,window"
    for line in lines[1:]:
        t, exact, asym, ratio, window = line.split(",")
        assert float(exact) == pytest.approx(1.0, abs=1e-12)
        assert float(asym) == 1.0


def test_prob_family_c_window(stochastic_path, capsys):
    assert run(
        ["prob", stochastic_path, "--family", "C", "--from", "1", "--to", "1",
         "--T", str(2 * math.log(2)), "--window", "0.01"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(",0.01")


def test_walk_deterministic_output(stochastic_path, capsys):
    argv = ["walk", stochastic_path, "--from", "1", "--survival", "--T", "2.5,5.0",
            "-n", "20000", "--seed", "77"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "T,estimate,stderr,n,seed"


def test_walk_edge_estimate(stochastic_path, capsys):
    assert run(
        ["walk", stochastic_path, "--from", "1", "--edge", "gamma2", "--T", "6.4",
         "-n", "20000", "--seed", "5"]
    ) == 0
    line = capsys.readouterr().out.splitlines()[1]
    estimate = float(line.split(",")[1])
    assert 0.2 < estimate < 0.35


def test_kakutani_discrepancy_table(capsys):
    assert run(["kakutani", "--alpha", "1/3", "--n", "20,200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,intervals,discrepancy"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [20, 200]
    assert [int(r[1]) for r in rows] == [21, 201]
    assert float(rows[1][2]) < float(rows[0][2])


def test_kakutani_partition_dump(capsys):
    assert run(["kakutani", "--alpha", "1/3", "--partition", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "left,length,type"
    assert len(lines) == 4
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_kakutani_threshold_dump(capsys):
    assert run(["kakutani", "--alpha", "1/3", "--threshold", str(math.log(2))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # three intervals


def test_kakutani_needs_rule(capsys):
    assert run(["kakutani"]) == 1


def test_walk_needs_estimand(stochastic_path, capsys):
    assert run(["walk", stochastic_path, "--from", "1", "--T", "2.5"]) == 1


def test_walk_unbounded_horizon_and_bad_start_exit_1(stochastic_path, capsys):
    # T = 1e300 would need ~2.5e300 uniform draws per walk; a start outside
    # 1..2 has nowhere to walk.  Both fail validation before any draw.
    base = ["walk", stochastic_path, "--survival", "-n", "10"]
    assert run([*base, "--from", "1", "--T", "1e300"]) == 1
    assert "uniform draws per walk" in capsys.readouterr().err
    assert run([*base, "--from", "3", "--T", "2.5"]) == 1
    assert "outside 1..2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["walk", "{g}", "--from", "1", "--survival", "--T", "2.5", "-n", "0"],
         "sample count must be >= 1"),
        (["prob", "{g}", "--family", "C", "--from", "1", "--to", "1", "--T", "2.5",
          "--window", "-0.5"],
         "window must be finite and >= 0"),
        (["prob", "{g}", "--family", "C", "--from", "1", "--to", "1", "--T", "2.5",
          "--window", "nan"],
         "window must be finite and >= 0"),
        (["prob", "{g}", "--family", "C", "--from", "1", "--to", "1", "--T", "3,5",
          "--window", "inf"],
         "window must be finite and >= 0"),
        (["kakutani", "--alpha", "1/3", "--threshold", "-1"],
         "threshold exponent must be >= 0"),
        (["count", "{g}", "--family", "A", "--from", "1", "--to", "3", "--x", "4"],
         "vertex 3 outside 1..2"),
        (["laplace", "{g}", "--family", "A", "--from", "3", "--to", "1", "--s", "2"],
         "vertex 3 outside 1..2"),
        (["laplace", "{g}", "--family", "D", "--from", "0", "--edge", "0", "--scan"],
         "vertex 0 outside 1..2"),
    ],
    ids=["walk-n0", "prob-negative-window", "prob-nan-window", "prob-inf-window",
         "kakutani-negative-threshold", "count-target-out-of-range",
         "laplace-start-out-of-range", "laplace-start-zero"],
)
def test_library_validation_exit_1(stochastic_path, capsys, argv, message):
    # These checks live in the walker, the oracle and the splitting code, not
    # in the argument parser; they still end in exit 1, not a traceback.
    assert run([a.format(g=stochastic_path) for a in argv]) == 1
    assert capsys.readouterr().err == f"orbitcount: {message}\n"


def _edge1(**fields):
    def change(spec):
        spec["edges"][1].update(fields)
    return change


def _child2(**fields):
    def change(spec):
        spec["prototiles"][0]["children"][1].update(fields)
    return change


# case: (input file kind, change to the valid input, argv, start of the message)
MALFORMED = {
    "graph-from-not-int": ("graph", _edge1(**{"from": "x"}), ["analyze", "{f}"], "edge 1:"),
    "graph-missing-length": (
        "graph", lambda spec: spec["edges"][1].pop("length"), ["analyze", "{f}"], "edge 1:"),
    "graph-edges-not-a-list": (
        "graph", lambda spec: spec.update(edges=5), ["analyze", "{f}"], "malformed graph spec"),
    "graph-vertices-fractional": (
        "graph", lambda spec: spec.update(vertices=2.5), ["analyze", "{f}"],
        "malformed graph spec"),
    "graph-from-fractional": ("graph", _edge1(**{"from": 1.9}), ["analyze", "{f}"], "edge 1:"),
    "graph-to-boolean": ("graph", _edge1(to=True), ["analyze", "{f}"], "edge 1:"),
    "subst-zero-denominator": (
        "rule", _child2(scale={"ratio_of": [1, 0]}), ["subst", "{f}"], "prototile 1, child 2:"),
    "subst-type-not-int": ("rule", _child2(type="x"), ["subst", "{f}"], "prototile 1, child 2:"),
    "subst-type-fractional": (
        "rule", _child2(type=1.7), ["subst", "{f}"], "prototile 1, child 2:"),
    "subst-dimension-fractional": (
        "rule", lambda spec: spec.update(dimension=1.5), ["subst", "{f}"], "rule:"),
    "kakutani-rule-type-boolean": (
        "rule", _child2(type=True), ["kakutani", "--rule", "{f}"], "prototile 1, child 2:"),
    "kakutani-rule-zero-denominator": (
        "rule", _child2(scale={"ratio_of": [1, 0]}), ["kakutani", "--rule", "{f}"],
        "prototile 1, child 2:"),
    "kakutani-rule-type-not-int": (
        "rule", _child2(type="x"), ["kakutani", "--rule", "{f}"], "prototile 1, child 2:"),
    "kakutani-alpha-zero-denominator": (None, None, ["kakutani", "--alpha", "1/0"], "bad ratio"),
    "kakutani-alpha-not-a-number": (None, None, ["kakutani", "--alpha", "abc"], "bad ratio"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exit_1(case, tmp_path, capsys):
    kind, change, argv, message = MALFORMED[case]
    path = tmp_path / "input.json"
    if kind is not None:
        spec = two_vertex_spec() if kind == "graph" else rule_spec()
        change(spec)
        path.write_text(json.dumps(spec))
    assert run([a.format(f=path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"orbitcount: {message}")


def test_kakutani_generations_must_be_whole(capsys):
    for grid in ("2.5", "20,2.5"):
        assert run(["kakutani", "--alpha", "1/3", "--n", grid]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "whole generations" in err
    assert run(["kakutani", "--alpha", "1/3", "--n", "2.0"]) == 0


def test_subst_verifies_rule(rule_path, capsys):
    assert run(["subst", rule_path]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out and "ok" in out


def test_subst_emit_graph_round_trips(rule_path, capsys):
    assert run(["subst", rule_path, "--emit-graph"]) == 0
    spec = json.loads(capsys.readouterr().out)
    g = build_graph(spec)
    assert g.vertex_count == 1 and g.edge_count == 2


def test_laplace_value_and_scan(two_vertex_path, capsys):
    assert run(
        ["laplace", two_vertex_path, "--family", "A", "--from", "1", "--to", "1", "--s", "2"]
    ) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert float(line.split(",")[1]) == pytest.approx(9 / 11, abs=1e-10)
    assert run(
        ["laplace", two_vertex_path, "--family", "A", "--from", "1", "--to", "1", "--scan"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epsilon,residue_estimate,residue_imag"
    last = float(lines[-1].split(",")[1])
    assert last == pytest.approx(6 / math.log(432), rel=1e-4)


def test_laplace_below_critical_line_is_validation_error(two_vertex_path, capsys):
    assert run(
        ["laplace", two_vertex_path, "--family", "A", "--from", "1", "--to", "1", "--s", "0.5"]
    ) == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(orbitcount.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-m", "orbitcount", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: orbitcount ")


def test_exit_code_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": 2, "edges": [
        {"from": 1, "to": 2, "length": 1.0}]}))
    assert run(["analyze", str(bad)]) == 1
    assert run(["analyze", str(tmp_path / "missing.json")]) == 1
    assert run(["count", str(bad), "--family", "A"]) == 1  # missing required args
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": 1, "edges": []}))
    assert run(["analyze", str(empty)]) == 1


def test_exit_code_volume_violation(rule_path, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    rule = json.loads(open(rule_path).read())
    rule["prototiles"][0]["children"][0]["scale"] = 0.3
    rule["prototiles"][0]["children"][1]["scale"] = 0.6
    broken.write_text(json.dumps(rule))
    assert run(["subst", str(broken)]) == 1


def test_exit_code_numerical(two_vertex_path, capsys, monkeypatch):
    # Volume validation precedes every honest PropertyViolated, so inject a
    # solver failure to pin the numerical exit code.
    from orbitcount import cli
    from orbitcount.errors import DidNotConverge

    def explode(f):
        raise DidNotConverge(200, "injected")

    monkeypatch.setattr(cli, "solve_lambda", explode)
    assert run(["analyze", two_vertex_path]) == 2


def test_exit_code_budget_overflow(two_vertex_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCOUNT_MAX_PATHS", "5")
    assert run(
        ["count", two_vertex_path, "--family", "A", "--from", "1", "--to", "1", "--x", "8"]
    ) == 3


def test_max_paths_flag_beats_env(two_vertex_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCOUNT_MAX_PATHS", "5")
    assert run(
        ["count", two_vertex_path, "--family", "A", "--from", "1", "--to", "1", "--x", "8",
         "--max-paths", "100000"]
    ) == 0


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (None, "abc", "ORBITCOUNT_MAX_PATHS must be an integer >= 1, got 'abc'"),
        (None, "1.5", "ORBITCOUNT_MAX_PATHS must be an integer >= 1, got '1.5'"),
        (None, "0", "ORBITCOUNT_MAX_PATHS must be an integer >= 1, got '0'"),
        (None, "-3", "ORBITCOUNT_MAX_PATHS must be an integer >= 1, got '-3'"),
        ("0", None, "--max-paths must be an integer >= 1, got '0'"),
        ("-5", "100", "--max-paths must be an integer >= 1, got '-5'"),
    ],
    ids=["env-text", "env-float", "env-zero", "env-negative", "flag-zero", "flag-negative"],
)
def test_max_paths_must_be_a_positive_integer(two_vertex_path, capsys, monkeypatch,
                                              flag, env, message):
    if env is None:
        monkeypatch.delenv("ORBITCOUNT_MAX_PATHS", raising=False)
    else:
        monkeypatch.setenv("ORBITCOUNT_MAX_PATHS", env)
    argv = ["count", two_vertex_path, "--family", "A", "--from", "1", "--to", "1", "--x", "8"]
    if flag is not None:
        argv += ["--max-paths", flag]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"orbitcount: {message}\n"


def test_parser_is_built_once_and_reused(two_vertex_path, capsys, monkeypatch):
    from orbitcount import cli

    argv = ["count", two_vertex_path, "--family", "A", "--from", "1", "--to", "2",
            "--x", "2.5,7.1"]
    cli._build_parser.cache_clear()
    assert run(argv) == 0
    first = capsys.readouterr()
    # A call that fails to parse leaves the shared parser as it was.
    assert run(["count", two_vertex_path, "--family", "Z", "--from", "1"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert run(argv) == 0
    assert capsys.readouterr() == first
    assert cli._build_parser.cache_info().misses == 1


def test_output_file(two_vertex_path, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert run(
        ["count", two_vertex_path, "--family", "A", "--from", "1", "--to", "1",
         "--x", "4", "-o", str(target), "--format", "csv"]
    ) == 0
    assert target.read_text().startswith("x,exact")


def test_round_trip_serialization(two_vertex_stochastic):
    assert build_graph(graph_to_dict(two_vertex_stochastic)) == two_vertex_stochastic


# -- golden bytes for count/prob ------------------------------------------------------

# Ring plus two random out-edges per vertex, lengths from U[0.5, 2]: generic
# lengths, so almost every length class holds the reorderings of one edge set.
GENERIC_SPEC = {
    "vertices": 4,
    "edges": [
        {"from": 1, "to": 2, "length": 1.0095138206366618, "probability": 0.3},
        {"from": 1, "to": 1, "length": 0.8834983783108115, "probability": 0.3},
        {"from": 1, "to": 4, "length": 1.1051526177560878, "probability": 0.3},
        {"from": 2, "to": 3, "length": 1.9222622478498568, "probability": 0.3},
        {"from": 2, "to": 3, "length": 1.8733861641164173, "probability": 0.3},
        {"from": 2, "to": 3, "length": 1.2596851422792832, "probability": 0.3},
        {"from": 3, "to": 4, "length": 0.951545271177209, "probability": 0.3},
        {"from": 3, "to": 1, "length": 1.1935009823652876, "probability": 0.3},
        {"from": 3, "to": 2, "length": 0.5751083284098392, "probability": 0.3},
        {"from": 4, "to": 1, "length": 0.9088656526175877, "probability": 0.3},
        {"from": 4, "to": 1, "length": 1.869509806768901, "probability": 0.3},
        {"from": 4, "to": 3, "length": 1.1609089970923865, "probability": 0.3},
    ],
}
GOLDEN_GRAPHS = {
    "lattice": two_vertex_spec(),
    "p09": two_vertex_spec(probability=0.45),
    "generic": GENERIC_SPEC,
}
# Unsorted on purpose: the tables come back sorted by grid point.
X = "14.3,4.1,18.9,6.7,10.45,8.05,12.6,16.2"
T = "9.3,2.2,5.15,12.8,3.6,7.4,11.05,1.1"
GX = "7.35,2.1,3.45,9.9,4.7,5.55,6.8,8.6"

# Exact stdout of count/prob queries, frozen before the oracle answered a
# whole grid from one expansion; any change to a digit is a regression.
GOLDEN = [
    (
        'lattice',
        ['count', '--family', 'A', '--from', '1', '--to', '1', '--x', X],
        (
            'x,exact,asymptotic,ratio\n'
            '4.1,58,59.6599101891,0.972177125579\n'
            '6.7,740,803.245401978,0.921262665404\n'
            '8.05,3041,3098.45932101,0.981455518678\n'
            '10.45,34480,34154.8636037,1.00951947576\n'
            '12.6,307844,293214.667613,1.04989290784\n'
            '14.3,1563552,1605041.66499,0.974150412479\n'
            '16.2,10956298,10731139.1476,1.02098182209\n'
            '18.9,172670372,159676471.619,1.08137642478\n'
        ),
    ),
    (
        'lattice',
        ['count', '--family', 'A', '--from', '2', '--to', '1', '--x', X, '--format', 'pretty'],
        (
            'x      exact      asymptotic     ratio         \n'
            '4.1    62         59.6599101891  1.0392238239  \n'
            '6.7    758        803.245401978  0.943671757265\n'
            '8.05   3141       3098.45932101  1.01372962321 \n'
            '10.45  33186      34154.8636037  0.971633217016\n'
            '12.6   309374     293214.667613  1.05511092784 \n'
            '14.3   1512055    1605041.66499  0.942065887121\n'
            '16.2   11022165   10731139.1476  1.02711975387 \n'
            '18.9   168869609  159676471.619  1.05757352532 \n'
        ),
    ),
    (
        'lattice',
        ['count', '--family', 'B', '--from', '1', '--edge', 'gamma2', '--x', X],
        (
            'x,exact,asymptotic,ratio\n'
            '4.1,19,19.8866367297,0.955415451\n'
            '6.7,245,267.748467326,0.915037917665\n'
            '8.05,991,1032.81977367,0.959509127599\n'
            '10.45,11637,11384.9545346,1.02213846921\n'
            '12.6,100806,97738.2225376,1.03138769442\n'
            '14.3,537974,535013.888332,1.00553277538\n'
            '16.2,3604501,3577046.38254,1.00767521987\n'
            '18.9,58338991,53225490.5396,1.09607239705\n'
        ),
    ),
    (
        'lattice',
        ['count', '--family', 'B', '--from', '2', '--edge', 'alpha', '--x', X, '--format', 'jsonl'],
        (
            '{"x": 4.1, "exact": 33, "asymptotic": 29.8299550946, "ratio": 1.10627052221}\n'
            '{"x": 6.7, "exact": 386, "asymptotic": 401.622700989, "ratio": 0.961101050935}\n'
            '{"x": 8.05, "exact": 1600, "asymptotic": 1549.2296605, "ratio": 1.03277134488}\n'
            '{"x": 10.45, "exact": 16127, "asymptotic": 17077.4318018, "ratio": 0.944345741627}\n'
            '{"x": 12.6, "exact": 154049, "asymptotic": 146607.333806, "ratio": 1.05075916737}\n'
            '{"x": 14.3, "exact": 745202, "asymptotic": 802520.832497, "ratio": 0.928576517673}\n'
            '{"x": 16.2, "exact": 5505667, "asymptotic": 5365569.57381, "ratio": 1.02611044816}\n'
            '{"x": 18.9, "exact": 83311886, "asymptotic": 79838235.8094, "ratio": 1.04350860406}\n'
        ),
    ),
    (
        'p09',
        ['prob', '--family', 'C', '--from', '1', '--to', '2', '--window', '0.5', '--T', T],
        (
            'T,exact,asymptotic,ratio,window\n'
            '1.1,0.45,0.39270767831,1.14589050547,0.5\n'
            '2.2,0.18225,0.334000290684,0.545658207742,0.5\n'
            '3.6,0.217640671875,0.271797476404,0.800745741845,0.5\n'
            '5.15,0.108996265564,0.216348833024,0.503798721911,0.5\n'
            '7.4,0.0592654081128,0.155350616666,0.381494514697,0.5\n'
            '9.3,0.082043411637,0.117448307378,0.698549118916,0.5\n'
            '11.05,0.0623114739589,0.0907757783369,0.686432824929,0.5\n'
            '12.8,0.0336198192361,0.0701605848278,0.479183851142,0.5\n'
        ),
    ),
    (
        'p09',
        ['prob', '--family', 'C', '--from', '1', '--to', '1', '--T', '0,0.6931471805599453,2.5,4.4'],
        (
            'T,exact,asymptotic,ratio,window\n'
            '0,1,0.926545631058,1.07927765938,0\n'
            '0.69314718056,0.45,0.836670002165,0.537846461371,0\n'
            '2.5,0,0.641272830158,0,0\n'
            '4.4,0,0.484815638882,0,0\n'
        ),
    ),
    (
        'p09',
        ['prob', '--family', 'D', '--from', '1', '--edge', 'beta', '--T', T],
        (
            'T,exact,asymptotic,ratio,window\n'
            '1.1,0.293625,0.258777743073,1.1346609508,0\n'
            '2.2,0.2325965625,0.220092058757,1.05681487925,0\n'
            '3.6,0.191309533594,0.179103036181,1.06815349239,0\n'
            '5.15,0.141538982542,0.142564726433,0.992805065339,0\n'
            '7.4,0.106101968499,0.102369482916,1.03646092055,0\n'
            '9.3,0.0744271980087,0.0773934648841,0.961672902489,0\n'
            '11.05,0.0578536780615,0.0598173968607,0.967171443389,0\n'
            '12.8,0.0460305153628,0.0462328566443,0.995623431123,0\n'
        ),
    ),
    (
        'p09',
        ['prob', '--family', 'survival', '--from', '1', '--T', T],
        (
            'T,exact,asymptotic,ratio,window\n'
            '1.1,0.78975,0.802115355592,0.984584068232,0\n'
            '2.2,0.679336875,0.682204032991,0.995797213367,0\n'
            '3.6,0.543435328125,0.55515321313,0.978892520608,0\n'
            '5.15,0.441007387302,0.441897957992,0.997984668918,0\n'
            '7.4,0.321520458666,0.317307559823,1.01327702008,0\n'
            '9.3,0.237127801073,0.239891135415,0.988480881809,0\n'
            '11.05,0.182299486768,0.185411820907,0.983213938982,0\n'
            '12.8,0.144985145429,0.143304767276,1.01172590546,0\n'
        ),
    ),
    (
        'generic',
        ['count', '--family', 'A', '--from', '1', '--to', '3', '--x', GX],
        (
            'x,exact,asymptotic,ratio\n'
            '2.1,0,1.70346074919,0\n'
            '3.45,6,6.24865921059,0.960205989444\n'
            '4.7,18,20.8175726295,0.864654122761\n'
            '5.55,45,47.1875574463,0.953641223139\n'
            '6.8,157,157.206589645,0.998685871597\n'
            '7.35,277,266.952366948,1.03763829917\n'
            '8.6,866,889.358836877,0.973735194492\n'
            '9.9,3068,3109.037808,0.98680047959\n'
        ),
    ),
    (
        'generic',
        ['count', '--family', 'B', '--from', '2', '--edge', '4', '--x', GX],
        (
            'x,exact,asymptotic,ratio\n'
            '2.1,1,1.0706743611,0.93399079714\n'
            '3.45,3,3.92746308431,0.763851864576\n'
            '4.7,13,13.0844466392,0.993546028999\n'
            '5.55,27,29.6587449664,0.910355445943\n'
            '6.8,108,98.8088894962,1.09301906489\n'
            '7.35,167,167.78728542,0.995307836242\n'
            '8.6,560,558.987757665,1.00181084885\n'
            '9.9,1885,1954.12020517,0.964628478336\n'
        ),
    ),
    (
        'generic',
        ['prob', '--family', 'C', '--from', '1', '--to', '2', '--window', '0.75', '--T', GX],
        (
            'T,exact,asymptotic,ratio,window\n'
            '2.1,0.09,0.136128570703,0.6611396824,0.75\n'
            '3.45,0.108,0.120642819544,0.895204541875,0.75\n'
            '4.7,0.07155,0.107879442922,0.663240354806,0.75\n'
            '5.55,0.085617,0.0999806607131,0.8563356092,0.75\n'
            '6.8,0.0530712,0.0894032319663,0.593616123632,0.75\n'
            '7.35,0.06732315,0.0851109806161,0.791004280677,0.75\n'
            '8.6,0.056092905,0.0761066859194,0.737029924801,0.75\n'
            '9.9,0.05428026837,0.0677512818071,0.80116961513,0.75\n'
        ),
    ),
    (
        'generic',
        ['prob', '--family', 'D', '--from', '3', '--edge', '7', '--T', GX],
        (
            'T,exact,asymptotic,ratio,window\n'
            '2.1,0.027,0.0707042579054,0.38187233414,0\n'
            '3.45,0.054,0.0626610636063,0.861779179799,0\n'
            '4.7,0.05508,0.0560318522092,0.983012301546,0\n'
            '5.55,0.0415287,0.0519292782119,0.799716488077,0\n'
            '6.8,0.05069952,0.0464354333399,1.09182829476,0\n'
            '7.35,0.045290583,0.0442060670512,1.02453319241,0\n'
            '8.6,0.0405259848,0.0395292973532,1.02521389232,0\n'
            '9.9,0.03365644284,0.0351895570311,0.956432694228,0\n'
        ),
    ),
    (
        'generic',
        ['prob', '--family', 'survival', '--from', '1', '--T', GX],
        (
            'T,exact,asymptotic,ratio,window\n'
            '2.1,0.774,0.778850598718,0.993772106324,0\n'
            '3.45,0.6939,0.690249899396,1.00528808567,0\n'
            '4.7,0.623457,0.617225085635,1.0100966641,0\n'
            '5.55,0.573642,0.572032726522,1.00281325421,0\n'
            '6.8,0.51261579,0.511514668705,1.00215266807,0\n'
            '7.35,0.486092826,0.486956836968,0.998225692911,0\n'
            '8.6,0.4361421105,0.435439361397,1.00161388511,0\n'
            '9.9,0.387642508866,0.387634470317,1.00002073745,0\n'
        ),
    ),
]



@pytest.mark.parametrize(
    "graph, argv, expected",
    GOLDEN,
    ids=[f"{g}-{a[0]}-{a[2]}-{k}" for k, (g, a, _) in enumerate(GOLDEN)],
)
def test_count_prob_golden_bytes(graph, argv, expected, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GOLDEN_GRAPHS[graph]))
    assert run([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().out == expected


# -- golden bytes for analyze ---------------------------------------------------------

ANALYZE_GRAPHS = {
    "p09": two_vertex_spec(probability=0.45),
    "ring5": ring_spec(5, 5, 0.9),
}

# Exact stdout of analyze in all three modes, frozen while Q still came from
# the cofactor adjugate; any change to a digit is a regression.
ANALYZE_GOLDEN = [
    (
        'p09',
        ['--mode', 'counting'],
        (
            'key                 value                                  \n'
            'vertices            2                                      \n'
            'edges               4                                      \n'
            'strongly_connected  True                                   \n'
            'mode                counting                               \n'
            'lambda              1                                      \n'
            'mu_residual         6.66133814775e-16                      \n'
            'Q_row_1             0.988724326063 0.494362163031          \n'
            'Q_row_2             0.988724326063 0.494362163031          \n'
            'perron_mu           1                                      \n'
            'right_vector        0.5 0.5                                \n'
            'left_vector         1.33333333333 0.666666666667           \n'
            'incommensurability  incommensurable_witness                \n'
            'witness_lengths     0.69314718056 1.09861228867            \n'
            'closest_rational    190537/301994 residual 6.4552295953e-08\n'
        ),
    ),
    (
        'p09',
        ['--mode', 'probability'],
        (
            'key                 value                                  \n'
            'vertices            2                                      \n'
            'edges               4                                      \n'
            'strongly_connected  True                                   \n'
            'mode                probability                            \n'
            'lambda              -0.147203318833                        \n'
            'mu_residual         9.88542581126e-13                      \n'
            'Q_row_1             0.926545631058 0.461734090974          \n'
            'Q_row_2             0.932721040423 0.464811540084          \n'
            'perron_mu           1                                      \n'
            'right_vector        0.498339288963 0.501660711037          \n'
            'left_vector         1.33629718525 0.665929389142           \n'
            'incommensurability  incommensurable_witness                \n'
            'witness_lengths     0.69314718056 1.09861228867            \n'
            'closest_rational    190537/301994 residual 6.4552295953e-08\n'
        ),
    ),
    (
        'p09',
        ['--mode', 'edge'],
        (
            'key                 value                                                      \n'
            'vertices            2                                                          \n'
            'edges               4                                                          \n'
            'strongly_connected  True                                                       \n'
            'mode                edge                                                       \n'
            'lambda              -0.147203318833                                            \n'
            'mu_residual         9.88542581126e-13                                          \n'
            'Q_row_1             0.461734090972 0.464811540086 0.442588926848 0.490132113575\n'
            'Q_row_2             0.461734090974 0.464811540084 0.442588926848 0.490132113575\n'
            'Q_row_3             0.230100238586 0.231633852388 0.220559451107 0.244252088977\n'
            'Q_row_4             0.230100238586 0.231633852388 0.220559451109 0.244252088976\n'
            'perron_mu           1                                                          \n'
            'right_vector        0.33370278927 0.33370278927 0.16629721073 0.16629721073    \n'
            'left_vector         0.994474091783 1.00110224307 0.953239601894 1.05563721204  \n'
            'incommensurability  incommensurable_witness                                    \n'
            'witness_lengths     0.69314718056 1.09861228867                                \n'
            'closest_rational    190537/301994 residual 6.4552295953e-08                    \n'
        ),
    ),
    (
        'ring5',
        ['--mode', 'counting', '--format', 'csv'],
        (
            'key,value\n'
            'vertices,5\n'
            'edges,15\n'
            'strongly_connected,True\n'
            'mode,counting\n'
            'lambda,0.852884231685\n'
            'mu_residual,3.10862446895e-14\n'
            'Q_row_1,0.155095832341 0.0366088238621 0.0965702456693 0.182656583639 0.143505789014\n'
            'Q_row_2,0.175882893939 0.0415154023639 0.109513286208 0.207137535823 0.162739469449\n'
            'Q_row_3,0.246298655903 0.0581363404506 0.153357581242 0.29006627943 0.227893183298\n'
            'Q_row_4,0.253046312514 0.0597290574735 0.157559002046 0.298013004274 0.2341365992\n'
            'Q_row_5,0.220797549274 0.0521170586505 0.137479345865 0.260033589669 0.204297730266\n'
            'perron_mu,1\n'
            'right_vector,0.147552752102 0.167328835706 0.234319929614 0.240739414188 0.21005906839\n'
            'left_vector,1.2333057192 0.291109510558 0.767916419744 1.45246590996 1.14114291569\n'
            'incommensurability,incommensurable_witness\n'
            'witness_lengths,1.533246 2.122828\n'
            'closest_rational,17507/24239 residual 2.00000067707e-06\n'
        ),
    ),
    (
        'ring5',
        ['--mode', 'probability', '--format', 'csv'],
        (
            'key,value\n'
            'vertices,5\n'
            'edges,15\n'
            'strongly_connected,True\n'
            'mode,probability\n'
            'lambda,-0.0749571377028\n'
            'mu_residual,2.82773804372e-13\n'
            'Q_row_1,0.213799733291 0.0728173055045 0.0934377261238 0.216364106385 0.124187519607\n'
            'Q_row_2,0.211795551018 0.0721347080541 0.0925618305769 0.214335885395 0.123023372105\n'
            'Q_row_3,0.205848849518 0.0701093417299 0.0899629205711 0.208317857514 0.119569176453\n'
            'Q_row_4,0.206886324939 0.0704626918654 0.0904163324755 0.209367776702 0.120171803488\n'
            'Q_row_5,0.209659261229 0.0714071165654 0.0916281995702 0.212173972356 0.121782488752\n'
            'perron_mu,1\n'
            'right_vector,0.204009380256 0.202096973832 0.196422584678 0.197412551852 0.200058509381\n'
            'left_vector,1.4822052708 0.504819123779 0.647773914497 1.49998325049 0.860952412314\n'
            'incommensurability,incommensurable_witness\n'
            'witness_lengths,1.533246 2.122828\n'
            'closest_rational,17507/24239 residual 2.00000067707e-06\n'
        ),
    ),
    (
        'ring5',
        ['--mode', 'edge', '--format', 'csv'],
        (
            'key,value\n'
            'vertices,5\n'
            'edges,15\n'
            'strongly_connected,True\n'
            'mode,edge\n'
            'lambda,-0.0749571377028\n'
            'mu_residual,2.82995848977e-13\n'
            'Q_row_1,0.0721347080541 0.0716390476611 0.0700259775758 0.067558949137 0.0726066405466 0.0716299613343 0.067925763391 0.0671355012554 0.0707875848714 0.066910613552 0.0661597157886 0.0738159955984 0.0728332997188 0.0654494216131 0.0713765398973\n'
            'Q_row_2,0.0721347080539 0.0716390476613 0.0700259775758 0.067558949137 0.0726066405466 0.0716299613343 0.067925763391 0.0671355012554 0.0707875848714 0.066910613552 0.0661597157886 0.0738159955984 0.0728332997188 0.0654494216131 0.0713765398973\n'
            'Q_row_3,0.0721347080539 0.0716390476611 0.070025977576 0.067558949137 0.0726066405466 0.0716299613343 0.067925763391 0.0671355012554 0.0707875848714 0.066910613552 0.0661597157886 0.0738159955984 0.0728332997188 0.0654494216131 0.0713765398973\n'
            'Q_row_4,0.024568108636 0.0243992933915 0.0238499034769 0.0230096668653 0.0247288424777 0.0243961987111 0.0231345988525 0.0228654462279 0.0241092966495 0.0227888525094 0.022533106859 0.025140732497 0.0248060395347 0.022291190243 0.0243098867877\n'
            'Q_row_5,0.024568108636 0.0243992933915 0.0238499034769 0.0230096668651 0.0247288424779 0.0243961987111 0.0231345988525 0.0228654462279 0.0241092966495 0.0227888525094 0.022533106859 0.025140732497 0.0248060395347 0.022291190243 0.0243098867877\n'
            'Q_row_6,0.024568108636 0.0243992933915 0.0238499034769 0.0230096668651 0.0247288424777 0.0243961987113 0.0231345988525 0.0228654462279 0.0241092966495 0.0227888525094 0.022533106859 0.025140732497 0.0248060395347 0.022291190243 0.0243098867877\n'
            'Q_row_7,0.0315253110536 0.0313086906709 0.0306037243993 0.0295255493986 0.03173156154 0.0313047196383 0.0296858596539 0.0293404883295 0.0309365725876 0.0292422047849 0.0289140370249 0.0322600906657 0.0318306192765 0.0286036144083 0.0311939658854\n'
            'Q_row_8,0.0315253110536 0.0313086906709 0.0306037243993 0.0295255493986 0.03173156154 0.0313047196383 0.0296858596537 0.0293404883297 0.0309365725876 0.0292422047849 0.0289140370249 0.0322600906657 0.0318306192765 0.0286036144083 0.0311939658854\n'
            'Q_row_9,0.0315253110536 0.0313086906709 0.0306037243993 0.0295255493986 0.03173156154 0.0313047196383 0.0296858596537 0.0293404883295 0.0309365725878 0.0292422047849 0.0289140370249 0.0322600906657 0.0318306192765 0.0286036144083 0.0311939658854\n'
            'Q_row_10,0.0729999116798 0.0724983061993 0.0708658885055 0.0683692698457 0.0734775046612 0.0724891108884 0.0687404837712 0.0679407430131 0.0716366307294 0.0677131579447 0.0669532537058 0.0747013650517 0.0737068824461 0.0662344400656 0.0722326498447\n'
            'Q_row_11,0.0729999116798 0.0724983061993 0.0708658885055 0.0683692698457 0.0734775046612 0.0724891108884 0.0687404837712 0.0679407430131 0.0716366307294 0.0677131579445 0.066953253706 0.0747013650517 0.0737068824461 0.0662344400656 0.0722326498447\n'
            'Q_row_12,0.0729999116798 0.0724983061993 0.0708658885055 0.0683692698457 0.0734775046612 0.0724891108884 0.0687404837712 0.0679407430131 0.0716366307294 0.0677131579445 0.0669532537058 0.0747013650519 0.0737068824461 0.0662344400656 0.0722326498447\n'
            'Q_row_13,0.0419001012438 0.0416121923965 0.0406752259665 0.03924223006 0.0421742275244 0.0416069145209 0.0394552974556 0.0389962665067 0.041117612491 0.0388656384389 0.0384294726434 0.0428766924054 0.0423058845662 0.0380168918114 0.0414597123744\n'
            'Q_row_14,0.0419001012438 0.0416121923965 0.0406752259665 0.03924223006 0.0421742275244 0.0416069145209 0.0394552974556 0.0389962665067 0.041117612491 0.0388656384389 0.0384294726434 0.0428766924054 0.042305884566 0.0380168918116 0.0414597123744\n'
            'Q_row_15,0.0419001012438 0.0416121923965 0.0406752259665 0.03924223006 0.0421742275244 0.0416069145209 0.0394552974556 0.0389962665067 0.041117612491 0.0388656384389 0.0384294726434 0.0428766924054 0.042305884566 0.0380168918114 0.0414597123746\n'
            'perron_mu,1\n'
            'right_vector,0.0988980651054 0.0988980651054 0.0988980651054 0.0336833470731 0.0336833470731 0.0336833470731 0.04322180472 0.04322180472 0.04322180472 0.100084275833 0.100084275833 0.100084275833 0.0574458406019 0.0574458406019 0.0574458406019\n'
            'left_vector,1.03159164074 1.02450324832 1.00143488552 0.966154145034 1.03834070271 1.02437330562 0.971399921003 0.960098456908 1.01232655946 0.956882359122 0.946143841192 1.05563557498 1.0415821341 0.935985991334 1.02074914961\n'
            'incommensurability,incommensurable_witness\n'
            'witness_lengths,1.533246 2.122828\n'
            'closest_rational,17507/24239 residual 2.00000067707e-06\n'
        ),
    ),
]

RING20_FIXED_LINES = {
    'counting': [
        'key,value',
        'vertices,20',
        'edges,60',
        'strongly_connected,True',
        'mode,counting',
        'lambda,1.08428540597',
        'mu_residual,3.63264973657e-13',
        'perron_mu,1',
        'right_vector,0.0284054296601 0.0375798387634 0.036503038333 0.0304733092977 0.0375017651359 0.0709280696828 0.0896325795761 0.076511797696 0.0362882985945 0.0212698870419 0.019239250424 0.0489512673032 0.0331757409561 0.0383366150093 0.0820261875114 0.0772731443411 0.0558161154815 0.0515288471723 0.056273489127 0.0722853288928',
        'left_vector,1.22301233652 0.526144614083 0.074067406166 0.419531834116 0.669179892865 1.38075509363 1.79779973968 0.992898768697 1.43100207744 0.864685747641 0.70996826983 0.881293622442 1.17603597496 2.13944337059 1.13726618224 1.15160374639 0.594590516661 0.683062513597 0.651537103867 0.475635933147',
        'incommensurability,incommensurable_witness',
        'witness_lengths,1.318332 1.411529',
        'closest_rational,165787/177507 residual 9.99949406832e-07',
    ],
    'probability': [
        'key,value',
        'vertices,20',
        'edges,60',
        'strongly_connected,True',
        'mode,probability',
        'lambda,-0.0893084665749',
        'mu_residual,3.61932706028e-14',
        'perron_mu,1',
        'right_vector,0.0524509167422 0.0509368899312 0.049819102199 0.0508881328053 0.0503892516949 0.0489787626008 0.0475242974047 0.0474904493003 0.0504130103176 0.0519147166288 0.0525610916896 0.0491758089023 0.0516533514703 0.0530317099539 0.0488570908178 0.0485711756063 0.0488502567051 0.0489474323787 0.0494719630483 0.0480745898028',
        'left_vector,1.7284025077 0.675276157846 0.238086996321 0.667777009407 0.535957804416 0.996955975199 1.36353444212 0.736439888567 1.34463935601 0.68781474032 1.05617720054 1.05012138803 1.19330235706 2.85671503133 1.17330897715 0.744665585201 0.235900382751 0.312290628955 1.31220907848 0.925396922648',
        'incommensurability,incommensurable_witness',
        'witness_lengths,1.318332 1.411529',
        'closest_rational,165787/177507 residual 9.99949406832e-07',
    ],
    'edge': [
        'key,value',
        'vertices,20',
        'edges,60',
        'strongly_connected,True',
        'mode,edge',
        'lambda,-0.0893084665749',
        'mu_residual,3.61932706028e-14',
        'perron_mu,1',
        'right_vector,0.0290463811465 0.0290463811465 0.0290463811465 0.0113482412647 0.0113482412647 0.0113482412647 0.0040011314554 0.0040011314554 0.0040011314554 0.0112222155717 0.0112222155717 0.0112222155717 0.00900694982572 0.00900694982572 0.00900694982572 0.0167541779839 0.0167541779839 0.0167541779839 0.022914651498 0.022914651498 0.022914651498 0.0123761181782 0.0123761181782 0.0123761181782 0.0225971132681 0.0225971132681 0.0225971132681 0.011558956329 0.011558956329 0.011558956329 0.017749410446 0.017749410446 0.017749410446 0.0176476404951 0.0176476404951 0.0176476404951 0.0200538444788 0.0200538444788 0.0200538444788 0.0480080497785 0.0480080497785 0.0480080497785 0.0197178490548 0.0197178490548 0.0197178490548 0.0125143537562 0.0125143537562 0.0125143537562 0.00396438468439 0.00396438468439 0.00396438468439 0.00524814827373 0.00524814827373 0.00524814827373 0.0220521116277 0.0220521116277 0.0220521116277 0.0155516042168 0.0155516042168 0.0155516042168',
        'left_vector,1.05364562722 1.04245239605 1.02498943926 1.0452086914 1.04111563356 0.944671097418 0.963142630667 0.982148413989 1.01919051117 0.981391624496 1.06285397299 0.98384853614 1.0184585683 1.00517254808 0.974777138035 0.898425930285 0.941656255072 1.07439503218 0.906101855312 0.928800652322 0.993026878706 0.969147312614 0.94149151308 0.915276431993 0.98700828316 1.05147830383 0.961335422304 1.06878158472 1.01376997367 1.00662936074 1.03047471993 1.04187573437 1.05529295937 0.979342907965 0.995803005581 0.951056527862 1.10775395658 0.955631883751 1.01024256666 0.951349893091 1.07963912308 1.12465849838 0.913289361417 1.07289493333 0.921052853403 0.920846132267 1.07110360047 0.898274054403 0.99845385106 0.951891543254 0.956485090523 0.988330691688 0.980680077939 0.943602145634 0.913786183847 1.03219128529 0.997847600233 1.00809967858 0.938787863342 0.913786948054',
        'incommensurability,incommensurable_witness',
        'witness_lengths,1.318332 1.411529',
        'closest_rational,165787/177507 residual 9.99949406832e-07',
    ],
}


@pytest.mark.parametrize(
    "graph, argv, expected",
    ANALYZE_GOLDEN,
    ids=[f"{g}-{a[1]}" for g, a, _ in ANALYZE_GOLDEN],
)
def test_analyze_golden_bytes(graph, argv, expected, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(ANALYZE_GRAPHS[graph]))
    assert run(["analyze", str(path), *argv]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("mode", ["counting", "probability", "edge"])
def test_analyze_ring20_q_and_fixed_lines(mode, tmp_path, capsys):
    # At n >= 20 the last printed digit of some Q entries depends on how the
    # adjugate is computed, so Q is checked against the cofactor expansion
    # and every other line is frozen.
    spec = ring_spec(20, 20, 0.9)
    path = tmp_path / "ring20.json"
    path.write_text(json.dumps(spec))
    assert run(["analyze", str(path), "--mode", mode, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("Q_row_")] == RING20_FIXED_LINES[mode]
    q = np.array(
        [[float(v) for v in line.split(",")[1].split()]
         for line in lines if line.startswith("Q_row_")]
    )
    f = MatrixFunction(build_graph(spec), Mode(mode))
    lam = solve_lambda(f).lam
    adj = cofactor_adjugate(np.eye(f.dimension) - f.evaluate(lam))
    expected = adj / -np.trace(adj @ f.evaluate_derivative(lam))
    assert np.max(np.abs(q - expected)) <= 1e-10 * np.max(np.abs(expected))


# -- golden bytes for walk ------------------------------------------------------------

WALK_GRAPHS = {
    "p09": two_vertex_spec(probability=0.45),
    "p1": two_vertex_spec(probability=0.5),
    "ring20": ring_spec(20, 20, 0.9),
    "ring50": ring_spec(50, 50, 1.0),
}
# Unsorted, with T = 0 and the arrival time 2 log 2 of the path alpha alpha.
WALK_T = f"7.3,0,{2 * math.log(2)!r},2.5,10.3"

# Exact stdout of walk queries, frozen while each step still looped over the
# vertices; the walks are bit-identical, so any change to a digit is a
# regression.  At T = 30.3 a batch holds 27,594 two-vertex walkers, so the
# n = 60000 query spans three batches.
WALK_GOLDEN = [
    (
        'p09',
        ['--survival', '--T', WALK_T, '-n', '20000', '--seed', '7'],
        (
            'T,estimate,stderr,n,seed\n'
            '0,1,0,20000,7\n'
            '1.38629436112,0.79255,0.00286718064917,20000,7\n'
            '2.5,0.6342,0.00340580651241,20000,7\n'
            '7.3,0.3222,0.00330444518792,20000,7\n'
            '10.3,0.21055,0.00288286920879,20000,7\n'
        ),
    ),
    (
        'p09',
        ['--edge', 'beta', '--T', WALK_T, '-n', '20000', '--seed', '8', '--format', 'jsonl'],
        (
            '{"T": 0.0, "estimate": 0.0, "stderr": 0.0, "n": 20000, "seed": 8}\n'
            '{"T": 1.38629436112, "estimate": 0.09195, "stderr": 0.00204322291368, "n": 20000, "seed": 8}\n'
            '{"T": 2.5, "estimate": 0.19625, "stderr": 0.00280834415181, "n": 20000, "seed": 8}\n'
            '{"T": 7.3, "estimate": 0.10725, "stderr": 0.00218800636996, "n": 20000, "seed": 8}\n'
            '{"T": 10.3, "estimate": 0.06435, "stderr": 0.00173506595696, "n": 20000, "seed": 8}\n'
        ),
    ),
    (
        'p1',
        ['--edge', 'alpha', '--T', WALK_T, '-n', '20000', '--seed', '9'],
        (
            'T,estimate,stderr,n,seed\n'
            '0,0,0,20000,9\n'
            '1.38629436112,0.1244,0.00233371634952,20000,9\n'
            '2.5,0.31365,0.00328080536987,20000,9\n'
            '7.3,0.33475,0.00333685808434,20000,9\n'
            '10.3,0.317,0.00329022035736,20000,9\n'
        ),
    ),
    (
        'p1',
        ['--edge', 'gamma2', '--T', '10.3,30.3', '-n', '60000', '--seed', '31'],
        (
            'T,estimate,stderr,n,seed\n'
            '10.3,0.267233333333,0.00180656063137,60000,31\n'
            '30.3,0.256966666667,0.00178388526765,60000,31\n'
        ),
    ),
    (
        'ring20',
        ['--survival', '--T', '0,4.5,8.3,12.1', '-n', '20000', '--seed', '5'],
        (
            'T,estimate,stderr,n,seed\n'
            '0,1,0,20000,5\n'
            '4.5,0.65,0.00337268439081,20000,5\n'
            '8.3,0.46395,0.00352633235459,20000,5\n'
            '12.1,0.334,0.00333499625187,20000,5\n'
        ),
    ),
    (
        'ring50',
        ['--edge', '0', '--T', '5.5,11.3', '-n', '20000', '--seed', '6', '--format', 'pretty'],
        (
            'T     estimate  stderr             n      seed\n'
            '5.5   0.01065   0.000725829783765  20000  6   \n'
            '11.3  0.00775   0.000620078120078  20000  6   \n'
        ),
    ),
]


@pytest.mark.parametrize(
    "graph, argv, expected",
    WALK_GOLDEN,
    ids=[f"{g}-{a[0]}-{k}" for k, (g, a, _) in enumerate(WALK_GOLDEN)],
)
def test_walk_golden_bytes(graph, argv, expected, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(WALK_GRAPHS[graph]))
    assert run(["walk", str(path), "--from", "1", *argv]) == 0
    assert capsys.readouterr().out == expected


# -- golden bytes for laplace ---------------------------------------------------------

LAPLACE_GRAPHS = {
    "p1": two_vertex_spec(probability=0.5),
    "p09": two_vertex_spec(probability=0.45),
    "ring20": ring_spec(20, 20, 0.9),
}

# Exact stdout of laplace for every family at a real point, a complex point
# and the pole-residue scan, frozen while each family's factor was written out
# twice (once in its estimator, once in the transform); any change to a digit
# is a regression.
LAPLACE_GOLDEN = [
    (
        'p1',
        ['--family', 'A', '--from', '1', '--to', '2', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,0.0945667422866,0,1\n'
        ),
    ),
    (
        'p1',
        ['--family', 'A', '--from', '1', '--to', '2', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,-0.0187004832808,0.0119936677591,1\n'
        ),
    ),
    (
        'p1',
        ['--family', 'A', '--from', '1', '--to', '2', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.488920235202,0\n'
            '0.001,0.493813443719,0\n'
            '0.0001,0.494307245396,0\n'
            '1e-05,0.494356670802,0\n'
            '1e-06,0.494361613828,0\n'
        ),
    ),
    (
        'p1',
        ['--family', 'B', '--from', '2', '--edge', 'beta', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,0.188060239731,0,1\n'
        ),
    ),
    (
        'p1',
        ['--family', 'B', '--from', '2', '--edge', 'beta', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,-0.0438299645057,-0.0280824011217,1\n'
        ),
    ),
    (
        'p1',
        ['--family', 'B', '--from', '2', '--edge', 'beta', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.492578963329,0\n'
            '0.001,0.494183623208,0\n'
            '0.0001,0.494344306852,0\n'
            '1e-05,0.494360377383,0\n'
            '1e-06,0.49436198449,0\n'
        ),
    ),
    (
        'p09',
        ['--family', 'C', '--from', '1', '--to', '1', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,1.10477252853,0,-0.147203318833\n'
        ),
    ),
    (
        'p09',
        ['--family', 'C', '--from', '1', '--to', '1', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,0.948409664633,-0.0124953945195,-0.147203318833\n'
        ),
    ),
    (
        'p09',
        ['--family', 'C', '--from', '1', '--to', '1', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.932448246003,0\n'
            '0.001,0.927135093744,0\n'
            '0.0001,0.926604581909,0\n'
            '1e-05,0.926551651982,0\n'
            '1e-06,0.926547492306,0\n'
        ),
    ),
    (
        'p09',
        ['--family', 'D', '--from', '1', '--edge', 'gamma2', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,0.0148043426023,0,-0.147203318833\n'
        ),
    ),
    (
        'p09',
        ['--family', 'D', '--from', '1', '--edge', 'gamma2', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,-0.0039941819361,0.00276925263264,-0.147203318833\n'
        ),
    ),
    (
        'p09',
        ['--family', 'D', '--from', '1', '--edge', 'gamma2', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.246228831631,0\n'
            '0.001,0.247610575136,0\n'
            '0.0001,0.247749054941,0\n'
            '1e-05,0.247762936248,0\n'
            '1e-06,0.247764627445,0\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'A', '--from', '3', '--to', '17', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,1.00708402111e-05,0,1.08428540597\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'A', '--from', '3', '--to', '17', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,-1.0278652343e-07,-2.47419175117e-07,1.08428540597\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'A', '--from', '3', '--to', '17', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.0213986674862,0\n'
            '0.001,0.0225153696263,0\n'
            '0.0001,0.0226303177353,0\n'
            '1e-05,0.0226418468281,0\n'
            '1e-06,0.0226430083739,0\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'B', '--from', '3', '--edge', '7', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,0.365371083288,0,1.08428540597\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'B', '--from', '3', '--edge', '7', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,0.118626754897,-0.170524966529,1.08428540597\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'B', '--from', '3', '--edge', '7', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.00772331589348,0\n'
            '0.001,0.00243420777603,0\n'
            '0.0001,0.00190355657204,0\n'
            '1e-05,0.00185047415969,0\n'
            '1e-06,0.00184516642115,0\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'C', '--from', '3', '--to', '17', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,3.43814608063e-08,0,-0.0893084665749\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'C', '--from', '3', '--to', '17', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,1.80384381535e-09,-1.67712868892e-09,-0.0893084665749\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'C', '--from', '3', '--to', '17', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.00941997127594,0\n'
            '0.001,0.00980233698707,0\n'
            '0.0001,0.00984139978881,0\n'
            '1e-05,0.0098453144652,0\n'
            '1e-06,0.00984570623329,0\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'D', '--from', '3', '--edge', '7', '--s', '2.5'],
        (
            's,value,value_imag,lambda\n'
            '2.5,0.109611294286,0,-0.0893084665749\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'D', '--from', '3', '--edge', '7', '--s', '3+4j'],
        (
            's,value,value_imag,lambda\n'
            '3+4j,0.0355880260311,-0.0511574897208,-0.0893084665749\n'
        ),
    ),
    (
        'ring20',
        ['--family', 'D', '--from', '3', '--edge', '7', '--scan'],
        (
            'epsilon,residue_estimate,residue_imag\n'
            '0.01,0.00592394403307,0\n'
            '0.001,0.00333733000983,0\n'
            '0.0001,0.00307778911236,0\n'
            '1e-05,0.00305182627943,0\n'
            '1e-06,0.00304922997576,0\n'
        ),
    ),
]


@pytest.mark.parametrize(
    "graph, argv, expected",
    LAPLACE_GOLDEN,
    ids=[f"{g}-{a[1]}-{a[-1]}" for g, a, _ in LAPLACE_GOLDEN],
)
def test_laplace_golden_bytes(graph, argv, expected, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(LAPLACE_GRAPHS[graph]))
    assert run(["laplace", str(path), *argv]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "A", "--x", "4"],
        ["count", "--family", "B", "--x", "4"],
        ["prob", "--family", "C", "--T", "4"],
        ["prob", "--family", "D", "--T", "4"],
        ["laplace", "--family", "A", "--s", "2"],
        ["laplace", "--family", "B", "--s", "2"],
        ["laplace", "--family", "C", "--s", "2"],
        ["laplace", "--family", "D", "--scan"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2]}",
)
def test_family_without_its_second_index_exit_1(argv, stochastic_path, capsys):
    assert run([argv[0], stochastic_path, "--from", "1", *argv[1:]]) == 1
    flag = "--to" if argv[2] in ("A", "C") else "--edge"
    assert capsys.readouterr() == ("", f"orbitcount: family {argv[2]} needs {flag}\n")
