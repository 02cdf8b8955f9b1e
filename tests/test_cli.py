"""Command-line surface: subcommands, formats, determinism, exit codes.

Claims covered:
    - analyze prints the exponent, Q, Perron data, and the ratio verdict
      with 12 significant digits
    - count/prob/walk emit the documented CSV schemas and their ratio
      columns approach 1
    - kakutani and subst cover the partitions, discrepancy table and rule
      verification; laplace covers values and the residue scan
    - outputs are byte-for-byte deterministic given the same invocation
    - exit codes: 1 validation, 2 numerical failure, 3 budget overflow
    - a parsed-then-serialized graph reparses identically
"""

import json
import math

import pytest

from orbitcount import build_graph, graph_to_dict
from orbitcount.cli import run

from conftest import two_vertex_spec


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


@pytest.fixture
def rule_path(tmp_path):
    rule = {
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
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule))
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


def test_exit_code_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": 2, "edges": [
        {"from": 1, "to": 2, "length": 1.0}]}))
    assert run(["analyze", str(bad)]) == 1
    assert run(["analyze", str(tmp_path / "missing.json")]) == 1
    assert run(["count", str(bad), "--family", "A"]) == 1  # missing required args


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
