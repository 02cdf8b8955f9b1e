"""The three workloads: seeded inputs, query schedules and output checks.

A workload is a set of query classes.  Each class has a pool of queries
(one ``orbitcount`` argv each, with the check for its output), and the
workload's ``schedule`` interleaves the classes in a fixed cycle; the timed
loop walks the cycle, taking the next query of each pool in turn.  The class
shares in the cycle put ``query_p50_ms`` inside the class named in
``p50_class`` and ``query_tail_ms`` inside one class too; README.md names
both for each workload.

Every check raises :class:`CheckFailed`; every reference it uses comes from
``reference.py`` or from arithmetic written here, never from the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import graphs
import reference as ref

# Critical points (path lengths, path lengths plus an edge, window edges)
# closer than this to a grid time make the answer depend on float noise;
# such grid times are moved.
GRID_MARGIN = 1e-7
WALKERS = 300_000


class CheckFailed(Exception):
    """An output disagreed with its reference."""


@dataclass
class Query:
    cls: str
    argv: list[str]
    check: Callable[[str], None]
    # Walk queries must print identical bytes every time they repeat.
    repeat_identical: bool = False


@dataclass
class Workload:
    name: str
    schedule: list[str]
    pools: dict[str, list[Query]]
    graph_files: list[str]
    p50_class: str

    @property
    def warmup(self) -> Query:
        """A cheap query run untimed before the loop."""
        return self.pools[self.p50_class][0]

    def queries(self):
        """Endless closed-loop stream: the schedule cycle, pools in rotation."""
        position = dict.fromkeys(self.pools, 0)
        while True:
            for cls in self.schedule:
                pool = self.pools[cls]
                yield pool[position[cls] % len(pool)]
                position[cls] += 1

    def sample(self) -> list[Query]:
        """One query of every class, for the smoke mode."""
        return [pool[0] for pool in self.pools.values()]


# -- output parsing and comparison -----------------------------------------------


def parse_csv(out: str) -> list[dict[str, str]]:
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def parse_pretty(out: str) -> dict[str, str]:
    rows = {}
    for line in out.strip().splitlines()[1:]:
        key, _, value = line.strip().partition(" ")
        rows[key] = value.strip()
    return rows


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def require_close(got: float, want: float, rel: float, what: str, abs_tol: float = 0.0):
    require(
        abs(got - want) <= max(rel * abs(want), abs_tol),
        f"{what}: got {got!r}, reference {want!r} (rel tol {rel:g})",
    )


def exp_decay(s: float, length: float) -> float:
    return length if s == 0.0 else (1.0 - math.exp(-s * length)) / s


def off_critical(table: ref.PathTable, times, window: float = 0.0) -> list[float]:
    """Nudge each time forward until it is clear of every critical point."""
    out = []
    for t in times:
        t = round(float(t), 6)
        while table.distance_to_critical(t, window) < GRID_MARGIN:
            t = round(t + 0.0011, 6)
        out.append(t)
    return out


def grid_arg(values) -> str:
    return ",".join(repr(v) for v in values)


class _Files:
    """Writes the generated inputs; the program only ever sees these files."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.paths: list[str] = []

    def write(self, name: str, data: dict, graph: bool = True) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(data))
        if graph:
            self.paths.append(str(path))
        return str(path)


def _rotate(per_item: list[list[Query]]) -> list[Query]:
    """Interleave per-input query lists so consecutive queries vary input and kind."""
    out = []
    for k in range(max(len(q) for q in per_item)):
        for i, queries in enumerate(per_item):
            kinds = len(queries)
            out.append(queries[(k + i) % kinds])
    return out


# -- spectral-solve -----------------------------------------------------------------


def _check_analyze(spec: dict, mode: str) -> Callable[[str], None]:
    dim = len(spec["edges"]) if mode == "edge" else spec["vertices"]

    def check(out: str):
        kv = parse_pretty(out)
        require(int(kv["vertices"]) == spec["vertices"], "vertex count")
        require(int(kv["edges"]) == len(spec["edges"]), "edge count")
        require(kv["strongly_connected"] == "True", "strong connectivity")
        lam = float(kv["lambda"])
        rho = ref.spectral_radius(ref.matrix(spec, mode, lam))
        require(abs(rho - 1.0) <= 1e-10, f"spectral radius of M(lambda) is {rho!r}")
        q = np.array([[float(v) for v in kv[f"Q_row_{i + 1}"].split()] for i in range(dim)])
        want = ref.rank_one_q(spec, mode, lam)
        err = float(np.max(np.abs(q - want)))
        require(err <= 1e-8 * float(np.max(np.abs(want))), f"Q differs by {err:g}")

    return check


def _check_laplace_scan(spec: dict, i: int, j: int) -> Callable[[str], None]:
    lam = []  # the benchmark's own lambda, solved on first use

    def check(out: str):
        if not lam:
            lam.append(ref.critical_exponent(spec, "counting"))
        rows = parse_csv(out)
        require(len(rows) == 5, "scan length")
        for k, row in zip(range(2, 7), rows):
            eps = 10.0 ** (-k)
            require_close(float(row["epsilon"]), eps, 1e-12, "epsilon")
            s = lam[0] + eps
            resolvent = np.linalg.inv(np.eye(spec["vertices"]) - ref.matrix(spec, "counting", s))
            # Near the pole the value is eps / (1 - mu(lam + eps)); an error d
            # in lambda moves it by d / eps relatively, hence the looser bound.
            require_close(
                float(row["residue_estimate"]), eps * resolvent[i - 1, j - 1] / s, 1e-5,
                f"residue at eps={eps:g}",
            )
            require(float(row["residue_imag"]) == 0.0, "imaginary residue")

    return check


def spectral_solve(rng: np.random.Generator, files: _Files) -> Workload:
    pools: dict[str, list[Query]] = {}

    def analyze(cls, path, spec, mode):
        return Query(cls, ["analyze", path, "--max-edges", "8", "--mode", mode],
                     _check_analyze(spec, mode))

    # Solve times vary ~2x from graph to graph at the same n, so the classes
    # that hold the median (n=20) and the tail (n=100) draw a fresh graph for
    # nearly every query of a run.
    for n, count in ((5, 8), (20, 64), (50, 4), (100, 16)):
        cls = f"n{n}"
        per_graph = []
        for k in range(count):
            spec = graphs.ring_graph(rng, n, 0.9)
            path = files.write(f"{cls}_{k}", spec)
            queries = [analyze(cls, path, spec, "counting"), analyze(cls, path, spec, "probability")]
            if n == 20:
                queries.append(Query(
                    cls, ["laplace", path, "--family", "A", "--from", "1", "--to", "2", "--scan"],
                    _check_laplace_scan(spec, 1, 2),
                ))
            per_graph.append(queries)
        pools[cls] = _rotate(per_graph)
    edge = []
    for k in range(4):
        spec = graphs.ring_graph(rng, 20, 0.9)
        edge.append(analyze("edge60", files.write(f"edge60_{k}", spec), spec, "edge"))
    pools["edge60"] = edge
    # The n=100 solve (~2 s) is ~85% of the time.  Each n=100 query comes
    # with eight n=20 queries, so n=20 holds ~3/4 of all queries and the
    # median (over ~110 of them, as n=20 times vary ~2x between graphs);
    # ~15 n=100 queries per run put the 11th-largest latency, the tail
    # sample, inside the n=100 class.
    schedule = []
    for extra in ("n5", "n50", "n5", "edge60", "n5", None):
        schedule += ["n20", "n20", "n100", "n20", "n20"] + ([extra] if extra else []) + ["n20"] * 4
    return Workload("spectral-solve", schedule, pools, files.paths, "n20")


# -- exact-oracle -------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """One oracle family: CLI arguments and reference answers on a path table."""

    name: str
    subcommand: str
    indices: dict

    def args(self) -> list[str]:
        out = ["--family", self.name, "--from", "1"]
        if "to" in self.indices:
            out += ["--to", str(self.indices["to"])]
        if "edge" in self.indices:
            out += ["--edge", self.indices["edge_ref"]]
        if "window" in self.indices:
            out += ["--window", repr(self.indices["window"])]
        return out

    def exact(self, table: ref.PathTable, t: float):
        ix = self.indices
        if self.name == "A":
            return table.count_paths(ix["to"], t)
        if self.name == "B":
            return table.count_edge_hits(ix["edge"], t)
        if self.name == "C":
            return table.vertex_probability(ix["to"], t, ix["window"])
        if self.name == "D":
            return table.edge_probability(ix["edge"], t)
        return table.survival(t)

    def asymptotic(self, spec: dict, lam: float, q: np.ndarray, t: float) -> float:
        ix, edges = self.indices, spec["edges"]

        def edge_coefficient(k):
            e = edges[k]
            return e["probability"] * exp_decay(lam, graphs.edge_length(e)) * q[0, e["from"] - 1]

        if self.name == "A":
            coefficient = q[0, ix["to"] - 1] / lam
        elif self.name == "B":
            e = edges[ix["edge"]]
            coefficient = exp_decay(lam, graphs.edge_length(e)) * q[0, e["from"] - 1]
        elif self.name == "C":
            coefficient = q[0, ix["to"] - 1]
        elif self.name == "D":
            coefficient = edge_coefficient(ix["edge"])
        else:
            coefficient = 1.0 if lam == 0.0 else sum(edge_coefficient(k) for k in range(len(edges)))
        return coefficient * math.exp(lam * t)


def _oracle_query(cls, path, spec, family: _Family, grid, table, lam, q) -> Query:
    """One count/prob query; its exact answers are taken from ``table`` now,
    so the table need not stay in memory while the program runs."""
    counts = family.name in ("A", "B")
    exact = [family.exact(table, t) for t in grid]
    grid_flag, time_col = ("--x", "x") if family.subcommand == "count" else ("--T", "T")

    def check(out: str):
        rows = parse_csv(out)
        require(len(rows) == len(grid), "grid length")
        for t, want, row in zip(grid, exact, rows):
            require_close(float(row[time_col]), t, 1e-11, "grid point")
            if counts:
                require(int(row["exact"]) == want, f"{family.name}({t}) = {row['exact']}, reference {want}")
            else:
                require_close(float(row["exact"]), want, 1e-9, f"{family.name}({t})", abs_tol=1e-300)
            approx = family.asymptotic(spec, lam, q, t)
            require_close(float(row["asymptotic"]), approx, 1e-7, f"asymptotic {family.name}({t})")
            require_close(float(row["ratio"]), float(row["exact"]) / float(row["asymptotic"]),
                          1e-9, "ratio")

    return Query(cls, [family.subcommand, path, *family.args(), grid_flag, grid_arg(grid)], check)


def _spectral_reference(spec, mode):
    lam = ref.critical_exponent(spec, mode)
    return lam, ref.rank_one_q(spec, mode, lam)


def _two_vertex_queries(rng, files) -> list[Query]:
    count_spec, prob_spec = graphs.two_vertex_graph(), graphs.two_vertex_graph(0.9)
    count_path = files.write("two_vertex", count_spec)
    prob_path = files.write("two_vertex_p09", prob_spec)
    horizon = 22.5
    tables = {"count": ref.two_vertex_table(count_spec, 1, horizon),
              "prob": ref.two_vertex_table(prob_spec, 1, horizon)}
    spectra = {"count": _spectral_reference(count_spec, "counting"),
               "prob": _spectral_reference(prob_spec, "probability")}
    # Count queries (~15 ms) are 9 of the 12 and prob queries (~25-30 ms)
    # 3 of 12, so the median falls among the count queries, not on the
    # boundary between the two.
    families = [
        _Family("A", "count", {"to": 1}),
        _Family("B", "count", {"edge": 3, "edge_ref": "gamma2"}),
        _Family("A", "count", {"to": 2}),
        _Family("C", "prob", {"to": 2, "window": 0.5}),
        _Family("B", "count", {"edge": 0, "edge_ref": "alpha"}),
        _Family("A", "count", {"to": 1}),
        _Family("B", "count", {"edge": 1, "edge_ref": "beta"}),
        _Family("D", "prob", {"edge": 1, "edge_ref": "beta"}),
        _Family("A", "count", {"to": 2}),
        _Family("B", "count", {"edge": 2, "edge_ref": "gamma1"}),
        _Family("A", "count", {"to": 1}),
        _Family("survival", "prob", {}),
    ]
    queries = []
    for family in families:
        kind = family.subcommand
        table = tables[kind]
        spec, path = (count_spec, count_path) if kind == "count" else (prob_spec, prob_path)
        # Lattice class counts grow like x^2; a narrow range keeps the cost alike.
        top = float(rng.uniform(20.75, 21.25))
        grid = off_critical(table, np.linspace(top - 7.0, top, 8), 0.5)
        queries.append(_oracle_query("two_vertex", path, spec, family, grid, table, *spectra[kind]))
    return queries


# Generic-length grids: the 8 points are 1.25 apart, and the grid's end is
# set so that the 8 expansions together emit about this many length classes
# (paths that reorder the same edges share one), ~1 s per query.  Fixing the
# class count, not the horizon, keeps the work per query alike across seeds.
GENERIC_GRID_CLASSES = 220_000
GENERIC_SPACING = 1.25


def _grid_classes(lengths: np.ndarray, top: float) -> int:
    """Classes a grid ending at ``top`` emits, from sorted class lengths."""
    return int(np.searchsorted(lengths, top - GENERIC_SPACING * np.arange(8), "right").sum())


def _generic_queries(rng, files, index: int) -> list[Query]:
    spec = graphs.ring_graph(rng, 6, 0.9)
    path = files.write(f"generic6_{index}", spec)
    spectra = {"count": _spectral_reference(spec, "counting"),
               "prob": _spectral_reference(spec, "probability")}
    horizon = 8.0
    while True:
        table = ref.path_table(spec, 1, horizon)
        lengths = np.sort(table.length)
        # Leave room above the grid's end for nudged grid points.
        if _grid_classes(lengths, horizon - 0.05) >= GENERIC_GRID_CLASSES:
            break
        horizon += 0.5
    lo, hi = 0.0, horizon - 0.05
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _grid_classes(lengths, mid) < GENERIC_GRID_CLASSES else (lo, mid)
    grid = off_critical(table, hi - GENERIC_SPACING * np.arange(7, -1, -1), 0.5)
    edges = [int(k) for k in rng.choice(len(spec["edges"]), 2, replace=False)]
    families = [
        _Family("A", "count", {"to": 2}),
        _Family("B", "count", {"edge": edges[0], "edge_ref": str(edges[0])}),
        _Family("C", "prob", {"to": 3, "window": 0.5}),
        _Family("D", "prob", {"edge": edges[1], "edge_ref": str(edges[1])}),
        _Family("survival", "prob", {}),
    ]
    return [
        _oracle_query("generic6", path, spec, f, grid, table, *spectra[f.subcommand])
        for f in families
    ]


def _check_kakutani(alpha: float, generations) -> Callable[[str], None]:
    def check(out: str):
        rows = parse_csv(out)
        require(len(rows) == len(generations), "row count")
        for n, row in zip(generations, rows):
            intervals = ref.kakutani_intervals(alpha, n)
            require(int(row["n"]) == n, "generation")
            require(int(row["intervals"]) == len(intervals), f"interval count at n={n}")
            require_close(float(row["discrepancy"]), ref.discrepancy(intervals), 1e-9,
                          f"discrepancy at n={n}")

    return check


def _check_threshold(alpha: float, x: float) -> Callable[[str], None]:
    def check(out: str):
        rows = parse_csv(out)
        want = ref.threshold_intervals(alpha, x)
        require(len(rows) == len(want), f"{len(rows)} intervals, reference {len(want)}")
        for row, (left, length) in zip(rows, want):
            require_close(float(row["left"]), left, 1e-9, "left end", abs_tol=1e-15)
            require_close(float(row["length"]), length, 1e-9, "length")

    return check


def _check_subst(rule: dict) -> Callable[[str], None]:
    edges = sum(len(p["children"]) for p in rule["prototiles"])
    spec = {
        "vertices": len(rule["prototiles"]),
        "edges": [
            {"from": t, "to": c["type"], "length": -math.log(c["scale"])}
            for t, p in enumerate(rule["prototiles"], start=1)
            for c in p["children"]
        ],
    }
    lam = ref.critical_exponent(spec, "counting")

    def check(out: str):
        kv = parse_pretty(out)
        require(kv["verdict"] == "ok", "verdict")
        require(int(kv["prototiles"]) == len(rule["prototiles"]), "prototiles")
        require(int(kv["edges"]) == edges, "edges")
        require_close(float(kv["lambda"]), lam, 1e-10, "lambda")
        require(float(kv["lambda_residual"]) <= 1e-10, "lambda residual")
        require(float(kv["eigenvector_residual"]) <= 1e-10, "eigenvector residual")

    return check


def exact_oracle(rng: np.random.Generator, files: _Files) -> Workload:
    pools = {
        "two_vertex": _two_vertex_queries(rng, files),
        "generic6": _rotate([_generic_queries(rng, files, k) for k in range(4)]),
        "kakutani": [],
        "subst": [],
    }
    generations = (20, 200, 2000)
    for k in range(2):
        alpha = round(float(rng.uniform(0.2, 0.45)), 6)
        pools["kakutani"].append(Query(
            "kakutani", ["kakutani", "--alpha", repr(alpha), "--n", grid_arg(generations)],
            _check_kakutani(alpha, generations),
        ))
        x = round(float(rng.uniform(9.0, 9.5)), 6)
        while ref.threshold_is_ambiguous(alpha, x):
            x = round(x + 0.0011, 6)
        pools["kakutani"].append(Query(
            "kakutani", ["kakutani", "--alpha", repr(alpha), "--threshold", repr(x)],
            _check_threshold(alpha, x),
        ))
        rule = graphs.split_rule(rng)
        rule_path = files.write(f"rule_{k}", rule, graph=False)
        pools["subst"].append(Query("subst", ["subst", rule_path], _check_subst(rule)))
    # One generic grid (~1 s) per six two-vertex queries (~15-30 ms): the
    # generic class holds the top ~25-30 latencies and sets the tail; the
    # two-vertex count queries alone are over half of all queries and hold
    # the median.
    block = ["two_vertex", "two_vertex", "two_vertex", "generic6",
             "two_vertex", "two_vertex", "two_vertex", "subst"]
    schedule = block + block[:-1] + ["kakutani"]
    return Workload("exact-oracle", schedule, pools, files.paths, "two_vertex")


# -- walk-ensemble ------------------------------------------------------------------


def _check_walk(times, probabilities, seed) -> Callable[[str], None]:
    def check(out: str):
        rows = parse_csv(out)
        require(len(rows) == len(times), "row count")
        for t, p, row in zip(times, probabilities, rows):
            require_close(float(row["T"]), t, 1e-12, "time")
            require(int(row["n"]) == WALKERS and int(row["seed"]) == seed, "n / seed echo")
            sigma = math.sqrt(p * (1.0 - p) / WALKERS)
            estimate = float(row["estimate"])
            require(
                abs(estimate - p) <= 5.0 * sigma + 1e-9,
                f"estimate {estimate!r} at T={t} is {abs(estimate - p) / max(sigma, 1e-300):.1f}"
                f" sigma from the oracle value {p!r}",
            )

    return check


def _walk_query(cls, path, spec, estimand: list[str], times, probabilities, seed) -> Query:
    argv = ["walk", path, "--from", "1", *estimand, "--T", grid_arg(times),
            "-n", str(WALKERS), "--seed", str(seed)]
    return Query(cls, argv, _check_walk(times, probabilities, seed), repeat_identical=True)


def walk_ensemble(rng: np.random.Generator, files: _Files) -> Workload:
    seeds = [int(s) for s in rng.integers(0, 2**31, 22)]
    spec = graphs.two_vertex_graph(1.0)
    path = files.write("two_vertex_stochastic", spec)
    table = ref.two_vertex_table(spec, 1, 30.5)
    times = off_critical(table, (10.3, 30.3))
    pools = {"two_vertex": [
        _walk_query("two_vertex", path, spec, ["--survival"], times,
                    [table.survival(t) for t in times], seeds[k])
        for k in range(2)
    ]}
    pools["substochastic20"] = []
    for k in range(12):
        spec = graphs.ring_graph(rng, 20, 0.9)
        path = files.write(f"substochastic20_{k}", spec)
        table = ref.path_table(spec, 1, 8.5)
        times = off_critical(table, (8.3,))
        pools["substochastic20"].append(_walk_query(
            "substochastic20", path, spec, ["--survival"], times,
            [table.survival(t) for t in times], seeds[2 + k]))
    pools["edge50"] = []
    for k in range(8):
        spec = graphs.ring_graph(rng, 50, 1.0)
        path = files.write(f"edge50_{k}", spec)
        table = ref.path_table(spec, 1, 11.5)
        times = off_critical(table, (11.3,))
        edge = int(rng.integers(len(spec["edges"])))
        pools["edge50"].append(_walk_query(
            "edge50", path, spec, ["--edge", str(edge)], times,
            [table.edge_probability(edge, t) for t in times], seeds[14 + k]))
    # Per cycle: one two-vertex query (~1.5 s), three edge50 (~0.6 s) and
    # eight substochastic20 (~0.3 s).  The ~6 two-vertex queries sit above
    # the 11th-largest latency, which therefore falls inside edge50; the
    # substochastic class holds ~2/3 of queries and sets the median.
    schedule = ["substochastic20", "edge50", "substochastic20", "substochastic20",
                "two_vertex", "substochastic20", "edge50", "substochastic20",
                "substochastic20", "edge50", "substochastic20", "substochastic20"]
    return Workload("walk-ensemble", schedule, pools, files.paths, "substochastic20")


WORKLOADS = {
    "spectral-solve": spectral_solve,
    "exact-oracle": exact_oracle,
    "walk-ensemble": walk_ensemble,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload from its seed, with their references."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng([seed, list(WORKLOADS).index(name)]), _Files(workdir))
