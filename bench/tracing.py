"""Span tracing of the program's modules from outside, and the per-layer metrics.

:class:`Tracer` replaces every public function of every ``orbitcount``
module with a timing wrapper, in every module that holds a reference to it
(so ``orbitcount.cli.solve_lambda`` and ``orbitcount.spectral.solve_lambda``
are both covered), plus ``MatrixFunction.evaluate`` and the oracle's class
generator.  Each call records a span: name, start, end, parent span and
query id.  Spans stay in memory until :meth:`Tracer.write`.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

SIZES = ("n5", "n20", "n50", "n100", "edge60")
SUBCOMMANDS = ("analyze", "count", "prob", "walk", "kakutani", "subst", "laplace")
WALK_CLASSES = ("two_vertex", "substochastic20", "edge50")
ORACLE_COUNT = ("oracle.count_paths_exact", "oracle.count_edge_hits_exact")
ORACLE_PROB = ("oracle.vertex_probability_atoms", "oracle.edge_probability_exact",
               "oracle.survival_exact")
ENSEMBLES = ("walker.ensemble_survival", "walker.ensemble_edge_probability")

# Every per-layer metric, with its unit.  ``_ms`` metrics are mean wall
# time per call; counts are per traced query unless named per solve; rates
# divide work by the time spent in the layer's functions.
PER_LAYER = (
    [("cli.self_ms", "ms")]
    + [(f"cli.run_ms.{c}", "ms") for c in SUBCOMMANDS]
    + [
        ("graph.build_graph_ms", "ms"),
        ("graph.strong_connectivity_ms", "ms"),
        ("graph.incommensurability_ms", "ms"),
        ("graph.cycles_enumerated", "count"),
        ("spectral.solve_lambda_ms", "ms"),
    ]
    + [(f"spectral.solve_lambda_ms.{s}", "ms") for s in SIZES]
    + [("spectral.perron_eigen_ms", "ms")]
    + [(f"spectral.perron_eigen_ms.{s}", "ms") for s in SIZES]
    + [("spectral.perron_calls_per_solve", "count"), ("spectral.q_matrix_ms", "ms")]
    + [(f"spectral.q_matrix_ms.{s}", "ms") for s in SIZES]
    + [
        ("spectral.adjugate_calls", "count"),
        ("spectral.evaluate_calls", "count"),
        ("spectral.evaluate_ms", "ms"),
        ("asymptotics.laplace_transform_ms", "ms"),
        ("asymptotics.pole_residue_scan_ms", "ms"),
        ("oracle.count_ms", "ms"),
        ("oracle.prob_ms", "ms"),
        ("oracle.classes_emitted", "count"),
        ("oracle.classes_per_s", "1/s"),
        ("oracle.grid_points", "count"),
        ("walker.ensemble_ms", "ms"),
        ("walker.walks_per_s", "1/s"),
    ]
    + [(f"walker.walks_per_s.{c}", "1/s") for c in WALK_CLASSES]
    + [
        ("walker.draws", "count"),
        ("applications.kakutani_partition_ms", "ms"),
        ("applications.kakutani_partition_ms.n2000", "ms"),
        ("applications.threshold_partition_ms", "ms"),
        ("applications.substitution_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _size_label(f) -> str:
    return f"{'edge' if f.mode.value == 'edge' else 'n'}{f.dimension}"


def _draws(args) -> int:
    # Computed, not counted: walkers times the per-walker draw budget.
    g = args["g"]
    return args["n"] * (int(args["horizon"] / g.min_edge_length()) + 2)


# Span attributes taken from a wrapped call's arguments and result.
ATTRIBUTES = {
    "cli.run": lambda a, r: {"subcommand": a["argv"][0]},
    "spectral.solve_lambda": lambda a, r: {"size": _size_label(a["f"])},
    "spectral.q_matrix": lambda a, r: {"size": _size_label(a["f"])},
    "graph.cycle_lengths": lambda a, r: {"cycles": len(r)},
    "walker.ensemble_survival": lambda a, r: {"walks": a["n"], "draws": _draws(a)},
    "walker.ensemble_edge_probability": lambda a, r: {"walks": a["n"], "draws": _draws(a)},
    "applications.kakutani_partition": lambda a, r: {"n": a["n"]},
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query: int | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        extract = ATTRIBUTES.get(name)
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.query, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(extract(bound.arguments, result))
            return result

        return wrapper

    def _count_classes(self, generator_fn):
        @functools.wraps(generator_fn)
        def counted(*args, **kwargs):
            owner = self._stack[-1] if self._stack else None
            emitted = 0
            try:
                for item in generator_fn(*args, **kwargs):
                    emitted += 1
                    yield item
            finally:
                if owner is not None:
                    owner.attrs["classes"] = owner.attrs.get("classes", 0) + emitted

        return counted

    def _patch(self, holder, attr, replacement):
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def install(self):
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "orbitcount" or name.startswith("orbitcount.")
        }
        wrappers = {}
        for module in modules.values():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ in modules
                    and not inspect.isgeneratorfunction(value)
                ):
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers.setdefault(value, self._wrap(f"{layer}.{value.__name__}", value))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        spectral, oracle = modules["orbitcount.spectral"], modules["orbitcount.oracle"]
        for method in ("evaluate", "evaluate_derivative"):
            original = vars(spectral.MatrixFunction)[method]
            self._patch(spectral.MatrixFunction, method, self._wrap(f"spectral.{method}", original))
        self._patch(oracle, "_expand_classes", self._count_classes(oracle._expand_classes))

    def uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def write(self, path, origin: float):
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "parent": s.parent, "query": s.query,
                          "start": s.start - origin, "end": s.end - origin, **s.attrs}
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[Span], query_class: dict[int, str], overhead: float) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans."""
    by_name = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent] += s.seconds
    queries = max(len(by_name["cli.run"]), 1)

    def mean_ms(selected):
        return 1000.0 * sum(s.seconds for s in selected) / len(selected) if selected else 0.0

    def named(*names):
        return [s for n in names for s in by_name[n]]

    def total(selected, key):
        return sum(s.attrs.get(key, 0) for s in selected)

    def rate(work, selected):
        busy = sum(s.seconds for s in selected)
        return work / busy if busy else 0.0

    def solve_of(s):
        while s is not None and s.name != "spectral.solve_lambda":
            s = spans[s.parent] if s.parent is not None else None
        return s

    runs = by_name["cli.run"]
    solves = by_name["spectral.solve_lambda"]
    perron = by_name["spectral.perron_eigen"]
    perron_size = [(p, solve_of(p)) for p in perron]
    counts, probs = named(*ORACLE_COUNT), named(*ORACLE_PROB)
    ensembles = named(*ENSEMBLES)
    kakutani = by_name["applications.kakutani_partition"]

    m = {"cli.self_ms": 1000.0 * sum(s.seconds - children[s.id] for s in runs) / queries}
    for c in SUBCOMMANDS:
        m[f"cli.run_ms.{c}"] = mean_ms([s for s in runs if s.attrs["subcommand"] == c])
    m["graph.build_graph_ms"] = mean_ms(by_name["graph.build_graph"])
    m["graph.strong_connectivity_ms"] = mean_ms(by_name["graph.strong_connectivity"])
    m["graph.incommensurability_ms"] = mean_ms(by_name["graph.incommensurability_check"])
    m["graph.cycles_enumerated"] = total(by_name["graph.cycle_lengths"], "cycles") / queries
    m["spectral.solve_lambda_ms"] = mean_ms(solves)
    for size in SIZES:
        m[f"spectral.solve_lambda_ms.{size}"] = mean_ms([s for s in solves if s.attrs["size"] == size])
    m["spectral.perron_eigen_ms"] = mean_ms(perron)
    for size in SIZES:
        m[f"spectral.perron_eigen_ms.{size}"] = mean_ms(
            [p for p, s in perron_size if s is not None and s.attrs["size"] == size]
        )
    m["spectral.perron_calls_per_solve"] = (
        sum(s is not None for _, s in perron_size) / len(solves) if solves else 0.0
    )
    qs = by_name["spectral.q_matrix"]
    m["spectral.q_matrix_ms"] = mean_ms(qs)
    for size in SIZES:
        m[f"spectral.q_matrix_ms.{size}"] = mean_ms([s for s in qs if s.attrs["size"] == size])
    m["spectral.adjugate_calls"] = len(by_name["spectral.adjugate"]) / queries
    m["spectral.evaluate_calls"] = len(by_name["spectral.evaluate"]) / queries
    m["spectral.evaluate_ms"] = mean_ms(by_name["spectral.evaluate"])
    m["asymptotics.laplace_transform_ms"] = mean_ms(by_name["asymptotics.laplace_transform"])
    m["asymptotics.pole_residue_scan_ms"] = mean_ms(by_name["asymptotics.pole_residue_scan"])
    m["oracle.count_ms"] = mean_ms(counts)
    m["oracle.prob_ms"] = mean_ms(probs)
    classes = total(counts + probs, "classes")
    m["oracle.classes_emitted"] = classes / queries
    m["oracle.classes_per_s"] = rate(classes, counts + probs)
    m["oracle.grid_points"] = len(counts + probs) / queries
    m["walker.ensemble_ms"] = mean_ms(ensembles)
    m["walker.walks_per_s"] = rate(total(ensembles, "walks"), ensembles)
    for c in WALK_CLASSES:
        mine = [s for s in ensembles if query_class.get(s.query) == c]
        m[f"walker.walks_per_s.{c}"] = rate(total(mine, "walks"), mine)
    m["walker.draws"] = total(ensembles, "draws") / queries
    m["applications.kakutani_partition_ms"] = mean_ms(kakutani)
    m["applications.kakutani_partition_ms.n2000"] = mean_ms([s for s in kakutani if s.attrs["n"] == 2000])
    m["applications.threshold_partition_ms"] = mean_ms(by_name["applications.kakutani_threshold_partition"])
    m["applications.substitution_ms"] = mean_ms(by_name["applications.verify_substitution_properties"])
    m["trace.overhead_frac"] = overhead
    return m
