"""Command-line surface: analysis, oracle tables, simulation, applications.

Subcommands: ``analyze`` (critical exponent, Q, Perron data, cycle-ratio
verdict), ``count`` (families A/B, exact vs asymptotic over an x grid),
``prob`` (families C/D/survival over a time grid), ``walk`` (Monte Carlo),
``kakutani`` (partitions and discrepancies), ``subst`` (build a rule graph
and verify its exponent), ``laplace`` (transform values and pole-residue
scan).

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 oracle
budget overflow.  Diagnostics go to stderr; results to stdout or ``-o``.
Floats are printed with 12 significant digits, so outputs are stable enough
for golden files.  ``ORBITCOUNT_MAX_PATHS`` overrides the oracle safety cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import applications as apps
from . import asymptotics as asy
from . import oracle, walker
from .errors import (
    BudgetOverflow,
    NumericalError,
    OrbitCountError,
    ValidationError,
)
from .graph import build_graph, graph_to_dict, incommensurability_check
from .spectral import MatrixFunction, Mode, solve_lambda

_MODES = {"counting": Mode.COUNTING, "probability": Mode.PROBABILITY, "edge": Mode.EDGE}


class _Parser(argparse.ArgumentParser):
    # argparse's default usage failure calls sys.exit(2); route it through
    # the validation branch instead so exit codes keep their meaning.
    def error(self, message):
        raise ValidationError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _fmt_floats(values: list) -> str:
    """Space-separated 12-digit floats, from a ``tolist()`` row."""
    return " ".join([format(v, ".12g") for v in values])


def _column_cells(column: tuple) -> list[str]:
    """One column's cells as _fmt gives them; a column of floats in one format call."""
    floats = {issubclass(t, float) for t in set(map(type, column))}
    if floats == {True}:
        return ("%.12g\n" * len(column) % column).split("\n")[:-1]
    if floats == {False}:
        return list(map(str, column))
    return [_fmt(v) for v in column]


def _emit(fmt: str, header: list[str], rows: list[tuple], stream):
    if fmt == "jsonl":
        for row in rows:
            obj = {
                k: (float(format(v, ".12g")) if isinstance(v, float) else v)
                for k, v in zip(header, row)
            }
            stream.write(json.dumps(obj) + "\n")
        return
    columns = [_column_cells(column) for column in zip(*rows)] or [[] for _ in header]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
    else:
        widths = [max(len(h), max(map(len, c), default=0)) for h, c in zip(header, columns)]
        template = "  ".join([f"%-{w}s" for w in widths])
        lines = [template % tuple(header)] + [template % cells for cells in zip(*columns)]
    stream.write("\n".join(lines) + "\n")


def _load_graph_arg(path: str):
    try:
        if path == "-":
            return build_graph(json.load(sys.stdin))
        with open(path) as fh:
            return build_graph(json.load(fh))
    except (json.JSONDecodeError, OSError) as exc:
        raise ValidationError(f"cannot read graph {path!r}: {exc}") from exc


def _load_rule_arg(path: str):
    try:
        with open(path) as fh:
            return apps.SplitRule.from_dict(json.load(fh))
    except (json.JSONDecodeError, OSError) as exc:
        raise ValidationError(f"cannot read rule {path!r}: {exc}") from exc


def _parse_grid(text: str, name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {name} grid {text!r}") from exc
    if not values or any(not math.isfinite(v) or v < 0 for v in values):
        raise ValidationError(f"{name} grid must be finite and non-negative")
    return tuple(sorted(values))


def _parse_ratio(text: str) -> float:
    try:
        if "/" in text:
            p, q = text.split("/", 1)
            return float(p) / float(q)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad ratio {text!r}") from exc


def _edge_ref(text: str):
    return int(text) if text.isdigit() else text


def _max_paths(args) -> int:
    """The oracle class budget: ``--max-paths``, else ``ORBITCOUNT_MAX_PATHS``."""
    if getattr(args, "max_paths", None) is not None:
        source, text = "--max-paths", str(args.max_paths)
    else:
        source, text = "ORBITCOUNT_MAX_PATHS", os.environ.get("ORBITCOUNT_MAX_PATHS")
        if not text:
            return oracle.DEFAULT_MAX_PATHS
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValidationError(f"{source} must be an integer >= 1, got {text!r}")
    return value


# -- subcommand handlers -----------------------------------------------------------


def _cmd_analyze(fmt: str, args, stream) -> int:
    g = _load_graph_arg(args.graph)
    # solve_lambda raises unless the graph is strongly connected.
    sol = solve_lambda(MatrixFunction(g, _MODES[args.mode]))
    rows = [
        ("vertices", g.vertex_count),
        ("edges", g.edge_count),
        ("strongly_connected", True),
        ("mode", args.mode),
        ("lambda", sol.lam),
        ("mu_residual", sol.residual),
    ]
    rows += [(f"Q_row_{i + 1}", _fmt_floats(q)) for i, q in enumerate(sol.q.tolist())]
    perron = sol.perron_at_lambda
    rows.append(("perron_mu", perron.mu))
    rows.append(("right_vector", _fmt_floats(perron.right_vector.tolist())))
    rows.append(("left_vector", _fmt_floats(perron.left_vector.tolist())))
    verdict = incommensurability_check(
        g,
        max_edges=args.max_edges,
        max_denominator=args.max_denominator,
        tolerance=args.tolerance,
    )
    rows.append(("incommensurability", verdict.status))
    if verdict.witness:
        rows.append(("witness_lengths", " ".join(_fmt(v) for v in verdict.witness)))
    if verdict.rational_approx:
        p, q, res = verdict.rational_approx
        rows.append(("closest_rational", f"{p}/{q} residual {_fmt(res)}"))
    _emit(fmt, ["key", "value"], rows, stream)
    return 0


def _indices(args) -> tuple:
    """``--from``, then the option the family's second index names: ``--to`` or ``--edge``."""
    index = asy.FAMILIES[args.family][1]
    if index is None:
        return (args.start,)
    ref = getattr(args, index)
    if ref is None:
        raise ValidationError(f"family {args.family} needs --{index}")
    return (args.start, _edge_ref(ref) if index == "edge" else ref)


def _exact_vs_asymptotic(args, grid_text: str, name: str) -> list[tuple]:
    """(point, exact, asymptotic, ratio) rows, the exact column from one oracle call."""
    g = _load_graph_arg(args.graph)
    sol = solve_lambda(MatrixFunction(g, asy.FAMILIES[args.family][0]))
    indices = _indices(args)
    exact_fn = {
        "A": oracle.count_paths_exact,
        "B": oracle.count_edge_hits_exact,
        "C": oracle.vertex_probability_atoms,
        "D": oracle.edge_probability_exact,
        "survival": oracle.survival_exact,
    }[args.family]
    options = {"window": args.window} if args.family == "C" else {}
    estimate = asy.leading_estimate(sol, args.family, indices)
    grid = _parse_grid(grid_text, name)
    exact = exact_fn(g, *indices, grid, max_paths=_max_paths(args), **options)
    rows = []
    for x, value in zip(grid, exact):
        approx = estimate.value_at(x)
        rows.append((x, value, approx, value / approx if approx else math.nan))
    return rows


def _cmd_count(fmt: str, args, stream) -> int:
    rows = _exact_vs_asymptotic(args, args.x, "x")
    _emit(fmt, ["x", "exact", "asymptotic", "ratio"], rows, stream)
    return 0


def _cmd_prob(fmt: str, args, stream) -> int:
    rows = _exact_vs_asymptotic(args, args.times, "T")
    rows = [row + (args.window,) for row in rows]
    _emit(fmt, ["T", "exact", "asymptotic", "ratio", "window"], rows, stream)
    return 0


def _cmd_walk(fmt: str, args, stream) -> int:
    g = _load_graph_arg(args.graph)
    if args.edge is None and not args.survival:
        raise ValidationError("walk needs --edge or --survival")
    rows = []
    for t in _parse_grid(args.times, "T"):
        if args.edge is not None:
            est = walker.ensemble_edge_probability(
                g, args.start, _edge_ref(args.edge), t, args.samples, args.seed
            )
        else:
            est = walker.ensemble_survival(g, args.start, t, args.samples, args.seed)
        rows.append((t, est.point_estimate, est.standard_error, est.sample_count, est.seed))
    _emit(fmt, ["T", "estimate", "stderr", "n", "seed"], rows, stream)
    return 0


def _kakutani_rule(args) -> apps.SplitRule:
    if args.rule is not None:
        return _load_rule_arg(args.rule)
    if args.alpha is not None:
        alpha = _parse_ratio(args.alpha)
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"--alpha must be in (0, 1), got {alpha!r}")
        return apps.SplitRule.from_ratios([alpha, 1.0 - alpha])
    raise ValidationError("kakutani needs --alpha or --rule")


def _cmd_kakutani(fmt: str, args, stream) -> int:
    rule = _kakutani_rule(args)
    if args.partition is not None:
        part = apps.kakutani_partition(rule, args.partition)
        rows = list(zip(part.left.tolist(), part.length.tolist(), part.type.tolist()))
        _emit(fmt, ["left", "length", "type"], rows, stream)
        return 0
    if args.threshold is not None:
        part = apps.kakutani_threshold_partition(rule, args.threshold)
        rows = list(zip(part.left.tolist(), part.length.tolist(), part.type.tolist()))
        _emit(fmt, ["left", "length", "type"], rows, stream)
        return 0
    generations = _parse_grid(args.generations, "n")
    if any(v != int(v) for v in generations):
        raise ValidationError(f"--n must list whole generations, got {args.generations!r}")
    rows = []
    for n in map(int, generations):
        part = apps.kakutani_partition(rule, n)
        rows.append((n, part.interval_count, apps.discrepancy(part)))
    _emit(fmt, ["n", "intervals", "discrepancy"], rows, stream)
    return 0


def _cmd_subst(fmt: str, args, stream) -> int:
    rule = _load_rule_arg(args.rule)
    g = apps.substitution_graph(rule, args.dimension)
    if args.emit_graph:
        json.dump(graph_to_dict(g), stream, indent=2)
        stream.write("\n")
        return 0
    report = apps.verify_substitution_properties(g, args.dimension or rule.dimension)
    rows = [
        ("prototiles", g.vertex_count),
        ("edges", g.edge_count),
        ("dimension", report.dimension),
        ("lambda", report.lam),
        ("lambda_residual", report.lambda_residual),
        ("eigenvector_residual", report.eigenvector_residual),
        ("verdict", "ok"),
    ]
    _emit(fmt, ["key", "value"], rows, stream)
    return 0


def _cmd_laplace(fmt: str, args, stream) -> int:
    g = _load_graph_arg(args.graph)
    f = MatrixFunction(g, asy.FAMILIES[args.family][0])
    indices = _indices(args)
    lam = solve_lambda(f).lam
    if args.scan:
        rows = [
            (eps, np.real(val), np.imag(val))
            for eps, val in asy.pole_residue_scan(f, args.family, indices, lam=lam)
        ]
        _emit(fmt, ["epsilon", "residue_estimate", "residue_imag"], rows, stream)
        return 0
    try:
        s = complex(args.s)
    except ValueError as exc:
        raise ValidationError(f"bad s value {args.s!r}") from exc
    value = asy.laplace_transform(f, args.family, indices, s if s.imag else s.real, lam=lam)
    rows = [(args.s, np.real(value), np.imag(value), lam)]
    _emit(fmt, ["s", "value", "value_imag", "lambda"], rows, stream)
    return 0


# -- parser / entry point ----------------------------------------------------------


def _families(mode: Mode) -> list[str]:
    """The ``--family`` choices of one mode, in table order."""
    return [f for f, (family_mode, _) in asy.FAMILIES.items() if family_mode is mode]


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and reused for the process."""
    parser = _Parser(prog="orbitcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("graph", help="graph JSON file ('-' for stdin)")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument(
            "--format",
            choices=("pretty", "csv", "jsonl"),
            default=None,
            help="output format (default: pretty for reports, csv for tables)",
        )

    p = sub.add_parser("analyze", help="critical exponent, Q matrix, diagnostics")
    common(p)
    p.add_argument("--mode", choices=tuple(_MODES), default="counting")
    p.add_argument("--max-edges", type=int, default=None, help="cycle length bound")
    p.add_argument("--max-denominator", type=int, default=10**6)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_analyze, default_format="pretty")

    p = sub.add_parser("count", help="exact vs asymptotic path counts (families A/B)")
    common(p)
    p.add_argument("--family", choices=_families(Mode.COUNTING), required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--edge", default=None)
    p.add_argument("--x", required=True, help="comma-separated x grid")
    p.add_argument("--max-paths", type=int, default=None)
    p.set_defaults(handler=_cmd_count, default_format="csv")

    p = sub.add_parser("prob", help="exact vs asymptotic walk probabilities (C/D/survival)")
    common(p)
    p.add_argument("--family", choices=_families(Mode.PROBABILITY), required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--edge", default=None)
    p.add_argument("--T", dest="times", required=True, help="comma-separated time grid")
    p.add_argument("--window", type=float, default=0.0)
    p.add_argument("--max-paths", type=int, default=None)
    p.set_defaults(handler=_cmd_prob, default_format="csv")

    p = sub.add_parser("walk", help="Monte Carlo ensemble estimates")
    common(p)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--edge", default=None, help="estimate on-edge probability")
    p.add_argument("--survival", action="store_true", help="estimate survival")
    p.add_argument("--T", dest="times", required=True)
    p.add_argument("-n", "--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_walk, default_format="csv")

    p = sub.add_parser("kakutani", help="splitting partitions and discrepancies")
    common(p, graph=False)
    p.add_argument("--alpha", default=None, help="split ratio, e.g. 1/3")
    p.add_argument("--rule", default=None, help="rule JSON file")
    p.add_argument("--n", dest="generations", default="20,200,2000")
    p.add_argument("--partition", type=int, default=None, help="dump partition at n")
    p.add_argument("--threshold", type=float, default=None, help="dump threshold partition")
    p.set_defaults(handler=_cmd_kakutani, default_format="csv")

    p = sub.add_parser("subst", help="build a substitution graph and verify it")
    common(p, graph=False)
    p.add_argument("rule", help="rule JSON file")
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--emit-graph", action="store_true", help="print the graph JSON")
    p.set_defaults(handler=_cmd_subst, default_format="pretty")

    p = sub.add_parser("laplace", help="transform values and pole-residue scan")
    common(p)
    p.add_argument(
        "--family", choices=[f for f, (_, index) in asy.FAMILIES.items() if index], required=True
    )
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--edge", default=None)
    p.add_argument("--s", default=None, help="evaluation point (complex ok)")
    p.add_argument("--scan", action="store_true", help="pole-residue extrapolation")
    p.set_defaults(handler=_cmd_laplace, default_format="csv")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        fmt = args.format or args.default_format
        if args.command == "laplace" and not args.scan and args.s is None:
            raise ValidationError("laplace needs --s or --scan")
        if args.output:
            with open(args.output, "w") as stream:
                return args.handler(fmt, args, stream)
        return args.handler(fmt, args, sys.stdout)
    except BudgetOverflow as exc:
        print(f"orbitcount: budget overflow: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"orbitcount: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OrbitCountError) as exc:
        print(f"orbitcount: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
