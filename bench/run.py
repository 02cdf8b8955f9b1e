"""orbitcount benchmark: closed-loop query workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 bench/run.py --workload spectral-solve --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

One client in one process sends the workload's queries back to back through
``orbitcount.cli.run(argv)``, with stdout captured in memory, and checks
every output against an independent reference (``workloads.py``).  With
``--trace 0`` the last stdout line is the JSON result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics instead, from
a run that sends every query once untraced and once traced.  ``--smoke`` runs a few queries of every workload in both
modes and checks that every metric in BENCHMARK.json is emitted with its
unit.  See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import graphs
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
INPUTS = HERE / "inputs"

COLD_STARTS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); import orbitcount.cli; "
    "from orbitcount.graph import load_graph; [load_graph(p) for p in sys.argv[2:]]"
)


def setup_seconds(graph_files: list[str], starts: int, calibration: Calibration) -> float:
    """Median wall time of fresh interpreters importing the CLI and loading the graphs."""
    times = []
    for _ in range(starts):
        for _ in range(10):
            calibration.sample()
        begin = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which quantizes the measured time.
        child = subprocess.Popen([sys.executable, "-c", COLD_START, str(SRC), *graph_files],
                                 stdout=subprocess.DEVNULL)
        if child.wait() != 0:
            raise RuntimeError(f"cold start exited with code {child.returncode}")
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


class Calibration:
    """A fixed kernel timed before every query, to measure the machine's speed.

    On a shared 2-core machine the same code runs up to ~25% slower or
    faster from one minute to the next.  The kernel sees the same drift: an
    integer loop in the interpreter, single-threaded numpy passes over a
    400 KB array, and the benchmark's own ``M(s)`` and eigenvalues for a
    fixed 20-vertex graph (floating-point work, which the drift slows most,
    like the program's).  None of it is program code, so a change to the
    program cannot change its speed.  Time metrics are reported at the
    kernel's reference speed: multiplied by REFERENCE_S over the run's
    median kernel time.
    """

    REFERENCE_S = 0.0035

    def __init__(self):
        self._vec = np.linspace(1.0, 2.0, 50_000)
        self._out = np.empty_like(self._vec)
        self._spec = graphs.ring_graph(np.random.default_rng(0), 20, 0.9)
        self.samples: list[float] = []

    def sample(self):
        begin = time.perf_counter()
        total = 0
        for k in range(20_000):
            total += k * k
        for _ in range(20):
            np.sqrt(self._vec, out=self._out)
        for s in (0.5, 0.7, 0.9):
            reference.spectral_radius(reference.matrix(self._spec, "counting", s))
        self.samples.append(time.perf_counter() - begin)

    def slowdown(self) -> float:
        """The run's median kernel time over the reference time."""
        return statistics.median(self.samples) / self.REFERENCE_S


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Client:
    """Sends queries to ``orbitcount.cli.run`` and checks what comes back."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self._verified: dict[tuple, str] = {}
        self._first: dict[tuple, str] = {}

    def send(self, query) -> float:
        """Run one query; return its latency in seconds.  Checks run untimed."""
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.run(list(query.argv))
        except Exception as exc:  # a crash is a failed query, not a dead benchmark
            code, err = None, io.StringIO(repr(exc))
        latency = time.perf_counter() - begin
        self.attempted += 1
        problem = self._verify(query, code, out.getvalue(), err.getvalue())
        if problem:
            self.failures.append(f"{' '.join(query.argv)}: {problem}")
        return latency

    def _verify(self, query, code, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        key = tuple(query.argv)
        if query.repeat_identical and self._first.setdefault(key, out) != out:
            return "output differs from the first run of the same query and seed"
        if self._verified.get(key) == out:
            return None
        try:
            query.check(out)
        except workloads.CheckFailed as exc:
            return str(exc)
        except (KeyError, ValueError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        self._verified[key] = out
        return None


def run_for(client: Client, stream, seconds: float, calibration: Calibration):
    """Closed loop: send the next query as soon as the last one returns.

    Stops when the stream ends or the summed query time reaches ``seconds``;
    the calibration kernel and the checks between queries are not timed.
    """
    sent, latencies = [], []
    for query in stream:
        if sum(latencies) >= seconds:
            break
        calibration.sample()
        latencies.append(client.send(query))
        sent.append(query)
    return sent, latencies


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(sent, latencies, setup: float, slowdown: float, setup_slowdown: float):
    """End-to-end metrics, times at the calibration kernel's reference speed.

    The query metrics use the kernel timings taken during the loop, set-up
    time those taken between the cold starts.
    """
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    tail_value, percentile, beyond = tail(latencies)
    middle = {sent[order[(len(order) - 1) // 2]].cls, sent[order[len(order) // 2]].cls}
    measured = {
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_tail_ms": 1000.0 * tail_value,
        "setup_s": setup,
    }
    metrics = {
        "queries_per_s": measured["queries_per_s"] * slowdown,
        "query_p50_ms": measured["query_p50_ms"] / slowdown,
        "query_tail_ms": measured["query_tail_ms"] / slowdown,
        "setup_s": setup / setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "slowdown": slowdown,
        "setup_slowdown": setup_slowdown,
        "measured": measured,
        "query_tail_percentile": percentile,
        "query_tail_samples_beyond": beyond,
        "samples": len(latencies),
        "p50_class": "/".join(sorted(middle)),
        "tail_class": sent[order[len(order) - 1 - beyond]].cls,
        "queries_per_class": {c: sum(q.cls == c for q in sent) for c in sorted({q.cls for q in sent})},
    }
    return metrics, notes


def run_traced(client: Client, stream, seconds: float):
    """Send each query twice, untraced and traced, in alternating order, so
    that drift in machine speed cancels out of the tracing overhead."""
    tracer = tracing.Tracer()
    sent, plain, traced = [], [], []
    for query in stream:
        if sum(plain) + sum(traced) >= seconds:
            break
        tracer.query = len(sent)
        for on in (False, True) if len(sent) % 2 else (True, False):
            if not on:
                plain.append(client.send(query))
                continue
            tracer.install()
            try:
                traced.append(client.send(query))
            finally:
                tracer.uninstall()
        sent.append(query)
    overhead = sum(traced) / sum(plain) - 1.0
    metrics = tracing.layer_metrics(tracer.spans, {i: q.cls for i, q in enumerate(sent)}, overhead)
    return tracer, metrics, {"samples": len(sent), "untraced_s": sum(plain), "traced_s": sum(traced)}


def measure(name: str, seed: int, seconds: float, trace: bool, cold_starts: int, smoke: bool):
    import orbitcount.cli as cli

    workdir = INPUTS / f"{name}-{seed}-{os.getpid()}"
    try:
        begin = time.perf_counter()
        workload = workloads.build(name, seed, workdir)
        info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                "inputs_s": time.perf_counter() - begin, **machine_info()}
        client = Client(cli)
        client.send(workload.warmup)
        client.attempted = 0
        stream = iter(workload.sample()) if smoke else workload.queries()
        tracer = None
        if trace:
            tracer, metrics, notes = run_traced(client, stream, seconds)
        else:
            calibration, setup_calibration = Calibration(), Calibration()
            sent, latencies = run_for(client, stream, seconds, calibration)
            setup = setup_seconds(workload.graph_files, cold_starts, setup_calibration)
            metrics, notes = end_to_end(sent, latencies, setup, calibration.slowdown(),
                                        setup_calibration.slowdown())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl", tracer.spans[0].start if tracer.spans else 0.0)
    units = dict(tracing.PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"info": info, "notes": notes, "failures": client.failures, **result}, indent=1))
    return info, notes, client.failures, result


def report(info, notes, failures, result):
    print("machine " + json.dumps(info))
    print("notes " + json.dumps(notes))
    if not info["trace"]:
        print(f"  {'failed_frac':36s} {len(failures) / max(result['attempted'], 1):.6g} ratio")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for line in failures[:20]:
        print("FAILED " + line, file=sys.stderr)


def smoke() -> int:
    """A few queries of every workload, both modes; metric names and units must
    match BENCHMARK.json and every output check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            info, notes, failures, result = measure(
                workload["name"], 0, float("inf"), bool(trace), 1, True)
            report(info, notes, failures, result)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{workload['name']} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ from BENCHMARK.json")
            problems += [f"{workload['name']}: {f}" for f in failures]
    for p in problems:
        print("SMOKE " + p, file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "orbitcount" / "cli.py").is_file():
        print(f"bench: no orbitcount sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    info, notes, failures, result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), COLD_STARTS, False)
    report(info, notes, failures, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
