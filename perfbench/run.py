"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads: ``campaign``, ``long_trace`` and ``service_stream`` (see
README.md).  Inputs come from ``--seed`` alone (the simulation workloads
use ``seed % 32``, the seeds with a recorded reference).
Every output is checked against its reference; any mismatch or failed
operation makes the run incorrect and the exit code 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  The lines before it are the full
report: every metric with its unit and sample count, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Measure the checkout's own program, never an installed copy.
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import record_refs  # noqa: E402
import servework  # noqa: E402
import simwork  # noqa: E402

WORKLOADS = ("campaign", "long_trace", "service_stream")

#: Set-up is repeated and its median reported, so that one slow start
#: does not read as a regression.  ``long_trace`` synthesises 2M refs
#: per set-up, so it repeats fewer times to stay inside the run budget.
SETUP_REPEATS = 5
LONG_TRACE_SETUP_REPEATS = 3

#: Untraced/traced pairs of passes (or service windows) in a traced run.
TRACE_PAIRS = 2
#: A traced simulation run starts no pair it expects to end after this
#: many seconds of pairs, so a slow host keeps it inside its time limit.
TRACE_BUDGET_S = 120.0

#: Clients at or above this busy share of one core, and busier than the
#: server, saturated the load generator: the run does not measure the
#: server and is invalid.
CLIENT_SATURATED = 0.9

#: How long a server may outlive its window before it exits by itself.
SERVER_LIFETIME_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "refs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layer -> the work counts its spans record.
LAYER_WORK = {
    "workloads.build": ("refs",),
    "core.accuracy": ("refs", "misses"),
    "system.simulator.scalar": ("refs",),
    "system.vector": ("refs",),
    "mrc.stack.set_lru_flags": ("elements",),
    "mrc.stack.stack_distances": ("elements",),
    "mrc.curve": ("refs",),
    "serve.protocol": ("frames", "bytes"),
    "serve.pipeline.init": ("sessions",),
    "serve.pipeline.feed": ("refs",),
    "serve.pipeline.query": ("answers",),
    "mrc.sampling": ("total_refs", "sampled_refs", "state_entries"),
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer, work in LAYER_WORK.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        for key in work:
            units[f"{layer}.{key}"] = "B" if key == "bytes" else "count"
    units.update(
        {
            "mrc.sampling.useful_ratio": "ratio",
            "serve.server.cpu_s": "s",
            "serve.server.busy_share": "ratio",
            "serve.server.unattributed_s": "s",
            "trace.spans": "count",
            "trace.pairs": "count",
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_share": "ratio",
        }
    )
    return units


PER_LAYER = per_layer_units()

#: name -> (value, unit, samples)
Metric = Tuple[float, str, int]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    invalid: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    reported: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(fraction * len(ordered))) - 1))
    return ordered[rank]


def host_probe() -> float:
    """Seconds a fixed interpreter-and-numpy kernel takes right now.

    Reported beside the metrics, never folded into them: on a shared VM
    the host's speed drifts over minutes, and this shows which runs ran
    on a slow host.
    """
    values = np.random.default_rng(0).integers(0, 1 << 30, 1_000_000)
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        np.sort(values)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def machine() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as src:
            for line in src:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def layer_metrics(spans: list, measurements: int) -> Tuple[Dict[str, float], float]:
    """Every per-layer metric (0 for layers the workload never enters)
    and the time covered by root spans, each per traced measurement."""
    by_layer, covered = layers.aggregate(spans)
    values = {name: 0.0 for name in PER_LAYER}
    for layer, row in by_layer.items():
        for key, value in row.items():
            peak = key in layers.PEAK_KEYS
            values[f"{layer}.{key}"] = value if peak else value / measurements
    total = values["mrc.sampling.total_refs"]
    values["mrc.sampling.useful_ratio"] = (
        values["mrc.sampling.sampled_refs"] / total if total else 0.0
    )
    values["trace.spans"] = len(spans) / measurements
    return values, covered / measurements


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def compare(outputs: Dict[str, object], reference: Dict[str, object], out: Outcome) -> None:
    """Count each reference operation as attempted, each mismatch (a
    raised operation has no output) as failed."""
    normalized = json.loads(json.dumps(outputs))
    out.attempted += len(reference)
    for key, expected in reference.items():
        if normalized.get(key) != expected:
            out.failed += 1
            out.errors.append(f"{key}: output differs from the scalar reference")
    for key in set(normalized) - set(reference):
        out.attempted += 1
        out.failed += 1
        out.errors.append(f"{key}: no reference output")


def import_cells() -> None:
    """Import the campaign's cells in a fresh interpreter: the campaign
    synthesises its traces inside the cells, so this is its set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    subprocess.run(
        [sys.executable, "-c", "import repro.harness.cells"], check=True, env=env, cwd=ROOT
    )


@dataclass
class SimWorkload:
    """One simulation workload, as the runner drives it."""

    #: Builds the inputs of one seed.
    setup: Callable[[int], object]
    #: Runs the fixed work once; returns ``{operation: output}``.
    run_pass: Callable[[object], Dict[str, object]]
    refs_per_pass: Callable[[object], int]
    #: A short pass at the tiny size, run and discarded before timing so
    #: that lazy imports and first-call costs are not timed.
    warm_up: Callable[[int], object]
    setup_repeats: int


def timed_pass(work: SimWorkload, state: object, reference: Dict[str, object],
               out: Outcome) -> float:
    started = time.perf_counter()
    outputs = work.run_pass(state)
    wall = time.perf_counter() - started
    compare(outputs, reference, out)
    return wall


def run_sim(args: argparse.Namespace, work: SimWorkload) -> Outcome:
    out = Outcome()
    seed = record_refs.input_seed(args.seed)
    reference = record_refs.load_reference(args.workload, args.size, seed)
    if args.trace:
        return trace_sim(args, work, seed, reference, out)

    setups = []
    state: object = None
    for _ in range(work.setup_repeats):
        state = None  # so one set-up's inputs never coexist with the next's
        started = time.perf_counter()
        state = work.setup(seed)
        setups.append(time.perf_counter() - started)
    work.warm_up(seed)

    # Another pass starts only if it should end within half a pass of
    # the deadline, so a run measures about --seconds of whole passes.
    walls: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        walls.append(timed_pass(work, state, reference, out))
        if time.perf_counter() + 0.5 * statistics.median(walls) > deadline:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls)
    out.end_to_end = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", len(walls)),
        "refs_per_s": (work.refs_per_pass(state) / wall, "1/s", len(walls)),
        "peak_rss_mb": (peak_rss, "MB", 1),
    }
    return out


def trace_sim(args: argparse.Namespace, work: SimWorkload, seed: int,
              reference: Dict[str, object], out: Outcome) -> Outcome:
    """Alternate untraced and traced passes.

    The layers are means over the traced set-ups and passes (so
    ``workloads.build`` shows set-up work too), the overhead compares
    the median pass times of both kinds.
    """
    state = work.setup(seed)
    work.warm_up(seed)
    recorder = layers.SpanRecorder(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    untraced: List[float] = []
    traced: List[float] = []
    started = time.perf_counter()
    while len(traced) < TRACE_PAIRS:
        elapsed = time.perf_counter() - started
        if traced and elapsed * (len(traced) + 1) / len(traced) > TRACE_BUDGET_S:
            break
        untraced.append(timed_pass(work, state, reference, out))
        state = None
        uninstall = layers.install(recorder)
        try:
            state = work.setup(seed)
            traced.append(timed_pass(work, state, reference, out))
        finally:
            uninstall()
    out.per_layer, _ = layer_metrics(recorder.spans, len(traced))
    out.per_layer.update(overhead(traced, untraced))
    return out


def overhead(traced: List[float], untraced: List[float]) -> Dict[str, float]:
    traced_wall = statistics.median(traced)
    untraced_wall = statistics.median(untraced)
    return {
        "trace.pairs": float(len(traced)),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    }


def campaign_workload(args: argparse.Namespace) -> SimWorkload:
    def setup(seed: int) -> object:
        import_cells()
        return simwork.campaign_params(args.size, seed)

    return SimWorkload(
        setup=setup,
        run_pass=simwork.campaign_pass,
        refs_per_pass=simwork.campaign_refs_per_pass,
        warm_up=lambda seed: simwork.campaign_pass(simwork.campaign_params("tiny", seed)),
        setup_repeats=SETUP_REPEATS,
    )


def long_trace_workload(args: argparse.Namespace) -> SimWorkload:
    def run_pass(traces: object, size: str = args.size) -> Dict[str, object]:
        return simwork.long_pass(traces, simwork.SIZES[size].long_warmup)

    return SimWorkload(
        setup=lambda seed: simwork.long_traces(args.size, seed),
        run_pass=run_pass,
        refs_per_pass=simwork.long_refs_per_pass,
        warm_up=lambda seed: run_pass(simwork.long_traces("tiny", seed), "tiny"),
        setup_repeats=LONG_TRACE_SETUP_REPEATS,
    )


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def serve_window(
    args: argparse.Namespace,
    server: "servework.Server",
    shape: "servework.ServiceShape",
    pool: list,
    out: Outcome,
) -> Tuple["servework.LoadResult", float]:
    """Drive one window against a started server, stop it, check outputs."""
    connections = max(1, min(2, os.cpu_count() or 1))
    try:
        load = servework.drive(server, shape, pool, args.seconds, connections)
        peak_rss = servework.proc_peak_rss_mb(server.pid)
    finally:
        server.stop()
    mismatches = servework.check_closes(shape, pool, load)
    out.attempted += load.attempted
    out.failed += load.failed + mismatches
    out.errors.extend(load.errors)
    client_share = load.client_cpu_s / load.elapsed_s
    server_share = load.server_cpu_s / load.elapsed_s
    if client_share >= CLIENT_SATURATED and client_share > server_share:
        out.invalid.append(
            f"client saturated ({client_share:.2f} core) ahead of the server "
            f"({server_share:.2f} core)"
        )
    if load.refs == 0 or not load.session_s:
        out.invalid.append("no session completed in the window")
    return load, peak_rss


def run_service(args: argparse.Namespace) -> Outcome:
    out = Outcome()
    shape = servework.SHAPES[(args.workload, args.size)]
    lifetime = SERVER_LIFETIME_S + args.seconds
    if args.trace:
        return trace_service(args, shape, lifetime, out)
    setups = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        pool = servework.build_pool(shape, args.seed)
        synthesis = time.perf_counter() - started
        server = servework.Server(args.workload, lifetime)
        setups.append(synthesis + server.start())
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    load, peak_rss = serve_window(args, server, shape, pool, out)
    if out.invalid:
        return out
    elapsed = load.elapsed_s
    out.end_to_end = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        # The mean, not the median: two connections share the server, so
        # session times spread over a factor of two within a run and the
        # median moves with how the sessions happened to overlap.
        "wall_s": (statistics.fmean(load.session_s), "s", len(load.session_s)),
        "refs_per_s": (load.refs / elapsed, "1/s", load.sessions),
        "peak_rss_mb": (peak_rss, "MB", 1),
    }
    out.reported = {
        "ack_p50_ms": (1e3 * percentile(load.ack_s, 0.50), "ms", len(load.ack_s)),
        "ack_p99_ms": (1e3 * percentile(load.ack_s, 0.99), "ms", len(load.ack_s)),
        "answer_p50_ms": (1e3 * percentile(load.answer_s, 0.50), "ms", len(load.answer_s)),
        "answer_p99_ms": (1e3 * percentile(load.answer_s, 0.99), "ms", len(load.answer_s)),
        "sessions_per_s": (load.sessions / elapsed, "1/s", load.sessions),
        "server_busy_share": (load.server_cpu_s / elapsed, "ratio", 1),
        "client_busy_share": (load.client_cpu_s / elapsed, "ratio", 1),
    }
    return out


def trace_service(args: argparse.Namespace, shape: "servework.ServiceShape",
                  lifetime: float, out: Outcome) -> Outcome:
    """Alternate windows against a plain and a traced server.

    The layers are means over the traced windows; the overhead compares
    the windows' mean session times, as ``wall_s`` measures them.
    """
    pool = servework.build_pool(shape, args.seed)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_path = os.path.join(servework.RUN_DIR, f"spans-{os.getpid()}.jsonl")
    untraced: List[float] = []
    traced: List[float] = []
    spans: list = []
    cpu_s = busy_share = 0.0
    for window in range(TRACE_PAIRS):
        server = servework.Server(args.workload, lifetime)
        server.start()
        load, _ = serve_window(args, server, shape, pool, out)
        if out.invalid:
            return out
        untraced.append(statistics.fmean(load.session_s))
        server = servework.Server(
            f"{args.workload}-traced", lifetime, spans_path, f"{run_id}-window{window}"
        )
        server.start()
        try:
            load, _ = serve_window(args, server, shape, pool, out)
            spans.extend(layers.read_spans(spans_path))
        finally:
            if os.path.exists(spans_path):
                os.unlink(spans_path)
        if out.invalid:
            return out
        traced.append(statistics.fmean(load.session_s))
        cpu_s += load.server_cpu_s / TRACE_PAIRS
        busy_share += load.server_cpu_s / load.elapsed_s / TRACE_PAIRS
    out.per_layer, covered = layer_metrics(spans, TRACE_PAIRS)
    out.per_layer.update(
        {
            "serve.server.cpu_s": cpu_s,
            "serve.server.busy_share": busy_share,
            "serve.server.unattributed_s": cpu_s - covered,
        }
    )
    out.per_layer.update(overhead(traced, untraced))
    return out


RUNNERS: Dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "campaign": lambda args: run_sim(args, campaign_workload(args)),
    "long_trace": lambda args: run_sim(args, long_trace_workload(args)),
    "service_stream": run_service,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny is for the benchmark's own tests",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    probes = [host_probe()]
    out = RUNNERS[args.workload](args)
    probes.append(host_probe())
    out.reported["host_probe_s"] = (statistics.fmean(probes), "s", len(probes))
    if not out.attempted:
        out.invalid.append("no operation was attempted")
    correct = out.failed == 0 and not out.invalid
    out.reported["failed_share"] = (out.failed / max(out.attempted, 1), "ratio", out.attempted)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    for name, (value, unit, samples) in {**out.end_to_end, **out.reported}.items():
        print(f"  {name:<16} {value:>16.6g} {unit:<6} n={samples}")
    for name, value in out.per_layer.items():
        print(f"  {name:<36} {value:>16.6g} {PER_LAYER[name]}")
    for reason in out.invalid:
        print(f"INVALID: {reason}")
    for error in out.errors[:20]:
        print(f"FAILED: {error}")
    if args.trace:
        metrics = {name: {"value": out.per_layer.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": out.end_to_end[name][0], "unit": unit}
                   for name, unit in END_TO_END.items() if name in out.end_to_end}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(out.attempted, 1),
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
