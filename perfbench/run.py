"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-het --seed 2011 --seconds 45 --trace 0

Run from the repository root.  With ``--trace 0`` the workload runs in
as many passes as fit in ``--seconds`` of host time (at least two) with
only the light instruments installed, and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced pass is followed by one
pass with every layer wrapped, and the per-layer metrics are printed.
Every pass checks its outputs; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"
DEFAULT_SEED = 2011
#: Fresh interpreters timed importing the program; set-up time uses
#: the fastest because one sub-second sample is too noisy.
IMPORT_SAMPLES = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "import repro.experiments.runner, repro.workloads.offline, "
    "repro.core.validation; print(time.perf_counter() - t)"
)

#: Metric names and units are declared once, in BENCHMARK.json.
SPEC = ROOT / "BENCHMARK.json"


def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {
        metric["name"]: metric["unit"]
        for metric in json.loads(SPEC.read_text())[kind]
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _import_seconds() -> float:
    """Fastest import time of the program in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))  # REPRO_* already removed
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return min(samples)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, traced: bool):
    from perfbench import trace
    from perfbench.workloads import WORKLOADS

    tracer = trace.Tracer()
    with tracer:
        if traced:
            trace.install_full(tracer)
            trace.warn_missing(tracer)
        else:
            trace.install_light(tracer)
        result = WORKLOADS[workload](seed, tracer)
    return result, tracer


def check_rows(workload: str, seed: int, passes) -> List[Tuple[str, str]]:
    """Compare simulated rows across passes and with stored rows."""
    problems: List[Tuple[str, str]] = []
    first = passes[0].rows
    for index, other in enumerate(passes[1:], start=1):
        if other.rows != first:
            problems.append(("rows", f"pass {index} rows differ from pass 0"))
    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    stored = expected.get(str(seed))
    if stored is not None and json.loads(json.dumps(first)) != stored:
        problems.append(("rows", f"rows differ from {EXPECTED.name} for seed {seed}"))
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes, import_s: float) -> Dict[str, float]:
    # Passes of a run repeat identical work, and the host only ever
    # slows work down (neighbours on the shared core and caches), so
    # the fastest repeat is the closest to the program's own cost.  A
    # pass is timed step by step because the slow stretches are often
    # shorter than a pass.
    fastest_steps = {
        name: min(result.steps[name] for result in passes if name in result.steps)
        for name in passes[0].steps
    }
    return {
        "setup_s": import_s + min(
            sample for result in passes for sample in result.setup_s
        ),
        "wall_s": import_s + sum(fastest_steps.values()),
        # Later passes can only raise the process peak, and how many run
        # depends on host speed, so memory is the peak of pass 0.
        "peak_rss_mb": passes[0].peak_rss_mb,
        "allocated_brokers": float(passes[0].allocated_brokers),
    }


def simulated_summary(result) -> Dict[str, Tuple[float, str]]:
    """The simulated delivery metrics of one pass (workloads that simulate)."""
    if not result.window_deliveries:
        return {}
    lost = result.publications_lost
    summary = {
        "deliveries_per_s": (result.deliveries / result.wall_s, "1/s"),
        "mean_delivery_delay_ms": (
            1000.0 * result.window_delay_s / result.window_deliveries, "ms_sim"
        ),
        "delivery_rate": (
            result.window_deliveries / (result.window_deliveries + lost), "ratio"
        ),
    }
    return summary


def per_layer(tracer, result, untraced_wall: float) -> Dict[str, float]:
    traced_wall = result.wall_s
    self_s, incl_s, calls, counters = (
        tracer.self_s, tracer.incl_s, tracer.calls, tracer.counters
    )
    windows = [span for span in tracer.spans if span["name"] == "sim.window"]
    window_events = sum(span.get("events", 0) for span in windows)
    metrics: Dict[str, float] = {
        "pubsub.matching.self_s": self_s["pubsub.matching"],
        "pubsub.matching.calls": counters["matching.outer_calls"],
        "pubsub.matching.routes": counters["matching.routes"],
        "pubsub.matching.hit_ratio": _ratio(
            counters["matching.hits"], counters["matching.outer_calls"]
        ),
        "pubsub.matching.writes": calls["pubsub.matching.write"],
        "pubsub.matching.write_s": self_s["pubsub.matching.write"],
        "sim.events": window_events + counters["sim.gather_events"],
        "sim.host_us_per_event": 1e6 * _ratio(self_s["sim.window"], window_events),
        "pubsub.broker.receives": calls["pubsub.broker"],
        "pubsub.broker.self_s": self_s["pubsub.broker"],
        "pubsub.broker.probe_cache_hit_ratio": _ratio(
            counters["broker.probe_hits"],
            counters["broker.probe_hits"] + counters["broker.probe_misses"],
        ),
        "pubsub.cbc.records": calls["pubsub.cbc"],
        "pubsub.cbc.self_s": self_s["pubsub.cbc"],
        "pubsub.metrics.records": calls["pubsub.metrics"],
        "pubsub.metrics.self_s": self_s["pubsub.metrics"],
        "pubsub.network.apply_s": incl_s["pubsub.network.apply"],
        "pubsub.faults.messages_lost": counters["faults.messages_lost"],
        "pubsub.faults.publications_lost": counters["faults.publications_lost"],
        "sim.utilization_mean": _ratio(
            counters["sim.utilization_sum"], counters["sim.measurement_windows"]
        ),
        "sim.utilization_max": counters["sim.utilization_max"],
        "core.croc.plan_s": incl_s["core.croc.plan"],
        "core.croc.gather_s": incl_s["core.croc.gather"],
        "core.croc.gather_attempts": counters["croc.gather_attempts"],
        "core.croc.silent_brokers": counters["croc.silent_brokers"],
        "core.croc.duplicate_records": sum(n for _, n in result.duplicate_records),
        "core.cram.closeness_evaluations": counters["cram.closeness_evaluations"],
        "core.cram.kernel_memo_hit_ratio": _ratio(
            counters["cram.memo_hits"],
            counters["cram.memo_hits"] + counters["cram.kernel_evaluations"],
        ),
        "core.cram.merge_ratio": _ratio(
            counters["cram.merges"], counters["cram.merges"] + counters["cram.failures"]
        ),
        "core.overlay.build_s": incl_s["core.overlay"],
        "core.overlay.forced_root_overloads": len(result.root_overloads),
        "core.grape.place_s": incl_s["core.grape"],
        "core.online.step_s": incl_s["core.online"],
        "core.online.subscriptions_moved": result.subscriptions_moved,
        "core.online.migration_gap_s": result.migration_gap_s,
        "workloads.build_s": incl_s["workloads.build"],
        "workloads.offline_gather_s": incl_s["workloads.offline_gather"],
        "experiments.self_s": (
            self_s["experiments.runner"] + self_s["experiments.continuous"]
        ),
        "trace.unattributed_s": traced_wall - tracer.named_self_s(),
        "trace.coverage_ratio": _ratio(tracer.named_self_s(), traced_wall),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    for role in ("profiling", "measurement", "settle"):
        spans = [span for span in windows if span.get("role") == role]
        metrics[f"sim.windows.{role}"] = len(spans)
        metrics[f"sim.window_s.{role}"] = sum(s["end"] - s["start"] for s in spans)
    for name in metric_units("per_layer"):
        if name.startswith("core.alloc."):
            metrics[name] = incl_s[name[: -len("_s")]]
    return metrics


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def provenance(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    from perfbench.workloads import churn_config
    from repro.core.config import RunConfig

    sha: Optional[str] = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    config = churn_config() if workload == "churn-crash" else RunConfig()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload,
        "seed": seed,
        "run_config": asdict(config.resolved()),
        "traced": traced,
    }


def _print_table(title: str, rows: Dict[str, Tuple[float, str]]) -> None:
    if not rows:
        return
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<38} {value:>16.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    traced = bool(args.trace)

    import_s = 0.0 if traced else _import_seconds()
    passes = []
    first_started = time.perf_counter()
    while True:
        result, tracer = run_pass(args.workload, args.seed, traced=False)
        passes.append(result)
        del tracer
        gc.collect()
        # Run two passes, so every step has a repeat, and another only
        # if it is expected to fit in the run, so a run lasts about
        # --seconds whatever the pass length.
        elapsed = time.perf_counter() - first_started
        if traced or (
            len(passes) >= 2
            and elapsed * (len(passes) + 1) / len(passes) > args.seconds
        ):
            break
    if traced:
        untraced_wall = result.wall_s
        result, tracer = run_pass(args.workload, args.seed, traced=True)
        passes.append(result)
        trace_metrics = per_layer(tracer, result, untraced_wall)

    problems = [problem for result in passes for problem in result.problems]
    problems += check_rows(args.workload, args.seed, passes)
    attempted = sum(result.ops for result in passes)
    failed = sum(result.failed for result in passes)
    if any(label == "rows" for label, _ in problems):
        failed = max(failed, 1)
    for label, message in problems:
        print(f"perfbench: CHECK FAILED [{label}] {message}", file=sys.stderr)
    for tag, message in passes[0].root_overloads:
        print(f"perfbench: forced Phase-3 root over capacity [{tag}] {message}")
    for tag, count in passes[0].duplicate_records:
        print(f"perfbench: gather reported {count} subscription(s) twice [{tag}]")

    if traced:
        units = metric_units("per_layer")
        metrics = {name: trace_metrics[name] for name in units}
    else:
        units = metric_units("end_to_end")
        measured = end_to_end(passes, import_s)
        metrics = {name: measured[name] for name in units}
    _print_table(f"{args.workload} seed={args.seed} passes={len(passes)} "
                 f"trace={args.trace}",
                 {name: (value, units[name]) for name, value in metrics.items()})
    _print_table("simulated outputs (pass 0)", simulated_summary(passes[0]))

    OUT.mkdir(exist_ok=True)
    record = {
        "provenance": provenance(args.workload, args.seed, traced),
        "passes": len(passes),
        "pass_wall_s": [result.wall_s for result in passes],
        "metrics": metrics,
        "rows": passes[0].rows,
        "problems": problems,
        "forced_root_overloads": [m for _, m in passes[0].root_overloads],
        "duplicate_records": passes[0].duplicate_records,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({
            "spans": tracer.spans,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
        }))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


def _bootstrap() -> None:
    """Make the program and this package importable, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC.name}/ next to "
              f"{BENCH.name}/; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(SRC), str(ROOT)]


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
