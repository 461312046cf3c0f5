"""Timing wrappers the benchmark installs around the program's layers.

The program itself is not edited: :class:`Tracer` replaces functions on
their classes or modules with wrappers for the duration of one pass and
restores the originals afterwards.  Each wrapper measures host time with
``time.perf_counter`` and subtracts the time of nested wrapped calls, so
every host second inside a wrapped call is charged to exactly one key
(its *self* time).  Wrappers marked ``keep`` also record a span (name,
start, end, parent span) in memory; hot wrappers only aggregate calls
and self time, because keeping a span per matched publication would
cost more memory than the program under test.

Two instrument sets exist:

* the *light* set, installed on every run, touches only a handful of
  calls per pass: ``Croc.plan`` (the paper's computation time, and the
  plans the output checks validate), the simulation windows, and the
  call that ends set-up (the first reconfiguration of a continuous
  run);
* the *full* set, installed on traced runs only, wraps the public
  functions of every runtime layer named in ``README.md``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Installs wrappers, accumulates self time, counts and spans."""

    def __init__(self) -> None:
        #: One frame per active wrapped call:
        #: [child_seconds, key, span_index, receiver, seconds].  Inclusive time
        #: of a call nested in one of the same key is merged into the
        #: outer call (an allocator delegating to an inner allocator is
        #: one allocation).
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self.origin = perf_counter()
        #: True once the full (traced-run) instrument set is installed.
        self.full = False
        # Set-up marker: armed by the workload before a system starts,
        # fired by the first call of the armed kind.
        self._armed: Optional[str] = None
        self.setup_end: Optional[float] = None
        #: (tag, gathered, report, fallback roots, host seconds) of every
        #: Croc.plan call.
        self.plans: List[Tuple[Any, Any, Any, int, float]] = []
        self.tag: Any = None
        #: The latest simulation-window span; a following metrics
        #: summary marks it as a measurement window.
        self._last_window: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, name: str, key: Any, *, keep: bool = False,
             enter: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.name`` with a timing wrapper.

        ``key`` is a layer key or a callable ``(args) -> key``.
        ``enter(args)`` runs before the call and may return a context
        value; ``observe(args, result, context, frame)`` runs after it
        returns normally.  A missing target is reported, not fatal: the
        program may have renamed it, and the trace then shows the gap
        as unattributed time.
        """
        original = vars(owner).get(name)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        if not keep and enter is None and observe is None and not callable(key):
            def wrapper(*args, **kwargs):
                frame = [0.0, key, None, None, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    self_s[key] += elapsed - frame[0]
                    calls[key] += 1
        else:
            spans = self.spans

            def wrapper(*args, **kwargs):
                k = key(self, args) if callable(key) else key
                parent = stack[-1] if stack else None
                context = enter(self, args) if enter is not None else None
                frame = [0.0, k, None, args[0] if args else None, 0.0]
                if keep:
                    parent_span = next(
                        (f[2] for f in reversed(stack) if f[2] is not None), None
                    )
                    frame[2] = len(spans)
                    spans.append({"name": k, "parent": parent_span})
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    elapsed = frame[4] = end - start
                    stack.pop()
                    if parent is not None:
                        parent[0] += elapsed
                    self_s[k] += elapsed - frame[0]
                    calls[k] += 1
                    if parent is None or parent[1] != k:
                        incl_s[k] += elapsed
                    if keep:
                        span = spans[frame[2]]
                        span["start"] = start - self.origin
                        span["end"] = end - self.origin
                if observe is not None:
                    observe(self, args, result, context, frame)
                return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Helpers used by the hooks
    # ------------------------------------------------------------------
    def inside(self, key: str) -> bool:
        return any(frame[1] == key for frame in self._stack)

    def arm_setup(self, kind: str) -> None:
        """Record the host time of the next ``kind`` event as set-up end."""
        self._armed = kind
        self.setup_end = None

    def fire_setup(self, kind: str) -> None:
        if self._armed == kind:
            self._armed = None
            self.setup_end = perf_counter()

    def named_self_s(self) -> float:
        return sum(self.self_s.values())


# ----------------------------------------------------------------------
# Light instrument set (every run)
# ----------------------------------------------------------------------
def install_light(tracer: Tracer) -> None:
    from repro.core.croc import Croc
    from repro.pubsub.network import PubSubNetwork

    def plan_observe(tr, args, result, context, frame):
        fallback_roots = args[0].overlay_builder.last_stats.fallback_roots
        tr.plans.append((tr.tag, args[1], result, fallback_roots, frame[4]))

    tracer.wrap(Croc, "plan", "core.croc.plan", keep=True, observe=plan_observe)
    tracer.wrap(Croc, "reconfigure", "core.croc.reconfigure", keep=True,
                enter=lambda tr, args: tr.fire_setup("reconfigure"))
    tracer.wrap(PubSubNetwork, "run", "sim.window", keep=True,
                enter=_window_enter, observe=_window_observe)


def _window_enter(tr: Tracer, args) -> Tuple[int, str]:
    from repro.experiments.runner import SETTLE_TIME

    network, duration = args[0], args[1]
    if tr.inside("core.croc.reconfigure") or duration == SETTLE_TIME:
        role = "settle"
    else:
        role = "profiling"
    return network.sim.events_processed, role


def _window_observe(tr: Tracer, args, result, context, frame) -> None:
    events_before, role = context
    span = tr.spans[frame[2]]
    span["role"] = role
    span["events"] = args[0].sim.events_processed - events_before
    tr._last_window = span


# ----------------------------------------------------------------------
# Full instrument set (traced runs)
# ----------------------------------------------------------------------
def install_full(tracer: Tracer) -> None:
    """Wrap the public functions of every runtime layer."""
    from repro.core import online as core_online
    from repro.core.binpacking import BinPackingAllocator
    from repro.core.cram import CramAllocator
    from repro.core.croc import Croc
    from repro.core.fbf import FbfAllocator
    from repro.core.grape import GrapeRelocator
    from repro.core.overlay_builder import OverlayBuilder
    from repro.experiments import continuous, runner
    from repro.pubsub.broker import Broker
    from repro.pubsub.cbc import CrocBackendComponent
    from repro.pubsub.matching import MatchingIndex
    from repro.pubsub.metrics import MetricsCollector
    from repro.pubsub.network import PubSubNetwork
    from repro.workloads import offline

    install_light(tracer)
    tracer.full = True
    wrap = tracer.wrap

    # repro.experiments: glue between the layers.
    wrap(runner.ExperimentRunner, "run", "experiments.runner", keep=True,
         observe=_harvest_runner)
    wrap(runner.ExperimentRunner, "run_continuous", "experiments.runner",
         keep=True, observe=_harvest_runner)
    wrap(continuous.ContinuousReconfigurator, "run", "experiments.continuous",
         keep=True)
    wrap(continuous.OnlineScheduler, "step", "experiments.continuous")
    wrap(continuous.SubscriberChurn, "__call__", "experiments.continuous")

    # repro.workloads
    wrap(runner.ExperimentRunner, "_build_network", "workloads.build", keep=True)
    wrap(offline, "offline_gather", "workloads.offline_gather", keep=True)
    # offline_gather matches each subscription against each publication
    # directly; its self time counts as matching, its calls do not.
    wrap(offline, "matches", "pubsub.matching")

    # repro.pubsub
    wrap(PubSubNetwork, "apply_deployment", "pubsub.network.apply", keep=True)
    wrap(Broker, "receive", "pubsub.broker")
    for method in ("matching_routes", "matching_entries", "matching_payloads"):
        wrap(MatchingIndex, method, "pubsub.matching", observe=_count_routes)
    wrap(MatchingIndex, "add", "pubsub.matching.write")
    wrap(MatchingIndex, "remove_subscription", "pubsub.matching.write")
    wrap(CrocBackendComponent, "on_delivery", "pubsub.cbc")
    wrap(MetricsCollector, "on_delivery", "pubsub.metrics")
    wrap(MetricsCollector, "reset_window", "pubsub.metrics.window",
         enter=_harvest_losses)
    wrap(MetricsCollector, "summary", "pubsub.metrics.window",
         observe=_measurement_window)

    # repro.core
    wrap(Croc, "gather", "core.croc.gather", keep=True,
         enter=_events_enter, observe=_gather_observe)
    for allocator in (FbfAllocator, BinPackingAllocator, CramAllocator,
                      core_online.OnlineAllocator):
        wrap(allocator, "allocate", _allocate_key, keep=True,
             observe=_cram_stats if allocator is CramAllocator else None)
    wrap(OverlayBuilder, "build", "core.overlay", keep=True)
    wrap(GrapeRelocator, "place_publishers", "core.grape", keep=True)
    wrap(core_online.OnlineAllocator, "plan_migrations", "core.online", keep=True)


def _allocate_key(tr: Tracer, args) -> str:
    """Phase-3 allocations are overlay work; Phase-2 ones are keyed by
    the approach of the enclosing ``Croc.plan`` (an allocator that
    delegates to an inner one stays under the outer key)."""
    for frame in reversed(tr._stack):
        if frame[1] == "core.overlay":
            return "core.overlay"
        if frame[1].startswith("core.alloc."):
            return frame[1]
        if frame[1] == "core.croc.plan":
            return "core.alloc." + frame[3].approach
    return "core.alloc." + getattr(args[0], "name", "unknown")


def _count_routes(tr: Tracer, args, result, context, frame) -> None:
    stack = tr._stack
    if stack and stack[-1][1] == "pubsub.matching":
        return  # nested inside another matching call
    if isinstance(result, tuple):
        routes = len(result[0]) + len(result[1])
    else:
        routes = len(result)
    counters = tr.counters
    counters["matching.outer_calls"] += 1
    counters["matching.routes"] += routes
    if routes:
        counters["matching.hits"] += 1


def _harvest_losses(tr: Tracer, args) -> None:
    metrics = args[0]
    tr.counters["faults.messages_lost"] += metrics.messages_lost
    tr.counters["faults.publications_lost"] += metrics.publications_lost


def _harvest_runner(tr: Tracer, args, result, context, frame) -> None:
    """Read the counters a finished run leaves on its live network.

    Probe-cache tallies survive broker resets, so they are read once per
    network; loss counters are per window, so the current one is added
    to those read at each window reset.
    """
    network = args[0].network
    if network is None:
        return
    for broker in network.brokers.values():
        tr.counters["broker.probe_hits"] += broker.probe_cache_hits
        tr.counters["broker.probe_misses"] += broker.probe_cache_misses
    _harvest_losses(tr, (network.metrics,))


def _measurement_window(tr: Tracer, args, result, context, frame) -> None:
    window = tr._last_window
    if window is not None and window.get("role") != "settle":
        window["role"] = "measurement"
    tr.counters["sim.measurement_windows"] += 1
    tr.counters["sim.utilization_sum"] += result.mean_utilization
    tr.counters["sim.utilization_max"] = max(
        tr.counters["sim.utilization_max"], result.max_utilization
    )


def _events_enter(tr: Tracer, args) -> int:
    return args[1].sim.events_processed


def _gather_observe(tr: Tracer, args, result, events_before, frame) -> None:
    tr.counters["croc.gather_attempts"] += result.attempts
    tr.counters["croc.silent_brokers"] += len(result.silent_brokers)
    tr.counters["sim.gather_events"] += args[1].sim.events_processed - events_before


def _cram_stats(tr: Tracer, args, result, context, frame) -> None:
    stats = args[0].last_stats
    counters = tr.counters
    counters["cram.closeness_evaluations"] += stats.closeness_evaluations
    counters["cram.memo_hits"] += stats.kernel_memo_hits
    counters["cram.kernel_evaluations"] += (
        stats.kernel_fused_evaluations + stats.kernel_fallback_evaluations
    )
    counters["cram.merges"] += stats.merges
    counters["cram.failures"] += stats.failures


def warn_missing(tracer: Tracer) -> None:
    for target in tracer.missing:
        print(f"perfbench: trace target {target} not found; its time "
              "shows as unattributed", file=sys.stderr)
