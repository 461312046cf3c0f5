"""The benchmark's two workloads, one pass each, with output checks.

A pass runs one workload to completion in this process, serially, and
returns a :class:`PassResult`: host timings of each of its steps, the
simulated rows the output checks compare, and every failed check
tagged with the operation (plan or cycle) it failed.  Which layers each
workload stresses, and why, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from perfbench.trace import Tracer

perf_counter = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    """Host timings and simulated outputs of one workload pass."""

    ops: int
    #: Host seconds of each step; every pass of a workload has the same
    #: steps, and the pass's wall time is their sum.
    steps: Dict[str, float] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    #: Process peak resident memory when the workload proper ended.
    peak_rss_mb: float = 0.0
    allocated_brokers: int = 0
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: (operation label, message) of every failed check.
    problems: List[Tuple[str, str]] = field(default_factory=list)
    #: Capacity violations at a forced Phase-3 root (see _validate_plans).
    root_overloads: List[Tuple[Any, str]] = field(default_factory=list)
    #: (tag, count) of plans whose gather reported subscriptions twice.
    duplicate_records: List[Tuple[Any, int]] = field(default_factory=list)
    #: Simulated totals behind the printed delivery metrics.
    deliveries: int = 0
    window_deliveries: int = 0
    window_delay_s: float = 0.0
    publications_lost: int = 0
    subscriptions_moved: int = 0
    migration_gap_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.steps.values())

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.problems})


def _validate_plans(tracer: Tracer, result: PassResult, label_of) -> None:
    """Check every plan of the pass against the gather it was built from.

    Any violation fails the plan's operation, with one exception that is
    counted instead: a capacity violation at the root that
    ``OverlayBuilder`` forced when recursion could not shrink the last
    layer.  That builder documents the forced root as best-effort (it
    attaches every remaining layer broker to the most resourceful spare
    broker, whatever its capacity); FBF and BIN PACKING reach it on the
    heterogeneous pool with 2,040 subscriptions at every seed tried.
    The count is printed with
    every run so the limitation stays visible.

    A gather can also report a subscription twice: two live brokers
    both report it (seen after churn and migrations; the cause is not
    yet traced), or a silent broker's cached report lists subscriptions
    that have since moved to a live one.  CROC then plans the duplicate
    as a second unit, while the deployment places the subscription
    once.  The program does not promise unique reports, so duplicates
    are counted per plan, not failed; ``validate_deployment`` keeps one
    record per subscription.
    """
    from repro.core.validation import validate_deployment

    for tag, gathered, report, fallback_roots, _seconds in tracer.plans:
        specs = {spec.broker_id: spec for spec in gathered.broker_pool}
        deployment = report.deployment
        duplicates = len(gathered.records) - len(
            {record.sub_id for record in gathered.records}
        )
        if duplicates:
            result.duplicate_records.append((tag, duplicates))
        validation = validate_deployment(
            deployment, gathered.records, gathered.directory, specs
        )
        for violation in validation.violations:
            message = f"{report.approach}: {violation}"
            forced_root = (
                fallback_roots > 0
                and violation.kind != "placement"
                and violation.broker_id == deployment.tree.root
                and validation.loads[violation.broker_id].subscription_count == 0
            )
            if forced_root:
                result.root_overloads.append((tag, message))
            else:
                result.problems.append((label_of(tag), message))


def _window_totals(result: PassResult, summary) -> None:
    result.window_deliveries += summary.delivery_count
    result.window_delay_s += summary.mean_delivery_delay * summary.delivery_count
    result.publications_lost += summary.publications_lost


# ----------------------------------------------------------------------
# plan-het
# ----------------------------------------------------------------------
PLAN_APPROACHES = ("fbf", "binpacking", "cram-ios", "cram-xor")
#: ``Ns`` of the heterogeneous scenario: 1,020 subscriptions per input.
PLAN_SUBSCRIPTIONS = 50
PLAN_INPUTS = 3


def _deployment_digest(deployment) -> str:
    """A stable hash of a deployment's tree and placements."""
    tree = deployment.tree
    canonical = {
        "root": tree.root,
        "edges": sorted(tree.edges()),
        "subscriptions": sorted(deployment.subscription_placement.items()),
        "publishers": sorted(deployment.publisher_placement.items()),
    }
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plan_het(seed: int, tracer: Tracer) -> PassResult:
    """CROC planning alone on offline-gathered heterogeneous profiles.

    One pass plans ``PLAN_INPUTS`` independent gathers, seeded
    ``seed * PLAN_INPUTS + index``, one after the other: the planning
    work depends on the gather, so a pass covers several to keep runs
    of different seeds comparable.
    """
    result = PassResult(ops=len(PLAN_APPROACHES) * PLAN_INPUTS)
    for index in range(PLAN_INPUTS):
        _plan_input(seed * PLAN_INPUTS + index, index, tracer, result)
        # Let the gathers go, so one input's memory does not add to the
        # next one's peak.
        tracer.plans = []
    return result


def _plan_input(input_seed: int, index: int, tracer: Tracer,
                result: PassResult) -> None:
    """Gather one input and plan it with every approach, into ``result``."""
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads import offline
    from repro.workloads.scenarios import cluster_heterogeneous

    started = perf_counter()
    scenario = cluster_heterogeneous(PLAN_SUBSCRIPTIONS, scale=1.0)
    gathered = offline.offline_gather(scenario, input_seed)
    runner = ExperimentRunner(scenario, seed=input_seed)
    result.steps[f"gather {index}"] = perf_counter() - started
    result.setup_s.append(result.steps[f"gather {index}"])
    for approach in PLAN_APPROACHES:
        tracer.tag = (index, approach)
        started = perf_counter()
        try:
            runner.croc_for(approach).plan(gathered)
        except Exception as exc:  # an operation failure, reported below
            result.problems.append((f"input {index} {approach}", f"raised {exc!r}"))
        result.steps[f"{approach} {index}"] = perf_counter() - started
    result.peak_rss_mb = peak_rss_mb()

    _validate_plans(tracer, result, lambda tag: f"input {tag[0]} {tag[1]}")
    for tag, _gathered, report, _fallback, _seconds in tracer.plans:
        result.allocated_brokers += report.allocated_brokers
        result.rows.append({
            "input": index,
            "approach": tag[1],
            "subscriptions": len(gathered.records),
            "allocated_brokers": report.allocated_brokers,
            "phase2_brokers": report.allocation.broker_count,
            "forced_root_overloads": sum(
                1 for overload_tag, _ in result.root_overloads if overload_tag == tag
            ),
            "deployment": _deployment_digest(report.deployment),
        })


# ----------------------------------------------------------------------
# churn-crash
# ----------------------------------------------------------------------
CHURN_CYCLES = 6
CHURN_INPUTS = 2
#: Crashes and jitter, no loss.  Jitter alone switches batched delivery
#: off.  Loss is left out because with it a lost gather answer makes
#: CROC plan a silent broker's stale cached report beside live reports,
#: and on some seeds (9, 18 and 42 of 0-30 and 42 with ``loss=0.01``)
#: the plan overloads a broker; see README.md, "Known defect".
CHURN_FAULTS = "crash=0.1,start=10,downtime=30,jitter=0.002,seed=7"
CHURN_ONLINE = "fij_trade,steps=2,drift=0.5,gap=0.02"


def churn_config():
    from repro.core.config import RunConfig
    from repro.core.online import OnlineSpec

    return RunConfig(online=OnlineSpec.from_spec(CHURN_ONLINE))


def churn_crash(seed: int, tracer: Tracer) -> PassResult:
    """Continuous fij-trade reconfiguration under churn, crashes and jitter.

    One pass runs ``CHURN_INPUTS`` independent systems, seeded
    ``seed * CHURN_INPUTS + index``, one after the other: one system's
    work depends strongly on its churn draws (4 to 6 full plans in six
    cycles), so a pass sums over several to keep runs of different
    seeds comparable.
    """
    result = PassResult(ops=CHURN_CYCLES * CHURN_INPUTS)
    for index in range(CHURN_INPUTS):
        started = perf_counter()
        _churn_input(seed * CHURN_INPUTS + index, index, tracer, result)
        result.steps[f"system {index}"] = perf_counter() - started
        result.peak_rss_mb = peak_rss_mb()
        # Validate outside the timed part and let the gathers go, so one
        # system's memory does not add to the next one's peak.
        _validate_plans(tracer, result, lambda tag: f"input {tag[0]} cycle {tag[1]}")
        tracer.plans = []
    return result


def _churn_input(input_seed: int, index: int, tracer: Tracer,
                 result: PassResult) -> None:
    """One continuous run of churn-crash, added to ``result``."""
    from repro.experiments.continuous import SubscriberChurn
    from repro.experiments.runner import ExperimentRunner
    from repro.sim.faults import FaultPlan
    from repro.sim.rng import SeededRng
    from repro.workloads.scenarios import cluster_homogeneous

    started = perf_counter()
    scenario = cluster_homogeneous(
        25, scale=1.0, broker_bandwidth_kbps=30.0, profile_capacity=96,
        measurement_time=30.0,
    )
    runner = ExperimentRunner(
        scenario, seed=input_seed, fault_plan=FaultPlan.from_spec(CHURN_FAULTS),
        config=churn_config(),
    )

    def make_driver(network) -> Callable[[int], None]:
        churn = SubscriberChurn(network, SeededRng(input_seed, "perfbench", "churn"),
                                leave_fraction=0.5)

        def driver(cycle: int) -> None:
            tracer.tag = (index, cycle)
            churn(cycle)

        return driver

    tracer.tag = (index, None)
    tracer.arm_setup("reconfigure")
    reports = []
    try:
        reports = runner.run_continuous(
            "fij-trade", cycles=CHURN_CYCLES,
            measurement_time=scenario.measurement_time, make_driver=make_driver,
        )
    except Exception as exc:  # every cycle of the input is lost
        for cycle in range(CHURN_CYCLES):
            result.problems.append((f"input {index} cycle {cycle}", f"raised {exc!r}"))
    if tracer.setup_end is not None:
        result.setup_s.append(tracer.setup_end - started)
    if runner.network is not None:
        result.deliveries += sum(
            subscriber.delivered for subscriber in runner.network.subscribers.values()
        )

    if reports and len(reports) != CHURN_CYCLES:
        result.problems.append((f"input {index} cycle -", f"{len(reports)} cycle reports"))
    for report in reports:
        label = f"input {index} cycle {report.cycle}"
        result.rows.append({"input": index, **report.as_row()})
        result.allocated_brokers += report.allocated_brokers
        result.subscriptions_moved += report.subscriptions_moved
        result.migration_gap_s += report.migration_gap_s
        _window_totals(result, report.summary)
        if report.rolled_back:
            result.problems.append((label, f"rolled back: {report.skipped_reason}"))
        elif not report.reconfigured and not report.skipped_reason.startswith("drift"):
            result.problems.append((label, f"abandoned: {report.skipped_reason}"))
        if report.summary.delivery_count <= 0:
            result.problems.append((label, "no deliveries measured"))


WORKLOADS = {
    "plan-het": plan_het,
    "churn-crash": churn_crash,
}
