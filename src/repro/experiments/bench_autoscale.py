"""Benchmark driver for elastic replica autoscaling.

Static peak provisioning vs. the :class:`~repro.autoscale.Autoscaler`,
on trace-driven load (diurnal day/night cycle and bursty MMPP by
default), emitting ``BENCH_autoscale.json``.  Both arms run the same
serving frontend over the same seeded request stream on the paper
cluster; the only difference is provisioning:

* **static-peak** pre-places, per model, enough single-replica
  deployments to carry the trace's *windowed peak* arrival rate at the
  shared utilisation target — the classic fleet sized for the worst
  moment, resident for the whole run;
* **autoscale** pre-places the minimum (one deployment per model) and
  arms the autoscaler to track demand between ``min_replicas`` and
  ``max_replicas``.

The two metrics that matter: **SLO attainment** of admitted requests
(quality — elasticity must not cost deadlines) and **replica-seconds**
(cost — integrated exactly by a :class:`~repro.autoscale.ReplicaLedger`
on controller instantiate/discard hooks, both arms charged to one common
evaluation horizon).  The acceptance gate requires, on every trace, SLO
within 5 points of static peak while spending >= 30% fewer
replica-seconds.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_autoscale           # full
    PYTHONPATH=src python -m repro.experiments.bench_autoscale --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import time

from ..autoscale import Autoscaler, AutoscaleParameters, ReplicaLedger
from ..cluster import ClusterSimulator, paper_cluster
from ..perf.profiling import PROFILER
from ..runtime import Catalog, build_system
from ..serving import Request, ServingFrontend, ServingParameters
from ..units import ms
from ..vital import VitalCompiler
from ..workloads import ARRIVAL_PROCESSES, arrival_process
from .bench_gate import gate_block

#: Weighted round-robin model pattern: the stream leans on the slowest
#: model (lstm-h256-t150, ~1200 req/s per single deployment) so its
#: demand genuinely spans one-to-several deployments across the trace.
STREAM_PATTERN = (
    "lstm-h256-t150",
    "gru-h512-t1",
    "lstm-h256-t150",
    "lstm-h512-t25",
    "lstm-h256-t150",
    "lstm-h256-t150",
)
#: Mean offered rate over the whole stream (requests/s, all models).
TOTAL_RATE_PER_S = 2400.0
#: The canonical trace pair the gate runs on.
TRACES = ("diurnal", "mmpp")

FULL_TASK_COUNT = 12000
SMOKE_TASK_COUNT = 3000
ARRIVAL_SEED = 17

#: Relative SLO for every request.
DEADLINE_S = 0.25
#: Shared provisioning headroom: static sizes for peak demand at this
#: utilisation, the autoscaler's scale-down gate targets the same number
#: — identical headroom policy, applied once vs. continuously.
UTIL_TARGET = 0.6
#: Diurnal shape: deep troughs, and a period chosen so every run length
#: sees the same number of day/night cycles.
DIURNAL_AMPLITUDE = 0.9
DIURNAL_PERIODS = 2.5
#: Sliding window for the static arm's peak-rate measurement.
PEAK_WINDOW_S = 0.05
#: Replica-unit ceiling per model, shared by both arms (the static fleet
#: is clamped to the same ceiling the autoscaler honours).
MAX_UNITS = 6

#: Acceptance gate: autoscaled SLO within this many points of static
#: peak, with at least this fraction of replica-seconds saved.
GATE_SLO_MARGIN_PP = 5.0
GATE_SAVINGS_FLOOR = 0.30


def serving_parameters() -> ServingParameters:
    """Deep queues (the autoscaler's pressure signal needs headroom
    before shedding) and brownout off so elasticity is isolated."""
    return ServingParameters(
        default_deadline_s=DEADLINE_S,
        max_queue_depth=64,
        brownout_enabled=False,
    )


def autoscale_parameters() -> AutoscaleParameters:
    return AutoscaleParameters(
        max_replicas=MAX_UNITS,
        down_target_util=UTIL_TARGET,
        up_cooldown_s=ms(10.0),
        down_cooldown_s=ms(50.0),
    )


def build_trace(trace: str, task_count: int, seed: int = ARRIVAL_SEED) -> list:
    """Deadline-carrying request stream under one arrival shape, models
    assigned by the weighted round-robin pattern."""
    generator = arrival_process(trace)
    if trace == "diurnal":
        duration = task_count / TOTAL_RATE_PER_S
        arrivals = generator(
            task_count,
            TOTAL_RATE_PER_S,
            seed=seed,
            period_s=duration / DIURNAL_PERIODS,
            amplitude=DIURNAL_AMPLITUDE,
        )
    else:
        arrivals = generator(task_count, TOTAL_RATE_PER_S, seed=seed)
    return [
        Request(
            task_id=index,
            model_key=STREAM_PATTERN[index % len(STREAM_PATTERN)],
            arrival_s=arrival_s,
            size_class="S",
        )
        for index, arrival_s in enumerate(arrivals)
    ]


def _single_plan(controller, model_key: str):
    """The narrowest single-replica plan of one model."""
    plans = [
        plan
        for plan in controller.catalog.entry_by_key(model_key).sorted_plans()
        if plan.replicas == 1
    ]
    return min(plans, key=controller.plan_footprint)


def _probe_service_rate(model_key: str) -> float:
    """Requests/s of one single-replica deployment (a throwaway probe
    placement on a fresh cluster; deterministic)."""
    system = build_system("proposed", paper_cluster(), Catalog(VitalCompiler()))
    controller = system.controller
    plan = _single_plan(controller, model_key)
    deployment, _ = controller.place_plan(plan, 0.0)
    rate = 1.0 / deployment.service_s
    controller.discard(deployment)
    return rate


def peak_window_rates(tasks: list, window_s: float = PEAK_WINDOW_S) -> dict:
    """Per-model peak arrival rate over any ``window_s`` sliding window —
    what a static provisioner sizing for the worst moment would read off
    the trace."""
    by_model: dict[str, list] = {}
    for task in tasks:
        by_model.setdefault(task.model_key, []).append(task.arrival_s)
    peaks = {}
    for model_key, times in by_model.items():
        best = 1
        lo = 0
        for hi in range(len(times)):
            while times[hi] - times[lo] > window_s:
                lo += 1
            best = max(best, hi - lo + 1)
        peaks[model_key] = best / window_s
    return peaks


def static_fleet(tasks: list) -> dict:
    """Model -> replica units the static-peak arm pre-places: windowed
    peak rate over the utilisation target, clamped to the shared unit
    ceiling."""
    peaks = peak_window_rates(tasks)
    fleet = {}
    for model_key, peak_rate in peaks.items():
        need = math.ceil(peak_rate / (UTIL_TARGET * _probe_service_rate(model_key)))
        fleet[model_key] = max(1, min(MAX_UNITS, need))
    return fleet


def minimum_fleet(tasks: list) -> dict:
    """One deployment per model — the autoscale arm's starting point."""
    return {task.model_key: 1 for task in tasks}


def run_arm(
    trace: str, tasks: list, fleet: dict, autoscale: bool
) -> tuple[dict, ReplicaLedger]:
    """One full run; returns the metrics block and the (unfinalised)
    replica ledger, so both arms can be charged to a common horizon."""
    PROFILER.reset()
    system = build_system(
        "proposed", paper_cluster(), Catalog(VitalCompiler()), recovery=True
    )
    controller = system.controller
    frontend = ServingFrontend(system, serving_parameters())
    ledger = ReplicaLedger()
    controller.ledger = ledger
    arm = "autoscale" if autoscale else "static"
    simulator = ClusterSimulator(frontend, f"autoscale-{trace}-{arm}")
    for model_key in sorted(fleet):
        plan = _single_plan(controller, model_key)
        for _ in range(fleet[model_key]):
            placed = controller.place_plan(plan, 0.0)
            if placed is None:
                raise RuntimeError(
                    f"pre-placement of {model_key} x{fleet[model_key]} "
                    f"does not fit the cluster"
                )
    autoscaler = None
    if autoscale:
        autoscaler = Autoscaler(frontend, autoscale_parameters())
        autoscaler.arm(tasks[-1].arrival_s)
    start = time.perf_counter()
    result = simulator.run(tasks)
    wall_s = time.perf_counter() - start
    stats = frontend.stats
    metrics = {
        "arm": arm,
        "trace": trace,
        "preplaced_units": dict(sorted(fleet.items())),
        "offered": stats.offered,
        "admitted": stats.admitted,
        "shed": stats.shed,
        "expired": stats.expired,
        "abandoned": stats.abandoned,
        "completed": stats.completed,
        "dropped": len(result.dropped),
        "slo_attainment": stats.slo_attainment(),
        "slo_admitted": (
            stats.slo_hits / stats.admitted if stats.admitted else 1.0
        ),
        "goodput_per_s": (
            stats.slo_hits / result.makespan_s if result.makespan_s else 0.0
        ),
        "p50_latency_s": _percentile(stats.latencies_s, 0.50),
        "p99_latency_s": _percentile(stats.latencies_s, 0.99),
        "makespan_s": result.makespan_s,
        "wall_clock_s": wall_s,
        "deployments_created": controller.stats.deployments_created,
    }
    if autoscaler is not None:
        a = autoscaler.stats
        metrics["autoscale"] = {
            "ticks": a.ticks,
            "scale_ups": a.scale_ups,
            "scale_downs": a.scale_downs,
            "widenings": a.widenings,
            "additions": a.additions,
            "retirements": a.retirements,
            "narrowings": a.narrowings,
            "suppressed": a.suppressed,
            "blocked_by_capacity": a.blocked_by_capacity,
            "peak_units": dict(sorted(a.peak_units.items())),
        }
    return metrics, ledger


def _percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(fraction * (len(ordered) - 1))]


def run_trace(trace: str, task_count: int) -> dict:
    """Both arms on one trace, charged to one evaluation horizon."""
    tasks = build_trace(trace, task_count)
    static_metrics, static_ledger = run_arm(
        trace, tasks, static_fleet(tasks), autoscale=False
    )
    auto_metrics, auto_ledger = run_arm(
        trace, tasks, minimum_fleet(tasks), autoscale=True
    )
    horizon = max(static_metrics["makespan_s"], auto_metrics["makespan_s"])
    static_cost = static_ledger.totals(horizon)
    auto_cost = auto_ledger.totals(horizon)
    static_metrics["replica_seconds"] = static_cost["replica_seconds"]
    static_metrics["block_seconds"] = static_cost["block_seconds"]
    auto_metrics["replica_seconds"] = auto_cost["replica_seconds"]
    auto_metrics["block_seconds"] = auto_cost["block_seconds"]
    savings = (
        1.0 - auto_cost["replica_seconds"] / static_cost["replica_seconds"]
        if static_cost["replica_seconds"]
        else 0.0
    )
    slo_delta_pp = 100.0 * (
        static_metrics["slo_admitted"] - auto_metrics["slo_admitted"]
    )
    return {
        "trace": trace,
        "eval_horizon_s": horizon,
        "static": static_metrics,
        "autoscale": auto_metrics,
        "replica_second_savings": savings,
        "slo_delta_pp": slo_delta_pp,
        "pass": (
            slo_delta_pp <= GATE_SLO_MARGIN_PP
            and savings >= GATE_SAVINGS_FLOOR
        ),
    }


def run_bench(
    task_count: int = FULL_TASK_COUNT,
    output: str | pathlib.Path = "BENCH_autoscale.json",
    traces: tuple = TRACES,
) -> dict:
    results = [run_trace(trace, task_count) for trace in traces]
    report = {
        "workload": {
            "task_count": task_count,
            "pattern": list(STREAM_PATTERN),
            "total_rate_per_s": TOTAL_RATE_PER_S,
            "traces": list(traces),
            "arrival_seed": ARRIVAL_SEED,
            "deadline_s": DEADLINE_S,
            "util_target": UTIL_TARGET,
            "max_units": MAX_UNITS,
        },
        "traces": results,
    }
    exact = {
        f"{r['trace']}.{key}": r[key]
        for r in results
        for key in ("slo_delta_pp", "replica_second_savings")
    }
    checks = {f"{r['trace']}.pass": r["pass"] for r in results}
    report["gate"] = gate_block(report["workload"], exact, checks)
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=FULL_TASK_COUNT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: {SMOKE_TASK_COUNT} tasks",
    )
    parser.add_argument("--output", default="BENCH_autoscale.json")
    parser.add_argument(
        "--arrival",
        choices=sorted(ARRIVAL_PROCESSES),
        default=None,
        help="run a single arrival shape instead of the canonical pair",
    )
    args = parser.parse_args(argv)
    task_count = SMOKE_TASK_COUNT if args.smoke else args.tasks
    traces = (args.arrival,) if args.arrival else TRACES
    report = run_bench(
        task_count=task_count, output=args.output, traces=traces
    )
    for result in report["traces"]:
        static, auto = result["static"], result["autoscale"]
        print(
            f"{result['trace']:8s} static : units {static['preplaced_units']} "
            f"SLO {static['slo_admitted']:.3f} "
            f"replica-s {static['replica_seconds']:.2f}"
        )
        print(
            f"{result['trace']:8s} auto   : "
            f"ups {auto['autoscale']['scale_ups']} "
            f"downs {auto['autoscale']['scale_downs']} "
            f"SLO {auto['slo_admitted']:.3f} "
            f"replica-s {auto['replica_seconds']:.2f} "
            f"(savings {result['replica_second_savings']:.1%}, "
            f"dSLO {result['slo_delta_pp']:.2f} pp) -> "
            f"{'PASS' if result['pass'] else 'FAIL'}"
        )
    print(f"gate: {'PASS' if report['gate']['pass'] else 'FAIL'}")
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
