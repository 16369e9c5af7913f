"""Benchmark driver for the overload-robust serving layer.

Sweeps offered load (as multiples of the reference serving rate) over a
bursty MMPP request stream through the :class:`~repro.serving.frontend.
ServingFrontend`, with and without an armed
:class:`~repro.faults.FaultInjector`, and emits ``BENCH_serving.json``:
per point the admission/shed/expiry/abandonment split, SLO attainment
(overall and per admitted request), goodput, latency percentiles and the
breaker/brownout activity — plus one *no-frontend* reference run at the
highest load showing what unbounded queueing does to the tail.  The same
seeded arrival and fault timelines drive every sweep point, so results
are reproducible bit for bit.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_serving           # full
    PYTHONPATH=src python -m repro.experiments.bench_serving --smoke   # CI

The acceptance gate lives in the report's ``gate`` block: at 2x offered
load with faults armed (MTBF 1 s) the admitted-request SLO attainment
must stay >= 0.9 with a bounded p99.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from ..cluster import ClusterSimulator, Task, paper_cluster
from ..faults import FaultInjector, FaultModelParameters
from ..perf.profiling import PROFILER
from ..runtime import Catalog, build_system
from ..serving import Request, ServingFrontend, ServingParameters
from ..vital import VitalCompiler
from ..workloads import ARRIVAL_PROCESSES, arrival_process
from .bench_gate import gate_block

#: Small serving models (one of each per round-robin turn).
STREAM_MODELS = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")
#: Measured saturating rate of this stream on the paper cluster: goodput
#: plateaus near 900 req/s, so sweep factors are multiples of saturation
#: and the x2 gate point is genuine 2x overload.
BASE_RATE_PER_S = 900.0
LOAD_FACTORS = (0.5, 1.0, 2.0, 6.0)
#: The acceptance gate runs at this overload factor (with faults armed).
GATE_LOAD_FACTOR = 2.0

SMOKE_TASK_COUNT = 60
FULL_TASK_COUNT = 600

#: Fault process at the gate point (matches the fault bench's mid sweep).
MTBF_S = 1.0
MTTR_S = 0.08
FAULT_SEED = 7
ARRIVAL_SEED = 11

#: Relative SLO: each request must finish this long after its arrival.
DEADLINE_S = 0.25

#: Acceptance floor on admitted-request SLO attainment at the gate point.
GATE_SLO_FLOOR = 0.9


def serving_parameters() -> ServingParameters:
    """The bench's frontend configuration (shared with the CLI)."""
    return ServingParameters(default_deadline_s=DEADLINE_S)


def build_requests(
    task_count: int,
    rate_per_s: float,
    seed: int = ARRIVAL_SEED,
    arrival: str = "mmpp",
) -> list:
    """Deadline-carrying request stream (default bursty/MMPP gaps),
    round-robin over the serving models."""
    arrivals = arrival_process(arrival)(task_count, rate_per_s, seed=seed)
    return [
        Request(
            task_id=index,
            model_key=STREAM_MODELS[index % len(STREAM_MODELS)],
            arrival_s=arrival_s,
            size_class="S",
        )
        for index, arrival_s in enumerate(arrivals)
    ]


def _percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(fraction * (len(ordered) - 1))]


def run_point(
    task_count: int,
    load_factor: float,
    mtbf_s: float | None,
    params: ServingParameters | None = None,
    mttr_s: float = MTTR_S,
    fault_seed: int = FAULT_SEED,
    arrival: str = "mmpp",
    autoscale: bool = False,
    autoscale_params=None,
) -> dict:
    """One full serving run at one offered load; returns the metrics
    block.  ``mtbf_s=None`` runs fault-free.  ``autoscale=True`` arms an
    elastic :class:`~repro.autoscale.Autoscaler` over the frontend.
    Shared with ``repro serve``.
    """
    PROFILER.reset()
    rate = BASE_RATE_PER_S * load_factor
    tasks = build_requests(task_count, rate, arrival=arrival)
    system = build_system(
        "proposed", paper_cluster(), Catalog(VitalCompiler()), recovery=True
    )
    frontend = ServingFrontend(system, params or serving_parameters())
    label = "none" if mtbf_s is None else f"{mtbf_s:g}"
    simulator = ClusterSimulator(
        frontend, f"serving-x{load_factor:g}-mtbf-{label}"
    )
    autoscaler = None
    if autoscale:
        from ..autoscale import Autoscaler

        autoscaler = Autoscaler(frontend, autoscale_params)
        autoscaler.bind_simulator(simulator)
        arrival_horizon = tasks[-1].arrival_s if tasks else 0.0
        autoscaler.arm(arrival_horizon)
    injector = None
    if mtbf_s is not None:
        injector = FaultInjector(
            simulator,
            system.controller,
            FaultModelParameters(
                mtbf_s=mtbf_s, mttr_s=mttr_s, seed=fault_seed
            ),
        )
        # Cover the whole run, not just the arrival window: at high load
        # the backlog drains well past the last arrival.
        arrival_horizon = tasks[-1].arrival_s if tasks else 0.0
        injector.arm(max(arrival_horizon, task_count / BASE_RATE_PER_S))
    start = time.perf_counter()
    result = simulator.run(tasks)
    wall_s = time.perf_counter() - start
    stats = frontend.stats
    makespan = result.makespan_s
    point = {
        "load_factor": load_factor,
        "offered_rate_per_s": rate,
        "arrival": arrival,
        "mtbf_s": mtbf_s,
        "offered": stats.offered,
        "admitted": stats.admitted,
        "shed": stats.shed,
        "expired": stats.expired,
        "abandoned": stats.abandoned,
        "breaker_rejections": stats.breaker_rejections,
        "completed": stats.completed,
        "dropped": len(result.dropped),
        "slo_hits": stats.slo_hits,
        "slo_attainment": stats.slo_attainment(),
        "slo_admitted": (
            stats.slo_hits / stats.admitted if stats.admitted else 1.0
        ),
        "shed_rate": stats.shed_rate(),
        "goodput_per_s": stats.slo_hits / makespan if makespan else 0.0,
        "p50_latency_s": _percentile(stats.latencies_s, 0.50),
        "p99_latency_s": _percentile(stats.latencies_s, 0.99),
        "makespan_s": makespan,
        "wall_clock_s": wall_s,
        "placement_retries": stats.placement_retries,
        "breaker_opens": stats.breaker_opens,
        "breaker_half_opens": stats.breaker_half_opens,
        "breaker_closes": stats.breaker_closes,
        "brownout_entries": stats.brownout_entries,
        "brownout_switches": stats.brownout_switches,
        "boards_failed": system.controller.stats.boards_failed,
        "recoveries": system.controller.stats.recoveries,
        "recovery_backoff_s": system.controller.stats.recovery_backoff_s,
    }
    if autoscaler is not None:
        a = autoscaler.stats
        point["autoscale"] = {
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
    return point


def run_reference(
    task_count: int, load_factor: float, arrival: str = "mmpp"
) -> dict:
    """The same stream with *no* serving edge: every request is accepted
    and queued forever — the tail the frontend exists to prevent."""
    PROFILER.reset()
    rate = BASE_RATE_PER_S * load_factor
    tasks = [
        Task(
            task_id=request.task_id,
            model_key=request.model_key,
            arrival_s=request.arrival_s,
            size_class=request.size_class,
        )
        for request in build_requests(task_count, rate, arrival=arrival)
    ]
    system = build_system(
        "proposed", paper_cluster(), Catalog(VitalCompiler()), recovery=True
    )
    simulator = ClusterSimulator(system, f"no-frontend-x{load_factor:g}")
    result = simulator.run(tasks)
    latencies = [task.latency_s for task in result.completed]
    on_time = sum(1 for latency in latencies if latency <= DEADLINE_S)
    return {
        "load_factor": load_factor,
        "offered_rate_per_s": rate,
        "completed": len(result.completed),
        "slo_attainment": on_time / len(latencies) if latencies else 1.0,
        "p50_latency_s": _percentile(latencies, 0.50),
        "p99_latency_s": _percentile(latencies, 0.99),
        "makespan_s": result.makespan_s,
    }


def run_bench(
    task_count: int = FULL_TASK_COUNT,
    output: str | pathlib.Path = "BENCH_serving.json",
    arrival: str = "mmpp",
) -> dict:
    """Sweep offered load with and without faults; write the report."""
    sweep = []
    for mtbf_s in (None, MTBF_S):
        for load_factor in LOAD_FACTORS:
            sweep.append(
                run_point(task_count, load_factor, mtbf_s, arrival=arrival)
            )
    gate_point = next(
        p
        for p in sweep
        if p["mtbf_s"] == MTBF_S and p["load_factor"] == GATE_LOAD_FACTOR
    )
    reference = run_reference(task_count, max(LOAD_FACTORS), arrival=arrival)
    report = {
        "workload": {
            "task_count": task_count,
            "models": list(STREAM_MODELS),
            "base_rate_per_s": BASE_RATE_PER_S,
            "load_factors": list(LOAD_FACTORS),
            "arrival_process": arrival,
            "arrival_seed": ARRIVAL_SEED,
            "deadline_s": DEADLINE_S,
            "mtbf_s": MTBF_S,
            "mttr_s": MTTR_S,
            "fault_seed": FAULT_SEED,
        },
        "sweep": sweep,
        "no_frontend_reference": reference,
    }
    slo, p99 = gate_point["slo_admitted"], gate_point["p99_latency_s"]
    report["gate"] = gate_block(
        report["workload"],
        exact={"slo_admitted": slo, "p99_latency_s": p99},
        checks={
            "slo_admitted_floor": slo >= GATE_SLO_FLOOR,
            "p99_within_deadline": p99 <= DEADLINE_S,
        },
    )
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
    parser.add_argument("--output", default="BENCH_serving.json")
    parser.add_argument(
        "--arrival",
        choices=sorted(ARRIVAL_PROCESSES),
        default="mmpp",
        help="inter-arrival process shaping the request stream",
    )
    args = parser.parse_args(argv)
    task_count = SMOKE_TASK_COUNT if args.smoke else args.tasks
    report = run_bench(
        task_count=task_count, output=args.output, arrival=args.arrival
    )
    for point in report["sweep"]:
        faults = "faults" if point["mtbf_s"] else "clean "
        print(
            f"x{point['load_factor']:<3g} {faults}: "
            f"{point['admitted']}/{point['offered']} admitted, "
            f"{point['shed']} shed, {point['expired']} expired, "
            f"SLO {point['slo_admitted']:.3f}, "
            f"p99 {point['p99_latency_s'] * 1e3:.1f} ms, "
            f"goodput {point['goodput_per_s']:.0f}/s"
        )
    gate = report["gate"]
    print(
        f"gate (x{GATE_LOAD_FACTOR:g} + faults): "
        f"SLO {gate['exact']['slo_admitted']:.3f} >= {GATE_SLO_FLOOR} "
        f"and p99 {gate['exact']['p99_latency_s'] * 1e3:.1f} ms <= "
        f"{DEADLINE_S * 1e3:.0f} ms -> "
        f"{'PASS' if gate['pass'] else 'FAIL'}"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
