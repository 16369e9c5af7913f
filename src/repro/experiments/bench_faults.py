"""Benchmark driver for fault injection + automatic failure recovery.

Sweeps per-board MTBF over a mixed serving stream on the proposed system
(recovery armed) and emits ``BENCH_faults.json``: per MTBF point the board
failures injected, deployments lost, recoveries completed (and how many
had to scale down), lost work, placement availability and the tail latency
the fault process inflicts — plus a no-fault baseline run for reference.
The same seeded timeline drives every sweep point, so results are
reproducible bit for bit.  The report's ``gate`` block requires every
faulty point to recover all of its lost deployments.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_faults           # full
    PYTHONPATH=src python -m repro.experiments.bench_faults --smoke   # CI
"""

from __future__ import annotations

import argparse
import copy
import json
import pathlib
import time

from ..cluster import ClusterSimulator, Task, paper_cluster
from ..faults import FaultInjector, FaultModelParameters
from ..perf.profiling import PROFILER
from ..runtime import Catalog, build_system
from ..vital import VitalCompiler
from .bench_gate import gate_block

#: Small serving models (one of each per round-robin turn).
STREAM_MODELS = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")
#: Arrival spacing (seconds of simulated time).
ARRIVAL_GAP_S = 0.004

SMOKE_TASK_COUNT = 45
FULL_TASK_COUNT = 240

#: Per-board mean time between failures, swept worst-to-best.  ``None``
#: is the fault-free reference point.
MTBF_SWEEP_S = (0.5, 1.0, 2.0, None)
MTTR_S = 0.08
FAULT_SEED = 7

#: Per-MTBF results the gate compares exactly.
EXACT_KEYS = (
    "availability",
    "deployments_failed",
    "recoveries",
    "lost_work_s",
    "p99_latency_s",
)


def _build_tasks(task_count: int) -> list:
    """Deterministic round-robin stream over the small serving models."""
    return [
        Task(
            task_id=index,
            model_key=STREAM_MODELS[index % len(STREAM_MODELS)],
            arrival_s=index * ARRIVAL_GAP_S,
            size_class="S",
        )
        for index in range(task_count)
    ]


def _p99_latency(completed: list) -> float:
    if not completed:
        return 0.0
    latencies = sorted(task.latency_s for task in completed)
    return latencies[int(0.99 * (len(latencies) - 1))]


def run_point(
    tasks: list,
    mtbf_s: float | None,
    mttr_s: float = MTTR_S,
    seed: int = FAULT_SEED,
    degraded_fraction: float = 0.0,
) -> dict:
    """One full run at one fault rate; returns the metrics block.

    ``mtbf_s=None`` runs fault-free (the availability/latency reference).
    Shared with the ``inject-faults`` CLI command.
    """
    PROFILER.reset()
    system = build_system(
        "proposed", paper_cluster(), Catalog(VitalCompiler()), recovery=True
    )
    controller = system.controller
    label = "none" if mtbf_s is None else f"{mtbf_s:g}"
    simulator = ClusterSimulator(system, f"proposed-mtbf-{label}")
    horizon_s = tasks[-1].arrival_s if tasks else 0.0
    injector = None
    if mtbf_s is not None:
        injector = FaultInjector(
            simulator,
            controller,
            FaultModelParameters(
                mtbf_s=mtbf_s,
                mttr_s=mttr_s,
                seed=seed,
                degraded_fraction=degraded_fraction,
            ),
        )
        injector.arm(horizon_s)
    start = time.perf_counter()
    result = simulator.run(copy.deepcopy(tasks))
    wall_s = time.perf_counter() - start
    stats = controller.stats
    counters = PROFILER.snapshot()["counters"]
    recovery_rate = (
        stats.recoveries / stats.deployments_failed
        if stats.deployments_failed
        else 1.0
    )
    return {
        "mtbf_s": mtbf_s,
        "mttr_s": mttr_s if mtbf_s is not None else None,
        "completed": len(result.completed),
        "makespan_s": result.makespan_s,
        "throughput_tasks_per_s": result.throughput,
        "mean_latency_s": result.mean_latency(),
        "p99_latency_s": _p99_latency(result.completed),
        "wall_clock_s": wall_s,
        "availability": (
            injector.availability(result.makespan_s) if injector else 1.0
        ),
        "boards_failed": stats.boards_failed,
        "boards_repaired": stats.boards_repaired,
        "deployments_failed": stats.deployments_failed,
        "recoveries": stats.recoveries,
        "scale_down_recoveries": stats.scale_down_recoveries,
        "recovery_retries": stats.recovery_retries,
        "recovery_failures": stats.recovery_failures,
        "recovery_rate": recovery_rate,
        "lost_work_s": stats.lost_work_s,
        "fault_counters": {
            name: value
            for name, value in counters.items()
            if name.startswith("faults.")
            or name == "simulator.external_events"
        },
    }


def run_bench(
    task_count: int = FULL_TASK_COUNT,
    output: str | pathlib.Path = "BENCH_faults.json",
) -> dict:
    """Sweep MTBF over the serving stream; write the report."""
    tasks = _build_tasks(task_count)
    points = [run_point(tasks, mtbf_s) for mtbf_s in MTBF_SWEEP_S]
    baseline = next(p for p in points if p["mtbf_s"] is None)
    faulty = [p for p in points if p["mtbf_s"] is not None]
    report = {
        "workload": {
            "task_count": task_count,
            "models": list(STREAM_MODELS),
            "arrival_gap_s": ARRIVAL_GAP_S,
            "mttr_s": MTTR_S,
            "fault_seed": FAULT_SEED,
        },
        "baseline": baseline,
        "sweep": faulty,
        "comparison": {
            "worst_availability": min(p["availability"] for p in faulty),
            "min_recovery_rate": min(p["recovery_rate"] for p in faulty),
            "total_recoveries": sum(p["recoveries"] for p in faulty),
            "total_lost_work_s": sum(p["lost_work_s"] for p in faulty),
            "p99_inflation_worst": (
                max(p["p99_latency_s"] for p in faulty)
                / baseline["p99_latency_s"]
                if baseline["p99_latency_s"]
                else None
            ),
        },
    }
    exact = {
        f"mtbf{p['mtbf_s']:g}.{key}": p[key]
        for p in faulty
        for key in EXACT_KEYS
    }
    checks = {
        f"mtbf{p['mtbf_s']:g}.recovered_all": p["recovery_rate"] >= 1.0
        for p in faulty
    }
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
    parser.add_argument("--output", default="BENCH_faults.json")
    args = parser.parse_args(argv)
    task_count = SMOKE_TASK_COUNT if args.smoke else args.tasks
    report = run_bench(task_count=task_count, output=args.output)
    for point in report["sweep"]:
        print(
            f"mtbf={point['mtbf_s']:>4}s: {point['boards_failed']} board "
            f"failures, {point['deployments_failed']} deployments lost, "
            f"{point['recoveries']} recovered "
            f"(rate {point['recovery_rate']:.2f}), "
            f"availability {point['availability']:.3f}, "
            f"p99 {point['p99_latency_s'] * 1e3:.1f} ms"
        )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
