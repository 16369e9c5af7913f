"""Scale benchmark for the pod-sharded control plane.

Sweeps cluster size (4 -> 1000 boards, the paper platform's 3:1
VU37P:KU115 mix) under a fully backlogged mixed task stream and emits
``BENCH_scale.json``: wall-clock, DES events/s, placement-search and
board-probe counts — for the pod-routed controller AND a single-pod
(flat) control run at every point.  The two runs must produce
bit-identical schedules (the router's equivalence contract); the gate
also checks that boards probed per placement search grow sub-linearly in
board count, which is the whole point of sharding.

Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_scale           # full
    PYTHONPATH=src python -m repro.experiments.bench_scale --smoke   # CI
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import time

from ..cluster import ClusterSimulator, scaled_cluster
from ..perf.profiling import PROFILER
from ..runtime import Catalog, build_system
from ..vital import VitalCompiler
from ..workloads import TABLE1_COMPOSITIONS, generate_workload
from .bench_gate import gate_block

#: Full sweep: the ROADMAP's 100x-and-beyond cluster sizes.
FULL_BOARDS = (4, 64, 256, 1000)
FULL_TASKS_PER_BOARD = 100
#: Hard cap on any single point's stream (the 1000-board point).
MAX_TASKS = 100_000

#: Reduced scale for CI smoke runs (largest point: 256 boards).
SMOKE_BOARDS = (4, 64, 256)
SMOKE_TASKS_PER_BOARD = 8

#: The mixed composition (33% S + 33% M + 34% L) — exercises single- and
#: multi-replica plans plus cross-type pressure.
COMPOSITION = TABLE1_COMPOSITIONS[6]
SEED = 7
#: Everything arrives essentially at once (as in the Fig. 12 runs): the
#: backlog stresses the pending-queue and placement paths at full depth.
ARRIVAL_RATE_PER_S = 1e5

#: Probe growth must stay below this fraction of board growth between the
#: smallest and largest sweep points (0.5 = "at most half as fast as
#: linear"; the router lands orders of magnitude under it).
SUBLINEAR_FRACTION = 0.5

#: Per-point pod-run values the gate compares exactly: the dispatch and
#: placement work counters (a re-quadratic dispatcher shows up as a
#: count) and the schedule itself.
EXACT_KEYS = (
    "events",
    "placement_searches",
    "boards_probed",
    "try_start_attempts",
    "watermark_skips",
    "schedule_digest",
)


def _schedule_digest(result) -> str:
    """Stable digest of one run's schedule (task id, start, finish)."""
    lines = sorted(
        f"{task.task_id}:{task.start_s!r}:{task.finish_s!r}"
        for task in result.completed
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run_point(catalog, board_count: int, task_count: int,
               pod_size: int | None) -> dict:
    """One profiled simulation at one cluster size and pod configuration."""
    cluster = scaled_cluster(board_count)
    system = build_system("proposed", cluster, catalog, pod_size=pod_size)
    tasks = generate_workload(
        COMPOSITION,
        task_count=task_count,
        arrival_rate_per_s=ARRIVAL_RATE_PER_S,
        seed=SEED,
    )
    PROFILER.reset()
    start = time.perf_counter()
    result = ClusterSimulator(system, "proposed").run(tasks)
    wall_s = time.perf_counter() - start
    counters = PROFILER.snapshot()["counters"]
    stats = system.controller.stats
    searches = stats.placement_searches
    events = counters.get("simulator.events", 0)
    return {
        "pods": system.controller.index.pod_count(),
        "pod_size": system.controller.pod_size,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s > 0 else 0.0,
        "completed": len(result.completed),
        "throughput": result.throughput,
        "placement_searches": searches,
        "boards_probed": stats.boards_probed,
        "probes_per_search": (
            stats.boards_probed / searches if searches else 0.0
        ),
        "schedule_digest": _schedule_digest(result),
        "try_start_attempts": counters.get("simulator.try_start_attempts", 0),
        "watermark_skips": counters.get("simulator.watermark_skips", 0),
    }


def run_bench(
    boards=FULL_BOARDS,
    tasks_per_board: int = FULL_TASKS_PER_BOARD,
    output: str | pathlib.Path = "BENCH_scale.json",
) -> dict:
    """Run the sweep (pod-routed + flat control per point); write and
    return the report."""
    catalog = Catalog(VitalCompiler())
    points = []
    for board_count in boards:
        task_count = min(board_count * tasks_per_board, MAX_TASKS)
        pod = _run_point(catalog, board_count, task_count, pod_size=None)
        # Control: one pod spanning the whole cluster IS the flat index.
        flat = _run_point(catalog, board_count, task_count,
                          pod_size=board_count)
        points.append(
            {
                "boards": board_count,
                "tasks": task_count,
                "pod": pod,
                "flat": flat,
                "identical_to_flat": (
                    pod["schedule_digest"] == flat["schedule_digest"]
                ),
            }
        )
    smallest, largest = points[0], points[-1]
    board_growth = largest["boards"] / smallest["boards"]
    probe_growth = (
        largest["pod"]["probes_per_search"]
        / smallest["pod"]["probes_per_search"]
        if smallest["pod"]["probes_per_search"]
        else 0.0
    )
    report = {
        "scale": {
            "boards": list(boards),
            "tasks_per_board": tasks_per_board,
            "max_tasks": MAX_TASKS,
            "composition": COMPOSITION.describe(),
            "seed": SEED,
        },
        "points": points,
        "board_growth": board_growth,
        "probe_growth": probe_growth,
    }
    exact = {
        f"boards{point['boards']}.{key}": point["pod"][key]
        for point in points
        for key in EXACT_KEYS
    }
    checks = {
        "pod_flat_identical": all(p["identical_to_flat"] for p in points),
        "sublinear_probe_growth": (
            probe_growth <= SUBLINEAR_FRACTION * board_growth
        ),
    }
    report["gate"] = gate_block(report["scale"], exact, checks)
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--boards", type=int, nargs="+", default=None)
    parser.add_argument("--tasks-per-board", type=int, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: boards {SMOKE_BOARDS}, "
        f"{SMOKE_TASKS_PER_BOARD} tasks/board",
    )
    parser.add_argument("--output", default="BENCH_scale.json")
    args = parser.parse_args(argv)
    boards = tuple(args.boards) if args.boards else (
        SMOKE_BOARDS if args.smoke else FULL_BOARDS
    )
    tasks_per_board = args.tasks_per_board or (
        SMOKE_TASKS_PER_BOARD if args.smoke else FULL_TASKS_PER_BOARD
    )
    report = run_bench(
        boards=boards, tasks_per_board=tasks_per_board, output=args.output
    )
    for point in report["points"]:
        pod = point["pod"]
        print(
            f"{point['boards']:>5} boards / {point['tasks']:>6} tasks: "
            f"{pod['wall_s']:.2f}s, {pod['events_per_s']:.0f} events/s, "
            f"{pod['probes_per_search']:.1f} probes/search "
            f"({'identical' if point['identical_to_flat'] else 'DIVERGED'} "
            f"vs flat)"
        )
    print(
        f"gate: {'PASS' if report['gate']['pass'] else 'FAIL'} "
        f"(probe growth {report['probe_growth']:.2f}x vs board growth "
        f"{report['board_growth']:.0f}x)"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
