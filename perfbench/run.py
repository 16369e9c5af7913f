"""Run one benchmark workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload fig12 --seed 1 --seconds 8 --trace 0

``--trace 0`` is the timed run: it prints every end-to-end metric.
``--trace 1`` is the traced run: it wraps each layer's entry points, prints
every per-layer metric and the tracing overhead, and writes the last traced
pass's spans to ``.perfbench_out/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any correctness check fails.

Host times (``setup_s``, ``wall_s`` and the rates derived from it) are
scaled to the reference host speed that ``hostspeed`` measures, so that
other tenants of a shared host move them as little as possible; the
report line of each workload prints the raw pass walls too.

``peak_rss_mb`` is the process's high-water mark, so it is a workload's own
peak only when one workload runs; with ``--workload all`` each workload
reports the highest peak of itself and every workload run before it.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.isa.progcache import PROGRAM_CACHE  # noqa: E402
from repro.rtl.equivalence import clear_signature_cache  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_START

#: Set-ups per timed run.  ``setup_s`` is the import time, plus the median
#: set-up, plus the one cold pass that follows the last set-up, scaled to
#: the reference host speed measured during the cold pass.
SETUP_REPEATS = 3
#: Fewest timed passes, whatever ``--seconds`` says.
MIN_PASSES = 2
#: Each timed pass is cut into about this many segments of equal task-completion
#: counts (or one per completion when a pass completes fewer tasks).
#: ``wall_s`` sums each segment's fastest time over the run's passes (a
#: slow spell of the host only ever makes a segment slower) and scales that
#: sum to the reference host speed (see ``hostspeed``) measured over the
#: same passes, which takes out the part of the spells no pass escaped.
SEGMENTS = 128
#: How often the cold pass, which has no segments yet, reads the probe.
PROBE_INTERVAL_S = 0.05
OUT_DIR = ROOT / ".perfbench_out"

#: (name, unit, kind) — H is host time (noisy), S is simulated (exact).
END_TO_END = (
    ("setup_s", "s", "H"),
    ("wall_s", "s", "H"),
    ("tasks_per_s", "tasks/s", "H"),
    ("events_per_s", "events/s", "H"),
    ("peak_rss_mb", "MB", "H"),
    ("sim_tput_tps", "tasks/sim-s", "S"),
    ("sim_mean_ms", "ms", "S"),
    ("completed_frac", "ratio", "S"),
)

#: Workload-specific end-to-end results, printed in the report and carried
#: in the JSON under the layer that produces them.
WORKLOAD_RESULTS = (
    ("sim_p50_ms", "ms", "S", "cluster.sim_p50_ms"),
    ("sim_p99_ms", "ms", "S", "cluster.sim_p99_ms"),
    ("sim_speedup_vs_baseline", "x", "S", "runtime.sim_speedup_vs_baseline"),
    ("sim_speedup_vs_restricted", "x", "S", "runtime.sim_speedup_vs_restricted"),
    ("sim_goodput_rps", "req/sim-s", "S", "serving.goodput_rps"),
    ("premium_p99_ms", "ms", "S", "tenancy.premium_p99_ms"),
    ("migrate_s", "s", "H", "migration.round_trip_s"),
)

#: (name, unit).  ``*_s`` layer times are self time per pass: the layer's
#: spans minus the spans nested inside them.  Counts are per pass.
PER_LAYER = (
    ("cluster.events", "count"),
    ("cluster.self_s", "s"),
    ("cluster.examined_per_event", "ratio"),
    ("cluster.start_ratio", "ratio"),
    ("cluster.sim_p50_ms", "ms"),
    ("cluster.sim_p99_ms", "ms"),
    ("cluster.latency_samples", "count"),
    ("runtime.try_start_s", "s"),
    ("runtime.try_start_calls", "count"),
    ("runtime.on_finish_s", "s"),
    ("runtime.placement_searches", "count"),
    ("runtime.probes_per_search", "ratio"),
    ("runtime.deploys", "count"),
    ("runtime.evictions", "count"),
    ("runtime.reuse_ratio", "ratio"),
    ("runtime.sim_speedup_vs_baseline", "x"),
    ("runtime.sim_speedup_vs_restricted", "x"),
    ("catalog.compile_s", "s"),
    ("catalog.entries_built", "count"),
    ("catalog.designs_generated", "count"),
    ("core.decompose_s", "s"),
    ("vital.compile_s", "s"),
    ("vital.bitstream_hit_ratio", "ratio"),
    ("serving.admit_s", "s"),
    ("serving.try_start_s", "s"),
    ("serving.utilisation_calls", "count"),
    ("serving.utilisation_s", "s"),
    ("serving.shed", "count"),
    ("serving.expired", "count"),
    ("serving.retries", "count"),
    ("serving.breaker_opens", "count"),
    ("serving.brownout_switches", "count"),
    ("serving.queue_wait_p99_ms", "ms"),
    ("serving.goodput_rps", "req/sim-s"),
    ("tenancy.dispatch_key_s", "s"),
    ("tenancy.dispatch_key_calls", "count"),
    ("tenancy.preemptions", "count"),
    ("tenancy.recovery_rate", "ratio"),
    ("tenancy.quota_violations", "count"),
    ("tenancy.premium_p99_ms", "ms"),
    ("faults.injected", "count"),
    ("faults.recoveries", "count"),
    ("faults.recovery_retries", "count"),
    ("faults.lost_work_ms", "ms"),
    ("isa.codegen_s", "s"),
    ("isa.progcache_hit_ratio", "ratio"),
    ("accel.functional_s", "s"),
    ("accel.functional_instructions", "count"),
    ("accel.batched_s", "s"),
    ("accel.batched_lane_ratio", "ratio"),
    ("accel.mean_batch", "lanes"),
    ("accel.guard_recomputes", "count"),
    ("migration.capture_s", "s"),
    ("migration.encode_s", "s"),
    ("migration.decode_s", "s"),
    ("migration.restore_s", "s"),
    ("migration.round_trip_s", "s"),
    ("migration.wire_bytes", "bytes"),
    ("migration.wire_to_model_ratio", "ratio"),
    ("workloads.generate_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_pass", "count"),
)

#: Per-layer time metrics -> the span name whose self time they report.
SELF_TIME = {
    "cluster.self_s": "cluster.run",
    "runtime.try_start_s": "runtime.try_start",
    "runtime.on_finish_s": "runtime.on_finish",
    "catalog.compile_s": "catalog.entry",
    "core.decompose_s": "core.decompose",
    "vital.compile_s": "vital.compile",
    "serving.admit_s": "serving.admit",
    "serving.try_start_s": "serving.try_start",
    "serving.utilisation_s": "serving.utilisation",
    "tenancy.dispatch_key_s": "tenancy.dispatch_key",
    "isa.codegen_s": "isa.codegen",
    "accel.functional_s": "accel.functional",
    "accel.batched_s": "accel.batched",
}
CALLS = {
    "runtime.try_start_calls": "runtime.try_start",
    "serving.utilisation_calls": "serving.utilisation",
    "tenancy.dispatch_key_calls": "tenancy.dispatch_key",
}
MIGRATION_SELF_TIME = {
    "migration.capture_s": "migration.capture",
    "migration.encode_s": "migration.encode",
    "migration.decode_s": "migration.decode",
    "migration.restore_s": "migration.restore",
}


def clear_process_caches() -> None:
    """Empty the process-wide caches so the next set-up starts cold."""
    PROGRAM_CACHE.clear()
    PROGRAM_CACHE.reset_stats()
    clear_signature_cache()


class Segmenter:
    """Times a pass in segments and reads the host probe between them.

    With ``every`` set, a segment ends at every ``every``-th task
    completion; otherwise (the cold pass, whose completion count is not yet
    known) one ends every ``PROBE_INTERVAL_S``.  The probe is read at the
    end of each segment, and its own time is left out of the segments.
    """

    def __init__(self, every: int = 0):
        self.every = every
        self.begin()

    def begin(self) -> None:
        self.count, self.segments, self.readings = 0, [], []
        self.last = time.perf_counter()

    def __call__(self) -> None:
        self.count += 1
        if self.every:
            if self.count % self.every == 0:
                self.mark()
        elif time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.mark()

    def mark(self) -> None:
        """End the current segment."""
        self.segments.append(time.perf_counter() - self.last)
        self.readings.append(hostspeed.probe())
        self.last = time.perf_counter()

    def run(self, workload):
        """One pass of ``workload``, timed in segments."""
        self.begin()
        workloads.COMPLETIONS.listener = self
        try:
            result = workload.run_pass()
        finally:
            workloads.COMPLETIONS.listener = None
        self.mark()
        return result


def host_scale(readings: list) -> float:
    """Factor that turns host seconds into seconds at the reference speed."""
    return hostspeed.REFERENCE_S / statistics.fmean(readings)


def scaled_wall(segments: list, readings: list) -> float:
    """Sum over segments of each one's fastest time over the passes, at the
    reference host speed."""
    return sum(min(times) for times in zip(*segments)) * host_scale(readings)


def timed_passes(workload, seconds: float, minimum: int, every: int,
                 after_pass=None) -> tuple:
    """Run at least ``minimum`` passes, and more while the next one is
    expected to end within ``seconds``.  Returns (pass wall times, per-pass
    segment times, probe readings, first result, failures)."""
    walls, segments, readings, first, failures = [], [], [], None, []
    clock = time.perf_counter
    segmenter = Segmenter(every)
    began = clock()
    while True:
        start = clock()
        result = segmenter.run(workload)
        walls.append(clock() - start)
        segments.append(segmenter.segments)
        readings += segmenter.readings
        if after_pass is not None:
            after_pass()
        if first is None:
            first = result
        elif result.digest != first.digest or len(segments[-1]) != len(segments[0]):
            failures.append(f"pass {len(walls)} simulated a different schedule")
        del result
        if (len(walls) >= minimum
                and clock() - began + statistics.median(walls) > seconds):
            return walls, segments, readings, first, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time, check and measure one workload."""
    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    setup_walls = []
    for _ in range(1 if trace else SETUP_REPEATS):
        clear_process_caches()
        start = time.perf_counter()
        if trace:
            tracer.install()
        try:
            workload.setup()
        finally:
            if trace:
                tracer.uninstall()
        setup_walls.append(time.perf_counter() - start)
    generate_s = tracer.self_s.get("workloads.generate", 0.0) if trace else 0.0
    # The first pass in a process runs cold (the interpreter has not yet
    # specialised the hot code); it is set-up, and the timed passes are warm.
    segmenter = Segmenter()
    cold = segmenter.run(workload)
    cold_s = sum(segmenter.segments)
    setup_s = (IMPORT_S + statistics.median(setup_walls) + cold_s) * host_scale(
        segmenter.readings)
    every = max(1, segmenter.count // SEGMENTS)

    if trace:
        walls, segments, readings, first, failures = timed_passes(
            workload, seconds / 2, 1, every)
        tracer.reset()
        tracer.install()
        try:
            traced = timed_passes(workload, seconds / 2, 1, every, after_pass=tracer.end_pass)
        finally:
            tracer.uninstall()
        traced_walls, traced_segments, traced_readings, traced_first, traced_failures = traced
        failures += traced_failures
        if traced_first.digest != first.digest:
            failures.append("tracing changed the simulated results")
        layers = layer_metrics(
            first, sim_results(first), tracer, len(traced_walls), generate_s,
            scaled_wall(traced_segments, traced_readings) / scaled_wall(segments, readings) - 1.0,
        )
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.jsonl.gz")
        tracer.reset()
    else:
        walls, segments, readings, first, failures = timed_passes(
            workload, seconds, MIN_PASSES, every)
    if cold.digest != first.digest:
        failures.append("the cold pass simulated a different schedule")
    del cold
    failures += workload.check(first)

    migration = {}
    if hasattr(workload, "migrate"):
        if trace:
            tracer.install()
        try:
            migration = workload.migrate(first)
        finally:
            if trace:
                tracer.uninstall()
        failures += migration.pop("failures")
        if trace:
            layers.update({f"migration.{k}": v for k, v in migration.items()})
            layers.update({
                key: tracer.self_s.get(span, 0.0)
                for key, span in MIGRATION_SELF_TIME.items()
            })

    wall_s = scaled_wall(segments, readings)
    report = {
        "name": name,
        "walls": walls,
        "host_speed": host_scale(readings),
        "offered": first.offered,
        "completed": first.completed,
        "latency_samples": len(first.latencies_s),
        "failures": failures,
        "attempted": first.offered * len(walls),
        "e2e": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "tasks_per_s": first.completed / wall_s,
            "events_per_s": first.events / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_tput_tps": first.sim_tput,
            "sim_mean_ms": 1e3 * statistics.fmean(first.latencies_s),
            "completed_frac": first.completed / first.offered,
        },
        "results": {
            **sim_results(first),
            **({"migrate_s": migration["round_trip_s"]} if migration else {}),
        },
    }
    if trace:
        report["layers"] = layers
    return report


def sim_results(first) -> dict:
    """The workload's simulated results beyond the end-to-end set."""
    return {
        "sim_p50_ms": 1e3 * workloads.percentile(first.latencies_s, 0.50),
        "sim_p99_ms": 1e3 * workloads.percentile(first.latencies_s, 0.99),
        **first.extra,
    }


def layer_metrics(first, results: dict, tracer, passes: int,
                  generate_s: float, overhead: float) -> dict:
    """Every per-layer metric of the traced passes (0 where the layer did
    no work; the migration metrics are filled in after the round trip)."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(first.layer)
    for name, _, _, key in WORKLOAD_RESULTS:
        if name in results:
            values[key] = results[name]
    for metric, span in SELF_TIME.items():
        values[metric] = tracer.self_s.get(span, 0.0) / passes
    for metric, span in CALLS.items():
        values[metric] = tracer.calls.get(span, 0) / passes
    counts = tracer.counts
    values["catalog.entries_built"] = counts["catalog.entries_built"] / passes
    values["accel.functional_instructions"] = (
        counts["accel.functional_instructions"] / passes
    )
    lookups = counts["vital.bitstream_lookups"]
    values["vital.bitstream_hit_ratio"] = (
        counts["vital.bitstream_hits"] / lookups if lookups else 0.0
    )
    tries = first.layer.get("cluster.try_start_attempts", 0)
    values["cluster.start_ratio"] = (
        first.layer.get("cluster.starts", 0) / tries if tries else 0.0
    )
    values["cluster.latency_samples"] = len(first.latencies_s)
    values["workloads.generate_s"] = generate_s
    values["trace.overhead_frac"] = overhead
    values["trace.spans_per_pass"] = sum(tracer.calls.values()) / passes
    return {name: values[name] for name, _ in PER_LAYER}


def print_report(report: dict, trace: bool) -> None:
    """The human-readable table: every metric by name, unit and kind."""
    walls = ", ".join(f"{w:.3f}" for w in report["walls"])
    print(f"== {report['name']}: {report['completed']}/{report['offered']} "
          f"tasks completed per pass; pass walls [{walls}] s; host at "
          f"{1 / report['host_speed']:.2f}x the reference probe time")
    if not trace:
        for name, unit, kind in END_TO_END:
            print(f"  {name:<28} {report['e2e'][name]:>16.6g} {unit:<12} {kind}")
        for name, unit, kind, _ in WORKLOAD_RESULTS:
            value = report["results"].get(name)
            shown = f"{value:>16.6g}" if value is not None else f"{'n/a':>16}"
            extra = f"  (n={report['latency_samples']})" if name.startswith("sim_p") else ""
            print(f"  {name:<28} {shown} {unit:<12} {kind}{extra}")
        # A failed check condemns every task of the workload.
        failed_frac = 1.0 if report["failures"] else 1 - report["e2e"]["completed_frac"]
        print(f"  {'failed_frac':<28} {failed_frac:>16.6g} {'ratio':<12} S")
    else:
        units = dict(PER_LAYER)
        for name, value in report["layers"].items():
            print(f"  {name:<34} {value:>16.6g} {units[name]}")
    for failure in report["failures"]:
        print(f"  CHECK FAILED: {failure}")


def json_metrics(report: dict, trace: bool, prefix: str = "") -> dict:
    """The JSON ``metrics`` object: per-layer when traced, else end-to-end."""
    if trace:
        units = dict(PER_LAYER)
        return {f"{prefix}{name}": {"value": value, "unit": units[name]}
                for name, value in report["layers"].items()}
    return {f"{prefix}{name}": {"value": report["e2e"][name], "unit": unit}
            for name, unit, _ in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(report, bool(args.trace))
        reports.append(report)
    failures = sum(len(r["failures"]) for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    metrics = {}
    for report in reports:
        prefix = f"{report['name']}." if len(reports) > 1 else ""
        metrics.update(json_metrics(report, bool(args.trace), prefix))
    print(json.dumps({
        "correct": failures == 0,
        "attempted": attempted,
        # A failed check condemns every task of the pass it checked.
        "failed": sum(r["attempted"] for r in reports if r["failures"]),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
