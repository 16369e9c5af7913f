"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

They use small instances of the workloads, so they take seconds, and
check that the benchmark's correctness checks catch corrupted outputs,
that a seed fixes every simulated result, and that the tracer changes no
result and leaves no entry point patched.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_serve(seed: int) -> workloads.ServeMixed:
    workload = workloads.ServeMixed(seed, boards=16, pod_size=4, requests=3000)
    workload.setup()
    return workload


def small_isa(seed: int = 1) -> workloads.IsaExec:
    workload = workloads.IsaExec(seed, requests=6)
    workload.setup()
    return workload


def test_corrupted_batched_output_is_caught():
    workload = small_isa()
    result = workload.run_pass()
    assert workload.check(result) == []
    task_id = min(result.detail["outputs"])
    corrupted = np.array(result.detail["outputs"][task_id], copy=True)
    corrupted.view(np.uint64)[0] ^= 1  # flip the lowest mantissa bit
    result.detail["outputs"][task_id] = corrupted
    failures = workload.check(result)
    assert failures and "force_scalar" in failures[0]


def test_corrupted_schedule_is_caught():
    workload = small_serve(2)
    result = workload.run_pass()
    assert workload.check(result) == []
    run_result = result.detail["result"]
    run_result.dropped.append(run_result.completed[0])
    assert any("both completed and was dropped" in f for f in workload.check(result))


def test_serve_mixed_layer_that_did_no_work_is_caught():
    workload = small_serve(2)
    result = workload.run_pass()
    assert workload.check(result) == []
    for counter in ("serving.shed", "tenancy.preemptions", "faults.injected"):
        assert result.layer[counter] > 0
    result.layer["faults.injected"] = 0
    result.layer["tenancy.recovery_rate"] = 0.0
    failures = workload.check(result)
    assert any("faults.injected is 0" in f for f in failures)
    assert any("preempted" in f for f in failures)


def test_scale_digest_is_read_from_the_committed_baseline():
    assert workloads.Scale256.committed_digest().startswith("823d76fc11d8")


def test_corrupted_fig12_row_is_caught():
    workload = workloads.Fig12(workloads.DEFAULT_SEED)
    workload.setup()
    result = workload.run_pass()
    assert workload.check(result) == []
    result.detail["rows"][0].throughput["proposed"] *= 1 + 1e-12
    assert any("golden" in f for f in workload.check(result))


def test_same_seed_same_simulated_results_other_seed_other_arrivals():
    first, again, other = small_serve(3), small_serve(3), small_serve(4)
    assert first.stream == again.stream
    a, b = first.run_pass(), again.run_pass()
    assert a.digest == b.digest
    assert a.layer == b.layer
    assert a.latencies_s == b.latencies_s and a.sim_tput == b.sim_tput
    assert [s[2] for s in other.stream] != [s[2] for s in first.stream]
    assert other.run_pass().digest != a.digest


def test_seed_index_is_injective_and_default_is_zero():
    indices = [workloads.seed_index(seed) for seed in range(-50, 51)]
    assert len(set(indices)) == len(indices)
    assert min(indices) == 0 == workloads.seed_index(workloads.DEFAULT_SEED)


def test_tracing_changes_no_result_and_uninstalls():
    workload = small_serve(5)
    plain = workload.run_pass()
    originals = [
        vars(owner).get(attr) for owner, attr, _ in tracing.LAYER_ENTRY_POINTS
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.run_pass()
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert tracer.calls["cluster.run"] == 1
    assert tracer.calls["tenancy.try_start"] >= tracer.calls["runtime.try_start"] > 0
    # Self times are non-negative and nest inside the single run span.
    run_span = next(s for s in tracer.spans if s[2] == "cluster.run")
    assert all(value >= 0 for value in tracer.self_s.values())
    assert sum(tracer.self_s.values()) <= run_span[5] - run_span[4] + 1e-6
    assert originals == [
        vars(owner).get(attr) for owner, attr, _ in tracing.LAYER_ENTRY_POINTS
    ]


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_segmenter_cuts_a_pass_at_every_nth_completion():
    class TenCompletions:
        def run_pass(self):
            for _ in range(10):
                workloads.COMPLETIONS.listener()
            return "done"

    segmenter = run.Segmenter(every=4)
    assert segmenter.run(TenCompletions()) == "done"
    # Segments end after completions 4 and 8 and at the end of the pass.
    assert len(segmenter.segments) == len(segmenter.readings) == 3
    assert workloads.COMPLETIONS.listener is None


def test_wall_sums_each_segments_fastest_pass_at_reference_speed():
    segments = [[1.0, 3.0], [2.0, 1.5]]
    # The host ran the probe at half the reference speed.
    readings = [2 * run.hostspeed.REFERENCE_S] * 4
    assert abs(run.scaled_wall(segments, readings) - (1.0 + 1.5) / 2) < 1e-12
