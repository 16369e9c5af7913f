"""The CI bench gate's one comparator, exercised on the committed smoke
baselines.  These tests load JSON only; they run no bench."""

import copy
import json
import math
import pathlib

import pytest

from repro.experiments import bench_gate

BASELINES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
     / "baselines").glob("BENCH_*_smoke.json")
)
NAMES = ("fig12", "serving", "batch", "scale", "autoscale", "tenancy",
         "faults")


def _gate(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())["gate"]


def _bumped(value):
    """The smallest change to one exact value: +1 for an int, one ulp for
    a float, the last character for a string."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    return value[:-1] + ("0" if value[-1] != "0" else "1")


def test_every_ci_bench_has_a_baseline():
    assert sorted(p.name for p in BASELINES) == sorted(
        f"BENCH_{name}_smoke.json" for name in NAMES
    )


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
def test_baseline_has_the_uniform_gate_block(path):
    gate = _gate(path)
    assert set(gate) == {"workload", "exact", "ratios", "checks", "pass"}
    assert all(isinstance(ok, bool) for ok in gate["checks"].values())
    assert all(
        isinstance(value, (int, float, str))
        for value in gate["exact"].values()
    )
    assert all(isinstance(r, float) for r in gate["ratios"].values())
    assert gate["pass"] == all(gate["checks"].values())


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
def test_identical_report_passes(path):
    gate = _gate(path)
    assert bench_gate.compare(copy.deepcopy(gate), gate) == []


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
def test_one_unit_change_to_any_exact_value_fails(path):
    baseline = _gate(path)
    for name, value in baseline["exact"].items():
        current = copy.deepcopy(baseline)
        current["exact"][name] = _bumped(value)
        failures = bench_gate.compare(current, baseline)
        assert len(failures) == 1 and f"exact {name}:" in failures[0]


def test_exact_value_types_are_all_covered():
    kinds = {
        type(value)
        for path in BASELINES
        for value in _gate(path)["exact"].values()
    }
    assert {int, float, str} <= kinds


def test_missing_or_extra_exact_value_fails():
    baseline = _gate(BASELINES[0])
    name = next(iter(baseline["exact"]))
    current = copy.deepcopy(baseline)
    del current["exact"][name]
    assert bench_gate.compare(current, baseline)
    current = copy.deepcopy(baseline)
    current["exact"]["new_counter"] = 0
    assert bench_gate.compare(current, baseline)


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
def test_false_check_fails(path):
    baseline = _gate(path)
    current = copy.deepcopy(baseline)
    current["checks"]["injected"] = False
    assert bench_gate.compare(current, baseline) == [
        "check failed: injected"
    ]


def _batch_gate():
    return _gate(next(p for p in BASELINES if p.stem == "BENCH_batch_smoke"))


def test_ratio_exactly_at_the_floor_passes_and_just_below_fails():
    baseline = _batch_gate()
    assert baseline["ratios"]
    for name, ratio in baseline["ratios"].items():
        floor = ratio * (1.0 - bench_gate.RATIO_DROP_TOLERANCE)
        current = copy.deepcopy(baseline)
        current["ratios"][name] = floor
        assert bench_gate.compare(current, baseline) == []
        current["ratios"][name] = math.nextafter(floor, 0.0)
        failures = bench_gate.compare(current, baseline)
        assert len(failures) == 1 and f"ratio {name}:" in failures[0]


def test_lost_ratio_fails():
    baseline = _batch_gate()
    current = copy.deepcopy(baseline)
    current["ratios"].popitem()
    assert bench_gate.compare(current, baseline)


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
def test_workload_mismatch_fails(path):
    baseline = _gate(path)
    current = copy.deepcopy(baseline)
    current["workload"] = {"task_count": -1}
    failures = bench_gate.compare(current, baseline)
    assert len(failures) == 1 and "workload mismatch" in failures[0]


def test_checks_only_ignores_the_baseline():
    current = copy.deepcopy(_batch_gate())
    current["workload"] = {"requests": 32}
    current["exact"] = {"anything": 1}
    current["ratios"] = {}
    assert bench_gate.compare(current, None) == []
    current["checks"]["bit_identical"] = False
    assert bench_gate.compare(current, None) == [
        "check failed: bit_identical"
    ]


def test_cli_gates_each_report_against_its_named_baseline(
    tmp_path, monkeypatch, capsys
):
    baseline_dir = BASELINES[0].parent
    monkeypatch.setattr(bench_gate, "BASELINE_DIR", baseline_dir)
    report = json.loads((baseline_dir / "BENCH_scale_smoke.json").read_text())
    path = tmp_path / "BENCH_scale.json"
    path.write_text(json.dumps(report))
    assert bench_gate.main([str(path)]) == 0
    report["gate"]["exact"]["boards256.events"] += 1
    path.write_text(json.dumps(report))
    assert bench_gate.main([str(path)]) == 1
    assert "exact boards256.events" in capsys.readouterr().out
    assert bench_gate.main(["--checks-only", str(path)]) == 0
