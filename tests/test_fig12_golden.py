"""Golden-output tests for the Fig. 12 experiment.

The allocator/DES overhaul (placement index, cached free-block counters,
watermark-gated dispatch) must be a pure performance change: every skipped
placement attempt is one the scheduler would provably have declined.  These
tests pin the experiment output bit-for-bit against snapshots captured from
the pre-overhaul exhaustive-rescan implementation — throughputs are
compared by ``repr`` so even a last-ulp drift fails.

Both the reduced-scale snapshot and the full 10-composition x 3-seed run
are in the default test path.
"""

import json
import pathlib

from repro.experiments.fig12 import average_speedups, run_fig12

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _check_against(golden_path: pathlib.Path) -> None:
    golden = json.loads(golden_path.read_text())
    rows = run_fig12(
        task_count=golden["task_count"], seeds=tuple(golden["seeds"])
    )
    assert len(rows) == len(golden["rows"])
    for row, expected in zip(rows, golden["rows"]):
        assert row.composition.index == expected["index"]
        actual = {name: repr(value) for name, value in row.throughput.items()}
        assert actual == expected["throughput"], (
            f"set {expected['index']}: throughput drifted from the "
            f"pre-overhaul implementation"
        )
    assert [repr(v) for v in average_speedups(rows)] == golden["avg_speedups"]


def test_fig12_rows_match_pre_overhaul_golden_small():
    _check_against(GOLDEN_DIR / "fig12_small.json")


def test_fig12_rows_match_pre_overhaul_golden_full():
    _check_against(GOLDEN_DIR / "fig12_full.json")
