"""CI bench regression gate: one comparator over the uniform ``gate``
block that every CI bench emits, ``{workload, exact, ratios, checks,
pass}``.  Each ``BENCH_<name>.json`` is gated against
``benchmarks/baselines/BENCH_<name>_smoke.json``: every ``checks`` entry
(the bench's own acceptance conditions) must hold, the ``workload`` must
match, every ``exact`` value (deterministic counters and simulated
results) must equal the baseline's, and every ``ratios`` entry (a
wall-clock ratio measured within one run) may drop at most
``RATIO_DROP_TOLERANCE`` below the baseline's.  Absolute wall-clock is
never gated: it depends on the machine.  ``--checks-only`` gates the
checks alone, for full-scale reports that have no smoke baseline.
Refresh a baseline when a change legitimately moves its exact values::

    PYTHONPATH=src python -m repro.experiments.bench_<name> --smoke \
        --output benchmarks/baselines/BENCH_<name>_smoke.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BASELINE_DIR = pathlib.Path("benchmarks/baselines")
#: Allowed fractional drop of a within-run ratio below its baseline.
RATIO_DROP_TOLERANCE = 0.25
MISSING = "<missing>"


def gate_block(workload, exact: dict, checks: dict,
               ratios: dict | None = None) -> dict:
    """The uniform gate block a bench embeds in its report."""
    return {
        "workload": workload,
        "exact": exact,
        "ratios": ratios or {},
        "checks": checks,
        "pass": all(checks.values()),
    }


def compare(current: dict, baseline: dict | None) -> list:
    """Failure messages for one report's gate block against its
    baseline's (``baseline=None`` gates the checks alone)."""
    failures = [f"check failed: {name}"
                for name, ok in current["checks"].items() if not ok]
    if baseline is None:
        return failures
    if current["workload"] != baseline["workload"]:
        return failures + [
            f"workload mismatch: {current['workload']} vs baseline "
            f"{baseline['workload']}"
        ]
    cur, base = current["exact"], baseline["exact"]
    for name in sorted(cur.keys() | base.keys()):
        got, want = cur.get(name, MISSING), base.get(name, MISSING)
        if got != want:
            failures.append(f"exact {name}: {got!r} vs baseline {want!r}")
    cur, base = current["ratios"], baseline["ratios"]
    for name in sorted(cur.keys() | base.keys()):
        if name not in cur or name not in base:
            failures.append(f"ratio {name} missing from the "
                            f"{'report' if name in base else 'baseline'}")
            continue
        floor = base[name] * (1.0 - RATIO_DROP_TOLERANCE)
        if cur[name] < floor:
            failures.append(f"ratio {name}: {cur[name]:.2f} below floor "
                            f"{floor:.2f} (baseline {base[name]:.2f})")
    return failures


def baseline_path(report: pathlib.Path) -> pathlib.Path:
    """``BENCH_<name>.json`` -> its committed ``BENCH_<name>_smoke.json``."""
    return BASELINE_DIR / f"{report.stem}_smoke.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", type=pathlib.Path,
                        help="fresh BENCH_<name>.json reports")
    parser.add_argument("--checks-only", action="store_true",
                        help="gate only each report's own checks (no "
                        "baseline), e.g. for full-scale reports")
    args = parser.parse_args(argv)
    failed = False
    for path in args.reports:
        current = json.loads(path.read_text())["gate"]
        baseline = None
        if not args.checks_only:
            baseline = json.loads(baseline_path(path).read_text())["gate"]
        failures = compare(current, baseline)
        for message in failures:
            print(f"[FAIL] {path.name}: {message}")
        print(f"{path.name}: {'FAIL' if failures else 'OK'}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CI driver
    sys.exit(main())
