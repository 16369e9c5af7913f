"""Benchmark driver for batched functional simulation.

Sweeps batch size × model over identical-deployment request groups and
measures *requests per wall-second* through the scalar
:class:`~repro.accel.functional.FunctionalSimulator` versus the batched
:mod:`repro.accel.batched` path, verifying bit-identical outputs at every
point (the batched path's contract, not a tolerance check).  Emits
``BENCH_batch.json``.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_batch           # full
    PYTHONPATH=src python -m repro.experiments.bench_batch --smoke   # CI

The acceptance gate lives in the report's ``gate`` block: at the gate
batch size (8) the batched path must clear a >= 5x speedup over the
scalar simulator on every swept model.  The speedups are the gate
block's ``ratios``: within-run ratios, which
:mod:`repro.experiments.bench_gate` lets drop at most 25% below the
committed smoke baseline whatever the runner's absolute speed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from ..accel.batched import run_batched
from ..accel.codegen import OUT_BASE, make_codegen
from ..accel.functional import FunctionalSimulator
from ..isa.progcache import PROGRAM_CACHE
from ..perf.profiling import PROFILER
from ..workloads.deepbench import model_by_key
from .bench_gate import gate_block

#: Two model configurations (the acceptance criterion's minimum); both are
#: members of the serving stream in ``bench_serving``.
MODELS = ("lstm-h256-t150", "lstm-h512-t25")

FULL_BATCH_SIZES = (1, 2, 4, 8, 16, 32)
SMOKE_BATCH_SIZES = (1, 8)

#: Requests measured per (model, batch) point.
FULL_REQUESTS = 32
SMOKE_REQUESTS = 8

#: The gate point and its floor: >= 5x at batch 8 (target 10x).
GATE_BATCH = 8
GATE_SPEEDUP_FLOOR = 5.0

WEIGHT_SEED = 0
INPUT_SEED = 1234


def _payloads(spec, count: int) -> list:
    rng = np.random.default_rng(INPUT_SEED)
    return [
        rng.normal(0.0, 1.0, (spec.timesteps, spec.effective_input_dim))
        for _ in range(count)
    ]


def _run_scalar(spec, gen, program, payloads: list) -> tuple:
    """(outputs, wall_s): one full scalar simulation per request, DRAM
    image and all — the per-request serving cost the batched path
    amortises."""
    outputs = []
    start = time.perf_counter()
    for xs in payloads:
        sim = FunctionalSimulator(program)
        gen.preload(sim, xs)
        sim.run()
        outputs.append(sim.dram.read(OUT_BASE, spec.hidden))
    return outputs, time.perf_counter() - start


def _run_batched(spec, gen, program, payloads: list, batch: int) -> tuple:
    """(outputs, wall_s, guard_recomputes): requests in ``batch``-wide
    groups (the final group may be narrower; width 1 falls back to the
    scalar simulator)."""
    outputs = []
    guard = 0
    start = time.perf_counter()
    for begin in range(0, len(payloads), batch):
        group = payloads[begin : begin + batch]
        lanes = run_batched(
            program,
            [
                (lambda xs: (lambda view: gen.preload_inputs(view, xs)))(xs)
                for xs in group
            ],
            shared_preload=gen.preload_weights,
        )
        for index in range(len(group)):
            outputs.append(lanes.lane_dram_read(index, OUT_BASE, spec.hidden))
        guard += getattr(getattr(lanes, "sim", None), "guard_recomputed", 0)
    return outputs, time.perf_counter() - start, guard


def run_model(model_key: str, batch_sizes, requests: int) -> dict:
    """Sweep batch sizes for one model; returns its report block."""
    spec = model_by_key(model_key)
    weights = spec.real_weights(seed=WEIGHT_SEED)
    gen = make_codegen(spec.kind, weights, spec.timesteps)
    program = gen.build()
    payloads = _payloads(spec, requests)
    scalar_outputs, scalar_wall = _run_scalar(spec, gen, program, payloads)
    scalar_rate = requests / scalar_wall
    points = []
    for batch in batch_sizes:
        outputs, wall, guard = _run_batched(spec, gen, program, payloads, batch)
        identical = all(
            np.array_equal(got, want)
            for got, want in zip(outputs, scalar_outputs)
        )
        rate = requests / wall
        points.append(
            {
                "batch": batch,
                "requests": requests,
                "wall_s": wall,
                "requests_per_s": rate,
                "speedup": rate / scalar_rate,
                "bit_identical": identical,
                "guard_recomputes": guard,
            }
        )
    return {
        "model": model_key,
        "hidden": spec.hidden,
        "timesteps": spec.timesteps,
        "scalar": {
            "requests": requests,
            "wall_s": scalar_wall,
            "requests_per_s": scalar_rate,
        },
        "points": points,
    }


def batch_gate(report: dict) -> dict:
    """The report's gate block: every point bit-identical, and at the
    gate batch the batched-vs-scalar speedup (a within-run ratio) per
    model, which must clear the floor."""
    models = report["models"]
    speedups = {
        block["model"]: point["speedup"]
        for block in models
        for point in block["points"]
        if point["batch"] == GATE_BATCH
    }
    checks = {
        "bit_identical": all(
            p["bit_identical"] for block in models for p in block["points"]
        ),
    }
    for model in MODELS:
        checks[f"{model}.speedup_floor"] = (
            speedups.get(model, 0.0) >= GATE_SPEEDUP_FLOOR
        )
    cache = report["program_cache"]
    exact = {f"program_cache.{key}": cache[key] for key in ("hits", "misses")}
    return gate_block(report["scale"], exact, checks, ratios=speedups)


def run_bench(
    batch_sizes=FULL_BATCH_SIZES,
    requests: int = FULL_REQUESTS,
    output: str | pathlib.Path = "BENCH_batch.json",
) -> dict:
    """Full batch × model sweep; writes and returns the report."""
    PROFILER.reset()
    PROGRAM_CACHE.clear()
    PROGRAM_CACHE.reset_stats()
    models = [run_model(key, batch_sizes, requests) for key in MODELS]
    # Exercise the decoded-program cache the way repeat deployments do.
    for key in MODELS:
        for _ in range(3):
            model_by_key(key).program()
    report = {
        "scale": {
            "requests": requests,
            "batch_sizes": list(batch_sizes),
            "models": list(MODELS),
            "weight_seed": WEIGHT_SEED,
            "input_seed": INPUT_SEED,
        },
        "models": models,
        "program_cache": PROGRAM_CACHE.stats(),
        "profiler": PROFILER.snapshot()["counters"],
    }
    report["gate"] = batch_gate(report)
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=FULL_REQUESTS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: {SMOKE_REQUESTS} requests, batches "
        f"{SMOKE_BATCH_SIZES}",
    )
    parser.add_argument("--output", default="BENCH_batch.json")
    args = parser.parse_args(argv)
    batch_sizes = SMOKE_BATCH_SIZES if args.smoke else FULL_BATCH_SIZES
    requests = SMOKE_REQUESTS if args.smoke else args.requests
    report = run_bench(batch_sizes=batch_sizes, requests=requests,
                       output=args.output)
    for block in report["models"]:
        scalar = block["scalar"]
        print(
            f"{block['model']}: scalar {scalar['requests_per_s']:.1f} req/s"
        )
        for point in block["points"]:
            flag = "" if point["bit_identical"] else "  OUTPUT MISMATCH"
            print(
                f"  batch {point['batch']:>3}: "
                f"{point['requests_per_s']:.1f} req/s "
                f"({point['speedup']:.2f}x){flag}"
            )
    cache = report["program_cache"]
    print(
        f"program cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['entries']} entries)"
    )
    gate = report["gate"]
    speedups = ", ".join(
        f"{key} {value:.2f}x" for key, value in gate["ratios"].items()
    )
    print(
        f"gate (batch {GATE_BATCH}, floor {GATE_SPEEDUP_FLOOR:g}x): "
        f"{speedups} -> {'PASS' if gate['pass'] else 'FAIL'}"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
