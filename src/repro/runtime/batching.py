"""Request coalescing: batch same-model functional executions.

The DES computes task *timing* from the cycle model; the functional
simulator computes task *outputs*.  Timing never depended on the
functional layer, so batching lives entirely on the output side: when the
runtime is asked to actually execute requests (``Task.payload`` inputs →
``Task.output`` hidden states), a :class:`BatchExecutor` coalesces tasks
of the same (model, plan width) into one
:class:`~repro.accel.batched.BatchedFunctionalSimulator` run instead of N
scalar runs.

Integration contract — *no change to DES event semantics*:

* ``submit(task, replicas, now)`` is called by the scheduler inside
  ``try_start`` after the deployment is acquired.  It only buffers; a full
  group (``max_batch`` lanes) executes immediately.
* ``ensure_executed(task)`` is called inside ``on_finish`` *before* the
  deployment is released: if the task's group has not yet filled, the
  partial group executes right then (falling back to the scalar simulator
  for singleton groups).  A task therefore always holds its output by the
  time its completion event is observable, at unchanged timestamps — the
  fig12 goldens are bit-identical with the executor on or off.

The executor is **off by default** (like migration, faults and serving):
schedulers only create one when handed :class:`BatchingParameters`.

Tasks without a payload get a deterministic per-task input stream seeded
by ``task_id`` — the same stream the scalar path would generate — so
batched-vs-scalar equivalence is checkable end-to-end through the DES.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel.batched import run_batched, run_scaleout_batched
from ..accel.codegen import OUT_BASE, build_scaleout_programs, make_codegen
from ..errors import ReproError
from ..perf.profiling import PROFILER
from ..workloads.deepbench import model_by_key

#: ``(model_key, weight_seed) -> RNNWeights``, generated once per process
#: and shared by every executor, so the arrays are read-only.  Shared, not
#: per executor: a run's executor sits in reference cycles with its
#: scheduler, so a private copy would stay alive until the next full
#: garbage collection.
_WEIGHTS: dict = {}


@dataclass(frozen=True)
class BatchingParameters:
    """Knobs for the request-coalescing executor.

    ``max_batch`` bounds group size (memory and latency of one batched
    run); ``weight_seed`` fixes the model weights used for functional
    execution; ``force_scalar`` pins every execution to the scalar
    fallback (equivalence harnesses compare against it).
    """

    max_batch: int = 8
    weight_seed: int = 0
    force_scalar: bool = False

    def __post_init__(self):
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")


@dataclass
class BatchingStats:
    """Coalescing effectiveness counters."""

    submitted: int = 0
    executions: int = 0
    batched_lanes: int = 0
    scalar_lanes: int = 0
    full_batches: int = 0
    partial_flushes: int = 0
    #: lane-count histogram over executions (size -> count).
    batch_sizes: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        mean = (
            (self.batched_lanes + self.scalar_lanes) / self.executions
            if self.executions
            else 0.0
        )
        return {
            "submitted": self.submitted,
            "executions": self.executions,
            "batched_lanes": self.batched_lanes,
            "scalar_lanes": self.scalar_lanes,
            "full_batches": self.full_batches,
            "partial_flushes": self.partial_flushes,
            "mean_batch": mean,
            "batch_sizes": {str(k): v for k, v in sorted(self.batch_sizes.items())},
        }


class BatchExecutor:
    """Coalesces same-model functional executions into batched runs."""

    def __init__(self, params: BatchingParameters | None = None):
        self.params = params or BatchingParameters()
        #: (model_key, replicas) -> list of waiting tasks.
        self._groups: dict[tuple, list] = {}
        #: task_id -> group key, while the task waits.
        self._waiting: dict[int, tuple] = {}
        self._codegens: dict[tuple, object] = {}
        self.stats = BatchingStats()

    # -- model artifacts (memoised per model/width) --------------------------

    def _weights_for(self, model_key: str):
        key = (model_key, self.params.weight_seed)
        weights = _WEIGHTS.get(key)
        if weights is None:
            weights = model_by_key(model_key).real_weights(seed=self.params.weight_seed)
            for array in weights.w + weights.u + weights.b:
                array.flags.writeable = False
            _WEIGHTS[key] = weights
        return weights

    def _codegen_for(self, model_key: str, replicas: int, replica_index: int):
        key = (model_key, replicas, replica_index)
        gen = self._codegens.get(key)
        if gen is None:
            spec = model_by_key(model_key)
            gen = make_codegen(
                spec.kind,
                self._weights_for(model_key),
                spec.timesteps,
                replicas=replicas,
                replica_index=replica_index,
            )
            self._codegens[key] = gen
        return gen

    def default_payload(self, task) -> np.ndarray:
        """The deterministic input stream for a payload-less task."""
        spec = model_by_key(task.model_key)
        rng = np.random.default_rng(task.task_id)
        return rng.normal(0.0, 1.0, (spec.timesteps, spec.effective_input_dim))

    # -- coalescing ----------------------------------------------------------

    def submit(self, task, replicas: int, now: float) -> None:
        """Buffer ``task`` for batched execution; runs the group when it
        reaches ``max_batch`` lanes."""
        if task.task_id in self._waiting:
            return
        key = (task.model_key, replicas)
        group = self._groups.setdefault(key, [])
        group.append(task)
        self._waiting[task.task_id] = key
        self.stats.submitted += 1
        if len(group) >= self.params.max_batch:
            self.stats.full_batches += 1
            self._execute(key)

    def ensure_executed(self, task) -> None:
        """Execute ``task``'s group now if it is still waiting (called at
        task finish, before the deployment releases)."""
        key = self._waiting.get(task.task_id)
        if key is None:
            return
        self.stats.partial_flushes += 1
        self._execute(key)

    def flush(self) -> None:
        """Execute every waiting group (end-of-run drain)."""
        for key in list(self._groups):
            self._execute(key)

    # -- execution -----------------------------------------------------------

    def _execute(self, key: tuple) -> None:
        tasks = self._groups.pop(key, None)
        if not tasks:
            return
        model_key, replicas = key
        for task in tasks:
            self._waiting.pop(task.task_id, None)
        payloads = [
            task.payload if task.payload is not None else self.default_payload(task)
            for task in tasks
        ]
        spec = model_by_key(model_key)
        batch = len(tasks)
        scalar = self.params.force_scalar or batch == 1
        if replicas <= 1:
            gen = self._codegen_for(model_key, 1, 0)
            lanes = run_batched(
                gen.build(),
                [
                    (lambda xs: (lambda view: gen.preload_inputs(view, xs)))(xs)
                    for xs in payloads
                ],
                shared_preload=gen.preload_weights,
                force_scalar=self.params.force_scalar,
            )
            outputs = [
                lanes.lane_dram_read(i, OUT_BASE, spec.hidden) for i in range(batch)
            ]
            scalar = lanes.fallback
        else:
            outputs = self._execute_scaleout(spec, replicas, payloads)
        for task, output in zip(tasks, outputs):
            task.output = output
        self.stats.executions += 1
        self.stats.batch_sizes[batch] = self.stats.batch_sizes.get(batch, 0) + 1
        if scalar:
            self.stats.scalar_lanes += batch
        else:
            self.stats.batched_lanes += batch
        PROFILER.incr("runtime.batch.executions")
        PROFILER.incr("runtime.batch.lanes", batch)

    def _execute_scaleout(self, spec, replicas: int, payloads: list) -> list:
        gens = [
            self._codegen_for(spec.key, replicas, index) for index in range(replicas)
        ]
        programs = build_scaleout_programs(
            spec.kind, self._weights_for(spec.key), spec.timesteps, replicas
        )
        if self.params.force_scalar or len(payloads) == 1:
            # Scalar fallback: one scale-out co-simulation per lane.
            from ..accel.functional import run_scaleout

            PROFILER.incr("batched.scalar_fallbacks")
            outputs = []
            for xs in payloads:
                sims, _fabric = run_scaleout(
                    programs, preload=lambda sim, i: gens[i].preload(sim, xs)
                )
                outputs.append(self._gather(sims, gens, spec, lane=None))
            return outputs
        lanes, _fabric = run_scaleout_batched(
            programs,
            [
                (lambda xs: (lambda view, i: gens[i].preload_inputs(view, xs)))(xs)
                for xs in payloads
            ],
            shared_preload=lambda view, i: gens[i].preload_weights(view),
        )
        return [
            self._gather(lanes, gens, spec, lane=index)
            for index in range(len(payloads))
        ]

    @staticmethod
    def _gather(replica_sims, gens, spec, lane) -> np.ndarray:
        """Concatenate each replica's hidden-state slice into the full h."""
        parts = []
        for gen, sim in zip(gens, replica_sims):
            addr = OUT_BASE + gen.slice.start
            if lane is None:
                parts.append(sim.dram.read(addr, gen.slice.rows))
            else:
                parts.append(sim.lane_dram_read(lane, addr, gen.slice.rows))
        return np.concatenate(parts)
