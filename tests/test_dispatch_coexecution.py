"""Co-execution of the per-queue DES dispatcher against the flat-list one.

:class:`~tests.reference_dispatch.ReferenceSimulator` keeps the dispatcher
that scanned one flat, re-sorted pending list per pass.  Every test here
runs the same input through both and demands the same scheduler-call trace
(every ``admit``, ``try_start``, ``retry_hint``, ``should_drop``,
``observe_queue`` and ``on_finish`` call, with arguments and results, in
order), the same schedule digest and the same dropped task ids.  A last
test checks that schedules do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.experiments import bench_scale
from repro.faults import FaultInjector, FaultModelParameters
from repro.runtime import Catalog, build_system
from repro.serving import Request, ServingFrontend, ServingParameters
from repro.tenancy import TenancyParameters, TenantParameters, TenantScheduler
from repro.vital import VitalCompiler
from repro.workloads import TABLE1_COMPOSITIONS, arrival, generate_workload

from .reference_dispatch import ReferenceSimulator

SCALE_BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "baselines" / "BENCH_scale_smoke.json"
)


def _summary(value):
    if isinstance(value, Task):
        return value.task_id
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


class _Recorder:
    """Transparent scheduler proxy that logs the calls a dispatcher makes.

    Hooks the inner scheduler lacks stay absent (``getattr`` falls through
    to the inner object), so the simulator sees the same optional surface.
    """

    TRACED = frozenset({
        "admit", "try_start", "retry_hint", "should_drop", "observe_queue",
        "on_finish",
    })

    def __init__(self, inner):
        self._inner = inner
        self.calls: list = []

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in self.TRACED:
            return attr

        def traced(*args):
            # Summarise before the call: observe_queue's dict is the view
            # the scheduler was given.
            summary = tuple(_summary(arg) for arg in args)
            result = attr(*args)
            self.calls.append((name, summary, result))
            return result

        return traced


def _digest(result) -> str:
    lines = sorted(
        f"{task.task_id}:{task.start_s!r}:{task.finish_s!r}"
        for task in result.completed
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run(simulator_class, make_run) -> dict:
    """One run: ``make_run()`` returns ``(scheduler, tasks, arm)`` with
    ``arm(simulator)`` attaching any event sources before the run."""
    scheduler, tasks, arm = make_run()
    recorder = _Recorder(scheduler)
    simulator = simulator_class(recorder, "coexec")
    arm(simulator)
    result = simulator.run(tasks)
    return {
        "calls": recorder.calls,
        "digest": _digest(result),
        "dropped": [task.task_id for task in result.dropped],
        "scheduler": scheduler,
    }


def _coexecute(make_run) -> dict:
    new = _run(ClusterSimulator, make_run)
    reference = _run(ReferenceSimulator, make_run)
    assert len(new["calls"]) == len(reference["calls"])
    for index, (got, want) in enumerate(zip(new["calls"], reference["calls"])):
        assert got == want, f"scheduler call {index} diverged"
    assert new["digest"] == reference["digest"]
    assert new["dropped"] == reference["dropped"]
    return new


def _no_events(simulator) -> None:
    pass


def test_fig12_small_all_systems():
    """The reduced Fig. 12 golden run: ten sets, 40 tasks, seed 1."""
    for composition in TABLE1_COMPOSITIONS:
        tasks = generate_workload(
            composition, task_count=40, arrival_rate_per_s=1e5,
            seed=1000 + composition.index,
        )
        for name in ("baseline", "restricted", "proposed"):
            def make_run(name=name, tasks=tasks):
                catalog = Catalog(VitalCompiler())
                system = build_system(name, paper_cluster(), catalog)
                return system, copy.deepcopy(tasks), _no_events

            run = _coexecute(make_run)
            assert any(call[0] == "try_start" for call in run["calls"])


def _scale_point_run(catalog):
    """The 64-board ``bench_scale --smoke`` point (default pods)."""
    def make_run():
        system = build_system("proposed", scaled_cluster(64), catalog)
        tasks = generate_workload(
            bench_scale.COMPOSITION,
            task_count=64 * bench_scale.SMOKE_TASKS_PER_BOARD,
            arrival_rate_per_s=bench_scale.ARRIVAL_RATE_PER_S,
            seed=bench_scale.SEED,
        )
        return system, tasks, _no_events

    return make_run


def test_bench_scale_64_board_point():
    run = _coexecute(_scale_point_run(Catalog(VitalCompiler())))
    committed = json.loads(SCALE_BASELINE.read_text())
    point = next(p for p in committed["points"] if p["boards"] == 64)
    assert run["digest"] == point["pod"]["schedule_digest"]


def _serving_tenancy_faults_run(catalog, requests=3000, boards=64):
    """Serving + tenancy + faults + recovery, overloaded on 64 boards."""
    rate = 2400.0 * boards
    window = requests / rate
    times = arrival.mmpp_arrivals(
        requests, rate, seed=3,
        calm_dwell_s=0.8 * window / 10, burst_dwell_s=0.2 * window / 10,
    )
    total_blocks = sum(
        len(board.blocks) for board in scaled_cluster(boards, pod_size=16).boards.values()
    )
    tenants = [
        TenantParameters(name="premium", priority=1, weight=2.0,
                         block_quota=int(total_blocks * 0.3), preemptible=False),
        TenantParameters(name="besteffort", priority=0, weight=1.0,
                         block_quota=int(total_blocks * 0.8), preemptible=True),
    ]
    models = {"premium": ("gru-h512-t1",),
              "besteffort": ("lstm-h256-t150", "lstm-h512-t25")}

    def make_run():
        stream = []
        for tid, at in enumerate(times):
            tenant = "premium" if tid % 4 == 3 else "besteffort"
            keys = models[tenant]
            stream.append(Request(task_id=tid, model_key=keys[(tid // 4) % len(keys)],
                                  arrival_s=at, size_class="S", tenant=tenant))
        system = build_system("proposed", scaled_cluster(boards, pod_size=16),
                              catalog, recovery=True)
        frontend = ServingFrontend(system, ServingParameters(default_deadline_s=0.25))
        tenancy = TenantScheduler(frontend, tenants, TenancyParameters())

        def arm(simulator):
            injector = FaultInjector(
                simulator, system.controller,
                FaultModelParameters(mtbf_s=boards * window / 12,
                                     mttr_s=0.07 * window, seed=3),
            )
            injector.arm(stream[-1].arrival_s)

        return tenancy, stream, arm

    return make_run


def test_serving_tenancy_faults_recovery_64_boards():
    catalog = Catalog(VitalCompiler())
    run = _coexecute(_serving_tenancy_faults_run(catalog))
    stats = run["scheduler"].stats
    assert stats.deployments_preempted >= 1
    assert run["dropped"]
    assert any(call[0] == "should_drop" for call in run["calls"])


class _ToyScheduler:
    """Random accept/decline scheduler exercising every dispatch hook.

    Decisions come from one seeded stream consumed in call order, so two
    dispatchers that make the same calls get the same answers.  The cluster
    is ``slots`` interchangeable slots; a task is never declined while
    nothing runs, so the run always drains.
    """

    def __init__(self, seed, slots, hooks, aborts):
        self.rng = random.Random(seed)
        self.slots = slots
        #: Whether a try_start may preempt a running task first.
        self.aborts = aborts
        self.running: dict[int, Task] = {}
        self.simulator = None
        self.vtime: dict[str, float] = {}
        for hook in hooks:
            setattr(self, hook, getattr(self, f"_{hook}"))

    def bind_simulator(self, simulator):
        self.simulator = simulator

    def try_start(self, task, now):
        rng = self.rng
        if self.aborts and self.running and rng.random() < 0.15:
            victim = self.running.pop(rng.choice(sorted(self.running)))
            self.simulator.abort_running(victim)
            return None
        if len(self.running) >= self.slots or (self.running and rng.random() < 0.3):
            return None
        self.running[task.task_id] = task
        service = rng.choice((0.0, 0.5, 1.0, 1.5))
        self.vtime[task.tenant] = self.vtime.get(task.tenant, 0.0) + service
        return service

    def on_finish(self, task, now):
        self.running.pop(task.task_id, None)

    def _retry_hint(self, task, now):
        if not self.running:
            return now + self.rng.choice((0.0, 0.003))
        return now + self.rng.choice((0.0, 0.25, 0.5, math.inf))

    def _should_drop(self, task, now):
        return self.rng.random() < 0.05

    def _has_fast_path(self, task):
        return any(t.model_key == task.model_key for t in self.running.values())

    def _dispatch_key(self, task):
        return (-(task.tenant == "t0"), self.vtime.get(task.tenant, 0.0))

    def _observe_queue(self, counts):
        pass


_OPTIONAL_HOOKS = ("retry_hint", "should_drop", "observe_queue")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    slots=st.integers(1, 4),
    task_count=st.integers(1, 60),
    ordering=st.sampled_from(("none", "has_fast_path", "dispatch_key")),
    optional=st.sets(st.sampled_from(_OPTIONAL_HOOKS)),
    tenants=st.integers(1, 3),
    aborts=st.booleans(),
)
def test_toy_scheduler_coexecution(seed, slots, task_count, ordering, optional,
                                   tenants, aborts):
    rng = random.Random(seed)
    # Coarse arrival grid: many ties.  Ids ascend in stream order.
    arrivals = sorted(rng.choice((0.0, 0.0, 0.5, 1.0, 2.0)) for _ in range(task_count))
    models = [f"m{rng.randrange(3)}" for _ in range(task_count)]
    owners = [f"t{rng.randrange(tenants)}" if tenants > 1 else ""
              for _ in range(task_count)]
    hooks = set(optional)
    if ordering != "none":
        hooks.add(ordering)

    def make_run():
        tasks = [
            Task(task_id=i, model_key=models[i], arrival_s=arrivals[i],
                 tenant=owners[i])
            for i in range(task_count)
        ]
        return _ToyScheduler(seed, slots, hooks, aborts), tasks, _no_events

    _coexecute(make_run)


def _hash_seed_digests() -> str:
    """Schedule digest and dropped ids of the 64-board pod point and a
    small serving + tenancy + faults run, one line each."""
    catalog = Catalog(VitalCompiler())
    lines = []
    for make_run in (_scale_point_run(catalog),
                     _serving_tenancy_faults_run(catalog, requests=1500)):
        scheduler, tasks, arm = make_run()
        simulator = ClusterSimulator(scheduler, "hash-seed")
        arm(simulator)
        result = simulator.run(tasks)
        dropped = " ".join(str(task.task_id) for task in result.dropped)
        lines.append(f"{_digest(result)} {hashlib.sha256(dropped.encode()).hexdigest()}")
    return "\n".join(lines)


def test_schedules_do_not_depend_on_the_hash_seed():
    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("from tests.test_dispatch_coexecution import _hash_seed_digests; "
            "print(_hash_seed_digests())")
    runs = []
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
        runs.append(subprocess.Popen(
            [sys.executable, "-c", code], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            outputs.append(out)
    finally:
        for run in runs:
            run.kill()
            run.wait()
    assert len(outputs[0].split()) == 4
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
