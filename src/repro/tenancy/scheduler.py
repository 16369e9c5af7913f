"""Weighted fair-share + strict-priority scheduling with preemption.

:class:`TenantScheduler` is a :class:`~repro.cluster.simulator.Scheduler`
layered over an inner scheduler — a bare
:class:`~repro.runtime.systems.ProposedSystem` or a
:class:`~repro.serving.frontend.ServingFrontend` (which keeps admission
control, deadlines, retries and breakers; the tenancy layer wraps it the
way the frontend wraps the system).  It adds:

* **tenant identities** — every task carries ``task.tenant``; per-tenant
  state tracks pending/running work, fair-share virtual time and outcome
  counters;
* **quotas** — block/replica ceilings enforced *at the allocation point*
  via the controller's ``placement_guard``, so a tenant can be declined
  but never overshoot (zero-violation by construction), with instantaneous
  usage read off the :class:`~repro.autoscale.accounting.ReplicaLedger`'s
  tenant axis; queue quotas shed at admission;
* **dispatch order** — the simulator's optional ``dispatch_key`` hook:
  strict priority classes first, start-time fair queueing within a class
  (each start advances the tenant's virtual time by ``service/weight``, so
  a weight-2 tenant receives twice the share of a weight-1 peer under
  contention);
* **preemption = checkpoint + requeue** — when a higher-priority tenant's
  task fails placement on *capacity* (not quota), lower-priority
  preemptible deployments on the best board are drained, checkpointed to
  host memory (the migration engine's state-size model over the host
  link — the same arithmetic as recovery restores) and discarded; a
  running victim task is aborted and requeued, and on its next start it is
  charged only the checkpoint-restore stream plus its *remaining* service,
  so the preempted tenant loses the round trip but not the work.

Everything is off by default at the system level: untenanted runs never
construct this class, ``task.tenant == ""`` everywhere, and the fig12
goldens are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..autoscale.accounting import ReplicaLedger
from ..cluster.simulator import Task
from ..errors import ReproError
from ..perf.profiling import PROFILER
from ..runtime.deployment import Deployment, DeploymentState
from .policy import TenancyParameters, TenantParameters


@dataclass
class TenantState:
    """Mutable runtime state of one tenant."""

    params: TenantParameters
    #: Start-time fair-queueing virtual time; advanced by
    #: ``service / weight`` at every start, floor-normalised on activation
    #: so an idle tenant cannot hoard credit.
    vtime: float = 0.0
    pending: int = 0
    running: int = 0
    offered: int = 0
    shed: int = 0
    completed: int = 0
    #: Task runs of this tenant aborted by preemption.
    preempted: int = 0
    #: Preemption sweeps this tenant triggered as the starved party.
    preemptions_triggered: int = 0
    latencies_s: list = field(default_factory=list)

    @property
    def active(self) -> bool:
        return self.pending > 0 or self.running > 0


@dataclass
class TenancyStats:
    """Aggregate tenancy-layer counters."""

    preemption_sweeps: int = 0
    deployments_preempted: int = 0
    #: Abort events (a task preempted twice counts twice).
    tasks_preempted: int = 0
    #: Distinct tasks ever preempted (the recovery-rate denominator).
    preempted_distinct: int = 0
    #: Distinct preempted tasks that subsequently ran to completion.
    preempted_completed: int = 0
    quota_sheds: int = 0
    #: Total drain + checkpoint-stream time charged to teardowns.
    checkpoint_s: float = 0.0
    #: Total restore-stream time charged to preempted tasks' restarts.
    restore_s: float = 0.0


class TenantScheduler:
    """Multi-tenant fairness layer over one inner scheduler."""

    name = "tenancy"

    def __init__(
        self,
        inner,
        tenants,
        params: TenancyParameters | None = None,
    ):
        self.inner = inner
        #: The placement-owning system (the frontend exposes its wrapped
        #: system; a bare system is its own).
        self.system = getattr(inner, "system", inner)
        self.controller = self.system.controller
        self.params = params or TenancyParameters()
        self.stats = TenancyStats()
        self._tenants: dict[str, TenantState] = {}
        for tenant in tenants:
            if not isinstance(tenant, TenantParameters):
                raise ReproError(
                    f"tenants must be TenantParameters, got {tenant!r}"
                )
            if tenant.name in self._tenants:
                raise ReproError(f"duplicate tenant {tenant.name!r}")
            self._tenants[tenant.name] = TenantState(params=tenant)
        # Quota usage is read off the ledger's tenant axis; adopt the
        # controller's ledger when one is already attached (autoscale
        # composition shares it) and attach one otherwise.
        if self.controller.ledger is None:
            self.controller.ledger = ReplicaLedger()
        self.ledger = self.controller.ledger
        self.controller.tenant_isolation = self.params.isolation
        self._simulator = None
        #: task_id -> Task for running work (victim lookup needs the Task).
        self._running_tasks: dict[int, Task] = {}
        #: task_id -> absolute finish time of the current run.
        self._finish_at: dict[int, float] = {}
        #: task_id -> (remaining_service_s, restore_stream_s) credit for a
        #: preempted task's next start.
        self._resume_credit: dict[int, tuple] = {}
        #: task_ids ever preempted (recovery-rate accounting).
        self._preempted_ever: set[int] = set()
        #: model_key -> preemption teardowns in flight (their completion
        #: frees the blocks the starved model is waiting for).
        self._preempt_pending: dict[str, int] = {}
        #: Earliest time the next preemption sweep may run.
        self._preempt_gate_s = 0.0
        #: task_id -> why its last try_start declined (drives retry_hint).
        self._decline_reason: dict[int, str] = {}

    # -- tenant registry -----------------------------------------------------

    def _state(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            # Unknown (incl. untenanted "") tenants get neutral defaults:
            # lowest priority, weight 1, no quotas, never preempted.
            state = TenantState(
                params=TenantParameters(name=name, preemptible=False)
            )
            self._tenants[name] = state
        return state

    def tenant(self, name: str) -> TenantState:
        """One tenant's runtime state (benches and tests read it)."""
        return self._state(name)

    def tenant_report(self) -> dict:
        """Per-tenant outcome summary."""
        report = {}
        for name in sorted(self._tenants):
            state = self._tenants[name]
            latencies = sorted(state.latencies_s)
            report[name] = {
                "priority": state.params.priority,
                "weight": state.params.weight,
                "block_quota": state.params.block_quota,
                "replica_quota": state.params.replica_quota,
                "offered": state.offered,
                "shed": state.shed,
                "completed": state.completed,
                "preempted": state.preempted,
                "peak_open_blocks": self.ledger.peak_open_blocks.get(name, 0),
                "peak_open_replicas": (
                    self.ledger.peak_open_replicas.get(name, 0)
                ),
                "mean_latency_s": (
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
            }
        return report

    def quota_violations(self) -> dict:
        """Tenants whose *peak* resident usage ever exceeded a quota —
        empty by construction (the guard declines before the allocator),
        and the bench asserts exactly that."""
        violations = {}
        for name, state in self._tenants.items():
            quota = state.params.block_quota
            peak = self.ledger.peak_open_blocks.get(name, 0)
            if quota is not None and peak > quota:
                violations[name] = {"kind": "blocks", "peak": peak,
                                    "quota": quota}
            rquota = state.params.replica_quota
            rpeak = self.ledger.peak_open_replicas.get(name, 0)
            if rquota is not None and rpeak > rquota:
                violations[name] = {"kind": "replicas", "peak": rpeak,
                                    "quota": rquota}
        return violations

    # -- Scheduler protocol --------------------------------------------------

    def bind_simulator(self, simulator) -> None:
        self._simulator = simulator
        bind = getattr(self.inner, "bind_simulator", None)
        if bind is not None:
            bind(simulator)

    def dispatch_key(self, task: Task) -> tuple:
        """Strict priority classes, fair-share virtual time within one (the
        simulator breaks ties in arrival FIFO order)."""
        state = self._state(task.tenant)
        return (-state.params.priority, state.vtime)

    def observe_queue(self, pending_by_model: dict) -> None:
        observe = getattr(self.inner, "observe_queue", None)
        if observe is not None:
            observe(pending_by_model)

    def has_pending_timers(self) -> bool:
        timers = getattr(self.inner, "has_pending_timers", None)
        return timers() if timers is not None else False

    def admit(self, task: Task, now: float) -> bool:
        state = self._state(task.tenant)
        state.offered += 1
        quota = state.params.queue_quota
        if quota is not None and state.pending >= quota:
            state.shed += 1
            self.stats.quota_sheds += 1
            PROFILER.incr("tenancy.queue_sheds")
            return False
        inner_admit = getattr(self.inner, "admit", None)
        if inner_admit is not None and not inner_admit(task, now):
            state.shed += 1
            return False
        if not state.active:
            # Activation floor: an idle tenant re-enters at the active
            # minimum, not at its stale (possibly tiny) virtual time —
            # otherwise a long-idle tenant would lock out its class.
            active = [
                s.vtime for s in self._tenants.values() if s.active
            ]
            if active:
                state.vtime = max(state.vtime, min(active))
        state.pending += 1
        return True

    def should_drop(self, task: Task, now: float) -> bool:
        drop = getattr(self.inner, "should_drop", None)
        if drop is not None and drop(task, now):
            self._state(task.tenant).pending -= 1
            return True
        return False

    def retry_hint(self, task: Task, now: float) -> float:
        reason = self._decline_reason.get(task.task_id)
        if reason in ("quota", "preempt"):
            # Quota: only a release/discard (a version bump) helps.
            # Preempt: the teardown's completion is an external event that
            # bumps the version itself.
            return math.inf
        hint = getattr(self.inner, "retry_hint", None)
        return hint(task, now) if hint is not None else now

    def try_start(self, task: Task, now: float) -> float | None:
        state = self._state(task.tenant)
        if self._preempt_pending.get(task.model_key, 0) > 0:
            # Blocks for this model are already being reclaimed; starting
            # another sweep before they land would over-evict.
            self._decline_reason[task.task_id] = "preempt"
            return None
        controller = self.controller
        guard = self._guard_for(state)
        failures_before = controller.stats.placement_failures
        quota_before = controller.stats.quota_rejections
        controller.placement_guard = guard
        try:
            service = self.inner.try_start(task, now)
        finally:
            controller.placement_guard = None
        if service is None:
            if controller.stats.placement_failures > failures_before:
                reason = "capacity"
                if self._maybe_preempt(task, state, now):
                    reason = "preempt"
            elif controller.stats.quota_rejections > quota_before:
                reason = "quota"
            else:
                reason = "inner"
            self._decline_reason[task.task_id] = reason
            return None
        self._decline_reason.pop(task.task_id, None)
        state.pending -= 1
        state.running += 1
        credit = self._resume_credit.pop(task.task_id, None)
        if credit is not None:
            # Checkpointed restart: pay whatever placement overhead the
            # inner start actually charged (reconfig + weight load for a
            # fresh deployment), the checkpoint's restore stream, and only
            # the service the preempted run had left.
            remaining, restore = credit
            deployment = self.system.running_deployment(task.task_id)
            overhead = (
                max(0.0, service - deployment.service_s)
                if deployment is not None
                else 0.0
            )
            service = overhead + restore + remaining
            self.stats.restore_s += restore
            PROFILER.incr("tenancy.preempted_restarts")
        state.vtime += service / state.params.weight
        self._running_tasks[task.task_id] = task
        self._finish_at[task.task_id] = now + service
        return service

    def on_finish(self, task: Task, now: float) -> None:
        state = self._state(task.tenant)
        state.running -= 1
        state.completed += 1
        state.latencies_s.append(now - task.arrival_s)
        self._running_tasks.pop(task.task_id, None)
        self._finish_at.pop(task.task_id, None)
        if task.task_id in self._preempted_ever:
            self.stats.preempted_completed += 1
        self.inner.on_finish(task, now)

    # -- quota guard ---------------------------------------------------------

    def _guard_for(self, state: TenantState):
        params = state.params
        if params.block_quota is None and params.replica_quota is None:
            return None
        ledger = self.ledger
        footprint = self.controller.plan_footprint

        def guard(plan, name=params.name, blocks=params.block_quota,
                  replicas=params.replica_quota):
            if blocks is not None and (
                ledger.open_blocks(name) + footprint(plan) > blocks
            ):
                return False
            if replicas is not None and (
                ledger.open_replicas(tenant=name) + plan.replicas > replicas
            ):
                return False
            return True

        return guard

    # -- preemption ----------------------------------------------------------

    def _maybe_preempt(self, task: Task, state: TenantState,
                       now: float) -> bool:
        """A capacity-starved task of a higher class: drain, checkpoint and
        discard enough lower-class preemptible deployments on one board per
        needed replica.  Returns whether a sweep started."""
        if not self.params.preemption_enabled:
            return False
        if now < self._preempt_gate_s:
            return False
        priority = state.params.priority
        controller = self.controller
        entry = controller.catalog.entry_by_key(task.model_key)
        plans = sorted(entry.sorted_plans(), key=controller.plan_footprint)
        guard = self._guard_for(state)
        for plan in plans:
            if guard is not None and not guard(plan):
                continue  # reclaiming blocks the tenant may not hold is moot
            victims = self._plan_victims(plan, priority)
            if victims is not None:
                self._execute_preemption(victims, task, state, now)
                return True
        return False

    def _victim_ok(self, deployment: Deployment, priority: int) -> bool:
        if deployment.state not in (DeploymentState.IDLE,
                                    DeploymentState.BUSY):
            return False
        if deployment.pending_recovery:
            return False
        owner = self._tenants.get(deployment.tenant)
        if owner is None:
            return False  # unknown/untenanted deployments are never victims
        return (
            owner.params.preemptible and owner.params.priority < priority
        )

    def _plan_victims(self, plan, priority: int) -> list | None:
        """Choose victims opening one hole per replica of ``plan``, or
        ``None``.  Per device type, boards are scanned in stable id order;
        on each board idle victims go first, then busy LRU, and a board
        qualifies when its free blocks plus its victims' blocks cover one
        replica image."""
        controller = self.controller
        for device_type in sorted(plan.feasible_types):
            image = plan.images[device_type]
            needed = image.virtual_blocks
            taken: set[str] = set()
            victims: list[Deployment] = []
            boards_found = 0
            for board in controller.index.boards_by_id(device_type):
                candidates = [
                    d
                    for d in controller.deployments_on(board.fpga_id)
                    if d.deployment_id not in taken
                    and self._victim_ok(d, priority)
                ]
                candidates.sort(
                    key=lambda d: (not d.is_idle, d.last_used_s)
                )
                free = board.free_blocks
                chosen: list[Deployment] = []
                for victim in candidates:
                    if free >= needed:
                        break
                    free += sum(
                        p.virtual_blocks
                        for p in victim.placements
                        if p.fpga_id == board.fpga_id
                    )
                    chosen.append(victim)
                if free < needed or not chosen:
                    continue  # board can't be opened (or is already open)
                if len(victims) + len(chosen) > self.params.max_victims:
                    continue
                victims.extend(chosen)
                taken.update(v.deployment_id for v in chosen)
                boards_found += 1
                if boards_found == plan.replicas:
                    return victims
        return None

    def _checkpoint_cost(self, deployment: Deployment) -> tuple:
        """(teardown_s, restore_stream_s): drain + architectural state out
        over the host link, and the same state streamed back at restart —
        the recovery manager's restore arithmetic, reused."""
        engine = self.controller.migration
        state_bytes = sum(
            engine.state_bytes(deployment, index)
            for index in range(len(deployment.placements))
        )
        link = self.controller.cluster.host_link
        stream = link.latency_s + state_bytes * 8.0 / link.bandwidth_bps
        return self.params.drain_s + stream, stream

    def _execute_preemption(self, victims: list, task: Task,
                            state: TenantState, now: float) -> None:
        controller = self.controller
        self.stats.preemption_sweeps += 1
        state.preemptions_triggered += 1
        PROFILER.incr("tenancy.preemption_sweeps")
        for victim in victims:
            teardown_s, restore_s = self._checkpoint_cost(victim)
            self.stats.checkpoint_s += teardown_s
            if victim.state is DeploymentState.BUSY:
                self._abort_victim_task(victim, restore_s, now)
            # Blocks stay held through the drain + checkpoint stream; the
            # MIGRATING state keeps the deployment unservable and
            # unevictable until the teardown lands.
            victim.state = DeploymentState.MIGRATING
            self.stats.deployments_preempted += 1
            controller.stats.deployments_preempted += 1
            PROFILER.incr("tenancy.deployments_preempted")
            model_key = task.model_key
            self._preempt_pending[model_key] = (
                self._preempt_pending.get(model_key, 0) + 1
            )

            def teardown(fire_now, victim=victim, model_key=model_key):
                controller.discard(victim)
                self._preempt_pending[model_key] -= 1

            if self._simulator is not None:
                self._simulator.schedule_external(teardown_s, teardown)
            else:
                teardown(now)
        self._preempt_gate_s = now + self.params.cooldown_s

    def _abort_victim_task(self, victim: Deployment, restore_s: float,
                           now: float) -> None:
        """Checkpoint + requeue the task running on a busy victim."""
        running_id = next(
            (
                task_id
                for task_id in self._running_tasks
                if self.system.running_deployment(task_id) is victim
            ),
            None,
        )
        if running_id is None:
            return  # raced: the finish landed in this very pass
        victim_task = self._running_tasks.pop(running_id)
        self.system.abort_task(victim_task)
        finish_at = self._finish_at.pop(running_id, now)
        remaining = max(0.0, finish_at - now)
        self._resume_credit[running_id] = (remaining, restore_s)
        if running_id not in self._preempted_ever:
            self._preempted_ever.add(running_id)
            self.stats.preempted_distinct += 1
        owner = self._state(victim_task.tenant)
        owner.running -= 1
        owner.pending += 1
        owner.preempted += 1
        self.stats.tasks_preempted += 1
        self.controller.stats.tasks_preempted += 1
        PROFILER.incr("tenancy.tasks_preempted")
        requeue = getattr(self.inner, "requeue", None)
        if requeue is not None:
            requeue(victim_task, now)
        if self._simulator is not None:
            self._simulator.abort_running(victim_task)
