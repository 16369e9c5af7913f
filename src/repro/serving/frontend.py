"""The overload-robust serving edge (admission -> deadline -> retry -> start).

:class:`ServingFrontend` wraps a framework scheduler (:class:`~repro.
runtime.systems.ProposedSystem` or the restricted variant) and implements
the same :class:`~repro.cluster.simulator.Scheduler` protocol, so a
:class:`~repro.cluster.simulator.ClusterSimulator` drives it unchanged.
On top of the inner scheduler it layers the mechanisms that keep goodput
graceful when offered load exceeds capacity or boards fail:

* **Admission control** — per-model bounded queues plus an optional
  per-model token bucket; overflow is shed at arrival under a
  :class:`~repro.serving.policy.SheddingPolicy` (tail or head drop).
* **Deadlines** — every admitted request carries an absolute deadline;
  a request past its deadline is expired *at dequeue* (the simulator's
  ``should_drop`` hook) and never occupies a board.  Each admission also
  schedules a deadline wake via ``schedule_external`` so expiry is an
  exact DES event, not a poll artifact.
* **Retry budget** — genuine placement failures (the controller raised
  ``AllocationError``) consume a per-request budget with jittered
  exponential backoff; exhaustion abandons the request.  Waiting behind a
  busy deployment costs nothing — that is queueing, not failure.
* **Circuit breakers** — per-board failure/latency windows
  (:mod:`repro.serving.breaker`); an open breaker drains its board
  through the health machinery (``HEALTHY -> DEGRADED``, dropping it from
  the placement index), half-open probes re-admit it.
* **Brownout** — above a utilisation high watermark the frontend flips
  the controller to narrowest-plan-first dispatch and switches hot
  models' idle deployments to the narrowest catalog plan (a cross-width
  switch is a cold restart, mirroring the recovery manager's scale-down
  fallback), exiting at a low watermark with hysteresis.

Everything is opt-in: no behaviour of the wrapped system changes unless a
frontend is constructed around it, so the Fig. 12 golden path is
untouched.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from ..cluster.simulator import Task
from ..perf.profiling import PROFILER
from ..runtime.deployment import DeploymentState
from ..vital.virtual_block import BoardHealth
from .breaker import BreakerState, CircuitBreaker
from .policy import ServingParameters, SheddingPolicy, TokenBucket
from .request import Request, RequestOutcome, RequestRecord


@dataclass
class ServingStats:
    """Serving-edge counters for one frontend lifetime."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    expired: int = 0
    abandoned: int = 0
    breaker_rejections: int = 0
    started: int = 0
    completed: int = 0
    #: Completions that finished at or before their deadline.
    slo_hits: int = 0
    #: Genuine placement failures absorbed into backoff.
    placement_retries: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    brownout_entries: int = 0
    brownout_exits: int = 0
    brownout_switches: int = 0
    #: Latency (seconds) of every completed request, in completion order.
    latencies_s: list = field(default_factory=list)

    def slo_attainment(self) -> float:
        """On-deadline fraction of completed (admitted) requests."""
        return self.slo_hits / self.completed if self.completed else 1.0

    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


class ServingFrontend:
    """Admission/deadline/retry/breaker/brownout edge over one scheduler."""

    name = "serving"

    def __init__(self, system, params: ServingParameters | None = None):
        self.system = system
        self.controller = system.controller
        self.cluster = system.cluster
        self.params = params or ServingParameters()
        self.stats = ServingStats()
        self._rng = random.Random(self.params.seed)
        #: task_id -> RequestRecord (created at admission or first start).
        self._records: dict[int, RequestRecord] = {}
        #: model key -> FIFO of queued (admitted, not started) records.
        self._queued: dict[str, deque] = {}
        #: model key -> live queue depth (PENDING, not condemned).
        self._depth: dict[str, int] = {}
        #: tenant -> live queue depth (tenancy layer's pressure signal).
        self._tenant_depth: dict[str, int] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._breakers = {
            fpga_id: CircuitBreaker(fpga_id, self.params)
            for fpga_id in self.cluster.boards
        }
        self._boards_by_type: dict[str, list] = {}
        self._total_blocks = 0
        #: Free blocks over every board, kept exact by occupancy notifications.
        self._free_blocks = 0
        for board in self.cluster.boards.values():
            self._boards_by_type.setdefault(board.model.name, []).append(board)
            self._total_blocks += len(board.blocks)
            self._free_blocks += board.free_blocks
            board.subscribe(self._on_occupancy)
        self._feasible_types: dict[str, list] = {}
        #: (due_s, breaker) half-open probes in synchronous mode.
        self._due: list = []
        self._clock = 0.0
        self.brownout = False
        self._simulator = None
        #: Optional elastic autoscaler (:mod:`repro.autoscale`); attached
        #: via :meth:`attach_autoscaler`, observes every offered arrival.
        self.autoscaler = None
        if self.params.breaker_enabled:
            for board in self.cluster.boards.values():
                board.subscribe_health(self._on_board_health)

    # -- simulator adoption --------------------------------------------------

    def bind_simulator(self, simulator) -> None:
        self._simulator = simulator
        self.system.bind_simulator(simulator)
        if self.autoscaler is not None:
            self.autoscaler.bind_simulator(simulator)
        # Probes queued while unbound become first-class DES events now —
        # without this hand-off a probe scheduled before binding would
        # only ever fire piggybacked on an unrelated admit/try_start call.
        if self._due:
            now = simulator.queue.now
            for due_s, breaker in self._due:
                simulator.schedule_external(
                    max(0.0, due_s - now),
                    lambda fire_now, b=breaker: self._probe(b, fire_now),
                )
            self._due = []

    def attach_autoscaler(self, autoscaler) -> None:
        """Adopt an :class:`~repro.autoscale.Autoscaler` (it calls this
        from its constructor); forwards the simulator if already bound."""
        self.autoscaler = autoscaler
        if self._simulator is not None:
            autoscaler.bind_simulator(self._simulator)

    def queue_depth(self, model_key: str | None = None) -> int:
        """Live queued (admitted, not started) requests — one model's, or
        every model's.  The autoscaler's primary pressure signal."""
        if model_key is not None:
            return self._depth.get(model_key, 0)
        return sum(self._depth.values())

    def queue_depth_by_tenant(self) -> dict:
        """Live queued requests per tenant (zero entries elided)."""
        return {
            tenant: depth
            for tenant, depth in sorted(self._tenant_depth.items())
            if depth > 0
        }

    def _bump_tenant(self, task: Task, delta: int) -> None:
        tenant = getattr(task, "tenant", "")
        self._tenant_depth[tenant] = self._tenant_depth.get(tenant, 0) + delta

    def _now(self) -> float:
        if self._simulator is not None:
            return self._simulator.queue.now
        return self._clock

    # -- record bookkeeping --------------------------------------------------

    def _record(self, task: Task, now: float) -> RequestRecord:
        record = self._records.get(task.task_id)
        if record is None:
            deadline = getattr(task, "deadline_s", 0.0)
            if deadline <= 0.0:
                deadline = task.arrival_s + self.params.default_deadline_s
                if isinstance(task, Request):
                    task.deadline_s = deadline
            record = RequestRecord(task=task, deadline_s=deadline)
            self._records[task.task_id] = record
        return record

    def record_for(self, task_id: int) -> RequestRecord | None:
        """The frontend's record for one task (tests and benches read it)."""
        return self._records.get(task_id)

    def _bucket(self, model_key: str) -> TokenBucket | None:
        if self.params.admission_rate_per_s <= 0:
            return None
        bucket = self._buckets.get(model_key)
        if bucket is None:
            bucket = TokenBucket(
                self.params.admission_rate_per_s, self.params.admission_burst
            )
            self._buckets[model_key] = bucket
        return bucket

    # -- Scheduler protocol: admission ---------------------------------------

    def admit(self, task: Task, now: float) -> bool:
        """Arrival-time admission: bounded queue + token bucket."""
        self._clock = now
        self._pump_breakers(now)
        record = self._record(task, now)
        self.stats.offered += 1
        model = task.model_key
        if self.autoscaler is not None:
            self.autoscaler.observe_arrival(model, now)
        bucket = self._bucket(model)
        if bucket is not None and not bucket.try_take(now):
            return self._shed_at_door(record)
        if self._depth.get(model, 0) >= self.params.max_queue_depth:
            if self.params.shedding is SheddingPolicy.HEAD_DROP:
                self._condemn_oldest(model)
            else:
                return self._shed_at_door(record)
        self._queued.setdefault(model, deque()).append(record)
        self._depth[model] = self._depth.get(model, 0) + 1
        self._bump_tenant(task, +1)
        self.stats.admitted += 1
        PROFILER.incr("serving.admitted")
        if self._simulator is not None:
            # Deadline wake: expiry becomes an exact DES event (the wake
            # itself is a no-op — the re-dispatch it triggers runs the
            # should_drop sweep at precisely the deadline instant).
            self._simulator.schedule_external(
                max(0.0, record.deadline_s - now), lambda _now: None
            )
        return True

    def _shed_at_door(self, record: RequestRecord) -> bool:
        record.outcome = RequestOutcome.SHED
        self.stats.shed += 1
        self.controller.stats.requests_shed += 1
        PROFILER.incr("serving.shed")
        return False

    def _condemn_oldest(self, model_key: str) -> None:
        """Head drop: mark the oldest still-pending queued request of this
        model shed; the dispatcher drops it at its next pass."""
        for record in self._queued.get(model_key, ()):
            if record.outcome is RequestOutcome.PENDING and not record.started:
                record.outcome = RequestOutcome.SHED
                self.stats.shed += 1
                self.controller.stats.requests_shed += 1
                self._depth[model_key] -= 1
                self._bump_tenant(record.task, -1)
                PROFILER.incr("serving.shed")
                return

    # -- Scheduler protocol: dequeue-time drops ------------------------------

    def should_drop(self, task: Task, now: float) -> bool:
        """Dequeue gate: condemned or expired requests leave the queue
        here, before any placement is attempted — they never hold a board."""
        self._clock = now
        record = self._records.get(task.task_id)
        if record is None:
            return False
        if record.outcome is RequestOutcome.PENDING and record.deadline_missed(now):
            record.outcome = RequestOutcome.EXPIRED
            self.stats.expired += 1
            self.controller.stats.requests_expired += 1
            self._depth[task.model_key] -= 1
            self._bump_tenant(task, -1)
            PROFILER.incr("serving.expired")
        if record.outcome is RequestOutcome.PENDING or record.started:
            return False
        queue = self._queued.get(task.model_key)
        if queue is not None:
            try:
                queue.remove(record)
            except ValueError:
                pass
        return True

    # -- Scheduler protocol: placement ---------------------------------------

    def try_start(self, task: Task, now: float) -> float | None:
        self._clock = now
        self._pump_breakers(now)
        record = self._record(task, now)
        if record.outcome is not RequestOutcome.PENDING:
            return None  # condemned; the dispatcher drops it next pass
        if now < record.next_attempt_s:
            return None  # retry backoff gate
        if self._all_breakers_open(task.model_key):
            self.stats.breaker_rejections += 1
            self.controller.stats.breaker_rejections += 1
            PROFILER.incr("serving.breaker_rejections")
            return None
        failures_before = self.controller.stats.placement_failures
        service = self.system.try_start(task, now)
        if service is None:
            if self.controller.stats.placement_failures > failures_before:
                self._placement_failed(record, now)
            return None
        # Started: leave the queue, remember the boards for breaker
        # attribution, and let brownout react to the new utilisation.
        record.started = True
        self._depth[task.model_key] -= 1
        self._bump_tenant(task, -1)
        queue = self._queued.get(task.model_key)
        if queue is not None:
            try:
                queue.remove(record)
            except ValueError:
                pass
        deployment = self.system.running_deployment(task.task_id)
        if deployment is not None:
            record.board_ids = list(deployment.member_fpgas)
        self.stats.started += 1
        self._update_brownout(now)
        return service

    def _placement_failed(self, record: RequestRecord, now: float) -> None:
        record.attempts += 1
        if record.attempts > self.params.retry_budget:
            record.outcome = RequestOutcome.ABANDONED
            self.stats.abandoned += 1
            self.controller.stats.requests_abandoned += 1
            PROFILER.incr("serving.abandoned")
            return
        self.stats.placement_retries += 1
        PROFILER.incr("serving.retries")
        jitter = self.params.retry_jitter
        delay = self.params.backoff_s(record.attempts) * (
            1.0 - jitter + 2.0 * jitter * self._rng.random()
        )
        record.next_attempt_s = now + delay
        if self._simulator is not None:
            # Wake the dispatcher when the backoff expires.
            self._simulator.schedule_external(delay, lambda _now: None)

    def requeue(self, task: Task, now: float) -> None:
        """Return a started request to its queue (tenancy preemption): the
        start bookkeeping is reversed exactly, so depth accounting and the
        deadline/drop gates govern the re-run like any queued request."""
        record = self._records.get(task.task_id)
        if record is None or not record.started:
            return
        record.started = False
        record.board_ids = []
        self._queued.setdefault(task.model_key, deque()).append(record)
        self._depth[task.model_key] = self._depth.get(task.model_key, 0) + 1
        self._bump_tenant(task, +1)
        PROFILER.incr("serving.requeued")

    # -- Scheduler protocol: completion --------------------------------------

    def on_finish(self, task: Task, now: float) -> None:
        self._clock = now
        self.system.on_finish(task, now)
        record = self._records.get(task.task_id)
        if record is None:
            return
        record.outcome = RequestOutcome.COMPLETED
        on_time = now <= record.deadline_s
        self.stats.completed += 1
        self.stats.latencies_s.append(now - task.arrival_s)
        if on_time:
            self.stats.slo_hits += 1
        if self.params.breaker_enabled:
            for fpga_id in record.board_ids:
                breaker = self._breakers.get(fpga_id)
                if breaker is None:
                    continue
                if on_time:
                    if breaker.record_success(now):
                        self.stats.breaker_closes += 1
                elif breaker.record_slow(now):
                    self._drain(breaker, now)
        self._update_brownout(now)

    # -- Scheduler protocol: hints and passthroughs --------------------------

    def has_fast_path(self, task: Task) -> bool:
        return self.system.has_fast_path(task)

    def observe_queue(self, pending_by_model: dict) -> None:
        self.system.observe_queue(pending_by_model)

    def retry_hint(self, task: Task, now: float) -> float:
        """Conservative per-model gate: the earliest moment *any* queued
        request of this model could act — its backoff expiry when backing
        off, the inner scheduler's hint otherwise.  Condemned requests
        make the model immediately actionable (the drop is progress)."""
        inner = self.system.retry_hint(task, now)
        queue = self._queued.get(task.model_key)
        if not queue:
            return inner
        hint = math.inf
        for record in queue:
            if record.outcome is not RequestOutcome.PENDING:
                return now
            gate = (
                record.next_attempt_s
                if record.next_attempt_s > now
                else inner
            )
            hint = min(hint, gate)
        return hint

    def has_pending_timers(self) -> bool:
        """True while any queued request holds a finite live time gate
        (deadline or backoff) — tells the simulator an idle cluster with a
        waiting queue is not a deadlock."""
        now = self._now()
        for queue in self._queued.values():
            for record in queue:
                if record.outcome is not RequestOutcome.PENDING:
                    return True  # droppable: the next pass makes progress
                if math.isfinite(record.deadline_s):
                    return True
                if record.next_attempt_s > now:
                    return True
        return False

    # -- circuit breakers ----------------------------------------------------

    def breaker(self, fpga_id: str) -> CircuitBreaker:
        return self._breakers[fpga_id]

    def _on_board_health(self, board, old_health) -> None:
        if board.health is not BoardHealth.FAILED:
            return
        breaker = self._breakers.get(board.fpga_id)
        if breaker is not None and breaker.record_failure(self._now()):
            self._drain(breaker, self._now())

    def _drain(self, breaker: CircuitBreaker, now: float) -> None:
        """An opened breaker drains its board via the health machinery and
        schedules the half-open probe."""
        self.stats.breaker_opens += 1
        PROFILER.incr("serving.breaker_opens")
        board = self.cluster.board(breaker.fpga_id)
        if board.health is BoardHealth.HEALTHY:
            self.controller.on_board_degraded(board, now)
            breaker.draining = True
        self._schedule_half_open(breaker, now)

    def _schedule_half_open(self, breaker: CircuitBreaker, now: float) -> None:
        delay = breaker.cooldown_s()
        if self._simulator is not None:
            self._simulator.schedule_external(
                delay, lambda fire_now, b=breaker: self._probe(b, fire_now)
            )
        else:
            self._due.append((now + delay, breaker))

    def _pump_breakers(self, now: float) -> None:
        """Synchronous mode only: fire half-open probes that have come due
        (with a DES bound they are first-class external events instead)."""
        if self._simulator is not None or not self._due:
            return
        due = [entry for entry in self._due if entry[0] <= now]
        self._due = [entry for entry in self._due if entry[0] > now]
        for _, breaker in due:
            self._probe(breaker, now)

    def _probe(self, breaker: CircuitBreaker, now: float) -> None:
        board = self.cluster.board(breaker.fpga_id)
        if board.health is BoardHealth.FAILED:
            # Still hard-down (fault injector owns it): probe again later.
            self._schedule_half_open(breaker, now)
            return
        if breaker.state is not BreakerState.OPEN:
            return
        breaker.half_open()
        self.stats.breaker_half_opens += 1
        PROFILER.incr("serving.breaker_half_opens")
        if breaker.draining and board.health is BoardHealth.DEGRADED:
            self.controller.on_board_repair(board, now)
        breaker.draining = False

    def _feasible_board_types(self, model_key: str) -> list:
        types = self._feasible_types.get(model_key)
        if types is None:
            types = self.controller.catalog.compatible_types(model_key)
            self._feasible_types[model_key] = types
        return types

    def _all_breakers_open(self, model_key: str) -> bool:
        """Fast-reject when every board the model could land on is held
        open (don't burn a placement search the breakers predetermine)."""
        if not self.params.breaker_enabled:
            return False
        saw_candidate_board = False
        for device_type in self._feasible_board_types(model_key):
            for board in self._boards_by_type.get(device_type, ()):
                saw_candidate_board = True
                breaker = self._breakers[board.fpga_id]
                if (
                    breaker.state is not BreakerState.OPEN
                    and board.health is not BoardHealth.FAILED
                ):
                    return False
        return saw_candidate_board

    # -- brownout ------------------------------------------------------------

    def utilisation(self) -> float:
        """Occupied fraction of every virtual block in the cluster."""
        if not self._total_blocks:
            return 0.0
        return 1.0 - self._free_blocks / self._total_blocks

    def _on_occupancy(self, board, old_free: int) -> None:
        self._free_blocks += board.free_blocks - old_free

    def _update_brownout(self, now: float) -> None:
        if not self.params.brownout_enabled:
            return
        util = self.utilisation()
        if not self.brownout and util >= self.params.brownout_high_watermark:
            self.brownout = True
            self.controller.prefer_narrow = True
            self.stats.brownout_entries += 1
            PROFILER.incr("serving.brownout_entries")
            self._shrink_hot_models(now)
        elif self.brownout and util <= self.params.brownout_low_watermark:
            self.brownout = False
            self.controller.prefer_narrow = False
            self.stats.brownout_exits += 1

    def _shrink_hot_models(self, now: float) -> None:
        """Switch hot models' idle deployments to the narrowest catalog
        plan (cross-width, so a cold restart — the recovery manager's
        scale-down fallback applied proactively)."""
        controller = self.controller
        for model_key in sorted(self._queued):
            if self._depth.get(model_key, 0) < self.params.brownout_hot_depth:
                continue
            plans = controller.catalog.entry_by_key(model_key).sorted_plans()
            if len(plans) < 2:
                continue
            narrow = min(plans, key=controller.plan_footprint)
            deployment = controller.find_idle_deployment(model_key)
            if deployment is None:
                continue
            if (
                controller.plan_footprint(deployment.plan)
                <= controller.plan_footprint(narrow)
            ):
                continue
            self._switch_plan(deployment, narrow, now)

    def _switch_plan(self, deployment, narrow_plan, now: float) -> None:
        controller = self.controller
        original_plan = deployment.plan
        controller.discard(deployment)
        placed = controller.place_plan(narrow_plan, now)
        if placed is None:
            # Could not shrink after all: put the original width back in
            # the space just freed (best effort; on a miss the model simply
            # re-deploys on demand).
            placed = controller.place_plan(original_plan, now)
            if placed is None:
                return
        else:
            self.stats.brownout_switches += 1
            controller.stats.brownout_switches += 1
            PROFILER.incr("serving.brownout_switches")
        new_deployment, reconfig = placed
        if self._simulator is None:
            return  # synchronous mode: usable immediately
        new_deployment.state = DeploymentState.RECOVERING

        def complete(fire_now, d=new_deployment):
            if d.deployment_id not in controller.deployments:
                return  # torn down while reconfiguring
            if d.pending_recovery:
                if controller.recovery_enabled:
                    controller.recovery.recover(d, fire_now)
                else:
                    controller.discard(d)
                return
            d.state = DeploymentState.IDLE
            d.last_used_s = fire_now
            d.checkpoint_origin_s = fire_now

        self._simulator.schedule_external(reconfig, complete)
