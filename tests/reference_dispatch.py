"""The flat-list DES dispatcher, kept as a co-execution reference.

:class:`ReferenceSimulator` is :class:`~repro.cluster.simulator.ClusterSimulator`
with the dispatcher it had before pending tasks moved into per-(model,
tenant) FIFO queues: one flat ``_pending`` list in arrival order, removals
tombstoned and compacted, the whole backlog re-sorted on every pass, and a
per-task watermark skip.  It is deliberately left as it was, so that
``tests/test_dispatch_coexecution.py`` can run both dispatchers on the same
inputs and demand identical scheduler calls and schedules.  The one edit
is in the ``dispatch_key`` sort: that hook now returns a per-queue rank, so
the reference appends the ``(arrival_s, task_id)`` tiebreak that the
tenancy key used to carry.

Known difference (fixed in the production dispatcher): a task that
``abort_running`` requeues returns to its original scan slot only while its
tombstone is uncompacted, and to the tail otherwise.
"""

from __future__ import annotations

from repro.cluster.simulator import ClusterSimulator, Task
from repro.errors import SimulationError
from repro.perf.profiling import PROFILER


class ReferenceSimulator(ClusterSimulator):
    """ClusterSimulator driven by the flat-list dispatcher."""

    #: Compact the pending list once this many tombstones accumulate (and
    #: they outnumber the live entries) — keeps removal O(1) amortized.
    COMPACT_THRESHOLD = 64

    def __init__(self, scheduler, system_name: str = "system"):
        self._pending: list[Task] = []
        #: Task ids removed from the queue but not yet compacted out of
        #: ``_pending``.
        self._pending_dead: set[int] = set()
        super().__init__(scheduler, system_name)

    def _remove_pending(self, task: Task) -> None:
        """Tombstone one queued task (O(1) amortized; order preserved)."""
        self._pending_dead.add(task.task_id)
        dead = len(self._pending_dead)
        if dead >= self.COMPACT_THRESHOLD and dead * 2 > len(self._pending):
            self._pending = [
                t for t in self._pending if t.task_id not in self._pending_dead
            ]
            self._pending_dead.clear()

    def _pending_tasks(self) -> list:
        """Live queued tasks in arrival-scan order (tombstones elided)."""
        if not self._pending_dead:
            return list(self._pending)
        return [t for t in self._pending if t.task_id not in self._pending_dead]

    @property
    def pending_count(self) -> int:
        return len(self._pending) - len(self._pending_dead)

    def abort_running(self, task: Task) -> None:
        """Abort a *running* task and requeue it (preemption).

        The task's already-scheduled finish event becomes stale (epoch
        guard) and the task re-enters the pending queue immediately —
        at its original scan position when its tombstone is still live,
        at the tail otherwise.  The caller (the tenancy scheduler) is
        responsible for the board-side teardown and for crediting any
        checkpointed progress on the next start.
        """
        if task.start_s < 0 or task.finish_s >= 0:
            raise SimulationError(
                f"abort_running: task {task.task_id} is not running"
            )
        self._run_epoch[task.task_id] = self._run_epoch.get(task.task_id, 0) + 1
        self._running_count -= 1
        task.start_s = -1.0
        if task.task_id in self._pending_dead:
            # Not yet compacted: resurrect the original queue entry so the
            # per-model FIFO scan order is preserved exactly.
            self._pending_dead.discard(task.task_id)
        else:
            self._pending.append(task)
        PROFILER.incr("simulator.aborted_runs")
        self._resource_version += 1
        self._dispatch()

    def _arrive(self, task: Task) -> None:
        admit = getattr(self.scheduler, "admit", None)
        if admit is not None and not admit(task, self.queue.now):
            # Shed at the door: never queued, never dispatched.  Admission
            # state (queue depths, token buckets) is the scheduler's.
            self._result.dropped.append(task)
            PROFILER.incr("simulator.admission_sheds")
            return
        self._pending.append(task)
        # A new arrival changes queue pressure, which admission/expansion
        # policies observe — previously blocked models must be re-attempted.
        self._resource_version += 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Start every pending task the scheduler can place right now.

        Head-of-line blocking is intentional *per model class only*: we scan
        the whole queue so a small task can slip past a blocked large one
        (all three evaluated systems admit out-of-order placement), but
        tasks of the same model stay FIFO because the scan preserves order.

        Tasks whose model is below its watermark — failed at this resource
        version, clock still short of the scheduler's retry hint — are
        skipped without consulting the scheduler: within one version the
        scheduler's answer for that model cannot have changed, and same-model
        tasks later in the scan hold strictly weaker time gates.
        """
        if self._dispatching:
            return  # avoid re-entrant scans from nested on_finish calls
        self._dispatching = True
        fast_path = getattr(self.scheduler, "has_fast_path", None)
        dispatch_key = getattr(self.scheduler, "dispatch_key", None)
        observe = getattr(self.scheduler, "observe_queue", None)
        retry_hint = getattr(self.scheduler, "retry_hint", None)
        should_drop = getattr(self.scheduler, "should_drop", None)
        try:
            progress = True
            while progress:
                progress = False
                if observe is not None:
                    # Give the scheduler a view of queue pressure per model
                    # (admission/expansion decisions need it).
                    counts: dict = {}
                    for pending_task in self._pending:
                        if pending_task.task_id in self._pending_dead:
                            continue
                        counts[pending_task.model_key] = (
                            counts.get(pending_task.model_key, 0) + 1
                        )
                    observe(counts)
                scan = self._pending_tasks()
                if dispatch_key is not None:
                    # The tenancy layer owns dispatch order outright:
                    # priority classes first, weighted fair shares within
                    # one class.  Key purity over a pass mirrors the
                    # has_fast_path contract below.
                    # (The hook now ranks a queue; the simulator appends
                    # the FIFO tiebreak the parent's key carried itself.)
                    scan.sort(
                        key=lambda t: (*dispatch_key(t), t.arrival_s, t.task_id)
                    )
                elif fast_path is not None:
                    # Locality pass: tasks whose model is already resident
                    # start first, so a cold task never evicts a hot model
                    # out from under its queued work.  The answer is a pure
                    # function of the model key and no state changes while
                    # the sort runs, so it is resolved once per model per
                    # pass — a deep backlog would otherwise pay a resident-
                    # deployment scan per queued task per pass.
                    fast_by_model: dict = {}
                    for pending_task in scan:
                        if pending_task.model_key not in fast_by_model:
                            fast_by_model[pending_task.model_key] = bool(
                                fast_path(pending_task)
                            )
                    scan.sort(
                        key=lambda t: (
                            not fast_by_model[t.model_key], t.arrival_s
                        )
                    )
                now = self.queue.now
                for task in scan:
                    if should_drop is not None and should_drop(task, now):
                        # Dropped at dequeue (deadline expiry, exhausted
                        # retry budget): the task never occupies a board.
                        # Checked before the watermark so an expiry is
                        # never delayed by a blocked model's time gate.
                        self._remove_pending(task)
                        self._result.dropped.append(task)
                        PROFILER.incr("simulator.dequeue_drops")
                        self._resource_version += 1
                        progress = True
                        self._idle_retries = 0
                        continue
                    watermark = self._blocked.get(task.model_key)
                    if (
                        watermark is not None
                        and watermark[0] == self._resource_version
                        and now < watermark[1]
                    ):
                        PROFILER.incr("simulator.watermark_skips")
                        continue
                    service = self.scheduler.try_start(task, now)
                    PROFILER.incr("simulator.try_start_attempts")
                    if service is None:
                        hint = (
                            retry_hint(task, now)
                            if retry_hint is not None
                            else now  # no hint: retry every pass (exhaustive)
                        )
                        self._blocked[task.model_key] = (
                            self._resource_version,
                            hint,
                        )
                        continue
                    if service < 0:
                        raise SimulationError(
                            f"scheduler returned negative service time {service}"
                        )
                    self._remove_pending(task)
                    task.start_s = now
                    self._running_count += 1
                    self._blocked.pop(task.model_key, None)
                    # Starting a task reshapes resources (allocation, possible
                    # evictions, queue depth): every watermark is stale.
                    self._resource_version += 1
                    self.queue.schedule_in(
                        service,
                        self._finish,
                        task,
                        self._run_epoch.get(task.task_id, 0),
                    )
                    progress = True
                    self._idle_retries = 0
        finally:
            self._dispatching = False
        if self.pending_count and not self._retry_scheduled:
            # Time-gated policies (eviction staleness) need the clock to
            # advance before a blocked task can be placed; poll.
            if self._running_count == 0 and self._external_inflight == 0:
                timers = getattr(self.scheduler, "has_pending_timers", None)
                waiting = timers is not None and timers()
                if not waiting:
                    self._idle_retries += 1
                    if self._idle_retries > self.MAX_IDLE_RETRIES:
                        left = self._pending_tasks()
                        stuck = sorted({t.model_key for t in left})
                        raise SimulationError(
                            f"{self.system_name}: {len(left)} tasks "
                            f"stuck with an idle cluster (models: {stuck})"
                        )
            self._retry_scheduled = True
            self.queue.schedule_in(self.RETRY_INTERVAL_S, self._retry)

    def _stuck(self, what: str) -> SimulationError:
        stuck = sorted({t.model_key for t in self._pending_tasks()})
        return SimulationError(
            f"{self.system_name}: {self.pending_count} tasks {what} "
            f"(models: {stuck})"
        )
