"""Discrete-event cluster simulator.

Drives the Fig. 12 system evaluation: a stream of inference tasks arrives,
a *scheduler* (one of the three systems under comparison — proposed,
restricted-policy, AS-ISA baseline) places each task on the cluster, tasks
occupy resources for their service time, and aggregate throughput is
measured as completed tasks per second of makespan.

The simulator is system-agnostic: schedulers implement the small
:class:`Scheduler` protocol.  Pending tasks queue FIFO per ``(model_key,
tenant)`` in ``(arrival_s, task_id)`` order, so results are deterministic.

Dispatch is incremental: when a model's task fails to start, the simulator
records a *watermark* — the resource-state version it failed under plus the
scheduler's earliest time-gate hint (:meth:`Scheduler.retry_hint`) — and
parks that model's queues until resources change (an arrival, start, drop or
finish bumps the version) or the clock reaches the hint.  A skipped attempt
is one the scheduler would provably have declined, so schedules (and
therefore experiment outputs) are identical to exhaustive re-scanning while
the number of placement attempts drops by orders of magnitude.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Protocol

from ..errors import SimulationError
from ..perf.profiling import PROFILER
from .events import EventQueue

#: Order within one pending queue, and between queue heads of equal rank.
_fifo_key = attrgetter("arrival_s", "task_id")


@dataclass
class Task:
    """One inference task.

    ``model_key`` identifies the benchmark model (e.g. ``"gru-h1536-t375"``);
    the scheduler resolves it against its catalog.
    """

    task_id: int
    model_key: str
    arrival_s: float
    size_class: str = ""
    start_s: float = -1.0
    finish_s: float = -1.0
    #: Optional functional-execution input stream ``(timesteps, input_dim)``.
    #: Consumed by the request-coalescing executor
    #: (:mod:`repro.runtime.batching`); ``None`` means a deterministic
    #: per-task stream is generated on demand.  Ignored by pure-timing runs.
    payload: object = None
    #: Final hidden state once a batch executor has run this task.
    output: object = None
    #: Owning tenant (multi-tenancy layer); ``""`` means untenanted and
    #: preserves the single-tenant paths bit-identically.
    tenant: str = ""

    @property
    def latency_s(self) -> float:
        """Queueing + service latency (valid after completion)."""
        return self.finish_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s


class Scheduler(Protocol):
    """What a system-under-test must implement."""

    def try_start(self, task: Task, now: float) -> float | None:
        """Attempt to start ``task``; returns its service time in seconds,
        or ``None`` when resources are currently unavailable."""

    def on_finish(self, task: Task, now: float) -> None:
        """Release whatever ``try_start`` reserved."""

    def has_fast_path(self, task: Task) -> bool:
        """Optional: True when ``task`` can start without reconfiguration
        (an idle deployment of its model is resident).  The simulator serves
        fast-path queues first to preserve locality.  Must depend only on
        ``task.model_key`` and scheduler state — it is asked once per queue
        per pass, on the queue's head, and ranks the whole queue."""

    def retry_hint(self, task: Task, now: float) -> float:
        """Optional: after ``try_start`` declined ``task``, the earliest
        future time a retry could succeed *without* any resource release in
        between (``math.inf`` when only a release can help).  Hints must be
        conservative (never later than the true unblock time); the simulator
        uses them to skip provably fruitless attempts."""

    def admit(self, task: Task, now: float) -> bool:
        """Optional (serving layer): called once at arrival, before the
        task is queued.  Returning ``False`` sheds the task — it is recorded
        in :attr:`SimulationResult.dropped` and never dispatched."""

    def should_drop(self, task: Task, now: float) -> bool:
        """Optional (serving layer): called at dequeue, before placement is
        attempted.  Returning ``True`` drops the task (deadline expiry,
        exhausted retry budget) without it ever occupying a board."""

    def has_pending_timers(self) -> bool:
        """Optional (serving layer): ``True`` while any queued task holds a
        live time gate (deadline, retry backoff) that will eventually fire.
        Suppresses the idle-cluster deadlock detector, which otherwise has
        no way to tell a waiting queue from a wedged one."""

    def dispatch_key(self, task: Task) -> tuple:
        """Optional (tenancy layer): the rank of ``task``'s queue for one
        scan pass, asked once per queue on its head, so it may depend only on
        ``(model_key, tenant)`` and scheduler state.  It *replaces* the
        :meth:`has_fast_path` rank (priority classes, weighted fair shares);
        the simulator breaks ties by ``(arrival_s, task_id)``."""


@dataclass
class SimulationResult:
    """Aggregate outcome of one run."""

    system: str
    completed: list = field(default_factory=list)
    #: Tasks shed at admission or dropped at dequeue (serving layer only;
    #: empty for schedulers without admission control).
    dropped: list = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def throughput(self) -> float:
        """Completed tasks per second (the Fig. 12 metric)."""
        if self.makespan_s <= 0:
            return 0.0
        return len(self.completed) / self.makespan_s

    def mean_latency(self) -> float:
        if not self.completed:
            return 0.0
        return sum(t.latency_s for t in self.completed) / len(self.completed)

    def per_class_counts(self) -> dict:
        counts: dict[str, int] = {}
        for task in self.completed:
            counts[task.size_class] = counts.get(task.size_class, 0) + 1
        return counts


class ClusterSimulator:
    """Runs one task stream against one scheduler."""

    #: Re-dispatch interval while tasks wait on time-gated policies
    #: (eviction staleness windows).
    RETRY_INTERVAL_S = 0.005
    #: Consecutive fruitless retries with nothing running => deadlock.
    MAX_IDLE_RETRIES = 64

    def __init__(self, scheduler: Scheduler, system_name: str = "system"):
        self.scheduler = scheduler
        self.system_name = system_name
        self.queue = EventQueue()
        #: (model_key, tenant) -> its pending tasks in ``_fifo_key`` order.
        self._queues: dict[tuple[str, str], list[Task]] = {}
        #: Tasks preempted during a pass; a pass scans a snapshot, so they
        #: rejoin their queues when the next pass starts.
        self._requeued: list[Task] = []
        self._result = SimulationResult(system=system_name)
        self._dispatching = False
        self._running_count = 0
        self._retry_scheduled = False
        self._idle_retries = 0
        #: Monotonic version of cluster resource state; bumped whenever an
        #: arrival, start or finish could change a try_start outcome.
        self._resource_version = 0
        #: model key -> (version it failed under, earliest useful retry time).
        self._blocked: dict[str, tuple[int, float]] = {}
        #: Scheduler-driven events in flight (live migrations): they hold
        #: resources and will bump the version when they complete, so an
        #: idle queue is not a deadlock while any are outstanding.
        self._external_inflight = 0
        #: task_id -> run epoch.  A preemption (:meth:`abort_running`) bumps
        #: the epoch so the already-scheduled finish event for the aborted
        #: run is recognised as stale and ignored; the requeued task's next
        #: start schedules a finish carrying the new epoch.
        self._run_epoch: dict[int, int] = {}
        bind = getattr(scheduler, "bind_simulator", None)
        if bind is not None:
            bind(self)

    # -- pending queues ------------------------------------------------------------

    def _enqueue(self, task: Task) -> None:
        queue = self._queues.setdefault((task.model_key, task.tenant), [])
        insort(queue, task, key=_fifo_key)

    @property
    def pending_count(self) -> int:
        return sum(map(len, self._queues.values())) + len(self._requeued)

    def _stuck(self, what: str) -> SimulationError:
        models = sorted({model for model, _tenant in self._queues})
        return SimulationError(
            f"{self.system_name}: {self.pending_count} tasks {what} "
            f"(models: {models})"
        )

    # -- scheduler-driven events (live migrations) -------------------------------

    def schedule_external(self, delay_s: float, callback) -> None:
        """Schedule a first-class non-task event ``callback(now)``.

        The migration engine uses this to hold source and destination
        blocks for the duration of a move: resources change at *begin*
        (immediately, in the scheduler's own call) and again at *finish*
        (this event), so migrations compete honestly with serving traffic.
        Completion invalidates every watermark and re-dispatches.
        """
        if delay_s < 0:
            raise SimulationError(f"negative external-event delay {delay_s}")
        self._external_inflight += 1
        self.queue.schedule_in(delay_s, self._external_fire, callback)

    def _external_fire(self, callback) -> None:
        self._external_inflight -= 1
        callback(self.queue.now)
        PROFILER.incr("simulator.external_events")
        self._resource_version += 1
        self._dispatch()

    # -- preemption (tenancy layer) ----------------------------------------------

    def abort_running(self, task: Task) -> None:
        """Abort a *running* task and requeue it (preemption).

        The task's already-scheduled finish event becomes stale (epoch
        guard) and the task rejoins its queue at its ``(arrival_s,
        task_id)`` position when the next dispatch pass starts.  The caller
        (the tenancy scheduler) is responsible for the board-side teardown
        and for crediting any checkpointed progress on the next start.
        """
        if task.start_s < 0 or task.finish_s >= 0:
            raise SimulationError(
                f"abort_running: task {task.task_id} is not running"
            )
        self._run_epoch[task.task_id] = self._run_epoch.get(task.task_id, 0) + 1
        self._running_count -= 1
        task.start_s = -1.0
        self._requeued.append(task)
        PROFILER.incr("simulator.aborted_runs")
        self._resource_version += 1
        self._dispatch()

    # -- event handlers ----------------------------------------------------------

    def _arrive(self, task: Task) -> None:
        admit = getattr(self.scheduler, "admit", None)
        if admit is not None and not admit(task, self.queue.now):
            # Shed at the door: never queued, never dispatched.  Admission
            # state (queue depths, token buckets) is the scheduler's.
            self._result.dropped.append(task)
            PROFILER.incr("simulator.admission_sheds")
            return
        self._enqueue(task)
        # A new arrival changes queue pressure, which admission/expansion
        # policies observe — previously blocked models must be re-attempted.
        self._resource_version += 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Start every pending task the scheduler can place right now.

        Head-of-line blocking is intentional *per model class only*: a pass
        visits every queue so a small task can slip past a blocked large one
        (all three evaluated systems admit out-of-order placement), but each
        queue stays FIFO.  Each queue is ranked once per pass, on its head,
        and a heap merges the heads in ``(rank, arrival_s, task_id)`` order.

        A queue whose model is below its watermark — failed at this resource
        version, clock still short of the scheduler's retry hint — is parked
        without consulting the scheduler: within one version the scheduler's
        answer for that model cannot have changed, and same-model tasks
        later in the scan hold strictly weaker time gates.  ``should_drop``
        still sees every task, since it runs before the watermark check.
        """
        if self._dispatching:
            return  # avoid re-entrant scans from nested on_finish calls
        self._dispatching = True
        rank_of = getattr(self.scheduler, "dispatch_key", None)
        fast_path = getattr(self.scheduler, "has_fast_path", None)
        if rank_of is None and fast_path is not None:
            # Locality: resident models' queues go first, so a cold task
            # never evicts a hot model out from under its queued work.
            def rank_of(head):
                return (not fast_path(head),)
        observe = getattr(self.scheduler, "observe_queue", None)
        should_drop = getattr(self.scheduler, "should_drop", None)
        queues = self._queues

        def cursor(rank, queue, index, key):
            head = queue[index]
            return (rank, head.arrival_s, head.task_id, index, key)

        try:
            progress = True
            while progress:
                progress = False
                for task in self._requeued:
                    self._enqueue(task)
                self._requeued.clear()
                if observe is not None:
                    # Give the scheduler a view of queue pressure per model
                    # (admission/expansion decisions need it).
                    counts: dict = {}
                    for (model, _tenant), queue in queues.items():
                        counts[model] = counts.get(model, 0) + len(queue)
                    observe(counts)
                heap = [
                    cursor(rank_of(queue[0]) if rank_of else (), queue, 0, key)
                    for key, queue in queues.items()
                ]
                heapify(heap)
                parked: list = []
                now = self.queue.now
                while heap:
                    rank, arrival_s, task_id, index, key = heappop(heap)
                    queue = queues[key]
                    task = queue[index]
                    version = self._resource_version
                    watermark = self._blocked.get(task.model_key)
                    if should_drop is not None and should_drop(task, now):
                        # Dropped at dequeue (deadline expiry, exhausted
                        # retry budget): the task never occupies a board.
                        del queue[index]
                        self._result.dropped.append(task)
                        PROFILER.incr("simulator.dequeue_drops")
                        self._resource_version += 1
                        progress = True
                        self._idle_retries = 0
                    elif (
                        watermark is not None
                        and watermark[0] == version
                        and now < watermark[1]
                    ):
                        PROFILER.incr("simulator.watermark_skips")
                        if should_drop is None:
                            parked.append((rank, index, key))
                            continue
                        index += 1
                    elif self._start(task, now):
                        del queue[index]
                        progress = True
                    else:
                        index += 1
                    if self._resource_version != version:
                        # A start, a drop or a preemption inside try_start:
                        # parked queues resume at their first task past here.
                        for parked_rank, parked_index, parked_key in parked:
                            parked_queue = queues[parked_key]
                            if parked_rank == rank:
                                parked_index = bisect_right(
                                    parked_queue, (arrival_s, task_id),
                                    parked_index, key=_fifo_key,
                                )
                            if parked_rank >= rank and parked_index < len(parked_queue):
                                heappush(heap, cursor(
                                    parked_rank, parked_queue, parked_index, parked_key
                                ))
                        parked.clear()
                    if index < len(queue):
                        heappush(heap, cursor(rank, queue, index, key))
                    elif not queue:
                        del queues[key]
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
                        raise self._stuck("stuck with an idle cluster")
            self._retry_scheduled = True
            self.queue.schedule_in(self.RETRY_INTERVAL_S, self._retry)

    def _start(self, task: Task, now: float) -> bool:
        """One placement attempt; a decline sets the model's watermark."""
        service = self.scheduler.try_start(task, now)
        PROFILER.incr("simulator.try_start_attempts")
        if service is None:
            retry_hint = getattr(self.scheduler, "retry_hint", None)
            # No hint: retry every pass (exhaustive).
            hint = now if retry_hint is None else retry_hint(task, now)
            self._blocked[task.model_key] = (self._resource_version, hint)
            return False
        if service < 0:
            raise SimulationError(f"scheduler returned negative service time {service}")
        task.start_s = now
        self._running_count += 1
        self._blocked.pop(task.model_key, None)
        # Starting a task reshapes resources (allocation, possible evictions,
        # queue depth): every watermark is stale.
        self._resource_version += 1
        self.queue.schedule_in(
            service, self._finish, task, self._run_epoch.get(task.task_id, 0)
        )
        self._idle_retries = 0
        return True

    def _retry(self) -> None:
        self._retry_scheduled = False
        self._dispatch()

    def _finish(self, task: Task, epoch: int = 0) -> None:
        if self._run_epoch.get(task.task_id, 0) != epoch:
            # Stale completion of a preempted run: the task was aborted and
            # requeued after this event was scheduled.  Ignore it.  The
            # epoch entry is deliberately never popped — a still-in-flight
            # stale event would otherwise match the dict's default again.
            return
        task.finish_s = self.queue.now
        self._running_count -= 1
        self.scheduler.on_finish(task, self.queue.now)
        self._result.completed.append(task)
        self._resource_version += 1
        self._dispatch()

    # -- entry point -----------------------------------------------------------------

    def run(self, tasks: list) -> SimulationResult:
        """Simulate the full task stream to completion."""
        if not tasks:
            raise SimulationError("no tasks to simulate")
        for task in tasks:
            self.queue.schedule(task.arrival_s, self._arrive, task)
        self.queue.run()
        PROFILER.incr("simulator.events", self.queue.processed)
        if self.pending_count:
            raise self._stuck(
                "never placed — scheduler cannot serve this workload"
            )
        self._result.makespan_s = self.queue.now - min(t.arrival_s for t in tasks)
        return self._result
