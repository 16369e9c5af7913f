"""Cluster-substrate tests: event queue, ring network, topology and the
discrete-event simulator."""

import pytest

from repro.cluster import (
    ClusterSimulator,
    EventQueue,
    FPGACluster,
    NetworkParameters,
    RingNetwork,
    Task,
    paper_cluster,
)
from repro.cluster.topology import homogeneous_cluster
from repro.errors import SimulationError
from repro.units import us
from repro.vital import XCKU115, XCVU37P, PhysicalFPGA


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, fired.append, "late")
        queue.schedule(1.0, fired.append, "early")
        queue.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, fired.append, "first")
        queue.schedule(1.0, fired.append, "second")
        queue.run()
        assert fired == ["first", "second"]

    def test_schedule_in_relative(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule_in(0.5, fired.append, "x"))
        queue.run()
        assert queue.now == pytest.approx(1.5)

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run()
        with pytest.raises(SimulationError):
            queue.schedule(0.5, lambda: None)

    def test_run_until(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, fired.append, "a")
        queue.schedule(5.0, fired.append, "b")
        queue.run(until=2.0)
        assert fired == ["a"]
        assert queue.now == 2.0

    def test_runaway_detected(self):
        queue = EventQueue()

        def rearm():
            queue.schedule_in(0.001, rearm)

        queue.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="runaway"):
            queue.run(max_events=100)


class TestRingNetwork:
    def _ring(self, nodes=4, **kwargs):
        ids = [f"n{i}" for i in range(nodes)]
        return RingNetwork(ids, NetworkParameters(**kwargs))

    def test_needs_two_nodes(self):
        with pytest.raises(SimulationError):
            RingNetwork(["solo"])

    def test_hops_shortest_direction(self):
        ring = self._ring(4)
        assert ring.hops("n0", "n1") == 1
        assert ring.hops("n0", "n3") == 1  # wraps around
        assert ring.hops("n0", "n2") == 2

    def test_unknown_node(self):
        with pytest.raises(SimulationError):
            self._ring().hops("n0", "ghost")

    def test_diameter(self):
        assert self._ring(4).diameter() == 2
        assert self._ring(5).diameter() == 2

    def test_transfer_time_same_node_serialisation_only(self):
        """Loopback transfers pay one serialisation pass, no link costs.

        A zero-byte loopback is genuinely free, a non-trivial one costs
        exactly the FIFO streaming time: no per-hop latency and no Fig. 11
        added latency, because the counter module sits on ring links the
        transfer never enters.
        """
        ring = self._ring()
        assert ring.transfer_time("n0", "n0", 0) == 0.0
        expected = 8.0 * 1000 / ring.params.bandwidth_bps
        assert ring.transfer_time("n0", "n0", 1000) == pytest.approx(expected)
        # The added-latency knob must not leak into the loopback path.
        with_knob = ring.transfer_time("n0", "n0", 1000, added_latency_s=us(5.0))
        assert with_knob == pytest.approx(expected)
        # Strictly cheaper than the equivalent one-hop transfer.
        assert with_knob < ring.transfer_time("n0", "n1", 1000)

    def test_transfer_time_same_node_validates_nodes(self):
        """src == dst must not bypass node-membership validation."""
        with pytest.raises(SimulationError):
            self._ring().transfer_time("ghost", "ghost", 1000)

    def test_transfer_time_scales_with_bytes_and_hops(self):
        ring = self._ring(4)
        one = ring.transfer_time("n0", "n1", 1024)
        two_hops = ring.transfer_time("n0", "n2", 1024)
        bigger = ring.transfer_time("n0", "n1", 4096)
        assert two_hops > one
        assert bigger > one

    def test_added_latency_knob(self):
        """The Fig. 11 counter+FIFO module: a pure additive delay."""
        ring = self._ring()
        base = ring.exchange_time(["n0", "n1"], 512)
        delayed = ring.exchange_time(["n0", "n1"], 512, added_latency_s=us(0.6))
        assert delayed - base == pytest.approx(us(0.6))

    def test_exchange_single_member_free(self):
        assert self._ring().exchange_time(["n0"], 512) == 0.0

    def test_exchange_worst_pair_dominates(self):
        ring = self._ring(6)
        near = ring.exchange_time(["n0", "n1"], 256)
        far = ring.exchange_time(["n0", "n3"], 256)
        assert far > near


class TestTopology:
    def test_paper_cluster_composition(self):
        cluster = paper_cluster()
        assert len(cluster.boards) == 4
        assert len(cluster.boards_of_type("XCVU37P")) == 3
        assert len(cluster.boards_of_type("XCKU115")) == 1
        assert cluster.device_types() == ["XCVU37P", "XCKU115"]

    def test_total_free_blocks(self):
        free = paper_cluster().total_free_blocks()
        assert free == {"XCVU37P": 48, "XCKU115": 10}

    def test_reset_releases_everything(self):
        cluster = paper_cluster()
        cluster.board("vu37p-0").allocate("d", 5)
        cluster.reset()
        assert cluster.board("vu37p-0").free_blocks == 16

    def test_duplicate_ids_rejected(self):
        boards = [PhysicalFPGA("same", XCVU37P), PhysicalFPGA("same", XCKU115)]
        with pytest.raises(SimulationError):
            FPGACluster(boards)

    def test_unknown_board(self):
        with pytest.raises(SimulationError):
            paper_cluster().board("nope")

    def test_homogeneous_helper(self):
        cluster = homogeneous_cluster(XCKU115, 3)
        assert len(cluster.boards) == 3
        assert cluster.device_types() == ["XCKU115"]


class _OneSlotScheduler:
    """Test double: one task at a time, fixed service."""

    def __init__(self, service=1.0):
        self.service = service
        self.busy = False
        self.started = []

    def try_start(self, task, now):
        if self.busy:
            return None
        self.busy = True
        self.started.append(task.task_id)
        return self.service

    def on_finish(self, task, now):
        self.busy = False


class _ResidencyScheduler:
    """One-slot test double with the optional ``has_fast_path`` method:
    one model is 'resident' (hot) and starts without reconfiguration."""

    def __init__(self, hot="hot"):
        self.hot = hot
        self.busy = False
        self.order = []

    def has_fast_path(self, task):
        return task.model_key == self.hot

    def try_start(self, task, now):
        if self.busy:
            return None
        self.busy = True
        self.order.append(task.model_key)
        return 0.01

    def on_finish(self, task, now):
        self.busy = False


class _TimeGatedScheduler:
    """Declines every task until it has aged past a fixed gate, and
    exposes the optional ``retry_hint`` so the simulator can skip the
    provably fruitless attempts in between."""

    def __init__(self, gate_s=0.1):
        self.gate_s = gate_s
        self.attempts = 0
        self.hints = 0

    def try_start(self, task, now):
        self.attempts += 1
        if now - task.arrival_s < self.gate_s:
            return None
        return 0.001

    def on_finish(self, task, now):
        pass

    def retry_hint(self, task, now):
        self.hints += 1
        return task.arrival_s + self.gate_s


class _UnhintedTimeGatedScheduler(_TimeGatedScheduler):
    """Same gate, no hint (the simulator treats ``None`` as absent)."""

    retry_hint = None


class _PreemptAfterChurn:
    """Hook-less scheduler: model "a" always starts, model "b" has one slot.
    The first "a" placement at or after ``abort_at`` preempts the running
    "b" task from inside ``try_start``, as the tenancy layer does."""

    def __init__(self, abort_at):
        self.abort_at = abort_at
        self.simulator = None
        self.preempted = False
        self.b_running = None
        self.b_starts = []

    def try_start(self, task, now):
        if task.model_key == "a":
            if now >= self.abort_at and not self.preempted:
                self.preempted = True
                victim, self.b_running = self.b_running, None
                self.simulator.abort_running(victim)
            return 0.001
        if self.b_running is not None:
            return None
        self.b_running = task
        self.b_starts.append(task.task_id)
        return 10.0

    def on_finish(self, task, now):
        if task is self.b_running:
            self.b_running = None


class TestOptionalSchedulerProtocol:
    """The simulator must work with and without the optional
    ``has_fast_path`` / ``retry_hint`` methods (discovered via getattr)."""

    def test_fast_path_tasks_served_first(self):
        scheduler = _ResidencyScheduler(hot="hot")
        tasks = [
            Task(task_id=0, model_key="hot", arrival_s=0.0, size_class="S"),
            Task(task_id=1, model_key="cold", arrival_s=0.0, size_class="S"),
            Task(task_id=2, model_key="hot", arrival_s=0.0, size_class="S"),
        ]
        result = ClusterSimulator(scheduler, "t").run(tasks)
        assert len(result.completed) == 3
        # The first hot task takes the slot; cold and hot queue behind it.
        # FIFO would then serve cold first — the locality pass reorders the
        # scan so the resident model's queued work drains first.
        assert scheduler.order == ["hot", "hot", "cold"]

    def test_retry_hint_gates_attempts(self):
        scheduler = _TimeGatedScheduler(gate_s=0.1)
        task = Task(task_id=0, model_key="m", arrival_s=0.0, size_class="S")
        result = ClusterSimulator(scheduler, "t").run([task])
        assert len(result.completed) == 1
        # One declined attempt sets the watermark; the hint then suppresses
        # every retry poll until the clock reaches the gate.
        assert scheduler.hints == 1
        assert scheduler.attempts == 2

    def test_no_hint_falls_back_to_exhaustive_retry(self):
        scheduler = _UnhintedTimeGatedScheduler(gate_s=0.1)
        task = Task(task_id=0, model_key="m", arrival_s=0.0, size_class="S")
        result = ClusterSimulator(scheduler, "t").run([task])
        assert len(result.completed) == 1
        assert scheduler.hints == 0
        # Without a hint the simulator re-attempts on every retry poll:
        # many more try_start calls for the identical schedule.
        assert scheduler.attempts > 10


class TestClusterSimulator:
    def _tasks(self, count, gap=0.0):
        return [
            Task(task_id=i, model_key="m", arrival_s=i * gap, size_class="S")
            for i in range(count)
        ]

    def test_serialises_on_one_slot(self):
        scheduler = _OneSlotScheduler(service=1.0)
        result = ClusterSimulator(scheduler, "test").run(self._tasks(3))
        assert len(result.completed) == 3
        assert result.makespan_s == pytest.approx(3.0)
        assert result.throughput == pytest.approx(1.0)

    def test_latency_accounts_queueing(self):
        scheduler = _OneSlotScheduler(service=1.0)
        result = ClusterSimulator(scheduler, "test").run(self._tasks(2))
        by_id = {t.task_id: t for t in result.completed}
        assert by_id[0].latency_s == pytest.approx(1.0)
        assert by_id[1].latency_s == pytest.approx(2.0)

    def test_no_tasks_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(_OneSlotScheduler(), "t").run([])

    def test_negative_service_rejected(self):
        class Bad:
            def try_start(self, task, now):
                return -1.0

            def on_finish(self, task, now):
                pass

        with pytest.raises(SimulationError, match="negative"):
            ClusterSimulator(Bad(), "t").run(self._tasks(1))

    def test_never_placeable_detected(self):
        class Never:
            def try_start(self, task, now):
                return None

            def on_finish(self, task, now):  # pragma: no cover
                pass

        with pytest.raises(SimulationError):
            ClusterSimulator(Never(), "t").run(self._tasks(1))

    def test_per_class_counts(self):
        scheduler = _OneSlotScheduler(service=0.1)
        tasks = self._tasks(4)
        for task in tasks[:2]:
            task.size_class = "L"
        result = ClusterSimulator(scheduler, "t").run(tasks)
        assert result.per_class_counts() == {"L": 2, "S": 2}


class TestPreemptionRequeue:
    def test_requeued_task_keeps_its_fifo_slot_after_queue_churn(self):
        """A preempted task rejoins its queue at its arrival position, ahead
        of later same-model arrivals, however many other tasks have left
        the queue in the meantime (here 100, past the 64 removals after
        which a flat pending list used to compact)."""
        tasks = [
            Task(task_id=0, model_key="b", arrival_s=0.0),
            Task(task_id=1, model_key="b", arrival_s=0.5),
            Task(task_id=2, model_key="b", arrival_s=0.6),
        ] + [
            Task(task_id=3 + k, model_key="a", arrival_s=0.01 * (k + 1))
            for k in range(100)
        ]
        tasks.sort(key=lambda t: (t.arrival_s, t.task_id))
        scheduler = _PreemptAfterChurn(abort_at=1.0)
        simulator = ClusterSimulator(scheduler, "t")
        scheduler.simulator = simulator
        result = simulator.run(tasks)
        assert len(result.completed) == len(tasks)
        # b0 is preempted at t=1.0 while b1 and b2 wait; it restarts first.
        assert scheduler.b_starts == [0, 0, 1, 2]
