"""Property tests for the serving edge: rejected work never holds boards.

The central robustness invariant: a request that was shed, expired,
breaker-rejected or abandoned must never have occupied a board — all
cluster blocks are accounted for by live deployments at every point, and
the frontend's accounting identity (offered = terminal outcomes) closes
exactly.  Exercised under randomized overload storms with the fault
injector armed, in the style of ``test_allocator_invariants``.
"""

import random

import pytest

from repro.cluster import ClusterSimulator, paper_cluster
from repro.errors import AllocationError
from repro.faults import FaultInjector, FaultModelParameters
from repro.runtime import Catalog, build_system
from repro.serving import (
    Request,
    RequestOutcome,
    ServingFrontend,
    ServingParameters,
    SheddingPolicy,
)
from repro.vital import VitalCompiler
from repro.workloads import mmpp_arrivals

MODELS = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _storm_tasks(count, rate_per_s, seed, deadline_jitter=False):
    arrivals = mmpp_arrivals(count, rate_per_s, seed=seed)
    rng = random.Random(seed)
    tasks = []
    for index, arrival_s in enumerate(arrivals):
        deadline = 0.0
        if deadline_jitter:
            deadline = arrival_s + rng.uniform(0.002, 0.2)
        tasks.append(
            Request(
                task_id=index,
                model_key=MODELS[index % len(MODELS)],
                arrival_s=arrival_s,
                size_class="S",
                deadline_s=deadline,
            )
        )
    return tasks


def _run_storm(catalog, seed, rate_per_s=4000.0, count=150, mtbf_s=None,
               **param_overrides):
    cluster = paper_cluster()
    system = build_system("proposed", cluster, catalog, recovery=True)
    defaults = dict(default_deadline_s=0.05, max_queue_depth=4)
    defaults.update(param_overrides)
    frontend = ServingFrontend(system, ServingParameters(**defaults))
    simulator = ClusterSimulator(frontend, f"storm-{seed}")
    if mtbf_s is not None:
        injector = FaultInjector(
            simulator,
            system.controller,
            FaultModelParameters(mtbf_s=mtbf_s, mttr_s=0.05, seed=seed),
        )
        injector.arm(count / rate_per_s * 4)
    tasks = _storm_tasks(count, rate_per_s, seed, deadline_jitter=True)
    result = simulator.run(tasks)
    return cluster, system, frontend, result


def _recounted_utilisation(cluster) -> float:
    boards = cluster.boards.values()
    free = sum(board.recount_free_blocks() for board in boards)
    return 1.0 - free / sum(len(board.blocks) for board in boards)


def _assert_invariants(cluster, system, frontend, result):
    stats = frontend.stats
    # 1. Accounting identity: every offered request reached exactly one
    #    terminal outcome.
    assert stats.offered == (
        stats.shed + stats.expired + stats.abandoned + stats.completed
    )
    if frontend.params.shedding is SheddingPolicy.TAIL_DROP:
        # Tail drop rejects at the door, so sheds never count as admitted.
        assert stats.admitted == stats.offered - stats.shed
    else:
        # Head drop admits the arrival and sheds an *already admitted*
        # queued request instead.
        assert stats.admitted >= stats.offered - stats.shed
    assert stats.completed == len(result.completed)
    # 2. Rejected work never held a board: dropped tasks never started.
    for task in result.dropped:
        assert task.start_s < 0
        record = frontend.record_for(task.task_id)
        assert record.outcome in (
            RequestOutcome.SHED,
            RequestOutcome.EXPIRED,
            RequestOutcome.ABANDONED,
        )
        assert not record.started
        assert record.board_ids == []
    # 3. Completed requests did start, and only they did.
    started = {t.task_id for t in result.completed}
    for task_id, record in frontend._records.items():
        assert record.started == (task_id in started)
    # 4. Occupancy closes: blocks in use are exactly the blocks owned by
    #    live deployments (nothing leaked by drops or recoveries).
    owners_by_board = {}
    for deployment in system.controller.deployments.values():
        for placement in deployment.placements:
            owners_by_board.setdefault(placement.fpga_id, 0)
            owners_by_board[placement.fpga_id] += placement.virtual_blocks
    for fpga_id, board in cluster.boards.items():
        assert board.used_blocks == owners_by_board.get(fpga_id, 0)
    # 5. The placement index survived the storm.
    assert system.controller.index.check_consistent()
    # 6. Internal queue accounting drained to zero.
    for model, depth in frontend._depth.items():
        assert depth == 0, f"{model} queue depth leaked: {depth}"
    for model, queue in frontend._queued.items():
        assert not queue, f"{model} queue not drained"
    # 7. Brownout's running utilisation equals a recount.
    assert frontend.utilisation() == _recounted_utilisation(cluster)


class TestServingInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overload_storm_without_faults(self, catalog, seed):
        cluster, system, frontend, result = _run_storm(catalog, seed)
        assert frontend.stats.shed > 0 or frontend.stats.expired > 0
        _assert_invariants(cluster, system, frontend, result)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_overload_storm_with_faults(self, catalog, seed):
        cluster, system, frontend, result = _run_storm(
            catalog, seed, mtbf_s=0.2
        )
        _assert_invariants(cluster, system, frontend, result)

    def test_head_drop_storm(self, catalog):
        cluster, system, frontend, result = _run_storm(
            catalog, 7, shedding=SheddingPolicy.HEAD_DROP
        )
        assert frontend.stats.shed > 0
        _assert_invariants(cluster, system, frontend, result)

    def test_token_bucket_storm(self, catalog):
        cluster, system, frontend, result = _run_storm(
            catalog, 8, admission_rate_per_s=500.0, admission_burst=8.0
        )
        assert frontend.stats.shed > 0
        _assert_invariants(cluster, system, frontend, result)

    def test_storm_with_tight_breakers_and_brownout(self, catalog):
        cluster, system, frontend, result = _run_storm(
            catalog,
            9,
            mtbf_s=0.1,
            breaker_threshold=1.0,
            breaker_cooldown_s=0.02,
            brownout_high_watermark=0.4,
            brownout_low_watermark=0.2,
            brownout_hot_depth=2,
        )
        _assert_invariants(cluster, system, frontend, result)

    def test_goodput_survives_the_storm(self, catalog):
        """Graceful degradation: even at ~4x overload with faults, the
        admitted requests that complete overwhelmingly meet their SLO."""
        _, _, frontend, result = _run_storm(catalog, 10, mtbf_s=0.5)
        stats = frontend.stats
        assert stats.completed > 0
        assert stats.slo_attainment() >= 0.9


class TestUtilisationCounter:
    """``utilisation()`` reads a running free-block total that board
    occupancy notifications keep; it must always equal a recount."""

    def test_random_deploy_evict_fail_repair_reset(self, catalog):
        cluster = paper_cluster()
        system = build_system("proposed", cluster, catalog)
        controller = system.controller
        frontend = ServingFrontend(system)
        boards = list(cluster.boards.values())
        rng = random.Random(11)
        live, seen, now = [], set(), 0.0
        assert frontend.utilisation() == 0.0
        for _ in range(400):
            now += 0.01
            action = rng.random()
            if action < 0.45:
                try:
                    deployment, _ = controller.deploy(rng.choice(MODELS), now=now)
                except AllocationError:
                    continue
                live.append(deployment)
                seen.add("deploy")
            elif action < 0.75:
                if not live:
                    continue
                controller.evict(live.pop(rng.randrange(len(live))))
                seen.add("evict")
            elif action < 0.85:
                controller.on_board_failure(rng.choice(boards), now)
                seen.add("fail")
            elif action < 0.97:
                controller.on_board_repair(rng.choice(boards), now)
                seen.add("repair")
            else:
                cluster.reset()
                seen.add("reset")
            assert frontend.utilisation() == _recounted_utilisation(cluster)
        assert seen == {"deploy", "evict", "fail", "repair", "reset"}
