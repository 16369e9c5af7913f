"""Pod-sharded control plane tests.

Covers the router's structure and flat-equivalence contract (every query
and the lazy candidate streams match a flat :class:`PlacementIndex` over
the same boards, and whole simulated schedules are bit-identical pod vs
flat), the two index-corruption regressions (stale/duplicate
notifications must raise, not silently corrupt), the ring-adjacency
service-estimate regression, the board-residency reverse index, and
chaos storms across pods.
"""

import random

import pytest

from repro.cluster import ClusterSimulator, scaled_cluster
from repro.cluster.topology import homogeneous_cluster, paper_cluster
from repro.errors import AllocationError
from repro.runtime import Catalog, build_system
from repro.runtime.controller import PlacementIndex, PlacementPolicy
from repro.runtime.pods import DEFAULT_POD_SIZE, PodRouter
from repro.vital import VitalCompiler
from repro.vital.device import XCVU37P
from repro.vital.virtual_block import BoardHealth, PhysicalFPGA
from repro.workloads import TABLE1_COMPOSITIONS, generate_workload
from repro.workloads.deepbench import model_by_key


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _proposed(cluster, catalog, **kwargs):
    return build_system("proposed", cluster, catalog, **kwargs)


class TestPodRouterStructure:
    def test_pods_partition_cluster_in_declaration_order(self):
        cluster = scaled_cluster(70)
        router = PodRouter(cluster, pod_size=32)
        assert [len(pod.board_ids) for pod in router.pods] == [32, 32, 6]
        declared = [board.fpga_id for board in cluster.boards.values()]
        chunked = [
            fpga_id for pod in router.pods for fpga_id in pod.board_ids
        ]
        assert chunked == declared
        assert router.check_consistent()

    def test_pod_of_maps_every_board(self):
        cluster = scaled_cluster(20)
        router = PodRouter(cluster, pod_size=8)
        for pod in router.pods:
            for fpga_id in pod.board_ids:
                assert router.pod_of(fpga_id) is pod

    def test_pod_size_resolution_order(self):
        explicit = PodRouter(scaled_cluster(8, pod_size=4), pod_size=2)
        assert explicit.pod_size == 2
        from_cluster = PodRouter(scaled_cluster(8, pod_size=4))
        assert from_cluster.pod_size == 4
        default = PodRouter(scaled_cluster(8))
        assert default.pod_size == DEFAULT_POD_SIZE

    def test_invalid_pod_size_rejected(self):
        with pytest.raises(ValueError):
            PodRouter(scaled_cluster(8), pod_size=0)

    def test_single_pod_on_paper_cluster(self):
        """The Fig. 12 platform fits one pod: the router IS the flat
        index there, which is what keeps the goldens bit-identical."""
        router = PodRouter(paper_cluster())
        assert router.pod_count() == 1


class TestRouterFlatEquivalence:
    """Every router query must equal the flat index over the same boards."""

    def _randomly_loaded(self, seed):
        cluster = scaled_cluster(24)
        router = PodRouter(cluster, pod_size=5)
        flat = PlacementIndex(cluster)
        rng = random.Random(seed)
        for at, board in enumerate(cluster.boards.values()):
            blocks = rng.randint(0, board.free_blocks)
            if blocks:
                board.allocate(f"dep-{at}", blocks)
        return cluster, router, flat

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_flat_queries_match(self, seed):
        _, router, flat = self._randomly_loaded(seed)
        assert router.device_types() == flat.device_types()
        for device_type in flat.device_types():
            assert router.max_free(device_type) == flat.max_free(device_type)
            for blocks in (0, 1, 4, 9, 999):
                assert router.count_with_at_least(
                    device_type, blocks
                ) == flat.count_with_at_least(device_type, blocks)
            for query in ("boards_best_fit", "boards_worst_fit", "boards_by_id"):
                assert [
                    b.fpga_id for b in getattr(router, query)(device_type)
                ] == [b.fpga_id for b in getattr(flat, query)(device_type)]

    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_iter_candidates_matches_flat_order(self, seed, policy):
        _, router, flat = self._randomly_loaded(seed)
        requirements = {
            device_type: 3 for device_type in flat.device_types()
        }
        feasible = [
            entry
            for device_type, need in sorted(requirements.items())
            for entry in flat.entries_with_at_least(device_type, need)
        ]
        if policy is PlacementPolicy.BEST_FIT:
            expected = [fpga_id for _, fpga_id in sorted(feasible)]
        elif policy is PlacementPolicy.WORST_FIT:
            expected = [
                fpga_id
                for _, fpga_id in sorted(
                    feasible, key=lambda entry: (-entry[0], entry[1])
                )
            ]
        else:
            expected = sorted(fpga_id for _, fpga_id in feasible)
        streamed = [
            board.fpga_id
            for board in router.iter_candidates(requirements, policy)
        ]
        assert streamed == expected

    def test_feasibility_cache_revalidates_on_mutation(self, shared_catalog):
        cluster = scaled_cluster(8)
        router = PodRouter(cluster, pod_size=4)
        feasible_calls = []

        def feasible_fn(model_key, device_type, free):
            feasible_calls.append(device_type)
            return free >= 4

        assert router.any_feasible("m", feasible_fn)
        probes = len(feasible_calls)
        # Cached: no pod mutated, so no recomputation.
        assert router.any_feasible("m", feasible_fn)
        assert len(feasible_calls) == probes
        # Mutating one pod's board invalidates exactly that pod's entry.
        board = next(iter(cluster.boards.values()))
        board.allocate("d", 1)
        assert router.any_feasible("m", feasible_fn)
        assert len(feasible_calls) > probes


class TestIndexCorruptionRegression:
    """A stale or duplicated board notification used to bisect-pop
    whatever entry was at the insertion point — another board's entry —
    and silently corrupt the index.  It must raise instead."""

    def _index(self):
        board = PhysicalFPGA("b0", XCVU37P)
        other = PhysicalFPGA("b1", XCVU37P)
        return PlacementIndex([board, other]), board

    def test_stale_occupancy_notification_raises(self):
        index, board = self._index()
        with pytest.raises(AllocationError, match="index corruption"):
            index._on_change(board, board.free_blocks - 3)
        assert index.check_consistent()

    def test_duplicate_occupancy_notification_raises(self):
        index, board = self._index()
        old_free = board.free_blocks
        board.allocate("d", 2)  # delivers the genuine notification
        with pytest.raises(AllocationError, match="index corruption"):
            index._on_change(board, old_free)  # replayed: entry already moved
        assert index.check_consistent()

    def test_duplicate_health_notification_raises(self):
        index, board = self._index()
        board.set_health(BoardHealth.FAILED)  # genuine removal
        with pytest.raises(AllocationError, match="index corruption"):
            index._on_health(board, BoardHealth.HEALTHY)  # replayed removal
        assert index.check_consistent()

    def test_mismatch_does_not_remove_other_boards_entry(self):
        index, board = self._index()
        try:
            index._on_change(board, board.free_blocks + 1)
        except AllocationError:
            pass
        # The neighbour's entry survived the bad notification.
        assert index.check_consistent()


class TestServiceEstimateAdjacency:
    """Two same-type-mix assignments with different ring adjacency must
    not share one cached service estimate (the old cache key bug let
    ``_find_placement``'s min() rank the slower pair with the faster
    pair's number)."""

    def _two_replica_plan(self, controller):
        entry = controller.catalog.entry_by_key("gru-h2560-t375")
        for plan in entry.sorted_plans():
            if plan.replicas == 2 and "XCVU37P" in plan.images:
                return plan
        raise AssertionError("expected a 2-replica XCVU37P plan")

    def test_adjacency_changes_the_estimate(self, shared_catalog):
        cluster = homogeneous_cluster(XCVU37P, 6)
        system = _proposed(cluster, shared_catalog)
        controller = system.controller
        plan = self._two_replica_plan(controller)
        image = plan.images["XCVU37P"]
        boards = list(cluster.boards.values())
        adjacent = [(boards[0], image), (boards[1], image)]  # 1 hop
        far = [(boards[0], image), (boards[3], image)]  # 3 hops
        assert controller._hop_signature(adjacent) == 1
        assert controller._hop_signature(far) == 3
        est_adjacent = controller._estimate_service(plan, adjacent)
        est_far = controller._estimate_service(plan, far)
        assert est_far > est_adjacent

    def test_same_signature_still_shares_cache(self, shared_catalog):
        cluster = homogeneous_cluster(XCVU37P, 6)
        system = _proposed(cluster, shared_catalog)
        controller = system.controller
        plan = self._two_replica_plan(controller)
        image = plan.images["XCVU37P"]
        boards = list(cluster.boards.values())
        controller._estimate_service(
            plan, [(boards[0], image), (boards[1], image)]
        )
        entries = len(controller._service_cache)
        # A different adjacent pair: same types, same hop signature.
        controller._estimate_service(
            plan, [(boards[2], image), (boards[3], image)]
        )
        assert len(controller._service_cache) == entries


class TestPodFlatScheduleEquivalence:
    """Randomized end-to-end equivalence: the pod-routed controller must
    produce bit-identical schedules to the flat (single-pod) controller."""

    def _schedule(self, catalog, board_count, pod_size, seed, task_count=90):
        cluster = scaled_cluster(board_count, pod_size=pod_size)
        system = _proposed(cluster, catalog)
        tasks = generate_workload(
            TABLE1_COMPOSITIONS[6],
            task_count=task_count,
            arrival_rate_per_s=1e5,
            seed=seed,
        )
        result = ClusterSimulator(system, "proposed").run(tasks)
        return [
            (task.task_id, task.start_s, task.finish_s)
            for task in result.completed
        ], system.controller

    @pytest.mark.parametrize("seed", [11, 12])
    def test_schedules_bit_identical_across_pod_sizes(
        self, shared_catalog, seed
    ):
        flat, flat_controller = self._schedule(
            shared_catalog, 12, pod_size=12, seed=seed
        )
        for pod_size in (3, 5):
            podded, controller = self._schedule(
                shared_catalog, 12, pod_size=pod_size, seed=seed
            )
            assert podded == flat
            assert (
                controller.stats.deployments_created
                == flat_controller.stats.deployments_created
            )

    def test_paper_cluster_single_board_pods_identical(self, shared_catalog):
        """The most extreme sharding (one board per pod) on the paper
        platform still reproduces the flat schedule exactly."""
        flat, _ = self._schedule(shared_catalog, 4, pod_size=4, seed=31)
        podded, _ = self._schedule(shared_catalog, 4, pod_size=1, seed=31)
        assert podded == flat


class TestResidencyIndex:
    def test_tracks_deploys_and_evictions(self, shared_catalog):
        cluster = paper_cluster()
        controller = _proposed(cluster, shared_catalog).controller
        first, _ = controller.deploy("gru-h512-t1")
        second, _ = controller.deploy("lstm-h256-t150")
        assert controller.check_residents_consistent()
        on_board = controller.deployments_on(first.placements[0].fpga_id)
        assert first in on_board
        controller.evict(first)
        assert controller.check_residents_consistent()
        assert first not in controller.deployments_on(
            second.placements[0].fpga_id
        )

    def test_deployments_on_creation_order(self, shared_catalog):
        cluster = paper_cluster()
        controller = _proposed(cluster, shared_catalog).controller
        keys = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25"]
        created = [controller.deploy(key)[0] for key in keys]
        shared = [
            board.fpga_id
            for board in cluster.boards.values()
            if len(board.owners()) >= 2
        ]
        assert shared, "expected spatial sharing on at least one board"
        residents = controller.deployments_on(shared[0])
        order = [created.index(d) for d in residents]
        assert order == sorted(order)

    def test_migration_updates_residency(self, shared_catalog):
        cluster = paper_cluster()
        system = _proposed(cluster, shared_catalog, defrag=True)
        controller = system.controller
        deployment, _ = controller.deploy("gru-h512-t1")
        src = deployment.placements[0].fpga_id
        image_types = deployment.plan.images
        destination = next(
            board
            for board in cluster.boards.values()
            if board.fpga_id != src
            and board.model.name in image_types
            and board.can_host(image_types[board.model.name].virtual_blocks)
        )
        controller.migration.migrate(deployment, {0: destination})
        assert controller.check_residents_consistent()
        assert deployment not in controller.deployments_on(src)
        assert deployment in controller.deployments_on(destination.fpga_id)


def _chaos_storm(board_count, pod_size, steps, seed, catalog):
    """Deploy/evict/fail/repair storm; returns (cluster, controller)."""
    cluster = scaled_cluster(board_count, pod_size=pod_size)
    system = _proposed(cluster, catalog, recovery=True)
    controller = system.controller
    rng = random.Random(seed)
    keys = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25", "gru-h1536-t375"]
    board_ids = sorted(cluster.boards)
    live = []
    now = 0.0
    for _step in range(steps):
        now += 0.005
        action = rng.random()
        if action < 0.5:
            try:
                deployment, _ = controller.deploy(rng.choice(keys), now=now)
            except AllocationError:
                pass
            else:
                live.append(deployment)
        elif action < 0.65 and live:
            deployment = live.pop(rng.randrange(len(live)))
            if deployment.deployment_id in controller.deployments:
                controller.evict(deployment)
        elif action < 0.85:
            board = cluster.board(rng.choice(board_ids))
            if board.health is BoardHealth.HEALTHY:
                controller.on_board_failure(board, now)
        else:
            board = cluster.board(rng.choice(board_ids))
            if board.health is not BoardHealth.HEALTHY:
                controller.on_board_repair(board, now)
        live = [
            d for d in live if d.deployment_id in controller.deployments
        ]
    return cluster, controller


class TestPodChaosInvariants:
    def test_storm_keeps_pods_consistent(self, shared_catalog):
        """Moderate scale in tier-1: failures/repairs/evictions across 64
        boards and 8 pods leave every per-pod index and the residency
        index equal to a from-scratch recount."""
        cluster, controller = _chaos_storm(
            64, pod_size=8, steps=220, seed=77, catalog=shared_catalog
        )
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        for board in cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()
        assert controller.stats.boards_failed > 0
        assert controller.stats.boards_repaired > 0

    @pytest.mark.slow
    def test_thousand_board_chaos_storm(self, shared_catalog):
        """The 1000-board acceptance storm (nightly): pods stay
        consistent through sustained failure/repair churn at full scale."""
        cluster, controller = _chaos_storm(
            1000, pod_size=32, steps=1500, seed=2025, catalog=shared_catalog
        )
        assert controller.index.pod_count() == 32
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        for board in cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()
        assert controller.stats.boards_failed > 100
        assert controller.stats.recoveries > 0
