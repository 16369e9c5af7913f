"""Checkpoint/restore + live-migration subsystem tests.

Covers the three layers separately and together:

* ISA-level checkpoints: capture/serialise/restore identity, including
  mid-loop snapshots and scale-out fabrics with in-flight slices.
* The migration engine: same-type and cross-type moves at runtime level,
  validation errors, and the begin/finish dual-occupancy window.
* Defragmentation: the fragmentation metric, compaction planning, and the
  end-to-end DES run where a placement failure triggers defrag.

The subsystem is off by default; the last test class pins that.
"""

import numpy as np
import pytest

from repro.accel.codegen import (
    OUT_BASE,
    GRUCodegen,
    build_scaleout_programs,
    make_codegen,
)
from repro.accel.functional import (
    PAGE_WORDS,
    FunctionalSimulator,
    ScaleOutFabric,
    run_program,
)
from repro.cluster import ClusterSimulator, Task, paper_cluster
from repro.errors import AllocationError, DeploymentError, ReproError
from repro.isa.assembler import assemble
from repro.migration import (
    AcceleratorCheckpoint,
    FabricCheckpoint,
    MigrationEngine,
    architectural_state_bytes,
    checkpoint_scaleout,
    cluster_fragmentation,
    fragmentation,
    plan_defrag,
    restore_scaleout,
)
from repro.perf.profiling import PROFILER
from repro.runtime import Catalog, build_system
from repro.runtime.controller import SystemController
from repro.runtime.deployment import DeploymentState
from repro.vital import LowLevelController, VitalCompiler
from repro.workloads.deepbench import model_by_key


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _controller(catalog, **kwargs):
    cluster = paper_cluster()
    controller = SystemController(
        cluster,
        catalog,
        LowLevelController(catalog.compiler.store),
        migration_enabled=True,
        **kwargs,
    )
    return controller, cluster


LOOP_SOURCE = (
    "v_fill v0, 0.0, 4\n"
    "v_fill v1, 1.0, 4\n"
    "loop 6\n"
    "vv_add v0, v0, v1, 4\n"
    "v_wr v0, 0x80, 4\n"
    "endloop\n"
    "halt\n"
)


class TestStateSizeModel:
    def test_program_footprint_never_exceeds_config_maximum(self, shared_catalog):
        entry = shared_catalog.entry_by_key("gru-h512-t1")
        plan = entry.sorted_plans()[0]
        for device_type in plan.feasible_types:
            config = plan.images[device_type].instance
            for program in plan.programs:
                sized = architectural_state_bytes(config, program)
                ceiling = architectural_state_bytes(config)
                assert 0 < sized <= ceiling

    def test_scales_with_model_size(self, shared_catalog):
        small = shared_catalog.entry_by_key("gru-h512-t1").sorted_plans()[0]
        large = shared_catalog.entry_by_key("gru-h1536-t375").sorted_plans()[0]
        device = small.feasible_types[0]
        assert architectural_state_bytes(
            large.images[device].instance, large.programs[0]
        ) > architectural_state_bytes(
            small.images[device].instance, small.programs[0]
        )


class TestAcceleratorCheckpoint:
    def _mid_loop_sim(self):
        sim = FunctionalSimulator(assemble(LOOP_SOURCE, name="loopy"))
        # Step into the middle of the third loop iteration.
        for _ in range(12):
            sim.step()
        assert sim.loop_stack, "snapshot point must be mid-loop"
        return sim

    def test_mid_loop_capture_restore_identity(self):
        original = self._mid_loop_sim()
        checkpoint = AcceleratorCheckpoint.capture(original)
        restored = checkpoint.restore(assemble(LOOP_SOURCE, name="loopy"))
        original.run()
        restored.run()
        assert np.array_equal(restored.vector(0), original.vector(0))
        assert np.array_equal(
            restored.dram.read(0x80, 4), original.dram.read(0x80, 4)
        )
        assert restored.stats.instructions == original.stats.instructions

    def test_capture_does_not_alias_live_state(self):
        sim = self._mid_loop_sim()
        checkpoint = AcceleratorCheckpoint.capture(sim)
        before = checkpoint.vrf[0].copy()
        sim.run()  # keeps mutating v0 after the snapshot
        assert np.array_equal(checkpoint.vrf[0], before)

    def test_capture_and_restore_copy_dram_pages(self):
        sim = self._mid_loop_sim()
        checkpoint = AcceleratorCheckpoint.capture(sim)
        before = {number: page.copy() for number, page in checkpoint.dram.items()}
        restored = checkpoint.restore(assemble(LOOP_SOURCE, name="loopy"))
        sim.run()
        restored.run()  # both keep writing 0x80 after the snapshot
        assert checkpoint.dram.keys() == before.keys()
        for number, page in before.items():
            assert np.array_equal(checkpoint.dram[number], page)

    def test_serialise_roundtrip(self):
        checkpoint = AcceleratorCheckpoint.capture(self._mid_loop_sim())
        clone = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes())
        assert clone.pc == checkpoint.pc
        assert clone.loop_stack == checkpoint.loop_stack
        for register, values in checkpoint.vrf.items():
            assert np.array_equal(clone.vrf[register], values)
        assert clone.dram.keys() == checkpoint.dram.keys()
        for number, page in checkpoint.dram.items():
            assert np.array_equal(clone.dram[number], page)
        assert vars(clone.stats) == vars(checkpoint.stats)
        assert checkpoint.payload_bytes() == len(checkpoint.to_bytes())

    def test_serialise_preserves_matrix_shapes(self, gru_small):
        weights, xs = gru_small
        gen = GRUCodegen(weights, xs.shape[0])
        sim = FunctionalSimulator(gen.build())
        gen.preload(sim, xs)
        for _ in range(40):
            sim.step()
        checkpoint = AcceleratorCheckpoint.capture(sim)
        clone = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes())
        for register, matrix in checkpoint.mrf.items():
            assert clone.mrf[register].shape == matrix.shape
            assert np.array_equal(clone.mrf[register], matrix)

    def test_restore_rejects_wrong_program(self):
        checkpoint = AcceleratorCheckpoint.capture(self._mid_loop_sim())
        with pytest.raises(ReproError, match="cannot resume"):
            checkpoint.restore(assemble("halt\n", name="other"))

    def test_unknown_version_rejected(self):
        blob = AcceleratorCheckpoint.capture(self._mid_loop_sim()).to_bytes()
        # The version is the little-endian uint32 after the 8-byte magic.
        tampered = blob[:8] + (99).to_bytes(4, "little") + blob[12:]
        with pytest.raises(ReproError, match="version"):
            AcceleratorCheckpoint.from_bytes(tampered)


class TestWireFormat:
    """The binary paged wire against the state-size model.

    The wire ships float64 words; the model charges the register files at
    their on-chip widths.  On a mid-program ``gru-h512-t1`` snapshot the
    wire is ~18.9x the model, and nearly all of that is the weights
    travelling twice as float64: once in the written DRAM pages and once
    as the resident matrix registers, each ~64/7 times the model's
    ``weight_bits = 7`` per weight.  Skipping weight pages the destination
    can reload from the catalog would remove one of the two copies.
    """

    @pytest.fixture(scope="class")
    def gru_mid_program(self, shared_catalog):
        spec = model_by_key("gru-h512-t1")
        gen = make_codegen(spec.kind, spec.real_weights(seed=0), spec.timesteps)
        program = gen.build()
        sim = FunctionalSimulator(program)
        gen.preload(sim, np.random.default_rng(0).normal(
            0.0, 1.0, (spec.timesteps, spec.effective_input_dim)
        ))
        while sim.stats.instructions < len(program.instructions) // 2:
            sim.step()
        plan = shared_catalog.entry(spec).sorted_plans()[0]
        config = plan.images[sorted(plan.images)[0]].instance
        return AcceleratorCheckpoint.capture(sim), config, program

    def test_wire_to_model_ratio_bounded(self, gru_mid_program):
        checkpoint, config, program = gru_mid_program
        ratio = checkpoint.payload_bytes() / architectural_state_bytes(
            config, program
        )
        assert 1.0 <= ratio <= 20.0

    def test_wire_is_pages_registers_and_header(self, gru_mid_program):
        checkpoint = gru_mid_program[0]
        words = len(checkpoint.dram) * PAGE_WORDS + sum(
            values.size
            for registers in (checkpoint.vrf, checkpoint.mrf)
            for values in registers.values()
        )
        assert checkpoint.payload_bytes() <= 8 * words + 4096

    def test_decoded_arrays_own_their_memory(self, gru_mid_program):
        checkpoint = gru_mid_program[0]
        clone = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes())
        assert clone.dram.keys() == checkpoint.dram.keys()
        for arrays in (clone.vrf, clone.mrf, clone.dram):
            for values in arrays.values():
                assert values.flags.owndata and values.flags.writeable


def _fabric_blob() -> bytes:
    fabric = ScaleOutFabric(2)
    fabric.send(0, 0x10, np.arange(4.0))
    return FabricCheckpoint.capture(fabric).to_bytes()


class TestMalformedBlobs:
    BLOBS = {
        "accelerator": (
            AcceleratorCheckpoint,
            lambda: AcceleratorCheckpoint.capture(
                FunctionalSimulator(assemble(LOOP_SOURCE, name="loopy"))
            ).to_bytes(),
        ),
        "fabric": (FabricCheckpoint, _fabric_blob),
    }
    TAMPERS = {
        "bad_magic": lambda blob: b"NOTACKPT" + blob[8:],
        "version_1": lambda blob: blob[:8] + (1).to_bytes(4, "little") + blob[12:],
        "version_3": lambda blob: blob[:8] + (3).to_bytes(4, "little") + blob[12:],
        "v1_json": lambda blob: b'{"version": 1, "replicas": 2, "dram": []}',
        "truncated": lambda blob: blob[:-1],
        "trailing": lambda blob: blob + b"\x00",
    }

    @pytest.mark.parametrize("kind", sorted(BLOBS))
    def test_roundtrip_accepts_untampered(self, kind):
        cls, make = self.BLOBS[kind]
        blob = make()
        assert cls.from_bytes(blob).to_bytes() == blob

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    @pytest.mark.parametrize("kind", sorted(BLOBS))
    def test_rejected_as_repro_error(self, kind, tamper):
        cls, make = self.BLOBS[kind]
        with pytest.raises(ReproError):
            cls.from_bytes(self.TAMPERS[tamper](make()))

    def test_blob_of_the_other_kind_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            AcceleratorCheckpoint.from_bytes(_fabric_blob())


class TestScaleOutCheckpoint:
    def _partial_scaleout(self, gru_small, replicas=2):
        weights, xs = gru_small
        t = xs.shape[0]
        programs = build_scaleout_programs("gru", weights, t, replicas)
        gens = [
            GRUCodegen(weights, t, replicas=replicas, replica_index=i)
            for i in range(replicas)
        ]
        from repro.accel.functional import ScaleOutFabric

        fabric = ScaleOutFabric(replicas)
        sims = [
            FunctionalSimulator(program, fabric=fabric, replica_index=i)
            for i, program in enumerate(programs)
        ]
        for i, sim in enumerate(sims):
            gens[i].preload(sim, xs)
        # Run replica 0 until it blocks on the exchange: its slice is now
        # in flight in the fabric while replica 1 has not sent yet.
        status = sims[0].run_until_blocked()
        assert status == "blocked"
        return sims, fabric, weights, xs

    def _drain(self, sims):
        while not all(sim.finished for sim in sims):
            progressed = False
            for sim in sims:
                if sim.finished:
                    continue
                before = sim.stats.instructions
                status = sim.run_until_blocked()
                if sim.stats.instructions > before or status == "halted":
                    progressed = True
            assert progressed, "scale-out deadlock after restore"

    def test_in_flight_slices_survive_migration(self, gru_small):
        sims, fabric, weights, xs = self._partial_scaleout(gru_small)
        replicas = len(sims)
        checkpoints, fabric_checkpoint = checkpoint_scaleout(sims, fabric)

        # Ship the snapshot over the wire (what the migration transfers).
        blobs = [c.to_bytes() for c in checkpoints]
        fabric_blob = fabric_checkpoint.to_bytes()
        restored_sims, restored_fabric = restore_scaleout(
            [AcceleratorCheckpoint.from_bytes(b) for b in blobs],
            FabricCheckpoint.from_bytes(fabric_blob),
            [sim.program for sim in sims],
        )

        self._drain(sims)
        self._drain(restored_sims)
        h = weights.hidden
        slice_rows = h // replicas
        for i in range(replicas):
            assert np.array_equal(
                restored_sims[i].dram.read(OUT_BASE + i * slice_rows, slice_rows),
                sims[i].dram.read(OUT_BASE + i * slice_rows, slice_rows),
            )
        assert restored_fabric.bytes_transferred == fabric.bytes_transferred

    def test_restore_count_mismatch(self, gru_small):
        sims, fabric, _, _ = self._partial_scaleout(gru_small)
        checkpoints, fabric_checkpoint = checkpoint_scaleout(sims, fabric)
        with pytest.raises(ReproError, match="checkpoints"):
            restore_scaleout(checkpoints, fabric_checkpoint, [sims[0].program])


class TestMigrationEngine:
    def test_same_type_move(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        src = deployment.placements[0].fpga_id
        src_type = deployment.placements[0].device_type
        service_before = deployment.service_s
        destinations = [
            board
            for board in cluster.boards.values()
            if board.model.name == src_type and board.fpga_id != src
        ]
        engine = controller.migration
        plan = engine.migrate(deployment, {0: destinations[0]}, now=1.0)
        placement = deployment.placements[0]
        assert placement.fpga_id == destinations[0].fpga_id
        assert cluster.board(src).free_blocks == len(cluster.board(src).blocks)
        assert destinations[0].owned_indices(deployment.deployment_id) == (
            placement.block_indices
        )
        assert deployment.state is DeploymentState.IDLE
        assert deployment.migrations == 1
        assert deployment.service_s == pytest.approx(service_before)
        assert plan.total_cost_s > 0
        assert controller.index.check_consistent()

    def test_cross_type_move_and_functional_identity(self, shared_catalog):
        """The acceptance property: checkpoint on one device type, restore
        on another board of another type, identical functional output."""
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("lstm-h256-t150")
        src_placement = deployment.placements[0]
        other_type = next(
            t
            for t in deployment.plan.feasible_types
            if t != src_placement.device_type
        )
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == other_type
        )

        # Run the deployment's program halfway on the source, checkpoint.
        program = deployment.plan.programs[0]
        straight = run_program(program)
        partial = FunctionalSimulator(program)
        for _ in range(len(program.instructions) // 2):
            partial.step()
        checkpoint = AcceleratorCheckpoint.capture(partial)

        engine = controller.migration
        plan = engine.migrate(deployment, {0: destination}, now=2.0)
        move = plan.moves[0]
        assert move.cross_type
        assert move.dst_blocks == deployment.plan.images[other_type].virtual_blocks
        new_placement = deployment.placements[0]
        assert new_placement.device_type == other_type
        assert new_placement.fpga_id == destination.fpga_id
        # Service time was re-estimated for the new device-type mix.
        assert deployment.service_s > 0
        assert controller.index.check_consistent()

        # Resume the shipped snapshot on the destination: same program (the
        # checkpoint is ISA-level), new board and type, identical output.
        resumed = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes()).restore(
            program
        )
        resumed.run()
        for register in straight.vrf:
            assert np.array_equal(resumed.vector(register), straight.vector(register))

    def test_move_costs_follow_the_model(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        placement = deployment.placements[0]
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == placement.device_type
            and board.fpga_id != placement.fpga_id
        )
        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destination})
        move = plan.moves[0]
        assert move.drain_s == engine.params.drain_s
        assert move.transfer_s == cluster.network.transfer_time(
            move.src_fpga, move.dst_fpga, move.state_bytes
        )
        assert move.reconfig_s == pytest.approx(
            move.dst_blocks * controller.reconfig_s_per_block
        )
        assert move.cost_s == pytest.approx(
            move.drain_s + move.transfer_s + move.reconfig_s
        )

    def test_plan_rejects_busy_and_bad_targets(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        engine = controller.migration
        src = cluster.board(deployment.placements[0].fpga_id)
        other = next(
            board
            for board in cluster.boards.values()
            if board.fpga_id != src.fpga_id
            and board.model.name in deployment.plan.images
        )
        with pytest.raises(DeploymentError, match="already resides"):
            engine.plan_move(deployment, {0: src})
        deployment.acquire()
        with pytest.raises(DeploymentError, match="state is busy"):
            engine.plan_move(deployment, {0: other})
        deployment.release(0.0)
        with pytest.raises(ReproError, match="no replica"):
            engine.plan_move(deployment, {7: other})

    def test_plan_rejects_type_without_image(self, shared_catalog):
        """lstm-h1536-t50 maps onto the VU37P only — a KU115 target has no
        image in the mapping database and must be refused."""
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("lstm-h1536-t50")
        assert list(deployment.plan.images) == ["XCVU37P"]
        ku115 = next(
            board
            for board in cluster.boards.values()
            if board.model.name == "XCKU115"
        )
        with pytest.raises(DeploymentError, match="no image"):
            controller.migration.plan_move(deployment, {0: ku115})

    def test_plan_rejects_full_destination(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        placement = deployment.placements[0]
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == placement.device_type
            and board.fpga_id != placement.fpga_id
        )
        destination.allocate("squatter", destination.free_blocks)
        with pytest.raises(DeploymentError, match="cannot host"):
            controller.migration.plan_move(deployment, {0: destination})

    def test_begin_finish_dual_occupancy(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        src = cluster.board(deployment.placements[0].fpga_id)
        src_used = src.used_blocks
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == src.model.name
            and board.fpga_id != src.fpga_id
        )
        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destination})
        cost = engine.begin(plan, now=0.0)
        assert cost == pytest.approx(plan.total_cost_s)
        # Mid-move: the deployment holds blocks on BOTH boards and is
        # neither servable nor evictable.
        assert deployment.state is DeploymentState.MIGRATING
        assert src.used_blocks == src_used
        assert destination.used_blocks == plan.moves[0].dst_blocks
        with pytest.raises(AllocationError, match="cannot evict"):
            controller.evict(deployment)
        engine.finish(plan, now=cost)
        assert src.used_blocks == 0
        assert deployment.state is DeploymentState.IDLE
        assert controller.index.check_consistent()


def _shatter_vu37p(controller, cluster):
    """Block the KU115 and leave every VU37P board with an 8-block hole.

    12 four-block deployments fill the three VU37P boards; evicting one
    resident in every half-board leaves 8 free blocks per board — plenty
    of aggregate space, but no 14-block hole for gru-h1536-t375.
    """
    ku115 = cluster.board("ku115-0")
    ku115.allocate("pinned", ku115.free_blocks)
    deployments = [controller.deploy("gru-h512-t1")[0] for _ in range(12)]
    by_board: dict[str, list] = {}
    for deployment in deployments:
        by_board.setdefault(deployment.placements[0].fpga_id, []).append(
            deployment
        )
    assert sorted(by_board) == ["vu37p-0", "vu37p-1", "vu37p-2"]
    for residents in by_board.values():
        controller.evict(residents[0])
        controller.evict(residents[2])
    return by_board


class TestDefrag:
    def test_fragmentation_metric(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        index = controller.index
        # Classic external-fragmentation form: even an empty three-board
        # type reads 1 - 16/48 because the free space spans three holes.
        assert fragmentation(index, "XCVU37P") == pytest.approx(1 - 16 / 48)
        # All free space concentrated on one board: not fragmented.
        cluster.board("vu37p-1").allocate("a", 16)
        cluster.board("vu37p-2").allocate("b", 16)
        assert fragmentation(index, "XCVU37P") == 0.0
        # Shatter it: 6+2 free in two holes, largest covers three quarters.
        cluster.board("vu37p-0").allocate("c", 10)
        cluster.board("vu37p-1").release("a")
        cluster.board("vu37p-1").allocate("d", 14)
        assert fragmentation(index, "XCVU37P") == pytest.approx(1 - 6 / 8)
        report = cluster_fragmentation(index)
        assert report["XCKU115"] == 0.0  # one untouched 10-block hole
        assert 0 < report["overall"] < report["XCVU37P"]

    def test_full_type_is_not_fragmented(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        board = cluster.board("ku115-0")
        board.allocate("all", board.free_blocks)
        assert fragmentation(controller.index, "XCKU115") == 0.0

    def test_capacity_shortfall_yields_no_plan(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        for board in cluster.boards.values():
            keep = 2 if board.model.name == "XCVU37P" else 0
            board.allocate("wall", board.free_blocks - keep)
        # 6 free VU37P blocks < the 14 gru-h1536-t375 needs: capacity, not
        # fragmentation — no migration set can help.
        engine = MigrationEngine(controller)
        assert plan_defrag(controller, "gru-h1536-t375", engine) is None

    def test_plan_opens_a_hole_and_executes(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        _shatter_vu37p(controller, cluster)
        with pytest.raises(AllocationError):
            controller.deploy("gru-h1536-t375")
        frag_before = fragmentation(controller.index, "XCVU37P")
        plan = controller.plan_defrag("gru-h1536-t375")
        assert plan is not None
        assert plan.device_type == "XCVU37P"
        assert plan.needed_blocks == 14
        assert len(plan.target_fpgas) == 1
        assert plan.move_count == 2  # two 4-block victims open a 16-hole
        cost = controller.begin_defrag(plan, now=0.0)
        assert cost == pytest.approx(plan.total_cost_s) and cost > 0
        controller.finish_defrag(plan, now=cost)
        assert fragmentation(controller.index, "XCVU37P") < frag_before
        deployment, _ = controller.deploy("gru-h1536-t375")
        assert deployment.placements[0].fpga_id in plan.target_fpgas
        assert controller.index.check_consistent()
        assert controller.stats.defrag_plans == 1
        assert controller.stats.migrations_completed == len(plan.migrations)

    def test_busy_victims_block_the_plan(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        by_board = _shatter_vu37p(controller, cluster)
        for residents in by_board.values():
            residents[1].acquire()
            residents[3].acquire()
        assert controller.plan_defrag("gru-h1536-t375") is None

    def test_des_run_defrags_on_placement_failure(self, shared_catalog):
        PROFILER.reset()
        system = build_system(
            "proposed", paper_cluster(), shared_catalog, defrag=True
        )
        controller = system.controller
        _shatter_vu37p(controller, controller.cluster)
        simulator = ClusterSimulator(system, system.name)
        result = simulator.run(
            [Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0)]
        )
        assert len(result.completed) == 1
        assert controller.stats.defrag_plans >= 1
        assert controller.stats.migrations_completed >= 1
        # The migration window is real simulated time: the task could not
        # start before the defrag completed.
        assert result.completed[0].start_s > 0.0
        assert controller.index.check_consistent()
        assert PROFILER.get("migration.completed") >= 1
        assert PROFILER.get("simulator.external_events") >= 1
        assert PROFILER.get("migration.bytes") > 0

    def test_victims_remain_functional_after_defrag(self, shared_catalog):
        system = build_system(
            "proposed", paper_cluster(), shared_catalog, defrag=True
        )
        controller = system.controller
        _shatter_vu37p(controller, controller.cluster)
        simulator = ClusterSimulator(system, system.name)
        tasks = [
            Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0),
            Task(task_id=1, model_key="gru-h512-t1", arrival_s=0.0),
            Task(task_id=2, model_key="gru-h512-t1", arrival_s=0.01),
        ]
        result = simulator.run(tasks)
        assert len(result.completed) == 3
        moved = [
            d
            for d in controller.deployments.values()
            if d.migrations > 0
        ]
        assert moved, "defrag should have migrated at least one victim"


class TestOffByDefault:
    def test_controller_defaults_disabled(self, shared_catalog):
        controller = SystemController(
            paper_cluster(),
            shared_catalog,
            LowLevelController(shared_catalog.compiler.store),
        )
        assert controller.migration_enabled is False
        assert controller.plan_defrag("gru-h1536-t375") is None
        assert controller.stats.defrag_plans == 0

    def test_build_system_defaults_disabled(self, shared_catalog):
        system = build_system("proposed", paper_cluster(), shared_catalog)
        assert system.controller.migration_enabled is False
