"""Catalog (mapping database) tests."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments.fig12 import run_fig12
from repro.perf.latency import demand_sized_instance
from repro.rtl import equivalence
from repro.runtime import Catalog, catalog as catalog_module
from repro.runtime.catalog import DESIGN_STORE, clear_design_store
from repro.vital import VitalCompiler
from repro.workloads.deepbench import ModelSpec
from repro.workloads.synthetic import TABLE1_COMPOSITIONS


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


class TestEntries:
    def test_small_model_single_fpga_plan(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 512, 1))
        assert entry.min_replicas() == 1
        plan = entry.sorted_plans()[0]
        assert set(plan.feasible_types) == {"XCVU37P", "XCKU115"}

    def test_large_model_two_fpga_only(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 2560, 10))
        assert entry.min_replicas() == 2

    def test_gru2304_feasible_on_both_types(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 2304, 10))
        plan = entry.sorted_plans()[0]
        assert plan.replicas == 2
        assert set(plan.feasible_types) == {"XCVU37P", "XCKU115"}

    def test_lstm1536_v37_only(self, catalog):
        entry = catalog.entry(ModelSpec("lstm", 1536, 50))
        single = entry.sorted_plans()[0]
        assert single.replicas == 1
        assert single.feasible_types == ["XCVU37P"]

    def test_plans_sorted_fewest_first(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 1536, 10))
        replica_counts = [plan.replicas for plan in entry.sorted_plans()]
        assert replica_counts == sorted(replica_counts)

    def test_programs_per_replica(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 1024, 10))
        for plan in entry.plans:
            assert len(plan.programs) == plan.replicas

    def test_multi_replica_programs_have_sync(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 2560, 10))
        plan = entry.sorted_plans()[0]
        for program in plan.programs:
            assert program.sync_instructions()

    def test_image_for_unknown_type(self, catalog):
        entry = catalog.entry(ModelSpec("lstm", 1536, 50))
        with pytest.raises(ReproError):
            entry.sorted_plans()[0].image_for("XCKU115")

    def test_entry_cached(self, catalog):
        first = catalog.entry(ModelSpec("gru", 512, 1))
        second = catalog.entry(ModelSpec("gru", 512, 1))
        assert first is second


class TestInstanceReuse:
    def test_designs_deduped_by_tiles_and_device(self):
        catalog = Catalog(VitalCompiler())
        catalog.entry(ModelSpec("gru", 512, 1))
        count_after_one = catalog.instance_count()
        # An LSTM with similar storage demand reuses the same instance size.
        catalog.entry(ModelSpec("gru", 512, 25))
        assert catalog.instance_count() == count_after_one

    def test_bitstream_cache_shared(self):
        compiler = VitalCompiler()
        catalog = Catalog(compiler)
        catalog.entry(ModelSpec("gru", 512, 1))
        misses_before = compiler.store.misses
        catalog.entry(ModelSpec("gru", 512, 100))  # same instance size
        assert compiler.store.misses == misses_before

    def test_virtual_block_counts_reasonable(self):
        catalog = Catalog(VitalCompiler())
        entry = catalog.entry(ModelSpec("lstm", 256, 150))
        plan = entry.sorted_plans()[0]
        image = plan.image_for("XCVU37P")
        assert 1 <= image.virtual_blocks <= 6  # small model, few blocks


#: Single- and two-FPGA plans, one of them V37-only.
STORE_MODELS = (
    ModelSpec("gru", 512, 1),
    ModelSpec("lstm", 1536, 50),
    ModelSpec("gru", 2560, 10),
)


def _build(models=STORE_MODELS) -> Catalog:
    catalog = Catalog(VitalCompiler())
    for spec in models:
        catalog.entry(spec)
    return catalog


def _plan_images(catalog: Catalog) -> dict:
    """Per model and width, each device type's compiled image."""
    return {
        (spec.key, plan.replicas, device_type): (
            image.virtual_blocks, image.frequency_hz, image.artifact
        )
        for spec in STORE_MODELS
        for plan in catalog.entry(spec).plans
        for device_type, image in plan.images.items()
    }


def _block_snapshot(block) -> list:
    return [
        (b.block_id, b.name, b.kind, b.role, b.module_name, b.instance_path,
         b.signature, b.resources(), b.in_bits, b.out_bits,
         repr(sorted(b.metadata.items())), [c.block_id for c in b.children])
        for b in block.iter_blocks()
    ]


def _store_snapshot() -> dict:
    """Everything a stored decomposition holds, by value and by identity."""
    return {
        config: (id(decomposed), decomposed.name, repr(decomposed.stats), demand,
                 _block_snapshot(decomposed.control),
                 _block_snapshot(decomposed.data_root))
        for config, (decomposed, demand) in DESIGN_STORE.items()
    }


class TestDesignStore:
    def test_second_catalog_generates_nothing_and_matches_a_cold_build(self):
        clear_design_store()
        cold = _build()
        assert cold.designs_generated == cold.instance_count() > 0
        warm = _build()
        assert warm.designs_generated == 0
        assert warm.instance_count() == cold.instance_count()
        assert _plan_images(warm) == _plan_images(cold)

    def test_key_is_the_whole_config(self):
        config = demand_sized_instance(10**6, "XCVU37P").config
        other = replace(config, mfu_lanes_per_tile=config.mfu_lanes_per_tile + 1)
        assert other.tiles == config.tiles
        catalog = Catalog(VitalCompiler())
        first, _ = catalog.design(config)
        second, _ = catalog.design(other)
        assert first is not second
        assert DESIGN_STORE[config][0] is first
        assert DESIGN_STORE[other][0] is second
        assert catalog.instance_count() == 2

    def test_demand_is_the_decomposition_total(self):
        _build()
        for decomposed, demand in DESIGN_STORE.values():
            assert demand == decomposed.total_resources()

    def test_store_does_not_retain_designs(self, monkeypatch):
        designs = []
        original = catalog_module.generate_accelerator

        def generate(config):
            design = original(config)
            designs.append(weakref.ref(design))
            return design

        monkeypatch.setattr(catalog_module, "generate_accelerator", generate)
        clear_design_store()
        catalog = _build()
        gc.collect()
        assert len(designs) == catalog.designs_generated > 0
        assert all(ref() is None for ref in designs)

    def test_stored_decompositions_read_only_across_fig12(self):
        """Every catalog of a Fig. 12 run shares the stored decompositions;
        none of them may change one."""
        _build()
        run_fig12(compositions=TABLE1_COMPOSITIONS[:3], task_count=20, seeds=(1,))
        before = _store_snapshot()
        assert before
        run_fig12(compositions=TABLE1_COMPOSITIONS[:3], task_count=20, seeds=(1,))
        assert _store_snapshot() == before

    def test_repeated_catalog_builds_add_no_signatures(self):
        """Signatures are cached per ``Design.uid``; rebuilding designs a
        catalog has already compiled used to add rows on every build."""
        _build()
        size = len(equivalence._signature_cache)
        for _ in range(3):
            _build()
        assert len(equivalence._signature_cache) == size
