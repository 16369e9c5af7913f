"""The mapping-results database (the "Database" box of Fig. 7).

For every benchmark model the catalog holds deployment plans at increasing
widths: 1 FPGA (a demand-sized instance), 2-FPGA scale-down, ... — each
compiled through the full offline pipeline: instance sizing -> RTL
generation -> decomposition -> ViTAL compilation per device type.  Results
are cached two ways:

* generated and decomposed designs live in one process-wide store,
  :data:`DESIGN_STORE`, content-addressed by the frozen
  :class:`~repro.accel.config.AcceleratorConfig`.  The paper's "10
  different accelerator instances" are exactly its entries: each is
  generated and decomposed once per process, however many catalogs ask
  for it (every Fig. 12 simulation builds its own catalog).  Stored
  decompositions are shared by every catalog and therefore read-only, and
  the store keeps no RTL ``Design``, only its decomposition and demand.
* content-addressed bitstreams in each catalog's
  :class:`~repro.vital.bitstream.BitstreamStore`, which is what amortises
  scale-down compilation across instances (Section 4.3's 24.6% figure).
  ViTAL compilation still runs per catalog, so that accounting is
  unchanged by the design store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.config import AcceleratorConfig
from ..accel.generator import CONTROL_MODULES, generate_accelerator
from ..accel.codegen import build_scaleout_programs
from ..accel.timing import CycleModel, TimingParameters, DEFAULT_TIMING
from ..core.decompose import decompose
from ..errors import CompileError, ReproError
from ..perf.latency import BASE_INSTANCES, demand_sized_instance
from ..vital.compiler import VitalCompiler
from ..workloads.deepbench import ModelSpec

#: The design store: ``AcceleratorConfig -> (DecomposedAccelerator,
#: demand)``, where ``demand`` is the decomposition's ``total_resources()``.
#: Read-only once stored: every catalog in the process shares each entry.
DESIGN_STORE: dict = {}


def clear_design_store() -> None:
    """Empty the design store, so the next catalog builds start cold."""
    DESIGN_STORE.clear()


@dataclass(frozen=True)
class ReplicaImage:
    """One replica of a deployment plan, compiled for one device type."""

    device_type: str
    instance: AcceleratorConfig
    virtual_blocks: int
    frequency_hz: float
    artifact: str


@dataclass
class DeploymentPlan:
    """One deployment width for one model.

    ``replicas`` FPGAs, each hosting one scaled-down replica; ``images``
    maps device-type name to the replica image for that type (replicas on
    different device types are allowed — the heterogeneous support).
    ``programs[i]`` is replica ``i``'s transformed ISA program.
    """

    model_key: str
    replicas: int
    images: dict = field(default_factory=dict)
    programs: list = field(default_factory=list)

    @property
    def feasible_types(self) -> list:
        return sorted(self.images)

    def image_for(self, device_type: str) -> ReplicaImage:
        try:
            return self.images[device_type]
        except KeyError:
            raise ReproError(
                f"{self.model_key} x{self.replicas} has no image for "
                f"{device_type}"
            ) from None


@dataclass
class CatalogEntry:
    """All deployment plans for one model, fewest-FPGAs first."""

    spec: ModelSpec
    plans: list = field(default_factory=list)
    _sorted_cache: list | None = field(default=None, init=False, repr=False)

    def sorted_plans(self) -> list:
        """The greedy policy's search order (ascending width), cached —
        ``deploy`` asks for it on every placement attempt."""
        if self._sorted_cache is None or len(self._sorted_cache) != len(self.plans):
            self._sorted_cache = sorted(self.plans, key=lambda plan: plan.replicas)
        return self._sorted_cache

    def min_replicas(self) -> int:
        if not self.plans:
            raise ReproError(f"{self.spec.key}: no feasible deployment plan")
        return min(plan.replicas for plan in self.plans)


class Catalog:
    """Builds and caches catalog entries through the offline tool chain."""

    def __init__(
        self,
        compiler: VitalCompiler | None = None,
        timing: TimingParameters = DEFAULT_TIMING,
        max_replicas: int = 2,
        weight_bits: int | None = None,
    ):
        self.compiler = compiler or VitalCompiler()
        self.timing = timing
        self.max_replicas = max_replicas
        self.weight_bits = weight_bits or BASE_INSTANCES["XCVU37P"].weight_bits
        self._entries: dict[str, CatalogEntry] = {}
        # Configs of the design-store entries this catalog has used.
        self._instances: set = set()
        # (model_key, device_type) -> min virtual blocks over any plan image
        self._min_blocks_cache: dict = {}
        # (model_key, device_type, free_blocks) -> bool
        self._feasibility_cache: dict = {}
        #: Design-store misses: instances this catalog generated itself.
        self.designs_generated = 0

    # -- public API ------------------------------------------------------------

    def min_image_blocks(self, model_key: str, device_type: str) -> int | None:
        """Smallest virtual-block demand any plan of ``model_key`` places on
        one board of ``device_type`` (``None`` when no plan has an image for
        that type).  Cached — the controller's fast-reject asks per attempt."""
        key = (model_key, device_type)
        if key not in self._min_blocks_cache:
            entry = self._entries.get(model_key)
            if entry is None:
                raise ReproError(
                    f"min_image_blocks: no catalog entry for {model_key!r}"
                )
            blocks = [
                plan.images[device_type].virtual_blocks
                for plan in entry.plans
                if device_type in plan.images
            ]
            self._min_blocks_cache[key] = min(blocks) if blocks else None
        return self._min_blocks_cache[key]

    def placement_feasible(
        self, model_key: str, device_type: str, free_blocks: int
    ) -> bool:
        """Whether any plan of ``model_key`` could put a replica on a
        ``device_type`` board with ``free_blocks`` free.

        A necessary condition for placement (each replica needs one board
        hosting one image), memoized per ``(model, type, free)`` so the
        runtime's hot no-capacity path costs one dict probe.
        """
        key = (model_key, device_type, free_blocks)
        cached = self._feasibility_cache.get(key)
        if cached is None:
            needed = self.min_image_blocks(model_key, device_type)
            cached = needed is not None and needed <= free_blocks
            self._feasibility_cache[key] = cached
        return cached

    def entry(self, spec: ModelSpec) -> CatalogEntry:
        """The catalog entry for ``spec`` (built on first request)."""
        cached = self._entries.get(spec.key)
        if cached is not None:
            return cached
        entry = self._build_entry(spec)
        self._entries[spec.key] = entry
        return entry

    def entry_by_key(self, model_key: str) -> CatalogEntry:
        """The catalog entry for a model key (built on first request).

        The migration/defrag layer resolves cross-type remaps through
        this: every plan's ``images`` dict is the per-type mapping
        database, so moving a replica to another device type is a lookup,
        not a recompile.
        """
        from ..workloads.deepbench import model_by_key

        return self.entry(model_by_key(model_key))

    def compatible_types(self, model_key: str) -> list:
        """Device types holding an image for any plan of ``model_key``
        (the set a live deployment can migrate across)."""
        entry = self.entry_by_key(model_key)
        types: set[str] = set()
        for plan in entry.plans:
            types.update(plan.images)
        return sorted(types)

    def instance_count(self) -> int:
        """Distinct accelerator instances this catalog has used (the
        paper's "10 different accelerator instances" inventory), whether
        it generated them or found them in the design store."""
        return len(self._instances)

    def design(self, config: AcceleratorConfig) -> tuple:
        """``(decomposed, demand)`` for ``config`` from the design store,
        generating and decomposing the instance on a miss."""
        stored = DESIGN_STORE.get(config)
        if stored is None:
            decomposed = decompose(generate_accelerator(config), CONTROL_MODULES)
            stored = DESIGN_STORE[config] = (decomposed, decomposed.total_resources())
            self.designs_generated += 1
        self._instances.add(config)
        return stored

    # -- construction ------------------------------------------------------------------

    def _build_entry(self, spec: ModelSpec) -> CatalogEntry:
        entry = CatalogEntry(spec=spec)
        replicas = 1
        while replicas <= self.max_replicas:
            plan = self._build_plan(spec, replicas)
            if plan is not None:
                entry.plans.append(plan)
            replicas *= 2
        if not entry.plans:
            raise CompileError(
                f"{spec.key}: no feasible deployment at any width up to "
                f"{self.max_replicas} FPGAs"
            )
        return entry

    def _build_plan(self, spec: ModelSpec, replicas: int) -> DeploymentPlan | None:
        if replicas > 1:
            if spec.hidden % replicas != 0:
                return None
            programs = build_scaleout_programs(
                spec.kind, spec.metadata_weights(), spec.timesteps, replicas
            )
        else:
            programs = [spec.program()]

        plan = DeploymentPlan(
            model_key=spec.key, replicas=replicas, programs=programs
        )
        bits_needed = spec.weight_bits(self.weight_bits)
        for device_type in self.compiler.devices:
            choice = demand_sized_instance(bits_needed, device_type, replicas)
            model = CycleModel(choice.config, self.timing)
            if not model.fits(programs[0]):
                continue
            image = self._compile_instance(spec, choice.config, device_type)
            if image is not None:
                plan.images[device_type] = image
        return plan if plan.images else None

    def _compile_instance(
        self, spec: ModelSpec, config: AcceleratorConfig, device_type: str
    ) -> ReplicaImage | None:
        device = self.compiler.devices[device_type]
        decomposed, demand = self.design(config)
        try:
            image, _bitstream, _cached = self.compiler.compile_cluster(
                accelerator=f"bw-t{config.tiles}",
                cluster_index=0,
                cluster_signature=decomposed.data_root.signature,
                demand=demand,
                device=device,
            )
        except CompileError:
            return None
        return ReplicaImage(
            device_type=device_type,
            instance=config,
            virtual_blocks=image.virtual_blocks,
            frequency_hz=image.frequency_hz,
            artifact=image.artifact,
        )
