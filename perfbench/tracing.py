"""Span tracing at layer boundaries, installed from outside the program.

The traced run patches each layer's public entry points (see ``LAYER_ENTRY_POINTS``)
with a wrapper that records one span per call: id, parent span, name, the
task id when the call carries a task, start and end.  Spans stay in memory;
self time (a span minus the spans nested inside it) and call counts are
accumulated as spans close, and :meth:`Tracer.write` dumps the retained
spans as gzipped JSON lines when the run ends.  Nothing under ``src/`` is
changed: :meth:`Tracer.install` swaps attributes on the classes and modules
and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

from repro.accel import codegen, functional
from repro.cluster import simulator
from repro.migration import checkpoint
from repro.runtime import batching, catalog, systems
from repro.serving import frontend
from repro.tenancy import scheduler
from repro.vital import compiler
from repro.workloads import arrival, synthetic

#: The Scheduler protocol's callbacks, wrapped on every layer that
#: implements one so ``cluster.run``'s self time excludes scheduler work.
#: ``observe_queue`` and ``has_pending_timers`` (O(1) pass-throughs called
#: once per dispatch scan) stay unwrapped: a span each would cost more than
#: the call, and their time counts as ``cluster.run`` self time.
PROTOCOL = (
    "try_start", "on_finish", "has_fast_path", "retry_hint", "admit",
    "should_drop", "dispatch_key",
)

#: (owner, attribute, span name) for every wrapped entry point.
LAYER_ENTRY_POINTS = (
    [(simulator.ClusterSimulator, "run", "cluster.run")]
    + [(systems.ProposedSystem, m, f"runtime.{m}") for m in PROTOCOL
       if hasattr(systems.ProposedSystem, m)]
    + [(systems.BaselineSystem, m, f"runtime.{m}") for m in PROTOCOL
       if hasattr(systems.BaselineSystem, m)]
    + [(frontend.ServingFrontend, m, f"serving.{m}") for m in PROTOCOL
       if hasattr(frontend.ServingFrontend, m)]
    + [(frontend.ServingFrontend, "utilisation", "serving.utilisation")]
    + [(scheduler.TenantScheduler, m, f"tenancy.{m}") for m in PROTOCOL
       if hasattr(scheduler.TenantScheduler, m)]
    + [
        (catalog.Catalog, "entry", "catalog.entry"),
        # The catalog imports ``decompose`` by name; patch its binding.
        (catalog, "decompose", "core.decompose"),
        # The catalog compiles per cluster; compile_accelerator is the
        # whole-accelerator entry point the offline tool flow uses.
        (compiler.VitalCompiler, "compile_cluster", "vital.compile"),
        (compiler.VitalCompiler, "compile_accelerator", "vital.compile"),
        (codegen._RNNCodegenBase, "build", "isa.codegen"),
        (batching, "run_batched", "accel.batched"),
        (batching, "run_scaleout_batched", "accel.batched"),
        (functional.FunctionalSimulator, "run", "accel.functional"),
        (checkpoint.AcceleratorCheckpoint, "capture", "migration.capture"),
        (checkpoint.AcceleratorCheckpoint, "to_bytes", "migration.encode"),
        (checkpoint.AcceleratorCheckpoint, "from_bytes", "migration.decode"),
        (checkpoint.AcceleratorCheckpoint, "restore", "migration.restore"),
        (synthetic, "generate_workload", "workloads.generate"),
        (arrival, "poisson_arrivals", "workloads.generate"),
        (arrival, "mmpp_arrivals", "workloads.generate"),
    ]
)


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self):
        #: Spans of the current window: (id, parent, name, task, start, end).
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        #: Values read off return values (instructions run, cache hits).
        self.counts: dict = defaultdict(int)
        self.last_pass: list = []
        self._stack: list = []
        self._next_id = 0
        self._saved: list = []

    def reset(self) -> None:
        """Start a new measurement window."""
        self.spans = []
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def end_pass(self) -> None:
        """Fold the pass's span-derived counts into ``counts`` and keep
        only the spans of the next pass (the last pass is what
        :meth:`write` dumps)."""
        entries = {s[0] for s in self.spans if s[2] == "catalog.entry"}
        # A catalog entry that was built (not a cache hit) compiled at
        # least one image, so it is the parent of a vital.compile span.
        built = {s[1] for s in self.spans if s[2] == "vital.compile"}
        self.counts["catalog.entries_built"] += len(entries & built)
        self.last_pass = self.spans
        self.spans = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call under ``name``."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            # [span id, time covered by child spans]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append(
                    # Protocol methods take (self, task, ...): spans of one
                    # task share its id; -1 marks calls without a task.
                    (span_id, parent, name,
                     getattr(args[1], "task_id", -1) if len(args) > 1 else -1,
                     start, end)
                )
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in ``LAYER_ENTRY_POINTS``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in LAYER_ENTRY_POINTS:
            original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
            on_result = _ON_RESULT.get(name)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(name, original.__func__, on_result))
            else:
                patched = self.wrap(name, original, on_result)
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def write(self, path) -> int:
        """Write the last pass's spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span_id, parent, name, task, start, end in self.last_pass:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "task": task, "start_us": round(start * 1e6, 3),
                    "end_us": round(end * 1e6, 3),
                }) + "\n")
        return len(self.last_pass)


def _count_vital(counts, args, result) -> None:
    # compile_cluster returns (image, bitstream, was_cached).
    if isinstance(result, tuple):
        counts["vital.bitstream_lookups"] += 1
        counts["vital.bitstream_hits"] += int(bool(result[2]))


def _count_functional(counts, args, result) -> None:
    counts["accel.functional_instructions"] += result.instructions


def _count_encode(counts, args, result) -> None:
    counts["migration.wire_bytes"] += len(result)


_ON_RESULT = {
    "vital.compile": _count_vital,
    "accel.functional": _count_functional,
    "migration.encode": _count_encode,
}
