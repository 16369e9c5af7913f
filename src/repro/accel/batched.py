"""Batched (SIMD-over-requests) functional simulation.

:class:`~repro.accel.functional.FunctionalSimulator` executes one
instruction of one request at a time — the validation style, not a serving
engine.  This module stacks the architectural state of ``N`` concurrent
requests to *identical deployments* (same decoded :class:`Program`, same
control flow) into numpy arrays with a leading batch axis and executes one
vectorized step over the whole batch: the Python dispatch, BFP
quantisation, MFU elementwise work and the matrix reads are all amortised
``N``-wide.

Bit-identity contract
---------------------

Batched execution produces *bit-identical* architectural state to running
each lane through the scalar simulator:

* Elementwise paths (MFU ops, activations, float16 rounding) and the
  blockwise BFP quantisation operate along the last axis, so a ``(N, L)``
  batch computes exactly the per-lane values.
* ``MV_MUL`` is the one place a faster algorithm (one dgemm for the batch
  instead of ``N`` dgemv calls) can legally reorder float summation.  The
  batched path runs the dgemm, then applies a *rounding-boundary guard*:
  a rigorous forward error bound ``E`` on the difference between any two
  float64 summation orders is computed per output element, and any element
  whose interval ``[v - E, v + E]`` straddles a float16 rounding boundary
  is recomputed with the exact scalar dgemv (``matrix @ lane``).  Because
  the architectural result of ``MV_MUL`` is the float16-rounded value, all
  unflagged elements provably round to the same float16 as the scalar
  path, and flagged elements (empirically ~1e-9 of outputs) are taken from
  the scalar computation verbatim.

Memory
------

Lane DRAMs are paged (:class:`BatchedDRAM`, on the scalar
:class:`~repro.accel.functional.DRAM`'s page model): pages written
identically to every lane (the weight/bias image of an identical
deployment) are stored once and shared; only lane-varying pages (inputs,
outputs) are materialised per lane.  A shared matrix region loads into
one ``(rows, cols)`` MRF entry consumed by the dgemm fast path — the
in-simulator analogue of amortising one compiled artifact across many
requests.

Fallback
--------

:func:`run_batched` falls back to the scalar simulator for singleton
batches (``N == 1``) and on request (``force_scalar=True``, used by the
runtime when a coalescing group degenerates); divergence cannot arise
within a batch because the ISA has no data-dependent control flow — lanes
of one program execute in lockstep by construction.  Scale-out programs
run under :func:`run_scaleout_batched`, which co-simulates ``k`` replica
simulators, each ``N`` lanes wide, over one fabric.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..isa.bfp import BFPFormat, DEFAULT_FORMAT, bfp_matvec, bfp_quantize, to_float16
from ..isa.instructions import Instruction, Op
from ..isa.program import Program
from ..perf.profiling import PROFILER
from .functional import (
    PAGE_WORDS,
    FunctionalSimulator,
    ScaleOutFabric,
    SimStats,
    _sigmoid,
    page_spans,
)

#: Float64 unit roundoff.
_UNIT = 2.0 ** -53


def _gamma(terms: int) -> float:
    """Worst-case relative error factor for a float64 sum/dot of ``terms``
    terms under *any* summation order (sequential, pairwise, blocked,
    FMA): ``gamma_n = n*u / (1 - n*u)``, padded with one extra term for
    the product roundings and doubled once more for slack — the guard is
    a correctness gate, so it is deliberately loose."""
    nu = (terms + 2) * _UNIT
    return 2.0 * nu / (1.0 - nu)


class BatchedDRAM:
    """``batch`` lane DRAMs with copy-on-diverge page sharing.

    Pages written identically to every lane (broadcast writes: the weight
    image of an identical deployment) are stored once as ``(PAGE,)``
    arrays; a lane-targeted or per-lane write promotes the page to a
    ``(batch, PAGE)`` array.  Reads return ``(batch, length)``; callers
    that can exploit sharing (``M_RD``) use :meth:`read_shared`, which
    returns ``(length,)`` when every touched page is still shared.
    """

    def __init__(self, batch: int, page_words: int = PAGE_WORDS):
        if batch < 1:
            raise ExecutionError("BatchedDRAM needs a positive batch size")
        self.batch = batch
        self.page_words = page_words
        self._shared: dict[int, np.ndarray] = {}
        self._laned: dict[int, np.ndarray] = {}

    # -- page helpers --------------------------------------------------------

    def _lane_page(self, number: int) -> np.ndarray:
        """The ``(batch, PAGE)`` array for one page, promoting as needed."""
        page = self._laned.get(number)
        if page is None:
            page = np.zeros((self.batch, self.page_words), dtype=np.float64)
            shared = self._shared.pop(number, None)
            if shared is not None:
                page[:] = shared
            self._laned[number] = page
        return page

    def _spans(self, addr: int, length: int):
        return page_spans(addr, length, self.page_words)

    # -- writes --------------------------------------------------------------

    def write(self, addr: int, values: np.ndarray, lane: int | None = None) -> None:
        """Write ``values`` at ``addr``.

        * ``values`` of shape ``(length,)`` with ``lane=None`` is a
          *broadcast* write: every lane sees it (stored shared unless the
          page already diverged).
        * ``values`` of shape ``(batch, length)`` writes per lane.
        * ``lane=i`` writes one lane only (promotes touched pages).
        """
        values = np.asarray(values, dtype=np.float64)
        if lane is not None:
            if values.ndim != 1:
                values = values.ravel()
            if not 0 <= lane < self.batch:
                raise ExecutionError(f"lane {lane} out of range 0..{self.batch - 1}")
            for number, page_offset, start, stop in self._spans(addr, values.size):
                page = self._lane_page(number)
                page[lane, page_offset : page_offset + (stop - start)] = values[start:stop]
            return
        if values.ndim == 1:
            for number, page_offset, start, stop in self._spans(addr, values.size):
                width = stop - start
                laned = self._laned.get(number)
                if laned is not None:
                    laned[:, page_offset : page_offset + width] = values[start:stop]
                else:
                    page = self._shared.get(number)
                    if page is None:
                        page = self._shared[number] = np.zeros(
                            self.page_words, dtype=np.float64
                        )
                    page[page_offset : page_offset + width] = values[start:stop]
            return
        if values.shape[0] != self.batch:
            raise ExecutionError(
                f"batched write of {values.shape[0]} lanes into a "
                f"{self.batch}-lane DRAM"
            )
        length = values.shape[1]
        for number, page_offset, start, stop in self._spans(addr, length):
            page = self._lane_page(number)
            page[:, page_offset : page_offset + (stop - start)] = values[:, start:stop]

    # -- reads ---------------------------------------------------------------

    def _touched_all_shared(self, addr: int, length: int) -> bool:
        return all(
            number not in self._laned
            for number, _po, _s, _e in self._spans(addr, length)
        )

    def read_shared(self, addr: int, length: int) -> np.ndarray:
        """``(length,)`` when every touched page is shared across lanes,
        else the full ``(batch, length)`` stack."""
        if self._touched_all_shared(addr, length):
            out = np.zeros(length, dtype=np.float64)
            for number, page_offset, start, stop in self._spans(addr, length):
                page = self._shared.get(number)
                if page is not None:
                    out[start:stop] = page[page_offset : page_offset + (stop - start)]
            return out
        return self.read(addr, length)

    def read(self, addr: int, length: int) -> np.ndarray:
        """The ``(batch, length)`` stack at ``addr`` (shared pages are
        broadcast; unwritten words read as zero)."""
        out = np.zeros((self.batch, length), dtype=np.float64)
        for number, page_offset, start, stop in self._spans(addr, length):
            width = stop - start
            laned = self._laned.get(number)
            if laned is not None:
                out[:, start:stop] = laned[:, page_offset : page_offset + width]
                continue
            shared = self._shared.get(number)
            if shared is not None:
                out[:, start:stop] = shared[page_offset : page_offset + width]
        return out

    def lane_read(self, lane: int, addr: int, length: int) -> np.ndarray:
        """One lane's ``(length,)`` view of ``addr`` (copy)."""
        if not 0 <= lane < self.batch:
            raise ExecutionError(f"lane {lane} out of range 0..{self.batch - 1}")
        out = np.zeros(length, dtype=np.float64)
        for number, page_offset, start, stop in self._spans(addr, length):
            width = stop - start
            laned = self._laned.get(number)
            if laned is not None:
                out[start:stop] = laned[lane, page_offset : page_offset + width]
                continue
            shared = self._shared.get(number)
            if shared is not None:
                out[start:stop] = shared[page_offset : page_offset + width]
        return out

    @property
    def resident_bytes(self) -> int:
        """Actual storage held (the sharing win is visible here)."""
        shared = len(self._shared) * self.page_words * 8
        laned = len(self._laned) * self.page_words * self.batch * 8
        return shared + laned


class LaneView:
    """A per-lane facade over a batched simulator.

    Exposes the subset of the scalar simulator surface that preload
    callables use (``.dram.write/.read`` and ``.load_matrix``), mapping
    every access to one lane — existing ``preload(sim, ...)`` functions
    work unchanged, one lane at a time.
    """

    class _LaneDRAM:
        def __init__(self, dram: BatchedDRAM, lane: int):
            self._dram = dram
            self._lane = lane

        def write(self, addr: int, values: np.ndarray) -> None:
            self._dram.write(addr, np.asarray(values, dtype=np.float64).ravel(),
                             lane=self._lane)

        def read(self, addr: int, length: int) -> np.ndarray:
            return self._dram.lane_read(self._lane, addr, length)

    def __init__(self, sim: "BatchedFunctionalSimulator", lane: int):
        self._sim = sim
        self.lane = lane
        self.dram = self._LaneDRAM(sim.dram, lane)

    def load_matrix(self, register: int, matrix: np.ndarray) -> None:
        self._sim.load_matrix(register, matrix, lane=self.lane)


class SharedView:
    """Broadcast facade: writes land identically in every lane (stored
    once).  Hand this to weight preloads of identical deployments."""

    class _SharedDRAM:
        def __init__(self, dram: BatchedDRAM):
            self._dram = dram

        def write(self, addr: int, values: np.ndarray) -> None:
            self._dram.write(addr, np.asarray(values, dtype=np.float64).ravel())

        def read(self, addr: int, length: int) -> np.ndarray:
            return self._dram.read_shared(addr, length)

    def __init__(self, sim: "BatchedFunctionalSimulator"):
        self._sim = sim
        self.dram = self._SharedDRAM(sim.dram)

    def load_matrix(self, register: int, matrix: np.ndarray) -> None:
        self._sim.load_matrix(register, matrix)


class BatchedFunctionalSimulator:
    """Executes one program over ``batch`` lanes in lockstep.

    Mirrors :class:`FunctionalSimulator` exactly, with every vector
    register a ``(batch, length)`` array.  Matrix registers stay shared
    ``(rows, cols)`` arrays while their DRAM source is lane-identical
    (the common case), unlocking the guarded-dgemm ``MV_MUL`` path; a
    lane-divergent matrix region degrades that register to ``(batch,
    rows, cols)`` with per-lane dgemv — bit-identical either way.
    """

    def __init__(
        self,
        program: Program,
        batch: int,
        bfp_format: BFPFormat = DEFAULT_FORMAT,
        fabric: ScaleOutFabric | None = None,
        replica_index: int = 0,
        name: str = "",
    ):
        if batch < 1:
            raise ExecutionError("batched simulation needs a positive batch")
        program.validate(allow_sync=fabric is not None)
        self.program = program
        self.batch = batch
        self.fmt = bfp_format
        self.fabric = fabric
        self.replica_index = replica_index
        self.name = name or f"{program.name}[x{batch}]"
        self.dram = BatchedDRAM(batch)
        self.vrf: dict[int, np.ndarray] = {}
        #: register -> (rows, cols) shared or (batch, rows, cols) per lane.
        self.mrf: dict[int, np.ndarray] = {}
        #: register -> per-row sum of |matrix| (shared matrices only) —
        #: one factor of the MV_MUL rounding-boundary guard.
        self._row_abs: dict[int, np.ndarray] = {}
        self.pc = 0
        self.loop_stack: list[list] = []
        self.halted = False
        self.stats = SimStats()
        #: Output elements the boundary guard sent to the exact scalar
        #: path (observability: expected to stay ~0).
        self.guard_recomputed = 0

    # -- state access --------------------------------------------------------

    def lane(self, index: int) -> LaneView:
        return LaneView(self, index)

    def shared(self) -> SharedView:
        return SharedView(self)

    def vector(self, register: int) -> np.ndarray:
        """The ``(batch, length)`` stack of one vector register."""
        try:
            return self.vrf[register]
        except KeyError:
            raise ExecutionError(
                f"{self.name}: read of uninitialised vector register v{register}"
            ) from None

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.vector(register)[lane]

    def load_matrix(self, register: int, matrix: np.ndarray,
                    lane: int | None = None) -> None:
        """Host-side direct matrix load (bypasses DRAM; tests/tools)."""
        quantised = bfp_quantize(np.asarray(matrix, dtype=np.float64), self.fmt)
        if lane is None:
            self.mrf[register] = quantised
            self._row_abs[register] = np.abs(quantised).sum(axis=1)
            return
        current = self.mrf.get(register)
        if current is None or current.ndim == 2:
            stack = np.zeros((self.batch, *quantised.shape), dtype=np.float64)
            if current is not None and current.shape == quantised.shape:
                stack[:] = current
            self.mrf[register] = stack
            self._row_abs.pop(register, None)
        self.mrf[register][lane] = quantised

    # -- execution -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.halted or self.pc >= len(self.program.instructions)

    def _iteration_index(self) -> int:
        return self.loop_stack[-1][2] if self.loop_stack else 0

    def _effective_addr(self, inst: Instruction) -> int:
        stride = int(inst.imm) if inst.op in (Op.V_RD, Op.V_WR) and not inst.is_sync else 0
        return inst.addr + stride * self._iteration_index()

    def step(self) -> str:
        """One batched instruction; ``"ok"``/``"blocked"``/``"halted"``."""
        if self.finished:
            return "halted"
        inst = self.program.instructions[self.pc]
        op = inst.op

        if op is Op.LOOP:
            self.loop_stack.append([self.pc + 1, int(inst.imm), 0])
            self.pc += 1
            return "ok"
        if op is Op.ENDLOOP:
            if not self.loop_stack:
                raise ExecutionError(f"{self.name}: ENDLOOP with empty loop stack")
            frame = self.loop_stack[-1]
            frame[1] -= 1
            frame[2] += 1
            if frame[1] > 0:
                self.pc = frame[0]
            else:
                self.loop_stack.pop()
                self.pc += 1
            return "ok"
        if op is Op.HALT:
            self.halted = True
            return "halted"
        if op is Op.NOP:
            self.pc += 1
            self.stats.instructions += 1
            return "ok"

        status = self._execute(inst)
        if status == "blocked":
            self.stats.blocked_polls += 1
            return "blocked"
        self.pc += 1
        self.stats.instructions += 1
        return "ok"

    def run(self, max_steps: int = 100_000_000) -> SimStats:
        for _ in range(max_steps):
            status = self.step()
            if status == "halted":
                return self.stats
            if status == "blocked":
                raise ExecutionError(
                    f"{self.name}: blocked on sync read at pc={self.pc} "
                    "(run replicas under run_scaleout_batched)"
                )
        raise ExecutionError(f"{self.name}: exceeded {max_steps} steps")

    def run_until_blocked(self, max_steps: int = 100_000_000) -> str:
        for _ in range(max_steps):
            status = self.step()
            if status != "ok":
                return status
        raise ExecutionError(f"{self.name}: exceeded {max_steps} steps")

    # -- MV_MUL: guarded dgemm ----------------------------------------------

    def _matvec_shared(self, matrix: np.ndarray, row_abs: np.ndarray,
                       vecs: np.ndarray) -> np.ndarray:
        """``(batch, rows)`` batched matrix-vector product, bit-identical
        (post float16 rounding) to per-lane ``bfp_matvec``.

        One dgemm computes all lanes; the rounding-boundary guard then
        recomputes — with the *exact* scalar dgemv — every element whose
        error interval could round differently in float16.
        """
        quantised = bfp_quantize(vecs, self.fmt)
        # ``A @ X.T`` lets BLAS read the row-major matrix without a
        # transpose (faster than ``X @ A.T``); ``.T`` is a free view.
        out = (matrix @ quantised.T).T
        # Per-element bound on |any-order dot - this dot|:
        #   E = 2 * gamma(cols) * max|x_lane| * sum_k |A[row, k]|
        bound = _gamma(matrix.shape[1]) * np.abs(quantised).max(
            axis=1, keepdims=True
        ) * row_abs[None, :]
        lo = (out - bound).astype(np.float16)
        hi = (out + bound).astype(np.float16)
        ambiguous = lo != hi
        # NaN/inf compare unequal to themselves -> recomputed exactly.
        risky = np.nonzero(ambiguous.any(axis=1))[0]
        for lane in risky:
            exact = matrix @ quantised[lane]
            mask = ambiguous[lane]
            out[lane, mask] = exact[mask]
            self.guard_recomputed += int(mask.sum())
            PROFILER.incr("batched.guard_recomputes", int(mask.sum()))
        return out

    # -- per-opcode semantics ------------------------------------------------

    def _execute(self, inst: Instruction) -> str:
        op = inst.op
        if op is Op.V_RD:
            return self._exec_v_rd(inst)
        if op is Op.V_WR:
            return self._exec_v_wr(inst)
        if op is Op.M_RD:
            rows, cols = inst.length, int(inst.imm)
            if rows <= 0 or cols <= 0:
                raise ExecutionError(
                    f"{self.name}: M_RD needs positive rows ({rows}) and "
                    f"cols ({cols})"
                )
            flat = self.dram.read_shared(inst.addr, rows * cols)
            if flat.ndim == 1:
                matrix = bfp_quantize(flat.reshape(rows, cols), self.fmt)
                self.mrf[inst.dst] = matrix
                self._row_abs[inst.dst] = np.abs(matrix).sum(axis=1)
            else:
                self.mrf[inst.dst] = bfp_quantize(
                    flat.reshape(self.batch, rows, cols), self.fmt
                )
                self._row_abs.pop(inst.dst, None)
            self.stats.dram_reads += 1
            return "ok"
        if op is Op.MV_MUL:
            matrix = self.mrf.get(inst.ma)
            if matrix is None:
                raise ExecutionError(
                    f"{self.name}: MV_MUL from unloaded matrix m{inst.ma}"
                )
            vecs = self.vector(inst.a)
            if matrix.shape[-1] != vecs.shape[-1]:
                raise ExecutionError(
                    f"{self.name}: MV_MUL dims {matrix.shape} @ {vecs.shape[-1]}"
                )
            if matrix.ndim == 2:
                result = self._matvec_shared(
                    matrix, self._row_abs[inst.ma], vecs
                )
            else:
                # Lane-divergent matrices: the exact scalar path per lane.
                result = np.stack([
                    bfp_matvec(matrix[lane], vecs[lane], self.fmt)
                    for lane in range(self.batch)
                ])
            self.vrf[inst.dst] = to_float16(result)
            self.stats.mv_muls += 1
            return "ok"

        self.stats.mfu_ops += 1
        if op is Op.VV_ADD:
            result = self.vector(inst.a) + self.vector(inst.b)
        elif op is Op.VV_SUB:
            result = self.vector(inst.a) - self.vector(inst.b)
        elif op is Op.VV_MUL:
            result = self.vector(inst.a) * self.vector(inst.b)
        elif op is Op.V_SIGM:
            result = _sigmoid(self.vector(inst.a))
        elif op is Op.V_TANH:
            result = np.tanh(self.vector(inst.a))
        elif op is Op.V_RELU:
            result = np.maximum(self.vector(inst.a), 0.0)
        elif op is Op.V_COPY:
            result = self.vector(inst.a).copy()
        elif op is Op.V_FILL:
            result = np.full((self.batch, inst.length), float(inst.imm))
        elif op is Op.V_SLICE:
            offset = int(inst.imm)
            source = self.vector(inst.a)
            if offset + inst.length > source.shape[-1]:
                raise ExecutionError(f"{self.name}: V_SLICE out of range")
            result = source[:, offset : offset + inst.length].copy()
        elif op is Op.V_CONCAT:
            result = np.concatenate(
                [self.vector(inst.a), self.vector(inst.b)], axis=-1
            )
        else:  # pragma: no cover - exhaustive over Op
            raise ExecutionError(f"{self.name}: unimplemented opcode {op}")
        self.vrf[inst.dst] = to_float16(result)
        return "ok"

    def _exec_v_rd(self, inst: Instruction) -> str:
        if inst.is_sync:
            if self.fabric is None:
                raise ExecutionError(
                    f"{self.name}: sync read without a scale-out fabric"
                )
            combined = self.fabric.try_recv(self.replica_index, inst.addr, inst.length)
            if combined is None:
                return "blocked"
            self.vrf[inst.dst] = combined
            self.stats.recvs += 1
            return "ok"
        self.vrf[inst.dst] = self.dram.read(self._effective_addr(inst), inst.length)
        self.stats.dram_reads += 1
        return "ok"

    def _exec_v_wr(self, inst: Instruction) -> str:
        values = self.vector(inst.a)
        if inst.is_sync:
            if self.fabric is None:
                raise ExecutionError(
                    f"{self.name}: sync write without a scale-out fabric"
                )
            self.fabric.send(self.replica_index, inst.addr, values[:, : inst.length])
            self.stats.sends += 1
            return "ok"
        self.dram.write(self._effective_addr(inst), values[:, : inst.length])
        self.stats.dram_writes += 1
        return "ok"


class ScalarLanes:
    """Scalar-simulator fallback behind the batched read API.

    Runs each lane through its own :class:`FunctionalSimulator` (the exact
    scalar path) and exposes the ``(batch, ...)``-shaped accessors that
    callers of :func:`run_batched` consume — singleton batches and forced
    fallbacks go through here.
    """

    fallback = True

    def __init__(self, sims: list):
        self.sims = sims
        self.batch = len(sims)

    def vector(self, register: int) -> np.ndarray:
        return np.stack([sim.vector(register) for sim in self.sims])

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.sims[lane].vector(register)

    def dram_read(self, addr: int, length: int) -> np.ndarray:
        return np.stack([sim.dram.read(addr, length) for sim in self.sims])

    def lane_dram_read(self, lane: int, addr: int, length: int) -> np.ndarray:
        return self.sims[lane].dram.read(addr, length)

    @property
    def stats(self) -> SimStats:
        merged = SimStats()
        for sim in self.sims:
            merged.instructions += sim.stats.instructions
            merged.mv_muls += sim.stats.mv_muls
            merged.mfu_ops += sim.stats.mfu_ops
            merged.dram_reads += sim.stats.dram_reads
            merged.dram_writes += sim.stats.dram_writes
        return merged


class _BatchedLanes:
    """Uniform read API over a finished :class:`BatchedFunctionalSimulator`."""

    fallback = False

    def __init__(self, sim: BatchedFunctionalSimulator):
        self.sim = sim
        self.batch = sim.batch

    def vector(self, register: int) -> np.ndarray:
        return self.sim.vector(register)

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.sim.vector(register)[lane]

    def dram_read(self, addr: int, length: int) -> np.ndarray:
        return self.sim.dram.read(addr, length)

    def lane_dram_read(self, lane: int, addr: int, length: int) -> np.ndarray:
        return self.sim.dram.lane_read(lane, addr, length)

    @property
    def stats(self) -> SimStats:
        return self.sim.stats


def run_batched(
    program: Program,
    lane_preloads: list,
    shared_preload=None,
    bfp_format: BFPFormat = DEFAULT_FORMAT,
    force_scalar: bool = False,
    max_steps: int = 100_000_000,
):
    """Run ``len(lane_preloads)`` requests of one program to completion.

    ``shared_preload(view)`` writes lane-identical state (weights) once;
    ``lane_preloads[i](view)`` writes lane ``i``'s inputs.  Both receive a
    view exposing ``.dram.write/.read`` and ``.load_matrix``.  Returns an
    object with ``vector``/``lane_vector``/``dram_read``/``lane_dram_read``
    and a ``fallback`` flag.

    Falls back to the scalar simulator for singleton batches and when
    ``force_scalar`` is set — the fallback executes the identical scalar
    code path, so outputs are trivially bit-identical.
    """
    batch = len(lane_preloads)
    if batch < 1:
        raise ExecutionError("run_batched needs at least one lane")
    if batch == 1 or force_scalar:
        PROFILER.incr("batched.scalar_fallbacks")
        sims = []
        for preload in lane_preloads:
            sim = FunctionalSimulator(program, bfp_format=bfp_format)
            if shared_preload is not None:
                shared_preload(sim)
            preload(sim)
            sim.run(max_steps)
            sims.append(sim)
        return ScalarLanes(sims)
    sim = BatchedFunctionalSimulator(program, batch, bfp_format=bfp_format)
    if shared_preload is not None:
        shared_preload(sim.shared())
    for lane, preload in enumerate(lane_preloads):
        preload(sim.lane(lane))
    sim.run(max_steps)
    PROFILER.incr("batched.runs")
    PROFILER.incr("batched.lanes", batch)
    return _BatchedLanes(sim)


def run_scaleout_batched(
    programs: list,
    lane_preloads: list,
    shared_preload=None,
    bfp_format: BFPFormat = DEFAULT_FORMAT,
):
    """Co-simulate ``len(programs)`` scale-out replicas, each
    ``len(lane_preloads)`` lanes wide, over one fabric.

    ``shared_preload(view, replica_index)`` and
    ``lane_preloads[lane](view, replica_index)`` populate each replica's
    DRAM (every FPGA holds its own image).  Lanes run in lockstep: the
    fabric exchanges ``(batch, length)`` slices, so the combined hidden
    state arrives per lane exactly as in the scalar co-simulation.
    Returns ``(lanes_per_replica, fabric)``.
    """
    batch = len(lane_preloads)
    if batch < 1:
        raise ExecutionError("run_scaleout_batched needs at least one lane")
    fabric = ScaleOutFabric(len(programs))
    sims = [
        BatchedFunctionalSimulator(
            program, batch, bfp_format=bfp_format, fabric=fabric,
            replica_index=index,
        )
        for index, program in enumerate(programs)
    ]
    for index, sim in enumerate(sims):
        if shared_preload is not None:
            shared_preload(sim.shared(), index)
        for lane, preload in enumerate(lane_preloads):
            preload(sim.lane(lane), index)

    while not all(sim.finished for sim in sims):
        progressed = False
        for sim in sims:
            if sim.finished:
                continue
            before = sim.stats.instructions
            status = sim.run_until_blocked()
            if sim.stats.instructions > before or status == "halted":
                progressed = True
        if not progressed:
            stuck = [sim.name for sim in sims if not sim.finished]
            raise ExecutionError(f"scale-out deadlock; blocked replicas: {stuck}")
    PROFILER.incr("batched.scaleout_runs")
    PROFILER.incr("batched.lanes", batch * len(programs))
    return [_BatchedLanes(sim) for sim in sims], fabric
