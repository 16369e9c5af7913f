"""Functional simulator for the AS ISA.

Executes ISA programs with numpy, reproducing the accelerator's numerical
behaviour: matrix-vector products in block floating point (weights quantised
at ``M_RD``, activations re-quantised per multiply), float16 rounding after
every multi-function-unit operation, and the inter-FPGA synchronisation
module semantics of Fig. 8b for scale-out programs.

The simulator has an explicit program counter and loop stack so execution
can *block* on a synchronisation read; :class:`ScaleOutFabric` co-simulates
several replicas in lockstep, delivering each replica the *combined* hidden
state exactly as the index-register merge in the template module does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..isa.bfp import BFPFormat, DEFAULT_FORMAT, bfp_matvec, bfp_quantize, to_float16
from ..isa.instructions import Instruction, Op
from ..isa.program import Program


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-values))


#: Words per DRAM page (64 Ki words = 512 KiB of float64).
PAGE_WORDS = 1 << 16


def page_spans(addr: int, length: int, page_words: int = PAGE_WORDS):
    """Split a ``length``-word access at ``addr`` into page chunks.

    Yields ``(page_number, page_offset, start, stop)``: words
    ``start:stop`` of the access live at ``page_offset`` of page
    ``page_number``.  The one page model of both the scalar :class:`DRAM`
    and the batched simulator's lane DRAMs.
    """
    if addr < 0:
        raise ExecutionError(f"negative DRAM address {addr}")
    offset = 0
    while offset < length:
        number, page_offset = divmod(addr + offset, page_words)
        chunk = min(length - offset, page_words - page_offset)
        yield number, page_offset, offset, offset + chunk
        offset += chunk


class DRAM:
    """A paged word-addressable vector memory (one float per word).

    ``pages`` maps a page number to its ``PAGE_WORDS`` words; a page is
    allocated on its first write and unwritten words read as zero, so the
    memory holds only the state a program has actually written.
    """

    def __init__(self):
        self.pages: dict[int, np.ndarray] = {}

    def write(self, addr: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        for number, page_offset, start, stop in page_spans(addr, values.size):
            page = self.pages.get(number)
            if page is None:
                page = self.pages[number] = np.zeros(PAGE_WORDS, dtype=np.float64)
            page[page_offset : page_offset + (stop - start)] = values[start:stop]

    def read(self, addr: int, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.float64)
        for number, page_offset, start, stop in page_spans(addr, length):
            page = self.pages.get(number)
            if page is not None:
                out[start:stop] = page[page_offset : page_offset + (stop - start)]
        return out


@dataclass
class SimStats:
    """Dynamic execution counters."""

    instructions: int = 0
    mv_muls: int = 0
    mfu_ops: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    sends: int = 0
    recvs: int = 0
    blocked_polls: int = 0


class ScaleOutFabric:
    """The inter-FPGA synchronisation fabric for ``k`` replicas.

    Each sync address carries one exchanged value.  Sends are FIFOs per
    replica; a receive of the *full* vector succeeds once every replica has
    sent its slice for the receiver's current round, and returns the slices
    concatenated in replica order — the index-register combine of Fig. 8b.
    """

    def __init__(self, replicas: int):
        if replicas < 2:
            raise ExecutionError("a scale-out fabric needs at least 2 replicas")
        self.replicas = replicas
        self._sends: dict = {}  # addr -> list per replica of sent slices
        self._recv_round: dict = {}  # (addr, replica) -> next round index
        self.bytes_transferred = 0

    def send(self, replica: int, addr: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        queues = self._sends.setdefault(
            addr, [[] for _ in range(self.replicas)]
        )
        queues[replica].append(values)
        self.bytes_transferred += values.size * 2  # float16 on the wire

    def try_recv(self, replica: int, addr: int, full_length: int):
        """Return the combined vector or ``None`` when not yet complete."""
        queues = self._sends.get(addr)
        if queues is None:
            return None
        round_index = self._recv_round.get((addr, replica), 0)
        if any(len(queue) <= round_index for queue in queues):
            return None
        # Last-axis concatenation handles both scalar (length,) slices and
        # batched (batch, length) slices from the batched simulator.
        combined = np.concatenate([queue[round_index] for queue in queues], axis=-1)
        if combined.shape[-1] != full_length:
            raise ExecutionError(
                f"sync combine produced {combined.shape[-1]} words, reader "
                f"expected {full_length}"
            )
        self._recv_round[(addr, replica)] = round_index + 1
        return combined

    def pending_rounds(self, addr: int) -> int:
        queues = self._sends.get(addr)
        if not queues:
            return 0
        return min(len(q) for q in queues)


class FunctionalSimulator:
    """Executes one program on one (possibly scaled-down) accelerator."""

    def __init__(
        self,
        program: Program,
        bfp_format: BFPFormat = DEFAULT_FORMAT,
        fabric: ScaleOutFabric | None = None,
        replica_index: int = 0,
        name: str = "",
    ):
        program.validate(allow_sync=fabric is not None)
        self.program = program
        self.fmt = bfp_format
        self.fabric = fabric
        self.replica_index = replica_index
        self.name = name or program.name
        self.dram = DRAM()
        self.vrf: dict[int, np.ndarray] = {}
        self.mrf: dict[int, np.ndarray] = {}
        self.pc = 0
        # Loop stack entries: [start_pc, remaining_trips, iteration_index].
        self.loop_stack: list[list] = []
        self.halted = False
        self.stats = SimStats()

    # -- state access ------------------------------------------------------------

    def vector(self, register: int) -> np.ndarray:
        """Read a vector register (raises when never written)."""
        try:
            return self.vrf[register]
        except KeyError:
            raise ExecutionError(
                f"{self.name}: read of uninitialised vector register v{register}"
            ) from None

    def load_matrix(self, register: int, matrix: np.ndarray) -> None:
        """Host-side direct matrix load (bypasses DRAM; used by tests)."""
        self.mrf[register] = bfp_quantize(np.asarray(matrix, dtype=np.float64), self.fmt)

    # -- execution ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.halted or self.pc >= len(self.program.instructions)

    def _iteration_index(self) -> int:
        """Innermost loop iteration (0 outside loops) — drives strides."""
        return self.loop_stack[-1][2] if self.loop_stack else 0

    def _effective_addr(self, inst: Instruction) -> int:
        stride = int(inst.imm) if inst.op in (Op.V_RD, Op.V_WR) and not inst.is_sync else 0
        return inst.addr + stride * self._iteration_index()

    def step(self) -> str:
        """Execute one instruction; returns ``"ok"``/``"blocked"``/``"halted"``."""
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
        """Run to completion; raises on deadlock (blocked with no fabric
        progress is only resolvable by a co-simulator, see
        :func:`run_scaleout`)."""
        for _ in range(max_steps):
            status = self.step()
            if status == "halted":
                return self.stats
            if status == "blocked":
                raise ExecutionError(
                    f"{self.name}: blocked on sync read at pc={self.pc} "
                    "(run replicas under run_scaleout)"
                )
        raise ExecutionError(f"{self.name}: exceeded {max_steps} steps")

    def run_until_blocked(self, max_steps: int = 100_000_000) -> str:
        """Run until blocked or finished; returns the final status."""
        for _ in range(max_steps):
            status = self.step()
            if status != "ok":
                return status
        raise ExecutionError(f"{self.name}: exceeded {max_steps} steps")

    # -- per-opcode semantics ------------------------------------------------------

    def _execute(self, inst: Instruction) -> str:
        op = inst.op
        if op is Op.V_RD:
            return self._exec_v_rd(inst)
        if op is Op.V_WR:
            return self._exec_v_wr(inst)
        if op is Op.M_RD:
            # M_RD: length = rows, imm = cols (total words = rows * cols).
            rows, cols = inst.length, int(inst.imm)
            if rows <= 0 or cols <= 0:
                raise ExecutionError(
                    f"{self.name}: M_RD needs positive rows ({rows}) and "
                    f"cols ({cols})"
                )
            flat = self.dram.read(inst.addr, rows * cols)
            self.mrf[inst.dst] = bfp_quantize(flat.reshape(rows, cols), self.fmt)
            self.stats.dram_reads += 1
            return "ok"
        if op is Op.MV_MUL:
            matrix = self.mrf.get(inst.ma)
            if matrix is None:
                raise ExecutionError(
                    f"{self.name}: MV_MUL from unloaded matrix m{inst.ma}"
                )
            vec = self.vector(inst.a)
            if matrix.shape[1] != vec.size:
                raise ExecutionError(
                    f"{self.name}: MV_MUL dims {matrix.shape} @ {vec.size}"
                )
            result = bfp_matvec(matrix, vec, self.fmt)
            self.vrf[inst.dst] = to_float16(result)
            self.stats.mv_muls += 1
            return "ok"

        # Multi-function unit operations (float16 rounding on the result).
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
            result = np.full(inst.length, float(inst.imm))
        elif op is Op.V_SLICE:
            offset = int(inst.imm)
            source = self.vector(inst.a)
            if offset + inst.length > source.size:
                raise ExecutionError(f"{self.name}: V_SLICE out of range")
            result = source[offset : offset + inst.length].copy()
        elif op is Op.V_CONCAT:
            result = np.concatenate([self.vector(inst.a), self.vector(inst.b)])
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
            self.fabric.send(self.replica_index, inst.addr, values[: inst.length])
            self.stats.sends += 1
            return "ok"
        self.dram.write(self._effective_addr(inst), values[: inst.length])
        self.stats.dram_writes += 1
        return "ok"


def run_program(program: Program, preload=None, **kwargs) -> FunctionalSimulator:
    """Run a single-accelerator program to completion.

    ``preload(sim)`` may populate DRAM/registers before execution.
    """
    sim = FunctionalSimulator(program, **kwargs)
    if preload is not None:
        preload(sim)
    sim.run()
    return sim


def run_scaleout(programs: list, preload=None, bfp_format: BFPFormat = DEFAULT_FORMAT):
    """Co-simulate scale-out replicas to completion.

    ``programs[i]`` runs as replica ``i``; ``preload(sim, index)`` populates
    each replica's DRAM (each FPGA has its own DRAM with its own copy of
    inputs).  Replicas run round-robin until all finish; a full round with
    no progress is a deadlock and raises :class:`ExecutionError`.
    """
    fabric = ScaleOutFabric(len(programs))
    sims = [
        FunctionalSimulator(
            program, bfp_format=bfp_format, fabric=fabric, replica_index=index
        )
        for index, program in enumerate(programs)
    ]
    if preload is not None:
        for index, sim in enumerate(sims):
            preload(sim, index)

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
    return sims, fabric
