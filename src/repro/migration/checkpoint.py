"""ISA-level architectural snapshots of a running accelerator.

A checkpoint is taken at an instruction boundary and captures exactly the
state the ISA defines: the vector and matrix register files, the program
counter with its loop stack, the replica's written DRAM pages, and the
dynamic execution counters.  For scale-out deployments the synchronisation
fabric is checkpointed alongside the replicas, so slices that were sent but
not yet combined (the in-flight queue) survive the move instead of needing
a barrier drain.

Snapshots are device-type agnostic by construction — nothing in them names
a board or an instance — which is what lets the migration engine resume a
deployment on a different device type using the catalog's per-type image.

The state-size *model* (:func:`architectural_state_bytes`) estimates a
replica's transferable state from the accelerator config (and, when known,
the program's register footprint) without materialising a snapshot; the
migration engine charges ring-transfer time against it.

The wire format (version 2) is binary: an 8-byte magic, the version and
the header length as little-endian uint32s, a JSON header holding the
scalar fields plus a manifest of ``[name, shape]`` per array, then every
array's raw little-endian float64 bytes in manifest order.  Only written
DRAM pages travel, so the blob is sized by the state that exists, not by
the highest address ever touched.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..accel.config import AcceleratorConfig
from ..accel.functional import FunctionalSimulator, ScaleOutFabric, SimStats
from ..errors import ReproError
from ..isa.program import Program

#: Activations travel as float16 on the wire (the network's element size).
ACTIVATION_BYTES = 2
#: Fixed control state: program counter, loop stack, status registers.
CONTROL_STATE_BYTES = 256

_MAGIC = b"REPROCKP"
_SERIAL_VERSION = 2
#: Version and JSON-header length, after the magic.
_PREFIX = struct.Struct("<II")
_WIRE_DTYPE = np.dtype("<f8")


def architectural_state_bytes(
    config: AcceleratorConfig, program: Program | None = None
) -> int:
    """Transferable state of one replica, modelled from its config.

    Three components:

    * the vector register file (float16 activations),
    * the weight state resident in matrix registers / per-tile memory
      (``weight_bits`` per element, as stored on chip),
    * fixed control state (PC, loop stack, status).

    With ``program`` given, the register files are sized to the program's
    static footprint (a snapshot only ships registers the program can have
    written); without it, the architectural maximum from the config is
    used.
    """
    if program is not None:
        footprint = program.register_footprint()
        vector_regs = footprint.vector_registers
        vector_length = footprint.max_vector_length or config.max_vector_length
        matrix_bits = footprint.matrix_words * config.weight_bits
    else:
        vector_regs = config.vector_registers
        vector_length = config.max_vector_length
        # A matrix register holds up to max_vector_length x max_vector_length
        # weights, so the architectural ceiling is quadratic in the length.
        matrix_bits = (
            config.matrix_registers
            * config.max_vector_length ** 2
            * config.weight_bits
        )
    vrf_bytes = vector_regs * vector_length * ACTIVATION_BYTES
    return int(vrf_bytes + matrix_bits // 8 + CONTROL_STATE_BYTES)


def _encode(header: dict, arrays: dict) -> bytes:
    """Serialise ``header`` (JSON-able scalars) and ``arrays`` (name ->
    array) into one version-2 blob."""
    payloads = [np.ascontiguousarray(a, dtype=_WIRE_DTYPE) for a in arrays.values()]
    manifest = [[name, list(a.shape)] for name, a in zip(arrays, payloads)]
    head = json.dumps({**header, "arrays": manifest}).encode()
    return b"".join(
        [_MAGIC, _PREFIX.pack(_SERIAL_VERSION, len(head)), head, *payloads]
    )


@contextmanager
def _well_formed(what: str):
    """Report a blob that decodes into the wrong structure as a
    :class:`ReproError` rather than the lookup/conversion error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ReproError(f"malformed {what}: {exc!r}") from None


def _decode(blob: bytes) -> tuple:
    """``(header, arrays)`` of a blob written by :func:`_encode`.

    Arrays are copied out of ``blob``, so none of them aliases it.
    """
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ReproError(
            f"not a version-{_SERIAL_VERSION} checkpoint blob "
            f"(starts {blob[:len(_MAGIC)]!r})"
        )
    start = len(_MAGIC) + _PREFIX.size
    if len(blob) < start:
        raise ReproError(f"checkpoint blob truncated to {len(blob)} bytes")
    version, head_length = _PREFIX.unpack_from(blob, len(_MAGIC))
    if version != _SERIAL_VERSION:
        raise ReproError(
            f"unsupported checkpoint version {version} "
            f"(expected {_SERIAL_VERSION})"
        )
    offset = start + head_length
    with _well_formed("checkpoint header"):
        header = json.loads(blob[start:offset])
        manifest = [
            (str(name), tuple(int(n) for n in shape))
            for name, shape in header.pop("arrays")
        ]
        if any(n < 0 for _, shape in manifest for n in shape):
            raise ValueError("negative array dimension")
    sizes = [math.prod(shape) for _, shape in manifest]
    expected = offset + _WIRE_DTYPE.itemsize * sum(sizes)
    if len(blob) != expected:
        raise ReproError(
            f"checkpoint blob is {len(blob)} bytes, its manifest "
            f"describes {expected}"
        )
    arrays = {}
    for (name, shape), size in zip(manifest, sizes):
        arrays[name] = np.frombuffer(
            blob, dtype=_WIRE_DTYPE, count=size, offset=offset
        ).reshape(shape).copy()
        offset += size * _WIRE_DTYPE.itemsize
    if len(arrays) != len(manifest):
        raise ReproError("checkpoint manifest repeats an array name")
    return header, arrays


@dataclass
class AcceleratorCheckpoint:
    """One replica's architectural state at an instruction boundary."""

    program_name: str
    replica_index: int
    pc: int
    halted: bool
    #: Loop stack frames ``[start_pc, remaining_trips, iteration_index]``.
    loop_stack: list = field(default_factory=list)
    vrf: dict = field(default_factory=dict)
    #: Matrix registers as ``index -> (rows x cols) array`` (BFP-quantised
    #: values exactly as resident on chip).
    mrf: dict = field(default_factory=dict)
    #: Written DRAM pages as ``page_number -> (PAGE_WORDS,) array``.
    dram: dict = field(default_factory=dict)
    stats: SimStats = field(default_factory=SimStats)

    # -- capture/restore -----------------------------------------------------

    @classmethod
    def capture(cls, sim: FunctionalSimulator) -> "AcceleratorCheckpoint":
        """Snapshot ``sim`` between instructions (any PC is a boundary)."""
        return cls(
            program_name=sim.program.name,
            replica_index=sim.replica_index,
            pc=sim.pc,
            halted=sim.halted,
            loop_stack=[list(frame) for frame in sim.loop_stack],
            vrf={index: values.copy() for index, values in sim.vrf.items()},
            mrf={index: values.copy() for index, values in sim.mrf.items()},
            dram={number: page.copy() for number, page in sim.dram.pages.items()},
            stats=SimStats(**vars(sim.stats)),
        )

    def restore(
        self,
        program: Program,
        fabric: ScaleOutFabric | None = None,
        **kwargs,
    ) -> FunctionalSimulator:
        """Rebuild a simulator resuming at the captured boundary.

        ``program`` must be the same program the snapshot was taken from
        (the checkpoint is positional state over its instruction stream);
        the hosting board/device type is free to differ.
        """
        if program.name != self.program_name:
            raise ReproError(
                f"checkpoint of {self.program_name!r} cannot resume "
                f"{program.name!r}"
            )
        sim = FunctionalSimulator(
            program, fabric=fabric, replica_index=self.replica_index, **kwargs
        )
        sim.pc = self.pc
        sim.halted = self.halted
        sim.loop_stack = [list(frame) for frame in self.loop_stack]
        sim.vrf = {index: values.copy() for index, values in self.vrf.items()}
        sim.mrf = {index: values.copy() for index, values in self.mrf.items()}
        sim.dram.pages = {number: page.copy() for number, page in self.dram.items()}
        sim.stats = SimStats(**vars(self.stats))
        return sim

    # -- serialisation -------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = {
            "program_name": self.program_name,
            "replica_index": self.replica_index,
            "pc": self.pc,
            "halted": self.halted,
            "loop_stack": [list(frame) for frame in self.loop_stack],
            "stats": vars(self.stats),
        }
        arrays = {}
        for kind in ("vrf", "mrf", "dram"):
            for index, values in getattr(self, kind).items():
                arrays[f"{kind}/{index}"] = values
        return _encode(header, arrays)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AcceleratorCheckpoint":
        header, arrays = _decode(blob)
        with _well_formed("accelerator checkpoint"):
            state = {"vrf": {}, "mrf": {}, "dram": {}}
            for name, values in arrays.items():
                kind, index = name.split("/")
                state[kind][int(index)] = values
            return cls(
                program_name=header["program_name"],
                replica_index=header["replica_index"],
                pc=header["pc"],
                halted=header["halted"],
                loop_stack=[list(frame) for frame in header["loop_stack"]],
                stats=SimStats(**header["stats"]),
                **state,
            )

    def payload_bytes(self) -> int:
        """Measured serialised size (the model above estimates this)."""
        return len(self.to_bytes())


@dataclass
class FabricCheckpoint:
    """In-flight synchronisation state of a scale-out deployment.

    Captures every sent-but-uncombined slice and each replica's receive
    round, so checkpointing does not require the replicas to reach a
    barrier first — the queue contents migrate with the deployment.
    """

    replicas: int
    #: ``addr -> per-replica list of pending slices``.
    sends: dict = field(default_factory=dict)
    #: ``(addr, replica) -> next receive round`` as a flat list of triples.
    recv_rounds: list = field(default_factory=list)
    bytes_transferred: int = 0

    @classmethod
    def capture(cls, fabric: ScaleOutFabric) -> "FabricCheckpoint":
        return cls(
            replicas=fabric.replicas,
            sends={
                addr: [[s.copy() for s in queue] for queue in queues]
                for addr, queues in fabric._sends.items()
            },
            recv_rounds=[
                [addr, replica, round_index]
                for (addr, replica), round_index in fabric._recv_round.items()
            ],
            bytes_transferred=fabric.bytes_transferred,
        )

    def restore(self) -> ScaleOutFabric:
        fabric = ScaleOutFabric(self.replicas)
        fabric._sends = {
            addr: [[s.copy() for s in queue] for queue in queues]
            for addr, queues in self.sends.items()
        }
        fabric._recv_round = {
            (addr, replica): round_index
            for addr, replica, round_index in self.recv_rounds
        }
        fabric.bytes_transferred = self.bytes_transferred
        return fabric

    def to_bytes(self) -> bytes:
        header = {
            "replicas": self.replicas,
            "queue_lengths": {
                str(addr): [len(queue) for queue in queues]
                for addr, queues in self.sends.items()
            },
            "recv_rounds": self.recv_rounds,
            "bytes_transferred": self.bytes_transferred,
        }
        arrays = {
            f"sends/{addr}/{replica}/{position}": values
            for addr, queues in self.sends.items()
            for replica, queue in enumerate(queues)
            for position, values in enumerate(queue)
        }
        return _encode(header, arrays)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FabricCheckpoint":
        header, arrays = _decode(blob)
        with _well_formed("fabric checkpoint"):
            return cls(
                replicas=header["replicas"],
                sends={
                    int(addr): [
                        [arrays[f"sends/{addr}/{replica}/{position}"]
                         for position in range(length)]
                        for replica, length in enumerate(lengths)
                    ]
                    for addr, lengths in header["queue_lengths"].items()
                },
                recv_rounds=[list(t) for t in header["recv_rounds"]],
                bytes_transferred=header["bytes_transferred"],
            )


def checkpoint_scaleout(sims: list, fabric: ScaleOutFabric) -> tuple:
    """Snapshot every replica plus the fabric of one scale-out deployment."""
    return (
        [AcceleratorCheckpoint.capture(sim) for sim in sims],
        FabricCheckpoint.capture(fabric),
    )


def restore_scaleout(
    checkpoints: list, fabric_checkpoint: FabricCheckpoint, programs: list, **kwargs
) -> tuple:
    """Rebuild the replica simulators and fabric from their snapshots."""
    if len(checkpoints) != len(programs):
        raise ReproError(
            f"{len(checkpoints)} checkpoints for {len(programs)} programs"
        )
    fabric = fabric_checkpoint.restore()
    sims = [
        checkpoint.restore(program, fabric=fabric, **kwargs)
        for checkpoint, program in zip(checkpoints, programs)
    ]
    return sims, fabric
