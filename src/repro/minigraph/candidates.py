"""Mini-graph candidate enumeration.

Candidates are contiguous instruction groups within a basic block that
satisfy the singleton interface of §2: at most four instructions, at most
three external register inputs, at most one live register output, at most
one memory operation, and at most one control transfer (which must be the
final constituent). Constituents are simple-ALU operations plus the
optional memory/branch operation; complex (multiply/divide class)
operations execute on the dedicated complex port and are not aggregated.

The contiguity requirement is a simplification relative to the original
mini-graphs work (which permitted in-block code motion); it affects
absolute coverage but not the serialization phenomena under study.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..isa import opcodes as oc
from ..isa.program import Program
from .dataflow import group_interface, internal_edges, liveness
from .serialization import SerializationClass, classify

MAX_MG_SIZE = 4
MAX_EXT_INPUTS = 3


class Candidate:
    """One static mini-graph candidate: instructions ``[start, end)``."""

    __slots__ = ("program", "start", "end", "ext_inputs", "output",
                 "edges", "serialization", "has_load", "has_store",
                 "has_branch", "latencies")

    def __init__(self, program: Program, start: int, end: int,
                 ext_inputs: List[Tuple[int, int, int]],
                 output: Optional[Tuple[int, int]],
                 edges: List[Tuple[int, int]],
                 serialization: SerializationClass):
        self.program = program
        self.start = start
        self.end = end
        self.ext_inputs = ext_inputs
        self.output = output  # (reg, producer_offset) or None
        self.edges = edges
        self.serialization = serialization
        insts = program.instructions[start:end]
        self.has_load = any(i.is_load for i in insts)
        self.has_store = any(i.is_store for i in insts)
        self.has_branch = any(i.is_branch for i in insts)
        self.latencies = tuple(i.latency for i in insts)

    # -- derived properties --------------------------------------------------

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)

    @property
    def out_reg(self) -> int:
        return self.output[0] if self.output else -1

    @property
    def out_producer_ix(self) -> int:
        return self.output[1] if self.output else -1

    @property
    def is_potentially_serializing(self) -> bool:
        return self.serialization is not SerializationClass.NONE

    @property
    def total_latency(self) -> int:
        """Nominal serial execution latency of the whole aggregate."""
        return sum(self.latencies)

    @property
    def nominal_out_latency(self) -> int:
        """Issue-to-output latency assuming L1 hits (rule #2 chain)."""
        if self.output is None:
            return self.total_latency
        producer = self.output[1]
        return sum(self.latencies[:producer + 1])

    def instructions(self):
        """The constituent instructions, in program order."""
        return self.program.instructions[self.start:self.end]

    def overlaps(self, other: "Candidate") -> bool:
        """True if the two candidates share any static instruction."""
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Candidate [{self.start},{self.end}) "
                f"{self.serialization.value} out={self.output}>")


_AGGREGABLE = (oc.OC_SIMPLE, oc.OC_LOAD, oc.OC_STORE, oc.OC_BRANCH)


def enumerate_candidates(program: Program,
                         max_size: int = MAX_MG_SIZE,
                         max_ext_inputs: int = MAX_EXT_INPUTS,
                         live_out_sets: Optional[List[FrozenSet[int]]] = None
                         ) -> List[Candidate]:
    """All legal mini-graph candidates of ``program``.

    Candidates of every legal size (2..``max_size``) and position are
    returned, including overlapping ones; the selection stage resolves
    overlap. The result is ordered by ``(start, end)``.
    """
    if live_out_sets is None:
        live_out_sets = liveness(program)
    insts = program.instructions
    candidates: List[Candidate] = []
    for block in program.basic_blocks():
        for start in range(block.start, block.end - 1):
            max_end = min(block.end, start + max_size)
            mem_ops = 0
            for end in range(start + 1, max_end + 1):
                inst = insts[end - 1]
                cls = inst.opclass
                if cls not in _AGGREGABLE:
                    break
                if cls in (oc.OC_LOAD, oc.OC_STORE):
                    mem_ops += 1
                    if mem_ops > 1:
                        break
                size = end - start
                if size >= 2:
                    ext_inputs, outputs = group_interface(
                        program, start, end, live_out_sets)
                    if len(ext_inputs) > max_ext_inputs:
                        break  # external inputs only grow with the window
                    if len(outputs) <= 1:
                        edges = internal_edges(program, start, end)
                        output = outputs[0] if outputs else None
                        serialization = classify(
                            size, ext_inputs, edges,
                            output[1] if output else None)
                        candidates.append(Candidate(
                            program, start, end, ext_inputs, output, edges,
                            serialization))
                if cls == oc.OC_BRANCH:
                    break  # a control transfer must be the last constituent
    return candidates
