"""Outlining transform: binary rewriting and trace folding.

Implements the encoding of §2 (Figure 2): selected mini-graph bodies are
removed from the program main line and replaced by a one-slot *handle*;
bodies live in the MGT on a mini-graph processor, or out-of-line behind a
pair of jumps on a processor with the mini-graph disabled.

Because the timing model is trace-driven, the transform operates on the
dynamic trace: it assigns post-outlining PCs to every static instruction
(so that fetch-group and I$ behaviour reflect the compacted binary),
allocates per-site outlined locations past the end of the binary (used
when Slack-Dynamic disables a site), and folds each dynamic instance of a
selected site into a single :class:`MGHandleRecord` carrying its
constituents.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..isa.interp import PackedTrace, Trace, TraceRecord
from ..isa.opcodes import OC_BRANCH
from ..isa.program import Program
from .selection import MiniGraphPlan
from .templates import MGSite

_OUTLINE_GAP = 8  # I$ padding between the main line and outlined bodies


class MGHandleRecord:
    """A dynamic mini-graph instance: one slot everywhere but execute.

    ``pc`` is the site's handle slot and ``outlined_pc`` the start of
    its out-of-line body, both in the layout of the plan this record was
    folded under (sites are shared between plans, layouts are not).
    """

    __slots__ = ("pc", "rd", "srcs", "addr", "taken", "next_pc",
                 "site", "template", "constituents", "outlined_pc")
    kind = 1

    def __init__(self, pc: int, rd: int, srcs: Tuple[int, ...], addr: int,
                 taken: bool, next_pc: int, site: MGSite,
                 constituents: List[TraceRecord], outlined_pc: int):
        self.pc = pc
        self.rd = rd
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        self.site = site
        self.template = site.template
        self.constituents = constituents
        self.outlined_pc = outlined_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MGHandleRecord pc={self.pc} site={self.site.id} "
                f"n={len(self.constituents)}>")


class TransformedBinary:
    """Static outcome of applying a plan to a program."""

    def __init__(self, program: Program, plan: MiniGraphPlan):
        self.program = program
        self.plan = plan
        self.pc_map: List[int] = [0] * len(program)
        self.new_length = 0
        #: Per-site layout keyed by ``site.start``: the handle slot and
        #: the start of the outlined body (jump-in, body, back-jump).
        self.handle_pc: Dict[int, int] = {}
        self.outlined_pc: Dict[int, int] = {}
        self._layout()

    def _layout(self) -> None:
        """Assign post-outlining PCs (binary compaction + outlined bodies).

        The layout lives here, never on the sites: the runner and fuzz
        paths hoist one site list across many plans of a program, and
        concurrent folds of those plans must not see each other's pcs.
        """
        new_pc = 0
        site_iter = iter(self.plan.sites)
        site = next(site_iter, None)
        pc = 0
        n = len(self.program)
        while pc < n:
            if site is not None and pc == site.start:
                self.handle_pc[site.start] = new_pc
                for offset in range(site.end - site.start):
                    self.pc_map[pc + offset] = new_pc
                pc = site.end
                new_pc += 1
                site = next(site_iter, None)
            else:
                self.pc_map[pc] = new_pc
                pc += 1
                new_pc += 1
        self.new_length = new_pc
        outlined = new_pc + _OUTLINE_GAP
        for site in self.plan.sites:
            self.outlined_pc[site.start] = outlined
            # jump-in slot is at the handle site; body + back-jump out of line
            outlined += (site.end - site.start) + 1


def fold_trace(trace: Trace, plan: MiniGraphPlan) -> PackedTrace:
    """Fold a singleton trace into its mini-graph form under ``plan``.

    Returns the record stream for the timing core as a
    :class:`~repro.isa.interp.PackedTrace` (a drop-in sequence of
    records): singleton records carry rewritten PCs; dynamic instances of
    selected sites become :class:`MGHandleRecord` aggregates.
    """
    binary = TransformedBinary(trace.program, plan)
    pc_map = binary.pc_map
    handle_pc = binary.handle_pc
    outlined_pc = binary.outlined_pc
    site_at: Dict[int, MGSite] = {site.start: site for site in plan.sites}
    records = trace.records
    out: List = []
    append = out.append
    i = 0
    n = len(records)
    while i < n:
        rec = records[i]
        site = site_at.get(rec.pc)
        if site is None:
            append(TraceRecord(pc_map[rec.pc], rec.op, rec.opclass,
                               rec.latency, rec.rd, rec.srcs, rec.addr,
                               rec.taken,
                               pc_map[rec.next_pc]
                               if rec.next_pc < len(pc_map) else rec.next_pc))
            i += 1
            continue
        size = site.end - site.start
        constituents = records[i:i + size]
        assert len(constituents) == size and \
            constituents[-1].pc == site.end - 1, \
            "trace does not follow the static site layout"
        candidate = site.candidate
        addr = -1
        taken = False
        for constituent in constituents:
            if constituent.addr >= 0:
                addr = constituent.addr
            if constituent.opclass == OC_BRANCH:
                taken = constituent.taken
        last = constituents[-1]
        next_pc = (pc_map[last.next_pc] if last.next_pc < len(pc_map)
                   else last.next_pc)
        append(MGHandleRecord(
            handle_pc.get(site.start, -1), candidate.out_reg,
            tuple(reg for reg, _, _ in candidate.ext_inputs),
            addr, taken, next_pc, site, list(constituents),
            outlined_pc[site.start]))
        i += size
    return PackedTrace.from_records(out)


def singleton_records(trace: Trace) -> List[TraceRecord]:
    """The untransformed record list (no mini-graphs baseline)."""
    return trace.records

