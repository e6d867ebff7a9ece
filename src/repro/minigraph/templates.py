"""Mini-graph templates and the Mini-Graph Table (MGT) budget.

Candidates from different static locations that share a canonical dataflow
shape can share one MGT template (§2 — "mini-graph candidates from multiple
static locations that can share an MGT template are grouped"). The
canonical form renames external inputs to ``I0..I2`` in first-use order,
interior values to ``T0..``, and abstracts control-transfer targets (which
live in the handle, not the template). ALU immediates and memory offsets
are part of the template, as the MGT stores complete operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .candidates import Candidate


def canonical_key(candidate: Candidate) -> Tuple:
    """Hashable canonical shape of a candidate."""
    insts = candidate.instructions()
    rename: Dict[int, str] = {}
    next_input = 0
    next_temp = 0
    rows = []
    for inst in insts:
        srcs = []
        for src in inst.srcs:
            if src == 0:
                srcs.append("Z")
                continue
            if src not in rename:
                rename[src] = f"I{next_input}"
                next_input += 1
            srcs.append(rename[src])
        imm = inst.imm if not inst.is_branch else None
        rows.append((inst.op, tuple(srcs), imm))
        if inst.writes_reg:
            rename[inst.rd] = f"T{next_temp}"
            next_temp += 1
    out = candidate.output
    out_tag = out[1] if out else -1
    return (tuple(rows), out_tag)


class MGTemplate:
    """One MGT entry: a canonical mini-graph shape shared by its sites."""

    __slots__ = ("id", "key", "size", "ops", "latencies", "has_load",
                 "has_store", "has_branch", "out_producer_ix",
                 "nominal_out_latency", "total_latency", "serialization",
                 "sites")

    def __init__(self, template_id: int, key: Tuple, exemplar: Candidate):
        self.id = template_id
        self.key = key
        self.size = exemplar.size
        self.ops = tuple(i.op for i in exemplar.instructions())
        self.latencies = exemplar.latencies
        self.has_load = exemplar.has_load
        self.has_store = exemplar.has_store
        self.has_branch = exemplar.has_branch
        self.out_producer_ix = exemplar.out_producer_ix
        self.nominal_out_latency = exemplar.nominal_out_latency
        self.total_latency = exemplar.total_latency
        self.serialization = exemplar.serialization
        self.sites: List["MGSite"] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MGTemplate #{self.id} size={self.size} "
                f"{self.serialization.value} sites={len(self.sites)}>")


class MGSite:
    """One static location where a template is instantiated."""

    __slots__ = ("id", "template", "candidate", "frequency",
                 "input_consumer_ix", "mem_pc")

    def __init__(self, site_id: int, template: MGTemplate,
                 candidate: Candidate, frequency: int):
        self.id = site_id
        self.template = template
        self.candidate = candidate
        self.frequency = frequency
        self.input_consumer_ix = {reg: consumer for reg, consumer, _
                                  in candidate.ext_inputs}
        self.mem_pc = -1
        for offset, inst in enumerate(candidate.instructions()):
            if inst.is_memory:
                self.mem_pc = candidate.start + offset
                break

    @property
    def start(self) -> int:
        return self.candidate.start

    @property
    def end(self) -> int:
        return self.candidate.end

    @property
    def score_contribution(self) -> int:
        return (self.candidate.size - 1) * self.frequency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MGSite #{self.id} [{self.start},{self.end}) "
                f"freq={self.frequency}>")


def build_templates(candidates: List[Candidate],
                    dynamic_counts: List[int]) -> List[MGTemplate]:
    """Group candidates into templates, attaching execution frequencies.

    ``dynamic_counts`` gives per-static-PC dynamic execution counts from a
    profiling trace; a candidate's frequency is the count of its first
    instruction (all constituents share a basic block, hence a count).
    Candidates that never execute are kept with frequency 0 — selectors may
    still reject them, but they can never win selection.
    """
    by_key: Dict[Tuple, MGTemplate] = {}
    templates: List[MGTemplate] = []
    site_id = 0
    for candidate in candidates:
        key = canonical_key(candidate)
        template = by_key.get(key)
        if template is None:
            template = MGTemplate(len(templates), key, candidate)
            by_key[key] = template
            templates.append(template)
        frequency = dynamic_counts[candidate.start]
        template.sites.append(MGSite(site_id, template, candidate,
                                     frequency))
        site_id += 1
    return templates


class MiniGraphTable:
    """Capacity model of the on-chip MGT (template storage budget)."""

    def __init__(self, entries: int = 512):
        self.entries = entries
        self._stored: Dict[int, MGTemplate] = {}

    def install(self, template: MGTemplate) -> None:
        """Store a template, enforcing the entry budget."""
        if len(self._stored) >= self.entries \
                and template.id not in self._stored:
            raise OverflowError(
                f"MGT full ({self.entries} entries); selection must respect "
                f"the template budget")
        self._stored[template.id] = template

    def lookup(self, template_id: int) -> Optional[MGTemplate]:
        """The stored template with this id, or None."""
        return self._stored.get(template_id)

    def __len__(self) -> int:
        return len(self._stored)

    def __contains__(self, template_id: int) -> bool:
        return template_id in self._stored
