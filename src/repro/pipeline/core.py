"""Cycle-level out-of-order superscalar timing model.

The core replays a dynamic trace (see :mod:`repro.isa.interp`) against the
Table 1 machine model: a 13-stage pipeline with branch prediction, I$/D$/L2
hierarchy, register renaming against a bounded physical register pool, an
issue queue with per-class issue ports and speculative wakeup (cache-miss
replays), load/store queues with store-to-load forwarding, StoreSets-style
aggressive load scheduling with flush-and-restart on ordering violations,
and in-order commit.

Mini-graph handles (trace records with ``kind == 1``) occupy a single slot
in every book-keeping structure. At issue, the Mini-Graph Table drives
their constituents through an ALU pipeline in strict series (rule #2 of the
paper); the handle cannot issue until *all* of its external register inputs
are ready (rule #1 — external serialization). A
:class:`~repro.minigraph.dynamic.MiniGraphPolicy` may disable templates at
run time, in which case subsequent instances are fetched in outlined form
(two extra jumps around the constituent singletons).

Host performance
----------------
The main loop is *event-driven*: stages only run on cycles where their
entry condition can hold (window head old enough to commit, a store
pending resolution, an issue-queue entry predicted ready, a fetch-buffer
entry old enough to rename), wakeup is push-based (producers decrement
their consumers' ``pending`` counts at issue instead of consumers polling
every cycle), and when a cycle provably does nothing the clock jumps
straight to the next-event horizon — the earliest commit, store-resolve,
wakeup, or fetch-resume cycle. The per-uop paths are deliberately inlined
and branch-lean (flat ``PackedTrace`` columns, memoized classification,
batched counter flushes): this loop is the throughput bottleneck of every
experiment in the repository, and ``repro bench`` regression-gates it.

Simulated results are bit-identical to the naive one-cycle-at-a-time
model (see ``tests/pipeline/test_cycle_skip.py`` and the golden-stats
gate); only host time changes. ``docs/performance.md`` documents the
skipping invariants.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from ..isa import opcodes as oc
from ..isa.interp import PackedTrace
from . import ckern
from .activity import ActivityCounters
from .branch import BranchUnit
from .caches import INST_BYTES, MemoryHierarchy
from .config import MachineConfig
from .stats import RunStats
from .storesets import StoreSets

_BIG = 1 << 60

# Port classes used by the select stage.
_PORT_SIMPLE = 0
_PORT_COMPLEX = 1
_PORT_LOAD = 2
_PORT_STORE = 3
_PORT_NONE = 4  # nops / halts consume width only

# Indexed by opclass (OC_SIMPLE..OC_HALT); handles never consult it.
_CLASS_TO_PORT = (
    _PORT_SIMPLE,   # OC_SIMPLE
    _PORT_COMPLEX,  # OC_COMPLEX
    _PORT_LOAD,     # OC_LOAD
    _PORT_STORE,    # OC_STORE
    _PORT_SIMPLE,   # OC_BRANCH
    _PORT_SIMPLE,   # OC_JUMP
    _PORT_NONE,     # OC_NOP
    _PORT_NONE,     # OC_HALT
)

_OC_LOAD = oc.OC_LOAD
_OC_STORE = oc.OC_STORE
_OC_BRANCH = oc.OC_BRANCH
_OC_JUMP = oc.OC_JUMP


class SimulationDeadlock(RuntimeError):
    """The core stopped making forward progress (a model bug)."""


class Uop(object):
    """One in-flight instruction (or mini-graph handle).

    Wakeup is push-based: ``pending`` counts unissued producers (and
    unissued stores this uop must order after); ``ready_at`` folds in the
    predicted-ready times of everything already issued. When a producer
    issues it walks its ``reg_waiters`` (stores: ``st_waiters``),
    decrementing ``pending`` and raising ``ready_at`` — so select
    eligibility is the O(1) test ``pending == 0 and ready_at <= cycle``.

    Fields that usually keep their initial value are class-level defaults
    rather than per-instance writes: a ``Uop`` is built on every fetch
    slot, so its constructor is one of the hottest paths in the model.
    """

    # -- defaults (overridden per instance only when they change) ------
    producers: tuple = ()           # Uops feeding this uop's sources
    reg_waiters = None              # consumers registered before we issued
    st_waiters = None               # loads/stores ordered after this store
    prev_writer: Optional["Uop"] = None
    pending = 0
    ready_at = 0
    issued = False
    issue_cycle = -1
    out_pred_ready = _BIG
    out_actual_ready = _BIG
    complete_cycle = _BIG
    resolve_cycle = _BIG
    store_resolve_cycle = _BIG
    committed = False
    squashed = False
    forwarded_from: Optional[int] = None
    mg_serialized = False
    expansion_jump = False

    def __init__(self, rec, ix: int, sub: int):
        self.rec = rec
        self.ix = ix
        self.sub = sub
        self.age = (ix << 8) | (sub + 1)
        kind = rec.kind
        self.kind = kind
        self.pc = rec.pc
        if kind == 1:
            tpl = rec.template
            self.is_load = tpl.has_load
            self.is_store = tpl.has_store
            self.addr = rec.addr
            self.writes = rec.rd >= 0
            self.port = _PORT_NONE  # handles use MG issue slots + pipelines
            self.store_pc = rec.site.mem_pc if tpl.has_store else -1
            self.load_pc = rec.site.mem_pc if tpl.has_load else -1
        else:
            cls = rec.opclass
            self.is_load = cls == _OC_LOAD
            self.is_store = cls == _OC_STORE
            self.addr = rec.addr
            self.writes = rec.rd >= 0
            self.port = _CLASS_TO_PORT[cls]
            self.store_pc = rec.pc if cls == _OC_STORE else -1
            self.load_pc = rec.pc if cls == _OC_LOAD else -1


class _ExpandedRecord(object):
    """A singleton record synthesized when a disabled mini-graph is fetched
    in outlined form (or inline for the 'ideal' penalty-free variant)."""

    __slots__ = ("pc", "op", "opclass", "latency", "rd", "srcs", "addr",
                 "taken", "next_pc")
    kind = 0

    def __init__(self, pc, op, opclass, latency, rd, srcs, addr, taken,
                 next_pc):
        self.pc = pc
        self.op = op
        self.opclass = opclass
        self.latency = latency
        self.rd = rd
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc


class OoOCore:
    """Trace-driven cycle-level core.

    Parameters
    ----------
    config:
        The machine configuration (Table 1 point).
    records:
        Dynamic trace — singleton records and mini-graph handle records.
        A plain sequence or a :class:`~repro.isa.interp.PackedTrace`
        (plain sequences are packed on construction; pass
        ``trace.packed()`` / ``fold_trace(...)`` to share the packing).
    policy:
        Optional run-time mini-graph policy (Slack-Dynamic). ``None`` keeps
        every mini-graph enabled.
    collector:
        Optional slack-profile collector receiving dataflow timing
        events. Collectors advertising ``supports_ckern_tap`` keep the
        run eligible for the compiled kernel: the kernel logs packed
        events and the collector rebuilds its profile post-hoc,
        bit-identical to the in-loop observer.
    attribution:
        Optional :class:`~repro.obs.attribution.AttributionCollector`
        receiving per-handle issue events (observed serialization delay).
        Read-only with respect to the simulated schedule; supports the
        event tap, so attaching it no longer forces the Python loop.
    """

    def __init__(self, config: MachineConfig, records,
                 policy=None, collector=None, warm_caches: bool = False,
                 tracer=None, attribution=None):
        self.config = config
        packed = PackedTrace.from_records(records)
        self.records = packed
        self._objs = packed.objs
        self._kinds = packed.kind
        self._n_records = packed.n
        self._warm_caches = warm_caches
        self.policy = policy
        self.collector = collector
        self.tracer = tracer
        self.attribution = attribution
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config)
        self.storesets = StoreSets(config.store_sets)
        self.stats = RunStats(config_name=config.name)
        self.activity = ActivityCounters()
        self.stats.activity = self.activity

        self._cycle = 0
        self._front_delay = config.stages_front - 1
        self._regread = config.stages_regread
        self._to_commit = config.stages_to_commit
        self._rename_pool = max(config.phys_regs - 64, 8)
        self._width = config.width
        self._il1_line_bytes = self.hierarchy.il1.line_bytes

        # Fetch state
        self._fetch_ix = 0
        self._pending: deque = deque()  # expansion of a disabled mini-graph
        self._pending_ix = -1
        self._pending_sub = 0
        self._fetch_buffer: deque = deque()  # (uop, fetch_cycle)
        # Decouples fetch from rename: must cover the front-end depth
        # at full width or it throttles fetch artificially.
        self._fetch_buffer_cap = (config.stages_front + 2) * config.width
        self._fetch_resume = 0
        self._fetch_block: Optional[Tuple[int, int]] = None

        # Window state
        self._window: deque = deque()
        self._iq: List[Uop] = []
        # Earliest cycle any issue-queue entry might issue. Maintained
        # conservatively low (never above the true minimum): the select
        # stage is skipped entirely while ``cycle < _iq_min_ready``.
        self._iq_min_ready = 0
        self._phys_used = 0
        self._lq: List[Uop] = []
        self._sq: List[Uop] = []
        self._reg_map: List[Optional[Uop]] = [None] * 32
        self._store_resolves: List[Uop] = []
        self._alu_pipe_free = [0] * config.mg_alu_pipelines

        # Mini-Graph Table residency (LRU over template ids). Templates
        # are written by the I$ fill path (Figure 2c); a fetch of a handle
        # whose template was evicted stalls while the fill unit re-reads
        # the outlined body (an L2-latency event).
        self._mgt: List[int] = []
        self._mgt_capacity = config.mgt_entries
        self._mgt_fill_latency = config.l2.latency

        self._ports = (config.ports_simple, config.ports_complex,
                       config.ports_load, config.ports_store, config.width)

        # Compiled fast path: eligible when nothing *steers* the run from
        # the inside (no policy) and every attached observer either is
        # absent or can rebuild its state post-hoc from the kernel's
        # packed event tap (``supports_ckern_tap``) — slack profiling and
        # attribution runs included. Tracers render per-cycle pipeline
        # occupancy and still force the Python loop. The Python loop
        # below remains the behavioural reference and the fallback (no
        # compiler, REPRO_PURE_PY=1, a kernel bound exceeded, or an event
        # buffer overflowing its retry).
        self._ctrace = None
        self._want_tap = False
        self._tap_flags = 0
        if policy is None and tracer is None and packed.n \
                and self._tap_capable(collector) \
                and self._tap_capable(attribution) and ckern.available():
            self._ctrace = ckern.marshal_shared(packed)
            self._want_tap = collector is not None or attribution is not None
            # Observers advertise opt-in event families (e.g. TAP_VALUE
            # for the global-slack DP) beyond the base catalogue.
            self._tap_flags = (getattr(collector, "ckern_tap_flags", 0) |
                               getattr(attribution, "ckern_tap_flags", 0))

    @staticmethod
    def _tap_capable(observer) -> bool:
        return observer is None or getattr(observer, "supports_ckern_tap",
                                           False)

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _expand_disabled(self, rec) -> None:
        """Queue the outlined (or ideal inline) form of a disabled handle."""
        outlined = self.policy.outlining_penalty
        base = rec.outlined_pc
        items = []
        n = len(rec.constituents)
        if outlined:
            items.append(_ExpandedRecord(
                rec.pc, oc.JMP, oc.OC_JUMP, 1, -1, (), -1, True, base))
        for k, c in enumerate(rec.constituents):
            pc = base + k if outlined else rec.pc
            if c.opclass == _OC_BRANCH:
                # Taken: jump straight to the handle's successor path;
                # not-taken: fall through (to the back-jump if outlined).
                next_pc = rec.next_pc if c.taken else pc + 1
                items.append(_ExpandedRecord(
                    pc, c.op, c.opclass, c.latency, c.rd, c.srcs, -1,
                    c.taken, next_pc))
            else:
                items.append(_ExpandedRecord(
                    pc, c.op, c.opclass, c.latency, c.rd, c.srcs, c.addr,
                    False, pc + 1))
        if outlined:
            items.append(_ExpandedRecord(
                base + n, oc.JMP, oc.OC_JUMP, 1, -1, (), -1, True,
                rec.pc + 1))
        self._pending.extend(items)
        self._pending_ix = self._fetch_ix

    def _mgt_access(self, template_id: int) -> bool:
        """LRU-touch the MGT entry; returns hit?"""
        mgt = self._mgt
        try:
            mgt.remove(template_id)
        except ValueError:
            self.stats.mgt_misses += 1
            mgt.insert(0, template_id)
            if len(mgt) > self._mgt_capacity:
                mgt.pop()
            return False
        mgt.insert(0, template_id)
        return True

    def _fetch_stage(self) -> None:
        # The main loop only calls fetch on cycles where it can act:
        # not branch-blocked, past _fetch_resume, buffer space available,
        # and records (or a pending expansion) left to fetch.
        cycle = self._cycle
        hierarchy = self.hierarchy
        branch_unit = self.branch_unit
        tracer = self.tracer
        policy = self.policy
        objs = self._objs
        kinds = self._kinds
        n = self._n_records
        width = self._width
        cap = self._fetch_buffer_cap
        buf = self._fetch_buffer
        pending = self._pending
        il1_latency = hierarchy.il1.latency
        line_bytes = self._il1_line_bytes
        fetched = 0
        line = -1
        while fetched < width and len(buf) < cap:
            # Peek the next record, expanding disabled mini-graphs.
            if pending:
                rec = pending[0]
                ix = self._pending_ix
                is_sub = True
                is_mg = False
            else:
                ix = self._fetch_ix
                if ix >= n:
                    break
                rec = objs[ix]
                is_sub = False
                is_mg = kinds[ix] == 1
                if is_mg and policy is not None \
                        and not policy.enabled(rec.site):
                    self._expand_disabled(rec)
                    self.stats.mg_disabled_instances += 1
                    rec = pending[0]
                    is_sub = True
                    is_mg = False
            pc = rec.pc
            rec_line = pc * INST_BYTES // line_bytes
            if line < 0:
                latency = hierarchy.fetch_latency(pc)
                extra = latency - il1_latency
                if extra > 0:
                    self._fetch_resume = cycle + extra
                    self.stats.icache_stall_cycles += extra
                    self.activity.fetch_slots += fetched
                    return
                line = rec_line
            elif rec_line != line:
                break
            if is_mg and not self._mgt_access(rec.template.id):
                # Template fill: the handle's body must be read from its
                # outlined location and written into the MGT.
                self._fetch_resume = cycle + self._mgt_fill_latency
                break
            # Consume the record just peeked.
            if is_sub:
                pending.popleft()
                sub = self._pending_sub
                self._pending_sub += 1
                if not pending:
                    self._fetch_ix += 1
                    self._pending_sub = 0
            else:
                self._fetch_ix += 1
                sub = -1
            uop = Uop(rec, ix, sub)
            buf.append((uop, cycle))
            fetched += 1
            if tracer is not None:
                tracer.on_fetch(uop, cycle)

            # Control-transfer prediction at fetch.
            if is_mg:
                if not rec.template.has_branch:
                    continue
                taken = rec.taken
                correct = branch_unit.predict_and_train(
                    pc, True, False, False, taken, rec.next_pc)
            else:
                cls = rec.opclass
                if cls == _OC_BRANCH:
                    taken = rec.taken
                    correct = branch_unit.predict_and_train(
                        pc, True, False, False, taken, rec.next_pc)
                elif cls == _OC_JUMP:
                    if is_sub:
                        uop.expansion_jump = True
                    taken = True
                    correct = branch_unit.predict_and_train(
                        pc, False, rec.op == oc.JAL, rec.op == oc.JR,
                        True, rec.next_pc)
                else:
                    continue

            if not correct:
                self._fetch_block = (uop.ix, uop.sub)
                break
            if taken:
                break  # predicted-taken transfers end the fetch group
        self.activity.fetch_slots += fetched

    # ------------------------------------------------------------------
    # Rename
    # ------------------------------------------------------------------

    def _rename_stage(self) -> bool:
        cycle = self._cycle
        config = self.config
        tracer = self.tracer
        storesets = self.storesets
        buf = self._fetch_buffer
        iq = self._iq
        window = self._window
        lq = self._lq
        sq = self._sq
        reg_map = self._reg_map
        width = self._width
        front_delay = self._front_delay
        iq_cap = config.issue_queue
        rob_cap = config.rob
        lq_cap = config.load_queue
        sq_cap = config.store_queue
        pool = self._rename_pool
        min_ready = self._iq_min_ready
        renamed = 0
        map_reads = 0
        phys_allocs = 0
        while renamed < width and buf:
            uop, fetch_cycle = buf[0]
            if fetch_cycle + front_delay > cycle:
                break
            if len(iq) >= iq_cap or len(window) >= rob_cap:
                break
            writes = uop.writes
            if writes and self._phys_used >= pool:
                break
            is_load = uop.is_load
            if is_load and len(lq) >= lq_cap:
                break
            is_store = uop.is_store
            if is_store and len(sq) >= sq_cap:
                break
            buf.popleft()

            # -- rename: map sources, allocate, queue (inlined hot path)
            ready_at = 0
            pending = 0
            srcs = uop.rec.srcs
            if srcs:
                producers = None
                for i, src in enumerate(srcs):
                    # tuple.index dedupes repeated sources without a set
                    if src == 0 or srcs.index(src) != i:
                        continue
                    map_reads += 1
                    producer = reg_map[src]
                    if producer is None:
                        continue
                    if producers is None:
                        producers = [producer]
                    else:
                        producers.append(producer)
                    if producer.issued:
                        t = producer.out_pred_ready
                        if t > ready_at:
                            ready_at = t
                    else:
                        pending += 1
                        waiters = producer.reg_waiters
                        if waiters is None:
                            producer.reg_waiters = [uop]
                        else:
                            waiters.append(uop)
                if producers is not None:
                    uop.producers = producers
            if writes:
                phys_allocs += 1
                rd = uop.rec.rd
                uop.prev_writer = reg_map[rd]
                reg_map[rd] = uop
                self._phys_used += 1
            if is_load:
                lq.append(uop)
                prev_age = storesets.producer_store_for(uop.load_pc)
                if prev_age is not None:
                    store = self._find_store(prev_age)
                    if store is not None:
                        if store.issued:
                            t = store.store_resolve_cycle
                            if t > ready_at:
                                ready_at = t
                        else:
                            pending += 1
                            waiters = store.st_waiters
                            if waiters is None:
                                store.st_waiters = [uop]
                            else:
                                waiters.append(uop)
            if is_store:
                sq.append(uop)
                prev_age = storesets.rename_store(uop.store_pc, uop.age)
                if prev_age is not None:
                    store = self._find_store(prev_age)
                    if store is not None:
                        if store.issued:
                            t = store.store_resolve_cycle
                            if t > ready_at:
                                ready_at = t
                        else:
                            pending += 1
                            waiters = store.st_waiters
                            if waiters is None:
                                store.st_waiters = [uop]
                            else:
                                waiters.append(uop)
            if ready_at:
                uop.ready_at = ready_at
            if pending:
                uop.pending = pending
            elif ready_at < min_ready:
                min_ready = ready_at
            window.append(uop)
            iq.append(uop)
            renamed += 1
            if tracer is not None:
                tracer.on_rename(uop, cycle)
        if renamed:
            self._iq_min_ready = min_ready
            activity = self.activity
            activity.rename_ops += renamed
            activity.iq_insertions += renamed
            activity.rename_map_reads += map_reads
            activity.phys_allocations += phys_allocs
            return True
        return False

    def _find_store(self, age: int) -> Optional[Uop]:
        for store in self._sq:
            if store.age == age:
                return store
        return None

    # ------------------------------------------------------------------
    # Select / execute
    # ------------------------------------------------------------------

    def _actual_ready(self, uop: Uop) -> int:
        ready = 0
        for producer in uop.producers:
            if producer.out_actual_ready > ready:
                ready = producer.out_actual_ready
        return ready

    def _issue_stage(self) -> bool:
        cycle = self._cycle
        counts = [0, 0, 0, 0, 0]
        ports = self._ports
        config = self.config
        stats = self.stats
        collector = self.collector
        mg_max_issue = config.mg_max_issue
        mg_max_mem_issue = config.mg_max_mem_issue
        regread = self._regread
        dl1_latency = self.hierarchy.dl1.latency
        store_resolves = self._store_resolves
        total = 0
        width = self._width
        mg_issued = 0
        mg_mem_issued = 0
        loads_issued = 0
        replays = 0
        rf_reads = 0
        rf_writes = 0
        kept: List[Uop] = []
        kept_append = kept.append
        iq = self._iq
        # Earliest cycle a kept entry could become issueable, assuming no
        # further issues: the next wakeup event. Any issue this cycle
        # forces a rescan next cycle (resources freed, waiters woken).
        next_ready = _BIG
        for i, uop in enumerate(iq):
            if total >= width:
                kept.extend(iq[i:])
                next_ready = cycle
                break
            if uop.pending:
                kept_append(uop)
                continue
            t = uop.ready_at
            if t > cycle:
                kept_append(uop)
                if t < next_ready:
                    next_ready = t
                continue
            is_handle = uop.kind == 1
            if is_handle:
                if mg_issued >= mg_max_issue:
                    kept_append(uop)
                    if mg_issued == 0:  # mg_max_issue == 0: never issueable
                        next_ready = cycle
                    continue
                if (uop.is_load or uop.is_store) and \
                        mg_mem_issued >= mg_max_mem_issue:
                    kept_append(uop)
                    if mg_mem_issued == 0:
                        next_ready = cycle
                    continue
                pipe = self._free_pipe(cycle)
                if pipe < 0:
                    kept_append(uop)
                    pipe_free = self._alu_pipe_free
                    if pipe_free:
                        t = min(pipe_free)
                        if t < next_ready:
                            next_ready = t
                    else:
                        next_ready = cycle
                    continue
            else:
                port = uop.port
                if port != _PORT_NONE and counts[port] >= ports[port]:
                    kept_append(uop)
                    if counts[port] == 0:  # zero ports: never issueable
                        next_ready = cycle
                    continue
            # Wakeup used *predicted* latencies; check the actual ones
            # (and remember the latest-arriving producer for the
            # consumer-delay heuristic below).
            actual = 0
            last = None
            for producer in uop.producers:
                a = producer.out_actual_ready
                if a > actual:
                    actual = a
                    last = producer
            if actual > cycle:
                # Speculative wakeup was wrong (producer load missed):
                # the select slot is wasted and the uop replays later.
                uop.ready_at = actual
                replays += 1
                total += 1
                kept_append(uop)
                continue
            # Issue!
            total += 1
            if is_handle:
                mg_issued += 1
                if uop.is_load or uop.is_store:
                    mg_mem_issued += 1
                self._execute_handle(uop, pipe)
            else:
                counts[uop.port] += 1
                # -- singleton execute (inlined hot path) --
                uop.issued = True
                uop.issue_cycle = cycle
                rec = uop.rec
                rf_reads += len(rec.srcs)
                if uop.writes:
                    rf_writes += 1
                if uop.is_load:
                    latency = self._load_latency(uop, rec.addr, cycle,
                                                 rec.pc)
                    uop.out_pred_ready = cycle + dl1_latency
                    uop.out_actual_ready = cycle + latency
                    uop.complete_cycle = cycle + regread + latency
                    loads_issued += 1
                elif uop.is_store:
                    uop.store_resolve_cycle = cycle + regread
                    uop.complete_cycle = cycle + regread
                    store_resolves.append(uop)
                else:
                    cls = rec.opclass
                    if cls == _OC_BRANCH or cls == _OC_JUMP:
                        resolve = cycle + rec.latency + regread
                        uop.resolve_cycle = resolve
                        uop.complete_cycle = resolve
                        if rec.rd >= 0:  # jal writes the return address
                            uop.out_pred_ready = uop.out_actual_ready = \
                                cycle + rec.latency
                        if self._fetch_block is not None:
                            self._maybe_unblock_fetch(uop)
                    else:
                        latency = rec.latency
                        uop.out_pred_ready = uop.out_actual_ready = \
                            cycle + latency
                        uop.complete_cycle = cycle + regread + latency
                if collector is not None:
                    self._notify_consumption(uop)
                elif last is not None and last.kind == 1 \
                        and last.mg_serialized and cycle == actual:
                    # Consumer-delay detection (the slow-path equivalent
                    # lives in _notify_consumption).
                    stats.mg_consumer_delays += 1
                    if self.policy is not None:
                        self.policy.on_consumer_delay(last.rec.site)
                    if self.attribution is not None:
                        self.attribution.on_consumer_delay(last.rec.site)
            # Push-based wakeup: fold this uop's now-known timings into
            # every waiter registered at rename.
            waiters = uop.reg_waiters
            if waiters:
                t = uop.out_pred_ready
                for waiter in waiters:
                    waiter.pending -= 1
                    if t > waiter.ready_at:
                        waiter.ready_at = t
            if uop.is_store:
                waiters = uop.st_waiters
                if waiters:
                    t = uop.store_resolve_cycle
                    for waiter in waiters:
                        waiter.pending -= 1
                        if t > waiter.ready_at:
                            waiter.ready_at = t
        if total:
            next_ready = cycle
        self._iq = kept
        self._iq_min_ready = next_ready
        if total:
            self.activity.select_slots += total
            self.activity.regfile_reads += rf_reads
            self.activity.regfile_writes += rf_writes
            stats.loads_issued += loads_issued
            stats.replays += replays
            return True
        return False

    def _free_pipe(self, cycle: int) -> int:
        for i, free_at in enumerate(self._alu_pipe_free):
            if free_at <= cycle:
                return i
        return -1

    def _execute_singleton(self, uop: Uop) -> None:
        """Reference implementation of singleton issue.

        The issue stage inlines this logic for speed; this method is kept
        for documentation and as the behavioural spec the inline copy must
        match (the golden-stats gate holds both to the same results).
        """
        cycle = self._cycle
        uop.issued = True
        uop.issue_cycle = cycle
        rec = uop.rec
        activity = self.activity
        activity.regfile_reads += len(rec.srcs)
        if uop.writes:
            activity.regfile_writes += 1
        regread = self._regread
        if uop.is_load:
            latency = self._load_latency(uop, rec.addr, cycle, rec.pc)
            uop.out_pred_ready = cycle + self.hierarchy.dl1.latency
            uop.out_actual_ready = cycle + latency
            uop.complete_cycle = cycle + regread + latency
            self.stats.loads_issued += 1
        elif uop.is_store:
            uop.store_resolve_cycle = cycle + regread
            uop.complete_cycle = cycle + regread
            self._store_resolves.append(uop)
        else:
            cls = rec.opclass
            if cls == _OC_BRANCH or cls == _OC_JUMP:
                resolve = cycle + rec.latency + regread
                uop.resolve_cycle = resolve
                uop.complete_cycle = resolve
                if rec.rd >= 0:  # jal writes the return address
                    uop.out_pred_ready = uop.out_actual_ready = \
                        cycle + rec.latency
                self._maybe_unblock_fetch(uop)
            else:
                latency = rec.latency
                uop.out_pred_ready = uop.out_actual_ready = cycle + latency
                uop.complete_cycle = cycle + regread + latency
        self._notify_consumption(uop)

    def _execute_handle(self, uop: Uop, pipe: int) -> None:
        cycle = self._cycle
        uop.issued = True
        uop.issue_cycle = cycle
        rec = uop.rec
        # Only the handle's external interface touches the register file;
        # interior values live in the ALU pipeline's operand network.
        self.activity.regfile_reads += len(rec.srcs)
        if uop.writes:
            self.activity.regfile_writes += 1
        tpl = rec.template
        regread = self._regread
        start = cycle
        out_ready = cycle
        for k, constituent in enumerate(rec.constituents):
            if constituent.opclass == _OC_LOAD:
                latency = self._load_latency(uop, constituent.addr, start,
                                             uop.load_pc)
                self.stats.loads_issued += 1
            elif constituent.opclass == _OC_STORE:
                latency = 1
                uop.store_resolve_cycle = start + regread
                self._store_resolves.append(uop)
            elif constituent.opclass == _OC_BRANCH:
                latency = constituent.latency
                uop.resolve_cycle = start + latency + regread
                self._maybe_unblock_fetch(uop)
            else:
                latency = constituent.latency
            if k == tpl.out_producer_ix:
                out_ready = start + latency
            # Rule #2 (internal serialization): strictly serial execution.
            start += latency
        total = start - cycle
        uop.complete_cycle = cycle + regread + total
        if uop.writes:
            uop.out_actual_ready = out_ready
            uop.out_pred_ready = cycle + tpl.nominal_out_latency
        if tpl.has_branch and uop.resolve_cycle == _BIG:
            uop.resolve_cycle = uop.complete_cycle
        # The ALU pipeline is pipelined at 1 op/cycle; multi-cycle internal
        # operations (e.g. load misses) stall it.
        self._alu_pipe_free[pipe] = cycle + 1 + (total - len(rec.constituents))

        # Slack-Dynamic serialization detection: the handle issued exactly
        # when its last external operand arrived, and that operand feeds a
        # non-first constituent.
        last_arrival = 0
        last_consumer_ix = 0
        for producer in uop.producers:
            arrival = producer.out_actual_ready
            if arrival >= last_arrival:
                last_arrival = arrival
                reg = producer.rec.rd
                last_consumer_ix = rec.site.input_consumer_ix.get(reg, 0)
        sial = bool(uop.producers) and last_consumer_ix > 0
        serialized = sial and cycle == last_arrival
        uop.mg_serialized = serialized
        if serialized:
            self.stats.mg_serialized_instances += 1
        if self.policy is not None:
            self.policy.on_issue(rec.site, serialized, sial)
        if self.attribution is not None:
            # The first constituent's singleton issue estimate: when its
            # *own* external inputs (consumer index 0) were ready. The
            # gap to ``last_arrival`` is the observed rule-#1 delay.
            first_ready = 0
            consumer_of = rec.site.input_consumer_ix
            for producer in uop.producers:
                if consumer_of.get(producer.rec.rd, 0) == 0:
                    arrival = producer.out_actual_ready
                    if arrival > first_ready:
                        first_ready = arrival
            self.attribution.on_handle_issue(
                rec.site, cycle, first_ready, last_arrival, serialized,
                sial)
        self._notify_consumption(uop)

    def _notify_consumption(self, uop: Uop) -> None:
        """Report dataflow consumption for slack profiling and the dynamic
        policy's consumer-delay detection."""
        cycle = self._cycle
        collector = self.collector
        last: Optional[Uop] = None
        last_arrival = -1
        for producer in uop.producers:
            if collector is not None:
                collector.on_consume(producer, uop, cycle)
            if producer.out_actual_ready > last_arrival:
                last_arrival = producer.out_actual_ready
                last = producer
        if last is not None and last.kind == 1 and last.mg_serialized \
                and cycle == last_arrival:
            self.stats.mg_consumer_delays += 1
            if self.policy is not None:
                self.policy.on_consumer_delay(last.rec.site)
            if self.attribution is not None:
                self.attribution.on_consumer_delay(last.rec.site)

    def _load_latency(self, uop: Uop, addr: int, when: int,
                      pc: int = -1) -> int:
        """Data latency of a load issued at ``when``: forward or D$ access."""
        best: Optional[Uop] = None
        age = uop.age
        for store in self._sq:
            if store.age >= age or store.addr != addr:
                continue
            if store.store_resolve_cycle <= when:
                if best is None or store.age > best.age:
                    best = store
        if best is not None:
            uop.forwarded_from = best.age
            self.stats.store_forwards += 1
            if self.collector is not None:
                self.collector.on_consume(best, uop, when)
            return self.config.forward_latency
        return self.hierarchy.load_latency(addr, pc)

    def _maybe_unblock_fetch(self, uop: Uop) -> None:
        if self._fetch_block == (uop.ix, uop.sub):
            self._fetch_block = None
            self._fetch_resume = uop.resolve_cycle + 1
            if self.collector is not None:
                self.collector.on_redirect(uop, uop.resolve_cycle)

    # ------------------------------------------------------------------
    # Store resolution / memory ordering violations
    # ------------------------------------------------------------------

    def _writeback_stage(self) -> bool:
        cycle = self._cycle
        resolves = self._store_resolves
        for store in resolves:
            if store.store_resolve_cycle <= cycle:
                break
        else:
            return False
        still_pending: List[Uop] = []
        resolved: List[Uop] = []
        for store in resolves:
            if store.squashed:
                continue
            if store.store_resolve_cycle <= cycle:
                resolved.append(store)
            else:
                still_pending.append(store)
        self._store_resolves = still_pending
        for store in resolved:
            self._check_violation(store)
        return True

    def _check_violation(self, store: Uop) -> None:
        """Flush-and-restart if an already-issued younger load read stale data."""
        if store.squashed:
            return
        victim: Optional[Uop] = None
        for load in self._lq:
            if load.age <= store.age or not load.issued:
                continue
            if load.addr != store.addr:
                continue
            if load.forwarded_from is not None \
                    and load.forwarded_from >= store.age:
                continue
            if victim is None or load.age < victim.age:
                victim = load
        if victim is None:
            return
        self.stats.ordering_violations += 1
        self.storesets.train_violation(victim.load_pc, store.store_pc)
        if self.collector is not None:
            self.collector.on_consume(store, victim, self._cycle)
        self._flush_restart(victim)

    def _flush_restart(self, victim: Uop) -> None:
        """Squash ``victim`` and everything younger; refetch from its record."""
        restart_ix = victim.ix
        reg_map = self._reg_map
        # Squash youngest-first so the rename map rewinds correctly.
        squashed: List[Uop] = []
        while self._window and self._window[-1].ix >= restart_ix:
            uop = self._window.pop()
            uop.squashed = True
            squashed.append(uop)
            if self.tracer is not None:
                self.tracer.on_squash(uop, self._cycle)
            if uop.writes:
                self._phys_used -= 1
                rd = uop.rec.rd
                if reg_map[rd] is uop:
                    reg_map[rd] = uop.prev_writer
        for uop, _ in self._fetch_buffer:
            uop.squashed = True
        self._fetch_buffer.clear()
        squash_set = {id(u) for u in squashed}
        self._iq = [u for u in self._iq if id(u) not in squash_set]
        # Stale waiter links from surviving producers to squashed uops are
        # harmless (a waiter is always younger than its producer, so a
        # surviving uop's producers survive too); just rescan from now.
        self._iq_min_ready = 0
        self._lq = [u for u in self._lq if not u.squashed]
        self._sq = [u for u in self._sq if not u.squashed]
        self._store_resolves = [u for u in self._store_resolves
                                if not u.squashed]
        self.storesets.flush()
        self._pending.clear()
        self._pending_sub = 0
        self._fetch_ix = restart_ix
        self._fetch_block = None
        self._fetch_resume = self._cycle + 1

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit_stage(self) -> None:
        cycle = self._cycle
        stats = self.stats
        tracer = self.tracer
        collector = self.collector
        to_commit = self._to_commit
        committed = 0
        original = 0
        embedded = 0
        handles = 0
        outline_jumps = 0
        window = self._window
        width = self._width
        while committed < width and window:
            uop = window[0]
            if uop.complete_cycle + to_commit > cycle:
                break
            window.popleft()
            uop.committed = True
            committed += 1
            if tracer is not None:
                tracer.on_commit(uop, cycle)
            if uop.kind == 1:
                n = len(uop.rec.constituents)
                original += n
                embedded += n
                handles += 1
            elif uop.expansion_jump:
                outline_jumps += 1
            else:
                original += 1
            if uop.writes:
                self._phys_used -= 1
                # The rename-map entry survives commit so that later
                # consumers still link to this producer (the slack profiler
                # needs real ready times, and eligibility treats committed
                # producers as ready). Drop the displaced-writer chain to
                # keep retired uops from pinning the whole history.
                uop.prev_writer = None
            if uop.is_store:
                self.hierarchy.store_touch(uop.addr)
                self.storesets.retire_store(uop.store_pc, uop.age)
                self._sq.remove(uop)
            if uop.is_load:
                self._lq.remove(uop)
            if collector is not None and uop.kind == 0 \
                    and not uop.expansion_jump:
                collector.on_commit(uop)
        stats.slots_committed += committed
        stats.original_committed += original
        stats.embedded_committed += embedded
        stats.handles_committed += handles
        stats.outline_jumps_committed += outline_jumps
        self.activity.commit_slots += committed

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _warm(self) -> None:
        """Pre-touch every I-line and data address in the trace.

        Stands in for the paper's sampled-simulation warm-up: compulsory
        misses are removed while capacity and conflict behaviour remain.
        """
        hierarchy = self.hierarchy
        fetch_latency = hierarchy.fetch_latency
        load_latency = hierarchy.load_latency
        packed = self.records
        objs = self._objs
        kinds = packed.kind
        pcs = packed.pc
        addrs = packed.addr
        for ix in range(self._n_records):
            fetch_latency(pcs[ix])
            if kinds[ix] == 1:
                for constituent in objs[ix].constituents:
                    if constituent.addr >= 0:
                        load_latency(constituent.addr)
            elif addrs[ix] >= 0:
                load_latency(addrs[ix])
        for ix in range(self._n_records):
            if kinds[ix] == 1:
                self._mgt_access(objs[ix].template.id)
        self.stats.mgt_misses = 0
        hierarchy.il1.accesses = hierarchy.il1.misses = 0
        hierarchy.dl1.accesses = hierarchy.dl1.misses = 0
        hierarchy.l2.accesses = hierarchy.l2.misses = 0

    def _next_event(self, cycle: int) -> int:
        """Earliest future cycle on which any stage could act.

        Only consulted on provably-quiet cycles (no stage did work). Every
        state change is driven by one of these events:

        * the window head becoming old enough to commit (commit, and the
          ROB/physical-register/LQ/SQ space that rename waits on);
        * a pending store reaching its resolve cycle (writeback, ordering
          violations, flush);
        * an issue-queue entry's predicted wakeup (``_iq_min_ready``, which
          also covers ALU-pipe and MG-slot back-pressure, mispredicted-
          branch resolution and replays);
        * the fetch-buffer head becoming old enough to rename;
        * fetch resuming after an I$/MGT fill or branch redirect.

        Returns ``_BIG`` when no event is pending (only possible once the
        trace is drained, or on a genuine model deadlock).
        """
        horizon = _BIG
        window = self._window
        if window:
            t = window[0].complete_cycle + self._to_commit
            if t < horizon:
                horizon = t
        for store in self._store_resolves:
            t = store.store_resolve_cycle
            if t < horizon:
                horizon = t
        if self._iq:
            t = self._iq_min_ready
            if t <= cycle:
                t = cycle + 1
            if t < horizon:
                horizon = t
        buf = self._fetch_buffer
        if buf:
            t = buf[0][1] + self._front_delay
            if cycle < t < horizon:
                horizon = t
        if self._fetch_block is None and len(buf) < self._fetch_buffer_cap \
                and (self._pending or self._fetch_ix < self._n_records):
            t = self._fetch_resume
            if cycle < t < horizon:
                horizon = t
        return horizon

    def _tap_words(self) -> int:
        """Initial event-buffer capacity for this run's tap families."""
        cap = ckern.tap_capacity(self.records)
        if self._tap_flags & ckern.TAP_FLAG_GLOBAL:
            # One TAP_VALUE record per committed singleton issue.
            cap += self.records.n * ckern.TAP_WORDS
        return cap

    def kernel_batch_entry(self, max_cycles: int):
        """This run as a ``ckern.run_batch`` descriptor; None when the
        compiled path is unavailable (caller keeps per-point dispatch).

        The marshalled trace and packed config are shared, memoized
        objects — many points in one batch (a selector sweep over one
        program, a config sweep on one machine) reference the same
        arena, and the kernel reads both strictly read-only.
        """
        if self._ctrace is None:
            return None
        cfg = ckern.pack_config_cached(self.config, self._warm_caches)
        tap_words = self._tap_words() if self._want_tap else 0
        return (cfg, self._ctrace, max_cycles, tap_words, self._tap_flags)

    def apply_kernel_result(self, rc, out, events, n_words,
                            overflowed) -> Optional[RunStats]:
        """Copy back one batched point's kernel result.

        Returns the completed :class:`RunStats`; None means the caller
        must rerun the point through the ordinary per-point path — tap
        overflow (which that path retries at 4x before degrading to the
        Python loop), allocation failure, or a simulated deadlock (which
        that path reports by raising exactly as the Python loop would).
        """
        if ckern.batch_point_fallback(rc, out, overflowed) is not None:
            return None
        return self._apply_kernel_result(rc, out, events, n_words)

    def _run_compiled(self, max_cycles: int) -> Optional[RunStats]:
        """Run via the C kernel; None means fall back to the Python loop.

        The kernel never mutates Python state, so a fallback rerun is
        always safe. On success (or a simulated deadlock, which the
        Python loop reports by raising mid-run) every externally visible
        counter — ``stats``, ``activity``, hierarchy/TLB/prefetcher and
        branch-unit totals — is copied back so callers cannot tell which
        path ran.
        """
        ck = ckern
        cfg = ck.pack_config_cached(self.config, self._warm_caches)
        events = n_words = None
        if self._want_tap:
            # Opt-in event tap: one retry at 4x capacity (squash storms
            # can exceed the static estimate), then Python fallback.
            cap = self._tap_words()
            rc, out, events, n_words, overflow = ck.run_tap(
                cfg, self._ctrace, max_cycles, cap, self._tap_flags)
            if overflow:
                ck.counters["tap_overflow_retries"] += 1
                rc, out, events, n_words, overflow = ck.run_tap(
                    cfg, self._ctrace, max_cycles, 4 * cap, self._tap_flags)
            if overflow:
                return None
        else:
            rc, out = ck.run(cfg, self._ctrace, max_cycles)
        if rc == ck.RC_NOMEM or out is None:
            return None
        return self._apply_kernel_result(rc, out, events, n_words)

    def _apply_kernel_result(self, rc, out, events,
                             n_words) -> Optional[RunStats]:
        """Copy every externally visible counter out of one kernel run
        (shared by the per-point and batched paths; raises on simulated
        deadlocks exactly as the Python loop does mid-run)."""
        ck = ckern
        stats = self.stats
        stats.cycles_skipped = out[ck.OUT_CYCLES_SKIPPED]
        stats.original_committed = out[ck.OUT_ORIGINAL_COMMITTED]
        stats.handles_committed = out[ck.OUT_HANDLES_COMMITTED]
        stats.embedded_committed = out[ck.OUT_EMBEDDED_COMMITTED]
        stats.slots_committed = out[ck.OUT_SLOTS_COMMITTED]
        stats.fetch_cycles_blocked = out[ck.OUT_FETCH_CYCLES_BLOCKED]
        stats.icache_stall_cycles = out[ck.OUT_ICACHE_STALL_CYCLES]
        stats.loads_issued = out[ck.OUT_LOADS_ISSUED]
        stats.store_forwards = out[ck.OUT_STORE_FORWARDS]
        stats.ordering_violations = out[ck.OUT_ORDERING_VIOLATIONS]
        stats.replays = out[ck.OUT_REPLAYS]
        stats.mg_serialized_instances = out[ck.OUT_MG_SERIALIZED]
        stats.mg_consumer_delays = out[ck.OUT_MG_CONSUMER_DELAYS]
        stats.mgt_misses = out[ck.OUT_MGT_MISSES]
        branch_unit = self.branch_unit
        branch_unit.cond_predictions = out[ck.OUT_COND_PRED]
        branch_unit.cond_mispredictions = out[ck.OUT_COND_MISPRED]
        branch_unit.indirect_predictions = out[ck.OUT_IND_PRED]
        branch_unit.indirect_mispredictions = out[ck.OUT_IND_MISPRED]
        hierarchy = self.hierarchy
        hierarchy.il1.accesses = out[ck.OUT_IL1_ACC]
        hierarchy.il1.misses = out[ck.OUT_IL1_MISS]
        hierarchy.dl1.accesses = out[ck.OUT_DL1_ACC]
        hierarchy.dl1.misses = out[ck.OUT_DL1_MISS]
        hierarchy.l2.accesses = out[ck.OUT_L2_ACC]
        hierarchy.l2.misses = out[ck.OUT_L2_MISS]
        hierarchy.itlb.accesses = out[ck.OUT_ITLB_ACC]
        hierarchy.itlb.misses = out[ck.OUT_ITLB_MISS]
        hierarchy.dtlb.accesses = out[ck.OUT_DTLB_ACC]
        hierarchy.dtlb.misses = out[ck.OUT_DTLB_MISS]
        if hierarchy.il1_prefetcher is not None:
            hierarchy.il1_prefetcher.issued = out[ck.OUT_IL1_PF_ISSUED]
        if hierarchy.dl1_prefetcher is not None:
            hierarchy.dl1_prefetcher.issued = out[ck.OUT_DL1_PF_ISSUED]
        self.storesets.violations = out[ck.OUT_SS_VIOLATIONS]
        activity = self.activity
        activity.fetch_slots = out[ck.OUT_ACT_FETCH_SLOTS]
        activity.rename_ops = out[ck.OUT_ACT_RENAME_OPS]
        activity.rename_map_reads = out[ck.OUT_ACT_MAP_READS]
        activity.phys_allocations = out[ck.OUT_ACT_PHYS_ALLOCS]
        activity.iq_insertions = out[ck.OUT_ACT_IQ_INSERTIONS]
        activity.iq_occupancy = out[ck.OUT_ACT_IQ_OCCUPANCY]
        activity.window_occupancy = out[ck.OUT_ACT_WINDOW_OCCUPANCY]
        activity.select_slots = out[ck.OUT_ACT_SELECT_SLOTS]
        activity.regfile_reads = out[ck.OUT_ACT_RF_READS]
        activity.regfile_writes = out[ck.OUT_ACT_RF_WRITES]
        activity.commit_slots = out[ck.OUT_ACT_COMMIT_SLOTS]
        activity.cycles = out[ck.OUT_ACT_CYCLES]
        self._cycle = out[ck.OUT_DEAD_CYCLE]
        # Deadlocks surface exactly as in the Python loop: counters up to
        # the failure point are live, but ``stats.cycles``/``cache_stats``
        # are only set on a completed run.
        if rc == ck.RC_BUDGET:
            raise SimulationDeadlock("exceeded max cycle budget")
        if rc == ck.RC_NO_COMMIT:
            raise SimulationDeadlock(
                f"no commit for 1M cycles at cycle {out[ck.OUT_DEAD_CYCLE]} "
                f"(ix={out[ck.OUT_DEAD_IX]}, "
                f"window={out[ck.OUT_DEAD_WINDOW]})")
        stats.cycles = out[ck.OUT_CYCLES]
        stats.cond_branches = out[ck.OUT_COND_PRED]
        stats.cond_mispredicts = out[ck.OUT_COND_MISPRED]
        stats.indirect_branches = out[ck.OUT_IND_PRED]
        stats.indirect_mispredicts = out[ck.OUT_IND_MISPRED]
        stats.cache_stats = {
            "il1_misses": out[ck.OUT_IL1_MISS],
            "dl1_misses": out[ck.OUT_DL1_MISS],
            "l2_misses": out[ck.OUT_L2_MISS],
        }
        if self._want_tap:
            # Post-hoc decode: collectors rebuild the exact state the
            # Python observer loop would have left behind (including the
            # on_finish() finalization the Python path runs at the end).
            committed = out[ck.OUT_SLOTS_COMMITTED]
            if self.collector is not None:
                self.collector.ingest_ckern_tap(self.records, events,
                                                n_words, committed)
            if self.attribution is not None:
                self.attribution.ingest_ckern_tap(self.records, events,
                                                  n_words, committed)
        return stats

    def run(self, max_cycles: int = 200_000_000) -> RunStats:
        """Run the trace to completion and return statistics."""
        if self._ctrace is not None:
            result = self._run_compiled(max_cycles)
            if result is not None:
                return result
            self._ctrace = None
        stats = self.stats
        if self._warm_caches:
            self._warm()
        activity = self.activity
        window = self._window
        buf = self._fetch_buffer
        to_commit = self._to_commit
        front_delay = self._front_delay
        n_records = self._n_records
        last_progress = 0
        last_committed = 0
        cycle = self._cycle
        # Occupancy integrals are accumulated locally and flushed once;
        # skipped cycles charge the (frozen) occupancy of the quiet state.
        iq_occupancy = 0
        window_occupancy = 0
        cycles_seen = 0
        try:
            while True:
                if self._fetch_ix >= n_records and not self._pending \
                        and not buf and not window:
                    break
                cycle += 1
                self._cycle = cycle
                if cycle > max_cycles:
                    raise SimulationDeadlock("exceeded max cycle budget")
                worked = False
                if window and window[0].complete_cycle + to_commit <= cycle:
                    self._commit_stage()
                    worked = True
                if self._store_resolves and self._writeback_stage():
                    worked = True
                if self._iq and self._iq_min_ready <= cycle \
                        and self._issue_stage():
                    worked = True
                if buf and buf[0][1] + front_delay <= cycle \
                        and self._rename_stage():
                    worked = True
                if self._fetch_block is not None:
                    stats.fetch_cycles_blocked += 1
                elif cycle >= self._fetch_resume and len(buf) < \
                        self._fetch_buffer_cap and \
                        (self._pending or self._fetch_ix < n_records):
                    self._fetch_stage()
                    worked = True
                iq_occupancy += len(self._iq)
                window_occupancy += len(window)
                cycles_seen += 1
                if stats.original_committed != last_committed:
                    last_committed = stats.original_committed
                    last_progress = cycle
                elif cycle - last_progress > 1_000_000:
                    raise SimulationDeadlock(
                        f"no commit for 1M cycles at cycle {cycle} "
                        f"(ix={self._fetch_ix}, window={len(window)})")
                if worked:
                    continue
                # Quiet cycle: jump the clock to the next event, charging
                # each skipped cycle's per-cycle effects (occupancy
                # integrals, blocked-fetch accounting) in bulk.
                target = self._next_event(cycle) - 1
                dead = last_progress + 1_000_001
                if target >= dead:
                    # The stepped loop would idle through `dead` and raise.
                    if dead > max_cycles:
                        self._cycle = max_cycles + 1
                        raise SimulationDeadlock(
                            "exceeded max cycle budget")
                    self._cycle = dead
                    raise SimulationDeadlock(
                        f"no commit for 1M cycles at cycle {dead} "
                        f"(ix={self._fetch_ix}, window={len(window)})")
                if target > max_cycles:
                    self._cycle = max_cycles + 1
                    raise SimulationDeadlock("exceeded max cycle budget")
                skipped = target - cycle
                if skipped > 0:
                    if self._fetch_block is not None:
                        stats.fetch_cycles_blocked += skipped
                    iq_occupancy += skipped * len(self._iq)
                    window_occupancy += skipped * len(window)
                    cycles_seen += skipped
                    stats.cycles_skipped += skipped
                    cycle = target
                    self._cycle = target
        finally:
            activity.merge_cycles(iq_occupancy, window_occupancy,
                                  cycles_seen)
        stats.cycles = self._cycle
        stats.cond_branches = self.branch_unit.cond_predictions
        stats.cond_mispredicts = self.branch_unit.cond_mispredictions
        stats.indirect_branches = self.branch_unit.indirect_predictions
        stats.indirect_mispredicts = self.branch_unit.indirect_mispredictions
        stats.cache_stats = {
            "il1_misses": self.hierarchy.il1.misses,
            "dl1_misses": self.hierarchy.dl1.misses,
            "l2_misses": self.hierarchy.l2.misses,
        }
        if self.collector is not None:
            self.collector.on_finish()
        return stats


def simulate(config: MachineConfig, records, policy=None, collector=None,
             program_name: str = "", warm_caches: bool = True) -> RunStats:
    """Convenience wrapper: build a core, run it, label the stats."""
    core = OoOCore(config, records, policy=policy, collector=collector,
                   warm_caches=warm_caches)
    result = core.run()
    result.program_name = program_name
    return result
