"""Compiled fast path for the timing core (build + marshal + run).

``_ckern.c`` is a statement-for-statement C port of the hot loop in
:mod:`repro.pipeline.core` for runs without an in-loop observer
(``policy is None and tracer is None`` — every ``repro bench`` point and
every memoized baseline run). Observed runs whose collectors support the
packed event tap (:class:`~repro.minigraph.slack.SlackCollector`,
:class:`~repro.obs.attribution.AttributionCollector`) also run here: the
kernel appends fixed-width events into a preallocated ``array('q')``
buffer and the collectors reconstruct their profiles post-hoc,
bit-identical to the Python observer path. This module

* compiles it on demand with the system C compiler (no third-party
  dependencies; the shared object is cached under the user cache dir,
  keyed by a hash of the C source, so rebuilds only happen when the
  source changes),
* flattens the trace's mini-graph handle metadata into int64 columns the
  kernel can walk (the scalar columns come straight from
  :class:`~repro.isa.interp.PackedTrace` buffers, zero-copy),
* copies the kernel's counters back into the core's ``RunStats`` /
  ``ActivityCounters`` / hierarchy objects so callers cannot tell which
  path ran.

The Python implementation remains the behavioural reference: the golden
stats gate, ``tests/pipeline/test_ckern.py`` and the lockstep fuzzer hold
both paths to bit-identical results. Set ``REPRO_PURE_PY=1`` to force the
Python path (or when no C compiler is available, it is used
automatically).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_ckern.c")

# -- configuration slots (must match the enum in _ckern.c) -------------
(CFG_WIDTH, CFG_ISSUE_QUEUE, CFG_RENAME_POOL, CFG_ROB,
 CFG_LOAD_QUEUE, CFG_STORE_QUEUE,
 CFG_PORTS_SIMPLE, CFG_PORTS_COMPLEX, CFG_PORTS_LOAD, CFG_PORTS_STORE,
 CFG_FRONT_DELAY, CFG_REGREAD, CFG_TO_COMMIT,
 CFG_IL1_SETS, CFG_IL1_ASSOC, CFG_IL1_LINE, CFG_IL1_LAT,
 CFG_DL1_SETS, CFG_DL1_ASSOC, CFG_DL1_LINE, CFG_DL1_LAT,
 CFG_L2_SETS, CFG_L2_ASSOC, CFG_L2_LINE, CFG_L2_LAT,
 CFG_MEM_LATENCY,
 CFG_ITLB_SETS, CFG_ITLB_ASSOC, CFG_DTLB_SETS, CFG_DTLB_ASSOC,
 CFG_TLB_MISS_PENALTY,
 CFG_BIM_MASK, CFG_GSH_MASK, CFG_CHO_MASK,
 CFG_BTB_SETS, CFG_BTB_ASSOC, CFG_RAS_ENTRIES,
 CFG_SS_MASK, CFG_FORWARD_LATENCY,
 CFG_IL1_NLP, CFG_DL1_STRIDE, CFG_STRIDE_MASK, CFG_STRIDE_CONF,
 CFG_MG_MAX_ISSUE, CFG_MG_MAX_MEM_ISSUE, CFG_MG_ALU_PIPES,
 CFG_MGT_ENTRIES, CFG_MGT_FILL_LATENCY,
 CFG_FETCH_BUFFER_CAP, CFG_WARM, CFG_OP_JAL, CFG_OP_JR,
 CFG_COUNT) = range(53)

# -- output slots (must match the enum in _ckern.c) --------------------
(OUT_CYCLES, OUT_CYCLES_SKIPPED,
 OUT_ORIGINAL_COMMITTED, OUT_HANDLES_COMMITTED, OUT_EMBEDDED_COMMITTED,
 OUT_SLOTS_COMMITTED,
 OUT_FETCH_CYCLES_BLOCKED, OUT_ICACHE_STALL_CYCLES,
 OUT_COND_PRED, OUT_COND_MISPRED, OUT_IND_PRED, OUT_IND_MISPRED,
 OUT_LOADS_ISSUED, OUT_STORE_FORWARDS, OUT_ORDERING_VIOLATIONS,
 OUT_REPLAYS,
 OUT_MG_SERIALIZED, OUT_MG_CONSUMER_DELAYS, OUT_MGT_MISSES,
 OUT_IL1_ACC, OUT_IL1_MISS, OUT_DL1_ACC, OUT_DL1_MISS,
 OUT_L2_ACC, OUT_L2_MISS,
 OUT_ITLB_ACC, OUT_ITLB_MISS, OUT_DTLB_ACC, OUT_DTLB_MISS,
 OUT_IL1_PF_ISSUED, OUT_DL1_PF_ISSUED, OUT_SS_VIOLATIONS,
 OUT_ACT_FETCH_SLOTS, OUT_ACT_RENAME_OPS, OUT_ACT_MAP_READS,
 OUT_ACT_PHYS_ALLOCS, OUT_ACT_IQ_INSERTIONS,
 OUT_ACT_IQ_OCCUPANCY, OUT_ACT_WINDOW_OCCUPANCY,
 OUT_ACT_SELECT_SLOTS, OUT_ACT_RF_READS, OUT_ACT_RF_WRITES,
 OUT_ACT_COMMIT_SLOTS, OUT_ACT_CYCLES,
 OUT_DEAD_CYCLE, OUT_DEAD_IX, OUT_DEAD_WINDOW,
 OUT_COUNT) = range(48)

RC_OK = 0
RC_BUDGET = 1
RC_NO_COMMIT = 2
RC_NOMEM = 3
RC_UNSUPPORTED = 4  # plan kernels: shape outside packed bounds

#: Source positions per singleton in the packed profile columns
#: (stride of the ``src_sum``/``src_count``/``src_ready`` columns; the
#: ISA has at most 3 operands, must match PLAN_MAX_SRC in _ckern.c).
PLAN_MAX_SRC = 4

# -- event-tap tags (must match _ckern.c) ------------------------------
# Each event is three int64 words: ``(ix << 4) | tag, a, b``. See
# docs/performance.md for the full record catalogue.
TAP_ISSUE = 1      # a = issue cycle, b = out_actual_ready (raw, BIG if none)
TAP_CONSUME = 2    # ix = producer; a = cycle - ready, b = consumer ix
TAP_REDIRECT = 3   # a = resolve cycle
TAP_HANDLE = 4     # a = serialized | sial << 1, b = last - first_ready
TAP_CDELAY = 5     # ix = serialized producer handle
TAP_VALUE = 6      # singleton issue; a = value-ready, b = complete cycle
TAP_WORDS = 3      # int64 words per event
TAP_BIG = 1 << 60  # the kernel's "unset" sentinel for out_actual_ready

# tap_flags bits (must match TAPF_* in _ckern.c). Opt-in record families
# beyond the base catalogue; each costs buffer capacity, so observers
# advertise what they need via ``ckern_tap_flags``.
TAP_FLAG_GLOBAL = 1  # TAP_VALUE records for the global-slack backward DP

# The kernel bounds per-uop producer fan-in; traces beyond it (none in
# practice: ISA ops have <= 3 sources, handles a handful of external
# inputs) fall back to the Python path.
MAX_PRODUCERS = 8

_I64P = ctypes.POINTER(ctypes.c_int64)
_I8P = ctypes.POINTER(ctypes.c_int8)
_DBLP = ctypes.POINTER(ctypes.c_double)


class _CTrace(ctypes.Structure):
    """Mirror of the CTrace struct in ``_ckern.c`` (field order matters)."""

    _fields_ = [
        ("pc", _I64P), ("op", _I64P), ("opclass", _I64P),
        ("latency", _I64P), ("rd", _I64P), ("addr", _I64P),
        ("next_pc", _I64P), ("srcs", _I64P), ("srcs_start", _I64P),
        ("kind", _I8P), ("taken", _I8P),
        ("n", ctypes.c_int64),
        ("hidx", _I64P),
        ("h_tpl", _I64P), ("h_nominal", _I64P), ("h_outix", _I64P),
        ("h_flags", _I64P),
        ("h_mem_pc", _I64P), ("h_site", _I64P), ("h_coff", _I64P),
        ("h_cnt", _I64P),
        ("c_opclass", _I64P), ("c_latency", _I64P), ("c_addr", _I64P),
        ("c_rd", _I64P),
        ("site_consumer_ix", _I64P),
        ("n_handles", ctypes.c_int64), ("n_sites", ctypes.c_int64),
    ]


class _CBatchPoint(ctypes.Structure):
    """Mirror of the BatchPoint struct in ``_ckern.c``."""

    _fields_ = [
        ("cfg", _I64P),
        ("trace", ctypes.POINTER(_CTrace)),
        ("out", _I64P),
        ("max_cycles", ctypes.c_int64),
        ("tap", _I64P),
        ("tap_cap", ctypes.c_int64),
        ("tap_flags", ctypes.c_int64),
        ("status", ctypes.c_int64),
        ("tap_len", ctypes.c_int64),
        ("tap_ovf", ctypes.c_int64),
    ]


# Dispatch/fallback tallies for the batched path, harvested post-hoc by
# ``repro.obs.metrics.collect_ckern`` (pure counters: reading or
# exporting them never changes behaviour).
counters = {
    "batch_dispatches": 0,     # repro_run_batch native calls
    "batch_points": 0,         # points submitted across all batches
    "batch_fallbacks": 0,      # points the kernel could not finish
    # Every batchable point rerun per point, by reason (repro.exec.batch);
    # the last four are the kernel-side ones ``batch_fallbacks`` sums.
    # Raised errors are also tallied per exception type, under
    # ``batch_setup_error.<type>`` / ``batch_copy_back_error.<type>``.
    "batch_fallback_store_hit": 0,     # artifact already stored
    "batch_fallback_ineligible": 0,    # no kernel path for the point
    "batch_fallback_setup_error": 0,   # plan/trace/core set-up raised
    "batch_fallback_tap_overflow": 0,  # event buffer overflowed
    "batch_fallback_deadlock": 0,      # cycle budget or no-commit stall
    "batch_fallback_nomem": 0,         # kernel allocation failure
    "batch_fallback_copy_back_error": 0,  # result copy-back raised
    "batch_threads_last": 0,   # threads used by the most recent batch
    "tap_overflow_retries": 0,  # single-point 4x event-buffer retries
    # Plan-construction kernels (profile build / global-slack fold).
    "profiles_built_native": 0,       # repro_profile_build successes
    "global_folds_native": 0,         # repro_global_fold successes
    "plan_fallbacks": 0,       # plan-kernel calls degraded to Python
}


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

_lib = None
_lib_failed = False


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-ckern")


def _find_compiler() -> Optional[str]:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _build() -> Optional[str]:
    """Compile ``_ckern.c`` into a cached shared object; None on failure."""
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError:
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    compiler = _find_compiler()
    if compiler is None:
        return None
    for cache_dir in (_cache_dir(),
                      os.path.join(tempfile.gettempdir(), "repro-ckern")):
        lib_path = os.path.join(cache_dir, f"ckern-{digest}.so")
        if os.path.exists(lib_path):
            return lib_path
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
            os.close(fd)
            # Prefer the threaded build (repro_run_batch fans out over a
            # pthread pool); toolchains without pthreads still get the
            # full kernel with an in-call serial batch loop.
            built = False
            for extra in (["-pthread", "-DREPRO_THREADS=1"], []):
                cmd = [compiler, "-O2", "-fPIC", "-shared", *extra,
                       "-o", tmp, _SOURCE]
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
                if proc.returncode == 0:
                    built = True
                    break
            if not built:
                os.unlink(tmp)
                return None
            os.replace(tmp, lib_path)  # atomic: concurrent builds race safely
            return lib_path
        except OSError:
            continue
    return None


def _load():
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    lib_path = _build()
    if lib_path is None:
        _lib_failed = True
        return None
    try:
        lib = ctypes.CDLL(lib_path)
        lib.repro_run.restype = ctypes.c_int64
        lib.repro_run.argtypes = [_I64P, ctypes.POINTER(_CTrace), _I64P,
                                  ctypes.c_int64]
        lib.repro_run_tap.restype = ctypes.c_int64
        lib.repro_run_tap.argtypes = [_I64P, ctypes.POINTER(_CTrace), _I64P,
                                      ctypes.c_int64, _I64P, ctypes.c_int64,
                                      _I64P, ctypes.c_int64]
        lib.repro_run_batch.restype = ctypes.c_int64
        lib.repro_run_batch.argtypes = [ctypes.POINTER(_CBatchPoint),
                                        ctypes.c_int64, ctypes.c_int64]
        lib.repro_tap_fold.restype = None
        lib.repro_tap_fold.argtypes = [_I64P, ctypes.c_int64, _I64P, _I64P,
                                       _I64P]
        lib.repro_profile_build.restype = ctypes.c_int64
        lib.repro_profile_build.argtypes = [
            _I64P, ctypes.c_int64, ctypes.c_int64,       # event log
            _I8P, _I64P, _I64P, _I64P, _I64P,            # trace columns
            ctypes.c_int64,                              # n
            _I8P, ctypes.c_int64,                        # leaders, n_static
            ctypes.c_int64, ctypes.c_int64,              # anchor, cap
            _I64P, _I64P, _I64P, _I64P, _I64P,           # count..n_src
            _I64P, _I64P, _I64P, _I64P,                  # out/slack/min
            _I64P, _I64P]                                # order, meta
        lib.repro_global_fold.restype = ctypes.c_int64
        lib.repro_global_fold.argtypes = [
            _I64P, ctypes.c_int64, ctypes.c_int64,       # event log
            _I8P, _I64P, ctypes.c_int64,                 # kind, pc, n
            ctypes.c_int64, _DBLP, _DBLP, _I64P]         # cap, aggregates
    except (OSError, AttributeError):
        _lib_failed = True
        return None
    _lib = lib
    return lib


def available() -> bool:
    """True when the compiled kernel can be used in this process."""
    if os.environ.get("REPRO_PURE_PY"):
        return False
    return _load() is not None


# ---------------------------------------------------------------------
# Marshalling
# ---------------------------------------------------------------------

def _col(arr, ctype):
    """A ctypes pointer over a typed array's buffer (zero-copy)."""
    if not len(arr):
        arr = array(arr.typecode, [0])
    return ((ctype * len(arr)).from_buffer(arr), arr)


class MarshalledTrace:
    """The flat column view of one PackedTrace handed to the kernel."""

    def __init__(self, struct, keepalive):
        self.struct = struct
        self._keepalive = keepalive  # buffers the struct points into


def marshal(packed) -> Optional[MarshalledTrace]:
    """Flatten ``packed`` (a PackedTrace) for the kernel; None if the
    trace exceeds a kernel bound (caller falls back to Python)."""
    n = packed.n
    srcs_start = packed.srcs_start
    max_srcs = 0
    for i in range(n):
        w = srcs_start[i + 1] - srcs_start[i]
        if w > max_srcs:
            max_srcs = w
    if max_srcs > MAX_PRODUCERS:
        return None

    hidx = array("q", [-1] * n) if n else array("q")
    h_tpl = array("q")
    h_nominal = array("q")
    h_outix = array("q")
    h_flags = array("q")
    h_mem_pc = array("q")
    h_site = array("q")
    h_coff = array("q")
    h_cnt = array("q")
    c_opclass = array("q")
    c_latency = array("q")
    c_addr = array("q")
    c_rd = array("q")
    site_ids = {}           # id(site) -> dense index
    site_tables = array("q")
    kinds = packed.kind
    objs = packed.objs
    for ix in range(n):
        if kinds[ix] != 1:
            continue
        rec = objs[ix]
        site = rec.site
        tpl = rec.template
        key = id(site)
        dense = site_ids.get(key)
        if dense is None:
            dense = len(site_ids)
            site_ids[key] = dense
            table = [0] * 32
            for reg, consumer in site.input_consumer_ix.items():
                if 0 <= reg < 32:
                    table[reg] = consumer
            site_tables.extend(table)
        hidx[ix] = len(h_tpl)
        h_tpl.append(tpl.id)
        h_nominal.append(tpl.nominal_out_latency)
        h_outix.append(tpl.out_producer_ix)
        h_flags.append((1 if tpl.has_branch else 0) |
                       (2 if tpl.has_load else 0) |
                       (4 if tpl.has_store else 0))
        h_mem_pc.append(rec.site.mem_pc)
        h_site.append(dense)
        h_coff.append(len(c_opclass))
        h_cnt.append(len(rec.constituents))
        for c in rec.constituents:
            c_opclass.append(c.opclass)
            c_latency.append(c.latency)
            c_addr.append(c.addr)
            c_rd.append(c.rd)

    keepalive = []

    def col(arr, ctype=ctypes.c_int64):
        buf, owner = _col(arr, ctype)
        keepalive.append(owner)
        keepalive.append(buf)
        return ctypes.cast(buf, ctypes.POINTER(ctype))

    struct = _CTrace(
        pc=col(packed.pc), op=col(packed.op), opclass=col(packed.opclass),
        latency=col(packed.latency), rd=col(packed.rd),
        addr=col(packed.addr), next_pc=col(packed.next_pc),
        srcs=col(packed.srcs), srcs_start=col(packed.srcs_start),
        kind=col(packed.kind, ctypes.c_int8),
        taken=col(packed.taken, ctypes.c_int8),
        n=n,
        hidx=col(hidx), h_tpl=col(h_tpl), h_nominal=col(h_nominal),
        h_outix=col(h_outix), h_flags=col(h_flags),
        h_mem_pc=col(h_mem_pc), h_site=col(h_site), h_coff=col(h_coff),
        h_cnt=col(h_cnt),
        c_opclass=col(c_opclass), c_latency=col(c_latency),
        c_addr=col(c_addr), c_rd=col(c_rd),
        site_consumer_ix=col(site_tables),
        n_handles=len(h_tpl), n_sites=len(site_ids),
    )
    return MarshalledTrace(struct, keepalive)


# Marshalled-trace arena reuse: a batch (and repeat runs over the same
# PackedTrace, e.g. a selector sweep on one program) shares one flat
# column view instead of re-marshalling per point. Keyed by trace
# identity — the strong reference makes the id stable for the lifetime
# of the entry — and bounded so long multi-program campaigns cannot pin
# every trace they ever touched.
_marshal_cache: dict = {}
_MARSHAL_CACHE_MAX = 8


def marshal_shared(packed) -> Optional[MarshalledTrace]:
    """Memoizing :func:`marshal`; safe because the kernel reads the
    columns strictly read-only (points in one batch share the arena)."""
    key = id(packed)
    hit = _marshal_cache.get(key)
    if hit is not None and hit[0] is packed:
        return hit[1]
    mtrace = marshal(packed)
    if mtrace is not None:
        if len(_marshal_cache) >= _MARSHAL_CACHE_MAX:
            _marshal_cache.clear()
        _marshal_cache[key] = (packed, mtrace)
    return mtrace


def pack_config(config, warm_caches: bool) -> array:
    """The flat int64 config block consumed by the kernel."""
    from ..isa import opcodes as oc
    from .caches import TLB_MISS_PENALTY

    cfg = array("q", [0] * CFG_COUNT)
    cfg[CFG_WIDTH] = config.width
    cfg[CFG_ISSUE_QUEUE] = config.issue_queue
    cfg[CFG_RENAME_POOL] = max(config.phys_regs - 64, 8)
    cfg[CFG_ROB] = config.rob
    cfg[CFG_LOAD_QUEUE] = config.load_queue
    cfg[CFG_STORE_QUEUE] = config.store_queue
    cfg[CFG_PORTS_SIMPLE] = config.ports_simple
    cfg[CFG_PORTS_COMPLEX] = config.ports_complex
    cfg[CFG_PORTS_LOAD] = config.ports_load
    cfg[CFG_PORTS_STORE] = config.ports_store
    cfg[CFG_FRONT_DELAY] = config.stages_front - 1
    cfg[CFG_REGREAD] = config.stages_regread
    cfg[CFG_TO_COMMIT] = config.stages_to_commit
    for slot, cc in ((CFG_IL1_SETS, config.il1), (CFG_DL1_SETS, config.dl1),
                     (CFG_L2_SETS, config.l2)):
        cfg[slot] = cc.n_sets
        cfg[slot + 1] = cc.assoc
        cfg[slot + 2] = cc.line_bytes
        cfg[slot + 3] = cc.latency
    cfg[CFG_MEM_LATENCY] = config.mem_latency
    cfg[CFG_ITLB_SETS] = 64 // 4        # Tlb() defaults in caches.py
    cfg[CFG_ITLB_ASSOC] = 4
    cfg[CFG_DTLB_SETS] = 64 // 4
    cfg[CFG_DTLB_ASSOC] = 4
    cfg[CFG_TLB_MISS_PENALTY] = TLB_MISS_PENALTY
    cfg[CFG_BIM_MASK] = (1 << config.bimodal_bits) - 1
    cfg[CFG_GSH_MASK] = (1 << config.gshare_bits) - 1
    cfg[CFG_CHO_MASK] = (1 << config.chooser_bits) - 1
    cfg[CFG_BTB_SETS] = config.btb_entries // config.btb_assoc
    cfg[CFG_BTB_ASSOC] = config.btb_assoc
    cfg[CFG_RAS_ENTRIES] = config.ras_entries
    cfg[CFG_SS_MASK] = config.store_sets - 1
    cfg[CFG_FORWARD_LATENCY] = config.forward_latency
    cfg[CFG_IL1_NLP] = 1 if config.il1_next_line_prefetch else 0
    cfg[CFG_DL1_STRIDE] = 1 if config.dl1_stride_prefetch else 0
    cfg[CFG_STRIDE_MASK] = 256 - 1      # StridePrefetcher() defaults
    cfg[CFG_STRIDE_CONF] = 2
    cfg[CFG_MG_MAX_ISSUE] = config.mg_max_issue
    cfg[CFG_MG_MAX_MEM_ISSUE] = config.mg_max_mem_issue
    cfg[CFG_MG_ALU_PIPES] = config.mg_alu_pipelines
    cfg[CFG_MGT_ENTRIES] = config.mgt_entries
    cfg[CFG_MGT_FILL_LATENCY] = config.l2.latency
    cfg[CFG_FETCH_BUFFER_CAP] = (config.stages_front + 2) * config.width
    cfg[CFG_WARM] = 1 if warm_caches else 0
    cfg[CFG_OP_JAL] = oc.JAL
    cfg[CFG_OP_JR] = oc.JR
    return cfg


@lru_cache(maxsize=64)
def pack_config_cached(config, warm_caches: bool) -> array:
    """Memoized :func:`pack_config` (MachineConfig is frozen/hashable).

    The returned block is shared: the kernel treats it as ``const`` and
    callers must never mutate it. Every timing point re-packed the same
    handful of named configs before; a batch now packs each distinct
    ``(config, warm)`` once.
    """
    return pack_config(config, warm_caches)


def run(cfg: array, mtrace: MarshalledTrace, max_cycles: int):
    """Invoke the kernel. Returns ``(rc, out)``; out is the counter block.

    The kernel never mutates Python state, so any non-zero internal
    failure (``RC_NOMEM``) leaves the core free to rerun in pure Python.
    """
    lib = _load()
    if lib is None:
        return RC_NOMEM, None
    out = array("q", [0] * OUT_COUNT)
    cfg_buf, _cfg_owner = _col(cfg, ctypes.c_int64)
    out_buf = (ctypes.c_int64 * OUT_COUNT).from_buffer(out)
    rc = lib.repro_run(
        ctypes.cast(cfg_buf, _I64P), ctypes.byref(mtrace.struct),
        ctypes.cast(out_buf, _I64P), max_cycles)
    return rc, out


def tap_capacity(packed) -> int:
    """Initial event-buffer capacity (int64 words) for ``packed``.

    A squash-free run emits at most one ISSUE plus one HANDLE per record
    and one CONSUME per (deduped) source, so ``2n + |srcs|`` events with
    a flat floor covers it; squash/replay storms beyond the slack are
    absorbed by one 4x retry before falling back to the Python loop.
    """
    return (2 * packed.n + len(packed.srcs) + 4096) * TAP_WORDS


def run_tap(cfg: array, mtrace: MarshalledTrace, max_cycles: int,
            tap_words: int, tap_flags: int = 0):
    """Invoke the kernel with the event tap armed.

    Returns ``(rc, out, events, n_words, overflowed)``. ``events`` is an
    ``array('q')`` whose first ``n_words`` entries are valid packed
    events; on overflow the log is truncated (the counters are still
    exact) and the caller either retries with a larger buffer or falls
    back to the Python observer loop. ``tap_flags`` selects opt-in
    record families (:data:`TAP_FLAG_GLOBAL` adds TAP_VALUE records).
    """
    lib = _load()
    if lib is None:
        return RC_NOMEM, None, None, 0, False
    out = array("q", [0] * OUT_COUNT)
    events = array("q", bytes(8 * tap_words))
    meta = array("q", [0, 0])
    cfg_buf, _cfg_owner = _col(cfg, ctypes.c_int64)
    out_buf = (ctypes.c_int64 * OUT_COUNT).from_buffer(out)
    tap_buf = (ctypes.c_int64 * tap_words).from_buffer(events)
    meta_buf = (ctypes.c_int64 * 2).from_buffer(meta)
    rc = lib.repro_run_tap(
        ctypes.cast(cfg_buf, _I64P), ctypes.byref(mtrace.struct),
        ctypes.cast(out_buf, _I64P), max_cycles,
        ctypes.cast(tap_buf, _I64P), tap_words,
        ctypes.cast(meta_buf, _I64P), tap_flags)
    del tap_buf, meta_buf  # release from_buffer exports before returning
    return rc, out, events, meta[0], bool(meta[1])


#: One batch descriptor: ``(cfg, mtrace, max_cycles, tap_words,
#: tap_flags)`` — ``tap_words == 0`` runs the point unobserved.
BatchEntry = Tuple[array, MarshalledTrace, int, int, int]


def run_batch(entries: Sequence[BatchEntry], threads: int
              ) -> Optional[List[tuple]]:
    """Run N points in one native, GIL-released call.

    Each entry is ``(cfg, mtrace, max_cycles, tap_words, tap_flags)``;
    marshalled traces and packed configs may (and should) be shared
    between entries — the kernel reads both strictly read-only. Returns
    a per-point list of ``(rc, out, events, n_words, overflowed)`` in
    entry order, exactly what :func:`run` / :func:`run_tap` would have
    returned point by point, or None when the library is unavailable
    (caller falls back to per-point dispatch). Failures are per-point:
    one point's budget/deadlock/overflow never poisons its batchmates.
    """
    if not available():
        return None
    lib = _load()
    n = len(entries)
    if n == 0:
        return []
    pts = (_CBatchPoint * n)()
    keepalive = []
    cells = []
    for i, (cfg, mtrace, max_cycles, tap_words, tap_flags) in \
            enumerate(entries):
        out = array("q", [0] * OUT_COUNT)
        cfg_buf, cfg_owner = _col(cfg, ctypes.c_int64)
        out_buf = (ctypes.c_int64 * OUT_COUNT).from_buffer(out)
        p = pts[i]
        p.cfg = ctypes.cast(cfg_buf, _I64P)
        p.trace = ctypes.pointer(mtrace.struct)
        p.out = ctypes.cast(out_buf, _I64P)
        p.max_cycles = max_cycles
        if tap_words > 0:
            events = array("q", bytes(8 * tap_words))
            tap_buf = (ctypes.c_int64 * tap_words).from_buffer(events)
            p.tap = ctypes.cast(tap_buf, _I64P)
            p.tap_cap = tap_words
        else:
            events = None
            tap_buf = None
            p.tap = None
            p.tap_cap = 0
        p.tap_flags = tap_flags
        keepalive.append((cfg_buf, cfg_owner, out_buf, tap_buf, mtrace))
        cells.append((out, events))
    used = lib.repro_run_batch(pts, n, max(1, threads))
    counters["batch_dispatches"] += 1
    counters["batch_points"] += n
    counters["batch_threads_last"] = int(used)
    results = []
    for i, (out, events) in enumerate(cells):
        p = pts[i]
        results.append((int(p.status), out, events, int(p.tap_len),
                        bool(p.tap_ovf)))
    del keepalive, pts  # release from_buffer exports before returning
    return results


def batch_point_fallback(rc: int, out, overflowed: bool) -> Optional[str]:
    """Why one :func:`run_batch` point must be rerun per point, or None
    when the kernel finished it: ``"tap_overflow"``, ``"deadlock"``
    (cycle budget or no-commit stall) or ``"nomem"``."""
    if overflowed:
        return "tap_overflow"
    if rc in (RC_BUDGET, RC_NO_COMMIT):
        return "deadlock"
    if rc != RC_OK or out is None:
        return "nomem"
    return None


def tap_fold(events: array, n_words: int, cells: array,
             issue_cycle: array, out_ready: array) -> bool:
    """Fold the event log into per-record decode cells, in C.

    Performs exactly the first pass of
    :meth:`~repro.minigraph.slack.SlackCollector.ingest_ckern_tap`
    (CONSUME min / ISSUE reset / REDIRECT zero) over the ``n_words``
    valid words of ``events``, mutating the three ``array('q')`` columns
    in place. Returns False when the library is unavailable (or
    ``REPRO_PURE_PY`` demands the reference loop) so callers keep the
    pure-Python fold as a fallback.
    """
    if not available():
        return False
    lib = _load()
    if lib is None:
        return False
    if n_words:
        ev_buf = (ctypes.c_int64 * len(events)).from_buffer(events)
        cell_buf = (ctypes.c_int64 * len(cells)).from_buffer(cells)
        ic_buf = (ctypes.c_int64 * len(issue_cycle)).from_buffer(issue_cycle)
        or_buf = (ctypes.c_int64 * len(out_ready)).from_buffer(out_ready)
        lib.repro_tap_fold(
            ctypes.cast(ev_buf, _I64P), n_words,
            ctypes.cast(cell_buf, _I64P), ctypes.cast(ic_buf, _I64P),
            ctypes.cast(or_buf, _I64P))
        del ev_buf, cell_buf, ic_buf, or_buf
    return True


# ---------------------------------------------------------------------
# Plan-construction kernels
# ---------------------------------------------------------------------
#
# Thin array-in/array-out wrappers over the _ckern.c plan entry points.
# Domain logic (what the columns mean) lives with the Python reference
# implementations in minigraph/slack.py and analysis/global_slack.py;
# every wrapper returns None when the library is unavailable (or the
# shape exceeds the packed-format bounds) so those references remain
# the fallback path.


class PackedProfileAcc:
    """SoA accumulator columns from one native profile build.

    Dense per-static-pc ``array('q')`` columns mirroring
    ``minigraph.slack._Accumulator`` field for field (the source
    columns use stride :data:`PLAN_MAX_SRC`); ``order`` lists the
    first-commit pcs in commit order so ``profile()`` iterates entries
    exactly as the reference ``_acc`` dict would.
    """

    __slots__ = ("n_static", "count", "issue_sum", "src_sum", "src_count",
                 "n_src", "out_sum", "out_count", "slack_sum", "min_slack",
                 "order", "n_order", "anchor")


def profile_build(events: array, n_words: int, n_committed: int,
                  packed, is_leader: array, n_static: int,
                  anchor: int, slack_cap: int
                  ) -> Optional[PackedProfileAcc]:
    """One-call slack-profile build from a packed event log.

    Fuses the :func:`tap_fold` first pass with the committed-prefix
    aggregation loop of ``SlackCollector.ingest_ckern_tap``. Returns
    the packed accumulator columns, or None (library unavailable,
    ``REPRO_PURE_PY``, or unsupported shape) — the caller then runs the
    Python reference loop.
    """
    if not available():
        return None
    lib = _load()
    n = packed.n
    if n == 0 or n_committed > n or n_static <= 0:
        return None
    acc = PackedProfileAcc()
    acc.n_static = n_static
    acc.count = array("q", bytes(8 * n_static))
    acc.issue_sum = array("q", bytes(8 * n_static))
    acc.src_sum = array("q", bytes(8 * n_static * PLAN_MAX_SRC))
    acc.src_count = array("q", bytes(8 * n_static * PLAN_MAX_SRC))
    acc.n_src = array("q", bytes(8 * n_static))
    acc.out_sum = array("q", bytes(8 * n_static))
    acc.out_count = array("q", bytes(8 * n_static))
    acc.slack_sum = array("q", bytes(8 * n_static))
    acc.min_slack = array("q", [slack_cap]) * n_static
    acc.order = array("q", bytes(8 * n_static))
    meta = array("q", [0, 0])
    keep = []

    def p64(arr):
        buf, owner = _col(arr, ctypes.c_int64)
        keep.append((buf, owner))
        return ctypes.cast(buf, _I64P)

    def p8(arr):
        buf, owner = _col(arr, ctypes.c_int8)
        keep.append((buf, owner))
        return ctypes.cast(buf, _I8P)

    rc = lib.repro_profile_build(
        p64(events), n_words, n_committed,
        p8(packed.kind), p64(packed.pc), p64(packed.rd),
        p64(packed.srcs), p64(packed.srcs_start), n,
        p8(is_leader), n_static, anchor, slack_cap,
        p64(acc.count), p64(acc.issue_sum),
        p64(acc.src_sum), p64(acc.src_count), p64(acc.n_src),
        p64(acc.out_sum), p64(acc.out_count),
        p64(acc.slack_sum), p64(acc.min_slack),
        p64(acc.order), p64(meta))
    del keep
    if rc != RC_OK:
        counters["plan_fallbacks"] += 1
        return None
    acc.n_order = meta[0]
    acc.anchor = meta[1]
    counters["profiles_built_native"] += 1
    return acc


def global_fold(events: array, n_words: int, n_committed: int,
                packed, n_static: int, slack_cap: int) -> Optional[tuple]:
    """Global-slack event decode plus backward DP, in C.

    Returns ``(n_singletons, sums, mins, counts)`` per-static-pc
    aggregate columns (``sums``/``mins`` are ``array('d')`` holding the
    exact doubles the Python DP would), or None — the caller then runs
    the reference decode in ``analysis/global_slack.py``.
    """
    if not available():
        return None
    lib = _load()
    n = packed.n
    if n == 0 or n_committed > n or n_static <= 0:
        return None
    sums = array("d", bytes(8 * n_static))
    mins = array("d", [float(slack_cap)]) * n_static
    counts = array("q", bytes(8 * n_static))
    keep = []

    def p64(arr):
        buf, owner = _col(arr, ctypes.c_int64)
        keep.append((buf, owner))
        return ctypes.cast(buf, _I64P)

    def p8(arr):
        buf, owner = _col(arr, ctypes.c_int8)
        keep.append((buf, owner))
        return ctypes.cast(buf, _I8P)

    def pd(arr):
        buf = (ctypes.c_double * len(arr)).from_buffer(arr)
        keep.append((buf, arr))
        return ctypes.cast(buf, _DBLP)

    rc = lib.repro_global_fold(
        p64(events), n_words, n_committed,
        p8(packed.kind), p64(packed.pc), n,
        slack_cap, pd(sums), pd(mins), p64(counts))
    del keep
    if rc < 0:
        counters["plan_fallbacks"] += 1
        return None
    counters["global_folds_native"] += 1
    return int(rc), sums, mins, counts
