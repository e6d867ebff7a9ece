"""Host-speed calibration: scale op times to a reference host speed.

Shared hosts drift in speed by tens of percent over seconds (other
tenants contend for cores, caches and memory bandwidth). Each op times
three fixed interpreter probes in its own process right before and
right after its timed region, and its times are scaled by the host's
speed relative to the reference host. The probes cover what the
simulator leans on: dict stores and lookups in a small table, allocation
of small containers, and random reads over a buffer larger than the
caches. Readings must come from the op's own process: the two CPUs of a
shared host are contended differently, so a reading taken by another
process can describe the other CPU. Raw times are kept in the report.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Callable, Dict, List, Sequence

#: Seconds of each probe on the reference host (a 2-CPU x86-64 Linux
#: container, CPython 3.11) in its quiet periods: the 5th percentile of
#: a 30-second sample, so scaled times read as quiet-host seconds.
REFERENCE_S = {"table": 0.0100, "alloc": 0.0137, "memory": 0.0135}

_MEMORY_BYTES = 1 << 24
_buffer = bytearray()


def _probe_table() -> int:
    table: Dict[int, tuple] = {}
    total = 0
    for i in range(50_000):
        key = (i * 7) & 1023
        table[i & 1023] = (i, key)
        total += table.get(key, (0, i))[1]
    return total


def _probe_alloc() -> int:
    kept: List = []
    for i in range(25_000):
        kept.append({"a": i, "b": (i, i + 1), "c": [i]})
        if len(kept) > 20_000:
            kept = []
    return len(kept)


def _probe_memory() -> int:
    global _buffer  # noqa: PLW0603 - one buffer per process, rebuilt lazily
    if not _buffer:
        # Written, not just allocated: untouched pages all map the one
        # shared zero page and would never miss in cache.
        _buffer = bytearray(b"\x01") * _MEMORY_BYTES
    mask = _MEMORY_BYTES - 1
    index = total = 0
    for _ in range(60_000):
        index = (index * 1103515245 + 12345) & mask
        total += _buffer[index]
    return total


def release() -> None:
    """Free the memory probe's buffer (it is rebuilt on next use)."""
    global _buffer
    _buffer = bytearray()


PROBES: Dict[str, Callable[[], int]] = {
    "table": _probe_table, "alloc": _probe_alloc, "memory": _probe_memory,
}


def probe_times(repeats: int = 3, cpus: Sequence[int] = ()
                ) -> Dict[str, float]:
    """Median seconds of each probe, now. With ``cpus`` the probes run
    pinned to each of those CPUs in turn and the readings are averaged
    (geometric mean): ops whose work runs in several processes at once
    see all of the host's CPUs, not just the one this process is on."""
    if cpus:
        previous = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(probe_times(repeats))
        finally:
            os.sched_setaffinity(0, previous)
        return {name: math.exp(sum(math.log(r[name]) for r in per_cpu)
                               / len(per_cpu)) for name in PROBES}
    out = {}
    for name, probe in PROBES.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            probe()
            times.append(time.perf_counter() - start)
        out[name] = sorted(times)[repeats // 2]
    return out


def speed_scale(readings: Sequence[Dict[str, float]]) -> float:
    """Factor turning raw seconds into reference-host seconds: the
    geometric mean over probes of reference time / median reading."""
    logs = [math.log(REFERENCE_S[name]
                     / statistics.median(r[name] for r in readings))
            for name in PROBES]
    return math.exp(sum(logs) / len(logs))
