"""Summary statistics and output checks shared by the benchmark's parts.

Pure functions only: no repro imports, so the orchestrator and the tests
can use them without loading the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = math.ceil(pos)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(values: Sequence[float], want: float = 95.0,
                    beyond: int = TAIL_SAMPLES) -> Tuple[float, float]:
    """``(pct, value)``: the ``want`` percentile, or the highest lower
    one that still has at least ``beyond`` samples above it.

    A p95 over 40 samples rests on two points; the report instead gives
    the highest percentile ``p`` with ``n * (1 - p/100) >= beyond``, so
    a tail value is never one outlier. With fewer than ``beyond`` + 1
    samples there is no such tail and the median is returned.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail percentile of no samples")
    highest = 100.0 * (1.0 - beyond / n) if n > beyond else 50.0
    pct = max(50.0, min(want, math.floor(highest * 10) / 10))
    return pct, percentile(values, pct)


def digest(doc) -> str:
    """SHA-256 (16 hex digits) of a JSON-able document in canonical form.

    Floats are written with ``repr`` precision by ``json``, so any change
    in a simulated statistic, however small, changes the digest.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compare_points(reference: Dict[str, list],
                   observed: Optional[Dict[str, list]]) -> List[str]:
    """Point keys whose statistics differ between two runs.

    A point missing from ``observed`` (or an op that produced nothing)
    counts as a mismatch, so ``len(result)`` feeds ``error_rate``.
    """
    if observed is None:
        return sorted(reference)
    bad = [key for key, stats in reference.items()
           if observed.get(key) != stats]
    bad.extend(key for key in observed if key not in reference)
    return sorted(bad)


def output_digest(points: Dict[str, list], render: str) -> str:
    """The committed-reference digest: per-point statistics plus the
    rendered figure text."""
    return digest({"points": points, "render": render})


def error_rate(failed: int, attempted: int) -> float:
    """Failed (raised, refused or mismatched) units over attempted."""
    return failed / attempted if attempted else 1.0
