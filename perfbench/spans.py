"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``(name, start, end, parent, run_id, thread)``. Spans are kept
in a list while an op runs and written out when it ends; nothing is
emitted on the hot path. Spans come from the benchmark's own wrappers
around public functions of each layer (see ``layers.py``): nothing
inside the program is instrumented.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]     # index of the enclosing span, same thread
    run_id: str
    thread: int


class Tracer:
    """Records nested spans per thread plus named counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, self.run_id,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def record(self, name: str, start: float, end: float) -> None:
        """A root span timed by the caller (for coroutines, which share
        one thread and so cannot use the per-thread nesting stack)."""
        with self._lock:
            self.spans.append(Span(name, start, end, None, self.run_id,
                                   threading.get_ident()))

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, name, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span. ``name`` is a string or a function of
        the call's arguments; ``after(tracer, result, args, kwargs)``
        records counts once the call returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return wrapper


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (threads) or stick out of the
    parent (clock skew between threads); only the covered part of the
    parent's own interval is subtracted, so self time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [max(0.0, (span.end - span.start)
                - union_length(children.get(i, ())))
            for i, span in enumerate(spans)]


def root_coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by any span without a parent."""
    return union_length([(max(s.start, start), min(s.end, end))
                         for s in spans if s.parent is None
                         and min(s.end, end) > max(s.start, start)])


def patch(owner, attr: str, wrapper_for: Callable[[Callable], Callable]
          ) -> None:
    """Replace ``owner.attr`` and every ``from ... import`` alias of it.

    Functions imported by name (``from ..isa.interp import execute``)
    live on in the importing module's namespace, so the original is
    looked up by identity in every loaded ``repro`` module and swapped
    there too. Class attributes are swapped on the class itself.
    """
    original = owner.__dict__[attr]
    if isinstance(original, (classmethod, staticmethod)):
        kind = type(original)
        setattr(owner, attr, kind(wrapper_for(original.__func__)))
        return
    replacement = wrapper_for(original)
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is original:
                setattr(module, alias, replacement)
