"""In-memory span recorder that wraps layer entry points from outside.

A :class:`Tracer` patches attributes (module functions, class methods,
dict entries) with wrappers that record one span per call: name, start,
end, and the enclosing span on the same thread.  Spans stay in memory
until :meth:`Tracer.dump`; self time is a span's duration minus the
part its child spans cover.  :meth:`Tracer.restore` undoes every patch,
so an untraced pass in the same process runs the original code.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, thread id]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) to *value*."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, original))
            return
        # Restore exactly what the owner itself held: a class that
        # inherits the attribute gets the inherited one back.
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, value)
        if own is _MISSING:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, own))

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Record a span *name* around every call of ``owner.attr``.

        *after* runs outside the span with ``(args, kwargs, result)``,
        so counting costs no layer time.  Class-, static- and plain
        methods are all handled.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        target = raw.__func__ if kind is not None else getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = target(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        self.patch(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Total self time and call count per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            seconds[name] += (end - start) - covered[index]
            calls[name] += 1
        return seconds, calls

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of the union of top-level spans within [start, end]."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for _, s, e, parent, _ in self.spans
            if parent < 0 and e is not None and e > start and s < end
        )
        total = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def dump(self, path, **extra) -> None:
        """Write the spans (times relative to the first) and counters."""
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [
            [name, round(s - origin, 7), round(e - origin, 7), parent, tid]
            for name, s, e, parent, tid in self.spans
            if e is not None
        ]
        payload = dict(extra, counts=dict(self.counts), spans=spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
