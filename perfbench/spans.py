"""A small span recorder owned by the benchmark.

The benchmark measures the program, so it does not trace through the
program's own ``repro.obs.Tracer``: it replaces public functions with
wrappers that record one span per call. Each span keeps its layer name,
start, end and the span that caused it (the enclosing wrapped call on the
same thread). Spans stay in memory; the per-layer table is computed
from them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    span_id: int
    parent_id: int  #: 0 for a span with no enclosing span on its thread
    layer: str
    start: float
    end: float


class SpanRecorder:
    """Records spans from wrapped functions; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.suspended = 0
        return local

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around a block of the benchmark's own code."""
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self.spans.append(Span(span_id, parent, layer, start, end))

    @contextlib.contextmanager
    def suspended(self, layer: str):
        """One span for the benchmark's own checks; wrapped calls inside it
        run unrecorded, so check work is not charged to program layers."""
        with self.span(layer):
            state = self._state()
            state.suspended += 1
            try:
                yield
            finally:
                state.suspended -= 1

    def wrap(
        self,
        target: str,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``module:Class.method`` (or ``module:function``) by a
        recording wrapper.

        ``before(args)`` runs before the call and its return value is passed
        as ``token`` to ``after(args, result, token)``, which runs once the
        span has closed. Both run on the calling thread.
        """
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name)
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{target} is not a plain function or method")
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            if state.suspended:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            with recorder.span(layer):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result, token)
            return result

        setattr(owner, attr, wrapper)

    # -- analysis ---------------------------------------------------------------

    def within(self, start: float, end: float) -> List[Span]:
        return [s for s in self.spans if s.start >= start and s.end <= end]

    @staticmethod
    def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
        """layer -> calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of the spans it
        directly caused, so self times add up without double counting.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent_id:
                child_time[s.parent_id] += s.end - s.start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s in spans:
            row = table[s.layer]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += (s.end - s.start) - child_time[s.span_id]
        return dict(table)

    @staticmethod
    def covered_seconds(spans: Sequence[Span]) -> float:
        """Length of the union of all span intervals, across threads."""
        covered = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in sorted((s.start, s.end) for s in spans):
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_start is not None:
            covered += cur_end - cur_start
        return covered
