"""Hierarchical tracing with explicit cross-thread context propagation.

The metrics layer answers *how much / how often*; this module answers
*where the time went*. A :class:`Tracer` records nested :class:`Span`
objects into a bounded in-memory ring buffer, suitable for export to the
Chrome trace-event / Perfetto JSON format (:mod:`repro.obs.export`) and
for cycle attribution against the hardware model
(:mod:`repro.obs.cycles`).

Two propagation mechanisms, matching the streaming service's topology:

* **Implicit (same thread).** A :data:`contextvars.ContextVar` holds the
  current span; ``tracer.span(...)`` parents to it automatically, so the
  producer's ``service.encrypt`` span picks up the enclosing
  ``service.produce.batch`` span without any plumbing, and the keystream
  engine's span (three frames down the call stack) nests under
  ``service.encrypt``.
* **Explicit (across threads).** Thread pools break context variables: a
  worker thread dequeuing a job has no ancestor on its own stack. Call
  sites capture ``span.context`` (a tiny frozen :class:`SpanContext`) and
  hand it through the job record — the service carries it in each
  :class:`~repro.service.wire.WireFrame` — then pass it back as
  ``parent=`` on the far side. The recovered span joins the original
  trace even though it ended on a different thread.

Spans double as metrics: on exit, a span observes its duration into the
(labeled) histogram ``metric or name`` of the tracer's registry, so every
traced stage automatically keeps its latency distribution and nothing is
instrumented twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
]

#: Default ring-buffer bound: old spans fall off rather than growing the
#: heap during long runs.
DEFAULT_MAX_SPANS = 65536

_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar("repro_obs_current_span", default=None)

_ids = itertools.count(1)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: hand it through job records."""

    trace_id: int
    span_id: int


class Span:
    """One timed operation. Created by :meth:`Tracer.span`, not directly."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "thread_id",
        "thread_name",
        "status",
    )

    def __init__(self, name: str, trace_id: int, span_id: int, parent_id: Optional[int]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end = 0.0
        self.attributes: Dict[str, object] = {}
        self.thread_id = threading.get_ident()
        self.thread_name = threading.current_thread().name
        self.status = "ok"

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration * 1e3:.3f}ms)"
        )


class Tracer:
    """Bounded in-memory span recorder with histogram pass-through.

    ``registry=None`` resolves :func:`~repro.obs.metrics.get_registry`
    at span exit, so test fixtures that swap the default registry see
    tracer-fed histograms land in their fresh registry.
    """

    def __init__(
        self,
        max_spans: int = DEFAULT_MAX_SPANS,
        registry: Optional[MetricsRegistry] = None,
        record_metrics: bool = True,
    ):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._registry = registry
        self.record_metrics = record_metrics
        self._lock = threading.Lock()
        self._finished: Deque[Span] = deque(maxlen=max_spans)

    # -- recording -------------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        metric: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        **attributes,
    ) -> Iterator[Span]:
        """Record a span; nest implicitly, or under ``parent`` if given.

        ``metric`` names the histogram fed with the duration (defaults to
        the span name); ``registry`` overrides the tracer's registry for
        this span (the service routes stage histograms into its own
        registry); extra keyword arguments become span attributes.
        """
        if parent is None:
            implicit = _CURRENT_SPAN.get()
            if implicit is not None:
                parent = implicit.context
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(_ids), None
        span = Span(name, trace_id, next(_ids), parent_id)
        if attributes:
            span.attributes.update(attributes)
        token = _CURRENT_SPAN.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.end = time.perf_counter()
            _CURRENT_SPAN.reset(token)
            with self._lock:
                self._finished.append(span)
            if self.record_metrics:
                if registry is None:
                    registry = self._registry if self._registry is not None else get_registry()
                registry.histogram(metric or name).observe(span.duration)

    def current_context(self) -> Optional[SpanContext]:
        """The in-flight span's context (to hand through a job record)."""
        span = _CURRENT_SPAN.get()
        return span.context if span is not None else None

    # -- inspection ------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Snapshot of the buffer, oldest first."""
        with self._lock:
            return list(self._finished)

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.finished_spans() if s.name == name]

    def drain(self) -> List[Span]:
        """Return and clear the buffer."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (returns the previous one)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
