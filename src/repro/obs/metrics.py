"""Lightweight metrics: counters, gauges, latency histograms, label support.

The streaming service (:mod:`repro.service`) and the hot paths it crosses
(batched keystream engine, RNS polynomial engine, batched HHE server,
video app) all report into one process-wide :class:`MetricsRegistry`.
Design constraints, in order:

1. **Cheap.** A counter increment is a lock + integer add; a histogram
   observation updates exact moments and (past the reservoir bound) one
   seeded-RNG draw. Nothing allocates per sample beyond the float being
   stored, so instrumenting a per-batch hot path does not perturb what it
   measures.
2. **Thread-safe.** The service's producer, worker pool, and sink all
   report concurrently; each metric carries its own lock.
3. **Exportable.** ``registry.snapshot()`` is plain JSON-able data — the
   service benchmark dumps it into ``BENCH_service_pipeline.json``, the
   CLI renders it after a run, and :mod:`repro.obs.export` turns it into
   Prometheus text exposition.

Metric names are dotted strings (``"service.transcipher.seconds"``); the
registry creates metrics on first use so call sites never need wiring.
Metrics may carry **labels**::

    registry.counter("pasta.keystream.lanes", variant="pasta3", omega=17)

Each distinct label set is its own child metric; the snapshot keys it as
``pasta.keystream.lanes{omega="17",variant="pasta3"}`` (labels sorted),
and every snapshot entry records ``name`` and ``labels`` separately so
exporters never re-parse the composite key.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "metric_key",
]

#: Histogram reservoir bound. Beyond this many samples the histogram keeps
#: summary statistics exact (count/sum/min/max) and percentiles approximate
#: via uniform reservoir sampling (Algorithm R) — adequate for latency
#: reporting.
DEFAULT_RESERVOIR = 4096

#: Seed for every histogram's reservoir RNG: percentile estimates are
#: reproducible run to run for an identical observation sequence.
RESERVOIR_SEED = 0x5EED


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical registry key for ``name`` with ``labels`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _canonical_labels(labels: Mapping[str, object]) -> Dict[str, str]:
    return {k: str(v) for k, v in labels.items()}


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {"type": "counter", "value": self.value}
        if self.labels:
            out["name"] = self.name
            out["labels"] = dict(self.labels)
        return out


class Gauge:
    """A point-in-time value (queue depth, in-flight frames, ...).

    Tracks the running maximum alongside the current value so saturation
    is visible after the fact without sampling the gauge on a timer.
    """

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if value > self._max:
                self._max = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            if self._value > self._max:
                self._max = self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            out: Dict[str, object] = {"type": "gauge", "value": self._value, "max": self._max}
        if self.labels:
            out["name"] = self.name
            out["labels"] = dict(self.labels)
        return out


class Histogram:
    """Latency/size distribution with exact moments and sampled percentiles.

    Observations land in a bounded reservoir. Once the reservoir is full,
    **uniform reservoir sampling** (Vitter's Algorithm R, seeded RNG) keeps
    each of the first ``n`` observations in the sample with probability
    ``reservoir / n`` — every observation is equally likely to survive, so
    percentile estimates stay unbiased for any arrival order. (The previous
    systematic keep-every-k-th scheme over-weighted early samples whenever
    the stride doubled mid-stream.) count/sum/min/max remain exact.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        reservoir: int = DEFAULT_RESERVOIR,
        labels: Optional[Mapping[str, str]] = None,
    ):
        if reservoir < 1:
            raise ValueError(f"histogram {name} needs a positive reservoir size")
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng = random.Random(RESERVOIR_SEED)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self._reservoir:
                self._samples.append(value)
            else:
                # Algorithm R: the n-th observation replaces a uniformly
                # chosen slot with probability reservoir/n.
                slot = self._rng.randrange(self._count)
                if slot < self._reservoir:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 <= q <= 100) of the sampled distribution.

        An empty reservoir has no percentiles: the result is ``NaN``, the
        one value downstream gates refuse to treat as a real measurement
        (perfgate hard-fails non-finite metrics instead of comparing).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._samples:
                return math.nan
            ordered = sorted(self._samples)
            # Nearest-rank on the reservoir; min/max stay exact.
            rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
            return ordered[rank]

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count, total = self._count, self._sum
        # Empty-window statistics are NaN, not 0.0: a zero here reads as
        # "measured and found instant", which downstream consumers (SLO
        # windows, perfgate) must never mistake an idle histogram for.
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else math.nan,
            "min": self._min if self._min is not None else math.nan,
            "max": self._max if self._max is not None else math.nan,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {"type": "histogram"}
        out.update(self.summary())
        if self.labels:
            out["name"] = self.name
            out["labels"] = dict(self.labels)
        return out


class MetricsRegistry:
    """Process-wide named metrics, created on first use.

    Keyword arguments beyond ``help`` (and ``reservoir`` for histograms)
    are labels; each distinct ``(name, labels)`` pair is its own metric
    instance.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, labels: Mapping[str, object], factory, kind):
        canonical = _canonical_labels(labels)
        key = metric_key(name, canonical)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(canonical)
                self._metrics[key] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {key!r} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(name, labels, lambda lb: Counter(name, help, lb), Counter)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(name, labels, lambda lb: Gauge(name, help, lb), Gauge)

    def histogram(
        self, name: str, help: str = "", reservoir: int = DEFAULT_RESERVOIR, **labels
    ) -> Histogram:
        return self._get(name, labels, lambda lb: Histogram(name, help, reservoir, lb), Histogram)

    @contextmanager
    def span(self, name: str, **labels) -> Iterator[None]:
        """Time a block into the histogram ``name`` (seconds).

        For spans that should also land in the trace buffer, use
        :meth:`repro.obs.trace.Tracer.span` — it feeds the same histogram.
        """
        hist = self.histogram(name, **labels)
        start = time.perf_counter()
        try:
            yield
        finally:
            hist.observe(time.perf_counter() - start)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self, name: str) -> List[object]:
        """Every metric instance with base name ``name``, across label sets.

        The per-tenant consumers (multi-tenant service, fairness bench)
        enumerate e.g. all ``service.tenant.frame_latency.seconds{tenant=x}``
        children without knowing the tenant ids up front.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return [m for m in metrics if getattr(m, "name", None) == name]

    def items(self) -> List[Tuple[str, object]]:
        """(key, metric) pairs, sorted by key — exporter raw access."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view of every metric, keyed by canonical metric key."""
        with self._lock:
            metrics = dict(self._metrics)
        return {key: metric.snapshot() for key, metric in sorted(metrics.items())}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset(self) -> None:
        """Drop every metric (tests and benchmark isolation)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
