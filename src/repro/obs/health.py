"""Service health: flight recorder, SLO windows, and the HealthReport.

Metrics answer "how much/how fast"; the **flight recorder** answers
"what went wrong, when": a bounded ring of structured
:class:`HealthEvent` records (load-shed, retry, saturation,
cache-eviction bursts, nonce near-exhaustion, low noise headroom) plus
bounded time series (queue depth, noise headroom) sampled on the same
``time.perf_counter`` clock as spans, so they export as Perfetto
counter tracks (``"ph": "C"``) aligned with the span timeline.

:func:`evaluate_health` folds the recorder and the metrics registry
into per-tenant :class:`SloStatus` rows (p99 latency, frame loss,
minimum noise headroom) under a :class:`SloPolicy`, yielding the
:class:`HealthReport` behind ``python -m repro health``.

Everything here takes only its own lock and never calls back into the
queueing/cache layers, so producers (service workers, cache
rebalancing under ``CacheBudget._lock``) may record events from any
context without lock-ordering hazards.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_EVENT_CAPACITY",
    "DEFAULT_SERIES_CAPACITY",
    "LOW_HEADROOM_BITS",
    "EVICTION_BURST_THRESHOLD",
    "HealthEvent",
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "record_headroom",
    "SloPolicy",
    "SloStatus",
    "HealthReport",
    "evaluate_health",
]

DEFAULT_EVENT_CAPACITY = 1024
DEFAULT_SERIES_CAPACITY = 4096

#: Headroom (bits) below which a ``low_headroom`` event is recorded;
#: negative modeled headroom escalates the event to ``critical``.
LOW_HEADROOM_BITS = 16.0

#: Evictions freed by a single cache rebalance before it counts as a burst.
EVICTION_BURST_THRESHOLD = 8


@dataclass(frozen=True)
class HealthEvent:
    """One structured incident, timestamped on the span clock."""

    kind: str
    at: float  # time.perf_counter(), shared epoch with Span.start
    severity: str = "warning"  # "info" | "warning" | "critical"
    tenant: Optional[str] = None
    attributes: Mapping[str, object] = field(default_factory=dict)


class FlightRecorder:
    """Bounded ring of events plus bounded named time series.

    Appends are O(1) under a single internal lock; when the ring is full
    the oldest event is dropped and counted, so a misbehaving service
    can never grow the recorder without bound.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        series_capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._series: Dict[str, deque] = {}
        self._series_capacity = series_capacity
        self._dropped = 0

    def record(
        self,
        kind: str,
        severity: str = "warning",
        tenant: Optional[str] = None,
        **attributes: object,
    ) -> HealthEvent:
        event = HealthEvent(
            kind=kind,
            at=time.perf_counter(),
            severity=severity,
            tenant=tenant,
            attributes=attributes,
        )
        with self._lock:
            if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(event)
        return event

    def sample(self, series: str, value: float) -> None:
        """Append one counter-track point ``(perf_counter, value)``."""
        point = (time.perf_counter(), float(value))
        with self._lock:
            track = self._series.get(series)
            if track is None:
                track = self._series[series] = deque(maxlen=self._series_capacity)
            track.append(point)

    # -- inspection --------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[HealthEvent]:
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [e for e in snapshot if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events():
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        with self._lock:
            return {name: list(track) for name, track in self._series.items()}

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._series.clear()
            self._dropped = 0


_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    return _RECORDER


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the process-wide recorder, returning the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def record_headroom(
    headroom_bits: float,
    engine: str,
    tenant: Optional[str] = None,
    threshold: float = LOW_HEADROOM_BITS,
) -> None:
    """Publish one modeled-headroom observation everywhere it is consumed.

    Gauge ``fhe.noise.headroom_bits`` carries the latest value (Prometheus
    + span dashboards), histogram ``fhe.noise.headroom.window`` keeps the
    exact minimum for SLO evaluation, the recorder time series becomes a
    Perfetto counter track, and crossing ``threshold`` files a
    ``low_headroom`` event (``critical`` once the modeled budget is gone).
    """
    from repro.obs.metrics import get_registry

    labels = {"engine": engine}
    if tenant is not None:
        labels["tenant"] = tenant
    registry = get_registry()
    registry.gauge("fhe.noise.headroom_bits", **labels).set(headroom_bits)
    registry.histogram("fhe.noise.headroom.window", **labels).observe(headroom_bits)
    recorder = get_flight_recorder()
    recorder.sample(f"fhe.noise.headroom_bits/{tenant or 'default'}", headroom_bits)
    if headroom_bits < threshold:
        recorder.record(
            "low_headroom",
            severity="critical" if headroom_bits < 0 else "warning",
            tenant=tenant,
            headroom_bits=headroom_bits,
            engine=engine,
        )


# -- SLO evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class SloPolicy:
    """Per-tenant objectives a run is judged against.

    Defaults are deliberately lenient (CI smoke runs on shared runners):
    tighten per deployment rather than loosening in code.
    """

    p99_latency_seconds: float = 2.0
    max_frame_loss: int = 0
    min_noise_headroom_bits: float = 0.0


DEFAULT_SLO = SloPolicy()


@dataclass(frozen=True)
class SloStatus:
    """One tenant's measured window against the policy."""

    tenant: str
    p99_latency_seconds: Optional[float]
    frame_loss: Optional[float]
    min_headroom_bits: Optional[float]
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class HealthReport:
    """Roll-up of SLO statuses and flight-recorder incident counts."""

    statuses: Tuple[SloStatus, ...]
    event_counts: Dict[str, int]
    critical_events: int
    dropped_events: int
    policy: SloPolicy

    @property
    def healthy(self) -> bool:
        return self.critical_events == 0 and all(s.ok for s in self.statuses)

    def to_dict(self) -> dict:
        return {
            "healthy": self.healthy,
            "policy": {
                "p99_latency_seconds": self.policy.p99_latency_seconds,
                "max_frame_loss": self.policy.max_frame_loss,
                "min_noise_headroom_bits": self.policy.min_noise_headroom_bits,
            },
            "tenants": [
                {
                    "tenant": s.tenant,
                    "ok": s.ok,
                    "p99_latency_seconds": s.p99_latency_seconds,
                    "frame_loss": s.frame_loss,
                    "min_headroom_bits": s.min_headroom_bits,
                    "violations": list(s.violations),
                }
                for s in self.statuses
            ],
            "events": dict(sorted(self.event_counts.items())),
            "critical_events": self.critical_events,
            "dropped_events": self.dropped_events,
        }

    def render(self) -> str:
        header = (
            f"{'tenant':<16} {'p99 (s)':>10} {'loss':>6} {'headroom':>9}  status"
        )
        lines = ["service health", header, "-" * len(header)]
        for s in self.statuses:
            p99 = f"{s.p99_latency_seconds:.4f}" if s.p99_latency_seconds is not None else "-"
            loss = f"{s.frame_loss:.0f}" if s.frame_loss is not None else "-"
            hdrm = f"{s.min_headroom_bits:.1f}" if s.min_headroom_bits is not None else "-"
            status = "ok" if s.ok else "VIOLATED: " + ", ".join(s.violations)
            lines.append(f"{s.tenant:<16} {p99:>10} {loss:>6} {hdrm:>9}  {status}")
        if not self.statuses:
            lines.append("(no tenant traffic observed)")
        events = ", ".join(f"{k}={v}" for k, v in sorted(self.event_counts.items())) or "none"
        lines.append(f"flight events: {events} (dropped {self.dropped_events})")
        lines.append(f"overall: {'HEALTHY' if self.healthy else 'UNHEALTHY'}")
        return "\n".join(lines)


def _finite(value: Optional[float]) -> Optional[float]:
    if value is None or not math.isfinite(value):
        return None
    return value


def _label_values(metrics: Sequence, label: str) -> List[str]:
    seen: List[str] = []
    for metric in metrics:
        value = metric.labels.get(label)
        if value is not None and value not in seen:
            seen.append(value)
    return seen


def _labeled(metrics: Sequence, **labels: str):
    for metric in metrics:
        if all(metric.labels.get(k) == v for k, v in labels.items()):
            return metric
    return None


def evaluate_health(
    registry=None,
    recorder: Optional[FlightRecorder] = None,
    policy: SloPolicy = DEFAULT_SLO,
) -> HealthReport:
    """Fold the registry + recorder into a :class:`HealthReport`.

    Tenants are enumerated from the ``service.tenant.frame_latency.seconds``
    label family; a one-tenant run reports under its own tenant id.
    A window with no data for an objective skips that objective rather
    than fabricating a violation.
    """
    from repro.obs.metrics import get_registry

    registry = registry if registry is not None else get_registry()
    recorder = recorder if recorder is not None else get_flight_recorder()

    latency = registry.collect("service.tenant.frame_latency.seconds")
    lost = registry.collect("service.frames.lost")
    headroom = registry.collect("fhe.noise.headroom.window")
    tenants = _label_values(latency, "tenant")

    statuses = [
        _score(
            tenant,
            _labeled(latency, tenant=tenant),
            _labeled(lost, tenant=tenant),
            _min_headroom(headroom, tenant=tenant),
            policy,
        )
        for tenant in sorted(tenants)
    ]

    counts = recorder.counts()
    critical = sum(1 for e in recorder.events() if e.severity == "critical")
    return HealthReport(
        statuses=tuple(statuses),
        event_counts=counts,
        critical_events=critical,
        dropped_events=recorder.dropped,
        policy=policy,
    )


def _min_headroom(headroom_metrics: Sequence, tenant: str) -> Optional[float]:
    mins: List[float] = []
    for metric in headroom_metrics:
        if metric.labels.get("tenant") != tenant:
            continue
        value = _finite(metric.summary().get("min"))
        if value is not None:
            mins.append(value)
    return min(mins) if mins else None


def _score(tenant, latency_metric, lost_metric, min_headroom, policy) -> SloStatus:
    p99 = _finite(latency_metric.percentile(99)) if latency_metric is not None else None
    loss = _finite(float(lost_metric.value)) if lost_metric is not None else None
    violations: List[str] = []
    if p99 is not None and p99 > policy.p99_latency_seconds:
        violations.append(f"p99 {p99:.4f}s > {policy.p99_latency_seconds}s")
    if loss is not None and loss > policy.max_frame_loss:
        violations.append(f"frame loss {loss:.0f} > {policy.max_frame_loss}")
    if min_headroom is not None and min_headroom < policy.min_noise_headroom_bits:
        violations.append(
            f"headroom {min_headroom:.1f} bits < {policy.min_noise_headroom_bits}"
        )
    return SloStatus(
        tenant=tenant,
        p99_latency_seconds=p99,
        frame_loss=loss,
        min_headroom_bits=min_headroom,
        violations=tuple(violations),
    )
