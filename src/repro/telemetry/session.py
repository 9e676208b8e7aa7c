"""The per-simulation telemetry session object.

A :class:`Telemetry` bundles what one simulation run emits:

* a :class:`~repro.telemetry.registry.MetricsRegistry` (counters,
  gauges, log-scale histograms),
* a :class:`~repro.telemetry.timeline.StateTimeline` (FSM transitions,
  session lifecycle, zooming descent, failure injection → detection),
* a :class:`~repro.obs.trace.TraceCollector` (causal detection episodes),
* the ``profile`` switch that turns on per-callback wall-time
  histograms in the event engine.

Every instrumented component (`Simulator`, `Link`, `Switch`, the FANcY
FSMs, `FancyLinkMonitor`) takes ``telemetry=None``; passing a session
switches structured signals on, ``None`` keeps the hot paths free.
Protocol facts are reported once, through :meth:`Telemetry.emit`; the
fact table (:mod:`repro.telemetry.facts`) projects each onto the
timeline, the trace collector and the registry.

The **registry can be shared across runs** while timelines cannot: a
timeline is monotonically timestamped and every simulation restarts its
clock at zero.  :meth:`Telemetry.fork` hands out a sibling session with
the same registry (and profile flag) but a fresh timeline *and a fresh
trace collector* — what ``run_cell`` uses to aggregate metrics over a
cell's repetitions, and what the fabric deployment uses to give each of
its 64 link monitors a private timeline/trace with shared counters.
Forks take a ``scope`` (the fabric passes the link id) that names the
trace ids minted by :attr:`Telemetry.traces` and labels the
``telemetry_timeline_truncated_total`` counter, making bounded-
suppression drops visible per fork instead of silent.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs.trace import TraceCollector
from .facts import FACTS, Metric
from .registry import MetricsRegistry
from .timeline import StateTimeline

__all__ = ["Telemetry"]


class Telemetry:
    """One simulation's metrics registry + timeline + traces + profile."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        timeline: Optional[StateTimeline] = None,
        profile: bool = False,
        scope: str = "",
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeline = timeline if timeline is not None else StateTimeline()
        self.profile = profile
        self.scope = scope
        self.traces = TraceCollector(scope=scope)
        # Surface the timeline's bounded-suppression drops as a registry
        # counter (labelled per scope so fabric forks stay attributable).
        self.timeline.suppression_counter = self.metrics.counter(
            "telemetry_timeline_truncated_total",
            "Timeline events dropped by the bounded-suppression cap",
            scope=scope or "root")
        #: Fact instruments resolved per (instrument, label values).
        self.instruments: dict[tuple, Any] = {}
        #: Open durative span ids per (category, source, key).
        self.spans: dict[tuple, Optional[int]] = {}

    def fork(self, scope: Optional[str] = None) -> "Telemetry":
        """Sibling session: shared registry, fresh timeline and traces."""
        return Telemetry(
            metrics=self.metrics,
            timeline=StateTimeline(max_events=self.timeline.max_events),
            profile=self.profile,
            scope=self.scope if scope is None else scope,
        )

    # -- facts ---------------------------------------------------------------

    def emit(self, fact: str, t: float, source: str, **attrs: Any) -> None:
        """Report one fact at simulated time ``t``; see :data:`FACTS`."""
        attrs["source"] = source
        for projection in FACTS[fact]:
            if projection.when is None or projection.when(attrs):
                projection.project(self, t, attrs)

    def bind(self, fact: str, source: str) -> None:
        """Create ``fact``'s instruments now, so they are exported before
        the fact first fires."""
        for projection in FACTS[fact]:
            if isinstance(projection, Metric):
                projection.resolve(self, {"source": source})

    def detection_records(self):
        return self.timeline.detection_records()

    def snapshot(self) -> dict:
        """JSON-serializable metrics snapshot (rides the JSONL run log)."""
        return self.metrics.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Telemetry(instruments={len(self.metrics)}, "
                f"timeline_events={len(self.timeline)}, profile={self.profile})")
