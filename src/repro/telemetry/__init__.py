"""First-class telemetry for the FANcY reproduction.

The paper's headline claims are observability claims — detection-latency
CDFs (Fig. 9/10), control-message overhead (Table 4), sessions to
detection for the zooming tree — and this package is their single source
of truth:

* :mod:`~repro.telemetry.registry` — counters, gauges and log-scale
  histograms, cheap enough to stay on by default (components built
  with ``telemetry=None`` bind none);
* :mod:`~repro.telemetry.timeline` — the protocol state-machine
  timeline: every FSM transition, session open/close, zooming descent,
  failure injection and detection, monotonically timestamped;
* :mod:`~repro.telemetry.export` — Prometheus text format and JSONL
  exporters plus the event-loop :func:`hotspots` profile;
* :mod:`~repro.telemetry.session` — the :class:`Telemetry` bundle that
  instrumented components accept as ``telemetry=``; it also carries a
  :class:`~repro.obs.trace.TraceCollector` (re-exported here) stringing
  each detection episode into a causal trace — see :mod:`repro.obs`;
* :mod:`~repro.telemetry.facts` — the fact table: what each fact
  reported through :meth:`Telemetry.emit` becomes in those three sinks.

See ``docs/TELEMETRY.md`` for the fact table, the metric catalogue, the
trace schema and workflows.
"""

from ..obs.trace import Span, TraceCollector
from .export import hotspots, to_jsonl, to_prometheus
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from .session import Telemetry
from .timeline import DetectionRecord, StateTimeline, TimelineEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "Telemetry",
    "Span",
    "TraceCollector",
    "StateTimeline",
    "TimelineEvent",
    "DetectionRecord",
    "to_prometheus",
    "to_jsonl",
    "hotspots",
]
