"""Metric tables and the per-layer metrics of one traced run.

``BENCHMARK.json`` lists the same names; ``tests/test_metrics.py`` keeps
the two in step.
"""

from __future__ import annotations

from typing import Any

from .tracer import LAYERS, Tracer

__all__ = ["END_TO_END", "PER_LAYER", "layer_metrics"]

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "detect_sim_s": ("sim_s", "lower"),
    "tpr": ("ratio", "higher"),
    "pass_rate": ("ratio", "higher"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    "engine.events": ("count", "lower"),
    "engine.schedules": ("count", "lower"),
    "link.packets": ("count", "lower"),
    "link.drops": ("count", "lower"),
    "link.fused_share": ("ratio", "higher"),
    "switch.packets": ("count", "lower"),
    "transport.segments": ("count", "lower"),
    "transport.retransmits": ("count", "lower"),
    "fluid.absorbed": ("count", "higher"),
    "fluid.lost": ("count", "lower"),
    "protocol.control_msgs": ("count", "lower"),
    "protocol.retransmits": ("count", "lower"),
    "protocol.checksums": ("count", "lower"),
    "protocol.checksum_s": ("s", "lower"),
    "protocol.verified_ratio": ("ratio", "higher"),
    "counters.updates": ("count", "lower"),
    "counters.zoom_steps": ("count", "lower"),
    "detector.sessions": ("count", "higher"),
    "detector.flags": ("count", "higher"),
    "fabric.build_s": ("s", "lower"),
    "fabric.reroutes": ("count", "higher"),
    "telemetry.emits": ("count", "lower"),
    "telemetry.spans": ("count", "lower"),
    "service.transitions": ("count", "lower"),
    "service.invariant_checks": ("count", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "unattributed_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

#: Functions whose outermost spans time the payload integrity check.
CHECKSUM_FUNCTIONS = ("core.protocol:payload_checksum", "core.protocol:verify_payload")

_ENGINE_SCHEDULE = ("simulator.engine:Simulator.schedule",
                    "simulator.engine:Simulator.schedule_at")
_TELEMETRY_EMITS = (
    "telemetry.timeline:StateTimeline.record",
    "obs.trace:TraceCollector.emit",
    "obs.trace:TraceCollector.open_span",
    "telemetry.registry:Counter.inc",
    "telemetry.registry:Gauge.set",
    "telemetry.registry:Gauge.inc",
    "telemetry.registry:Gauge.dec",
    "telemetry.registry:Histogram.observe",
)


def _counter_updates(tracer: Tracer) -> int:
    """Per-packet counter updates plus bulk (fluid) absorbs."""
    modules = tuple(m.removeprefix("repro.") + ":" for m in LAYERS["counters"])
    return sum(calls for name, calls in zip(tracer.names, tracer.calls)
               if name.startswith(modules)
               and name.rsplit(".", 1)[-1] in ("process_packet", "absorb"))


def layer_metrics(tracer: Tracer, folded: dict[str, Any], work: dict[str, int],
                  links: list[Any], untraced_wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    calls = tracer.call_count
    packets = calls("simulator.link:Link.send")
    fused = sum(link.fused_events for link in links)
    reports = work.get("protocol.reports", 0)
    out: dict[str, float] = {
        "engine.events": work["engine.events"],
        "engine.schedules": calls(*_ENGINE_SCHEDULE),
        "link.packets": packets,
        "link.drops": sum(link.stats.dropped_failure + link.stats.dropped_chaos
                          for link in links),
        "link.fused_share": fused / packets if packets else 0.0,
        "switch.packets": calls("simulator.switch:Switch.receive"),
        "transport.segments": calls("simulator.apps:Host.send"),
        "transport.retransmits": work.get("transport.retransmits", 0),
        "fluid.absorbed": work["fluid.absorbed"],
        "fluid.lost": work["fluid.lost"],
        "protocol.control_msgs": work["protocol.control_msgs"],
        "protocol.retransmits": work["protocol.retransmits"],
        "protocol.checksums": work["protocol.checksums"],
        "protocol.checksum_s": folded["inclusive"]["checksum"],
        "protocol.verified_ratio": work["protocol.verified"] / reports if reports else 0.0,
        "counters.updates": _counter_updates(tracer),
        "counters.zoom_steps": calls("core.zooming:TreeSenderStrategy._spawn_children"),
        "detector.sessions": work["detector.sessions"],
        "detector.flags": calls("core.output:FailureLog.record"),
        "fabric.build_s": folded["build_s"]["fabric"],
        "fabric.reroutes": work["fabric.reroutes"],
        "telemetry.emits": calls(*_TELEMETRY_EMITS),
        "telemetry.spans": calls("obs.trace:TraceCollector._record"),
        "service.transitions": work["service.transitions"],
        "service.invariant_checks": work["service.invariant_checks"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = folded["self_s"][layer]
    out["unattributed_s"] = folded["unattributed_s"]
    out["trace.wall_s"] = folded["wall_s"]
    out["trace.overhead"] = folded["wall_s"] / untraced_wall_s
    out["trace.spans"] = folded["spans"]
    return out
