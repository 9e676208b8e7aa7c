"""The fact table: every protocol fact and the sinks it projects onto.

A component reports a fact once, as :meth:`repro.telemetry.Telemetry.emit` ``(fact, t, source,
**attrs)``, and its row in :data:`FACTS` alone decides what that becomes: an :class:`Event`
on the timeline, :class:`Trace` actions in the trace collector, and :class:`Metric` counters
and gauges.  Each projection applies when its ``when`` predicate holds.

Field lists name emitted attributes (the emitting ``source`` is one) and ``out=attr``
renames one; an attribute that was not emitted is left out.  Durative spans are keyed by
category, source and their ``key`` attribute, so a sender's counting session, a tree's zoom
node and a link's recovery are closed by a later fact.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["Event", "Trace", "Metric", "FACTS"]

Predicate = Callable[[dict[str, Any]], bool]
Pairs = tuple[tuple[str, str], ...]


def _pairs(spec: str) -> Pairs:
    """``"fsm=source role"`` -> ``(("fsm", "source"), ("role", "role"))``."""
    return tuple((name, attr or name)
                 for name, _, attr in (item.partition("=") for item in spec.split()))


def _pick(pairs: Pairs, attrs: dict[str, Any]) -> dict[str, Any]:
    return {name: attrs[attr] for name, attr in pairs if attr in attrs}


class Event:
    """A timeline ``event`` with ``fields``, some ``derive``-d from the registry."""

    __slots__ = ("event", "fields", "when", "derive")

    def __init__(self, event: str, fields: str, when: Predicate | None = None,
                 derive: Callable[[Any], dict[str, Any]] | None = None) -> None:
        self.event, self.fields, self.when, self.derive = event, _pairs(fields), when, derive

    def project(self, tel: Any, t: float, attrs: dict[str, Any]) -> None:
        if self.derive is not None:
            attrs = {**attrs, **self.derive(tel.metrics)}
        tel.timeline.append(t, attrs["source"], self.event, _pick(self.fields, attrs))


class Metric:
    """A ``counter`` (inc by 1 or by ``amount``) or ``gauge`` (set to ``amount``)."""

    __slots__ = ("kind", "name", "help", "labels", "amount", "when")

    def __init__(self, kind: str, name: str, help: str, labels: str, amount: str = "",
                 when: Predicate | None = None) -> None:
        self.kind, self.name, self.help, self.labels = kind, name, help, _pairs(labels)
        self.amount, self.when = amount, when

    def resolve(self, tel: Any, attrs: dict[str, Any]) -> Any:
        """The registry instrument for these labels, memoised per session."""
        values = tuple([attrs[attr] for _, attr in self.labels])
        bound = tel.instruments.get((self, values))
        if bound is None:
            bound = tel.instruments[self, values] = getattr(tel.metrics, self.kind)(
                self.name, self.help, **{label: v for (label, _), v in zip(self.labels, values)})
        return bound

    def project(self, tel: Any, t: float, attrs: dict[str, Any]) -> None:
        bound = self.resolve(tel, attrs)
        if self.kind == "gauge":
            bound.set(attrs[self.amount])
        else:
            bound.inc(attrs[self.amount] if self.amount else 1)


class Trace:
    """One trace action: ``instant`` or ``open`` (recorded only while an episode is open;
    ``name`` is a string or a callable of the attributes), ``close`` (the span an
    ``open`` keyed the same), ``ensure`` (join the open episode or open one with cause
    ``name``) or ``begin`` (open an episode with cause ``name``, named by that attribute and
    rooted with the others).  ``parent`` is the category of the span, keyed the same, to
    hang under."""

    __slots__ = ("durative", "category", "name", "attrs", "key", "parent", "when", "project")

    def __init__(self, action: str, category: str = "", name: Any = "", attrs: str = "",
                 key: str = "", parent: str = "", when: Predicate | None = None) -> None:
        self.category, self.name, self.attrs = category, name, _pairs(attrs)
        self.key, self.parent, self.when = key, parent, when
        self.durative = action == "open"
        self.project = getattr(self, "_record" if action in ("instant", "open") else f"_{action}")

    def _record(self, tel: Any, t: float, attrs: dict[str, Any]) -> None:
        if tel.traces.active:
            name = self.name if isinstance(self.name, str) else self.name(attrs)
            source, key = attrs["source"], attrs.get(self.key)
            parent = tel.spans.get((self.parent, source, key)) if self.parent else None
            fields = _pick(self.attrs, attrs)
            if self.durative:
                tel.spans[self.category, source, key] = tel.traces.open_span(
                    name, t, self.category, parent, **fields)
            else:
                tel.traces.emit(name, t, self.category, parent, **fields)

    def _close(self, tel: Any, t: float, attrs: dict[str, Any]) -> None:
        key = (self.category, attrs["source"], attrs.get(self.key))
        tel.traces.close_span(tel.spans.pop(key, None), t)

    def _ensure(self, tel: Any, t: float, attrs: dict[str, Any]) -> None:
        tel.traces.ensure_episode(t, self.name, **_pick(self.attrs, attrs))

    def _begin(self, tel: Any, t: float, attrs: dict[str, Any]) -> None:
        rest = {k: v for k, v in attrs.items() if k not in (self.name, "source")}
        tel.traces.begin_episode(t, self.name, attrs[self.name], **rest)


_ZOOM_FRONTIER = Metric("gauge", "fancy_zoom_frontier", "Active zooming explorations",
                        "fsm=source", amount="frontier")

FACTS: dict[str, tuple[Event | Trace | Metric, ...]] = {
    # -- counting-protocol FSMs (§4.1) ---------------------------------------------------------
    "fsm_transition": (
        Event("fsm_transition", "role session from=src to=dst"),
        Trace("instant", "fsm", lambda a: f"{a['src']}->{a['dst']}", "fsm=source role session")),
    "session_open": (
        Event("session_open", "fsm=source session"),
        Trace("open", "protocol", lambda a: f"session {a['session']}", "fsm=source role session",
              key="role")),
    # reason: report (a verified Report), abort (exhaustion declared or absorbed), stop
    # (teardown) or restart (switch reboot).
    "session_end": (
        Trace("close", "protocol", key="role"),
        Event("session_close", "fsm=source session", when=lambda a: a["reason"] == "report"),
        Metric("counter", "fancy_sessions_completed_total",
               "Counting sessions completed (Report received)", "fsm=source",
               when=lambda a: a["reason"] == "report")),
    # The §5.3 control-overhead accounting (repro.experiments.metrics.control_overhead).
    "control_sent": (
        Metric("counter", "fancy_control_messages_total",
               "FANcY control messages sent, by FSM, role and message kind",
               "fsm=source role kind"),
        Metric("counter", "fancy_control_bytes_total",
               "FANcY control bytes sent on the wire, by FSM and role", "fsm=source role",
               amount="bytes"),
        Metric("counter", "fancy_retransmissions_total",
               "Control messages retransmitted after an RTX timeout", "fsm=source",
               when=lambda a: bool(a.get("retransmit"))),
        Trace("instant", "control", lambda a: a["kind"],
              "fsm=source role session bytes retransmit", key="role", parent="protocol")),
    "rejected": (Metric("counter", "fancy_rejected_messages_total",
                        "Control messages rejected by FSM hardening checks",
                        "fsm=source role reason"),),
    "link_failure": (Metric("counter", "fancy_link_failures_total",
                            "Link-down declarations after max unanswered attempts",
                            "fsm=source"),),
    "exhaustion_absorbed": (Metric(
        "counter", "fancy_exhaustions_absorbed_total",
        "RTX exhaustions absorbed by the degradation ladder instead of declared as link failures",
        "fsm=source"),),
    # -- zooming (§4.2) ------------------------------------------------------------------------
    "zoom_activate": (
        Event("zoom_descend", "fsm=source path level"),
        _ZOOM_FRONTIER,
        Metric("counter", "fancy_zoom_activations_total",
               "Zooming-frontier node activations, by tree level", "fsm=source level"),
        Trace("open", "zoom", lambda a: f"zoom L{a['level']} {list(a['path'])}",
              "fsm=source path level", key="path")),
    "zoom_deactivate": (
        Event("zoom_retreat", "fsm=source path level"),
        _ZOOM_FRONTIER,
        Trace("close", "zoom", key="path")),
    "divergence": (
        Trace("ensure", name="divergence", attrs="fsm=source"),
        Trace("instant", "counters", "divergence", "fsm=source counters")),
    # -- the link monitor ----------------------------------------------------------------------
    # Carries the cumulative control bytes: what detecting cost on the wire.  An unattributed
    # detection opens its own episode: the false-positive sentinel the health report surfaces.
    "detection": (
        Metric("counter", "fancy_detections_total", "Failure reports raised by the monitor",
               "monitor=source kind"),
        Event("detection", "kind fsm entry hash_path session lost control_bytes",
              derive=lambda m: {"control_bytes": int(m.total("fancy_control_bytes_total"))}),
        Trace("ensure", name="detection", attrs="monitor=source"),
        Trace("instant", "counters", "divergence", "fsm entry",
              when=lambda a: a["kind"] == "dedicated_entry"),
        Trace("instant", "detect", "flag", "kind fsm entry hash_path session lost")),
    "switch_restart": (
        Event("switch_restart", "side"),
        Trace("instant", "chaos", "switch_restart", "monitor=source side"),
        Metric("counter", "chaos_switch_restarts_total",
               "Simulated switch restarts injected by the chaos subsystem",
               "monitor=source side")),
    "entry_update": (
        Event("entry_update", "entries"),
        Metric("counter", "fancy_entry_updates_total",
               "Dedicated entry-set swaps applied (entry churn)", "monitor=source")),
    "flags_cleared": (Event("flags_cleared", "entries"),),
    # -- degraded-mode supervision (docs/ROBUSTNESS.md) ----------------------------------------
    "ladder_transition": (
        Metric("counter", "fancy_ladder_transitions_total",
               "Degradation-ladder rung changes, by link and edge", "link src dst"),
        Event("ladder_transition", "from=src to=dst"),
        Trace("instant", "ladder", lambda a: f"ladder {a['src']}->{a['dst']}", "link")),
    "invariant_breach": (Metric("counter", "fancy_invariant_breach_total",
                                "Soak-invariant (I1-I6) breaches observed online",
                                "invariant link=source"),),
    # -- experiment and fabric harnesses -------------------------------------------------------
    # An injection naming its victim (an entry, or the uniform kind) is logged for detection
    # pairing; a ``fault`` roots the causal episode every later span of the link hangs under.
    "fault_injected": (
        Event("failure_injected", "kind entry hash_path loss_rate",
              when=lambda a: "entry" in a or a.get("kind") == "uniform"),
        Trace("begin", name="fault", when=lambda a: "fault" in a)),
    "reroute_install": (
        Trace("instant", "reroute", "reroute_install", "link=source entry path"),
        Trace("open", "reroute", "recovery", "link=source entry", key="entry")),
    # The first packet of the entry moved onto the repair path.
    "reroute_recovered": (Trace("close", "reroute", key="entry"),),
    "reroute_unprotectable": (
        Trace("instant", "reroute", "reroute_unprotectable", "link=source entry"),),
}
