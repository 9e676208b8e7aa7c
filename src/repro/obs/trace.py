"""Causal detection traces: spans, episodes, deterministic exports.

The observability gap this closes (docs/TELEMETRY.md): metrics say *how
many* detections happened and timelines say *what each FSM did*, but
neither answers "why did link ``s3->s5`` flag entry 17 at t=2.31 s?".
A :class:`TraceCollector` strings the whole causal chain of one
*detection episode* — fault activation → counter divergence → zoom
descent → flag → reroute → recovery — into one trace, the span shape
NetSeer-style pipelines use to attribute per-flow events to data-plane
state changes.

Design constraints, in order:

* **Determinism.**  Spans are stamped with *simulated* time only, span
  ids are sequential per collector, and trace ids derive from the
  collector's scope plus an episode counter — two runs with the same
  seed serialize byte-identically (the fabric experiments assert this).
* **Free when healthy.**  A collector only records while an episode is
  open (:attr:`TraceCollector.active`); the fact table checks it before
  building a span, so steady state pays one attribute check and no
  allocation.  Episodes open at fault-injection time (the
  chaos/experiment harnesses are the root cause) or lazily on an
  unattributed detection (:meth:`TraceCollector.ensure_episode` —
  exactly the false-positive sentinel case the health report surfaces).
* **Monotone.**  Like :class:`~repro.telemetry.timeline.StateTimeline`,
  a collector rejects backwards timestamps — one collector per
  simulation, a loud canary for cross-wired instrumentation.

Exports: :meth:`TraceCollector.to_jsonl` (one schema-checked object per
line, see :mod:`repro.obs.schema`) and :func:`chrome_trace` /
:func:`chrome_trace_from_dicts` (``chrome://tracing`` / Perfetto's
legacy JSON array format: one process, one thread per trace).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CATEGORIES",
    "Span",
    "TraceCollector",
    "chrome_trace",
    "chrome_trace_from_dicts",
    "spans_to_jsonl",
]

#: The closed span-category vocabulary (schema-enforced, colour-coded in
#: the HTML report).  ``cause`` is an episode root: a fault activation or,
#: for unattributed episodes, the detection that opened it; the fact table
#: (:mod:`repro.telemetry.facts`) names the facts that emit each other
#: category.
CATEGORIES = (
    "cause", "fsm", "protocol", "control", "counters", "zoom", "detect",
    "reroute", "chaos", "ladder",
)


def _json_safe(value: Any) -> Any:
    """Coerce an attribute value to a JSON-serializable equivalent.

    Tuples (hash paths) become lists, mappings recurse with string keys,
    and anything else falls back to ``repr`` — entry keys are arbitrary
    hashables, and the serialization boundary must never raise.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


@dataclass
class Span:
    """One node of a detection trace.

    ``end is None`` marks a span still open; instant events carry
    ``end == start``.  ``parent`` is ``None`` only for episode roots.
    """

    trace: str
    span: int
    parent: int | None
    name: str
    cat: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self, scope: str = "") -> dict[str, Any]:
        return {
            "scope": scope,
            "trace": self.trace,
            "span": self.span,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class TraceCollector:
    """Deterministic span collector for one telemetry fork.

    Args:
        scope: identity prefix of minted trace ids — the fabric
            deployment forks one collector per monitored link with
            ``scope="A->B"``, so ``"s1->s2#001"`` names the first
            detection episode on that link.
        max_spans: hard bound; excess spans are counted in
            :attr:`suppressed` instead of recorded (mirrors the
            timeline's bounded suppression).
    """

    def __init__(self, scope: str = "", max_spans: int = 100_000) -> None:
        self.scope = scope
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.suppressed = 0
        self._episodes = 0
        self._next_span = 1
        self._root: Span | None = None
        self._open: dict[int, Span] = {}
        self._last_time = float("-inf")

    # -- episode lifecycle -------------------------------------------------

    @property
    def active(self) -> bool:
        """True while a detection episode is open (spans are recorded)."""
        return self._root is not None

    @property
    def trace_id(self) -> str | None:
        return self._root.trace if self._root is not None else None

    def begin_episode(self, time: float, cause: str, name: str | None = None,
                      **attrs: Any) -> str:
        """Open a new detection episode; returns its minted trace id.

        The episode's root span carries ``cause`` (``"fault"`` when a
        chaos/experiment harness opened it at injection time,
        ``"detection"``/``"divergence"`` for episodes auto-opened by
        :meth:`ensure_episode` — the unattributed/false-positive case).
        An already-open episode stays recorded; the new one becomes
        current, so overlapping faults each get their own trace.
        """
        self._episodes += 1
        trace = f"{self.scope or 'trace'}#{self._episodes:03d}"
        span_attrs = {"cause": cause}
        span_attrs.update(attrs)
        root = self._record(trace, None, name or cause, "cause", time,
                            end=None, attrs=span_attrs)
        self._open[root.span] = root
        self._root = root
        return trace

    def ensure_episode(self, time: float, cause: str, **attrs: Any) -> str:
        """Current trace id, opening an episode when none is active."""
        if self._root is not None:
            return self._root.trace
        return self.begin_episode(time, cause, **attrs)

    def end_episode(self, time: float) -> None:
        """Close the current episode and every span still open under it."""
        self._check_monotone(time)
        for span in list(self._open.values()):
            span.end = time
        self._open.clear()
        self._root = None

    def finalize(self, time: float) -> None:
        """Close all open spans at ``time`` (end-of-run flush)."""
        self.end_episode(time)

    # -- span emission -----------------------------------------------------

    def emit(self, name: str, time: float, category: str = "chaos",
             parent: int | None = None, **attrs: Any) -> int | None:
        """Record an instant span; no-op (returns None) when inactive."""
        root = self._root
        if root is None:
            return None
        span = self._record(root.trace, parent if parent is not None
                            else root.span, name, category, time, end=time,
                            attrs=attrs)
        return span.span

    def open_span(self, name: str, time: float, category: str = "chaos",
                  parent: int | None = None, **attrs: Any) -> int | None:
        """Open a durative span; close with :meth:`close_span`."""
        root = self._root
        if root is None:
            return None
        span = self._record(root.trace, parent if parent is not None
                            else root.span, name, category, time, end=None,
                            attrs=attrs)
        self._open[span.span] = span
        return span.span

    def close_span(self, span_id: int | None, time: float) -> None:
        """Close an open span; tolerates ``None`` and unknown ids.

        (A span opened while no episode was active returns ``None``;
        the matching close must be a silent no-op so call sites don't
        need to mirror the episode state.)
        """
        if span_id is None:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        self._check_monotone(time)
        span.end = time

    # -- internals ---------------------------------------------------------

    def _check_monotone(self, time: float) -> None:
        if time < self._last_time:
            raise ValueError(
                f"trace span at t={time} is earlier than the previously "
                f"recorded t={self._last_time} — collectors are monotone "
                "(one TraceCollector per simulation)"
            )
        self._last_time = time

    def _record(self, trace: str, parent: int | None, name: str, cat: str,
                start: float, end: float | None,
                attrs: dict[str, Any]) -> Span:
        self._check_monotone(start)
        span = Span(
            trace=trace, span=self._next_span, parent=parent, name=name,
            cat=cat, start=start, end=end,
            attrs={k: _json_safe(v) for k, v in attrs.items()},
        )
        self._next_span += 1
        if len(self.spans) >= self.max_spans:
            self.suppressed += 1
        else:
            self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def traces(self) -> dict[str, list[Span]]:
        """Spans grouped by trace id, both in insertion order."""
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace, []).append(span)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.cat] = out.get(span.cat, 0) + 1
        return out

    # -- serialization -----------------------------------------------------

    def span_dicts(self) -> list[dict[str, Any]]:
        """Schema-shaped dicts (the JSONL/report/cache boundary)."""
        return [span.to_dict(self.scope) for span in self.spans]

    def to_jsonl(self) -> str:
        return spans_to_jsonl(self.span_dicts())


def spans_to_jsonl(span_dicts: Iterable[dict[str, Any]]) -> str:
    """Serialize span dicts as JSON Lines, key-sorted for byte stability."""
    lines = [json.dumps(d, sort_keys=True) for d in span_dicts]
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace(collectors: Sequence[TraceCollector]) -> dict[str, Any]:
    """Chrome-trace (Perfetto-loadable) view of one or more collectors."""
    dicts: list[dict[str, Any]] = []
    for collector in collectors:
        dicts.extend(collector.span_dicts())
    return chrome_trace_from_dicts(dicts)


def chrome_trace_from_dicts(span_dicts: Iterable[dict[str, Any]]
                            ) -> dict[str, Any]:
    """Chrome-trace JSON object from schema-shaped span dicts.

    Each trace id becomes one "thread" (tid assigned in encounter order,
    named via metadata events); durative spans map to complete ``"X"``
    events, instants to ``"i"`` events.  Timestamps are microseconds, as
    the format requires.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    open_horizon = 0.0
    for d in span_dicts:
        end = d["end"] if d["end"] is not None else d["start"]
        open_horizon = max(open_horizon, end)
    for d in span_dicts:
        trace = d["trace"]
        tid = tids.get(trace)
        if tid is None:
            tid = len(tids) + 1
            tids[trace] = tid
            label = f"{d['scope']} {trace}" if d["scope"] else trace
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": label},
            })
        start_us = d["start"] * 1e6
        end = d["end"] if d["end"] is not None else open_horizon
        args = dict(d["attrs"])
        args["span"] = d["span"]
        if d["parent"] is not None:
            args["parent"] = d["parent"]
        if end > d["start"]:
            events.append({
                "ph": "X", "name": d["name"], "cat": d["cat"], "pid": 1,
                "tid": tid, "ts": start_us, "dur": (end - d["start"]) * 1e6,
                "args": args,
            })
        else:
            events.append({
                "ph": "i", "name": d["name"], "cat": d["cat"], "pid": 1,
                "tid": tid, "ts": start_us, "s": "t", "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
