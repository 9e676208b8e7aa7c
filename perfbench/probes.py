"""Deterministic work counts, gathered by light wrappers on low-rate calls.

Every probe wraps a method that runs at most once per control message,
counting window or ``Simulator.run`` call — never once per packet — so
the untimed cost of counting stays far below the run-to-run noise of the
untraced run.  :data:`TRACED_ONLY` probes sit on per-packet paths or
keep objects alive, and are installed only in the traced run.

A probe whose target no longer exists is skipped and listed in
:attr:`WorkCounts.missing`, so a refactor that renames a target shows
up as a zero count rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from collections.abc import Callable
from typing import Any

from .tracer import Patcher

__all__ = ["WorkCounts", "DETERMINISTIC"]

#: Counts that must repeat exactly across runs of one seed.
DETERMINISTIC = (
    "engine.events", "protocol.control_msgs", "protocol.retransmits",
    "protocol.checksums", "protocol.reports", "protocol.verified",
    "detector.sessions", "fluid.absorbed", "fluid.lost", "fabric.reroutes",
    "service.transitions", "service.invariant_checks",
)

_Hook = Callable[["WorkCounts", Any, tuple, dict, Callable[[], Any]], Any]


def _count(metric: str, when: Callable[[Any, tuple, dict], bool] | None = None) -> _Hook:
    """+1 on ``metric`` per call (optionally only when ``when`` holds)."""
    def hook(counts: WorkCounts, obj: Any, args: tuple, kwargs: dict,
             call: Callable[[], Any]) -> Any:
        if when is None or when(obj, args, kwargs):
            counts.counts[metric] += 1
        return call()
    return hook


def _delta(**metrics: Callable[[Any], int]) -> _Hook:
    """Add the change of ``getter(self)`` across the call to each metric."""
    def hook(counts: WorkCounts, obj: Any, args: tuple, kwargs: dict,
             call: Callable[[], Any]) -> Any:
        before = {m: get(obj) for m, get in metrics.items()}
        try:
            return call()
        finally:
            for metric, get in metrics.items():
                counts.counts[metric] += get(obj) - before[metric]
    return hook


def _sender_on_control(counts: WorkCounts, sender: Any, args: tuple,
                       kwargs: dict, call: Callable[[], Any]) -> Any:
    """Reports received / verified and sessions completed, per message."""
    kind = args[0] if args else kwargs["kind"]
    corrupt = sender.rejected_corrupt
    sessions = sender.sessions_completed
    try:
        return call()
    finally:
        if getattr(kind, "name", "") == "FANCY_REPORT":
            counts.counts["protocol.reports"] += 1
            if sender.rejected_corrupt == corrupt:
                counts.counts["protocol.verified"] += 1
        counts.counts["detector.sessions"] += sender.sessions_completed - sessions


def _invariant_checks(skip_if: str) -> _Hook:
    """One check per watched link, unless the supervisor's ``skip_if`` is set."""
    def hook(counts: WorkCounts, supervisor: Any, args: tuple, kwargs: dict,
             call: Callable[[], Any]) -> Any:
        if not getattr(supervisor, skip_if):
            counts.counts["service.invariant_checks"] += len(supervisor.observers)
        return call()
    return hook


def _keep_instance(bucket: str) -> _Hook:
    def hook(counts: WorkCounts, obj: Any, args: tuple, kwargs: dict,
             call: Callable[[], Any]) -> Any:
        counts.instances.setdefault(bucket, []).append(obj)
        return call()
    return hook


def _is_retransmission(flow: Any, args: tuple, kwargs: dict) -> bool:
    return bool(kwargs.get("retransmission", args[1] if len(args) > 1 else False))


_FLUID_WINDOW = _delta(**{"fluid.absorbed": lambda b: b.traffic.absorbed,
                          "fluid.lost": lambda b: b.traffic.lost})


#: (module, class or None, attribute) -> hook, installed in every run.
PROBES: list[tuple[str, str | None, str, _Hook]] = [
    ("repro.simulator.engine", "Simulator", "run",
     _delta(**{"engine.events": lambda sim: sim.events_processed})),
    ("repro.core.protocol", "FancySender", "_emit", _count("protocol.control_msgs")),
    ("repro.core.protocol", "FancyReceiver", "_send", _count("protocol.control_msgs")),
    ("repro.core.protocol", "FancySender", "_emit",
     _count("protocol.retransmits", lambda s, a, k: s.attempts > 1)),
    ("repro.core.protocol", None, "payload_checksum", _count("protocol.checksums")),
    ("repro.core.protocol", "FancySender", "on_control", _sender_on_control),
    ("repro.simulator.fluid", "_MonitorBinding", "_dedicated_window", _FLUID_WINDOW),
    ("repro.simulator.fluid", "_MonitorBinding", "_tree_window", _FLUID_WINDOW),
    ("repro.fabric.reroute", "FabricRerouteController", "_install",
     _delta(**{"fabric.reroutes": lambda c: len(c.reroute_times)})),
    ("repro.service.ladder", "DegradationLadder", "_set_state",
     _delta(**{"service.transitions": lambda ladder: ladder.transitions})),
    ("repro.service.supervision", "InvariantSupervisor", "_tick",
     _invariant_checks("stopped")),
    ("repro.service.supervision", "InvariantSupervisor", "finalize",
     _invariant_checks("finalized")),
]

#: Probes on per-packet paths or that keep objects alive: traced run only.
TRACED_ONLY: list[tuple[str, str | None, str, _Hook]] = [
    ("repro.simulator.tcp", "TcpFlow", "_emit",
     _count("transport.retransmits", _is_retransmission)),
    ("repro.simulator.link", "Link", "__init__", _keep_instance("links")),
]


class WorkCounts:
    """Installs the probes and accumulates their counts."""

    def __init__(self, traced: bool = False) -> None:
        self.counts: Counter[str] = Counter()
        self.instances: dict[str, list[Any]] = {}
        self.missing: list[str] = []
        self._patcher = Patcher()
        self._probes = PROBES + (TRACED_ONLY if traced else [])

    def install(self) -> None:
        for modname, clsname, attr, hook in self._probes:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname, None) if clsname else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}:{clsname or ''}.{attr}")
                continue
            original = vars(owner)[attr]
            self._patcher.set(owner, attr, self._wrap(original, hook,
                                                      method=clsname is not None))

    def _wrap(self, fn: Callable[..., Any], hook: _Hook, method: bool) -> Callable[..., Any]:
        counts = self
        if method:
            def probed(obj: Any, *args: Any, **kwargs: Any) -> Any:
                return hook(counts, obj, args, kwargs, lambda: fn(obj, *args, **kwargs))
        else:
            def probed(*args: Any, **kwargs: Any) -> Any:  # type: ignore[misc]
                return hook(counts, None, args, kwargs, lambda: fn(*args, **kwargs))
        functools.update_wrapper(probed, fn)
        return probed

    def uninstall(self) -> None:
        self._patcher.restore()

    def take(self) -> dict[str, int]:
        """The counts so far (every :data:`DETERMINISTIC` key), then reset."""
        out = {key: int(self.counts.get(key, 0)) for key in DETERMINISTIC}
        out.update({k: int(v) for k, v in self.counts.items() if k not in out})
        self.counts.clear()
        return out

    def take_instances(self, bucket: str) -> list[Any]:
        return self.instances.pop(bucket, [])
