"""One monitored fabric link's scenario: the pieces every run body shares.

FANcY's unit of detection is one directed link (§3).  The fabric closed
loop and its per-link probes (:mod:`repro.experiments.fabric`), the serve
soak (:mod:`repro.service.soak`) and the fabric chaos soak
(:mod:`repro.fabric.chaos`) build that unit from these plain functions.
Each keeps the scheduling and RNG-construction order of the run bodies it
replaced: same-instant events fire in scheduling order, so reordering
would change the outputs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..runtime import stable_seed
from ..simulator.fluid import FluidFlow, FluidTraffic
from ..simulator.udp import UdpSource
from .deployment import FabricDeployment
from .graph import FabricNetwork

__all__ = ["egress_legs", "start_udp", "bind_fluid", "start_staggered",
           "open_fault_episode", "link_payload"]


def egress_legs(net: FabricNetwork, entry: Any, flow_id: int, link_id: str,
                packet_size: int) -> tuple[float, ...] | None:
    """Delay chain host → ``link_id``'s egress; None when the flow's ECMP
    path misses the link (the crossing filter for sources and fluid).

    Mirrors the discrete pipeline's per-hop additions in order: the
    instant access link delivers at ``now + access_delay``, each
    switch-switch hop serializes then propagates, and the monitor's
    egress tap fires inline at the arrival instant — so folding these
    legs left-to-right reproduces the exact float the packet model
    compares against the counting-window boundary.
    """
    a, b = net.endpoints(link_id)
    path = net.flow_path(entry, flow_id)
    try:
        idx = path.index(a)
    except ValueError:
        return None
    if idx + 1 >= len(path) or path[idx + 1] != b:
        return None
    legs: list[float] = [net.access_delay_s]
    for i in range(idx):
        link = net.link(path[i], path[i + 1])
        if link.bandwidth_bps:
            legs.append(packet_size * 8 / link.bandwidth_bps)
        legs.append(link.delay_s)
    return tuple(legs)


def start_udp(net: FabricNetwork, entry: Any, flow_id: int, rate_bps: float,
              packet_size: int, seed: int, delay: float) -> UdpSource:
    """One 10 %-jitter UDP source from ``entry``'s source host."""
    source = UdpSource(
        net.sim, net.host(net.entry_src[entry]).send, entry, flow_id=flow_id,
        rate_bps=rate_bps, packet_size=packet_size, jitter=0.1, seed=seed,
    )
    source.start(delay=delay)
    return source


def bind_fluid(deployment: FabricDeployment, rates: Mapping[Any, float], *,
               packet_size: int, seed: int, tag: str,
               loss_seeds: Mapping[str, int], flow_base: int = 0) -> FluidTraffic:
    """One fluid flow per ``rates`` entry, bound to the monitors it crosses.

    Flow ``j`` has the UDP source's parameters: id ``flow_base + j``,
    seed ``stable_seed(seed, tag, j)``, start ``0.0005 * (j + 1)``.  Flows
    bind grouped by delay chain; loss draws seed from ``loss_seeds``.
    """
    net = deployment.net
    engine = FluidTraffic(net.sim)
    for j, (entry, rate) in enumerate(rates.items()):
        engine.add_flow(FluidFlow(
            entry=entry, flow_id=flow_base + j, rate_bps=rate,
            packet_size=packet_size, jitter=0.1,
            seed=stable_seed(seed, tag, j), start_s=0.0005 * (j + 1),
        ))
    for link_id, monitor in deployment.monitors.items():
        by_legs: dict[tuple[float, ...], list[FluidFlow]] = {}
        for flow in engine.flows:
            legs = egress_legs(net, flow.entry, flow.flow_id, link_id,
                               flow.packet_size)
            if legs is not None:
                by_legs.setdefault(legs, []).append(flow)
        for legs, flows in by_legs.items():
            engine.bind_monitor(
                monitor, flows, legs,
                loss_model=net.links[link_id].loss_model,
                loss_seed=loss_seeds[link_id],
            )
    return engine


def start_staggered(deployment: FabricDeployment) -> None:
    """Start each monitor 1 ms × its index in ``directed_link_ids()``."""
    order = deployment.net.directed_link_ids()
    for link_id, monitor in deployment.monitors.items():
        monitor.start(delay=order.index(link_id) * 0.001)


def open_fault_episode(deployment: FabricDeployment, link_id: str, at: float,
                       name: str, *, window_s: float | None = None,
                       **attrs: Any) -> None:
    """Report a ``fault_injected`` fact on ``link_id``'s monitor at ``at``.

    Only the harness knows the root cause, so it opens the trace episode
    every later span (divergence → zoom → flag → reroute) hangs under.
    ``window_s`` closes it that much later; an ``entry`` attribute also
    names the victim for detection pairing.  No-op when the link is
    unmonitored or its telemetry is off.
    """
    monitor = deployment.monitors.get(link_id)
    telemetry: Any = monitor.telemetry if monitor is not None else None
    if telemetry is None:
        return
    sim = deployment.net.sim

    def _open() -> None:
        telemetry.emit("fault_injected", sim.now, link_id, fault=name,
                       link=link_id, **attrs)
        if window_s is not None:
            sim.schedule(window_s,
                         lambda: telemetry.traces.end_episode(sim.now))

    sim.schedule_at(at, _open)


def link_payload(deployment: FabricDeployment, link_id: str,
                 fluid: FluidTraffic | None) -> dict[str, Any]:
    """Finalize ``link_id``'s traces; the payload ``merge_link_results`` reads."""
    sim = deployment.net.sim
    telemetry: Any = deployment.telemetry
    traces = deployment.monitors[link_id].telemetry.traces
    traces.finalize(sim.now)
    return {
        "link": link_id,
        "detections": deployment.detection_records(),
        "metrics": telemetry.metrics.snapshot(),
        "spans": traces.span_dicts(),
        "sessions_completed": deployment.sessions_completed()[link_id],
        "events_processed": sim.events_processed,
        "fluid_absorbed": fluid.absorbed if fluid is not None else 0,
    }
