"""Detection → selective reroute control plane for fabrics (§6.1 scaled up).

Three pieces close the loop the single-link ``apps/rerouting.py`` case
study only gestures at:

* :class:`LfaTable` precomputes loop-free alternates: for a (node,
  destination, protected directed link) triple it derives the full
  repair path in the graph with the protected link pruned.  A plain
  next-hop LFA condition is *not* sufficient on rings — with even
  cycles the distance tie lets ECMP bounce traffic straight back over
  the protecting switch — so the controller installs the whole repair
  path, which is loop-free by construction regardless of ECMP ties.
* :class:`SelectiveRerouteApp` is the per-switch data-plane agent: a
  sticky per-entry port override sitting at the *front* of the switch's
  forwarding-override chain (ahead of the fabric's ECMP forwarder).
* :class:`FabricRerouteController` polls every monitor's flags on a
  deterministic tick and, for each newly flagged ``(link, entry)``,
  installs the repair path hop by hop.  Installed reroutes are sticky:
  once traffic leaves the gray link it stops being counted there, the
  flag may age out, and flapping back would re-enter the failure.
"""

from __future__ import annotations

from typing import Any

from ..simulator.packet import Packet, PacketKind
from ..simulator.switch import Switch
from .deployment import FabricDeployment
from .graph import FabricGraph, FabricNetwork

__all__ = ["LfaTable", "SelectiveRerouteApp", "FabricRerouteController"]


class LfaTable:
    """Loop-free-alternate repair paths on a :class:`FabricGraph`.

    ``repair_path(node, dst, failed)`` is the shortest path from
    ``node`` to ``dst`` in the graph with the *directed* link
    ``failed`` pruned (gray failures are directional; the reverse
    direction of the same fiber stays usable).  Paths are cached — the
    table is precomputation, the controller is policy.
    """

    def __init__(self, graph: FabricGraph) -> None:
        self.graph = graph
        self._cache: dict[tuple[str, str, tuple[str, str]], list[str] | None] = {}

    def repair_path(self, node: str, dst: str,
                    failed: tuple[str, str]) -> list[str] | None:
        key = (node, dst, failed)
        if key not in self._cache:
            self._cache[key] = self.graph.shortest_path(node, dst,
                                                        without=failed)
        return self._cache[key]

    def backup_next_hop(self, node: str, dst: str,
                        failed: tuple[str, str]) -> str | None:
        """First hop of the repair path (the classic LFA answer)."""
        path = self.repair_path(node, dst, failed)
        if path is None or len(path) < 2:
            return None
        return path[1]

    def protectable(self, failed: tuple[str, str], dst: str) -> bool:
        return self.repair_path(failed[0], dst, failed) is not None


class SelectiveRerouteApp:
    """Sticky per-entry forwarding overrides on one fabric switch.

    Installed at the front of the override chain, so reroutes win over
    the fabric's ECMP forwarder but still compose with it: entries
    without an override fall through untouched.  Only forward DATA is
    steered — control messages and ACKs keep their normal paths, same
    contract as the single-link :class:`~repro.apps.rerouting.
    FastRerouteApp`.
    """

    def __init__(self, switch: Switch) -> None:
        self.switch = switch
        self.overrides: dict[Any, int] = {}
        self.rerouted_packets = 0
        #: Called once per entry on the first packet actually steered —
        #: the controller reports the entry's recovery off this signal.
        self.on_steered: Any = None
        self._steered: set[Any] = set()
        self._installed = self._decide
        switch.add_forwarding_override(self._installed, front=True)

    def _decide(self, packet: Packet) -> int | None:
        if packet.kind is not PacketKind.DATA or packet.reverse:
            return None
        port = self.overrides.get(packet.entry)
        if port is None:
            return None
        self.rerouted_packets += 1
        if self.on_steered is not None and packet.entry not in self._steered:
            self._steered.add(packet.entry)
            self.on_steered(packet.entry)
        return port

    def set_override(self, entry: Any, port: int) -> None:
        """Install a sticky override; the first installer wins.

        First-wins keeps concurrently installed repair paths
        consistent: a node shared by two repair paths keeps steering
        the entry along the path installed first, which is still
        loop-free end to end.
        """
        self.overrides.setdefault(entry, port)

    def clear(self, entry: Any | None = None) -> None:
        if entry is None:
            self.overrides.clear()
        else:
            self.overrides.pop(entry, None)

    def uninstall(self) -> None:
        self.switch.remove_forwarding_override(self._installed)


class FabricRerouteController:
    """Polls fabric monitors and installs selective repair paths.

    Args:
        net: the materialized fabric (entries must be registered on it).
        deployment: the monitors to poll.
        poll_interval_s: flag-polling period; detection latency adds at
            most one period before traffic moves.
        lfa: optionally share a precomputed :class:`LfaTable`.
    """

    def __init__(
        self,
        net: FabricNetwork,
        deployment: FabricDeployment,
        poll_interval_s: float = 0.050,
        lfa: LfaTable | None = None,
    ) -> None:
        self.net = net
        self.deployment = deployment
        self.poll_interval_s = poll_interval_s
        self.lfa = lfa if lfa is not None else LfaTable(net.graph)
        self.apps: dict[str, SelectiveRerouteApp] = {
            node: SelectiveRerouteApp(net.switch(node))
            for node in net.graph.nodes
        }
        #: (link_id, entry) -> install time of its repair path.
        self.reroute_times: dict[tuple[str, Any], float] = {}
        #: flagged (link_id, entry) pairs with no repair path available.
        self.unprotectable: list[tuple[str, Any]] = []
        for app in self.apps.values():
            app.on_steered = self._on_steered
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self.net.sim.schedule(self.poll_interval_s, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        flagged = self.deployment.flagged()
        for link_id in sorted(flagged):
            for entry in sorted(flagged[link_id], key=repr):
                self._install(link_id, entry)
        self.net.sim.schedule(self.poll_interval_s, self._tick)

    # -- installation -----------------------------------------------------

    def _install(self, link_id: str, entry: Any) -> None:
        key = (link_id, entry)
        if key in self.reroute_times or key in self.unprotectable:
            return
        a, b = self.net.endpoints(link_id)
        dst = self.net.entry_dst.get(entry)
        if dst is None:  # flag for an entry the fabric never registered
            self._mark_unprotectable(link_id, entry)
            return
        path = self.lfa.repair_path(a, dst, (a, b))
        if path is None or len(path) < 2:
            self._mark_unprotectable(link_id, entry)
            return
        for u, v in zip(path, path[1:]):
            self.apps[u].set_override(entry, self.net.port_to(u, v))
        now = self.net.sim.now
        self.reroute_times[key] = now
        telemetry = self._telemetry(link_id)
        if telemetry is not None:
            telemetry.emit("reroute_install", now, link_id, entry=entry,
                           path=path)

    def _telemetry(self, link_id: str) -> Any:
        monitor = self.deployment.monitors.get(link_id)
        return monitor.telemetry if monitor is not None else None

    def _mark_unprotectable(self, link_id: str, entry: Any) -> None:
        self.unprotectable.append((link_id, entry))
        telemetry = self._telemetry(link_id)
        if telemetry is not None:
            telemetry.emit("reroute_unprotectable", self.net.sim.now,
                           link_id, entry=entry)

    def _on_steered(self, entry: Any) -> None:
        """Report recovery once the first packet actually moves."""
        now = self.net.sim.now
        for link_id, installed in self.reroute_times:
            telemetry = self._telemetry(link_id)
            if installed == entry and telemetry is not None:
                telemetry.emit("reroute_recovered", now, link_id, entry=entry)

    # -- queries ----------------------------------------------------------

    def reroute_time(self, entry: Any) -> float | None:
        """Earliest repair-path install time for ``entry`` (any link)."""
        times = [t for (_lid, e), t in self.reroute_times.items()
                 if e == entry]
        return min(times) if times else None

    @property
    def rerouted_packets(self) -> int:
        return sum(app.rerouted_packets for app in self.apps.values())
