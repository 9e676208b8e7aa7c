"""Packet-level discrete-event network simulator.

This package is the reproduction's stand-in for ns-3: an event engine,
links with bandwidth/delay/loss, P4-like switches with ingress/egress hook
points around a traffic manager, a Reno-style TCP, CBR UDP sources, and
ready-made evaluation topologies.

Performance: the dataplane has a reference path and an equivalence-tested
fast path (fused link events, UDP packet trains); :mod:`repro.simulator.
fastpath` switches the link pipeline.  See ``docs/PERFORMANCE.md``.
"""

from . import fastpath
from .apps import FlowGenerator, Host, ThroughputMeter
from .engine import EventHandle, SimulationError, Simulator
from .failures import (
    CompositeFailure,
    IntermittentFailure,
    ControlPlaneFailure,
    EntryLossFailure,
    GrayFailure,
    PacketPropertyFailure,
    UniformLossFailure,
)
from .link import Link, LinkStats, connect_duplex
from .packet import FANCY_TAG_BYTES, MIN_FRAME_BYTES, Packet, PacketKind
from .switch import Node, Switch
from .tcp import DEFAULT_RTO, TcpFlow, TcpSink
from .topology import ChainTopology, StarTopology, TwoSwitchTopology
from .tracing import PacketTracer, TraceEvent
from .udp import UdpSource

__all__ = [
    "Simulator",
    "SimulationError",
    "EventHandle",
    "Packet",
    "PacketKind",
    "FANCY_TAG_BYTES",
    "MIN_FRAME_BYTES",
    "Link",
    "LinkStats",
    "connect_duplex",
    "fastpath",
    "Node",
    "Switch",
    "Host",
    "FlowGenerator",
    "ThroughputMeter",
    "TcpFlow",
    "TcpSink",
    "DEFAULT_RTO",
    "UdpSource",
    "GrayFailure",
    "EntryLossFailure",
    "UniformLossFailure",
    "PacketPropertyFailure",
    "ControlPlaneFailure",
    "CompositeFailure",
    "IntermittentFailure",
    "TwoSwitchTopology",
    "ChainTopology",
    "StarTopology",
    "PacketTracer",
    "TraceEvent",
]
