"""FCY010 fixture: per-packet granularity inside fluid-model code."""

from repro.simulator.packet import Packet


def leak_packets(rng, entries, n):
    out = []
    for entry in entries:
        packet = Packet("DATA", entry, 1500)
        out.append(packet)
    while n > 0:
        n -= 1
        out.append(rng.random())
    return out
