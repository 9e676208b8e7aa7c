"""Global fast-path configuration for the simulator.

The simulator has two dataplane implementations per feature: a *reference*
path (one event per pipeline stage, a fresh :class:`~repro.simulator.
packet.Packet` per packet) and a *fast* path (fused link events, packet
pooling, batched UDP ticks).  Both are equivalence-tested — same RNG
draws produce identical experiment outputs (see
``tests/simulator/test_fastpath_equivalence.py``) — so the fast path is
safe to enable wholesale for sweeps.

Defaults: fused links are ON (they change nothing observable and are the
single biggest event-count win); packet pooling is OFF because it recycles
packet objects after the sink consumed them, which is unsafe only if user
code retains packet references past delivery (e.g. an ``rx_tap`` that
stores packets).  Enable pooling per run via :func:`configure` or the
:func:`scoped` context manager::

    from repro.simulator import fastpath

    with fastpath.scoped(packet_pool=True):
        run_experiment()          # pooled packets, fused links

    with fastpath.reference():
        run_experiment()          # the unoptimized reference dataplane

Links snapshot ``CONFIG.fused_links`` at construction time, so toggle the
configuration *before* building a topology.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator

__all__ = ["CONFIG", "FastPathConfig", "configure", "scoped", "reference"]


class FastPathConfig:
    """Mutable global switchboard for the simulator fast paths."""

    __slots__ = ("fused_links", "packet_pool")

    def __init__(self, fused_links: bool = True,
                 packet_pool: bool = False) -> None:
        #: Collapse serialize->propagate->deliver into one event on
        #: uncontended links (falls back to the full path under contention
        #: or telemetry/tracing instrumentation).
        self.fused_links = fused_links
        #: Recycle Packet objects through a free list; sinks release
        #: consumed packets back to the pool.
        self.packet_pool = packet_pool

    def snapshot(self) -> dict[str, bool]:
        return {"fused_links": self.fused_links, "packet_pool": self.packet_pool}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FastPathConfig(fused_links={self.fused_links}, "
                f"packet_pool={self.packet_pool})")


#: The process-wide configuration consulted by Link and Packet.
CONFIG = FastPathConfig()


def configure(
    fused_links: bool | None = None,
    packet_pool: bool | None = None,
) -> dict[str, bool]:
    """Update the global fast-path switches; returns the previous snapshot."""
    from .packet import POOL

    previous = CONFIG.snapshot()
    if fused_links is not None:
        CONFIG.fused_links = fused_links
    if packet_pool is not None:
        CONFIG.packet_pool = packet_pool
        POOL.enabled = packet_pool
        if not packet_pool:
            POOL.drain()
    return previous


@contextmanager
def scoped(
    fused_links: bool | None = None,
    packet_pool: bool | None = None,
) -> Iterator[FastPathConfig]:
    """Temporarily reconfigure the fast path (restores on exit)."""
    previous = configure(fused_links=fused_links, packet_pool=packet_pool)
    try:
        yield CONFIG
    finally:
        configure(**previous)


@contextmanager
def reference() -> Iterator[FastPathConfig]:
    """Run with every fast path disabled — the reference dataplane."""
    with scoped(fused_links=False, packet_pool=False) as cfg:
        yield cfg
