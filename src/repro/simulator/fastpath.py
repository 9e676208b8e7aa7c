"""Global fast-path configuration for the simulator.

The simulator has two link pipelines: a *reference* path (one event per
pipeline stage) and a *fused* path (serialize, propagate and deliver in
one event on uncontended links).  The two are equivalence-tested — same
RNG draws produce identical experiment outputs (see
``tests/simulator/test_fastpath_equivalence.py``) — so fused links are on
by default; UDP packet trains are a per-source option
(:class:`~repro.simulator.udp.UdpSource`), not a global switch.  Switch
the pipeline per run via :func:`configure` or the :func:`scoped` context
manager::

    from repro.simulator import fastpath

    with fastpath.scoped(fused_links=False):
        run_experiment()          # every link on the reference pipeline

    with fastpath.reference():
        run_experiment()          # the same, spelled as a preset

Links snapshot ``CONFIG.fused_links`` at construction time, so toggle the
configuration *before* building a topology.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator

__all__ = ["CONFIG", "FastPathConfig", "configure", "scoped", "reference"]


class FastPathConfig:
    """Mutable global switch for the simulator's fused link pipeline."""

    __slots__ = ("fused_links",)

    def __init__(self, fused_links: bool = True) -> None:
        #: Collapse serialize->propagate->deliver into one event on
        #: uncontended links (falls back to the full path under contention
        #: or telemetry/tracing instrumentation).
        self.fused_links = fused_links

    def snapshot(self) -> dict[str, bool]:
        return {"fused_links": self.fused_links}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FastPathConfig(fused_links={self.fused_links})"


#: The process-wide configuration consulted by Link.
CONFIG = FastPathConfig()


def configure(fused_links: bool | None = None) -> dict[str, bool]:
    """Update the global fast-path switch; returns the previous snapshot."""
    previous = CONFIG.snapshot()
    if fused_links is not None:
        CONFIG.fused_links = fused_links
    return previous


@contextmanager
def scoped(fused_links: bool | None = None) -> Iterator[FastPathConfig]:
    """Temporarily reconfigure the fast path (restores on exit)."""
    previous = configure(fused_links=fused_links)
    try:
        yield CONFIG
    finally:
        configure(**previous)


@contextmanager
def reference() -> Iterator[FastPathConfig]:
    """Run with fused links disabled — the reference dataplane."""
    with scoped(fused_links=False) as cfg:
        yield cfg
