"""Host-speed probe: timings in reference seconds.

The benchmark runs on a share of a core whose speed drifts with the
host's other load: the same program run reads up to ~1.8x apart within
minutes, in slow and fast stretches that last from under a second to a
few minutes.  A median over one 30 s run cannot average that out, so the
end-to-end timings are corrected by the host's speed *during* the timed
interval.

While a :class:`SpeedProbe` is active, every ``PROBE_EVERY_S`` of process
CPU time a ``SIGPROF`` handler interrupts the program and times
:func:`probe_loop`, a fixed pure-Python loop of attribute, dict and call
work that allocates no objects the garbage collector tracks (so the
program's collections happen exactly when they would unprobed).  A
timing is then converted with :meth:`SpeedProbe.reference_seconds`: the
probe's own time is taken out, and the rest is scaled by
``REFERENCE_PROBE_S`` over the probe's trimmed-mean duration in that
interval.  The result reads "seconds on a host where one probe takes
``REFERENCE_PROBE_S``".  The probe is part of the benchmark and never
changes with the program, so a program that does more work still reads
slower in proportion.
"""

from __future__ import annotations

import signal
import time
from typing import Any

__all__ = ["PROBE_EVERY_S", "REFERENCE_PROBE_S", "SpeedProbe", "probe_loop",
           "reference_seconds", "trimmed_mean"]

#: Process CPU time between two probes.
PROBE_EVERY_S = 0.010
#: Loop steps per probe (0.3-0.5 ms, 3-5% of each period, on a 2-core
#: Xeon VM under CPython 3.11).
PROBE_STEPS = 2400
#: Nominal probe duration: reference seconds are host seconds on a host
#: where one probe takes this long (that VM's figure in a fast stretch).
REFERENCE_PROBE_S = 4.0e-4
#: Share of the probe samples dropped at each end before averaging.
TRIM = 0.1


class _Node:
    __slots__ = ("sent", "size", "next")


_NODES = [_Node() for _ in range(16)]
for _i, _node in enumerate(_NODES):
    _node.sent = 0
    _node.size = 64 + _i
    _node.next = _NODES[(_i * 5 + 3) % 16]
_TABLE = {_i: _i * 7 for _i in range(64)}


def _step(node: _Node, acc: int) -> int:
    node.sent += 1
    return (acc + _TABLE[(acc + node.size) & 63]) & 0xFFFF


def probe_loop(steps: int = PROBE_STEPS) -> int:
    """The fixed work one probe times; allocates nothing the GC tracks."""
    node = _NODES[0]
    acc = 1
    for _ in range(steps):
        acc = _step(node, acc)
        node = node.next
    return acc


def trimmed_mean(samples: list[float], trim: float = TRIM) -> float:
    ordered = sorted(samples)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def reference_seconds(seconds: float, probe_total_s: float,
                      probe_mean_s: float) -> float:
    """``seconds`` of host time, probes included, in reference seconds."""
    return (seconds - probe_total_s) * REFERENCE_PROBE_S / probe_mean_s


class SpeedProbe:
    """Samples the host's speed while active (``with SpeedProbe() as p``).

    Installs a ``SIGPROF`` handler and an ``ITIMER_PROF`` timer on entry
    and restores both on exit.  Use it on the main thread only.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._old_handler: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> SpeedProbe:
        self.samples.clear()
        self._old_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler)

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    @property
    def mean_s(self) -> float:
        if not self.samples:
            raise RuntimeError("interval too short: the speed probe never ran")
        return trimmed_mean(self.samples)

    def reference_seconds(self, seconds: float) -> float:
        """``seconds`` measured around the probed interval, in reference seconds."""
        return reference_seconds(seconds, self.total_s, self.mean_s)
