"""Fluid background-traffic model (the hybrid fluid/packet fast path).

FANcY's counting protocol never inspects a background packet beyond its
entry: dedicated counters and the hash tree consume per-entry *counts*
at session boundaries (§4.1–§4.3).  For open-loop background UDP this
makes the per-packet event stream pure simulator overhead — the stream
is fully determined by the jitter RNG, so its contribution to every
counter exchange can be computed in closed form when the counting
window closes, at one float-add-and-compare per absorbed packet instead
of a full event-pipeline traversal per hop.

:class:`FluidFlow` describes one constant-bit-rate flow with the exact
parameters of :class:`~repro.simulator.udp.UdpSource`; the per-monitor
:class:`_EmissionCursor` replays the source's emission recurrence
(``t = t + interval * (lo + span * rng.random())``) with an identical
jitter RNG, so the *sent* counts a monitor would have observed are
bit-identical to the packet model by construction.  Arrival at the
monitor adds the flow's per-hop delay chain in the same left-to-right
float association order the link pipeline uses (instant links deliver
at ``now + delay_s`` per hop), so on uncontended/instant paths window
membership is exact too.

Received counts subtract seeded binomial loss draws per activation
segment of the monitored link's gray-failure model: exact (no RNG) for
loss rates 0 and 1, statistically matched otherwise — the contract the
equivalence suite and docs/PERFORMANCE.md spell out.  Protocol/control,
TCP, and flagged-entry traffic stay discrete: a fluid flow whose entry
gets flagged is handed back to the discrete plane (its counts stop, as
they would once the rerouting application moves the traffic away).

Experiments opt in per run (``FabricExpConfig(fluid=True)``, the
``fabric --fluid`` flag); the serve soak always models its flows this way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from ..runtime.jobs import stable_seed
from .failures import (
    CompositeFailure,
    ControlPlaneFailure,
    EntryLossFailure,
    GrayFailure,
    IntermittentFailure,
    UniformLossFailure,
)

__all__ = [
    "FluidFlow",
    "FluidModelError",
    "FluidTraffic",
    "binomial",
    "loss_profile",
]


class FluidModelError(ValueError):
    """A link loss model the fluid abstraction cannot represent.

    Raised loudly instead of silently mis-modelling losses: a fluid run
    must either match the packet model's loss statistics or refuse.
    """


@dataclass(frozen=True)
class FluidFlow:
    """One constant-bit-rate background flow, by rate segments.

    Mirrors the :class:`~repro.simulator.udp.UdpSource` parameters
    exactly — a fluid flow and a packet source constructed from the same
    fields emit packets at bit-identical instants.

    ``rate_changes`` holds optional piecewise-constant rate segments as
    ``(time_s, rate_bps)`` pairs: from each change time on, inter-packet
    gaps are drawn from the new rate's interval.  Changes apply at
    emission-cursor granularity (the gap *after* the first emission at
    or past the change time uses the new rate), matching how an open
    loop source would be retuned in place.
    """

    entry: Any
    flow_id: int
    rate_bps: float
    packet_size: int = 1500
    jitter: float = 0.0
    seed: int = 0
    start_s: float = 0.0
    rate_changes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("fluid flow rate must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if any(r <= 0 for _, r in self.rate_changes):
            raise ValueError("rate changes must keep the rate positive")

    @property
    def interval_s(self) -> float:
        return self.packet_size * 8 / self.rate_bps


class _EmissionCursor:
    """Replays one flow's emission instants, consuming the jitter RNG.

    The recurrence is UdpSource's, verbatim: the first packet departs at
    ``start_s`` and each next at ``t = t + interval * (lo + span * u)``
    with ``u`` drawn from ``random.Random(seed)`` — same seed, same draw
    order, same float association, so the emission sequence is
    bit-identical to the packet model's.
    """

    __slots__ = ("_t", "_rng", "_lo", "_span", "_interval", "_changes",
                 "legs", "emitted")

    def __init__(self, flow: FluidFlow, legs: tuple[float, ...] = ()) -> None:
        self._t = flow.start_s
        self._rng = random.Random(flow.seed) if flow.jitter else None
        self._lo = 1.0 - flow.jitter
        self._span = 2.0 * flow.jitter
        self._interval = flow.interval_s
        size8 = flow.packet_size * 8
        #: Pending (time, interval) rate segments, soonest first.
        self._changes = sorted(
            ((t, size8 / rate) for t, rate in flow.rate_changes),
        )
        #: Per-hop delay chain host → monitor egress, applied forward in
        #: the same left-to-right order the link pipeline adds them
        #: (instant links deliver at ``now + delay_s``) — never inverted,
        #: so the window-boundary comparison is the discrete one exactly.
        self.legs = legs
        self.emitted = 0

    def _arrival(self, emit_t: float) -> float:
        t = emit_t
        for leg in self.legs:
            t = t + leg
        return t

    def advance(self, until: float) -> int:
        """Count emissions *arriving* strictly before ``until``.

        Advances the cursor past every counted emission, consuming its
        jitter draw — exactly one draw per packet, in UdpSource order.
        """
        n = 0
        t = self._t
        rng = self._rng
        interval = self._interval
        changes = self._changes
        lo, span = self._lo, self._span
        while self._arrival(t) < until:
            n += 1
            while changes and changes[0][0] <= t:
                interval = changes.pop(0)[1]
            if rng is None:
                t = t + interval
            else:
                # One jitter draw per emitted packet, identical order to
                # UdpSource._next_gap — the sanctioned per-packet draw
                # that keeps sent counts bit-identical to the packet
                # model; everything else in fluid mode is bulk.
                t = t + interval * (lo + span * rng.random())  # fancylint: disable=FCY010
        self._t = t
        self._interval = interval
        self.emitted += n
        return n


# --------------------------------------------------------------------------
# loss profiles: gray-failure models as piecewise-constant drop rates
# --------------------------------------------------------------------------


class _LossProfile:
    """Piecewise-constant drop probability for one entry on one link."""

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        """Disjoint ``(start, end, p_drop)`` segments within ``[lo, hi)``."""
        raise NotImplementedError


class _NullProfile(_LossProfile):
    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        return []


class _WindowProfile(_LossProfile):
    """A plain activation-window failure (entry or uniform loss)."""

    def __init__(self, start: float, end: float, rate: float,
                 entries: frozenset[Any] | None) -> None:
        self._start = start
        self._end = end
        self._rate = rate
        self._entries = entries  # None: affects every entry

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        if self._entries is not None and entry not in self._entries:
            return []
        a = max(lo, self._start)
        b = min(hi, self._end)
        if a >= b or self._rate <= 0.0:
            return []
        return [(a, b, self._rate)]


class _IntermittentProfile(_LossProfile):
    """Duty-cycled wrapper: inner segments clipped to the on-windows."""

    def __init__(self, inner: _LossProfile, period_s: float,
                 on_fraction: float, phase_s: float) -> None:
        self._inner = inner
        self._period = period_s
        self._on = period_s * on_fraction
        self._phase = phase_s

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        out: list[tuple[float, float, float]] = []
        first = math.floor((lo - self._phase) / self._period)
        k = first
        while True:
            on_lo = self._phase + k * self._period
            on_hi = on_lo + self._on
            if on_lo >= hi:
                break
            a, b = max(lo, on_lo), min(hi, on_hi)
            if a < b:
                out.extend(self._inner.segments(entry, a, b))
            k += 1
        return out


class _CompositeProfile(_LossProfile):
    """Independent components compose by survival probability."""

    def __init__(self, parts: list[_LossProfile]) -> None:
        self._parts = parts

    def segments(self, entry: Any, lo: float, hi: float) -> list[tuple[float, float, float]]:
        raw: list[tuple[float, float, float]] = []
        for part in self._parts:
            raw.extend(part.segments(entry, lo, hi))
        if len(raw) <= 1:
            return raw
        # Flatten overlaps into elementary intervals; a packet survives a
        # stack of independent Bernoulli drops with prod(1 - p_k).
        points = sorted({p for a, b, _ in raw for p in (a, b)})
        out: list[tuple[float, float, float]] = []
        for a, b in zip(points, points[1:]):
            survive = 1.0
            for sa, sb, p in raw:
                if sa <= a and b <= sb:
                    survive *= 1.0 - p
            p_drop = 1.0 - survive
            if p_drop > 0.0:
                out.append((a, b, p_drop))
        return out


def loss_profile(model: Any) -> _LossProfile:
    """Interpret a link ``loss_model`` as a fluid loss profile.

    Supports the stationary gray-failure classes whose drop decision
    depends only on the entry and the activation window.  Anything whose
    decision needs the concrete packet (property predicates, control
    filters with ``affect_control``, arbitrary callables) raises
    :class:`FluidModelError` — those links must carry discrete traffic.
    """
    if model is None:
        return _NullProfile()
    if isinstance(model, EntryLossFailure):
        return _WindowProfile(model.start_time,
                              math.inf if model.end_time is None else model.end_time,
                              model.loss_rate, model.entries)
    if isinstance(model, UniformLossFailure):
        return _WindowProfile(model.start_time,
                              math.inf if model.end_time is None else model.end_time,
                              model.loss_rate, None)
    if isinstance(model, ControlPlaneFailure):
        # Control-plane loss never touches data packets (its ``matches``
        # rejects everything non-control), so fluid *data* flows cross it
        # loss-free — the control messages themselves stay discrete and
        # feel the failure on the wire.
        return _NullProfile()
    if isinstance(model, IntermittentFailure):
        return _IntermittentProfile(loss_profile(model.inner), model.period_s,
                                    model.on_fraction, model.phase_s)
    if isinstance(model, CompositeFailure):
        return _CompositeProfile([loss_profile(f) for f in model.failures])
    if isinstance(model, GrayFailure):
        raise FluidModelError(
            f"loss model {type(model).__name__} depends on per-packet "
            "properties; fluid flows cannot cross it — keep that link's "
            "traffic discrete")
    raise FluidModelError(
        f"unrecognized loss model {type(model).__name__}; fluid flows "
        "require a gray-failure model from repro.simulator.failures")


def binomial(rng: random.Random, n: int, p: float) -> int:
    """Seeded binomial draw: exact for small ``n``, normal approx beyond.

    Loss rates 0 and 1 never touch the RNG, so the dedicated-counter
    exchanges of a total-blackhole failure are *exact*, not sampled —
    the "exact vs statistically matched" boundary docs/PERFORMANCE.md
    documents.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n <= 64:
        # Per-packet Bernoulli draws, deliberately: at these counts the
        # exact distribution is cheap and matches the packet model's
        # loss statistics draw-for-draw in expectation.
        k = 0
        for _ in range(n):
            if rng.random() < p:  # fancylint: disable=FCY010
                k += 1
        return k
    mean = n * p
    sigma = math.sqrt(mean * (1.0 - p))
    k = round(rng.gauss(mean, sigma))
    return min(n, max(0, int(k)))


# --------------------------------------------------------------------------
# monitor binding: feed counters at protocol exchange boundaries
# --------------------------------------------------------------------------


class _BoundFlow:
    """One flow's per-monitor replay state.

    Each monitor gets its own cursor replica: two monitors on one flow's
    path replay the same emission sequence independently (same seed →
    bit-identical instants) with their own arrival chains.
    """

    __slots__ = ("flow", "cursor")

    def __init__(self, flow: FluidFlow, legs: tuple[float, ...]) -> None:
        self.flow = flow
        self.cursor = _EmissionCursor(flow, legs)


class FluidTraffic:
    """Fluid background flows bound to FANcY monitors.

    Flows registered here emit **no simulator events**: each bound
    monitor replays the flow's emission sequence lazily when one of its
    counting windows closes, bulk-feeding the dedicated/tree counter
    stores on both sides of the link.  ``absorbed`` counts the packet
    events the discrete engine never had to process (the benchmark
    harness reports it next to ``Simulator.events_processed`` so
    speedups are attributable).
    """

    def __init__(self, sim: Any = None) -> None:
        self.sim = sim
        self.flows: list[FluidFlow] = []
        #: Packet emissions absorbed into bulk counter updates.
        self.absorbed = 0
        #: Losses drawn from seeded binomials (receiver-side subtraction).
        self.lost = 0
        self._bindings: list[_MonitorBinding] = []

    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        self.flows.append(flow)
        return flow

    def bind_monitor(
        self,
        monitor: Any,
        flows: list[FluidFlow],
        legs: tuple[float, ...],
        loss_model: Any = None,
        loss_seed: int = 0,
    ) -> None:
        """Attach ``flows`` to one link monitor's counting windows.

        Args:
            monitor: a :class:`~repro.core.detector.FancyLinkMonitor`.
            flows: the fluid flows whose path crosses the monitored link.
            legs: per-hop delay chain from the flows' source host to the
                monitor's egress (one entry per link crossed *before* the
                monitored one).
            loss_model: the monitored link's ``loss_model`` (validated
                through :func:`loss_profile` up front, failing loudly on
                unsupported models).
            loss_seed: base seed for the per-window binomial loss draws;
                derive it with ``stable_seed`` so sharded runs replay.
        """
        profile = loss_profile(loss_model)
        self._bindings.append(
            _MonitorBinding(self, monitor, flows, legs, profile, loss_seed))


class _MonitorBinding:
    """Routes window-close callbacks to bulk counter updates."""

    def __init__(self, traffic: FluidTraffic, monitor: Any,
                 flows: list[FluidFlow], legs: tuple[float, ...],
                 profile: _LossProfile, loss_seed: int) -> None:
        self.traffic = traffic
        self.monitor = monitor
        self.profile = profile
        self.loss_seed = loss_seed
        # Tier membership (dedicated vs tree) is decided per window from
        # the monitor's *current* dedicated strategy, not frozen at bind
        # time: entry churn (FancyLinkMonitor.update_entries) legitimately
        # moves entries between tiers mid-run, and each flow's cursor
        # simply continues from wherever its last counted window ended.
        self._bound = [_BoundFlow(flow, legs) for flow in flows]
        if self._bound and monitor.dedicated_sender is not None:
            monitor.dedicated_sender.window_taps.append(self._dedicated_window)
        if self._bound and monitor.tree_sender is not None:
            monitor.tree_sender.window_taps.append(self._tree_window)

    # -- window accounting -------------------------------------------------

    def _window_counts(self, bound: _BoundFlow, t0: float, t1: float,
                       tier: str, session_id: int) -> tuple[int, int]:
        """(sent, lost) for one flow in the monitor window ``[t0, t1)``.

        The cursor advances through the window's loss segments in order,
        so each elementary interval's count gets its own binomial draw —
        "seeded binomial loss draws per segment".
        """
        cursor = bound.cursor
        # Emissions arriving before the window opened were never counted
        # (counting pauses between sessions, §4.1); skip them, still
        # consuming their jitter draws.
        cursor.advance(t0)
        segments = self.profile.segments(bound.flow.entry, t0, t1)
        sent = 0
        lost = 0
        rng: random.Random | None = None
        cut = t0
        for a, b, p in segments:
            if a > cut:
                sent += cursor.advance(a)
            n = cursor.advance(min(b, t1))
            sent += n
            if n and p > 0.0:
                if p >= 1.0:
                    lost += n
                else:
                    if rng is None:
                        rng = random.Random(stable_seed(
                            self.loss_seed, "fluid-loss", tier,
                            bound.flow.entry, bound.flow.flow_id,
                            session_id))
                    lost += binomial(rng, n, p)
            cut = b
        if cut < t1:
            sent += cursor.advance(t1)
        return sent, lost

    # -- taps --------------------------------------------------------------

    def _dedicated_window(self, t0: float, t1: float, session_id: int) -> None:
        monitor = self.monitor
        sender = monitor.dedicated_strategy
        receiver = monitor.dedicated_receiver.strategy
        for bound in self._bound:
            entry = bound.flow.entry
            if not sender.owns(entry):
                continue
            if monitor.entry_is_flagged(entry):
                # Flagged entries return to the discrete plane: the
                # rerouting application owns their traffic from here on.
                continue
            sent, lost = self._window_counts(bound, t0, t1, "dedicated",
                                             session_id)
            if not sent:
                continue
            idx = sender.absorb(entry, sent)
            receiver.absorb(idx, sent - lost)
            self.traffic.absorbed += sent
            self.traffic.lost += lost

    def _tree_window(self, t0: float, t1: float, session_id: int) -> None:
        monitor = self.monitor
        strategy = monitor.tree_strategy
        receiver = monitor.tree_receiver.strategy
        dedicated = monitor.dedicated_strategy
        for bound in self._bound:
            entry = bound.flow.entry
            if dedicated is not None and dedicated.owns(entry):
                continue
            if monitor.entry_is_flagged(entry):
                continue
            sent, lost = self._window_counts(bound, t0, t1, "tree",
                                             session_id)
            if not sent:
                continue
            tag = strategy.tag_for_entry(entry)
            if tag is None:
                continue  # staged mode, off-frontier: uncounted by design
            strategy.absorb(tag, sent)
            receiver.absorb(tag, sent - lost)
            self.traffic.absorbed += sent
            self.traffic.lost += lost
