"""The FANcY counting protocol and its finite state machines (§4.1).

FANcY uses a stop-and-wait session protocol between an upstream (sender
FSM) and a downstream (receiver FSM) switch:

* sender: ``Idle → (send Start) WaitACK → (recv StartACK) Counting →
  (timer) send Stop, WaitReport → (recv Report) Check → next session``;
* receiver: ``Idle → (recv Start, reset, send StartACK) SendACK → (first
  tagged packet) Counting → (recv Stop) WaitToSend → (T_wait) send Report
  → Idle``.

Start and Stop are retransmitted after ``T_rtx`` when the expected
response does not arrive; after ``max_attempts`` (X = 5 in the paper) the
sender reports a **link failure**.  The receiver caches its last Report so
a retransmitted Stop (lost Report) can be answered.

The FSMs are generic over a *counter strategy* so the same protocol
machinery drives both dedicated counters and the hash-based tree — which
run as separate FSM instances per port with their own session durations
(counters exchanged every 50 ms, tree zooming every 200 ms in the paper's
evaluation).

Telemetry: pass a :class:`repro.telemetry.Telemetry` session and the
FSMs report every transition, session open and end, control message and
rejection through :meth:`~repro.telemetry.Telemetry.emit`; the fact
table (:mod:`repro.telemetry.facts`) turns them into timeline events,
trace spans and the control-overhead counters of §5.3 (see
:func:`repro.experiments.metrics.control_overhead`).
"""

from __future__ import annotations

import enum
import hashlib

from collections.abc import Callable
from typing import Any, Protocol

from ..simulator.engine import EventHandle, Simulator
from ..simulator.packet import MIN_FRAME_BYTES, Packet, PacketKind

__all__ = [
    "SenderState",
    "ReceiverState",
    "SENDER_FSM_SPEC",
    "RECEIVER_FSM_SPEC",
    "SenderStrategy",
    "ReceiverStrategy",
    "FancySender",
    "FancyReceiver",
    "payload_checksum",
    "verify_payload",
    "DEFAULT_RTX_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_TWAIT",
    "DEFAULT_BACKOFF_CAP",
]

#: Retransmission timeout for Start/Stop control messages.  Must exceed
#: the link RTT; 50 ms covers the paper's 10 ms-delay links comfortably.
DEFAULT_RTX_TIMEOUT = 0.050

#: §4.1: the sender reports a link failure after X = 5 unanswered attempts.
DEFAULT_MAX_ATTEMPTS = 5

#: Receiver-side grace period after Stop for late/reordered tagged packets.
DEFAULT_TWAIT = 0.001

#: Cap factor for the sender's exponential retransmission backoff: the
#: n-th retransmission waits ``min(2**(n-1), cap) * rtx_timeout``.  With
#: X = 5 attempts and cap 8 the worst-case declaration latency stays
#: bounded (0.05 + 0.1 + 0.2 + 0.4 + 0.4 = 1.15 s at the defaults — the
#: cap bites on the fifth wait, 2**4 = 16 > 8) while
#: a congested or flapping control channel is not hammered at a fixed
#: 20 Hz.
DEFAULT_BACKOFF_CAP = 8


def _canon(value: Any) -> str:
    """Canonical text form of a payload value for checksum hashing.

    Handles the container shapes snapshots actually use — dicts (possibly
    with tuple keys, e.g. tree hash paths), lists/tuples, ``array``
    instances — recursively and deterministically; scalars via ``repr``.
    """
    if isinstance(value, dict):
        inner = ",".join(
            f"{k}:{v}"
            for k, v in sorted((_canon(k), _canon(v)) for k, v in value.items())
        )
        return "{" + inner + "}"
    if isinstance(value, str | bytes | int | float | bool) or value is None:
        return repr(value)
    try:
        return "[" + ",".join(_canon(v) for v in value) + "]"
    except TypeError:
        return repr(value)


def payload_checksum(payload: dict[str, Any]) -> int:
    """Deterministic 32-bit checksum of a control payload.

    Stands in for the CRC a hardware implementation would carry in the
    FANcY header (§5.3): §4.1 assumes a hostile channel, and Table 1
    lists memory/CRC corruption as a gray-failure symptom, so control
    messages must be able to *detect* in-flight payload corruption rather
    than act on garbage.  The ``"csum"`` key itself is excluded, so the
    checksum can be stored in the payload it covers.
    """
    data = _canon({k: v for k, v in payload.items() if k != "csum"})
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:4], "big")


def verify_payload(payload: dict[str, Any]) -> bool:
    """Check a payload against its embedded checksum.

    Payloads without a ``"csum"`` key verify trivially — locally crafted
    messages (tests, in-process harnesses) are trusted; only wire-borne
    payloads carry checksums.
    """
    csum = payload.get("csum")
    if csum is None:
        return True
    return csum == payload_checksum(payload)


class SenderState(enum.Enum):
    IDLE = "idle"
    WAIT_ACK = "wait_ack"
    COUNTING = "counting"
    WAIT_REPORT = "wait_report"
    FAILED = "failed"


class ReceiverState(enum.Enum):
    IDLE = "idle"
    SEND_ACK = "send_ack"       # ACK sent, waiting for the first tagged packet
    COUNTING = "counting"
    WAIT_TO_SEND = "wait_to_send"


# --------------------------------------------------------------------------
# Declared transition tables, statically checked against the classes below
# --------------------------------------------------------------------------
#
# ``fancy-repro lint --deep`` extracts the transition graph each FSM
# class actually implements (abstract interpretation over state guards
# and ``_set_state`` calls, see ``repro.lint.fsm``) and proves it equals
# the table declared here — FCY012 fires on drift in either direction,
# on unreachable states, on non-lifecycle exits from terminal states,
# and on ``timeout`` edges whose retry path does not run through the
# capped ``backoff_helper``.  The tables must be *literals* (no enum
# references): the checker reads them with ``ast.literal_eval`` without
# importing the module.
#
# Transition rows are ``(from, to, label, kind)``; ``"*"`` means "from
# any state"; kinds are ``event`` (control message / packet), ``timer``
# (simulated-clock expiry), ``timeout`` (retransmission attempts
# exhausted — declares a link failure), ``lifecycle`` (teardown or
# simulated reboot, outside the protocol proper).

SENDER_FSM_SPEC: dict[str, Any] = {
    "role": "sender",
    "fsm_class": "FancySender",
    "state_enum": "SenderState",
    "initial": "IDLE",
    "terminal": ("FAILED",),
    "lifecycle_methods": ("stop", "restart"),
    "backoff_helper": "_arm_timer",
    "transitions": (
        ("IDLE", "WAIT_ACK", "open_session", "event"),
        ("WAIT_ACK", "COUNTING", "start_ack", "event"),
        ("COUNTING", "WAIT_REPORT", "session_timer", "timer"),
        ("WAIT_REPORT", "WAIT_ACK", "report", "event"),
        ("WAIT_ACK", "FAILED", "rtx_exhausted", "timeout"),
        ("WAIT_REPORT", "FAILED", "rtx_exhausted", "timeout"),
        ("WAIT_ACK", "IDLE", "exhaustion_absorbed", "timeout"),
        ("WAIT_REPORT", "IDLE", "exhaustion_absorbed", "timeout"),
        ("*", "IDLE", "teardown", "lifecycle"),
    ),
}

RECEIVER_FSM_SPEC: dict[str, Any] = {
    "role": "receiver",
    "fsm_class": "FancyReceiver",
    "state_enum": "ReceiverState",
    "initial": "IDLE",
    "terminal": (),
    "lifecycle_methods": ("stop", "restart"),
    "backoff_helper": None,
    "transitions": (
        ("*", "SEND_ACK", "start_new_session", "event"),
        ("SEND_ACK", "COUNTING", "first_tagged_packet", "event"),
        ("SEND_ACK", "WAIT_TO_SEND", "stop_msg", "event"),
        ("COUNTING", "WAIT_TO_SEND", "stop_msg", "event"),
        ("WAIT_TO_SEND", "IDLE", "twait_timer", "timer"),
        ("*", "IDLE", "teardown", "lifecycle"),
    ),
}


class SenderStrategy(Protocol):
    """Counter logic plugged into the sender FSM."""

    def begin_session(self, session_id: int) -> None: ...
    def process_packet(self, packet: Packet, session_id: int) -> bool: ...
    def end_session(self, remote_snapshot: Any, session_id: int) -> Any: ...


class ReceiverStrategy(Protocol):
    """Counter logic plugged into the receiver FSM."""

    def begin_session(self, session_id: int) -> None: ...
    def process_packet(self, packet: Packet, session_id: int) -> bool: ...
    def snapshot(self) -> Any: ...


#: Sends a control message toward the peer: (kind, payload, size_bytes).
ControlSender = Callable[[PacketKind, "dict[str, Any]", int], None]


class FancySender:
    """Sender (upstream) FSM for one counter group on one port."""

    def __init__(
        self,
        sim: Simulator,
        fsm_id: str,
        send_control: ControlSender,
        strategy: SenderStrategy,
        session_duration: float,
        rtx_timeout: float = DEFAULT_RTX_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        on_link_failure: Callable[[str, float], None] | None = None,
        report_size_bytes: int = MIN_FRAME_BYTES,
        telemetry: Any | None = None,
        backoff_cap: int = DEFAULT_BACKOFF_CAP,
        accept_stale_responses: bool = False,
    ) -> None:
        if session_duration <= 0:
            raise ValueError("session duration must be positive")
        if backoff_cap < 1:
            raise ValueError("backoff_cap must be >= 1")
        self.sim = sim
        self.fsm_id = fsm_id
        self.send_control = send_control
        self.strategy = strategy
        self.session_duration = session_duration
        self.rtx_timeout = rtx_timeout
        self.max_attempts = max_attempts
        self.on_link_failure = on_link_failure
        self.report_size_bytes = report_size_bytes
        self.telemetry = telemetry
        self.backoff_cap = backoff_cap
        #: **Chaos-regression fixture only** — disables the stale-session
        #: check in :meth:`on_control` so reordered Reports from earlier
        #: sessions are acted upon.  Exists to prove the soak harness
        #: catches the resulting invariant violations
        #: (``fancy-repro chaos --regression stale-session``); never set
        #: this in real experiments.
        self.accept_stale_responses = accept_stale_responses

        self.state = SenderState.IDLE
        self.session_id = 0
        self.attempts = 0
        self.sessions_completed = 0
        #: Counting-window observers: ``tap(t_start, t_end, session_id)``
        #: called when the Counting state closes cleanly, *before* the
        #: Stop goes out.  This is the protocol-exchange boundary the
        #: fluid traffic model (repro.simulator.fluid) feeds counters at:
        #: anything a tap adds to the sender/receiver strategies lands
        #: after this session's ``begin_session`` reset and before the
        #: receiver's Report snapshot (taken T_wait after the Stop).
        self.window_taps: list[Callable[[float, float, int], None]] = []
        #: Control-channel impairment observers: ``tap(signal, now)`` with
        #: signal one of ``"rtx"`` (a retransmission fired), ``"saturated"``
        #: (the backoff factor hit ``backoff_cap``), ``"corrupt"`` (a
        #: checksum-failed response triggered a re-request), ``"absorbed"``
        #: (an exhaustion was absorbed instead of declared) and
        #: ``"recovered"`` (a verified Report closed the session).  This is
        #: the signal stream the degradation ladder
        #: (:mod:`repro.service.ladder`) steps on.
        self.impairment_taps: list[Callable[[str, float], None]] = []
        #: Optional exhaustion-absorption hook: consulted when the attempt
        #: budget runs out.  Returning True reopens a fresh session instead
        #: of declaring the link dead (degraded-mode operation); ``None``
        #: or False keeps the §4.1 behaviour.
        self.on_exhaustion: Callable[[str, float], bool] | None = None
        #: Last *verified* Report snapshot and its arrival time — the
        #: state a supervisor reuses while the control channel is impaired
        #: (the ladder's USE_LAST_STATE rung).
        self.last_verified_snapshot: Any = None
        self.last_verified_at: float | None = None
        #: Exhaustions absorbed via :attr:`on_exhaustion` (vs declared).
        self.absorbed_exhaustions = 0
        self._counting_since: float | None = None
        #: Hardening counters (always maintained; mirrored to telemetry
        #: when attached).  ``rejected_corrupt`` counts checksum failures,
        #: ``rejected_stale`` counts responses from earlier sessions.
        self.rejected_corrupt = 0
        self.rejected_stale = 0
        #: Switch restarts survived (observability for the soak harness).
        self.restarts = 0
        self._timer: EventHandle | None = None

    def _set_state(self, new_state: SenderState) -> None:
        old_state = self.state
        self.state = new_state
        if old_state is not new_state:
            self._fact("fsm_transition", src=old_state.value,
                       dst=new_state.value)

    def _fact(self, fact: str, **attrs: Any) -> None:
        """Report one fact of this FSM's current session to telemetry."""
        if self.telemetry is not None:
            self.telemetry.emit(fact, self.sim.now, self.fsm_id,
                                role="sender", session=self.session_id,
                                **attrs)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Open the first counting session."""
        if self.state is not SenderState.IDLE:
            raise RuntimeError(f"sender {self.fsm_id} already started")
        self._open_session()

    def _open_session(self) -> None:
        self.session_id += 1
        self.strategy.begin_session(self.session_id)
        self._set_state(SenderState.WAIT_ACK)
        self._fact("session_open")
        self.attempts = 0
        self._send_start()

    def _send_start(self) -> None:
        self.attempts += 1
        if self.attempts > self.max_attempts:
            if self._may_absorb_exhaustion():
                self._absorb_exhaustion()
            else:
                self._declare_link_failure()
            return
        if self.attempts > 1:
            self._signal("saturated"
                         if 2 ** (self.attempts - 1) >= self.backoff_cap
                         else "rtx")
        self._emit(PacketKind.FANCY_START, {})
        self._arm_timer(self._send_start)

    def _send_stop(self) -> None:
        self.attempts += 1
        if self.attempts > self.max_attempts:
            if self._may_absorb_exhaustion():
                self._absorb_exhaustion()
            else:
                self._declare_link_failure()
            return
        if self.attempts > 1:
            self._signal("saturated"
                         if 2 ** (self.attempts - 1) >= self.backoff_cap
                         else "rtx")
        self._emit(PacketKind.FANCY_STOP, {})
        self._arm_timer(self._send_stop)

    def _signal(self, signal: str) -> None:
        """Notify the impairment taps (degradation-ladder hooks)."""
        for tap in self.impairment_taps:
            tap(signal, self.sim.now)

    def _may_absorb_exhaustion(self) -> bool:
        """Whether the supervisor wants this exhaustion absorbed.

        Pure predicate — the actual reopen lives in
        :meth:`_absorb_exhaustion` so the FSM extraction sees the declare
        and absorb arms under the same refined state context.
        """
        if self.on_exhaustion is None:
            return False
        return self.on_exhaustion(self.fsm_id, self.sim.now)

    def _absorb_exhaustion(self) -> None:
        """Reopen a fresh session instead of declaring the link dead.

        Degraded-mode operation (docs/ROBUSTNESS.md): the supervisor has
        judged the link recently-verified enough that one exhausted
        control exchange is better explained by control-channel loss than
        by link death.  The aborted window's counts are discarded exactly
        as in :meth:`_declare_link_failure`; unlike :meth:`restart` this
        is not a reboot, so ``restarts`` stays untouched.
        """
        self.absorbed_exhaustions += 1
        self._cancel_timer()
        self._fact("session_end", reason="abort")
        self._counting_since = None
        self.attempts = 0
        self._fact("exhaustion_absorbed")
        self._signal("absorbed")
        self._set_state(SenderState.IDLE)
        self._open_session()

    def _emit(self, kind: PacketKind, extra: dict[str, Any],
              size: int = MIN_FRAME_BYTES) -> None:
        payload: dict[str, Any] = {"fsm": self.fsm_id, "session": self.session_id}
        payload.update(extra)
        payload["csum"] = payload_checksum(payload)
        self._fact("control_sent", kind=kind.value, bytes=size,
                   retransmit=self.attempts > 1)
        self.send_control(kind, payload, size)

    def _arm_timer(self, callback: Callable[[], None]) -> None:
        """(Re)arm the retransmission timer with capped exponential backoff.

        The first transmission of a phase waits one ``rtx_timeout``; each
        retransmission doubles the wait up to ``backoff_cap`` times the
        base.  A lossy-but-alive control channel recovers on the first
        short timeouts, while a dead or flapping one is not hammered at a
        fixed rate — and the link-failure declaration latency stays
        bounded because attempts are capped at ``max_attempts``.
        """
        self._cancel_timer()
        factor = min(2 ** max(self.attempts - 1, 0), self.backoff_cap)
        self._timer = self.sim.schedule(self.rtx_timeout * factor, callback)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _declare_link_failure(self) -> None:
        self._cancel_timer()
        self._fact("session_end", reason="abort")
        # An aborted window never closes cleanly: taps are not invoked
        # (mirroring the discrete world, where counts accumulated in a
        # failed session are never compared).
        self._counting_since = None
        self._set_state(SenderState.FAILED)
        self._fact("link_failure")
        if self.on_link_failure is not None:
            self.on_link_failure(self.fsm_id, self.sim.now)

    def stop(self) -> None:
        """Tear the FSM down (experiment teardown)."""
        self._cancel_timer()
        self._fact("session_end", reason="stop")
        self._counting_since = None
        self._set_state(SenderState.IDLE)

    def restart(self) -> None:
        """Simulate a switch reboot: wipe transient FSM state, reopen.

        Pending timers and the attempt counter are lost, as they would be
        on a real restart.  The session id is modelled as persisted (a
        restart epoch in NVRAM / incremented boot counter), so the new
        session is strictly greater than anything sent before the crash —
        this is what keeps stale-session rejection sound across restarts
        and the session-monotonicity invariant checkable.
        """
        self._cancel_timer()
        self._fact("session_end", reason="restart")
        self.restarts += 1
        self.attempts = 0
        self._counting_since = None
        self._set_state(SenderState.IDLE)
        self._open_session()

    # -- events ---------------------------------------------------------------

    def on_control(self, kind: PacketKind, payload: dict[str, Any]) -> None:
        """Handle a control message addressed to this FSM.

        Hardening order matters: corruption is checked *first* (a flipped
        session id must count as corruption, not as a stale message), then
        staleness, then the state machine proper.  A corrupted response is
        re-requested immediately — the information was on the wire and
        lost to bit-rot, so waiting out the full RTX timer only adds
        latency — but re-requests go through ``_send_start``/``_send_stop``
        and therefore consume attempts: persistent corruption exhausts
        ``max_attempts`` and is declared a link failure, never an infinite
        re-request loop.
        """
        if not verify_payload(payload):
            self.rejected_corrupt += 1
            self._fact("rejected", reason="corrupt")
            self._signal("corrupt")
            if self.state is SenderState.WAIT_ACK:
                self._send_start()
            elif self.state is SenderState.WAIT_REPORT:
                self._send_stop()
            return
        if payload.get("session") != self.session_id:
            # Stale response from an earlier session (e.g. a reordered
            # Report displaced past the session that produced it).
            self.rejected_stale += 1
            self._fact("rejected", reason="stale")
            if not self.accept_stale_responses:
                return
        if kind is PacketKind.FANCY_START_ACK and self.state is SenderState.WAIT_ACK:
            self._cancel_timer()
            self._set_state(SenderState.COUNTING)
            self.attempts = 0
            self._counting_since = self.sim.now
            self._timer = self.sim.schedule(self.session_duration, self._close_session)
        elif kind is PacketKind.FANCY_REPORT and self.state is SenderState.WAIT_REPORT:
            self._cancel_timer()
            self.last_verified_snapshot = payload.get("snapshot")
            self.last_verified_at = self.sim.now
            self.strategy.end_session(payload.get("snapshot"), self.session_id)
            self.sessions_completed += 1
            self._fact("session_end", reason="report")
            # "recovered" fires between the verified-Report bookkeeping and
            # the next session's open: supervision hooks (ladder reset,
            # deferred entry swaps) run against a closed, verified window.
            self._signal("recovered")
            self._open_session()

    def _close_session(self) -> None:
        self._timer = None
        if self.state is not SenderState.COUNTING:
            return
        self._set_state(SenderState.WAIT_REPORT)
        if self.window_taps:
            start = (self._counting_since if self._counting_since is not None
                     else self.sim.now)
            for tap in self.window_taps:
                tap(start, self.sim.now, self.session_id)
        self._counting_since = None
        self.attempts = 0
        self._send_stop()

    def process_packet(self, packet: Packet) -> bool:
        """Offer an egress data packet to the counter strategy.

        Only counts while in the Counting state — counting is stopped while
        control messages are exchanged (§4.1), which is FANcY's accepted
        accuracy trade-off.
        """
        if self.state is not SenderState.COUNTING:
            return False
        return self.strategy.process_packet(packet, self.session_id)


class FancyReceiver:
    """Receiver (downstream) FSM for one counter group on one port."""

    def __init__(
        self,
        sim: Simulator,
        fsm_id: str,
        send_control: ControlSender,
        strategy: ReceiverStrategy,
        twait: float = DEFAULT_TWAIT,
        report_size_bytes: int = MIN_FRAME_BYTES,
        telemetry: Any | None = None,
    ) -> None:
        self.sim = sim
        self.fsm_id = fsm_id
        self.send_control = send_control
        self.strategy = strategy
        self.twait = twait
        self.report_size_bytes = report_size_bytes
        self.telemetry = telemetry

        self.state = ReceiverState.IDLE
        self.session_id = 0
        self._last_report: dict[str, Any] | None = None
        #: Hardening counters, mirroring :class:`FancySender`.
        self.rejected_corrupt = 0
        self.rejected_stale = 0
        self.restarts = 0
        self._timer: EventHandle | None = None

    def _set_state(self, new_state: ReceiverState) -> None:
        old_state = self.state
        self.state = new_state
        if old_state is not new_state:
            self._fact("fsm_transition", src=old_state.value,
                       dst=new_state.value)

    def _fact(self, fact: str, **attrs: Any) -> None:
        """Report one fact of this FSM's current session to telemetry."""
        if self.telemetry is not None:
            self.telemetry.emit(fact, self.sim.now, self.fsm_id,
                                role="receiver", session=self.session_id,
                                **attrs)

    def on_control(self, kind: PacketKind, payload: dict[str, Any]) -> None:
        if not verify_payload(payload):
            # Corrupted Start/Stop: drop silently — the sender's RTX timer
            # retransmits, bounded by its max_attempts.
            self.rejected_corrupt += 1
            self._fact("rejected", reason="corrupt")
            return
        session = payload.get("session", -1)
        if session < self.session_id:
            # Stale duplicate from an earlier session (reordered or
            # duplicated Start/Stop): never regress the session id.
            self.rejected_stale += 1
            self._fact("rejected", reason="stale")
            return
        if kind is PacketKind.FANCY_START:
            if session > self.session_id:
                # New session: reset counters and acknowledge.
                self.session_id = session
                self.strategy.begin_session(session)
                self._set_state(ReceiverState.SEND_ACK)
                self._send(PacketKind.FANCY_START_ACK)
            elif session == self.session_id and self.state in (
                ReceiverState.SEND_ACK,
                ReceiverState.COUNTING,
            ):
                # Retransmitted Start: our ACK was lost.  Counters were
                # already reset for this session; just re-acknowledge.
                # (If we are already Counting the sender cannot be — it
                # only counts after receiving the ACK — so no packets have
                # been tagged yet and re-ACKing is safe.)
                self._send(PacketKind.FANCY_START_ACK)
        elif kind is PacketKind.FANCY_STOP:
            if session == self.session_id and self.state in (
                ReceiverState.SEND_ACK,
                ReceiverState.COUNTING,
            ):
                # Keep counting for T_wait to catch delayed tagged packets.
                self._set_state(ReceiverState.WAIT_TO_SEND)
                self._timer = self.sim.schedule(self.twait, self._send_report)
            elif (session == self.session_id
                    and self.state is ReceiverState.IDLE
                    and self._last_report is not None):
                # Retransmitted Stop: our Report was lost — resend it.
                self._send(PacketKind.FANCY_REPORT, self._last_report,
                           self.report_size_bytes)

    def _send_report(self) -> None:
        self._timer = None
        if self.state is not ReceiverState.WAIT_TO_SEND:
            return
        self._last_report = {"snapshot": self.strategy.snapshot()}
        self._set_state(ReceiverState.IDLE)
        self._send(PacketKind.FANCY_REPORT, self._last_report, self.report_size_bytes)

    def _send(self, kind: PacketKind, extra: dict[str, Any] | None = None,
              size: int = MIN_FRAME_BYTES) -> None:
        payload: dict[str, Any] = {"fsm": self.fsm_id, "session": self.session_id}
        if extra:
            payload.update(extra)
        payload["csum"] = payload_checksum(payload)
        self._fact("control_sent", kind=kind.value, bytes=size)
        self.send_control(kind, payload, size)

    def process_packet(self, packet: Packet) -> bool:
        """Offer an ingress data packet to the counter strategy."""
        if self.state is ReceiverState.SEND_ACK:
            counted = self.strategy.process_packet(packet, self.session_id)
            if counted:
                # First tagged packet of the session (Figure 3).
                self._set_state(ReceiverState.COUNTING)
            return counted
        if self.state in (ReceiverState.COUNTING, ReceiverState.WAIT_TO_SEND):
            return self.strategy.process_packet(packet, self.session_id)
        return False

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._set_state(ReceiverState.IDLE)

    def restart(self) -> None:
        """Simulate a switch reboot: lose *all* receiver state.

        Unlike the sender (which persists a session epoch), the receiver
        is genuinely stateless across restarts: session id, cached Report
        and pending T_wait timer are gone, and counters are zeroed on the
        next ``begin_session``.  A Stop whose session predates the crash
        therefore goes unanswered — by design the sender exhausts its
        attempts and reports a **link failure**, which is exactly how
        FANcY surfaces downstream state loss (§4.1's safety net).
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.restarts += 1
        self.session_id = 0
        self._last_report = None
        self._set_state(ReceiverState.IDLE)
