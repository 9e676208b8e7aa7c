"""Benchmark: simulator fast-path speedup tracking.

Measures, in process:

* engine event throughput (bare schedule + dispatch),
* the packet-path microbench — a CBR UDP source through one link with a
  1% gray failure — under the reference dataplane and under the fast
  configuration (fused links + burst coalescing + trains),
* the quick fig9a smoke run under the fast configuration,

asserts the in-process fast/reference packet-path ratio stays >= 2x, and
writes two artifacts next to this file:

* ``results/simulator_speedup.txt`` — human-readable summary;
* ``results/BENCH_simulator.json`` — machine-readable before/after
  record.  "before" is the pre-overhaul baseline measured at the parent
  commit of the fast-path overhaul with this same harness (methodology in
  ``docs/PERFORMANCE.md``); "after" is re-measured live on every run so
  the perf trajectory stays visible across future changes.  CI uploads
  the JSON and gates on the engine throughput (see
  ``test_engine_throughput_regression_gate``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.simulator import fastpath
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure
from repro.simulator.link import Link
from repro.simulator.packet import Packet
from repro.simulator.udp import UdpSource

#: Pre-overhaul baseline: parent commit of the fast-path overhaul,
#: measured with the functions below (best of 3) on the same machine
#: class as the "after" numbers first committed with this file.
BASELINE = {
    "engine_events_per_s": 527_000,
    "packet_path_pps": 183_500,
    "fig9a_quick_wall_s": 13.06,
}


def _engine_events_per_s(n_events: int = 20_000, rounds: int = 3) -> float:
    """Bare engine schedule+dispatch throughput (events per wall-second)."""
    best = None
    for _ in range(rounds):
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1

        t0 = time.perf_counter()
        for i in range(n_events):
            sim.schedule(i * 1e-6, tick)
        sim.run()
        wall = time.perf_counter() - t0
        assert counter[0] == n_events
        best = wall if best is None else min(best, wall)
    return n_events / best


class _Sink:
    """Counts deliveries."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet: Packet, in_port: int) -> None:
        self.received += 1


def _packet_path_pps(fast: bool, sim_seconds: float = 3.0, rounds: int = 2):
    """UDP CBR through one access link with a 1% gray failure.

    Reference: one timer event and one delivery event per packet.  Fast:
    ``train=8`` batches the timer and burst coalescing batches the
    deliveries.  Returns
    ``(packets_per_wall_second, sent, received, drops, events)``.
    """
    best = None
    for _ in range(rounds):
        with fastpath.scoped(fused_links=fast):
            sim = Simulator()
            sink = _Sink()
            loss = EntryLossFailure(["e0"], 0.01, start_time=0.0, seed=7)
            link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.001,
                        loss_model=loss, name="bench")
            src = UdpSource(sim, link.send, "e0", 1, rate_bps=400e6,
                            packet_size=1500, jitter=0.05, seed=3,
                            train=8 if fast else 1)
            t0 = time.perf_counter()
            src.start()
            sim.run(until=sim_seconds)
            src.stop()
            sim.run()  # drain in-flight deliveries
            wall = time.perf_counter() - t0
        # Conservation: every sent packet is either delivered or dropped.
        assert sink.received == src.packets_sent - loss.drops
        sample = (src.packets_sent / wall, src.packets_sent, sink.received,
                  loss.drops, sim.events_processed)
        best = sample if best is None or sample[0] > best[0] else best
    return best


def _fig9a_quick_wall_s(rounds: int = 2) -> float:
    """Wall time of the quick fig9a smoke sweep under the fast config."""
    from repro.experiments import fig9

    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        with fastpath.scoped(fused_links=True):
            result = fig9.run_single(quick=True, seed=0)
        wall = time.perf_counter() - t0
        assert result["tpr"], "smoke sweep produced no cells"
        best = wall if best is None else min(best, wall)
    return best


def test_engine_throughput_regression_gate():
    """CI regression gate: engine event throughput must stay within 30%
    of the committed ``BENCH_simulator.json`` record.

    Skipped unless ``BENCH_BASELINE`` points at the committed JSON (the
    CI benchmarks job sets it).  Defined before the writer test so it
    always reads the checked-in record, not a freshly generated one.
    """
    baseline_path = os.environ.get("BENCH_BASELINE")
    if not baseline_path:
        pytest.skip("BENCH_BASELINE not set (CI-only gate)")
    committed = json.loads(pathlib.Path(baseline_path).read_text())
    floor = 0.7 * committed["after"]["engine_events_per_s"]
    live = _engine_events_per_s()
    assert live >= floor, (
        f"engine event throughput regressed >30%: {live:,.0f} ev/s live "
        f"vs {committed['after']['engine_events_per_s']:,.0f} ev/s committed"
    )


def test_simulator_speedup(save_artifact, results_dir):
    engine_eps = _engine_events_per_s()
    ref_pps, ref_sent, ref_recv, ref_drops, ref_events = _packet_path_pps(False)
    fast_pps, fast_sent, fast_recv, fast_drops, fast_events = _packet_path_pps(True)
    fig9a_wall = _fig9a_quick_wall_s()

    in_process_ratio = fast_pps / ref_pps
    record = {
        "schema": "bench-simulator/1",
        "before": dict(
            BASELINE,
            source="parent commit of the fast-path overhaul, same harness",
        ),
        "after": {
            "engine_events_per_s": round(engine_eps),
            "packet_path_pps": round(fast_pps),
            "packet_path_reference_pps": round(ref_pps),
            "fig9a_quick_wall_s": round(fig9a_wall, 2),
            "packet_path_events": {"reference": ref_events, "fast": fast_events},
        },
        "speedup": {
            "engine": round(engine_eps / BASELINE["engine_events_per_s"], 2),
            "packet_path_vs_before": round(
                fast_pps / BASELINE["packet_path_pps"], 2),
            "packet_path_fast_vs_reference": round(in_process_ratio, 2),
            "fig9a_quick": round(BASELINE["fig9a_quick_wall_s"] / fig9a_wall, 2),
        },
    }
    (results_dir / "BENCH_simulator.json").write_text(
        json.dumps(record, indent=2) + "\n")

    lines = [
        "simulator fast-path speedup (before = pre-overhaul baseline)",
        "",
        "  engine events/s       : "
        f"{BASELINE['engine_events_per_s']:>9,} -> {engine_eps:>9,.0f}   "
        f"({record['speedup']['engine']:.2f}x)",
        "  packet path pkts/s    : "
        f"{BASELINE['packet_path_pps']:>9,} -> {fast_pps:>9,.0f}   "
        f"({record['speedup']['packet_path_vs_before']:.2f}x)",
        "  fig9a quick sweep     : "
        f"{BASELINE['fig9a_quick_wall_s']:>8.2f}s -> {fig9a_wall:>8.2f}s   "
        f"({record['speedup']['fig9a_quick']:.2f}x)",
        "",
        f"  packet path, same tree: reference {ref_pps:,.0f} pkts/s "
        f"({ref_events:,} events) vs fast {fast_pps:,.0f} pkts/s "
        f"({fast_events:,} events) = {in_process_ratio:.2f}x",
        f"  conservation: ref {ref_sent}={ref_recv}+{ref_drops}, "
        f"fast {fast_sent}={fast_recv}+{fast_drops} (sent = delivered + dropped)",
    ]
    save_artifact("simulator_speedup", "\n".join(lines))

    # The fast dataplane must hold a >= 2x packet-path advantage over the
    # reference dataplane measured in the same process (noise-robust: both
    # sides see the same machine at the same moment).
    assert in_process_ratio >= 2.0, (
        f"fast/reference packet-path ratio fell to {in_process_ratio:.2f}x")
    # And it must actually batch events, not just run faster.
    assert fast_events < ref_events / 3
