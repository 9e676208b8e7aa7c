"""Determinism-equivalence tests for the simulator fast paths.

The optimization contract (see ``docs/PERFORMANCE.md``) is that every
fast-path mode — fused link events, packet pooling, flat-array tree
counters, UDP packet trains — consumes the same RNG draws in the same
order as the reference dataplane and therefore produces *identical*
experiment outputs.  These tests enforce the contract end-to-end:

* fig7-style (dedicated counters) and fig9-style (hash-tree zooming)
  scenarios via the canonical :func:`repro.experiments.runner.
  run_entry_failure`, comparing whole scored ``RunResult`` dicts;
* a drained two-switch FANcY run comparing ``LinkStats``, per-entry
  counters, zooming state, and the full failure-report log;
* UDP packet trains: bit-identical stream metadata and drop sequences,
  and identical detection times on a dedicated-counter scenario;
* the flat-array :class:`TreeCounters` against an in-test dict-of-lists
  reference model under randomized operation interleavings.
"""

from __future__ import annotations

import random

import pytest

from repro.core.detector import FancyConfig, FancyLinkMonitor
from repro.core.hashtree import HashTreeParams, TreeCounters
from repro.experiments.runner import ExperimentSpec, run_entry_failure
from repro.simulator import fastpath
from repro.simulator.apps import FlowGenerator
from repro.simulator.engine import Simulator
from repro.simulator.failures import EntryLossFailure, UniformLossFailure
from repro.simulator.link import Link
from repro.simulator.topology import TwoSwitchTopology
from repro.simulator.udp import UdpSource
from repro.telemetry import Telemetry
from repro.traffic.synthetic import EntrySize

#: The fast-path configurations under test, each compared to "reference".
MODES = {
    "fused": dict(fused_links=True, packet_pool=False),
    "fused+pool": dict(fused_links=True, packet_pool=True),
}

SPECS = {
    # §5.1.1-style: one failed entry on dedicated counters.
    "fig7": ExperimentSpec(
        entry_size=EntrySize(1e6, 20), loss_rate=0.1, n_failed=1,
        n_background=4, mode="dedicated", duration_s=4.0,
        max_pps_per_entry=200, seed=7,
    ),
    # §5.1.2-style: everything on the hash tree, zooming to a leaf.
    "fig9": ExperimentSpec(
        entry_size=EntrySize(1e6, 20), loss_rate=0.5, n_failed=1,
        n_background=6, mode="tree",
        tree_params=HashTreeParams(width=24, depth=3, split=2, pipelined=True),
        duration_s=6.0, max_pps_per_entry=200, seed=11,
    ),
}

_RESULT_CACHE: dict[tuple[str, str], dict] = {}


def _scored(spec_name: str, mode_name: str) -> dict:
    """run_entry_failure under a fast-path config, memoized per module."""
    key = (spec_name, mode_name)
    if key not in _RESULT_CACHE:
        cfg = (dict(fused_links=False, packet_pool=False)
               if mode_name == "reference" else MODES[mode_name])
        with fastpath.scoped(**cfg):
            _RESULT_CACHE[key] = run_entry_failure(SPECS[spec_name]).to_dict()
    return _RESULT_CACHE[key]


@pytest.mark.parametrize("mode_name", sorted(MODES))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
class TestRunnerEquivalence:
    def test_scored_results_identical(self, spec_name, mode_name):
        """Fast-path runs score bit-identically to the reference path."""
        assert _scored(spec_name, mode_name) == _scored(spec_name, "reference")

    def test_detection_happened(self, spec_name, mode_name):
        """Guard against vacuous equivalence: the scenario must detect."""
        result = _scored(spec_name, mode_name)
        assert result["n_detected"] == result["n_failed"] == 1
        assert result["detection_times"]

    def test_telemetry_does_not_change_the_run(self, spec_name, mode_name):
        """A telemetered run scores exactly like the bare reference run.

        The only addition telemetry may make is the telemetry-only
        ``extra["detections"]`` key.
        """
        with fastpath.scoped(**MODES[mode_name]):
            traced = run_entry_failure(SPECS[spec_name],
                                       telemetry=Telemetry()).to_dict()
        assert traced["extra"].pop("detections")
        assert traced == _scored(spec_name, "reference")


# ---------------------------------------------------------------------------
# Drained-scenario equivalence: LinkStats + per-entry counters + reports.
# ---------------------------------------------------------------------------


def _run_fancy_drained(cfg: dict, mode: str) -> dict:
    """A small FANcY run with an explicit drain phase.

    Fused links book ``tx_packets`` at delivery rather than departure, so
    stats comparisons require a quiet wire: generators stop at T and the
    run continues to the middle of a later counting session, when no data
    or control packet is in flight.
    """
    with fastpath.scoped(**cfg):
        sim = Simulator()
        failure = EntryLossFailure(["victim"], 0.3, start_time=0.8, seed=21)
        topo = TwoSwitchTopology(sim, link_delay_s=0.001, loss_model=failure)
        if mode == "dedicated":
            config = FancyConfig(high_priority=["victim", "healthy/0"],
                                 tree_params=None,
                                 dedicated_session_s=0.05, seed=3)
        else:
            config = FancyConfig(high_priority=[],
                                 tree_params=HashTreeParams(width=12, depth=2, split=2),
                                 tree_session_s=0.2, seed=3)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)
        generators = [
            FlowGenerator(sim, topo.source, entry, rate_bps=3e5,
                          flows_per_second=10, seed=i + 1,
                          max_packets_per_flow=40,
                          flow_id_base=(i + 1) * 1_000_000)
            for i, entry in enumerate(["victim", "healthy/0", "healthy/1"])
        ]
        for gen in generators:
            gen.start()
        monitor.start()
        sim.run(until=3.0)
        # Counters mid-experiment (non-trivial values).
        if monitor.dedicated_strategy is not None:
            live_counters = list(monitor.dedicated_strategy.counters)
            tree_snapshot = None
        else:
            live_counters = None
            tree_snapshot = monitor.tree_strategy.counters.snapshot()
        for gen in generators:
            gen.stop()
        # Let in-flight data and the current counting session land, then
        # stop the session timers and drain the event queue completely.
        # An empty queue is a quiet wire by construction, which is exactly
        # what the fused-bookkeeping contract requires for LinkStats
        # comparisons (no hand-tuned "mid-session" instants).
        sim.run(until=3.5)
        monitor.stop()
        sim.run()
        return {
            "live_counters": live_counters,
            "tree_snapshot": tree_snapshot,
            "reports": [(r.kind.name, r.entry, r.hash_path, r.time)
                        for r in monitor.log.reports],
            "ab": topo.link_ab.stats.as_dict(),
            "ba": topo.link_ba.stats.as_dict(),
            "events": None,  # placeholder: event counts legitimately differ
        }


@pytest.mark.parametrize("mode", ["dedicated", "tree"])
@pytest.mark.parametrize("mode_name", sorted(MODES))
class TestDrainedScenarioEquivalence:
    def test_stats_counters_reports_identical(self, mode, mode_name):
        reference = _run_fancy_drained(
            dict(fused_links=False, packet_pool=False), mode)
        fast = _run_fancy_drained(MODES[mode_name], mode)
        assert fast == reference
        assert reference["reports"], "scenario must produce detections"
        assert reference["ab"]["dropped_failure"] > 0


# ---------------------------------------------------------------------------
# Chaos-perturbed drained scenario: fast paths under non-loss faults.
# ---------------------------------------------------------------------------


def _run_fancy_chaos_drained(cfg: dict) -> dict:
    """The drained-scenario pattern with chaos models on both directions.

    Perturbations draw from their own private RNGs keyed off fixed seeds
    (FCY007's contract), so the chaos decision stream is a pure function
    of the packet sequence each model sees — which the fast paths must
    preserve bit-for-bit for the outputs below to compare equal.
    """
    from repro.chaos.perturbations import (
        ChaosModel,
        CorruptField,
        Duplicate,
        Reorder,
    )
    from repro.simulator.packet import PacketKind

    with fastpath.scoped(**cfg):
        sim = Simulator()
        failure = EntryLossFailure(["victim"], 0.3, start_time=0.8, seed=21)
        topo = TwoSwitchTopology(sim, link_delay_s=0.001, loss_model=failure)
        # twait must cover the forward displacement bound so reordered
        # tagged packets still land inside their session (§4.1 T_wait).
        config = FancyConfig(high_priority=["victim", "healthy/0"],
                             tree_params=None, dedicated_session_s=0.05,
                             twait_s=0.005, seed=3)
        monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1,
                                   config)
        ChaosModel([
            Reorder(0.2, 0.004, seed=101, kinds=(PacketKind.DATA,)),
            Duplicate(0.1, copies=1, seed=102),
            CorruptField(0.2, field="seq", seed=103),
        ]).attach(topo.link_ab)
        ChaosModel([
            Reorder(0.3, 0.02, seed=104),
            Duplicate(0.15, copies=1, seed=105),
        ]).attach(topo.link_ba)
        generators = [
            FlowGenerator(sim, topo.source, entry, rate_bps=3e5,
                          flows_per_second=10, seed=i + 1,
                          max_packets_per_flow=40,
                          flow_id_base=(i + 1) * 1_000_000)
            for i, entry in enumerate(["victim", "healthy/0", "healthy/1"])
        ]
        for gen in generators:
            gen.start()
        monitor.start()
        sim.run(until=3.0)
        live_counters = list(monitor.dedicated_strategy.counters)
        for gen in generators:
            gen.stop()
        sim.run(until=3.5)
        monitor.stop()
        sim.run()  # drain: empty queue == quiet wire
        sender = monitor.dedicated_sender
        return {
            "live_counters": live_counters,
            "reports": [(r.kind.name, r.entry, r.hash_path, r.time)
                        for r in monitor.log.reports],
            "ab": topo.link_ab.stats.as_dict(),
            "ba": topo.link_ba.stats.as_dict(),
            "chaos_ab": topo.link_ab.chaos.stats(),
            "chaos_ba": topo.link_ba.chaos.stats(),
            "hardening": (sender.rejected_corrupt, sender.rejected_stale,
                          sender.sessions_completed),
        }


@pytest.mark.parametrize("mode_name", sorted(MODES))
class TestChaosDrainedEquivalence:
    def test_chaos_outputs_identical(self, mode_name):
        reference = _run_fancy_chaos_drained(
            dict(fused_links=False, packet_pool=False))
        fast = _run_fancy_chaos_drained(MODES[mode_name])
        assert fast == reference
        # guard against vacuous equivalence: every fault class fired and
        # the scenario still detects through the noise
        assert reference["reports"], "scenario must produce detections"
        assert reference["chaos_ab"]["displaced"] > 0
        assert reference["chaos_ab"]["dup_scheduled"] > 0
        assert reference["chaos_ab"]["corrupted_data"] > 0
        assert reference["chaos_ba"]["displaced"] > 0
        assert reference["chaos_ba"]["dup_scheduled"] > 0


# ---------------------------------------------------------------------------
# Link-level equivalence: delivered/dropped sequences on a lossy wire.
# ---------------------------------------------------------------------------


class _Collector:
    """Terminal receiver recording per-packet metadata."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, float, int]] = []

    def receive(self, packet, in_port) -> None:
        self.rows.append((packet.seq, packet.created_at, packet.pid))


def _run_lossy_link(cfg: dict) -> dict:
    with fastpath.scoped(**cfg):
        sim = Simulator()
        sink = _Collector()
        loss = UniformLossFailure(0.25, start_time=0.0, seed=5)
        link = Link(sim, sink, 0, bandwidth_bps=1e8, delay_s=0.002,
                    loss_model=loss)
        src = UdpSource(sim, link.send, "e", 1, rate_bps=4e6,
                        packet_size=1000, jitter=0.2, seed=13)
        src.start()
        sim.run(until=1.0)
        src.stop()
        sim.run(until=1.2)  # drain the wire
        base = min(pid for _, _, pid in sink.rows)
        return {
            "stats": link.stats.as_dict(),
            "rows": [(seq, t, pid - base) for seq, t, pid in sink.rows],
            "sent": src.packets_sent,
        }


@pytest.mark.parametrize("mode_name", sorted(MODES))
def test_lossy_link_sequences_identical(mode_name):
    """Same drops, same delivery order, same relative pid allocation."""
    reference = _run_lossy_link(dict(fused_links=False, packet_pool=False))
    fast = _run_lossy_link(MODES[mode_name])
    assert fast == reference
    assert reference["stats"]["dropped_failure"] > 0


# ---------------------------------------------------------------------------
# UDP packet trains.
# ---------------------------------------------------------------------------


def _run_train(train: int) -> dict:
    sim = Simulator()
    sink = _Collector()
    loss = UniformLossFailure(0.2, start_time=0.0, seed=17)
    # Instant wire isolates the train contract: per-packet metadata and
    # stationary per-packet drop draws are exactly preserved.
    link = Link(sim, sink, 0, bandwidth_bps=None, delay_s=0.0, loss_model=loss)
    src = UdpSource(sim, link.send, "e", 1, rate_bps=2e6, packet_size=500,
                    jitter=0.3, seed=29, train=train)
    src.start()
    sim.run(until=0.5)
    src.stop()
    return {
        "rows": [(seq, t) for seq, t, _ in sink.rows],
        "stats": link.stats.as_dict(),
    }


@pytest.mark.parametrize("train", [2, 5, 16])
def test_train_stream_metadata_identical(train):
    """Trains preserve per-packet seq/timestamp/jitter/drop sequences.

    The final (partial) train may overrun the horizon by up to ``train-1``
    packets, so the comparison is over the common prefix.
    """
    reference = _run_train(1)
    fast = _run_train(train)
    n_ref = len(reference["rows"])
    n_fast = len(fast["rows"])
    assert abs(n_fast - n_ref) < train
    n = min(n_ref, n_fast)
    assert fast["rows"][:n] == reference["rows"][:n]
    # Drop decisions over the common prefix match exactly: compare the
    # delivered-seq sets truncated to the common seq horizon.
    last_common_seq = min(reference["rows"][n - 1][0], fast["rows"][n - 1][0])
    ref_seqs = [s for s, _ in reference["rows"] if s <= last_common_seq]
    fast_seqs = [s for s, _ in fast["rows"] if s <= last_common_seq]
    assert ref_seqs == fast_seqs


def _run_udp_fancy(train: int) -> dict:
    # Stationary loss (start_time=0): the train equivalence contract covers
    # loss models where the *draw order* decides, not wall-clock.  A
    # time-windowed failure would interact with the compressed wire-entry
    # times at the window boundary (see the udp.py module docstring) —
    # which is exactly what ``train=1`` is for.
    sim = Simulator()
    failure = EntryLossFailure(["victim"], 0.3, start_time=0.0, seed=31)
    topo = TwoSwitchTopology(sim, link_delay_s=0.001, loss_model=failure)
    config = FancyConfig(high_priority=["victim", "ok"], tree_params=None,
                         dedicated_session_s=0.05, seed=2)
    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config)
    sources = [
        UdpSource(sim, topo.source.send, entry, flow_id=i + 1, rate_bps=2e6,
                  packet_size=500, jitter=0.1, seed=41 + i, train=train)
        for i, entry in enumerate(["victim", "ok"])
    ]
    for src in sources:
        src.start()
    monitor.start()
    sim.run(until=2.0)
    first = monitor.log.reports[0] if monitor.log.reports else None
    return {
        "first_detection": (first.kind.name, first.entry, first.time)
                           if first is not None else None,
        "flagged": sorted(monitor.dedicated_strategy.flagged_entries),
    }


@pytest.mark.parametrize("train", [4, 8])
def test_train_detection_time_identical(train):
    """Trains do not move FANcY's detection instant under stationary loss
    (session timers tick independently of trains, the k-th victim packet
    gets the k-th loss draw either way, and session membership rides on
    the packet tag)."""
    reference = _run_udp_fancy(1)
    fast = _run_udp_fancy(train)
    assert reference["first_detection"] is not None
    assert fast == reference
    assert reference["flagged"] == ["victim"]


# ---------------------------------------------------------------------------
# Flat-array TreeCounters vs. a dict-of-lists reference model.
# ---------------------------------------------------------------------------


class _DictTreeCounters:
    """The pre-optimization TreeCounters semantics, kept as an oracle."""

    def __init__(self, params: HashTreeParams):
        self.params = params
        self.nodes = {(): [0] * params.width}
        self.packets = 0

    def activate_node(self, path):
        if len(path) >= self.params.depth:
            raise ValueError(path)
        if path not in self.nodes:
            self.nodes[path] = [0] * self.params.width

    def increment_path(self, tag):
        self.packets += 1
        for level in range(len(tag)):
            node = self.nodes.get(tag[:level])
            if node is not None:
                node[tag[level]] += 1

    def reset(self):
        for node in self.nodes.values():
            for i in range(len(node)):
                node[i] = 0
        self.packets = 0

    def deactivate_node(self, path):
        if path != ():
            self.nodes.pop(path, None)

    def deactivate_below(self, path):
        doomed = [p for p in self.nodes
                  if len(p) >= max(len(path), 1) and p[: len(path)] == path]
        for p in doomed:
            del self.nodes[p]

    def clear(self):
        self.nodes = {(): [0] * self.params.width}
        self.packets = 0

    def snapshot(self):
        return {p: list(c) for p, c in self.nodes.items()}

    def mismatches(self, remote, path):
        local = self.nodes.get(path)
        if local is None:
            return []
        remote_node = remote.get(path, [0] * self.params.width)
        return [(i, local[i] - remote_node[i])
                for i in range(self.params.width) if local[i] > remote_node[i]]


@pytest.mark.parametrize("seed", range(6))
def test_flat_tree_counters_match_dict_model(seed):
    """Randomized differential test: flat arena == dict-of-lists oracle."""
    params = HashTreeParams(width=5, depth=3, split=2, pipelined=True)
    rng = random.Random(seed)
    flat, oracle = TreeCounters(params), _DictTreeCounters(params)

    def rand_path():
        return tuple(rng.randrange(params.width)
                     for _ in range(rng.randint(1, params.depth - 1)))

    def rand_tag():
        return tuple(rng.randrange(params.width)
                     for _ in range(rng.randint(1, params.depth)))

    for _ in range(400):
        op = rng.randrange(7)
        if op == 0:
            p = rand_path()
            flat.activate_node(p)
            oracle.activate_node(p)
        elif op in (1, 2, 3):  # bias toward counting, the hot operation
            t = rand_tag()
            flat.increment_path(t)
            oracle.increment_path(t)
        elif op == 4:
            p = rand_path()
            flat.deactivate_node(p)
            oracle.deactivate_node(p)
        elif op == 5 and rng.random() < 0.3:
            p = rand_path()
            flat.deactivate_below(p)
            oracle.deactivate_below(p)
        elif op == 6 and rng.random() < 0.2:
            flat.reset()
            oracle.reset()
        assert flat.snapshot() == oracle.snapshot()
        assert flat.packets == oracle.packets
        probe = rand_path()
        remote = oracle.snapshot()
        # Perturb the remote snapshot to exercise the mismatch scan.
        for node in remote.values():
            for i in range(len(node)):
                if rng.random() < 0.3 and node[i] > 0:
                    node[i] -= 1
        assert flat.mismatches(remote, probe) == oracle.mismatches(remote, probe)
        assert flat.mismatches(remote, ()) == oracle.mismatches(remote, ())

    flat.clear()
    oracle.clear()
    assert flat.snapshot() == oracle.snapshot()
