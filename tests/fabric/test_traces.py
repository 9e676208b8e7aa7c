"""Acceptance tests for detection tracing on the fabric closed loop.

The ISSUE contract: every detection in the ring closed-loop experiment
produces a causally ordered trace (fault span → divergence → zoom/flag →
reroute → recovery), byte-identical across two same-seed runs; the
fat-tree deployment's 64 forks share one registry but never bleed spans
or timeline events across links.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments import fabric
from repro.obs.schema import validate_spans
from repro.obs.trace import spans_to_jsonl
from repro.telemetry import Telemetry
from repro.telemetry.export import to_prometheus

#: Pinned sha256 of the traced outputs; see tests/fabric/test_experiment.py.
GOLDEN_RING_OBS = "388024d92d06d6e6cf8f4e723d3f2af633ea76b4588e7ef5cf91692e38e9ac4b"
GOLDEN_FAT_TREE_PROMETHEUS = (
    "f3041f827fd4d6ea3ba158dd3871d0f90f79cd5f9f8f05b36d8306381bb4b673")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def traced_config():
    return replace(fabric.FabricExpConfig(), duration_s=3.0, trace=True)


@pytest.fixture(scope="module")
def traced_ring(traced_config):
    return fabric.run_ring_case(traced_config, telemetry=Telemetry(scope="ring"))


class TestRingCausalOrder:
    def test_obs_payload_present(self, traced_ring):
        obs = traced_ring["obs"]
        assert obs is not None
        assert obs["spans"], "expected trace spans"
        assert validate_spans(obs["spans"]) == []

    def test_failed_link_trace_is_causally_ordered(self, traced_ring):
        spans = [s for s in traced_ring["obs"]["spans"]
                 if s["scope"] == traced_ring["failed_link"]]
        assert spans, "the failed link must carry a trace"
        root = spans[0]
        assert root["cat"] == "cause"
        assert root["attrs"]["cause"] == "fault"
        # Every span of the episode starts within the root's lifetime and
        # after its own parent — causal order, not just time order.
        by_id = {s["span"]: s for s in spans}
        for span in spans[1:]:
            assert span["start"] >= root["start"]
            parent = by_id[span["parent"]]
            assert span["start"] >= parent["start"]
        # The chain itself: divergence -> flag -> reroute -> recovery.
        cats = [s["cat"] for s in spans]
        for cat in ("counters", "detect", "reroute"):
            assert cat in cats, f"missing {cat} span in {cats}"
        order = {c: min(s["start"] for s in spans if s["cat"] == c)
                 for c in ("cause", "counters", "detect", "reroute")}
        assert (order["cause"] <= order["counters"] <= order["detect"]
                <= order["reroute"])
        recovery = next(s for s in spans if s["name"] == "recovery")
        assert recovery["end"] is not None
        assert recovery["end"] >= recovery["start"]

    def test_detection_latency_surfaces_in_health(self, traced_ring):
        summary = traced_ring["obs"]["health"]["summary"]
        latency = summary["detection_latency"]
        assert latency["count"] >= 1
        assert 0.0 < latency["mean"] < 1.0
        assert summary["unattributed_detections"] == 0

    def test_failed_link_is_rerouted_others_healthy(self, traced_ring):
        links = {link["link"]: link["status"]
                 for link in traced_ring["obs"]["health"]["links"]}
        assert links[traced_ring["failed_link"]] == "rerouted"
        others = [s for lid, s in links.items()
                  if lid != traced_ring["failed_link"]]
        assert set(others) == {"healthy"}

    def test_obs_payload_pinned(self, traced_ring):
        obs = json.dumps(traced_ring["obs"], sort_keys=True, default=repr)
        assert _sha(obs) == GOLDEN_RING_OBS

    def test_same_seed_byte_identical_jsonl(self, traced_config, traced_ring):
        again = fabric.run_ring_case(traced_config,
                                     telemetry=Telemetry(scope="ring"))
        first = spans_to_jsonl(traced_ring["obs"]["spans"])
        second = spans_to_jsonl(again["obs"]["spans"])
        assert first == second
        assert first, "expected non-empty trace JSONL"


class TestForkIsolation:
    """64 fat-tree sessions: one registry, private timelines and traces."""

    @pytest.fixture(scope="class")
    def traced_fat_tree(self):
        from repro.core.detector import FancyConfig
        from repro.fabric.builders import fat_tree
        from repro.fabric.deployment import FabricDeployment
        from repro.fabric.graph import FabricNetwork
        from repro.simulator.engine import Simulator

        sim = Simulator()
        net = FabricNetwork(sim, fat_tree(4))
        telemetry = Telemetry(scope="fat_tree")
        config = FancyConfig(high_priority=["e0"], tree_params=None,
                             dedicated_session_s=0.050)
        deployment = FabricDeployment(net, config=config,
                                      telemetry=telemetry)
        deployment.start()
        sim.run(until=0.3)
        deployment.stop()
        sim.run()
        return telemetry, deployment

    def test_full_fabric_is_64_sessions(self, traced_fat_tree):
        _telemetry, deployment = traced_fat_tree
        assert deployment.n_sessions == 64

    def test_registry_is_shared(self, traced_fat_tree):
        telemetry, deployment = traced_fat_tree
        for monitor in deployment.monitors.values():
            assert monitor.telemetry.metrics is telemetry.metrics
        # ... and aggregated across all links: more control messages than
        # any single link could have produced in 0.3 s of 50 ms sessions.
        total = telemetry.metrics.total("fancy_control_messages_total")
        assert total > 64

    def test_timelines_and_traces_are_private(self, traced_fat_tree):
        telemetry, deployment = traced_fat_tree
        timelines = [m.telemetry.timeline for m in
                     deployment.monitors.values()]
        collectors = [m.telemetry.traces for m in
                      deployment.monitors.values()]
        assert len({id(t) for t in timelines}) == 64
        assert len({id(c) for c in collectors}) == 64
        assert telemetry.timeline not in timelines
        assert telemetry.traces not in collectors

    def test_no_cross_link_bleed_in_timelines(self, traced_fat_tree):
        _telemetry, deployment = traced_fat_tree
        for link_id, monitor in deployment.monitors.items():
            fsms = {ev.fields["fsm"] for ev in monitor.telemetry.timeline
                    if "fsm" in ev.fields}
            assert fsms, f"{link_id}: expected FSM activity"
            for fsm in fsms:
                assert fsm.startswith(link_id), (
                    f"{link_id}'s private timeline saw {fsm}")

    def test_metrics_pinned(self, traced_fat_tree):
        telemetry, _deployment = traced_fat_tree
        text = to_prometheus(telemetry.metrics.snapshot())
        assert _sha(text) == GOLDEN_FAT_TREE_PROMETHEUS

    def test_trace_scopes_match_links(self, traced_fat_tree):
        _telemetry, deployment = traced_fat_tree
        for link_id, monitor in deployment.monitors.items():
            assert monitor.telemetry.traces.scope == link_id
            # no fault was injected, so no episode may have opened
            assert len(monitor.telemetry.traces) == 0
