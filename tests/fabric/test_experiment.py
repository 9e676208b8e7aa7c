"""Tests for the fabric experiment: Figure-10-style closed-loop recovery."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments import fabric
from repro.runtime import RuntimeContext


@pytest.fixture(scope="module")
def quick_config():
    return replace(fabric.FabricExpConfig(), duration_s=3.0,
                   fat_tree_duration_s=2.0)


@pytest.fixture(scope="module")
def ring_result(quick_config):
    return fabric.run_ring_case(quick_config)


@pytest.fixture(scope="module")
def fat_tree_result(quick_config):
    return fabric.run_fat_tree_case(quick_config)


@pytest.fixture(scope="module", params=[True, False], ids=["fluid", "discrete"])
def background_ring(request, quick_config):
    """Ring closed loop with hash-tree-counted background entries."""
    config = replace(quick_config, background_entries=4, tree=True,
                     fluid=request.param)
    return request.param, fabric.run_ring_case(config)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Pinned sha256 of whole closed-loop results.  A refactor of the run
#: bodies must reproduce these bytes; a changed digest is a behaviour
#: change to explain, never a value to re-pin silently.
GOLDEN = {
    "ring": "1136351059afc7270d90706aff09273d660c12368098db57660b0ee32af56769",
    "fat_tree": "b537ac86822cd6ca036f84567d4f168bd190d737e0fe7bd6156309d2fa48a315",
    "ring+bg/fluid": "211987a45acfb893898d2a9a43780375edd34c29faf153884389eca7e0656208",
    "ring+bg/discrete": "095ae02fe53fbce267ad9c62d13c1726d81b2a5a9a2c058e8e60123079b3ee2b",
}


class TestRingCase:
    def test_closed_loop_recovers_traffic(self, ring_result):
        # The Figure 10 contract: flag -> reroute -> goodput returns.
        assert ring_result["recovery_fraction"] is not None
        assert ring_result["recovery_fraction"] > 0.8
        assert ring_result["rerouted_packets"] > 0

    def test_detection_and_reroute_subsecond(self, ring_result):
        assert 0.0 < ring_result["detection_delay"] < 1.0
        assert (ring_result["detection_delay"]
                <= ring_result["reroute_delay"] < 1.0)

    def test_attribution(self, ring_result):
        assert ring_result["attribution_correct"]
        assert list(ring_result["flagged_links"]) == ["s1->s2"]

    def test_all_links_monitored(self, ring_result):
        # 6-node ring: 12 directed links, one FANcY session each.
        assert ring_result["n_sessions"] == 12
        assert ring_result["sessions_completed_min"] > 0


class TestFatTreeCase:
    def test_concurrent_session_floor(self, fat_tree_result):
        # Acceptance: the k=4 fat tree sustains >= 32 concurrent sessions.
        assert fat_tree_result["n_sessions"] >= 32
        assert fat_tree_result["sessions_completed_min"] > 0

    def test_per_link_attribution(self, fat_tree_result):
        assert fat_tree_result["attribution_correct"]
        assert list(fat_tree_result["flagged_links"]) == [
            fat_tree_result["failed_link"]]

    def test_recovers_traffic(self, fat_tree_result):
        assert fat_tree_result["recovery_fraction"] is not None
        assert fat_tree_result["recovery_fraction"] > 0.8

    def test_same_seed_same_detection_records(self, quick_config,
                                              fat_tree_result):
        again = fabric.run_fat_tree_case(quick_config)
        assert again["detections"] == fat_tree_result["detections"]
        assert again["detections"], "expected detection records"


class TestGoldenOutputs:
    def test_ring_result_pinned(self, ring_result):
        assert _digest(ring_result) == GOLDEN["ring"]

    def test_fat_tree_result_pinned(self, fat_tree_result):
        assert _digest(fat_tree_result) == GOLDEN["fat_tree"]

    def test_background_ring_pinned(self, background_ring):
        fluid, result = background_ring
        assert result["attribution_correct"]
        assert (result["fluid_absorbed"] > 0) is fluid
        mode = "fluid" if fluid else "discrete"
        assert _digest(result) == GOLDEN[f"ring+bg/{mode}"]


class TestHarness:
    def test_run_and_render(self, quick_config):
        runtime = RuntimeContext(cache_dir=None, progress=False)
        result = fabric.run(config=replace(quick_config, duration_s=2.0,
                                           fat_tree_duration_s=1.5),
                            quick=False, runtime=runtime)
        assert result["errors"] == {}
        assert set(result["cases"]) == {"ring", "fat_tree"}
        text = fabric.render(result)
        assert "ring" in text and "fat_tree" in text
        assert "MISATTRIBUTED" not in text
