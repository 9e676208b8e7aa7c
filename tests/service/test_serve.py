"""``run_serve``: determinism, sharding, churn, and the grey contracts.

The serve acceptance criteria (docs/ROBUSTNESS.md):

* same-seed runs are byte-identical (health JSON, trace JSONL,
  Prometheus text), including under ``--shards 2``;
* under control-plane-grey at 20% loss the degradation ladder keeps the
  healthy data link out of DECLARE;
* a genuinely dead reverse channel still reaches DECLARE within the
  paper's ≤1.2 s bound at paper-default timers;
* entry churn rotates the dedicated top-N without breaching I1–I6.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.obs.schema import validate_spans
from repro.service.soak import (
    ServeConfig,
    churn_rotations,
    default_serve_schedule,
    run_serve,
)

#: A short scaled serve (one simulated hour) — timers keep the quick
#: profile's ladder-sound ratios, only the horizon shrinks.
SHORT = dataclasses.replace(
    ServeConfig.quick(seed=3), duration_s=3600.0, health_every_s=1800.0,
    churn_every_s=1200.0, supervise_every_s=300.0, grey_start_s=600.0)

#: Paper-default timers on a small ring: 50 ms dedicated sessions,
#: 1.0 s declare grace under the 1.15 s dead-channel floor.
PAPER = ServeConfig(
    seed=1, ring_size=4, duration_s=30.0, health_every_s=15.0,
    supervise_every_s=0.5, churn_every_s=1e9, universe_size=60, top_n=20,
    n_flows=6, total_rate_bps=2_000_000.0, dedicated_session_s=0.05,
    tree_session_s=0.2, twait_s=0.015, rtx_timeout_s=0.05,
    declare_grace_s=1.0, grey_start_s=0.5, trace_window_s=2.0)

#: Pinned sha256 of the SHORT serve's outputs; a refactor of the probe or
#: the shard runner must reproduce these bytes.
GOLDEN_SHORT = {
    "health_json": "24158f1ea58851572684d8ab02c5b698cc8fc2a90a6e73e19cb543b7d80fe437",
    "trace_jsonl": "7fa2998d5e1d8819604cf7e06453fb87b5acf3fe459a55e656ad9e1e649c8286",
    "prometheus": "2bd607f275131bec63ac4f5a7eb7ce653594351dffd0900f869a620ad590940e",
    "detections": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
}


class TestPlanning:
    def test_rotations_are_pure_and_distinct(self):
        a = churn_rotations(SHORT)
        b = churn_rotations(SHORT)
        assert a == b
        assert len(a) == 3  # t=0, 1200, 2400
        for t, entries in a:
            assert len(entries) == SHORT.top_n
            assert len(set(entries)) == SHORT.top_n
        # consecutive rotations genuinely move the set
        assert set(a[0][1]) != set(a[1][1])

    def test_default_schedule_targets_reverse_channel(self):
        schedule = default_serve_schedule(SHORT)
        assert len(schedule) == 1
        spec = schedule[0]
        assert spec.kind == "control_loss"
        # grey_link s1->s2: the fault lands on the s2->s1 wire
        assert spec.target == "link:s2->s1"
        assert spec.params["rate"] == SHORT.grey_rate

    def test_no_grey_link_means_empty_schedule(self):
        config = dataclasses.replace(SHORT, grey_link=None)
        assert default_serve_schedule(config) == []


@pytest.fixture(scope="module")
def short_result():
    return run_serve(SHORT)


class TestDeterminismAndSharding:
    def test_same_seed_runs_are_byte_identical(self, short_result):
        again = run_serve(SHORT)
        assert again.health_json == short_result.health_json
        assert again.trace_jsonl == short_result.trace_jsonl
        assert again.prometheus == short_result.prometheus

    def test_shards_do_not_change_a_byte(self, short_result):
        sharded = run_serve(SHORT, shards=2)
        assert sharded.shards == 2
        assert sharded.health_json == short_result.health_json
        assert sharded.trace_jsonl == short_result.trace_jsonl
        assert sharded.prometheus == short_result.prometheus
        assert sharded.detections == short_result.detections

    def test_outputs_pinned(self, short_result):
        digests = {
            key: hashlib.sha256(json.dumps(
                getattr(short_result, key), sort_keys=True, default=repr
            ).encode("utf-8")).hexdigest()
            for key in GOLDEN_SHORT
        }
        assert digests == GOLDEN_SHORT

    def test_trace_jsonl_matches_the_span_schema(self, short_result):
        spans = [json.loads(line)
                 for line in short_result.trace_jsonl.splitlines()]
        assert spans
        assert validate_spans(spans) == []

    def test_different_seed_changes_the_run(self, short_result):
        other = run_serve(dataclasses.replace(SHORT, seed=SHORT.seed + 1))
        assert other.prometheus != short_result.prometheus


class TestDegradedModeContracts:
    def test_scaled_grey_run_is_clean(self, short_result):
        """20% control grey at scaled timers: no breach, no DECLARE."""
        assert short_result.ok
        assert short_result.breaches == {}
        assert all(state != "declared"
                   for state in short_result.ladder_states.values())
        assert short_result.snapshots[-1]["status"] == {"healthy": 8}

    def test_entry_churn_applied_everywhere(self, short_result):
        """Every link's monitor rotated its entry set (2 swaps/hour)."""
        assert ("fancy_entry_updates_total"
                in short_result.prometheus)
        for line in short_result.prometheus.splitlines():
            if line.startswith("fancy_entry_updates_total"):
                assert line.rsplit(" ", 1)[1] != "0"

    def test_paper_scale_grey_never_declares(self):
        """Paper timers, 20% grey: data link stays out of DECLARE."""
        result = run_serve(PAPER)
        assert result.ok
        assert all(state != "declared"
                   for state in result.ladder_states.values())
        assert not any(d[1] == "link_down" for d in result.detections)

    def test_paper_scale_dead_channel_declares_within_bound(self):
        """Dead reverse channel: LINK_DOWN within 1.2 s, zero breaches.

        The grey link's monitor loses every control response from
        t=2.0; the ladder must refuse absorption (stale last report)
        and let the exhaustion declare at the 0.05 s window +
        23 x 0.05 s backoff floor.
        """
        dead = dataclasses.replace(PAPER, duration_s=8.0,
                                   health_every_s=4.0, grey_rate=1.0,
                                   grey_start_s=2.0)
        result = run_serve(dead)
        assert result.ok  # the declaration is attributable (I3)
        assert result.ladder_states["s1->s2"] == "declared"
        downs = [d for d in result.detections
                 if d[0] == "s1->s2" and d[1] == "link_down"]
        assert downs, "dead reverse channel must declare LINK_DOWN"
        assert downs[0][3] - 2.0 <= 1.201
        # the final health snapshot surfaces the declaration
        final = {row["link"]: row for row in result.snapshots[-1]["links"]}
        assert final["s1->s2"]["status"] == "declared"
        assert final["s1->s2"]["ladder_state"] == "declared"


class TestResultDocument:
    def test_health_json_has_snapshots_per_grid_point(self, short_result):
        import json

        doc = json.loads(short_result.health_json)
        assert [s["t"] for s in doc["snapshots"]] == [1800.0, 3600.0]
        assert set(doc["ladder_states"]) == set(short_result.links)
        assert doc["breaches"] == {}

    def test_to_dict_round_trips_config(self, short_result):
        doc = short_result.to_dict()
        assert ServeConfig.from_dict(doc["config"]) == SHORT
        assert doc["ok"] is True
        assert doc["sessions_completed"] == short_result.sessions_completed
