"""Sharded fabric runs: planning, seeding, and merge determinism.

The contract under test (docs/PERFORMANCE.md): the unit of determinism
is the *link*, not the shard.  Per-link seeds derive only from the base
seed and the link id, and the merge folds payloads in sorted link order,
so ``--shards 1``, ``2`` and ``4`` produce identical detection records
and byte-identical Prometheus text and trace JSONL.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments import fabric
from repro.fabric.sharding import ShardSpec, merge_link_results, plan_shards
from repro.runtime import RuntimeContext, stable_seed

#: Pinned sha256 of the merged sharded outputs; a refactor of the probe
#: or the shard runner must reproduce these bytes.
GOLDEN_SHARDED = {
    "detections": "df1803b3eb3e2881d1de88b465c9b6e703f022a03f620c05e730f17dc0f2564e",
    "prometheus": "405401ad5cc8ea78a91241ccfc09e478133e9e148cc0f8309a283ef8896dfc6f",
    "trace_jsonl": "79e3297a5daea5ab2174a911115070a1ab665f63a893269a0e9bcd374102a0f9",
}

LINKS = ["a->b", "b->a", "b->c", "c->b", "a->c", "c->a"]


class TestPlanShards:
    def test_round_robin_partition(self):
        specs = plan_shards(LINKS, 2)
        assert [s.links for s in specs] == [
            ("a->b", "b->c", "a->c"),
            ("b->a", "c->b", "c->a"),
        ]
        assert [s.index for s in specs] == [0, 1]

    def test_single_shard_keeps_order(self):
        (spec,) = plan_shards(LINKS, 1)
        assert spec.links == tuple(LINKS)

    def test_empty_shards_dropped(self):
        specs = plan_shards(LINKS[:3], 8)
        assert len(specs) == 3
        assert all(len(s.links) == 1 for s in specs)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            plan_shards(LINKS, 0)
        with pytest.raises(ValueError):
            plan_shards(["x->y", "x->y"], 2)

    def test_seeds_are_grouping_invariant(self):
        """A link's seed never depends on the shard count or its batch."""
        by_count = {}
        for n in (1, 2, 3, 6):
            for spec in plan_shards(LINKS, n, seed=11):
                for link, seed in zip(spec.links, spec.link_seeds):
                    by_count.setdefault(link, set()).add(seed)
        assert all(len(seeds) == 1 for seeds in by_count.values())
        # ... and it matches the documented derivation exactly.
        assert by_count["a->b"] == {
            stable_seed(11, "fabric-shard", "a->b", bits=31)}

    def test_specs_are_hashable_records(self):
        spec = plan_shards(LINKS, 3, seed=2)[0]
        assert isinstance(spec, ShardSpec)
        assert hash(spec)


class TestMergeLinkResults:
    def test_merges_in_sorted_link_order(self):
        merged = merge_link_results({
            "b->a": {"detections": [("b->a", "e1", 0.5)], "metrics": None,
                     "spans": [], "sessions_completed": 3,
                     "events_processed": 10, "fluid_absorbed": 2},
            "a->b": {"detections": [("a->b", "e0", 0.4)], "metrics": None,
                     "spans": [], "sessions_completed": 4,
                     "events_processed": 20, "fluid_absorbed": 5},
        })
        assert merged["links"] == ["a->b", "b->a"]
        assert merged["detections"] == [("a->b", "e0", 0.4),
                                        ("b->a", "e1", 0.5)]
        assert merged["sessions_completed"] == {"a->b": 4, "b->a": 3}
        assert merged["events_processed"] == 30
        assert merged["fluid_absorbed"] == 7

    def test_normalizes_json_round_tripped_records(self):
        """run_sweep's result cache round-trips through JSON, turning
        detection tuples into lists; the merge must normalize them so a
        cached shard merges identically to a fresh one."""
        fresh = merge_link_results({
            "a->b": {"detections": [("a->b", "e0", 0.4)], "metrics": None},
        })
        cached = merge_link_results({
            "a->b": {"detections": [["a->b", "e0", 0.4]], "metrics": None},
        })
        assert fresh["detections"] == cached["detections"]
        assert isinstance(cached["detections"][0], tuple)


@pytest.fixture(scope="module")
def shard_runs():
    """One fluid ring case at shard counts 1, 2 and 4 (serial workers)."""
    config = replace(fabric.FabricExpConfig(), duration_s=1.5, fluid=True,
                     tree=True, background_entries=4)
    runtime = RuntimeContext(cache_dir=None, progress=False)
    return {
        n: fabric.run_sharded(config, case="ring", shards=n,
                              runtime=runtime, quick=False)
        for n in (1, 2, 4)
    }


class TestShardCountInvariance:
    def test_detection_records_identical(self, shard_runs):
        r1, r2, r4 = (shard_runs[n] for n in (1, 2, 4))
        assert r1["detections"], "probe must detect the planned failure"
        assert r1["detections"] == r2["detections"] == r4["detections"]

    def test_prometheus_text_byte_identical(self, shard_runs):
        r1, r2, r4 = (shard_runs[n] for n in (1, 2, 4))
        assert r1["prometheus"] == r2["prometheus"] == r4["prometheus"]
        assert "fancy_" in r1["prometheus"]

    def test_trace_jsonl_byte_identical(self, shard_runs):
        r1, r2, r4 = (shard_runs[n] for n in (1, 2, 4))
        assert r1["trace_jsonl"] == r2["trace_jsonl"] == r4["trace_jsonl"]
        assert r1["trace_jsonl"].strip()

    def test_every_link_probed_once(self, shard_runs):
        for n, result in shard_runs.items():
            assert len(result["links"]) == 12  # 6-node ring, directed
            assert result["shards"] == min(n, 12)
            assert all(s > 0
                       for s in result["sessions_completed"].values())

    def test_fluid_background_absorbed(self, shard_runs):
        assert shard_runs[1]["fluid_absorbed"] > 0
        assert (shard_runs[1]["fluid_absorbed"]
                == shard_runs[2]["fluid_absorbed"]
                == shard_runs[4]["fluid_absorbed"])

    def test_outputs_pinned(self, shard_runs):
        for result in shard_runs.values():
            digests = {
                key: hashlib.sha256(json.dumps(
                    result[key], sort_keys=True, default=repr
                ).encode("utf-8")).hexdigest()
                for key in GOLDEN_SHARDED
            }
            assert digests == GOLDEN_SHARDED

    def test_parallel_workers_match_serial(self, shard_runs):
        """Worker processes are an execution knob too: a 2-worker run
        merges to the same bytes as the serial one."""
        config = replace(fabric.FabricExpConfig(), duration_s=1.5,
                         fluid=True, tree=True, background_entries=4)
        runtime = RuntimeContext(workers=2, cache_dir=None, progress=False)
        result = fabric.run_sharded(config, case="ring", shards=2,
                                    runtime=runtime, quick=False)
        assert result["detections"] == shard_runs[1]["detections"]
        assert result["prometheus"] == shard_runs[1]["prometheus"]
        assert result["trace_jsonl"] == shard_runs[1]["trace_jsonl"]
