"""Tests for fabric-addressed chaos schedules and the ring soak."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos.schedule import FaultSpec
from repro.fabric.builders import ring
from repro.fabric.chaos import (
    FabricSoakConfig,
    as_directional,
    default_fabric_schedule,
    fabric_soak,
    link_target,
    materialize_on_fabric,
    parse_link_target,
)
from repro.fabric.deployment import FabricDeployment
from repro.fabric.graph import FabricNetwork
from repro.simulator.failures import CompositeFailure

#: Pinned sha256 of ``fabric_soak(FabricSoakConfig(seed=3)).to_dict()``.
GOLDEN_SOAK = "612b492bc09a467387dae50708e2968b60f39da5a0b6d0c27e3ab98398dfd197"


@pytest.fixture(scope="module")
def soak_result():
    return fabric_soak(FabricSoakConfig(seed=3))


class TestLinkTargets:
    def test_round_trip(self):
        assert link_target("s1", "s2") == "link:s1->s2"
        assert parse_link_target("link:s1->s2") == "s1->s2"

    def test_non_link_targets_pass_through_as_none(self):
        assert parse_link_target("forward") is None
        assert parse_link_target("reverse") is None

    def test_as_directional_rewrites_target_only(self):
        spec = FaultSpec("entry_loss", target="link:s1->s2",
                         params={"entries": ["e"], "rate": 0.5,
                                 "start": 0.5, "end": None}, index=3)
        translated = as_directional(spec)
        assert translated.target == "forward"
        assert translated.kind == spec.kind
        assert translated.params == spec.params
        assert translated.index == spec.index
        # A copy, not an alias: mutating one must not leak to the other.
        translated.params["rate"] = 0.9
        assert spec.params["rate"] == 0.5


class TestMaterialize:
    def spec(self, kind="entry_loss", link="s1->s2", **params):
        defaults = {"entries": ["e"], "rate": 1.0, "start": 0.1, "end": None}
        defaults.update(params)
        return FaultSpec(kind, target=f"link:{link}", params=defaults, index=0)

    def test_loss_installed_on_named_link_only(self, sim):
        net = FabricNetwork(sim, ring(4))
        materialized = materialize_on_fabric([self.spec()], 0, net)
        assert list(materialized.losses) == ["s1->s2"]
        assert isinstance(net.links["s1->s2"].loss_model, CompositeFailure)
        assert net.links["s2->s1"].loss_model is None

    def test_rejects_two_switch_targets(self, sim):
        net = FabricNetwork(sim, ring(4))
        bad = FaultSpec("entry_loss", target="forward",
                        params={"entries": ["e"], "rate": 1.0,
                                "start": 0.1, "end": None}, index=0)
        with pytest.raises(ValueError, match="link-addressed"):
            materialize_on_fabric([bad], 0, net)

    def test_rejects_unknown_link(self, sim):
        net = FabricNetwork(sim, ring(4))
        with pytest.raises(KeyError):
            materialize_on_fabric([self.spec(link="s0->s2")], 0, net)

    def test_restart_requires_deployed_monitor(self, sim):
        net = FabricNetwork(sim, ring(4))
        restart = FaultSpec("switch_restart", target="link:s1->s2",
                            params={"time": 0.5, "side": "upstream"}, index=0)
        with pytest.raises(ValueError, match="no monitor deployed"):
            materialize_on_fabric([restart], 0, net, deployment=None)
        dep = FabricDeployment(net, links=["s1->s2"])
        materialized = materialize_on_fabric([restart], 0, net, dep)
        assert materialized.restarts == [restart]

    def test_perturbations_become_per_link_chaos_models(self, sim):
        net = FabricNetwork(sim, ring(4))
        reorder = FaultSpec("reorder", target="link:s0->s1",
                            params={"rate": 0.2, "max_displacement_s": 0.002,
                                    "start": 0.0, "end": None}, index=0)
        materialized = materialize_on_fabric([reorder], 0, net)
        assert list(materialized.chaos) == ["s0->s1"]
        assert materialized.chaos_models_for("s0->s1", "s1->s2") == [
            materialized.chaos["s0->s1"]]


class TestSoakConfig:
    def test_round_trips_through_dict(self):
        config = FabricSoakConfig(seed=4, fault_rate=0.5)
        assert FabricSoakConfig.from_dict(config.to_dict()) == config

    def test_default_schedule_covers_all_entries(self):
        config = FabricSoakConfig()
        (spec,) = default_fabric_schedule(config)
        assert spec.target == "link:s1->s2"
        assert spec.params["entries"] == ["hp/0", "hp/1", "hp/2",
                                          "be/0", "be/1"]


class TestFabricSoak:
    def test_ring_too_small_rejected(self):
        with pytest.raises(ValueError):
            fabric_soak(FabricSoakConfig(ring_size=3))

    def test_soak_holds_invariants(self, soak_result):
        result = soak_result
        assert result.ok, [v.to_dict() for v in result.violations]
        # Reports live only on the faulted link; the sentinel monitors
        # (no fault, or no traffic at all) stay silent.
        reports = result.stats["reports"]
        assert reports.get("s1->s2")
        assert not reports.get("s0->s1")
        assert not reports.get("s2->s3")
        assert all(n > 0
                   for n in result.stats["sessions_completed"].values())
        serialized = result.to_dict()
        assert serialized["ok"] is True
        assert serialized["seed"] == 3

    def test_soak_result_pinned(self, soak_result):
        text = json.dumps(soak_result.to_dict(), sort_keys=True, default=repr)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SOAK
