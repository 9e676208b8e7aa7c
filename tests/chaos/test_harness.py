"""End-to-end tests for the invariant-checked soak harness.

The heavy lifting (50-seed randomized soaks) lives in the CI chaos job;
here a handful of fixed seeds prove the harness runs clean on the
hardened protocol, and the ``stale-session`` regression fixture proves
the harness *fails* when the hardening is disabled — i.e. the invariants
have teeth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.chaos.harness import (
    REGRESSIONS,
    SoakConfig,
    regression_scenario,
    run_many,
    run_soak,
)
from repro.chaos.invariants import Violation
from repro.chaos.schedule import FaultSpec
from repro.chaos.shrink import load_reproducer, shrink, write_reproducer
from repro.runtime import RuntimeContext

QUICK = SoakConfig(duration_s=4.0, grace_s=2.5)

#: Pinned sha256 of ``json.dumps(run_soak(...).to_dict(), sort_keys=True)``
#: for the ``QUICK`` config at seeds 0–2.
GOLDEN_SEEDS = {
    0: "ed5b329aca331fa89bbeba64a5c6011cce6a5ed4d14f7f314f2d72e4d04bdefc",
    1: "02de39dbb7acdce25ee08c299b948dc4f8cda976e1c7fe772ad619d423e4f8ed",
    2: "2eca519afa52a71ce1ab3547b7cb62c0e83302a96f944f8d043ffe2dddfb1ea5",
}
#: Same digest for the ``control-plane-grey`` regression fixture.
GOLDEN_CONTROL_PLANE_GREY = (
    "b19ea0b2e2d4485c6fb18fc70987d7952e7d9ccc103cbe00a62bfb141801f38b")
#: sha256 of the *sorted* ``[invariant, time, detail]`` violation list of
#: the ``stale-session`` fixture (sorted: the order in which checks report
#: is not part of the contract, the set of violations is).
GOLDEN_STALE_SESSION = (
    "3089c0c0ed55bd0304d1e0893b459e1fdcb33e085f1257de1c19f29708fcd356")


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def regression_failure():
    """One failing stale-session run, shared by the fixture tests."""
    config, schedule = regression_scenario("stale-session", QUICK)
    result = run_soak(config, schedule)
    return config, schedule, result


class TestSoakPasses:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hardened_protocol_survives_random_schedules(self, seed):
        result = run_soak(dataclasses.replace(QUICK, seed=seed))
        assert result.ok, [v.to_dict() for v in result.violations]
        assert result.schedule  # never an empty schedule
        assert result.stats["packets_sent"] > 0
        # sessions keep completing despite the faults
        completed = result.stats["sessions_completed"]
        assert any(n > 0 for n in completed.values())

    def test_result_round_trips_to_json_dict(self):
        result = run_soak(dataclasses.replace(QUICK, seed=0))
        doc = result.to_dict()
        assert doc["ok"] is True
        assert doc["seed"] == 0
        assert [FaultSpec.from_dict(d) for d in doc["schedule"]] \
            == result.schedule


class TestGoldens:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_SEEDS))
    def test_random_schedule_result_pinned(self, seed):
        result = run_soak(dataclasses.replace(QUICK, seed=seed))
        assert _sha256(result.to_dict()) == GOLDEN_SEEDS[seed]

    def test_control_plane_grey_result_pinned(self):
        config, schedule = regression_scenario("control-plane-grey", QUICK)
        result = run_soak(config, schedule)
        assert _sha256(result.to_dict()) == GOLDEN_CONTROL_PLANE_GREY

    def test_stale_session_violations_pinned(self, regression_failure):
        _config, _schedule, result = regression_failure
        found = sorted([v.invariant, v.time, v.detail]
                       for v in result.violations)
        assert _sha256(found) == GOLDEN_STALE_SESSION


class TestRegressionFixture:
    def test_known_fixture_registered(self):
        assert "stale-session" in REGRESSIONS
        with pytest.raises(ValueError):
            regression_scenario("no-such-fixture", QUICK)

    def test_unhardened_sender_violates_attribution(self, regression_failure):
        config, schedule, result = regression_failure
        assert config.regression == "stale-session"
        assert not result.ok
        assert {v.invariant for v in result.violations} == {"I3"}
        # stale Reports were actually delivered and acted upon
        rejected = result.stats["rejected"]["dedicated_sender"]
        assert rejected["stale"] > 0

    def test_hardened_protocol_passes_the_same_schedule(self,
                                                        regression_failure):
        config, schedule, _ = regression_failure
        hardened = dataclasses.replace(config, regression=None)
        result = run_soak(hardened, schedule)
        assert result.ok, [v.to_dict() for v in result.violations]
        # the faults still hit the wire: stale messages arrive, but the
        # hardened sender rejects instead of acting on them
        assert result.stats["rejected"]["dedicated_sender"]["stale"] > 0


class TestShrinking:
    def test_shrinks_to_single_fault(self, regression_failure):
        config, schedule, failing = regression_failure
        minimal, result, runs = shrink(
            schedule, failing, lambda cand: run_soak(config, cand))
        assert 1 <= len(minimal) < len(schedule)
        assert runs >= 1
        assert any(v.invariant == "I3" for v in result.violations)

    def test_reproducer_round_trip(self, regression_failure, tmp_path):
        config, schedule, result = regression_failure
        path = write_reproducer(tmp_path / "repro.json", config, schedule,
                                result, runs_used=2)
        loaded_config, loaded_schedule = load_reproducer(path)
        assert loaded_config == config
        assert loaded_schedule == schedule
        assert "--replay" in path.read_text()

    def test_reproducer_format_validated(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_reproducer(bogus)

    def test_replayed_reproducer_still_fails(self, regression_failure,
                                             tmp_path):
        config, schedule, result = regression_failure
        path = write_reproducer(tmp_path / "repro.json", config, schedule,
                                result)
        loaded_config, loaded_schedule = load_reproducer(path)
        replay = run_soak(loaded_config, loaded_schedule)
        assert not replay.ok
        assert any(v.invariant == "I3" for v in replay.violations)


class TestRunMany:
    def test_serial_sweep_returns_per_seed_docs(self):
        runtime = RuntimeContext(workers=None, cache_dir=None, progress=False)
        results = run_many(QUICK, [0, 1], runtime=runtime)
        assert sorted(results) == [0, 1]
        for seed, doc in results.items():
            assert doc["seed"] == seed
            assert doc["ok"] is True, doc["violations"]


class TestConfigAndViolations:
    def test_config_round_trip(self):
        config = SoakConfig(seed=9, duration_s=3.0, regression="stale-session")
        assert SoakConfig.from_dict(config.to_dict()) == config

    def test_violation_to_dict(self):
        v = Violation("I5", 1.25, "link ab: delivered mismatch")
        assert v.to_dict() == {"invariant": "I5", "time": 1.25,
                               "detail": "link ab: delivered mismatch"}
