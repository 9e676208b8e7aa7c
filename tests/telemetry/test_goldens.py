"""Pinned telemetry outputs of runs no other golden covers.

Every fact the FSMs, zooming, the monitor and the chaos harness report
lands in three sinks: the timeline, the trace collector and the metrics
registry.  These digests pin all three byte for byte, so a change to how
facts are emitted cannot silently move an event, a span or a series:

* ``run_entry_failure`` on dedicated counters (sessions, control
  messages, per-entry detections);
* the same run on the hash tree (zoom spans, ``zoom_descend`` /
  ``zoom_retreat``, ``fancy_zoom_activations_total`` and
  ``fancy_zoom_frontier``);
* the ring soak under a reverse-wire corruption, a switch restart and a
  dead control channel (``chaos_switch_restarts_total``,
  ``fancy_rejected_messages_total``, ``fancy_link_failures_total``,
  ``fancy_retransmissions_total``), hashed per monitor.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.schedule import FaultSpec
from repro.experiments.runner import ExperimentSpec, run_entry_failure
from repro.fabric.chaos import FabricSoakConfig, fabric_soak, link_target
from repro.telemetry import Telemetry, to_prometheus
from repro.traffic.synthetic import EntrySize

#: sha256 of (timeline JSONL, trace JSONL, Prometheus text) per run.
GOLDEN_ENTRY = {
    "dedicated": {
        "timeline": "687b9671717768a7f00d8af211c88dd2041aed830ec946f423434937e5c2f7a1",
        "traces": "af182d5f92f3fe164b86d1c71fe826792202a269b5d8ebe9c3e0ec5cdf39f9ec",
        "prometheus": "79a69060a51c8c3b9f0b1a2282b44eed5277e4b41114c13044a1bffcc0823b16",
    },
    "tree": {
        "timeline": "dc0cfe8bebdf4eabd73489ddd2ac4f6823ed0960b6f68cadd220963f30d915f9",
        "traces": "e206907ccdb7448e4144e80ec98446934e8a9da242f0a54acdcbd49f6d580300",
        "prometheus": "170c49ab050a242781707c49eb6793144dc80f5b58456e241870567b05e9494d",
    },
}

#: sha256 of each soak monitor's (timeline JSONL, trace JSONL).
GOLDEN_SOAK_MONITORS = {
    "s0->s1": ("1b944d37ed9044c64e8c5153b620c3c10eef99867a51ba8fa62a89cc7b6bbc50",
               "135baf4c458273b7941a27d166e0e37602f22170706b81022ea5906e9a975e6f"),
    "s1->s2": ("ea2b526070432b99453e904f9395287a68626df34ab3b78d388e452f5112fa4d",
               "aae492abb192d4cc67da8f3a641265f8ca3fa8038a91b97038b32c8f2619d870"),
    "s2->s3": ("849066a4b93f89b975393cbdde39e4794c08149c40b4fee8bd3d19eea4f6b55b",
               "862966b8e469fa9b9379bd9df6de90ac0fff98136a90db655b0a84e7ffd853b3"),
}
#: sha256 of the soak's shared registry as Prometheus text.
GOLDEN_SOAK_PROMETHEUS = (
    "eed4401f982d9d994702466a9349818d38ac040024f2d0da1f535d070afb7699")

DURATIONS = {"dedicated": 5.0, "tree": 8.0}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(telemetry: Telemetry) -> dict[str, str]:
    return {
        "timeline": _sha(telemetry.timeline.to_jsonl()),
        "traces": _sha(telemetry.traces.to_jsonl()),
        "prometheus": _sha(to_prometheus(telemetry.metrics)),
    }


class _ForkRecorder(Telemetry):
    """A session that keeps the per-monitor forks it hands out."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.forks: dict[str, Telemetry] = {}

    def fork(self, scope=None):
        child = super().fork(scope)
        self.forks[child.scope] = child
        return child


@pytest.mark.parametrize("mode", sorted(GOLDEN_ENTRY))
def test_entry_failure_outputs_pinned(mode):
    spec = ExperimentSpec(
        entry_size=EntrySize(1e6, 50), loss_rate=1.0, n_failed=1,
        n_background=3, mode=mode, duration_s=DURATIONS[mode],
        max_pps_per_entry=200, seed=7)
    telemetry = Telemetry()
    run_entry_failure(spec, telemetry=telemetry)
    assert _digests(telemetry) == GOLDEN_ENTRY[mode]


def test_tree_run_covers_zooming():
    """Guard against a vacuous tree golden: zooming must have happened."""
    spec = ExperimentSpec(
        entry_size=EntrySize(1e6, 50), loss_rate=1.0, n_failed=1,
        n_background=3, mode="tree", duration_s=DURATIONS["tree"],
        max_pps_per_entry=200, seed=7)
    telemetry = Telemetry()
    run_entry_failure(spec, telemetry=telemetry)
    counts = telemetry.timeline.counts()
    assert counts["zoom_descend"] and counts["zoom_retreat"]
    assert telemetry.traces.counts()["zoom"]
    text = to_prometheus(telemetry.metrics)
    assert "fancy_zoom_activations_total" in text
    assert "fancy_zoom_frontier" in text


def _soak_schedule() -> list[FaultSpec]:
    return [
        FaultSpec("corrupt", target=link_target("s1", "s0"),
                  params={"field": "snapshot", "rate": 0.3, "start": 0.5,
                          "end": None}, index=0),
        FaultSpec("switch_restart", target=link_target("s1", "s2"),
                  params={"side": "both", "time": 1.5}, index=1),
        FaultSpec("control_loss", target=link_target("s3", "s2"),
                  params={"rate": 1.0, "start": 2.0, "end": None}, index=2),
    ]


def test_fabric_soak_outputs_pinned():
    telemetry = _ForkRecorder(scope="soak")
    result = fabric_soak(FabricSoakConfig(seed=3), _soak_schedule(),
                         telemetry=telemetry)
    assert result.ok, [v.to_dict() for v in result.violations]
    text = to_prometheus(telemetry.metrics)
    for family in ("chaos_switch_restarts_total",
                   "fancy_rejected_messages_total",
                   "fancy_link_failures_total",
                   "fancy_retransmissions_total"):
        assert family in text
    digests = {
        link_id: (_sha(fork.timeline.to_jsonl()), _sha(fork.traces.to_jsonl()))
        for link_id, fork in sorted(telemetry.forks.items())
    }
    assert digests == GOLDEN_SOAK_MONITORS
    assert _sha(text) == GOLDEN_SOAK_PROMETHEUS
