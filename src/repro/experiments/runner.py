"""Shared experiment runner for the §5.1 benchmarking experiments.

``run_entry_failure`` builds the canonical evaluation setup — the
two-switch topology, FANcY on the monitored link, one TCP flow generator
per entry — injects a gray failure on a chosen subset of entries at a
random time, runs the simulation, and scores TPR / detection time /
false positives.

Scaling knobs (`max_pps_per_entry`, `duration_s`, `repetitions`) let the
same code run both the paper-faithful configuration and the reduced
configuration the default benchmark harness uses.  Packet-rate capping
preserves the heatmap *shape*: detection depends on packets observed per
counting session, which saturates far below the fattest grid entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.detector import FancyConfig, FancyLinkMonitor
from ..core.hashtree import HashTreeParams
from ..core.output import FailureKind
from ..runtime.jobs import stable_seed
from ..simulator.apps import FlowGenerator
from ..simulator.engine import Simulator
from ..simulator.failures import EntryLossFailure, UniformLossFailure
from ..simulator.topology import TwoSwitchTopology
from ..telemetry import Telemetry
from ..traffic.synthetic import EntrySize
from .metrics import CellResult, RunResult

__all__ = ["ExperimentSpec", "run_entry_failure", "run_cell"]

#: Default tree geometry of the evaluation (§5: depth 3, split 2, width 190).
EVAL_TREE = HashTreeParams(width=190, depth=3, split=2, pipelined=True)


@dataclass
class ExperimentSpec:
    """Configuration of one entry-failure experiment.

    Attributes:
        entry_size: traffic profile of each failed entry.
        loss_rate: per-packet drop probability of the gray failure
            (1.0 = blackhole).
        n_failed: number of entries failing simultaneously.
        n_background: healthy entries sharing the link and tree.
        background_size: traffic profile of background entries (defaults
            to the failed-entry profile).
        mode: ``"dedicated"`` — failed entries get dedicated counters,
            tree disabled (§5.1.1); ``"tree"`` — no dedicated counters,
            everything on the tree (§5.1.2); ``"full"`` — both.
        tree_params: tree geometry (``mode != "dedicated"``).
        dedicated_session_s / tree_session_s: exchange frequency and
            zooming speed.
        link_delay_s: monitored-link one-way delay (paper: 10 ms).
        duration_s: experiment horizon after which TPR/latency are scored.
        failure_window_s: failure starts uniformly in [0.5, window].
        max_pps_per_entry: packet-rate cap per entry (None = uncapped).
        uniform: inject a uniform (all-entry) failure instead of
            per-entry failures.
        seed: base RNG seed.
    """

    entry_size: EntrySize = field(default_factory=lambda: EntrySize(1e6, 50))
    loss_rate: float = 0.1
    n_failed: int = 1
    n_background: int = 10
    background_size: Optional[EntrySize] = None
    mode: str = "dedicated"
    tree_params: HashTreeParams = EVAL_TREE
    dedicated_session_s: float = 0.050
    tree_session_s: float = 0.200
    link_delay_s: float = 0.010
    duration_s: float = 30.0
    failure_window_s: float = 2.0
    max_pps_per_entry: Optional[float] = None
    uniform: bool = False
    seed: int = 0
    suppress_known: bool = True

    def effective_entry_size(self) -> EntrySize:
        if self.max_pps_per_entry is None:
            return self.entry_size
        return self.entry_size.scaled(self.max_pps_per_entry)

    def effective_background_size(self) -> EntrySize:
        base = self.background_size or self.entry_size
        if self.max_pps_per_entry is None:
            return base
        return base.scaled(self.max_pps_per_entry)


def run_entry_failure(spec: ExperimentSpec, rep: int = 0,
                      telemetry: Optional[Telemetry] = None) -> RunResult:
    """One repetition of an entry-failure experiment.

    The setup RNG is seeded with an explicit hashlib derivation over
    ``(seed, rep, "setup")`` (see :func:`repro.runtime.jobs.stable_seed`)
    so repetitions are reproducible across processes and Python versions
    — a requirement for the parallel runtime's cache correctness.

    When a :class:`~repro.telemetry.Telemetry` session is given, the
    engine, topology, and monitor are instrumented, a ``fault_injected``
    fact is reported per failed entry at the injection instant, and the
    scored :class:`RunResult` carries the per-entry detection records
    under ``extra["detections"]`` (the timeline's injection→flag
    pairing; see :meth:`repro.telemetry.StateTimeline.detection_records`).
    """
    rng = random.Random(stable_seed(spec.seed, rep, "setup"))
    sim = Simulator(telemetry=telemetry)

    failed = [f"failed/{i}" for i in range(spec.n_failed)]
    background = [f"bg/{i}" for i in range(spec.n_background)]
    failure_time = rng.uniform(0.5, max(0.6, spec.failure_window_s))

    if spec.uniform:
        failure = UniformLossFailure(
            spec.loss_rate, start_time=failure_time, seed=rng.randrange(2 ** 31)
        )
    else:
        failure = EntryLossFailure(
            failed, spec.loss_rate, start_time=failure_time, seed=rng.randrange(2 ** 31)
        )
    topo = TwoSwitchTopology(sim, link_delay_s=spec.link_delay_s, loss_model=failure,
                             telemetry=telemetry)

    if spec.mode == "dedicated":
        config = FancyConfig(
            high_priority=list(failed),
            tree_params=None,
            dedicated_session_s=spec.dedicated_session_s,
            seed=spec.seed + rep,
        )
    elif spec.mode == "tree":
        config = FancyConfig(
            high_priority=[],
            tree_params=spec.tree_params,
            tree_session_s=spec.tree_session_s,
            seed=spec.seed + rep,
            suppress_known=spec.suppress_known,
        )
    elif spec.mode == "full":
        config = FancyConfig(
            high_priority=list(failed),
            tree_params=spec.tree_params,
            dedicated_session_s=spec.dedicated_session_s,
            tree_session_s=spec.tree_session_s,
            seed=spec.seed + rep,
            suppress_known=spec.suppress_known,
        )
    else:
        raise ValueError(f"unknown mode {spec.mode!r}")

    monitor = FancyLinkMonitor(sim, topo.upstream, 1, topo.downstream, 1, config,
                               telemetry=telemetry)

    if telemetry is not None:
        def _mark_injection() -> None:
            if spec.uniform:
                telemetry.emit("fault_injected", sim.now, "failure",
                               kind="uniform", loss_rate=spec.loss_rate)
                return
            for entry in failed:
                hp = (monitor.tree_strategy.tree.hash_path(entry)
                      if monitor.tree_strategy is not None else None)
                telemetry.emit("fault_injected", sim.now, "failure",
                               entry=entry, hash_path=hp,
                               loss_rate=spec.loss_rate)

        sim.schedule_at(failure_time, _mark_injection)

    entry_profile = spec.effective_entry_size()
    bg_profile = spec.effective_background_size()
    generators = []
    for i, entry in enumerate(failed):
        generators.append(FlowGenerator(
            sim, topo.source, entry,
            rate_bps=entry_profile.rate_bps,
            flows_per_second=entry_profile.flows_per_second,
            seed=rng.randrange(2 ** 31),
            flow_id_base=(i + 1) * 10_000_000,
        ))
    for j, entry in enumerate(background):
        generators.append(FlowGenerator(
            sim, topo.source, entry,
            rate_bps=bg_profile.rate_bps,
            flows_per_second=bg_profile.flows_per_second,
            seed=rng.randrange(2 ** 31),
            flow_id_base=(spec.n_failed + j + 1) * 10_000_000,
        ))
    for gen in generators:
        gen.start()
    monitor.start()
    sim.run(until=spec.duration_s)

    result = _score(spec, monitor, failed, background, failure_time)
    if telemetry is not None:
        result.extra["detections"] = [
            record.to_dict() for record in telemetry.detection_records()
        ]
    return result


def _score(
    spec: ExperimentSpec,
    monitor: FancyLinkMonitor,
    failed: Sequence[str],
    background: Sequence[str],
    failure_time: float,
) -> RunResult:
    horizon = spec.duration_s - failure_time
    detection_times: list[float] = []
    detected = 0

    if spec.uniform:
        # Uniform failures are detected as a single "all entries" report.
        report = monitor.log.first_report(kind=FailureKind.UNIFORM)
        n_detected = 1 if report is not None else 0
        times = [report.time - failure_time] if report is not None else []
        return RunResult(
            n_failed=1, n_detected=n_detected, detection_times=times,
            false_positives=0, horizon_s=horizon,
            extra={"failure_time": failure_time},
        )

    for entry in failed:
        when = _first_detection_time(monitor, entry)
        if when is not None and when >= failure_time:
            detected += 1
            detection_times.append(when - failure_time)
    false_positives = sum(1 for entry in background if monitor.entry_is_flagged(entry))
    return RunResult(
        n_failed=len(failed),
        n_detected=detected,
        detection_times=detection_times,
        false_positives=false_positives,
        horizon_s=horizon,
        extra={"failure_time": failure_time},
    )


def _first_detection_time(monitor: FancyLinkMonitor, entry: str) -> Optional[float]:
    """Earliest report that flags ``entry`` (dedicated or tree path)."""
    report = monitor.log.first_report(kind=FailureKind.DEDICATED_ENTRY, entry=entry)
    if report is not None:
        return report.time
    if monitor.tree_strategy is not None:
        hp = monitor.tree_strategy.tree.hash_path(entry)
        report = monitor.log.first_report(kind=FailureKind.TREE_LEAF, hash_path=hp)
        if report is not None:
            return report.time
    return None


def run_cell(spec: ExperimentSpec, repetitions: int = 3,
             telemetry: Optional[Telemetry] = None) -> CellResult:
    """Run one heatmap cell: ``repetitions`` randomized repetitions.

    With telemetry, each repetition runs under a forked session — shared
    :class:`~repro.telemetry.MetricsRegistry` accumulating across reps,
    fresh :class:`~repro.telemetry.StateTimeline` per repetition (the
    simulated clock restarts at zero each rep).
    """
    cell = CellResult()
    for rep in range(repetitions):
        session = telemetry.fork() if telemetry is not None else None
        cell.add(run_entry_failure(spec, rep=rep, telemetry=session))
    return cell
