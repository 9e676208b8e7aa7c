"""``fancy-repro serve``: the long-running degraded-mode soak driver.

A serve runs a ring fabric under FANcY supervision for *simulated days*:
per-link monitors with paper-shaped (but coarser-clocked) counting
sessions, a rotating Zipf top-N dedicated entry set (entry churn via
:meth:`~repro.core.detector.FancyLinkMonitor.update_entries`), a
degradation ladder on every link, online I1–I6 invariant supervision,
and periodic health snapshots.  The default fault schedule is
``control-plane-grey``: asymmetric loss on one link's *reverse* (control)
channel only — the scenario the ladder exists for, where the data plane
is perfect and a naive detector would still declare LINK_DOWN.

Execution follows the fabric experiments' sharding contract
(docs/FABRIC.md): each monitored link runs as an isolated *probe*
simulation that is a pure function of ``(config, schedule, link_id)``,
and ``--shards N`` only changes how probes are batched across worker
processes.  Health snapshots, Prometheus text and trace JSONL are
byte-identical for any shard count and any same-seed rerun.

Clock scaling: a day of 50 ms sessions is ~1.7 M sessions per link —
far past what a Python event loop should burn CI minutes on.  The serve
configs instead scale every protocol timer up together (sessions,
retransmit timeout, grace), preserving the ratios that make the ladder
sound: ``tree_session_s < declare_grace_s < dead-channel exhaustion
floor`` (``rtx_timeout_s × 23/2``), so absorption covers report gaps at
grey loss rates while a dead channel still declares within one
exhaustion cycle.  The paper-default timer tests live in
``tests/service/``, at paper scale.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, Optional

from ..chaos.harness import soak_fancy_config
from ..chaos.schedule import FaultSpec
from ..fabric.builders import ring
from ..fabric.chaos import link_invariant_inputs, link_target, materialize_on_fabric
from ..fabric.deployment import FabricDeployment
from ..fabric.graph import FabricNetwork
from ..fabric.scenario import bind_fluid, link_payload, start_staggered
from ..fabric.sharding import merge_link_results, run_link_shards
from ..obs.health import FabricHealthReport
from ..runtime import DictConfig, RuntimeContext, stable_seed
from ..simulator.engine import Simulator
from ..telemetry import Telemetry
from ..traffic.zipf import assign_rates, sample_zipf_ranks
from .ladder import attach_ladder
from .supervision import InvariantSupervisor

__all__ = [
    "ServeConfig",
    "ServeResult",
    "default_serve_schedule",
    "churn_rotations",
    "run_serve",
]


@dataclass(frozen=True)
class ServeConfig(DictConfig):
    """Knobs of one serve soak (JSON-round-trippable)."""

    seed: int = 0
    ring_size: int = 6
    duration_s: float = 86_400.0       #: simulated horizon (one day)
    health_every_s: float = 21_600.0   #: health snapshot cadence
    supervise_every_s: float = 60.0    #: invariant observer tick cadence
    churn_every_s: float = 14_400.0    #: dedicated entry-set rotation cadence
    universe_size: int = 2_000         #: prefix universe the Zipf draws from
    top_n: int = 500                   #: dedicated (top-N) entry-set size
    n_flows: int = 24                  #: fluid flows over the heaviest entries
    zipf_alpha: float = 1.0
    total_rate_bps: float = 4_000_000.0
    packet_size: int = 400
    dedicated_session_s: float = 5.0
    tree_session_s: float = 6.0
    twait_s: float = 0.5
    rtx_timeout_s: float = 1.0
    #: absorption-recency window: when one sender FSM exhausts its
    #: retransmits, the exhaustion itself lasted the full backoff floor
    #: (23 × rtx), so the freshness proving the channel alive must come
    #: from the *other* FSM's reports — the grace must exceed **both**
    #: FSMs' verified-report gaps (session length + retry slack) and stay
    #: under the floor so a dead channel is denied on first exhaustion.
    declare_grace_s: float = 10.0
    max_absorbed_cycles: int = 3
    #: link whose *reverse* channel greys out (None disables the fault).
    grey_link: Optional[str] = "s1->s2"
    grey_rate: float = 0.2
    grey_start_s: float = 600.0
    #: how long the fault-rooted trace episode stays open (bounded so a
    #: day-long grey fault doesn't record a day of control spans).
    trace_window_s: float = 60.0

    @classmethod
    def quick(cls, seed: int = 0) -> "ServeConfig":
        """CI-sized serve: still a simulated day, coarser everything."""
        return cls(
            seed=seed, ring_size=4, universe_size=200, top_n=40, n_flows=6,
            churn_every_s=28_800.0, supervise_every_s=600.0,
            total_rate_bps=1_000_000.0, dedicated_session_s=10.0,
            tree_session_s=12.0, twait_s=1.0, rtx_timeout_s=2.0,
            declare_grace_s=20.0, grey_start_s=3_600.0,
            trace_window_s=120.0,
        )


@dataclass
class ServeResult:
    """Merged outcome of one serve (all links, all shards)."""

    config: ServeConfig
    links: list[str]
    snapshots: list[dict[str, Any]]
    ladder_states: dict[str, str]
    breaches: dict[str, int]
    violations: list[dict[str, Any]]
    detections: list[tuple[Any, ...]]
    sessions_completed: dict[str, int]
    absorbed_exhaustions: int
    prometheus: str
    trace_jsonl: str
    health_json: str
    events_processed: int
    fluid_absorbed: int
    shards: int = 1

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "ok": self.ok,
            "links": list(self.links),
            "snapshots": self.snapshots,
            "ladder_states": dict(self.ladder_states),
            "breaches": dict(self.breaches),
            "violations": list(self.violations),
            "detections": [list(r) for r in self.detections],
            "sessions_completed": dict(self.sessions_completed),
            "absorbed_exhaustions": self.absorbed_exhaustions,
            "events_processed": self.events_processed,
            "fluid_absorbed": self.fluid_absorbed,
            "shards": self.shards,
        }


# -- deterministic planning (pure functions of the config) ---------------------


def churn_rotations(config: ServeConfig) -> list[tuple[float, tuple[str, ...]]]:
    """``(apply_time, top-N entry tuple)`` per rotation; rotation 0 at t=0.

    Each rotation draws its top-N from the Zipf prefix universe with a
    rotation-derived seed, dedup-preserving rank popularity order and
    padding from the unseen head of the universe if the draw collapses —
    always exactly ``top_n`` distinct entries, pure in (seed, k).
    """
    out: list[tuple[float, tuple[str, ...]]] = []
    k = 0
    t = 0.0
    while t < config.duration_s:
        ranks = sample_zipf_ranks(
            config.universe_size, count=config.top_n * 3,
            alpha=config.zipf_alpha,
            seed=stable_seed(config.seed, "churn", k))
        distinct: list[int] = []
        seen: set[int] = set()
        for rank in ranks:
            if rank not in seen:
                seen.add(rank)
                distinct.append(rank)
            if len(distinct) == config.top_n:
                break
        for rank in range(config.universe_size):
            if len(distinct) == config.top_n:
                break
            if rank not in seen:
                seen.add(rank)
                distinct.append(rank)
        out.append((t, tuple(f"p/{rank}" for rank in distinct)))
        k += 1
        t = k * config.churn_every_s
        if config.churn_every_s <= 0:
            break
    return out


def _entry_endpoints(entry: str, ring_size: int) -> tuple[str, str]:
    """Spread entries around the ring: ``p/r`` flows s(r) → s(r+2)."""
    rank = int(entry.split("/", 1)[1])
    return f"s{rank % ring_size}", f"s{(rank + 2) % ring_size}"


def _flow_plan(config: ServeConfig,
               rotations: list[tuple[float, tuple[str, ...]]]
               ) -> dict[str, float]:
    """Entry → rate for the fixed fluid flow set (heaviest of rotation 0).

    Flows persist across churn — an entry rotated out of the top-N keeps
    sending and is simply counted by the tree tier instead (the dynamic
    tier membership the fluid engine re-evaluates every window).
    """
    entries = list(rotations[0][1][:config.n_flows])
    return dict(assign_rates(entries, config.total_rate_bps,
                             config.zipf_alpha))


def default_serve_schedule(config: ServeConfig) -> list[FaultSpec]:
    """``control-plane-grey`` on the reverse of ``config.grey_link``.

    The loss model only matches control-plane packets, so counter
    reports and ACKs returning over the greyed wire are dropped at
    ``grey_rate`` while every data packet crosses untouched — the
    false-LINK_DOWN trap the degradation ladder must absorb.
    """
    if config.grey_link is None or config.grey_rate <= 0:
        return []
    a, b = config.grey_link.split("->")
    return [FaultSpec(
        "control_loss",
        target=link_target(b, a),
        params={"rate": config.grey_rate,
                "start": config.grey_start_s, "end": None},
        index=0,
    )]


# -- the per-link probe --------------------------------------------------------


def _serve_probe(config: ServeConfig, schedule: list[FaultSpec],
                 link_id: str, link_seed: int) -> dict[str, Any]:
    """One link's serve — a pure function of (config, schedule, link).

    Builds a fresh ring, monitors exactly one link with a degradation
    ladder and an invariant observer, installs the full fault schedule
    (all probes observe the same fabric), binds the fluid flows that
    cross the link, rotates the dedicated entry set on the churn grid,
    and snapshots health on the health grid.  Nothing depends on shard
    grouping — the ``--shards`` byte-equality contract.
    """
    rotations = churn_rotations(config)
    flow_rates = _flow_plan(config, rotations)

    sim = Simulator()
    net = FabricNetwork(sim, ring(config.ring_size))
    all_entries: list[str] = []
    seen: set[str] = set()
    for _t, entries in rotations:
        for entry in entries:
            if entry not in seen:
                seen.add(entry)
                all_entries.append(entry)
    for entry in flow_rates:
        if entry not in seen:
            seen.add(entry)
            all_entries.append(entry)
    for entry in all_entries:
        src, dst = _entry_endpoints(entry, config.ring_size)
        net.add_entry(entry, src, dst)

    fancy = soak_fancy_config(
        config.seed, list(rotations[0][1]),
        dedicated_session_s=config.dedicated_session_s,
        tree_session_s=config.tree_session_s,
        rtx_timeout_s=config.rtx_timeout_s, twait_s=config.twait_s)
    telemetry = Telemetry(scope=link_id)
    deployment = FabricDeployment(net, config=fancy, links=[link_id],
                                  telemetry=telemetry)
    monitor = deployment.monitors[link_id]

    # A day-long grey fault on the reverse wire must not record a day of
    # control spans: its episode on this monitor closes after the window.
    materialized = materialize_on_fabric(
        schedule, config.seed, net, deployment,
        reverse_window_s=config.trace_window_s)

    ladder = attach_ladder(
        monitor, link_id=link_id,
        declare_grace_s=config.declare_grace_s,
        max_absorbed_cycles=config.max_absorbed_cycles)

    link_schedule, chaos_models = link_invariant_inputs(link_id, materialized)
    dedicated0 = list(rotations[0][1])
    best_effort0 = [e for e in flow_rates if e not in set(dedicated0)]
    supervisor = InvariantSupervisor(sim, telemetry=telemetry,
                                     interval_s=config.supervise_every_s)
    observer = supervisor.watch(
        link_id, monitor, link_schedule, dedicated0, best_effort0,
        links=[net.links[lid] for lid in sorted(net.links)],
        chaos_models=chaos_models)
    supervisor.start()

    engine = bind_fluid(deployment, flow_rates, packet_size=config.packet_size,
                        seed=config.seed, tag="flow",
                        loss_seeds={link_id: link_seed})

    # -- entry churn on the rotation grid -----------------------------------
    def _rotate(entries: tuple[str, ...]) -> None:
        monitor.update_entries(entries)
        observer.update_entries(
            list(entries),
            [e for e in flow_rates if e not in set(entries)])

    for t, entries in rotations[1:]:
        sim.schedule_at(t, _rotate, entries)

    start_staggered(deployment)

    # -- run with health snapshots on the health grid -----------------------
    def _snapshot(t: float, label: str) -> dict[str, Any]:
        report = FabricHealthReport.from_deployment(
            deployment, sim_time=t, ladders={link_id: ladder},
            breaches={link_id: _tally(v.invariant for v in observer.breaches)})
        row = report.links[0].to_dict()
        return {"t": t, "label": label, "link": row}

    snapshots: list[dict[str, Any]] = []
    t = config.health_every_s
    while t < config.duration_s:
        sim.run(until=t)
        snapshots.append(_snapshot(t, f"t+{t:.0f}s"))
        t += config.health_every_s
    sim.run(until=config.duration_s)

    # -- wind-down: stop, drain, final checks, final snapshot ---------------
    supervisor.stopped = True
    deployment.stop()
    sim.run()
    supervisor.finalize(horizon=config.duration_s)
    snapshots.append(_snapshot(config.duration_s, "final"))

    return {
        **link_payload(deployment, link_id, engine),
        "snapshots": snapshots,
        "violations": [v.to_dict() for v in observer.breaches],
        "ladder": {
            "state": ladder.state.value,
            "transitions": ladder.transitions,
            "absorbed_streak": ladder.absorbed_streak,
        },
        "absorbed_exhaustions": sum(
            fsm.absorbed_exhaustions
            for fsm in (monitor.dedicated_sender, monitor.tree_sender)
            if fsm is not None),
    }


def _tally(keys: Iterable[str]) -> dict[str, int]:
    """Occurrences per key, in sorted key order."""
    return dict(sorted(Counter(keys).items()))


# -- sharded execution and merge -----------------------------------------------


def _merge_health(per_link: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold per-probe snapshot rows into fabric-wide snapshots by time.

    All probes share the same health grid (it is a pure function of the
    config), so grouping by snapshot index gives one fabric snapshot per
    grid point, links in sorted id order — byte-stable under sharding.
    """
    ordered = sorted(per_link)
    if not ordered:
        return []
    depth = min(len(per_link[lid]["snapshots"]) for lid in ordered)
    merged: list[dict[str, Any]] = []
    for i in range(depth):
        first = per_link[ordered[0]]["snapshots"][i]
        rows = [per_link[lid]["snapshots"][i]["link"] for lid in ordered]
        merged.append({
            "t": first["t"],
            "label": first["label"],
            "status": _tally(row["status"] for row in rows),
            "links": rows,
        })
    return merged


def run_serve(config: Optional[ServeConfig] = None,
              schedule: Optional[list[FaultSpec]] = None,
              shards: int = 1,
              runtime: Optional[RuntimeContext] = None) -> ServeResult:
    """Run one serve soak, sharded across worker processes.

    ``schedule`` defaults to :func:`default_serve_schedule` (control-
    plane-grey on the configured link's reverse channel).  The merged
    result is a pure function of ``(config, schedule)`` — shard count
    and worker scheduling cannot change a byte of it.
    """
    config = config or ServeConfig()
    if schedule is None:
        schedule = default_serve_schedule(config)
    per_link, n_shards = run_link_shards(
        _serve_probe, (config, schedule),
        FabricNetwork(Simulator(), ring(config.ring_size)).directed_link_ids(),
        shards, seed=config.seed,
        fingerprint_parts=("serve", config, [s.to_dict() for s in schedule]),
        sim_s=config.duration_s, label="serve", runtime=runtime)
    merged = merge_link_results(per_link)
    ordered = merged["links"]
    snapshots = _merge_health(per_link)
    violations = [v for lid in ordered for v in per_link[lid]["violations"]]
    breaches = _tally(v["invariant"] for v in violations)
    ladder_states = {lid: per_link[lid]["ladder"]["state"] for lid in ordered}
    health_json = json.dumps(
        {"snapshots": snapshots, "ladder_states": ladder_states,
         "breaches": breaches},
        sort_keys=True)

    return ServeResult(
        config=config,
        links=list(ordered),
        snapshots=snapshots,
        ladder_states=ladder_states,
        breaches=breaches,
        violations=violations,
        detections=merged["detections"],
        sessions_completed=merged["sessions_completed"],
        absorbed_exhaustions=sum(
            per_link[lid]["absorbed_exhaustions"] for lid in ordered),
        prometheus=merged["prometheus"],
        trace_jsonl=merged["trace_jsonl"],
        health_json=health_json,
        events_processed=merged["events_processed"],
        fluid_absorbed=merged["fluid_absorbed"],
        shards=n_shards,
    )
