"""Fabric-addressed chaos: fault schedules on fabric links + ring soak.

The two-switch chaos subsystem addresses faults as ``"forward"`` /
``"reverse"``; a fabric has many links, so fabric schedules address a
*directed link id*: ``target="link:s1->s2"``.  The specs are otherwise
unchanged :class:`~repro.chaos.schedule.FaultSpec` objects — same JSON
shape, same per-fault seed derivation ``stable_seed(base, "fault",
index)`` (FCY007), so fabric schedules shrink and replay with the
existing tooling.

:func:`fabric_soak` is the invariant-checked soak on a six-switch ring:
UDP entries cross three monitored hops, a fabric-link-addressed fault
schedule runs, and the robustness invariants I1–I6 of
:mod:`repro.chaos.invariants` are asserted *per monitored link*, one
:class:`~repro.chaos.invariants.LinkInvariantObserver` each — the
faulted link's monitor must flag exactly the covered entries, every
other monitor must stay silent, and conservation/integrity hold on
every wire.  :func:`link_invariant_inputs` derives what each monitor's
observer sees; the serve soak uses the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..chaos.harness import SoakResult, soak_entries, soak_fancy_config
from ..chaos.invariants import LinkInvariantObserver
from ..chaos.perturbations import ChaosModel, Perturbation
from ..chaos.schedule import FaultSpec, build_loss, build_perturbation
from ..core.output import FailureKind
from ..runtime import DictConfig, stable_seed
from ..simulator.engine import Simulator
from ..simulator.failures import CompositeFailure, GrayFailure
from ..simulator.udp import UdpSource
from .builders import ring
from .deployment import FabricDeployment
from .graph import FabricNetwork
from .scenario import open_fault_episode, start_udp

__all__ = [
    "LINK_TARGET_PREFIX",
    "link_target",
    "parse_link_target",
    "as_directional",
    "link_invariant_inputs",
    "fault_start",
    "FabricMaterialized",
    "materialize_on_fabric",
    "FabricSoakConfig",
    "fabric_soak",
]

LINK_TARGET_PREFIX = "link:"


def link_target(a: str, b: str) -> str:
    """The ``FaultSpec.target`` string addressing directed link a→b."""
    return f"{LINK_TARGET_PREFIX}{a}->{b}"


def parse_link_target(target: str) -> str | None:
    """``"link:A->B"`` → ``"A->B"``; ``None`` for non-link targets."""
    if target.startswith(LINK_TARGET_PREFIX):
        return target[len(LINK_TARGET_PREFIX):]
    return None


def as_directional(spec: FaultSpec) -> FaultSpec:
    """Translate a link-addressed spec for the two-switch invariants.

    The invariant checkers classify loss faults by ``target ==
    "forward"``; from the perspective of the faulted link's own monitor
    a ``link:`` target *is* the forward (data) direction.
    """
    return FaultSpec(kind=spec.kind, target="forward",
                     params=dict(spec.params), index=spec.index)


def link_invariant_inputs(
    link_id: str, materialized: FabricMaterialized,
) -> tuple[list[FaultSpec], list[ChaosModel]]:
    """The schedule and chaos models one fabric monitor's invariants see.

    FANcY's counting protocol is bidirectional: Start/Stop ride the
    monitored wire ``A->B``, StartACK and Reports come back on ``B->A``.
    So a spec on the monitored link itself is its *forward* (data)
    direction, and a spec on the opposite directed link is its *reverse*
    (control-return) channel — which is how a ``control_loss`` on
    ``B->A`` legitimately explains a LINK_DOWN declared by ``A->B``'s
    monitor.  Likewise the corrupted control messages the monitor's FSMs
    reject are counted on both wires' chaos models.
    """
    a, b = link_id.split("->")
    reverse_id = f"{b}->{a}"
    schedule: list[FaultSpec] = []
    for spec in materialized.schedule:
        target = parse_link_target(spec.target)
        if target == link_id:
            schedule.append(as_directional(spec))
        elif target == reverse_id:
            schedule.append(FaultSpec(kind=spec.kind, target="reverse",
                                      params=dict(spec.params),
                                      index=spec.index))
    return schedule, materialized.chaos_models_for(link_id, reverse_id)


@dataclass
class FabricMaterialized:
    """Live fault objects per fabric link, for invariant bookkeeping."""

    schedule: list[FaultSpec]
    #: link id -> loss models installed on that wire.
    losses: dict[str, list[GrayFailure]] = field(default_factory=dict)
    #: link id -> chaos (perturbation) model attached to that wire.
    chaos: dict[str, ChaosModel] = field(default_factory=dict)
    restarts: list[FaultSpec] = field(default_factory=list)

    def chaos_models_for(self, *link_ids: str) -> list[ChaosModel]:
        return [self.chaos[lid] for lid in link_ids if lid in self.chaos]


def materialize_on_fabric(
    schedule: list[FaultSpec],
    base_seed: int,
    net: FabricNetwork,
    deployment: FabricDeployment | None = None,
) -> FabricMaterialized:
    """Wire link-addressed faults onto a fabric.

    Loss faults compose per link through :class:`CompositeFailure`,
    perturbations through one :class:`ChaosModel` per link, and
    ``switch_restart`` specs (their link id naming the monitored link
    whose monitor reboots) become engine events — mirroring
    :func:`repro.chaos.schedule.materialize` on the two-switch topology.
    """
    out = FabricMaterialized(schedule=list(schedule))
    perts: dict[str, list[Perturbation]] = {}
    for spec in schedule:
        link_id = parse_link_target(spec.target)
        if link_id is None:
            raise ValueError(
                f"fabric schedules need link-addressed targets, got "
                f"{spec.target!r} (use link_target(a, b))")
        net.endpoints(link_id)  # validate early: unknown links fail loudly
        seed = stable_seed(base_seed, "fault", spec.index)
        if deployment is not None:
            open_fault_episode(deployment, link_id, fault_start(spec),
                               spec.kind, target=spec.target,
                               index=spec.index, params=spec.params)
        if spec.kind in ("entry_loss", "uniform_loss", "control_loss"):
            out.losses.setdefault(link_id, []).append(build_loss(spec, seed))
        elif spec.kind == "switch_restart":
            if deployment is None or link_id not in deployment.monitors:
                raise ValueError(
                    f"switch_restart targets monitored link {link_id!r}, "
                    "which has no monitor deployed")
            out.restarts.append(spec)
            monitor = deployment.monitors[link_id]
            net.sim.schedule_at(float(spec.params["time"]), monitor.restart,
                                str(spec.params["side"]))
        else:
            perts.setdefault(link_id, []).append(
                build_perturbation(spec, seed))
    for link_id, models in out.losses.items():
        net.links[link_id].loss_model = CompositeFailure(models)
    for link_id, plist in perts.items():
        out.chaos[link_id] = ChaosModel(
            plist, name=link_id).attach(net.links[link_id])
    return out


def fault_start(spec: FaultSpec) -> float:
    """Activation time of a fault spec (``start``/``time`` param, else 0)."""
    for key in ("start", "time"):
        value = spec.params.get(key)
        if value is not None:
            return float(value)
    return 0.0


# -- the ring soak -------------------------------------------------------------


@dataclass(frozen=True)
class FabricSoakConfig(DictConfig):
    """Knobs of the six-switch ring soak (JSON-round-trippable)."""

    seed: int = 0
    ring_size: int = 6
    duration_s: float = 3.5          #: traffic horizon
    grace_s: float = 2.5             #: monitor-only tail for late detections
    checkpoint_s: float = 0.25       #: I1/I2 sampling period
    n_dedicated: int = 3
    n_best_effort: int = 2
    rate_bps: float = 640_000.0
    packet_size: int = 400
    fault_link: str = "s1->s2"       #: directed fabric link the fault hits
    fault_rate: float = 0.9
    fault_start_s: float = 0.5


def default_fabric_schedule(config: FabricSoakConfig) -> list[FaultSpec]:
    """The pinned soak schedule: one persistent entry-loss gray failure
    addressed to ``config.fault_link``, covering every entry."""
    dedicated, best_effort = soak_entries(config)
    return [FaultSpec(
        "entry_loss",
        target=LINK_TARGET_PREFIX + config.fault_link,
        params={"entries": dedicated + best_effort,
                "rate": config.fault_rate,
                "start": config.fault_start_s, "end": None},
        index=0,
    )]


def fabric_soak(config: FabricSoakConfig,
                schedule: list[FaultSpec] | None = None,
                telemetry: Any | None = None) -> SoakResult:
    """One invariant-checked soak on the ring fabric.

    Entries travel ``s0 → s2`` over the unique two-hop shortest path
    (``dst`` is chosen off the ring's antipode so ECMP never splits the
    flows), crossing monitors on ``s0->s1`` and ``s1->s2``; a third
    monitor on ``s2->s3`` carries no entry traffic and acts as the
    false-positive sentinel.  Each monitor's observer ticks at every
    checkpoint and runs its drain-time checks after a full drain; the
    first observer owns conservation of every wire of the ring.
    """
    if config.ring_size < 4:
        raise ValueError("the ring soak needs at least four switches")
    dedicated, best_effort = soak_entries(config)
    if schedule is None:
        schedule = default_fabric_schedule(config)

    sim = Simulator()
    net = FabricNetwork(sim, ring(config.ring_size))
    src, dst, sentinel_hop = "s0", "s2", "s3"
    for entry in dedicated + best_effort:
        net.add_entry(entry, src, dst)
    monitored = ["s0->s1", "s1->s2", f"{dst}->{sentinel_hop}"]

    deployment = FabricDeployment(
        net, config=soak_fancy_config(config.seed, dedicated),
        links=monitored, telemetry=telemetry)

    sources: list[UdpSource] = []
    for i, entry in enumerate(dedicated + best_effort):
        source = start_udp(net, entry, i, config.rate_bps, config.packet_size,
                           stable_seed(config.seed, "src", i), 0.001 * i)
        sources.append(source)
        sim.schedule_at(config.duration_s, source.stop)

    materialized = materialize_on_fabric(schedule, config.seed, net,
                                         deployment)
    deployment.start(stagger_s=0.005)

    wires = [net.links[lid] for lid in sorted(net.links)]
    observers: list[LinkInvariantObserver] = []
    for lid, monitor in deployment.monitors.items():
        link_schedule, chaos_models = link_invariant_inputs(lid,
                                                            materialized)
        observers.append(LinkInvariantObserver(
            monitor, link_schedule, dedicated, best_effort,
            [] if observers else wires, chaos_models, link_id=lid))
    end = config.duration_s + config.grace_s
    t = config.checkpoint_s
    while t < end + config.checkpoint_s / 2:
        sim.run(until=min(t, end))
        for observer in observers:
            observer.tick(sim.now)
        t += config.checkpoint_s

    # -- wind-down: stop monitors, then drain to quiescence -----------------
    deployment.stop()
    sim.run()
    for observer in observers:
        observer.final(sim.now, horizon=config.duration_s)

    if telemetry is not None:
        for monitor in deployment.monitors.values():
            monitor.telemetry.traces.finalize(sim.now)

    stats = {
        "sim_time": sim.now,
        "packets_sent": sum(s.packets_sent for s in sources),
        "links": {lid: net.links[lid].stats.as_dict() for lid in monitored},
        "sessions_completed": deployment.sessions_completed(),
        "reports": {
            lid: {kind.value: n for kind in FailureKind
                  if (n := len(mon.log.by_kind(kind)))}
            for lid, mon in deployment.monitors.items()
        },
        "detections": deployment.detection_records(),
    }
    if telemetry is not None:
        stats["trace_spans"] = {
            lid: len(mon.telemetry.traces)
            for lid, mon in deployment.monitors.items()
        }
    return SoakResult(seed=config.seed,
                      violations=[v for o in observers for v in o.breaches],
                      schedule=list(schedule), stats=stats)
