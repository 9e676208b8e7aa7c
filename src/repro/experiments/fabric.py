"""Experiment fabric — network-wide FANcY with detection→reroute loop.

Scales the paper's Figure 10 case study from one monitored link to a
fabric (docs/FABRIC.md):

* **ring** — a six-switch ring with FANcY on every directed link.  A
  gray failure hits one link on a victim entry's path; the fabric
  controller installs a loop-free repair path and the victim's goodput
  recovers, while an innocent entry sharing the path is never touched —
  the single-link Figure 10 contract, reproduced through the generic
  fabric machinery.
* **fat_tree** — a k=4 fat tree with FANcY on all 64 directed links
  (≥ 32 concurrent counting sessions).  A failure on one link of a
  flow's ECMP path must be flagged by *exactly* that link's monitor
  (per-link attribution), rerouted around, and the whole run must be
  deterministic: the per-link detection records are a pure function of
  the seed.

Both cases report detection latency (failure → first flag), reroute
latency (failure → repair path installed) and the recovered goodput
fraction, the fabric analogue of Figure 10's recovery plot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..core.detector import FancyConfig
from ..core.output import FailureKind
from ..fabric.builders import fat_tree, ring
from ..fabric.deployment import FabricDeployment
from ..fabric.graph import FabricNetwork
from ..fabric.reroute import FabricRerouteController
from ..fabric.scenario import (bind_fluid, egress_legs, link_payload,
                               open_fault_episode, start_staggered, start_udp)
from ..runtime import Job, RuntimeContext, fingerprint, resolve, run_sweep, stable_seed
from ..simulator.apps import ThroughputMeter
from ..simulator.engine import Simulator
from ..simulator.failures import EntryLossFailure

__all__ = ["FabricExpConfig", "run_ring_case", "run_fat_tree_case", "run",
           "run_sharded", "render", "main"]

#: Background flows get ids far above the high-priority range so the two
#: namespaces can never collide in flowlet hashing or fluid bindings.
_BG_FLOW_BASE = 1000



@dataclass(frozen=True)
class FabricExpConfig:
    ring_size: int = 6
    fat_tree_k: int = 4
    n_entries: int = 4               #: fat-tree entries (one per pod pair)
    rate_bps: float = 640_000.0
    packet_size: int = 400
    failure_time_s: float = 1.0
    loss_rate: float = 1.0
    duration_s: float = 4.0
    fat_tree_duration_s: float = 2.5
    poll_interval_s: float = 0.050
    dedicated_session_s: float = 0.050
    link_delay_s: float = 0.010
    bin_s: float = 0.1
    seed: int = 0
    #: Record causal detection traces (repro.obs).  Part of the frozen
    #: config on purpose: it changes the result payload, so it must
    #: change the content-addressed cache fingerprint too.
    trace: bool = False
    #: Hybrid fluid/packet mode (docs/PERFORMANCE.md): background
    #: entries become piecewise-constant rate segments absorbed into the
    #: counters at counting-window boundaries instead of per-packet
    #: events.  High-priority entries always stay discrete — they drive
    #: detection, reroute and goodput metering.
    fluid: bool = False
    #: Best-effort entries sharing the high-priority endpoints — the
    #: traffic the fluid model absorbs (and the discrete engine pays
    #: for, one event per packet per hop).
    background_entries: int = 0
    background_rate_bps: float = 4_000_000.0
    background_packet_size: int = 400
    #: Deploy the default hash tree on every monitor so background
    #: entries are actually counted (zoomed over) rather than merely
    #: forwarded.
    tree: bool = False


def _mean_bps(series: list[tuple[float, float]], lo: float, hi: float) -> float:
    window = [bps for t, bps in series if lo <= t < hi]
    return sum(window) / len(window) if window else 0.0


def _first_flag_time(deployment: FabricDeployment, link_id: str,
                     entry: Any) -> Optional[float]:
    report = deployment.monitors[link_id].log.first_report(
        FailureKind.DEDICATED_ENTRY, entry)
    return report.time if report is not None else None


def _run_case(case: str, config: FabricExpConfig, telemetry: Any = None,
              link: Optional[str] = None, link_seed: int = 0) -> tuple:
    """Build and run one case; ``(plan, deployment, controller, meters, fluid)``.

    ``link=None`` is the closed loop: every link monitored, reroute
    controller, goodput meters.  A link id makes that link's probe
    (docs/FABRIC.md): one monitor, only the flows crossing it, fluid loss
    seeded from ``link_seed``, no reroute, no meters.  Both install the
    planned failure, so every probe observes the same fabric.
    """
    plan = _case_plan(case, config)
    net = _build_net(case, config)
    entries = plan["entries"]
    # Best-effort entries cycling the high-priority endpoint pairs.
    pairs = list(entries.values())
    bg = {f"bg/{j}": pairs[j % len(pairs)]
          for j in range(config.background_entries)}
    for entry, (src, dst) in [*entries.items(), *bg.items()]:
        net.add_entry(entry, src, dst)

    fancy = FancyConfig(
        high_priority=list(entries),
        dedicated_session_s=config.dedicated_session_s,
        seed=stable_seed(config.seed, "fabric-exp", bits=31),
    )
    if not config.tree:
        # Dedicated counters only: one cheap session per link.
        fancy = replace(fancy, tree_params=None)
    deployment = FabricDeployment(net, config=fancy, telemetry=telemetry,
                                  links=None if link is None else [link])
    controller = None
    if link is None:
        controller = FabricRerouteController(
            net, deployment, poll_interval_s=config.poll_interval_s)

    failed_link, victim = plan["failed_link"], plan["victim"]
    net.links[failed_link].loss_model = EntryLossFailure(
        {victim}, config.loss_rate, start_time=config.failure_time_s,
        seed=stable_seed(config.seed, "failure", failed_link, bits=31),
    )
    # The experiment harness is the root cause here: the failed link's
    # episode opens exactly when the loss model activates.
    open_fault_episode(deployment, failed_link, config.failure_time_s,
                       "entry_loss", entry=victim, rate=config.loss_rate)

    meters: dict[str, ThroughputMeter] = {}
    if link is None:
        for _src, dst in entries.values():
            if dst not in meters:
                meters[dst] = ThroughputMeter(net.sim, bin_s=config.bin_s,
                                              per_entry=True)
                net.host(dst).rx_tap = meters[dst]

    def crosses(entry: Any, flow_id: int, packet_size: int) -> bool:
        return link is None or egress_legs(net, entry, flow_id, link,
                                           packet_size) is not None

    for i, entry in enumerate(entries):
        if crosses(entry, i, config.packet_size):
            start_udp(net, entry, i, config.rate_bps, config.packet_size,
                      stable_seed(config.seed, "src", i), 0.001 * i)
    fluid = None
    if bg and config.fluid:
        loss_seeds = {lid: link_seed if link is not None else
                      stable_seed(config.seed, "fluid-loss", lid, bits=31)
                      for lid in deployment.monitors}
        fluid = bind_fluid(
            deployment, {entry: config.background_rate_bps for entry in bg},
            packet_size=config.background_packet_size, seed=config.seed,
            tag="bg", loss_seeds=loss_seeds, flow_base=_BG_FLOW_BASE)
    else:
        for j, entry in enumerate(bg):
            if crosses(entry, _BG_FLOW_BASE + j, config.background_packet_size):
                start_udp(net, entry, _BG_FLOW_BASE + j,
                          config.background_rate_bps,
                          config.background_packet_size,
                          stable_seed(config.seed, "bg", j), 0.0005 * (j + 1))

    start_staggered(deployment)
    if controller is not None:
        controller.start()
    net.sim.run(until=plan["duration_s"])
    return plan, deployment, controller, meters, fluid


def _close_the_loop(case: str, config: FabricExpConfig,
                    telemetry: Any = None) -> dict[str, Any]:
    """Closed-loop case: monitors everywhere, one failure, reroute."""
    plan, deployment, controller, meters, fluid = _run_case(
        case, config, telemetry)
    sim = deployment.net.sim
    failed_link, victim = plan["failed_link"], plan["victim"]
    duration_s = plan["duration_s"]
    series = meters[plan["entries"][victim][1]].entry_series_bps(victim)
    detect_at = _first_flag_time(deployment, failed_link, victim)
    reroute_at = controller.reroute_times.get((failed_link, victim))
    pre = _mean_bps(series, 0.3, config.failure_time_s)
    post = (0.0 if reroute_at is None else
            _mean_bps(series, reroute_at + 0.3, duration_s))
    flagged = deployment.flagged()
    obs: dict[str, Any] | None = None
    if telemetry is not None:
        from ..obs.health import FabricHealthReport

        spans: list[dict[str, Any]] = []
        for monitor in deployment.monitors.values():
            traces = monitor.telemetry.traces
            traces.finalize(sim.now)
            spans.extend(traces.span_dicts())
        health = FabricHealthReport.from_deployment(
            deployment, controller=controller, sim_time=sim.now)
        obs = {"health": health.to_dict(), "spans": spans}
    return {
        "n_sessions": deployment.n_sessions,
        "failed_link": failed_link,
        "victim": victim,
        "detection_delay": (None if detect_at is None
                            else detect_at - config.failure_time_s),
        "reroute_delay": (None if reroute_at is None
                          else reroute_at - config.failure_time_s),
        "recovery_fraction": (post / pre) if pre > 0 else None,
        "rerouted_packets": controller.rerouted_packets,
        "flagged_links": {lid: [repr(e) for e in ents]
                          for lid, ents in flagged.items()},
        "attribution_correct": list(flagged) == [failed_link]
        and all(list(ents) == [victim] for ents in flagged.values()),
        "sessions_completed_min": min(
            deployment.sessions_completed().values()),
        "detections": deployment.detection_records(),
        "events_processed": sim.events_processed,
        "fluid_absorbed": fluid.absorbed if fluid else 0,
        "fluid_lost": fluid.lost if fluid else 0,
        "obs": obs,
    }


def _build_net(case: str, config: FabricExpConfig) -> FabricNetwork:
    """A fresh case network on a fresh simulator."""
    topo = (ring(config.ring_size) if case == "ring"
            else fat_tree(config.fat_tree_k))
    return FabricNetwork(Simulator(), topo, link_delay_s=config.link_delay_s)


def _case_plan(case: str, config: FabricExpConfig) -> dict[str, Any]:
    """Entries / victim / failed link / horizon for a case.

    The one source of a case's scenario and horizon: the closed loop,
    the sharded per-link probes and the job ``sim_s`` estimates all read
    it, so every run of a config observes the *same* fabric scenario.
    """
    if case == "ring":
        # s0 → s2 has a unique two-hop shortest path, so the failed link
        # s1->s2 is guaranteed on it; the innocent entry shares the path.
        return {
            "entries": {"victim": ("s0", "s2"), "innocent": ("s0", "s2")},
            "victim": "victim",
            "failed_link": "s1->s2",
            "duration_s": config.duration_s,
        }
    k = config.fat_tree_k
    entries: dict[Any, tuple[str, str]] = {}
    for i in range(config.n_entries):
        src = f"edge{i % k}-0"
        dst = f"edge{(i + 1) % k}-1"
        entries[f"hp/{i}"] = (src, dst)
    # Fail the second hop (aggregation → core) of the victim flow's
    # actual ECMP path, so exactly one core-facing monitor must flag it.
    victim = "hp/0"
    scout = _build_net(case, config)
    for entry, (src, dst) in entries.items():
        scout.add_entry(entry, src, dst)
    path = scout.flow_path(victim, flow_id=0)
    return {
        "entries": entries,
        "victim": victim,
        "failed_link": scout.link_id(path[1], path[2]),
        "duration_s": config.fat_tree_duration_s,
    }


def run_ring_case(config: Optional[FabricExpConfig] = None,
                  telemetry: Any = None) -> dict[str, Any]:
    """Ring closed loop: failure on the victim path, Figure 10 contract."""
    return _close_the_loop("ring", config or FabricExpConfig(), telemetry)


def run_fat_tree_case(config: Optional[FabricExpConfig] = None,
                      telemetry: Any = None) -> dict[str, Any]:
    """Fat-tree closed loop: ≥32 concurrent sessions, per-link attribution."""
    return _close_the_loop("fat_tree", config or FabricExpConfig(), telemetry)


def _case_worker(payload: tuple) -> dict[str, Any]:
    """Top-level (picklable, cache-friendly) case dispatcher."""
    case, config = payload
    telemetry = None
    if config.trace:
        from ..telemetry import Telemetry

        telemetry = Telemetry(scope=case)
    return _close_the_loop(case, config, telemetry)


def _resolve(config: Optional[FabricExpConfig], quick: bool) -> FabricExpConfig:
    """The given (or default) config, cut to the quick horizons if asked."""
    config = config or FabricExpConfig()
    return replace(config, duration_s=3.0, fat_tree_duration_s=2.0) if quick else config


def run(config: Optional[FabricExpConfig] = None, quick: bool = True,
        runtime: Optional[RuntimeContext] = None,
        cases: tuple[str, ...] = ("ring", "fat_tree")) -> dict:
    config = _resolve(config, quick)
    jobs = [
        Job(
            key=case,
            payload=(case, config),
            fingerprint=fingerprint("fabric", config, case),
            sim_s=_case_plan(case, config)["duration_s"],
        )
        for case in cases
    ]
    sweep = run_sweep(jobs, _case_worker, runtime=resolve(runtime),
                      label="fabric")
    cases = {job.key: sweep.results[job.key] for job in jobs
             if job.key in sweep.results}
    return {"cases": cases, "config": config, "errors": sweep.errors}


# --------------------------------------------------------------------------
# sharded execution: per-link probes across worker processes
# --------------------------------------------------------------------------


def _link_probe(case: str, config: FabricExpConfig, link_id: str,
                link_seed: int) -> dict[str, Any]:
    """One link's detection probe — a pure function of (config, case, link).

    Detection-focused by design — no reroute controller, no goodput
    meters.  Nothing in here depends on which shard (or how many shards)
    the probe runs under: that is the ``--shards 1/2/4`` byte-equality
    contract.
    """
    from ..telemetry import Telemetry

    _plan, deployment, _controller, _meters, fluid = _run_case(
        case, config, Telemetry(scope=link_id), link_id, link_seed)
    return link_payload(deployment, link_id, fluid)


def run_sharded(config: Optional[FabricExpConfig] = None,
                case: str = "ring", shards: int = 1,
                runtime: Optional[RuntimeContext] = None,
                quick: bool = True) -> dict[str, Any]:
    """Detection-focused fabric run, sharded across worker processes.

    Runs one per-link probe simulation per directed link of the case
    through :func:`repro.fabric.sharding.run_link_shards` and merges the
    per-link payloads deterministically — the merged detection records,
    Prometheus text and trace JSONL are byte-identical for any
    shard/worker count.
    """
    from ..fabric.sharding import merge_link_results, run_link_shards

    config = _resolve(config, quick)
    per_link, n_shards = run_link_shards(
        _link_probe, (case, config),
        _build_net(case, config).directed_link_ids(), shards,
        seed=config.seed, fingerprint_parts=("fabric-shard", config, case),
        sim_s=_case_plan(case, config)["duration_s"],
        label=f"fabric-shard[{case}]", runtime=runtime)
    merged = merge_link_results(per_link)
    merged["case"] = case
    merged["shards"] = n_shards
    return merged


def _fmt_delay(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value * 1e3:.0f} ms"


def render(result: dict) -> str:
    lines = [
        "Fabric closed loop — gray failure -> FANcY flag -> selective reroute",
        "",
        f"{'case':<10} {'sessions':>8} {'detect':>8} {'reroute':>8} "
        f"{'recovered':>10}  failed link",
    ]
    for case, data in result["cases"].items():
        frac = data["recovery_fraction"]
        lines.append(
            f"{case:<10} {data['n_sessions']:>8} "
            f"{_fmt_delay(data['detection_delay']):>8} "
            f"{_fmt_delay(data['reroute_delay']):>8} "
            f"{'n/a' if frac is None else f'{frac * 100:.0f} %':>10}  "
            f"{data['failed_link']}"
            f"{'' if data['attribution_correct'] else '  [MISATTRIBUTED]'}"
        )
    lines.append("")
    lines.append("(recovered = victim goodput after reroute / before failure; "
                 "paper Fig. 10: sub-second recovery)")
    for case, data in result["cases"].items():
        if data.get("fluid_absorbed"):
            lines.append(
                f"{case}: fluid model absorbed {data['fluid_absorbed']} "
                f"packet emissions (engine processed "
                f"{data['events_processed']} events)")
    for case, data in result["cases"].items():
        obs = data.get("obs")
        if obs:
            counts = obs["health"]["summary"]["status"]
            status = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())
                               if v)
            lines.append(f"{case}: {len(obs['spans'])} trace spans; "
                         f"link health: {status}")
    return "\n".join(lines)


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None,
         trace: bool = False, out_dir: Any = None, fluid: bool = False,
         shards: int = 0) -> str:
    runtime = resolve(runtime)
    config = FabricExpConfig(trace=trace)
    if fluid:
        # The fluid tier is only observable with background traffic to
        # absorb: give the demo a slab of it, plus the hash tree so the
        # absorbed counts are actually zoomed over.
        config = replace(config, fluid=True, tree=True,
                         background_entries=16)
    if runtime.seed:
        config = replace(config, seed=runtime.seed)
    if shards:
        return _main_sharded(config, shards, quick, runtime, trace, out_dir)
    result = run(config=config, quick=quick, runtime=runtime)
    text = render(result)
    if trace and out_dir is not None:
        _write_trace_artifacts(result, out_dir)
    print(text)
    return text


def _main_sharded(config: FabricExpConfig, shards: int, quick: bool,
                  runtime: RuntimeContext, trace: bool,
                  out_dir: Any) -> str:
    lines = [f"Fabric sharded detection runs — {shards} shard(s) "
             "(per-link probes, no reroute loop)", ""]
    for case in ("ring", "fat_tree"):
        merged = run_sharded(config=config, case=case, shards=shards,
                             runtime=runtime, quick=quick)
        line = (f"{case:<10} links={len(merged['links'])} "
                f"shards={merged['shards']} "
                f"detections={len(merged['detections'])} "
                f"events={merged['events_processed']}")
        if merged["fluid_absorbed"]:
            line += f" fluid_absorbed={merged['fluid_absorbed']}"
        lines.append(line)
        if trace and out_dir is not None:
            from pathlib import Path

            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"fabric-shard-traces-{case}.jsonl").write_text(
                merged["trace_jsonl"])
            (out / f"fabric-shard-metrics-{case}.prom").write_text(
                merged["prometheus"])
    text = "\n".join(lines)
    print(text)
    return text


def _write_trace_artifacts(result: dict, out_dir: Any) -> None:
    """Write per-case trace JSONL + Chrome trace and the HTML report."""
    import json
    from pathlib import Path

    from ..obs.report import render_html
    from ..obs.trace import chrome_trace_from_dicts, spans_to_jsonl

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections = []
    for case, data in result["cases"].items():
        obs = data.get("obs")
        if not obs:
            continue
        (out / f"fabric-traces-{case}.jsonl").write_text(
            spans_to_jsonl(obs["spans"]))
        (out / f"fabric-chrome-{case}.json").write_text(
            json.dumps(chrome_trace_from_dicts(obs["spans"]),
                       sort_keys=True))
        sections.append({"name": case, "health": obs["health"],
                         "spans": obs["spans"]})
    if sections:
        (out / "fabric-report.html").write_text(render_html(sections))
