"""The four benchmark workloads.

Each workload turns the benchmark seed into the program's inputs
(:meth:`Workload.make_inputs`), runs the program once on them
(:meth:`Workload.run`, the timed call) and judges the result
(:meth:`Workload.evaluate`): output digests, the fidelity figures
``detect_sim_s`` and ``tpr``, and named correctness checks.  Execution is
serial and in-process: no result cache, ``workers`` unset, one shard.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

from repro.experiments.fabric import FabricExpConfig, run_fat_tree_case
from repro.experiments.fig9 import run_single
from repro.experiments.heatmaps import QUICK_SCALE, HeatmapScale
from repro.runtime import RuntimeContext
from repro.service.soak import ServeConfig, run_serve
from repro.telemetry import Telemetry
from repro.traffic.synthetic import ENTRY_SIZE_GRID

__all__ = ["Outcome", "Workload", "WORKLOADS"]

#: Fat-tree horizon: QUICK's 2 s run is mostly import and build.
FAT_TREE_HORIZON_S = 6.0
#: The failure starts at 1 s plus a seeded offset below this, so seeds
#: also sample the failure's phase against the 50 ms session grid.
FAT_TREE_ONSET_JITTER_S = 0.010

#: fig9a slice: the two 1 Mbps rows of the Figure 9a grid (83 packets/s,
#: under the quick 300 pps cap), all four quick loss rates, three
#: repetitions, 5 s horizon.  At this rate a >=10% loss is flagged well
#: inside the horizon, while 1% loss stays the grid's hard corner, as in
#: the paper's figure.
FIG9A_SCALE = replace(
    QUICK_SCALE,
    rows=(ENTRY_SIZE_GRID[5], ENTRY_SIZE_GRID[6]),
    repetitions=3,
    duration_s=5.0,
)

#: serve slice: ServeConfig.quick up to 2 h, so it spans the
#: control-plane-grey onset at 1 h, with a health snapshot every 30 min.
SERVE_DURATION_S = 7_200.0
SERVE_HEALTH_EVERY_S = 1_800.0


@dataclass
class Outcome:
    """What one run produced, as far as the benchmark judges it."""

    digests: dict[str, str]
    detect_sim_s: float
    tpr: float
    checks: list[tuple[str, bool]] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], Any]
    run: Callable[[Any], Any]
    evaluate: Callable[[Any, Any, Any], Outcome]
    #: Untimed run whose result ``evaluate`` compares against (or None).
    reference: Callable[[Any], Any] | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fat-tree / fat-tree-traced ------------------------------------------------


def _fat_tree_inputs(seed: int) -> FabricExpConfig:
    onset = 1.0 + FAT_TREE_ONSET_JITTER_S * random.Random(seed).random()
    return FabricExpConfig(seed=seed, fat_tree_duration_s=FAT_TREE_HORIZON_S,
                           failure_time_s=onset)


def _fat_tree_traced_inputs(seed: int) -> FabricExpConfig:
    return replace(_fat_tree_inputs(seed), trace=True)


def _run_fat_tree(config: FabricExpConfig) -> dict[str, Any]:
    telemetry = Telemetry(scope="fat_tree") if config.trace else None
    return run_fat_tree_case(config, telemetry=telemetry)


def _evaluate_fat_tree(config: FabricExpConfig, result: dict[str, Any],
                       reference: Any) -> Outcome:
    records = repr(result["detections"])
    digests = {"detections": _sha(records)}
    if result["obs"] is not None:
        digests["obs"] = _sha(json.dumps(result["obs"], sort_keys=True,
                                         default=repr))
    flagged = repr(result["victim"]) in result["flagged_links"].get(
        result["failed_link"], [])
    delay = result["detection_delay"]
    recovery = result["recovery_fraction"]
    checks = [("victim_flagged", flagged and delay is not None)]
    if reference is None:
        checks += [
            ("attribution_correct", bool(result["attribution_correct"])),
            ("recovery_fraction_gt_0.8", recovery is not None and recovery > 0.8),
        ]
    else:
        checks.append(("detections_equal_untraced",
                       records == repr(reference["detections"])))
    return Outcome(
        digests=digests,
        detect_sim_s=(delay if delay is not None
                      else config.fat_tree_duration_s - config.failure_time_s),
        tpr=1.0 if flagged else 0.0,
        checks=checks,
    )


def _fat_tree_reference(config: FabricExpConfig) -> dict[str, Any]:
    """The untraced fat-tree run of the same scenario and seed."""
    return _run_fat_tree(replace(config, trace=False))


# -- fig9a ---------------------------------------------------------------------


def _fig9a_inputs(seed: int) -> dict[str, Any]:
    return {"scale": FIG9A_SCALE, "seed": seed}


def _run_fig9a(inputs: dict[str, Any]) -> dict[str, Any]:
    return run_single(inputs["scale"], seed=inputs["seed"],
                      runtime=RuntimeContext())


def _evaluate_fig9a(inputs: dict[str, Any], result: dict[str, Any],
                    reference: Any) -> Outcome:
    scale: HeatmapScale = inputs["scale"]
    tpr = result["tpr"]
    latency = result["latency"]
    cells = sorted(result["cells"])
    digest = repr([(key, result["cells"][key].to_dict()) for key in cells])
    checks = [("no_failed_cells", not result["errors"])]
    for (i, j) in cells:
        if scale.loss_rates[j] >= 0.1:
            checks.append((f"tpr_1_at_{scale.loss_rates[j]:g}_row{i}",
                           tpr[(i, j)] == 1.0))
    detected = [latency[key] for key in cells if tpr[key] > 0]
    return Outcome(
        digests={"cells": _sha(digest)},
        # Median, not mean: a 1%-loss cell is detected after a geometric
        # wait of seconds, so one such cell would swing a mean over seeds.
        detect_sim_s=statistics.median(detected) if detected else scale.duration_s,
        tpr=sum(tpr[key] for key in cells) / len(cells),
        checks=checks,
    )


# -- serve ---------------------------------------------------------------------


def _serve_inputs(seed: int) -> ServeConfig:
    return replace(ServeConfig.quick(seed=seed), duration_s=SERVE_DURATION_S,
                   health_every_s=SERVE_HEALTH_EVERY_S)


def _run_serve(config: ServeConfig) -> Any:
    return run_serve(config, runtime=RuntimeContext())


_LADDER_STEP = re.compile(r"^fancy_ladder_transitions_total\{(?P<labels>[^}]*)\} (?P<n>\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def _ladder_reactions(prometheus: str) -> dict[str, int]:
    """HEALTHY -> USE_LAST_STATE steps per link, from the exported counters."""
    steps: dict[str, int] = {}
    for line in prometheus.splitlines():
        match = _LADDER_STEP.match(line)
        if match is None:
            continue
        labels = dict(_LABEL.findall(match["labels"]))
        if labels.get("src") == "healthy" and labels.get("dst") == "use_last_state":
            link = labels["link"]
            steps[link] = steps.get(link, 0) + int(float(match["n"]))
    return steps


def _evaluate_serve(config: ServeConfig, result: Any, reference: Any) -> Outcome:
    a, b = (config.grey_link or "->").split("->")
    # The grey drops control packets on the b->a wire: the reverse
    # channel of a->b's monitor and the forward channel of b->a's.
    impaired = [f"{a}->{b}", f"{b}->{a}"]
    steps = _ladder_reactions(result.prometheus)
    reactions = sum(steps.get(link, 0) for link in impaired)
    exposure = (config.duration_s - config.grey_start_s) * len(impaired)
    return Outcome(
        digests={
            "health_json": _sha(result.health_json),
            "trace_jsonl": _sha(result.trace_jsonl),
            "prometheus": _sha(result.prometheus),
        },
        # Mean grey-exposed link-seconds per ladder reaction: one
        # reaction's first-onset delay is a geometric wait, the mean over
        # the ~400 reactions in the slice is steady across seeds.
        detect_sim_s=exposure / reactions if reactions else exposure,
        tpr=sum(1 for link in impaired if steps.get(link, 0)) / len(impaired),
        checks=[
            ("result_ok", bool(result.ok)),
            ("no_breaches", result.breaches == {}),
            ("no_link_declared",
             all(state != "declared" for state in result.ladder_states.values())),
        ],
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fat-tree",
        why="k=4 fat-tree closed loop (fancy-repro fabric): 64 dedicated-counter "
            "monitors, protocol FSMs, payload checksums, fused links; fluid, TCP "
            "and telemetry idle",
        make_inputs=_fat_tree_inputs,
        run=_run_fat_tree,
        evaluate=_evaluate_fat_tree,
    ),
    Workload(
        name="fat-tree-traced",
        why="same scenario and seed with a Telemetry session (fabric --trace in CI): "
            "every FSM transition fires the timeline, trace and registry sinks; "
            "records must equal fat-tree's",
        make_inputs=_fat_tree_traced_inputs,
        run=_run_fat_tree,
        evaluate=_evaluate_fat_tree,
        reference=_fat_tree_reference,
    ),
    Workload(
        name="fig9a",
        why="slice of the Figure 9a hash-tree sweep: one monitored link, TCP "
            "entries, tree counters and zooming, four loss rates; engine, "
            "dataplane and transport dominate",
        make_inputs=_fig9a_inputs,
        run=_run_fig9a,
        evaluate=_evaluate_fig9a,
    ),
    Workload(
        name="serve",
        why="2 h slice of the CI serve --quick soak across the 20% control-plane "
            "grey onset: fluid cursor, protocol, ladder, supervision and "
            "telemetry all live",
        make_inputs=_serve_inputs,
        run=_run_serve,
        evaluate=_evaluate_serve,
    ),
)}
