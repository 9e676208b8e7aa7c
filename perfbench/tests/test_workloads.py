"""Seeds reach the inputs, metric tables match BENCHMARK.json, and a
traced run leaves the program and its outputs unchanged."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics
from perfbench.probes import DETERMINISTIC, WorkCounts
from perfbench.tracer import LAYERS, Tracer, callable_attributes, fold
from perfbench.workloads import WORKLOADS, _ladder_reactions
from repro.experiments.fabric import FabricExpConfig, run_ring_case

ROOT = Path(__file__).resolve().parents[2]


def _program_seed(name: str, inputs) -> int:
    return inputs["seed"] if isinstance(inputs, dict) else inputs.seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_argument_reaches_the_generated_inputs(name):
    args = run.parse_args(["--workload", name, "--seed", "7"], list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    assert _program_seed(name, inputs) == 7
    assert inputs == workload.make_inputs(7)
    assert inputs != workload.make_inputs(8)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_layer_metrics_cover_every_per_layer_metric():
    folded = fold(Tracer().spans(), wall_s=1.0, inclusive={"checksum": []})
    work = dict.fromkeys(DETERMINISTIC, 0)
    metrics = layer_metrics(Tracer(), folded, work, links=[], untraced_wall_s=0.5)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["unattributed_s"] == pytest.approx(1.0)
    assert metrics["trace.overhead"] == pytest.approx(2.0)


def test_ladder_reactions_read_healthy_to_use_last_state_steps():
    text = "\n".join([
        "# TYPE fancy_ladder_transitions_total counter",
        'fancy_ladder_transitions_total{dst="use_last_state",link="s1->s2",src="healthy"} 7',
        'fancy_ladder_transitions_total{dst="healthy",link="s1->s2",src="use_last_state"} 6',
        'fancy_ladder_transitions_total{dst="use_last_state",link="s2->s1",src="healthy"} 2',
    ])
    assert _ladder_reactions(text) == {"s1->s2": 7, "s2->s1": 2}


def test_traced_run_leaves_the_program_and_its_outputs_unchanged():
    config = FabricExpConfig(duration_s=1.5)
    untraced = run_ring_case(config)
    before = callable_attributes()
    counts = WorkCounts(traced=True)
    counts.install()
    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    try:
        traced = run_ring_case(config)
    finally:
        wall = time.perf_counter() - started
        tracer.uninstall()
        counts.uninstall()
    after = callable_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert traced["detections"] == untraced["detections"]
    assert traced["events_processed"] == untraced["events_processed"]
    assert counts.take()["engine.events"] == untraced["events_processed"]
    assert tracer.call_count("simulator.engine:Simulator.run") == 1
    folded = fold(tracer.spans(), wall_s=wall)
    assert folded["consistent"]
    assert set(folded["self_s"]) == set(LAYERS)
    assert folded["self_s"]["protocol"] > 0
