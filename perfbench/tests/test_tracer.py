"""Span folding, the unattributed remainder, and wrapper install/restore."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from perfbench.tracer import (LAYER_NAMES, LAYERS, UNATTRIBUTED, Tracer,
                              callable_attributes, fold, layer_of)

ENGINE = LAYER_NAMES.index("engine")
LINK = LAYER_NAMES.index("link")
FABRIC = LAYER_NAMES.index("fabric")
OTHER = LAYER_NAMES.index(UNATTRIBUTED)


def _spans(rows: list[tuple[int, int, float, float]], names: list[str],
           name_layer: list[int]) -> dict:
    """rows: (name id, parent index, start, end)."""
    return {
        "name": np.array([r[0] for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "start": np.array([r[2] for r in rows], dtype=float),
        "end": np.array([r[3] for r in rows], dtype=float),
        "names": np.array(names),
        "name_layer": np.array(name_layer, dtype=np.int32),
        "calls": np.zeros(len(names), dtype=np.int64),
    }


def test_self_time_subtracts_direct_children_only():
    # run(engine) [0, 10] > send(link) [2, 6] > schedule(engine) [3, 4]
    spans = _spans([(0, -1, 0.0, 10.0), (1, 0, 2.0, 6.0), (2, 1, 3.0, 4.0)],
                   ["e:run", "l:send", "e:schedule"], [ENGINE, LINK, ENGINE])
    out = fold(spans, wall_s=10.0)
    assert out["self_s"]["engine"] == pytest.approx((10 - 4) + 1)
    assert out["self_s"]["link"] == pytest.approx(4 - 1)
    assert out["unattributed_s"] == pytest.approx(0.0)
    assert out["consistent"]


def test_unattributed_is_time_outside_spans_plus_other_modules():
    # [0, 1] outside, run [1, 7] with a loss-model call [2, 3], [7, 9] outside
    spans = _spans([(0, -1, 1.0, 7.0), (1, 0, 2.0, 3.0)],
                   ["e:run", "x:loss"], [ENGINE, OTHER])
    out = fold(spans, wall_s=9.0)
    assert out["self_s"]["engine"] == pytest.approx(5.0)
    assert out["unattributed_s"] == pytest.approx(3.0 + 1.0)
    assert sum(out["self_s"].values()) + out["unattributed_s"] == pytest.approx(9.0)


def test_overlapping_child_is_reported_inconsistent():
    spans = _spans([(0, -1, 0.0, 2.0), (1, 0, 1.0, 5.0)],
                   ["e:run", "l:send"], [ENGINE, LINK])
    assert not fold(spans, wall_s=5.0)["consistent"]


def test_build_time_and_inclusive_sums_take_outermost_spans():
    # build(fabric) [0, 2] > host(fabric via link) ; run [2, 8] > fabric tick [3, 4]
    spans = _spans(
        [(0, -1, 0.0, 2.0), (1, 0, 0.5, 1.5), (2, 1, 0.6, 1.0),
         (3, -1, 2.0, 8.0), (4, 3, 3.0, 4.0), (5, 4, 3.2, 3.5), (6, 5, 3.3, 3.4)],
        ["f:build", "l:attach", "f:host", "e:run", "f:tick", "p:verify", "p:csum"],
        [FABRIC, LINK, FABRIC, ENGINE, FABRIC, OTHER, OTHER])
    out = fold(spans, wall_s=8.0, inclusive={"checksum": ["p:verify", "p:csum"]})
    assert out["build_s"]["fabric"] == pytest.approx(2.0)
    assert out["inclusive"]["checksum"] == pytest.approx(0.3)


def test_layer_map_covers_named_modules_and_the_rest_of_the_program():
    assert layer_of("repro.simulator.link") == "link"
    assert layer_of("repro.obs.trace") == "telemetry"
    assert layer_of("repro.experiments.fabric") == UNATTRIBUTED
    assert layer_of("numpy") is None
    assert len(LAYERS) == 12


@pytest.fixture
def fake_program():
    """Two modules of a throwaway package: ``low`` (engine), ``high`` (link)."""
    low = types.ModuleType("fakeprog.low")
    exec(
        "def tick(n):\n"
        "    return n + 1\n"
        "def gen():\n"
        "    yield 1\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def step(self):\n"
        "        self.n = tick(self.n)\n"
        "        return self._inner()\n"
        "    def _inner(self):\n"
        "        return self.n\n"
        "    @staticmethod\n"
        "    def make():\n"
        "        return Engine()\n"
        "    @classmethod\n"
        "    def kind(cls):\n"
        "        return cls.__name__\n",
        low.__dict__)
    high = types.ModuleType("fakeprog.high")
    high.__dict__["Engine"] = low.Engine
    high.__dict__["tick"] = low.tick
    exec(
        "def send(engine):\n"
        "    return engine.step() + tick(0)\n",
        high.__dict__)
    for module in (low, high):
        sys.modules[module.__name__] = module
    yield low, high
    for module in (low, high):
        del sys.modules[module.__name__]


def _fake_layers(module: str) -> str | None:
    return {"fakeprog.low": "engine", "fakeprog.high": "link"}.get(module)


def test_wrappers_record_crossings_and_restore_every_original(fake_program):
    low, high = fake_program
    before = callable_attributes(_fake_layers)
    tracer = Tracer(layer_fn=_fake_layers)
    tracer.install()
    try:
        engine = low.Engine.make()
        assert high.send(engine) == 2
        assert low.Engine.kind() == "Engine"
        assert list(low.gen()) == [1]
        # the alias high.tick was patched too: 2 calls (one via step)
        assert tracer.call_count("low:tick") == 2
        assert tracer.call_count("low:Engine.step", "low:Engine._inner") == 2
    finally:
        tracer.uninstall()
    after = callable_attributes(_fake_layers)
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert "low:gen" not in tracer.names   # generators are left alone

    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    # make -> Engine() construction is engine->engine: one span for make only.
    assert names.count("low:Engine.make") == 1
    assert "low:Engine.__init__" not in names
    # send (link) -> step (engine) -> tick, _inner (engine): step spans, its
    # same-layer callees do not; the link->engine tick call does.
    send = names.index("high:send")
    step = names.index("low:Engine.step")
    assert spans["parent"][step] == send
    assert names.count("low:tick") == 1
    wall = float(spans["end"].max() - spans["start"].min())
    out = fold(spans, wall_s=wall + 1.0)
    total = sum(out["self_s"].values()) + out["unattributed_s"]
    assert total == pytest.approx(wall + 1.0)
    assert out["consistent"]


def test_always_span_names_open_spans_inside_their_own_layer(fake_program):
    low, _high = fake_program
    tracer = Tracer(layer_fn=_fake_layers, always_span=["low:tick"])
    tracer.install()
    try:
        low.Engine().step()
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.spans()["name"]]
    assert names == ["low:Engine.__init__", "low:Engine.step", "low:tick"]
