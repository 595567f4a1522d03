"""Tests for the benchmark's own code (tracer arithmetic, patch
hygiene, output checks, metric names).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import child  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from layertrace import END, LayerTracer, self_times  # noqa: E402

#: A cell small enough for a unit test (about 0.1 s compiled).
TINY = dict(direction="rx", message_size=65536, affinity="full",
            n_connections=2, warmup_ms=1, measure_ms=2)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_times_on_synthetic_tree():
    # root [0,100) > a [10,60) > b [20,30), a > c [40,50); root > d [70,90)
    # name ids: 0 root, 1 a, 2 b and c (same name), 3 d
    log = [0, 0, 1, 10, 2, 20, END, 30, 2, 40, END, 50, END, 60,
           3, 70, END, 90, END, 100]
    self_t, incl_t, count = self_times(log, 4)
    assert self_t == [100 - 50 - 20, 50 - 10 - 10, 20, 20]
    assert incl_t == [100, 50, 20, 20]
    assert count == [1, 1, 2, 1]
    assert sum(self_t) == incl_t[0]


def test_self_times_rejects_an_open_span():
    with pytest.raises(ValueError):
        self_times([0, 0, 1, 5, END, 7], 2)


def test_tracer_self_time_by_layer_with_fake_clock():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 10
        traced_leaf()
        traced_leaf()
        clock.now += 1

    traced_leaf = tracer.wrap(leaf, "mem.field")
    traced_middle = tracer.wrap(middle, "kernel.charge")
    with tracer.span("core.cell"):
        clock.now += 3
        traced_middle()
        clock.now += 2
    report = tracer.report()
    assert report["layer_self_s"] == {"core": 5e-9, "kernel": 11e-9,
                                      "mem": 10e-9}
    assert report["calls"] == {"core.cell": 1, "mem.field": 2,
                               "kernel.charge": 1}
    assert report["incl_s"]["core.cell"] == 26e-9


def test_generator_spans_time_each_resume():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def gen():
        clock.now += 4
        received = yield "op1"
        clock.now += 6
        yield received
        clock.now += 1
        return "done"

    traced = tracer.wrap(gen, "net.tcp_sendmsg")
    g = traced()
    clock.now += 100  # creating the generator runs none of its code
    assert next(g) == "op1"
    clock.now += 50  # time between resumes belongs to the caller
    assert g.send("op2") == "op2"
    with pytest.raises(StopIteration) as stop:
        next(g)
    assert stop.value.value == "done"
    report = tracer.report()
    assert report["calls"]["net.tcp_sendmsg"] == 1
    assert report["spans"] == 3
    assert report["layer_self_s"]["net"] == 11e-9


def test_generator_wrapper_forwards_throw_and_close():
    tracer = LayerTracer()
    seen = []

    def gen():
        try:
            yield 1
        except KeyError:
            seen.append("caught")
            yield 2
        finally:
            seen.append("closed")

    g = tracer.wrap(gen, "net.x")()
    assert next(g) == 1
    assert g.throw(KeyError()) == 2
    g.close()
    assert seen == ["caught", "closed"]
    tracer.report()  # no span left open


def _snapshot():
    """Every (owner, attribute) -> object the tracer may patch."""
    import importlib

    for module_name in ("repro.core.experiment", "repro.core.parallel",
                        "repro.core.scale", "repro.net.stack"):
        importlib.import_module(module_name)
    snap = {}
    for _, path, attr in layertrace.TARGETS:
        module_name, _, cls_name = path.partition(":")
        module = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(module, cls_name)
            snap[(owner, attr)] = vars(owner)[attr]
    from repro.sim import events

    for owner, attr in ((events.EventQueue, "schedule"),
                        (events.EventQueue, "pop_epoch"),
                        (events.Event, "cancel")):
        snap[(owner, attr)] = vars(owner)[attr]
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro") and mod is not None:
            for key, value in list(vars(mod).items()):
                if callable(value):
                    snap[(mod, key)] = value
    return snap


def test_uninstall_restores_every_original():
    before = _snapshot()
    tracer = LayerTracer()
    with tracer.installed():
        from repro.net import stack, tcp_input
        from repro.kernel.context import ExecContext

        assert stack.net_rx_action is not before[(stack, "net_rx_action")]
        assert tcp_input.net_rx_action is stack.net_rx_action
        assert vars(ExecContext)["charge"] is not before[
            (ExecContext, "charge")]
    after = _snapshot()
    assert set(after) == set(before)
    for key, original in before.items():
        assert vars(key[0])[key[1]] is original, key


@pytest.fixture
def engine_cache(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_CACHE",
                       os.path.join(ROOT, ".bench_build", "engine"))


@pytest.mark.parametrize("engine", ["pure", "compiled"])
def test_traced_and_untraced_cells_have_the_same_digest(
        engine, engine_cache, monkeypatch):
    from repro.core.experiment import ExperimentConfig, run_experiment
    from repro.cpu.engine import load_core

    if engine == "compiled" and load_core() is None:
        pytest.skip("compiled engine unavailable")
    monkeypatch.setenv("REPRO_ENGINE", engine)
    config = ExperimentConfig(**TINY)
    plain = run_experiment(config)
    out = {}
    traced = child._measure({"trace": True},
                            lambda: run_experiment(config), out)
    report = out["trace"]
    assert traced.charge_engine == engine
    assert child.digest(traced) == child.digest(plain)
    total = sum(report["layer_self_s"].values())
    assert abs(total - report["traced_s"]) <= (
        run.SUM_TOLERANCE * report["traced_s"])
    assert report["calls"]["cpu.charge"] > 0
    if engine == "compiled":
        assert report["calls"]["enginecore.charge"] == \
            report["calls"]["cpu.charge"]


def test_metric_names_and_benchmark_json_agree():
    pattern = re.compile(r"^[A-Za-z0-9_.-]+$")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    # paper-tx1k runs by hand only; every gated workload must exist.
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in run.WORKLOADS if w != "paper-tx1k"]
    for name in list(e2e) + list(layers):
        assert pattern.match(name), name


def test_seed_reaches_experiment_config():
    for workload in child.PAPER:
        assert child.paper_config(workload, 11).seed == 11

    class Recorder:
        configs = []

        def run(self, configs):
            self.configs.extend(configs)
            return [None] * len(configs)

    recorder = Recorder()
    child.run_grid(11, recorder)
    assert len(recorder.configs) == 12
    assert {c.seed for c in recorder.configs} == {11}


def _cell(key="k", digest="d1", engine="compiled", gbps=1.0):
    return {"key": key, "digest": digest, "engine": engine, "gbps": gbps,
            "ghz_per_gbps": 1.0}


def test_ledger_counts_every_failure_kind():
    ledger = run.Ledger()
    assert ledger.add({"ok": True, "cells": [_cell()]}, "compiled", "a", 1)
    assert not ledger.add({"ok": True, "cells": [_cell(digest="d2")]},
                          "compiled", "b", 1)
    assert not ledger.add({"ok": True, "cells": [_cell(engine="pure")]},
                          "compiled", "c", 1)
    assert not ledger.add({"ok": True, "cells": [_cell(gbps=0.0)]},
                          "compiled", "d", 1)
    assert not ledger.add({"ok": True, "cache_hits": 1,
                           "cells": [_cell()]}, "compiled", "e", 1)
    assert not ledger.add({"ok": False, "error": "boom"}, "pure", "f", 12)
    assert ledger.attempted == 5 + 12
    assert len(ledger.failed) == 4 + 12


def test_trimmed_mean_drops_a_tenth_from_each_end():
    assert run._trimmed_mean([]) is None
    # Under ten samples nothing is dropped.
    assert run._trimmed_mean([1.0, 2.0, 6.0]) == 3.0
    # Ten samples: the fastest and the slowest go.
    assert run._trimmed_mean([0.0] + [2.0] * 4 + [4.0] * 4 + [100.0]) == 3.0
