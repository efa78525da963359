import json
import os
import re

import pytest

import run
import sample
from spans import Recorder

from repro.obs.metrics import MetricsRegistry

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_every_metric_has_a_valid_name_and_unit():
    units = {name: unit for name, (unit, _) in run.END_TO_END.items()}
    units.update(
        {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    )
    assert len(units) == len(run.END_TO_END) + len(run.PER_LAYER)
    for name, unit in units.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_the_reported_metrics():
    document = benchmark_json()
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in document["end_to_end"]
    } == run.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }


class StubInternet:
    def stats(self):
        return {"forwarder_cache_hit_rate": 0.5}


def test_a_traced_sample_reports_every_per_layer_metric():
    recorder = Recorder()
    with recorder.span("core.campaign"):
        pass
    layers = sample.layer_metrics(
        recorder, MetricsRegistry(), StubInternet(), 0.0, 1.0, 0
    )
    # store.* file figures and the tracing overhead are added later.
    added = {"store.records", "store.bytes", "experiments.trace_overhead_s"}
    assert set(layers) | added == set(run.PER_LAYER)


def test_child_environment_drops_program_and_interpreter_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("PYTHONDEVMODE", "1")
    monkeypatch.setenv("HOME", "/home/bench")
    env = run.child_environment("tmpdir")
    assert not any(key.startswith("REPRO_") for key in env)
    assert env["PYTHONPATH"] == run.SOURCE
    assert "PYTHONDEVMODE" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["HOME"] == "/home/bench"
    assert env["TMPDIR"] == "tmpdir"


def test_spans_are_expressed_in_reference_seconds():
    from hostclock import REFERENCE_S, HostClock

    now = [0.0]

    def calibrate():
        now[0] += 2 * REFERENCE_S  # the host runs at half speed

    clock = HostClock(work=calibrate, clock=lambda: now[0], cpu=lambda: 0.0)
    clock.calibrate()
    recorder = Recorder(clock=lambda: now[0])
    cpu = [10.0]
    recorder.cpu = lambda: cpu[0]
    with recorder.span("layer"):
        now[0] += 4.0
        cpu[0] += 3.0
    clock.calibrate()
    sample.in_reference_seconds(recorder, clock)
    span = recorder.spans[0]
    assert span.wall == pytest.approx(2.0)
    assert span.cpu == pytest.approx(1.5)
