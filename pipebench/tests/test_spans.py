import types

import pytest

from spans import Recorder, installed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def recorder_with_clock():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    recorder.cpu = lambda: clock.now
    return recorder, clock


def test_self_time_subtracts_children():
    recorder, clock = recorder_with_clock()
    with recorder.span("outer"):
        clock.now = 2.0
        with recorder.span("inner"):
            clock.now = 5.0
        clock.now = 10.0
    totals = recorder.totals()
    assert totals["outer"].wall == 10.0
    assert totals["outer"].self_wall == 7.0
    assert totals["inner"].wall == 3.0
    assert totals["inner"].self_wall == 3.0


def test_same_name_nesting_is_not_counted_twice():
    recorder, clock = recorder_with_clock()
    with recorder.span("layer"):
        clock.now = 2.0
        with recorder.span("layer"):
            clock.now = 5.0
        clock.now = 10.0
    layer = recorder.totals()["layer"]
    assert layer.wall == 10.0
    assert layer.cpu == 10.0
    assert layer.self_wall == 10.0


def test_same_name_under_another_span_keeps_its_own_time():
    recorder, clock = recorder_with_clock()
    with recorder.span("a"):
        clock.now = 1.0
        with recorder.span("b"):
            clock.now = 2.0
            with recorder.span("a"):
                clock.now = 6.0
            clock.now = 7.0
        clock.now = 8.0
    totals = recorder.totals()
    assert totals["a"].wall == 8.0
    assert totals["a"].self_wall == 2.0 + 4.0
    assert totals["b"].self_wall == 2.0
    assert totals["a"].self_wall + totals["b"].self_wall == 8.0


def test_probe_counts_follow_the_counter():
    recorder, clock = recorder_with_clock()
    probes = [0]
    recorder.probe_counter = lambda: probes[0]
    with recorder.span("outer"):
        probes[0] = 10
        with recorder.span("inner"):
            probes[0] = 25
    totals = recorder.totals()
    assert totals["outer"].probes == 25
    assert totals["inner"].probes == 15


def test_covered_counts_top_level_spans_inside_the_window():
    recorder, clock = recorder_with_clock()
    with recorder.span("setup"):
        clock.now = 3.0
    clock.now = 4.0
    with recorder.span("first"):
        clock.now = 6.0
        with recorder.span("child"):
            clock.now = 7.0
    clock.now = 9.0
    with recorder.span("second"):
        clock.now = 12.0
    assert recorder.covered(2.0, 10.0) == 1.0 + 3.0 + 1.0


class Subject:
    calls = 0

    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return (cls.__name__, value)

    @property
    def answer(self):
        return 42


def module_function(value):
    return -value


def make_targets():
    module = types.SimpleNamespace(function=module_function)
    return module, [
        (module, "function", "function"),
        (Subject, "method", "method"),
        (Subject, "build", "build"),
        (Subject, "answer", "answer"),
    ]


def originals(module):
    return (
        module.function,
        Subject.__dict__["method"],
        Subject.__dict__["build"],
        Subject.__dict__["answer"],
    )


def test_installed_wraps_each_kind_and_restores_it():
    recorder = Recorder()
    module, targets = make_targets()
    before = originals(module)
    with installed(recorder, targets):
        subject = Subject()
        assert module.function(3) == -3
        assert subject.method(1) == 2
        assert Subject.build(5) == ("Subject", 5)
        assert subject.answer == 42
        assert originals(module) != before
    assert [span.name for span in recorder.spans] == [
        "function", "method", "build", "answer",
    ]
    assert originals(module) == before


def test_installed_restores_after_an_exception():
    recorder = Recorder()
    module, targets = make_targets()
    before = originals(module)
    with pytest.raises(RuntimeError):
        with installed(recorder, targets):
            raise RuntimeError("pipeline failed")
    assert originals(module) == before


def test_installed_restores_when_a_target_is_missing():
    recorder = Recorder()
    module, targets = make_targets()
    before = originals(module)
    with pytest.raises(KeyError):
        with installed(recorder, targets + [(Subject, "missing", "x")]):
            pass
    assert originals(module) == before


def test_span_closes_when_the_call_raises():
    recorder = Recorder()
    module = types.SimpleNamespace(function=lambda: 1 / 0)
    with installed(recorder, [(module, "function", "boom")]):
        with pytest.raises(ZeroDivisionError):
            module.function()
        with recorder.span("after"):
            pass
    assert recorder.spans[1].parent == -1
    assert recorder.spans[0].wall1 >= recorder.spans[0].wall0
