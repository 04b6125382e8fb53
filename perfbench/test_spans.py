"""Tests of the span arithmetic and nesting the benchmark's per-layer
metrics rest on. Run with: python3 -m pytest perfbench"""

import pytest

from spans import (Patches, Span, Tracer, covered_length, outermost,
                   self_times)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered_length(0.0, 10.0, [(6.0, 7.0), (1.0, 2.0)]) == 2.0
    assert covered_length(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == 1.5
    assert covered_length(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 8.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.5, parent=0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]


def test_self_time_of_overlapping_children_counts_the_overlap_once():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 5.0, parent=0),
             Span("b", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == 4.0


def test_tracer_records_parents_runs_and_times():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.run = "op0"

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 0.5
        traced_leaf()
        traced_leaf()
        return "done"

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    assert traced_middle() == "done"
    tracer.run = "op1"
    traced_leaf()

    names = [(s.name, s.parent, s.run) for s in tracer.spans]
    assert names == [("middle", None, "op0"), ("leaf", 0, "op0"),
                     ("leaf", 0, "op0"), ("leaf", None, "op1")]
    assert [s.duration for s in tracer.spans] == [2.5, 1.0, 1.0, 1.0]
    assert self_times(tracer.spans)[0] == 0.5


def test_a_raising_call_still_closes_its_span_and_restores_nesting():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        traced()
    tracer.wrap(lambda: None, "after")()
    assert tracer.spans[0].duration == 2.0
    assert tracer.spans[1].parent is None


def test_after_hook_runs_outside_the_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def after(span, args, kwargs, result):
        clock.now += 5.0
        span.attrs["result"] = result

    tracer.wrap(lambda x: x * 2, "double", after)(21)
    assert tracer.spans[0].duration == 0.0
    assert tracer.spans[0].attrs == {"result": 42}


def test_outermost_counts_recursive_calls_once():
    spans = [
        Span("stage", 0.0, 10.0),
        Span("save", 1.0, 4.0, parent=0),
        Span("save", 2.0, 3.0, parent=1),
        Span("save", 5.0, 6.0, parent=0),
    ]
    assert outermost(spans, ["save"]) == [1, 3]
    assert outermost(spans, ["stage", "save"]) == [0]


def test_patches_wrap_and_restore_module_and_class_attributes():
    class Thing:
        def value(self):
            return 1

    original = Thing.__dict__["value"]
    patches = Patches()
    patches.replace(Thing, "value", lambda fn: lambda self: fn(self) + 10)
    patches.replace(Thing, "absent", lambda fn: fn)
    assert Thing().value() == 11
    assert patches.missing == ["Thing.absent"]
    patches.restore()
    assert Thing.__dict__["value"] is original
    assert Thing().value() == 1
