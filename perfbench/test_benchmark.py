"""BENCHMARK.json must declare exactly the metrics run.py prints.
Run with: python3 -m pytest perfbench"""

import json
import os

import probes
import run
from spans import Span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def test_end_to_end_metrics_match():
    assert declared("end_to_end") == run.E2E_UNITS


def test_per_layer_metrics_match():
    spans = [Span("pipeline.train", 0.0, 2.0, run="op1",
                  attrs={"epochs": 4, "loss_sv_final": 1.5})]
    names = set(probes.layer_metrics(spans, {"op1"}))
    names |= {f"accuracy.{name}" for name in run.ACCURACY}
    names |= {"trace.run_s", "trace.overhead_s"}
    assert declared("per_layer") == {name: probes.unit(name) for name in names}


def test_layer_metrics_average_over_traced_operations():
    spans = [
        Span("pipeline.mono_fit", 0.0, 4.0, run="op1"),
        Span("lm", 0.5, 3.5, parent=0, run="op1",
             attrs={"problem": "PoseProblem", "status": "max_iterations",
                    "iterations": 2, "first_cost": 9.0, "last_cost": 1.0, "singular": 0}),
        Span("pose_problem.residuals", 0.5, 1.0, parent=1, run="op1"),
        Span("pose_problem.residuals", 1.5, 2.0, parent=1, run="op1"),
        Span("pose_problem.residuals", 2.5, 3.0, parent=1, run="op1"),
        Span("pose_problem.residuals", 3.0, 3.5, parent=1, run="op1"),
        Span("pipeline.mono_fit", 10.0, 12.0, run="op3"),
        Span("pipeline.mono_fit", 20.0, 29.0, run="op0"),
    ]
    m = probes.layer_metrics(spans, {"op1", "op3"})
    assert m["pipeline.mono_fit_s"] == 3.0
    assert m["pose_problem.residuals_calls"] == 2.0
    assert m["lm.cap_hits"] == 0.5
    assert m["lm.trial_steps"] == 1.5
    assert m["lm.accept_ratio"] == 2 / 3
    assert m["lm.self_s"] == (3.0 - 2.0) / 2
    [solve] = probes.lm_solves(spans, {"op1"})
    assert solve["stage"] == "pipeline.mono_fit"
    assert solve["trial_steps"] == 3
