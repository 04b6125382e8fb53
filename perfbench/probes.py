"""Where the traced run wraps the program, and how its spans become the
per-layer metrics.

Each wrapper replaces a public function or method at the place its caller
looks it up (a module global or a class attribute), so the program itself is
untouched. Stage functions are wrapped in `mocorr.pipeline`; the workloads
call them through that module too, so a stage reads the same on every
workload.
"""

import contextlib
import functools
import importlib
import os
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning

from spans import Patches, ancestors, children, outermost, self_times

STAGES = {
    "synth_generate": "pipeline.synth",
    "initial_fit": "pipeline.mono_fit",
    "sparse_view_fit": "pipeline.sparse_fit",
    "train": "pipeline.train",
    "hybrid_motion": "pipeline.infer",
    "refine": "pipeline.refine",
    "build_report": "pipeline.report",
    "write_scene": "pipeline.artifacts",
    "save_motion": "pipeline.artifacts",
    "save_checkpoint": "pipeline.artifacts",
    "save_document": "pipeline.artifacts",
    "write_plot_data": "pipeline.artifacts",
    "generator_forward": "model.generator_forward",
    "mpjpe": "metrics.eval",
    "frame_mpjpe": "metrics.eval",
    "pck": "metrics.eval",
}

PROBLEM_KERNELS = {
    "fk_jacobian": "kinematics.fk_jacobian",
    "fk_frames": "skeleton.fk_frames",
    "silhouette_structure": "camera.silhouette_structure",
}

# class name -> span names of its forward and backward methods
LAYER_METHODS = {
    "GRU": ("layers.gru_forward", "layers.gru_backward"),
    "Conv1d": ("layers.conv1d_forward", "layers.conv1d_backward"),
    "BatchNorm": ("layers.other", "layers.other"),
    "Affine": ("layers.other", "layers.other"),
    "ELU": ("layers.other", "layers.other"),
    "Dropout": ("layers.other", "layers.other"),
}

RESIDUAL_SPANS = ("pose_problem.residuals", "translation_problem.residuals")


def _record_nnz(span, args, kwargs, jac):
    span.attrs["nnz"] = int(jac.nnz if sp.issparse(jac) else np.count_nonzero(jac))


def _record_bytes(span, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    span.attrs["bytes"] = os.path.getsize(path)


def _record_history(span, args, kwargs, result):
    history = result[2]["loss_sv"]
    span.attrs.update(epochs=len(history), loss_sv_final=history[-1])


def _traced_lm(tracer, lm):
    """Wraps levenberg_marquardt; reads its LMResult and counts the singular
    damped systems it met (scipy's MatrixRankWarning)."""
    @functools.wraps(lm)
    def traced(residuals, x0, jacobian=None, options=None):
        span = tracer.begin("lm")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", MatrixRankWarning)
                result = lm(residuals, x0, jacobian, options)
        finally:
            tracer.end(span)
        singular = 0
        for w in caught:
            if issubclass(w.category, MatrixRankWarning):
                singular += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        span.attrs.update(
            problem=type(getattr(residuals, "__self__", None)).__name__,
            status=result.status, iterations=result.iterations,
            first_cost=result.cost_history[0], last_cost=result.cost_history[-1],
            singular=singular)
        return result
    return traced


@contextlib.contextmanager
def tracing(tracer, run):
    """Every probe installed, and new spans labelled `run`, inside the block.
    Yields the Patches, whose `missing` lists probe points not found."""
    patches = Patches()
    tracer.run = run
    try:
        install(tracer, patches)
        yield patches
    finally:
        patches.restore()
        tracer.run = ""


def install(tracer, patches):
    """Wrap every probe point; `patches.restore()` removes them all."""
    # import_module, because mocorr.net re-exports a function named `train`
    # that hides the mocorr.net.train module attribute
    (camera, motion, layers, model, train, fitting, problem, refine, pipeline,
     skeleton) = (importlib.import_module(f"mocorr.{name}") for name in (
        "camera", "motion", "net.layers", "net.model", "net.train",
        "optim.fitting", "optim.problem", "optim.refine", "pipeline", "skeleton"))

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    # jsonio first, so pipeline.save_document nests it under the artifact span
    for module in (motion, camera, skeleton, model, pipeline):
        patches.replace(module, "save_document", span("jsonio.save", _record_bytes))
    for attr, name in STAGES.items():
        after = _record_history if attr == "train" else None
        patches.replace(pipeline, attr, span(name, after))
    for module in (fitting, refine):
        patches.replace(module, "levenberg_marquardt",
                        lambda fn: _traced_lm(tracer, fn))
    for cls, prefix in ((problem.PoseProblem, "pose_problem"),
                        (problem.TranslationProblem, "translation_problem")):
        patches.replace(cls, "residuals", span(f"{prefix}.residuals"))
        patches.replace(cls, "jacobian", span(f"{prefix}.jacobian", _record_nnz))
    for attr, name in PROBLEM_KERNELS.items():
        patches.replace(problem, attr, span(name))
    for cls_name, (forward, backward) in LAYER_METHODS.items():
        cls = getattr(layers, cls_name)
        patches.replace(cls, "forward", span(forward))
        patches.replace(cls, "backward", span(backward))
    patches.replace(train.Adam, "step", span("train.adam"))


PER_OP_BUSY = {
    "pipeline.synth_s": "pipeline.synth",
    "pipeline.mono_fit_s": "pipeline.mono_fit",
    "pipeline.sparse_fit_s": "pipeline.sparse_fit",
    "pipeline.train_s": "pipeline.train",
    "pipeline.infer_s": "pipeline.infer",
    "pipeline.refine_s": "pipeline.refine",
    "pipeline.report_s": "pipeline.report",
    "pipeline.artifacts_s": "pipeline.artifacts",
    "pose_problem.residuals_s": "pose_problem.residuals",
    "pose_problem.jacobian_s": "pose_problem.jacobian",
    "translation_problem.residuals_s": "translation_problem.residuals",
    "translation_problem.jacobian_s": "translation_problem.jacobian",
    "kinematics.fk_jacobian_s": "kinematics.fk_jacobian",
    "skeleton.fk_frames_s": "skeleton.fk_frames",
    "camera.silhouette_structure_s": "camera.silhouette_structure",
    "layers.gru_forward_s": "layers.gru_forward",
    "layers.gru_backward_s": "layers.gru_backward",
    "layers.conv1d_forward_s": "layers.conv1d_forward",
    "layers.conv1d_backward_s": "layers.conv1d_backward",
    "layers.other_s": "layers.other",
    "train.adam_s": "train.adam",
    "model.generator_forward_s": "model.generator_forward",
    "jsonio.save_s": "jsonio.save",
    "metrics.eval_s": "metrics.eval",
}

PER_OP_CALLS = {
    "pose_problem.residuals_calls": "pose_problem.residuals",
    "pose_problem.jacobian_calls": "pose_problem.jacobian",
    "kinematics.fk_jacobian_calls": "kinematics.fk_jacobian",
    "skeleton.fk_frames_calls": "skeleton.fk_frames",
    "camera.silhouette_structure_calls": "camera.silhouette_structure",
}


def lm_solves(spans, runs):
    """One convergence record per LM solve begun in one of `runs`."""
    kids = children(spans)
    selfs = self_times(spans)
    records = []
    for i, span in enumerate(spans):
        if span.name != "lm" or span.run not in runs:
            continue
        stage = next((spans[a].name for a in ancestors(spans, i)
                      if spans[a].name.startswith("pipeline.")), "")
        evaluations = sum(spans[k].name in RESIDUAL_SPANS for k in kids[i])
        records.append({
            "run": span.run, "stage": stage, "problem": span.attrs["problem"],
            "status": span.attrs["status"], "iterations": span.attrs["iterations"],
            # the first residual evaluation is the starting point; every later
            # one scores a proposed step
            "trial_steps": max(evaluations - 1, 0),
            "first_cost": span.attrs["first_cost"], "last_cost": span.attrs["last_cost"],
            "singular_solves": span.attrs["singular"], "self_s": selfs[i],
            "seconds": span.duration,
        })
    return records


def layer_metrics(spans, op_runs):
    """Per-layer metrics: each is a mean over the traced operations `op_runs`,
    except `train.epoch_s` (per training epoch), `train.loss_sv_final` (the
    last traced training's final L_sv) and `synth.generate_s` (per scene
    generated, counting set-up too)."""
    runs = set(op_runs)
    n_ops = max(len(runs), 1)
    in_ops = [s for s in spans if s.run in runs]
    out = {}
    for metric, name in PER_OP_BUSY.items():
        # outermost() works on the full list so that parents stay reachable
        out[metric] = sum(spans[i].duration for i in outermost(spans, [name])
                          if spans[i].run in runs) / n_ops
    for metric, name in PER_OP_CALLS.items():
        out[metric] = sum(s.name == name for s in in_ops) / n_ops
    out["pose_problem.jacobian_nnz"] = sum(
        s.attrs.get("nnz", 0) for s in in_ops if s.name == "pose_problem.jacobian") / n_ops
    out["jsonio.saved_bytes"] = sum(
        s.attrs.get("bytes", 0) for s in in_ops if s.name == "jsonio.save") / n_ops

    solves = lm_solves(spans, runs)
    iterations = sum(r["iterations"] for r in solves)
    trials = sum(r["trial_steps"] for r in solves)
    out["lm.solves"] = len(solves) / n_ops
    out["lm.iterations"] = iterations / n_ops
    out["lm.cap_hits"] = sum(r["status"] == "max_iterations" for r in solves) / n_ops
    out["lm.trial_steps"] = trials / n_ops
    out["lm.accept_ratio"] = iterations / trials if trials else 0.0
    out["lm.singular_solves"] = sum(r["singular_solves"] for r in solves) / n_ops
    out["lm.self_s"] = sum(r["self_s"] for r in solves) / n_ops

    trains = [s for s in in_ops if s.name == "pipeline.train"]
    epochs = sum(s.attrs["epochs"] for s in trains)
    out["train.epoch_s"] = sum(s.duration for s in trains) / epochs if epochs else 0.0
    out["train.loss_sv_final"] = trains[-1].attrs["loss_sv_final"] if trains else 0.0
    synths = [s for s in spans if s.name == "pipeline.synth"]
    out["synth.generate_s"] = (sum(s.duration for s in synths) / len(synths)
                               if synths else 0.0)
    return out


def unit(metric):
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_mm"):
        return "mm"
    if "loss" in metric:
        return "1"
    return "count"
