"""Command-line front end for the motion-correction pipeline.

Stages run separately (`synth`, `fit`, `sparse-fit`, `train`, `infer`,
`refine`, `eval`) or end to end (`run`). Exit codes: 0 on success, 1 on
numeric failure, 2 on I/O, parse, or configuration problems.
"""

import argparse
import dataclasses
import json
import os
import sys

from .camera import load_camera
from .errors import ConfigError, InvalidInputError, MocorrError, ParseError
from .jsonio import save_document
from .motion import load_motion, load_observations, save_motion
from .net.model import load_checkpoint, save_checkpoint
from .net.train import train
from .optim.fitting import initial_fit, sparse_view_fit
from .optim.refine import refine
from .pipeline import (ARTIFACTS, apply_seed, build_report, default_pipeline_config,
                       hybrid_motion, load_pipeline_config, run_pipeline,
                       save_pipeline_config, write_scene)
from .skeleton import load_skeleton
from .synth import synth_generate


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mocorr",
        description="Synthetic motion-capture correction pipeline.")
    parser.add_argument("--config", help="pipeline config JSON (pipeline/1)")
    parser.add_argument("--seed", type=int, help="override the pipeline seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a synthetic scene")

    fit = sub.add_parser("fit", help="monocular keypoint fit")
    fit.add_argument("--obs", required=True)
    fit.add_argument("--camera", required=True)
    fit.add_argument("--skeleton", required=True)

    sfit = sub.add_parser("sparse-fit", help="multi-view keypoint fit")
    sfit.add_argument("--obs", required=True, nargs="+")
    sfit.add_argument("--camera", required=True, nargs="+")
    sfit.add_argument("--skeleton", required=True)

    tr = sub.add_parser("train", help="train the motion prior")
    tr.add_argument("--init", required=True, help="noisy input motion")
    tr.add_argument("--sv", required=True, help="sparse-view reference motion")
    tr.add_argument("--ref", required=True, nargs="+", help="unpaired reference motions")
    tr.add_argument("--skeleton", required=True)

    inf = sub.add_parser("infer", help="run the generator on a motion")
    inf.add_argument("--checkpoint", required=True)
    inf.add_argument("--init", required=True)
    inf.add_argument("--skeleton", required=True)
    inf.add_argument("--obs", required=True, help="keypoints for root placement")
    inf.add_argument("--camera", required=True, help="camera for root placement")

    ref = sub.add_parser("refine", help="energy-based refinement")
    ref.add_argument("--net", required=True, help="network-corrected motion")
    ref.add_argument("--obs", required=True)
    ref.add_argument("--camera", required=True)
    ref.add_argument("--skeleton", required=True)
    ref.add_argument("--no-silhouette", action="store_true",
                     help="drop the silhouette term")

    ev = sub.add_parser("eval", help="compare a motion against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--skeleton", required=True)

    run = sub.add_parser("run", help="full pipeline")
    run.add_argument("--checkpoint", help="reuse a trained checkpoint (skips training)")
    return parser


def _load_config(args):
    if args.config is not None:
        cfg = load_pipeline_config(args.config)
        if args.seed is not None:
            apply_seed(cfg, args.seed)
    else:
        cfg = default_pipeline_config(0 if args.seed is None else args.seed)
    return cfg


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_synth(args):
    cfg = _load_config(args)
    scene = synth_generate(cfg.scene)
    os.makedirs(args.out, exist_ok=True)
    write_scene(scene, args.out)
    save_pipeline_config(_out_path(args, "config.json"), cfg)
    print(f"wrote scene artifacts to {args.out}")
    return 0


def _cmd_fit(args):
    cfg = _load_config(args)
    skeleton = load_skeleton(args.skeleton)
    obs = load_observations(args.obs)
    camera = load_camera(args.camera)
    motion = initial_fit(obs, camera, skeleton, cfg.lm, cfg.weights)
    path = _out_path(args, ARTIFACTS["init"])
    save_motion(path, motion)
    print(f"wrote {path}")
    return 0


def _cmd_sparse_fit(args):
    if len(args.obs) != len(args.camera):
        raise ConfigError("--obs and --camera must list the same number of files")
    cfg = _load_config(args)
    skeleton = load_skeleton(args.skeleton)
    multi_obs = [load_observations(p) for p in args.obs]
    cameras = [load_camera(p) for p in args.camera]
    motion = sparse_view_fit(multi_obs, cameras, skeleton, cfg.lm, cfg.weights)
    path = _out_path(args, ARTIFACTS["sv"])
    save_motion(path, motion)
    print(f"wrote {path}")
    return 0


def _cmd_train(args):
    cfg = _load_config(args)
    skeleton = load_skeleton(args.skeleton)
    init_motion = load_motion(args.init)
    sv_motion = load_motion(args.sv)
    refs = [load_motion(p) for p in args.ref]
    gen, disc, history = train([(init_motion, sv_motion)], refs, skeleton, cfg.train)
    path = _out_path(args, ARTIFACTS["checkpoint"])
    save_checkpoint(path, gen, disc)
    print(f"wrote {path} (final loss_sv {history['loss_sv'][-1]:.6f})")
    return 0


def _cmd_infer(args):
    cfg = _load_config(args)
    skeleton = load_skeleton(args.skeleton)
    init_motion = load_motion(args.init)
    gen, _disc = load_checkpoint(args.checkpoint, skeleton)
    obs = load_observations(args.obs)
    camera = load_camera(args.camera)
    motion = hybrid_motion(gen, init_motion, skeleton, obs, camera,
                           cfg.weights, cfg.lm)
    path = _out_path(args, ARTIFACTS["hybrid"])
    save_motion(path, motion)
    print(f"wrote {path}")
    return 0


def _cmd_refine(args):
    cfg = _load_config(args)
    skeleton = load_skeleton(args.skeleton)
    net_motion = load_motion(args.net)
    obs = load_observations(args.obs)
    camera = load_camera(args.camera)
    weights = dataclasses.replace(cfg.weights, lambda_s=0.0) if args.no_silhouette else cfg.weights
    motion = refine(net_motion, obs, camera, skeleton, weights=weights, options=cfg.lm,
                    n_sil=cfg.scene.sil_points)
    path = _out_path(args, ARTIFACTS["refined"])
    save_motion(path, motion)
    print(f"wrote {path}")
    return 0


def _cmd_eval(args):
    skeleton = load_skeleton(args.skeleton)
    pred = load_motion(args.pred)
    gt = load_motion(args.gt)
    report = build_report({"pred": pred}, gt, skeleton, seed=-1)
    del report["seed"]
    path = _out_path(args, "eval_report.json")
    save_document(path, report)
    summary = report["stages"]["pred"]
    print(json.dumps({k: summary[k] for k in ("mpjpe_mm", "pck_0.5", "pck_0.3")},
                     sort_keys=True))
    return 0


def _cmd_run(args):
    cfg = _load_config(args)
    report = run_pipeline(cfg, args.out, checkpoint=args.checkpoint, log=print)
    for stage in ("init", "hybrid", "refined"):
        s = report["stages"][stage]
        print(f"{stage}: mpjpe {s['mpjpe_mm']:.2f}mm, "
              f"pck0.5 {s['pck_0.5']:.1f}%, pck0.3 {s['pck_0.3']:.1f}%")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "sparse-fit": _cmd_sparse_fit,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
    "run": _cmd_run,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ConfigError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MocorrError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
