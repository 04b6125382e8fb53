"""End-to-end orchestration: scene synthesis through evaluation report.

The full run writes every intermediate artifact to the output directory so
each stage can also be driven separately from the command line, and the
final report is recomputable from the emitted motion files alone.
"""

import dataclasses
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from .camera import save_camera
from .errors import ConfigError, InvalidInputError
from .jsonio import load_document, require_int, save_document
from .metrics import frame_mpjpe, joint_positions, mpjpe, pck
from .motion import MotionMap, save_motion, save_observations
from .net.model import generator_forward, load_checkpoint, save_checkpoint
from .net.train import TrainConfig, train
from .optim.energies import EnergyWeights
from .optim.fitting import initial_fit, sparse_view_fit
from .optim.lm import LMOptions
from .optim.refine import place_translations, refine
from .skeleton import save_skeleton
from .synth import SceneConfig, synth_generate

CONFIG_FORMAT = "pipeline/1"
REPORT_FORMAT = "report/1"
STAGES = ("init", "hybrid", "refined")

ARTIFACTS = {
    "skeleton": "skeleton.json",
    "gt": "gt.motion.json",
    "marker_ref": "marker_ref.motion.json",
    "mono_camera": "camera_mono.json",
    "mono_obs": "obs_mono.json",
    "init": "init.motion.json",
    "sv": "sv.motion.json",
    "checkpoint": "checkpoint.json",
    "hybrid": "hybrid.motion.json",
    "refined": "refined.motion.json",
    "report": "report.json",
    "plot": "plot_data.csv",
}


def sparse_camera_file(v):
    return f"camera_sparse_{v}.json"


def sparse_obs_file(v):
    return f"obs_sparse_{v}.json"


@dataclass
class PipelineConfig:
    seed: int = 0
    scene: SceneConfig = field(default_factory=SceneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    weights: EnergyWeights = field(default_factory=EnergyWeights)
    lm: LMOptions = field(default_factory=LMOptions)


def default_pipeline_config(seed=0):
    """Defaults with the seed threaded through every stage."""
    cfg = PipelineConfig(seed=seed)
    apply_seed(cfg, seed)
    return cfg


def apply_seed(cfg, seed):
    """Re-derive all stage seeds from one pipeline seed."""
    cfg.seed = int(seed)
    cfg.scene.seed = cfg.seed
    cfg.train.seed = cfg.seed + 1
    return cfg


def _settable_fields(section):
    """The fields a config file sets; stage seeds follow the pipeline seed."""
    return [f for f in dataclasses.fields(section) if f.name != "seed"]


def _section_to_dict(obj):
    return {f.name: getattr(obj, f.name) for f in _settable_fields(obj)}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field_value(kind, value, where):
    """A JSON value as a config field annotated `kind` (bool, int, float, or
    one of these or None) takes it."""
    kinds = typing.get_args(kind) or (kind,)
    if value is None and type(None) in kinds:
        return None
    if bool in kinds:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{where} must be true or false")
    if int in kinds:
        if _is_number(value) and (isinstance(value, int) or value.is_integer()):
            return int(value)
        raise ConfigError(f"{where} must be an integer")
    # an overflowing literal (json reads 1e400 as inf) and an integer past
    # the float range fail the bound
    if float in kinds and not (_is_number(value) and abs(value) <= np.finfo(float).max):
        raise ConfigError(f"{where} must be a finite number")
    return value


def _section_from_dict(cls, data, name):
    if not isinstance(data, dict):
        raise ConfigError(f"{name} section must be an object")
    known = {f.name: f for f in _settable_fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown field {name}.{key}")
        kwargs[key] = _field_value(known[key].type, value, f"{name}.{key}")
    try:
        return cls(**kwargs)
    except (InvalidInputError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def save_pipeline_config(path, cfg):
    doc = {
        "format": CONFIG_FORMAT,
        "seed": cfg.seed,
        "scene": _section_to_dict(cfg.scene),
        "train": _section_to_dict(cfg.train),
        "weights": _section_to_dict(cfg.weights),
        "lm": _section_to_dict(cfg.lm),
    }
    save_document(path, doc)


def load_pipeline_config(path):
    doc = load_document(path, CONFIG_FORMAT)
    sections = {
        "scene": (SceneConfig, "scene"),
        "train": (TrainConfig, "train"),
        "weights": (EnergyWeights, "weights"),
        "lm": (LMOptions, "lm"),
    }
    kwargs = {}
    for key, value in doc.items():
        if key == "format":
            continue
        if key == "seed":
            kwargs[key] = require_int(doc, path, key)
        elif key in sections:
            cls, name = sections[key]
            kwargs[key] = _section_from_dict(cls, value, name)
        else:
            raise ConfigError(f"unknown config field {key!r}")
    cfg = PipelineConfig(**kwargs)
    return apply_seed(cfg, cfg.seed)


def unit_quat_rows(raw):
    """Normalize each 4-block of raw network rows; degenerate blocks
    fall back to the identity quaternion."""
    blocks = np.asarray(raw, dtype=float).reshape(raw.shape[0], -1, 4).copy()
    norms = np.linalg.norm(blocks, axis=2)
    bad = norms < 1e-8
    blocks[bad] = (1.0, 0.0, 0.0, 0.0)
    norms = np.where(bad, 1.0, norms)
    blocks /= norms[:, :, None]
    flip = blocks[:, :, 0] < 0.0
    blocks[flip] *= -1.0
    return blocks.reshape(raw.shape[0], -1)


def hybrid_motion(gen, init_motion, skeleton, obs, camera, weights=None, options=None):
    """Run the generator on the initial fit and place the roots of its poses.

    The root translations are re-solved, starting from the initial fit's,
    with every pose held at the corrected output: the initial-fit
    translations compensate initial-fit angle errors, so keeping them would
    misplace the corrected motion. The confidences are the initial fit's.
    """
    quats = unit_quat_rows(generator_forward(gen, init_motion))
    trans = place_translations(quats, obs, camera, skeleton,
                               init_motion.translations, weights, options)
    return MotionMap(quats, init_motion.conf.copy(), trans)


def write_scene(scene, out_dir):
    save_skeleton(os.path.join(out_dir, ARTIFACTS["skeleton"]), scene.skeleton)
    save_motion(os.path.join(out_dir, ARTIFACTS["gt"]), scene.gt_motion)
    save_motion(os.path.join(out_dir, ARTIFACTS["marker_ref"]), scene.marker_ref)
    save_camera(os.path.join(out_dir, ARTIFACTS["mono_camera"]), scene.mono_camera)
    save_observations(os.path.join(out_dir, ARTIFACTS["mono_obs"]), scene.mono_obs)
    for v, (cam, obs) in enumerate(zip(scene.sparse_cameras, scene.sparse_obs)):
        save_camera(os.path.join(out_dir, sparse_camera_file(v)), cam)
        save_observations(os.path.join(out_dir, sparse_obs_file(v)), obs)


def stage_metrics(pred, gt, skeleton):
    """One stage's report section; `pred` and `gt` are motion maps or their
    joint positions, as the metrics take them."""
    return {
        "mpjpe_mm": mpjpe(pred, gt, skeleton),
        "pck_0.5": pck(pred, gt, skeleton, 0.5),
        "pck_0.3": pck(pred, gt, skeleton, 0.3),
        "frame_mpjpe_mm": [float(v) for v in frame_mpjpe(pred, gt, skeleton)],
    }


def build_report(stages, gt, skeleton, seed):
    # forward kinematics once per motion; every metric then reads positions
    gt_positions = joint_positions(gt, skeleton)
    report = {
        "format": REPORT_FORMAT,
        "seed": seed,
        "n_frames": gt.n_frames,
        "n_joints": gt.n_joints,
        "stages": {name: stage_metrics(joint_positions(m, skeleton), gt_positions, skeleton)
                   for name, m in stages.items()},
    }
    return report


def write_plot_data(path, report):
    lines = ["frame,stage,mpjpe_mm"]
    for stage in STAGES:
        series = report["stages"][stage]["frame_mpjpe_mm"]
        lines.extend(f"{t},{stage},{v!r}" for t, v in enumerate(series))
    tmp = str(path) + ".partial"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def run_pipeline(cfg, out_dir, checkpoint=None, log=None):
    """Full synth -> fit -> train -> infer -> refine -> eval run.

    When `checkpoint` names an existing checkpoint file, training is skipped
    and the stored generator is used instead. Returns the report dict.
    """
    os.makedirs(out_dir, exist_ok=True)

    def say(msg):
        if log is not None:
            log(msg)

    say(f"generating scene (seed {cfg.scene.seed})")
    scene = synth_generate(cfg.scene)
    write_scene(scene, out_dir)
    skeleton = scene.skeleton

    say("fitting monocular sequence")
    init_motion = initial_fit(scene.mono_obs, scene.mono_camera, skeleton,
                              cfg.lm, cfg.weights)
    save_motion(os.path.join(out_dir, ARTIFACTS["init"]), init_motion)

    say(f"fitting {cfg.scene.V} sparse views")
    sv_motion = sparse_view_fit(scene.sparse_obs, scene.sparse_cameras, skeleton,
                                cfg.lm, cfg.weights)
    save_motion(os.path.join(out_dir, ARTIFACTS["sv"]), sv_motion)

    if checkpoint is not None:
        say(f"loading checkpoint {checkpoint}")
        gen, disc = load_checkpoint(checkpoint, skeleton)
    else:
        say(f"training motion prior ({cfg.train.epochs} epochs)")
        gen, disc, _history = train([(init_motion, sv_motion)],
                                    [scene.marker_ref], skeleton, cfg.train)
    save_checkpoint(os.path.join(out_dir, ARTIFACTS["checkpoint"]), gen, disc)

    say("running generator")
    hybrid = hybrid_motion(gen, init_motion, skeleton, scene.mono_obs,
                           scene.mono_camera, cfg.weights, cfg.lm)
    save_motion(os.path.join(out_dir, ARTIFACTS["hybrid"]), hybrid)

    say("refining")
    refined = refine(hybrid, scene.mono_obs, scene.mono_camera, skeleton,
                     weights=cfg.weights, options=cfg.lm, n_sil=cfg.scene.sil_points)
    save_motion(os.path.join(out_dir, ARTIFACTS["refined"]), refined)

    say("evaluating")
    report = build_report(
        {"init": init_motion, "hybrid": hybrid, "refined": refined},
        scene.gt_motion, skeleton, cfg.seed)
    save_document(os.path.join(out_dir, ARTIFACTS["report"]), report)
    write_plot_data(os.path.join(out_dir, ARTIFACTS["plot"]), report)
    return report
