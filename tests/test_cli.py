"""Command-line interface: exit codes, outputs, error reporting."""

import json
import os
import re
import shlex

import numpy as np
import pytest

import mocorr.cli as cli
from mocorr.cli import _build_parser, main
from mocorr.errors import NumericFailureError
from mocorr.motion import MotionMap, load_motion, save_motion
from mocorr.net.model import Discriminator, Generator, save_checkpoint
from mocorr.net.train import TrainConfig
from mocorr.optim.lm import LMOptions
from mocorr.pipeline import (PipelineConfig, apply_seed, load_pipeline_config,
                             save_pipeline_config)
from mocorr.skeleton import load_skeleton
from mocorr.synth import SceneConfig, synth_generate

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def tiny_config(seed=13):
    cfg = PipelineConfig(
        seed=seed,
        scene=SceneConfig(T=8, V=2, noise_px=2.0, occlusion=0.1,
                          sil_points=16, amplitude=0.2),
        train=TrainConfig(epochs=2, batch=4, window=8, stride=8,
                          conv_width=8, local_width=4, hidden=8,
                          disc_hidden=8, kernel=7, dropout=0.0),
        lm=LMOptions(max_iterations=30),
    )
    return apply_seed(cfg, seed)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_scene")
    cfg_path = root / "config.json"
    save_pipeline_config(cfg_path, tiny_config())
    out = root / "scene"
    rc = main(["--config", str(cfg_path), "--out", str(out), "synth"])
    assert rc == 0
    return {"config": str(cfg_path), "out": str(out)}


def path_in(scene, name):
    return os.path.join(scene["out"], name)


def test_synth_writes_scene(scene_dir):
    for name in ("skeleton.json", "gt.motion.json", "marker_ref.motion.json",
                 "camera_mono.json", "obs_mono.json", "camera_sparse_0.json",
                 "obs_sparse_1.json", "config.json"):
        assert os.path.exists(path_in(scene_dir, name)), name


def run_stages(scene_dir, out, *refine_flags):
    """fit, sparse-fit, train, infer and refine into `out`, one command each."""
    common = ["--config", scene_dir["config"], "--out", out]
    skeleton = path_in(scene_dir, "skeleton.json")
    mono = ["--obs", path_in(scene_dir, "obs_mono.json"),
            "--camera", path_in(scene_dir, "camera_mono.json"), "--skeleton", skeleton]
    stages = [
        ("init.motion.json", ["fit", *mono]),
        ("sv.motion.json", ["sparse-fit",
                            "--obs", path_in(scene_dir, "obs_sparse_0.json"),
                            path_in(scene_dir, "obs_sparse_1.json"),
                            "--camera", path_in(scene_dir, "camera_sparse_0.json"),
                            path_in(scene_dir, "camera_sparse_1.json"),
                            "--skeleton", skeleton]),
        ("checkpoint.json", ["train",
                             "--init", os.path.join(out, "init.motion.json"),
                             "--sv", os.path.join(out, "sv.motion.json"),
                             "--ref", path_in(scene_dir, "marker_ref.motion.json"),
                             "--skeleton", skeleton]),
        ("hybrid.motion.json", ["infer", "--checkpoint", os.path.join(out, "checkpoint.json"),
                                "--init", os.path.join(out, "init.motion.json"), *mono]),
        ("refined.motion.json", ["refine", "--net", os.path.join(out, "hybrid.motion.json"),
                                 *mono, *refine_flags]),
    ]
    for written, argv in stages:
        assert main(common + argv) == 0, argv[0]
        assert os.path.exists(os.path.join(out, written)), written


def test_fit_train_infer_refine_eval_chain(scene_dir, tmp_path, capsys):
    out = str(tmp_path)
    common = ["--config", scene_dir["config"], "--out", out]
    skeleton = path_in(scene_dir, "skeleton.json")
    run_stages(scene_dir, out, "--no-silhouette")

    capsys.readouterr()
    rc = main(common + ["eval",
                        "--pred", os.path.join(out, "refined.motion.json"),
                        "--gt", path_in(scene_dir, "gt.motion.json"),
                        "--skeleton", skeleton])
    assert rc == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert sorted(summary) == ["mpjpe_mm", "pck_0.3", "pck_0.5"]
    assert summary["mpjpe_mm"] >= 0.0
    assert os.path.exists(os.path.join(out, "eval_report.json"))


def test_stage_by_stage_equals_run(scene_dir, tmp_path):
    stages, whole = str(tmp_path / "stages"), str(tmp_path / "run")
    run_stages(scene_dir, stages)
    assert main(["--config", scene_dir["config"], "--out", whole, "run"]) == 0
    for name in ("init", "sv", "hybrid", "refined"):
        with open(os.path.join(stages, f"{name}.motion.json"), "rb") as a, \
                open(os.path.join(whole, f"{name}.motion.json"), "rb") as b:
            assert a.read() == b.read(), name


def test_refine_zero_quaternion_exits_2(scene_dir, tmp_path, capsys):
    motion = load_motion(path_in(scene_dir, "gt.motion.json"))
    motion.quats[1, 8:12] = 0.0
    net = str(tmp_path / "zero.motion.json")
    save_motion(net, motion)
    rc = main(["--config", scene_dir["config"], "--out", str(tmp_path), "refine",
               "--net", net,
               "--obs", path_in(scene_dir, "obs_mono.json"),
               "--camera", path_in(scene_dir, "camera_mono.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json"), "--no-silhouette"])
    assert rc == 2
    assert "cannot normalize zero quaternion" in capsys.readouterr().err


def test_train_with_a_reference_of_another_joint_count_exits_2(scene_dir, tmp_path, capsys):
    ref = load_motion(path_in(scene_dir, "marker_ref.motion.json"))
    fewer = str(tmp_path / "ref.motion.json")
    save_motion(fewer, MotionMap(ref.quats[:, :-4], ref.conf[:, :-1], ref.translations))
    gt = path_in(scene_dir, "gt.motion.json")
    rc = main(["--config", scene_dir["config"], "--out", str(tmp_path), "train",
               "--init", gt, "--sv", gt, "--ref", fewer,
               "--skeleton", path_in(scene_dir, "skeleton.json")])
    assert rc == 2
    assert "joint count" in capsys.readouterr().err


def test_missing_file_exits_2(scene_dir, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = main(["--out", str(tmp_path), "fit", "--obs", missing,
               "--camera", path_in(scene_dir, "camera_mono.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "nope.json" in err


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "pipeline/1", "bogus_field": 1}')
    rc = main(["--config", str(bad), "--out", str(tmp_path), "synth"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    not_json = tmp_path / "scrambled.json"
    not_json.write_text("{broken")
    rc = main(["--config", str(not_json), "--out", str(tmp_path), "synth"])
    assert rc == 2


def test_config_with_seed_overrides_the_file_seed(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_pipeline_config(cfg_path, tiny_config(seed=13))
    out = tmp_path / "scene"
    rc = main(["--config", str(cfg_path), "--seed", "5", "--out", str(out), "synth"])
    assert rc == 0
    with open(out / "config.json") as fh:
        assert json.load(fh)["seed"] == 5
    cfg = load_pipeline_config(out / "config.json")
    assert (cfg.seed, cfg.scene.seed, cfg.train.seed) == (5, 5, 6)
    expected = synth_generate(tiny_config(seed=5).scene).gt_motion
    assert np.array_equal(load_motion(out / "gt.motion.json").quats, expected.quats)


def test_numeric_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise NumericFailureError("non-finite scene")

    monkeypatch.setattr(cli, "synth_generate", fail)
    rc = main(["--seed", "3", "--out", str(tmp_path), "synth"])
    assert rc == 1
    assert capsys.readouterr().err == "numeric failure: non-finite scene\n"


def test_sparse_fit_count_mismatch_exits_2(scene_dir, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "sparse-fit",
               "--obs", path_in(scene_dir, "obs_sparse_0.json"),
               path_in(scene_dir, "obs_sparse_1.json"),
               "--camera", path_in(scene_dir, "camera_sparse_0.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json")])
    assert rc == 2
    assert "same number" in capsys.readouterr().err


def test_infer_needs_obs_and_camera_together(scene_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--out", str(tmp_path), "infer",
              "--checkpoint", str(tmp_path / "absent.json"),
              "--init", path_in(scene_dir, "gt.motion.json"),
              "--skeleton", path_in(scene_dir, "skeleton.json"),
              "--obs", path_in(scene_dir, "obs_mono.json")])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("dropout", ["abc", None, True, [0.1]])
def test_malformed_checkpoint_dropout_exits_2(scene_dir, tmp_path, capsys, dropout):
    skeleton = load_skeleton(path_in(scene_dir, "skeleton.json"))
    rng = np.random.default_rng(0)
    gen = Generator(skeleton, rng, conv_width=8, local_width=4, hidden=8, kernel=7,
                    dropout=0.0)
    checkpoint = str(tmp_path / "checkpoint.json")
    save_checkpoint(checkpoint, gen, Discriminator(skeleton.n_joints, rng, hidden=8))
    with open(checkpoint) as fh:
        doc = json.load(fh)
    doc["dropout"] = dropout
    with open(checkpoint, "w") as fh:
        json.dump(doc, fh)
    rc = main(["--out", str(tmp_path / "out"), "infer", "--checkpoint", checkpoint,
               "--init", path_in(scene_dir, "gt.motion.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json"),
               "--obs", path_in(scene_dir, "obs_mono.json"),
               "--camera", path_in(scene_dir, "camera_mono.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def readme_commands():
    """Every `mocorr ...` command in the README's fenced blocks, with
    backslash continuations joined."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("mocorr "):
                commands.append(line.strip())
    return commands


def readme_config():
    """The README's fenced `json` config example."""
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"^```json\n(.*?)^```", fh.read(), re.M | re.S)
    return block


def test_readme_config_loads_with_derived_seeds(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(readme_config())
    cfg = load_pipeline_config(path)
    assert (cfg.seed, cfg.scene.seed, cfg.train.seed) == (42, 42, 43)


def test_readme_commands_parse():
    commands = readme_commands()
    assert any(" refine " in c for c in commands)
    parser = _build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_corrupt_motion_exits_2(scene_dir, tmp_path, capsys):
    mangled = tmp_path / "mangled.motion.json"
    mangled.write_text('{"format": "motion/1"}')
    rc = main(["--out", str(tmp_path), "eval",
               "--pred", str(mangled),
               "--gt", path_in(scene_dir, "gt.motion.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def _drop_last_joint(doc):
    doc["n_joints"] -= 1
    for frame in doc["frames"]:
        del frame["keypoints"][-1], frame["conf"][-1]


MALFORMED = {
    "skeleton limits of the wrong length":
        ("skeleton.json", lambda doc: doc["joints"][1].update(limits=[[0.0, 1.0]])),
    "config seed not a number": ("config.json", lambda doc: doc.update(seed="abc")),
    "config scene.T not a number":
        ("config.json", lambda doc: doc["scene"].update(T="abc")),
    "config seed null": ("config.json", lambda doc: doc.update(seed=None)),
    "config train.hidden 0": ("config.json", lambda doc: doc["train"].update(hidden=0)),
    "config train.conv_width -3":
        ("config.json", lambda doc: doc["train"].update(conv_width=-3)),
    "config train.kernel 4": ("config.json", lambda doc: doc["train"].update(kernel=4)),
    "config train.kernel 0": ("config.json", lambda doc: doc["train"].update(kernel=0)),
    "config train.dropout 1.0":
        ("config.json", lambda doc: doc["train"].update(dropout=1.0)),
    "config train.decay_epoch 0":
        ("config.json", lambda doc: doc["train"].update(decay_epoch=0)),
    "motion T not a number": ("gt.motion.json", lambda doc: doc.update(T="abc")),
    "observations T null": ("obs_mono.json", lambda doc: doc.update(T=None)),
    "observations frames not a list": ("obs_mono.json", lambda doc: doc.update(frames=5)),
    "observations with one joint fewer": ("obs_mono.json", _drop_last_joint),
    # inf is written as the overflowing literal 1e400, which json reads as inf
    "camera cx 1e400": ("camera_mono.json", lambda doc: doc.update(cx=np.inf)),
    "camera fx 1e400": ("camera_mono.json", lambda doc: doc.update(fx=np.inf)),
    "config weights.lambda_t 1e400":
        ("config.json", lambda doc: doc["weights"].update(lambda_t=np.inf)),
    "config scene.noise_px 1e400":
        ("config.json", lambda doc: doc["scene"].update(noise_px=np.inf)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_exit_2(scene_dir, tmp_path, capsys, case):
    name, change = MALFORMED[case]
    with open(path_in(scene_dir, name)) as fh:
        doc = json.load(fh)
    change(doc)
    bad = str(tmp_path / name)
    with open(bad, "w") as fh:
        fh.write(json.dumps(doc).replace("Infinity", "1e400"))
    out = str(tmp_path / "out")
    skeleton = bad if name == "skeleton.json" else path_in(scene_dir, "skeleton.json")
    gt = bad if name == "gt.motion.json" else path_in(scene_dir, "gt.motion.json")
    if name == "config.json":
        argv = ["--config", bad, "--out", out, "synth"]
    elif name in ("obs_mono.json", "camera_mono.json"):
        obs = bad if name == "obs_mono.json" else path_in(scene_dir, "obs_mono.json")
        camera = bad if name == "camera_mono.json" else path_in(scene_dir, "camera_mono.json")
        argv = ["--out", out, "fit", "--obs", obs, "--camera", camera, "--skeleton", skeleton]
    else:
        argv = ["--out", out, "eval", "--pred", gt, "--gt", gt, "--skeleton", skeleton]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
