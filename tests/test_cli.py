"""Command-line interface: exit codes, outputs, error reporting."""

import json
import os

import pytest

from mocorr.cli import main
from mocorr.motion import load_motion, save_motion
from mocorr.net.train import TrainConfig
from mocorr.optim.lm import LMOptions
from mocorr.pipeline import PipelineConfig, apply_seed, save_pipeline_config
from mocorr.synth import SceneConfig


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


def test_fit_train_infer_refine_eval_chain(scene_dir, tmp_path, capsys):
    out = str(tmp_path)
    common = ["--config", scene_dir["config"], "--out", out]
    skeleton = path_in(scene_dir, "skeleton.json")

    rc = main(common + ["fit", "--obs", path_in(scene_dir, "obs_mono.json"),
                        "--camera", path_in(scene_dir, "camera_mono.json"),
                        "--skeleton", skeleton])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "init.motion.json"))

    rc = main(common + ["sparse-fit",
                        "--obs", path_in(scene_dir, "obs_sparse_0.json"),
                        path_in(scene_dir, "obs_sparse_1.json"),
                        "--camera", path_in(scene_dir, "camera_sparse_0.json"),
                        path_in(scene_dir, "camera_sparse_1.json"),
                        "--skeleton", skeleton])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "sv.motion.json"))

    rc = main(common + ["train",
                        "--init", os.path.join(out, "init.motion.json"),
                        "--sv", os.path.join(out, "sv.motion.json"),
                        "--ref", path_in(scene_dir, "marker_ref.motion.json"),
                        "--skeleton", skeleton])
    assert rc == 0
    checkpoint = os.path.join(out, "checkpoint.json")
    assert os.path.exists(checkpoint)

    rc = main(common + ["infer", "--checkpoint", checkpoint,
                        "--init", os.path.join(out, "init.motion.json"),
                        "--skeleton", skeleton,
                        "--obs", path_in(scene_dir, "obs_mono.json"),
                        "--camera", path_in(scene_dir, "camera_mono.json")])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "hybrid.motion.json"))

    rc = main(common + ["refine",
                        "--init", os.path.join(out, "init.motion.json"),
                        "--net", os.path.join(out, "hybrid.motion.json"),
                        "--obs", path_in(scene_dir, "obs_mono.json"),
                        "--camera", path_in(scene_dir, "camera_mono.json"),
                        "--skeleton", skeleton, "--no-silhouette"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "refined.motion.json"))

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


def test_refine_zero_quaternion_exits_2(scene_dir, tmp_path, capsys):
    motion = load_motion(path_in(scene_dir, "gt.motion.json"))
    motion.quats[1, 8:12] = 0.0
    net = str(tmp_path / "zero.motion.json")
    save_motion(net, motion)
    rc = main(["--config", scene_dir["config"], "--out", str(tmp_path), "refine",
               "--init", path_in(scene_dir, "gt.motion.json"), "--net", net,
               "--obs", path_in(scene_dir, "obs_mono.json"),
               "--camera", path_in(scene_dir, "camera_mono.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json"), "--no-silhouette"])
    assert rc == 2
    assert "cannot normalize zero quaternion" in capsys.readouterr().err


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


def test_sparse_fit_count_mismatch_exits_2(scene_dir, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "sparse-fit",
               "--obs", path_in(scene_dir, "obs_sparse_0.json"),
               path_in(scene_dir, "obs_sparse_1.json"),
               "--camera", path_in(scene_dir, "camera_sparse_0.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json")])
    assert rc == 2
    assert "same number" in capsys.readouterr().err


def test_infer_needs_obs_and_camera_together(scene_dir, tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "infer",
               "--checkpoint", str(tmp_path / "absent.json"),
               "--init", path_in(scene_dir, "gt.motion.json"),
               "--skeleton", path_in(scene_dir, "skeleton.json"),
               "--obs", path_in(scene_dir, "obs_mono.json")])
    assert rc == 2


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


MALFORMED = {
    "skeleton limits of the wrong length":
        ("skeleton.json", lambda doc: doc["joints"][1].update(limits=[[0.0, 1.0]])),
    "config seed not a number": ("config.json", lambda doc: doc.update(seed="abc")),
    "config scene.T not a number":
        ("config.json", lambda doc: doc["scene"].update(T="abc")),
    "config flipflop_rounds null":
        ("config.json", lambda doc: doc.update(flipflop_rounds=None)),
    "motion T not a number": ("gt.motion.json", lambda doc: doc.update(T="abc")),
    "observations T null": ("obs_mono.json", lambda doc: doc.update(T=None)),
    "observations frames not a list": ("obs_mono.json", lambda doc: doc.update(frames=5)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_exit_2(scene_dir, tmp_path, capsys, case):
    name, change = MALFORMED[case]
    with open(path_in(scene_dir, name)) as fh:
        doc = json.load(fh)
    change(doc)
    bad = str(tmp_path / name)
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out")
    skeleton = bad if name == "skeleton.json" else path_in(scene_dir, "skeleton.json")
    gt = bad if name == "gt.motion.json" else path_in(scene_dir, "gt.motion.json")
    if name == "config.json":
        argv = ["--config", bad, "--out", out, "synth"]
    elif name == "obs_mono.json":
        argv = ["--out", out, "fit", "--obs", bad,
                "--camera", path_in(scene_dir, "camera_mono.json"), "--skeleton", skeleton]
    else:
        argv = ["--out", out, "eval", "--pred", gt, "--gt", gt, "--skeleton", skeleton]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
