"""Pipeline orchestration: config files, checkpoints, the full run."""

import base64
import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import make_toy_skeleton
from mocorr.errors import ConfigError, InvalidInputError, NumericFailureError, ParseError
from mocorr.jsonio import load_document, save_document
from mocorr.metrics import frame_mpjpe, mpjpe, pck
from mocorr.motion import MotionMap
from mocorr.net.model import (
    Discriminator,
    Generator,
    generator_forward,
    load_checkpoint,
    save_checkpoint,
)
from mocorr.net.train import TrainConfig
from mocorr.optim.lm import LMOptions
from mocorr.optim.refine import place_translations
from mocorr.pipeline import (
    ARTIFACTS,
    CONFIG_FORMAT,
    REPORT_FORMAT,
    PipelineConfig,
    apply_seed,
    build_report,
    default_pipeline_config,
    hybrid_motion,
    load_pipeline_config,
    run_pipeline,
    save_pipeline_config,
    sparse_camera_file,
    sparse_obs_file,
    unit_quat_rows,
)
from mocorr.synth import SceneConfig, synth_generate
from oracles import save_checkpoint_v1


def tiny_config(seed=5):
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


def test_config_round_trip(tmp_path):
    cfg = tiny_config(seed=9)
    cfg.weights.lambda_2d = 3.5
    path = tmp_path / "config.json"
    save_pipeline_config(path, cfg)
    loaded = load_pipeline_config(path)
    assert loaded.seed == cfg.seed
    for section in ("scene", "train", "weights", "lm"):
        assert dataclasses.asdict(getattr(loaded, section)) == \
            dataclasses.asdict(getattr(cfg, section))


def test_config_defaults_fill_missing_sections(tmp_path):
    path = tmp_path / "config.json"
    save_document(path, {"format": CONFIG_FORMAT, "seed": 3})
    cfg = load_pipeline_config(path)
    assert (cfg.seed, cfg.scene.seed, cfg.train.seed) == (3, 3, 4)
    assert cfg.scene.T == SceneConfig().T
    assert cfg.train.epochs == 200
    save_document(path, {"format": CONFIG_FORMAT})
    cfg = load_pipeline_config(path)
    assert (cfg.seed, cfg.scene.seed, cfg.train.seed) == (0, 0, 1)
    # naming one train field keeps the others at those defaults, epochs included
    save_document(path, {"format": CONFIG_FORMAT, "train": {"window": 8}})
    cfg = load_pipeline_config(path)
    assert (cfg.train.window, cfg.train.epochs) == (8, 200)


def test_config_unknown_fields_rejected(tmp_path):
    path = tmp_path / "config.json"
    save_document(path, {"format": CONFIG_FORMAT, "frobnicate": 1})
    with pytest.raises(ConfigError):
        load_pipeline_config(path)
    save_document(path, {"format": CONFIG_FORMAT, "scene": {"warp": 2.0}})
    with pytest.raises(ConfigError):
        load_pipeline_config(path)
    save_document(path, {"format": CONFIG_FORMAT, "scene": {"T": 1}})
    with pytest.raises(ConfigError):
        load_pipeline_config(path)


# every settable value of a pipeline/1 config, by section
CONFIG_SCHEMA = {
    "scene": {"T", "V", "noise_px", "occlusion", "amplitude", "sil_points"},
    "train": {"epochs", "batch", "decay_epoch", "window", "stride", "adversarial",
              "conv_width", "local_width", "hidden", "disc_hidden", "kernel",
              "dropout"},
    "weights": {"lambda_2d", "lambda_t", "lambda_s", "conf_threshold"},
    "lm": {"max_iterations"},
}

# fields a pipeline/1 config no longer accepts: constants of the code that
# reads them, or stage seeds derived from the pipeline seed
REMOVED_FIELDS = [
    ("scene", "seed"), ("scene", "fx"), ("scene", "fy"), ("scene", "cx"),
    ("scene", "cy"), ("scene", "ring_radius"), ("scene", "camera_height"),
    ("scene", "target"), ("scene", "root_center"), ("scene", "root_amp"),
    ("scene", "root_rot_amp"),
    ("train", "seed"), ("train", "lr_gen"), ("train", "lr_disc"), ("train", "decay"),
    ("train", "lambda_quat"), ("train", "beta1"), ("train", "beta2"), ("train", "eps"),
    ("lm", "damping_init"), ("lm", "damping_up"), ("lm", "damping_down"),
    ("lm", "gradient_tol"), ("lm", "step_tol"), ("lm", "cost_tol"),
]


def test_saved_config_holds_exactly_the_settable_values(tmp_path):
    path = tmp_path / "config.json"
    save_pipeline_config(path, default_pipeline_config(4))
    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) == {"format", "seed", *CONFIG_SCHEMA}
    assert {name: set(doc[name]) for name in CONFIG_SCHEMA} == CONFIG_SCHEMA
    assert 1 + sum(map(len, CONFIG_SCHEMA.values())) == 24


@pytest.mark.parametrize("section, name", REMOVED_FIELDS,
                         ids=[f"{s}.{n}" for s, n in REMOVED_FIELDS])
def test_config_removed_fields_rejected(tmp_path, section, name):
    path = tmp_path / "config.json"
    save_document(path, {"format": CONFIG_FORMAT, section: {name: 1}})
    with pytest.raises(ConfigError, match=f"unknown field {section}.{name}"):
        load_pipeline_config(path)


def test_config_validation_and_seed_fanout(tmp_path):
    cfg = default_pipeline_config(11)
    assert cfg.seed == 11
    assert cfg.scene.seed == 11
    assert cfg.train.seed == 12
    apply_seed(cfg, 40)
    assert (cfg.seed, cfg.scene.seed, cfg.train.seed) == (40, 40, 41)
    with pytest.raises(InvalidInputError, match="T >= 2"):
        SceneConfig(T=1)
    path = tmp_path / "config.json"
    save_document(path, {"format": CONFIG_FORMAT, "scene": {"T": 1}})
    with pytest.raises(ConfigError, match="scene: "):
        load_pipeline_config(path)


def test_unit_quat_rows():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(5, 8))
    rows = unit_quat_rows(raw)
    blocks = rows.reshape(5, 2, 4)
    assert np.allclose(np.linalg.norm(blocks, axis=2), 1.0, atol=1e-12)
    assert np.all(blocks[:, :, 0] >= 0.0)
    manual = raw.reshape(5, 2, 4) / np.linalg.norm(
        raw.reshape(5, 2, 4), axis=2, keepdims=True)
    sign = np.where(manual[:, :, :1] < 0.0, -1.0, 1.0)
    assert np.allclose(blocks, manual * sign, atol=1e-12)

    degenerate = np.zeros((2, 8))
    degenerate[0, 4:] = [0.0, 3.0, 0.0, 0.0]
    rows = unit_quat_rows(degenerate)
    assert np.array_equal(rows[0, :4], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(rows[0, 4:], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(rows[1].reshape(2, 4),
                          [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def small_models(seed=1):
    skeleton = make_toy_skeleton()
    gen = Generator(skeleton, np.random.default_rng(seed), conv_width=8,
                    local_width=4, hidden=6, kernel=7, dropout=0.05)
    disc = Discriminator(skeleton.n_joints, np.random.default_rng(seed + 1),
                         hidden=6)
    return skeleton, gen, disc


def test_checkpoint_round_trip_bitwise(tmp_path):
    skeleton, gen, disc = small_models()
    gen.bn1.buffers["running_mean"][...] = np.random.default_rng(2).normal(size=8)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, gen, disc)
    gen2, disc2 = load_checkpoint(path, skeleton)
    for (_, a), (_, b) in zip(gen.layers(), gen2.layers()):
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        for name in a.buffers:
            assert np.array_equal(a.buffers[name], b.buffers[name])
    for (_, a), (_, b) in zip(disc.layers(), disc2.layers()):
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    # Saving the reloaded nets reproduces the file byte for byte.
    path2 = tmp_path / "checkpoint2.json"
    save_checkpoint(path2, gen2, disc2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_errors(tmp_path):
    skeleton, gen, disc = small_models()
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, gen, disc)

    from conftest import make_random_skeleton

    other = make_random_skeleton(np.random.default_rng(3), n_joints=7)
    with pytest.raises(ParseError):
        load_checkpoint(path, other)

    doc = json.loads(path.read_text())
    del doc["generator"]["gru"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_checkpoint(broken, skeleton)

    doc = json.loads(path.read_text())
    doc["generator"]["dec3"]["bias"] = [0.0, 1.0]
    broken.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_checkpoint(broken, skeleton)


@pytest.mark.parametrize("case", ["list", "bad_character", "line_break", "short",
                                  "long", "non_finite", "layer_not_object"])
def test_checkpoint_array_errors_are_parse_errors(tmp_path, case):
    skeleton, gen, disc = small_models()
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, gen, disc)
    doc = json.loads(path.read_text())
    bias = gen.dec3.params["bias"]
    raw = base64.b64decode(doc["generator"]["dec3"]["bias"], validate=True)
    assert raw == bias.astype("<f8").tobytes()
    layer = doc["generator"]["dec3"]
    if case == "list":
        layer["bias"] = bias.tolist()
    elif case == "bad_character":
        layer["bias"] = "*" + layer["bias"][1:]
    elif case == "line_break":
        layer["bias"] = layer["bias"][:4] + "\n" + layer["bias"][4:]
    elif case == "short":
        layer["bias"] = base64.b64encode(raw[:-8]).decode()
    elif case == "long":
        layer["bias"] = base64.b64encode(raw + bytes(8)).decode()
    elif case == "non_finite":
        layer["bias"] = base64.b64encode(np.full(bias.size, np.inf, dtype="<f8").tobytes()).decode()
    else:
        doc["generator"]["dec3"] = 3.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="dec3"):
        load_checkpoint(path, skeleton)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_non_finite_parameters(tmp_path, bad):
    skeleton, gen, disc = small_models()
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, gen, disc)
    before = path.read_bytes()
    disc.head.params["weight"][0, 0] = bad
    with pytest.raises(NumericFailureError, match="checkpoint.json"):
        save_checkpoint(path, gen, disc)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]


def test_checkpoint_v1_still_loads_bitwise(tmp_path):
    skeleton, gen, disc = small_models()
    rng = np.random.default_rng(4)
    gen.bn2.buffers["running_var"][...] = rng.uniform(0.5, 2.0, size=8)
    gen.dec1.params["bias"][:3] = [-0.0, 5e-324, 1.0 / 3.0]
    path = tmp_path / "checkpoint_v1.json"
    save_checkpoint_v1(path, gen, disc)
    assert json.loads(path.read_text())["format"] == "hybridnet/1"
    gen2, disc2 = load_checkpoint(path, skeleton)
    for net, net2 in ((gen, gen2), (disc, disc2)):
        for (_, a), (_, b) in zip(net.layers(), net2.layers()):
            for name in a.params:
                assert a.params[name].tobytes() == b.params[name].tobytes()
            for name in a.buffers:
                assert a.buffers[name].tobytes() == b.buffers[name].tobytes()


def test_hybrid_motion_translation_paths():
    scene = synth_generate(SceneConfig(T=8, V=2, noise_px=1.0, occlusion=0.0,
                                       seed=6, sil_points=16, amplitude=0.2))
    skeleton = scene.skeleton
    gen = Generator(skeleton, np.random.default_rng(7), conv_width=8,
                    local_width=4, hidden=8, kernel=7, dropout=0.0)
    init = scene.gt_motion

    options = LMOptions(max_iterations=20)
    placed = hybrid_motion(gen, init, skeleton, scene.mono_obs,
                           scene.mono_camera, None, options)
    assert np.array_equal(placed.quats, unit_quat_rows(generator_forward(gen, init)))
    assert np.array_equal(placed.conf, init.conf)
    assert placed.conf is not init.conf
    blocks = placed.quats.reshape(init.n_frames, -1, 4)
    assert np.allclose(np.linalg.norm(blocks, axis=2), 1.0, atol=1e-12)
    expect = place_translations(placed.quats, scene.mono_obs,
                                scene.mono_camera, skeleton,
                                init.translations, None, options)
    assert np.array_equal(placed.translations, expect)


def test_build_report_matches_per_call_metrics():
    # the report runs forward kinematics once per motion; each metric
    # called on the motion maps themselves must give the same numbers
    scene = synth_generate(SceneConfig(T=6, V=2, seed=9))
    gt, skeleton = scene.gt_motion, scene.skeleton
    rng = np.random.default_rng(10)
    stages = {}
    for name, scale in (("init", 0.2), ("hybrid", 0.05)):
        quats = unit_quat_rows(gt.quats + rng.normal(scale=scale, size=gt.quats.shape))
        stages[name] = MotionMap(quats, gt.conf, gt.translations + scale)
    report = build_report(stages, gt, skeleton, seed=9)
    for name, motion in stages.items():
        assert report["stages"][name] == {
            "mpjpe_mm": mpjpe(motion, gt, skeleton),
            "pck_0.5": pck(motion, gt, skeleton, 0.5),
            "pck_0.3": pck(motion, gt, skeleton, 0.3),
            "frame_mpjpe_mm": [float(v) for v in frame_mpjpe(motion, gt, skeleton)],
        }


def test_run_pipeline_artifacts_and_checkpoint_restart(tmp_path):
    cfg = tiny_config()
    out1 = tmp_path / "run1"
    report = run_pipeline(cfg, out1)

    for name in ARTIFACTS.values():
        assert (out1 / name).exists(), name
    for v in range(cfg.scene.V):
        assert (out1 / sparse_camera_file(v)).exists()
        assert (out1 / sparse_obs_file(v)).exists()

    assert report["format"] == REPORT_FORMAT
    assert report["seed"] == cfg.seed
    assert report["n_frames"] == cfg.scene.T
    assert "miou" not in report
    for stage in ("init", "hybrid", "refined"):
        section = report["stages"][stage]
        assert section["mpjpe_mm"] >= 0.0
        assert 0.0 <= section["pck_0.5"] <= 100.0
        assert 0.0 <= section["pck_0.3"] <= 100.0
        assert len(section["frame_mpjpe_mm"]) == cfg.scene.T
    on_disk = load_document(out1 / ARTIFACTS["report"], REPORT_FORMAT)
    assert on_disk == json.loads(json.dumps(report))

    plot_lines = (out1 / ARTIFACTS["plot"]).read_text().splitlines()
    assert plot_lines[0] == "frame,stage,mpjpe_mm"
    assert len(plot_lines) == 1 + 3 * cfg.scene.T
    first = plot_lines[1].split(",")
    assert first[0] == "0" and first[1] == "init"
    assert float(first[2]) == report["stages"]["init"]["frame_mpjpe_mm"][0]

    # Restarting from the saved checkpoint skips training but must land on
    # byte-identical downstream artifacts.
    out2 = tmp_path / "run2"
    logs = []
    run_pipeline(cfg, out2, checkpoint=str(out1 / ARTIFACTS["checkpoint"]),
                 log=logs.append)
    assert any("loading checkpoint" in m for m in logs)
    assert not any("training" in m for m in logs)
    for name in ("checkpoint", "hybrid", "refined", "report", "plot"):
        a = (out1 / ARTIFACTS[name]).read_bytes()
        b = (out2 / ARTIFACTS[name]).read_bytes()
        assert a == b, name
