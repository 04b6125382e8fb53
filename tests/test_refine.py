"""Refinement: one LM solve of the full energy, and root placement."""

import numpy as np
import pytest

import mocorr.optim.refine as refine_module
from mocorr.camera import default_body
from mocorr.errors import InvalidInputError, NumericFailureError
from mocorr.metrics import mpjpe
from mocorr.motion import MotionMap, Observations, extract_poses
from mocorr.net.model import Generator
from mocorr.net.train import TrainConfig
from mocorr.optim.energies import EnergyWeights, energy_2d
from mocorr.optim.fitting import initial_fit
from mocorr.optim.lm import LMOptions, levenberg_marquardt
from mocorr.optim.refine import place_translations, refine
from mocorr.pipeline import PipelineConfig, apply_seed, hybrid_motion, run_pipeline
from mocorr.skeleton import SkeletalPose, pose_to_quat
from mocorr.synth import SceneConfig, synth_generate

from conftest import frame_rows, frames_of, stack_poses, take_frames
from oracles import energy_3d, energy_silhouette, energy_temporal, refine_flipflop

OPTIONS = LMOptions(max_iterations=40)


def scene_cfg(**kw):
    base = dict(T=8, V=2, noise_px=3.0, occlusion=0.1, seed=21, sil_points=16,
                amplitude=0.25)
    base.update(kw)
    return SceneConfig(**base)


def total_energy(motion, net_quats, obs, camera, skeleton, body, weights,
                 n_sil=16):
    poses = frames_of(extract_poses(motion, skeleton))
    trans = motion.translations
    value = energy_3d(poses, net_quats, trans, skeleton)
    value += weights.lambda_2d * energy_2d(stack_poses(poses), obs, camera, skeleton)
    net_from_poses = np.stack(
        [pose_to_quat(skeleton, p).quats.ravel() for p in poses])
    value += weights.lambda_t * energy_temporal(net_from_poses, trans, skeleton)
    value += weights.lambda_s * energy_silhouette(
        poses, [f.silhouette for f in frame_rows(obs)], camera, skeleton, body,
        n_points=n_sil)
    return value


def test_fixed_point_on_noiseless_scene():
    scene = synth_generate(scene_cfg(noise_px=0.0, occlusion=0.0,
                                     amplitude=0.0, T=8))
    gt = scene.gt_motion
    refined = refine(gt, scene.mono_obs, scene.mono_camera, scene.skeleton,
                     options=OPTIONS, n_sil=16)
    assert mpjpe(refined, gt, scene.skeleton) <= 1e-6  # millimeters


def test_refine_does_not_increase_total_energy():
    scene = synth_generate(scene_cfg())
    gt = scene.gt_motion
    skeleton = scene.skeleton
    body = default_body(skeleton)
    weights = EnergyWeights()

    # Perturbed starting motion: ground truth with a translation offset.
    init = gt.copy()
    init.translations = init.translations + np.array([0.05, -0.02, 0.08])
    refined = refine(init, scene.mono_obs, scene.mono_camera, skeleton,
                     weights=weights, options=OPTIONS, n_sil=16)
    e_init = total_energy(init, gt.quats, scene.mono_obs, scene.mono_camera,
                          skeleton, body, weights)
    e_out = total_energy(refined, gt.quats, scene.mono_obs, scene.mono_camera,
                         skeleton, body, weights)
    assert e_out <= e_init + 1e-12


def test_place_translations_reduces_reprojection():
    scene = synth_generate(scene_cfg(noise_px=2.0))
    skeleton = scene.skeleton
    net = scene.gt_motion.quats
    bad_translations = scene.gt_motion.translations + np.array([0.1, 0.05,
                                                                -0.15])
    placed = place_translations(net, scene.mono_obs, scene.mono_camera,
                                skeleton, bad_translations, options=OPTIONS)

    from mocorr.optim.energies import net_pose_targets

    theta, root_rot = net_pose_targets(skeleton, net)

    def seq_at(translations):
        return SkeletalPose(theta, root_rot, translations)

    e_before = energy_2d(seq_at(bad_translations), scene.mono_obs,
                         scene.mono_camera, skeleton)
    e_after = energy_2d(seq_at(placed), scene.mono_obs, scene.mono_camera,
                        skeleton)
    assert e_after < e_before


def test_refine_keeps_init_confidences():
    scene = synth_generate(scene_cfg(occlusion=0.2))
    init = scene.gt_motion.copy()
    init.conf = np.clip(init.conf * 0.9, 0.0, 1.0)
    refined = refine(init, scene.mono_obs, scene.mono_camera, scene.skeleton,
                     options=OPTIONS, n_sil=16)
    assert np.array_equal(refined.conf, init.conf)


def test_refine_with_zero_silhouette_weight_ignores_outlines():
    scene = synth_generate(scene_cfg())
    init = scene.gt_motion
    obs = scene.mono_obs
    stripped = Observations(obs.keypoints, obs.conf)
    weights = EnergyWeights(lambda_s=0.0)
    zero_weight = refine(init, obs, scene.mono_camera, scene.skeleton,
                         weights=weights, options=OPTIONS)
    no_outlines = refine(init, stripped, scene.mono_camera, scene.skeleton,
                         weights=weights, options=OPTIONS)
    assert np.array_equal(zero_weight.quats, no_outlines.quats)
    assert np.array_equal(zero_weight.translations, no_outlines.translations)


def test_refine_validation():
    scene = synth_generate(scene_cfg(T=4))
    gt = scene.gt_motion
    with pytest.raises(InvalidInputError):  # misaligned obs
        refine(gt, take_frames(scene.mono_obs, slice(3)), scene.mono_camera,
               scene.skeleton)
    narrow = MotionMap(gt.quats[:, :8], gt.conf[:, :2], gt.translations)
    with pytest.raises(InvalidInputError):  # wrong joint count
        refine(narrow, scene.mono_obs, scene.mono_camera, scene.skeleton)


def hybrid_case(seed):
    scene = synth_generate(scene_cfg(seed=seed))
    skeleton = scene.skeleton
    gen = Generator(skeleton, np.random.default_rng(seed), conv_width=8,
                    local_width=4, hidden=8, kernel=7, dropout=0.0)
    init = initial_fit(scene.mono_obs, scene.mono_camera, skeleton, OPTIONS)
    return scene, gen, init


def outcome(solve):
    """A refinement's arrays, or the error it raised, for comparing two paths."""
    try:
        motion = solve()
    except NumericFailureError as exc:
        return str(exc)
    return motion.quats, motion.translations, motion.conf


@pytest.mark.parametrize("seed", [3, 8, 17])
def test_refine_of_the_hybrid_equals_the_flipflop_oracle(seed):
    # infer already placed the roots at the network poses, so the old first
    # stage, a translation solve from init's roots, was the same solve again.
    # At seed 17 the untrained generator's poses get their roots placed behind
    # the camera, the outline is lost, and both paths raise the same error.
    scene, gen, init = hybrid_case(seed)
    args = (scene.mono_obs, scene.mono_camera, scene.skeleton)
    hybrid = hybrid_motion(gen, init, scene.skeleton, scene.mono_obs,
                           scene.mono_camera, None, OPTIONS)
    got = outcome(lambda: refine(hybrid, *args, options=OPTIONS, n_sil=16))
    expect = outcome(lambda: refine_flipflop(
        init, hybrid.quats, *args, body=default_body(scene.skeleton),
        options=OPTIONS, rounds=1, n_sil=16))
    assert type(got) is type(expect)
    if isinstance(got, str):
        assert got == expect
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))


def test_infer_and_refine_make_one_translation_and_one_pose_solve(tmp_path, monkeypatch):
    solves = []

    def counting(residuals, x0, jacobian=None, options=None):
        solves.append(type(residuals.__self__).__name__)
        return levenberg_marquardt(residuals, x0, jacobian, options)

    monkeypatch.setattr(refine_module, "levenberg_marquardt", counting)
    cfg = PipelineConfig(
        scene=scene_cfg(),
        train=TrainConfig(epochs=1, batch=4, window=8, stride=8, conv_width=8,
                          local_width=4, hidden=8, disc_hidden=8, kernel=7,
                          dropout=0.0),
        lm=LMOptions(max_iterations=10))
    run_pipeline(apply_seed(cfg, 4), tmp_path)
    assert sorted(solves) == ["PoseProblem", "TranslationProblem"]
