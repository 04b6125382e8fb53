"""Two-stage flip-flop refinement."""

import numpy as np
import pytest

from mocorr.camera import default_body
from mocorr.errors import InvalidInputError
from mocorr.metrics import mpjpe
from mocorr.motion import extract_poses
from mocorr.optim.energies import EnergyWeights, energy_2d
from mocorr.optim.lm import LMOptions
from mocorr.optim.refine import place_translations, refine
from mocorr.skeleton import SkeletalPose, pose_to_quat
from mocorr.synth import SceneConfig, synth_generate

from conftest import frame_rows, frames_of, stack_poses, take_frames
from oracles import energy_3d, energy_silhouette, energy_temporal

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
    value += weights.lambda_2d * energy_2d(stack_poses(poses), obs, camera, skeleton,
                                           weights.conf_threshold)
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
    refined = refine(gt, gt.quats, scene.mono_obs, scene.mono_camera,
                     scene.skeleton, body=default_body(scene.skeleton),
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
    refined = refine(init, gt.quats, scene.mono_obs, scene.mono_camera,
                     skeleton, body=body, weights=weights, options=OPTIONS,
                     n_sil=16)
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
    refined = refine(init, scene.gt_motion.quats, scene.mono_obs,
                     scene.mono_camera, scene.skeleton, options=OPTIONS,
                     n_sil=16)
    assert np.array_equal(refined.conf, init.conf)


def test_refine_without_body_ignores_silhouettes():
    scene = synth_generate(scene_cfg())
    init = scene.gt_motion
    no_body = refine(init, init.quats, scene.mono_obs, scene.mono_camera,
                     scene.skeleton, body=None, options=OPTIONS)
    zero_weight = refine(init, init.quats, scene.mono_obs, scene.mono_camera,
                         scene.skeleton, body=default_body(scene.skeleton),
                         weights=EnergyWeights(lambda_s=0.0), options=OPTIONS)
    assert np.allclose(no_body.quats, zero_weight.quats, atol=1e-12)
    assert np.allclose(no_body.translations, zero_weight.translations,
                       atol=1e-12)


def test_refine_validation():
    scene = synth_generate(scene_cfg(T=4))
    gt = scene.gt_motion
    with pytest.raises(InvalidInputError):  # misaligned obs
        refine(gt, gt.quats, take_frames(scene.mono_obs, slice(3)), scene.mono_camera,
               scene.skeleton)
    with pytest.raises(InvalidInputError):  # misaligned net output
        refine(gt, gt.quats[:3], scene.mono_obs, scene.mono_camera,
               scene.skeleton)
    with pytest.raises(InvalidInputError):  # wrong quat width
        refine(gt, gt.quats[:, :8], scene.mono_obs, scene.mono_camera,
               scene.skeleton)
    with pytest.raises(InvalidInputError):  # rounds < 1
        refine(gt, gt.quats, scene.mono_obs, scene.mono_camera,
               scene.skeleton, flipflop_rounds=0)
