"""Synthetic capture rig.

Generates everything the rest of the pipeline consumes: a seeded band-limited
ground-truth motion, a ring of cameras around the subject, noisy 2D keypoint
and silhouette observations with detector-style confidences and occlusions,
and an unsynchronized time-warped "marker" reference motion. Every output is
a pure function of the config, including its seed.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .camera import default_body, look_at, project_points, silhouette_structure
from .errors import EmptySilhouetteError, InvalidInputError
from .motion import MotionMap, Observations, build_motion_map, time_warp
from .skeleton import SkeletalPose, default_skeleton, fk_frames

# Silhouette outlines emulate a segmentation-mask boundary, not a sparse joint
# detector: boundary samples are far more accurate than keypoints, so they get
# only a sub-pixel fraction of the keypoint noise (and stay exact when
# noise_px is zero).
SIL_NOISE_SCALE = 0.1

# desk-scale stage dressing: pinhole intrinsics, the camera ring around the
# subject, the root's band-limited wander (metres, radians), and the most
# sinusoids one band-limited curve sums
FX = 500.0
FY = 500.0
CX = 320.0
CY = 240.0
RING_RADIUS = 2.8
CAMERA_HEIGHT = 1.0
TARGET = (0.0, 0.9, 0.0)
ROOT_CENTER = (0.0, 0.9, 0.0)
ROOT_AMP = (0.25, 0.06, 0.25)
ROOT_ROT_AMP = 0.35
MAX_WAVES = 4


@dataclass
class SceneConfig:
    T: int = 120
    V: int = 4
    noise_px: float = 5.0
    occlusion: float = 0.2
    seed: int = 0
    amplitude: float = 0.8
    sil_points: int = 96

    def __post_init__(self):
        if self.T < 2:
            raise InvalidInputError("scene needs T >= 2 frames")
        if self.V < 2:
            raise InvalidInputError("scene needs V >= 2 sparse views")
        if self.noise_px < 0.0:
            raise InvalidInputError("noise_px must be >= 0")
        if not 0.0 <= self.occlusion < 1.0:
            raise InvalidInputError("occlusion rate must lie in [0, 1)")
        if not 0.0 <= self.amplitude <= 0.95:
            raise InvalidInputError("amplitude must lie in [0, 0.95]")


@dataclass
class SyntheticScene:
    skeleton: object
    gt_motion: MotionMap
    mono_camera: object
    sparse_cameras: list
    mono_obs: Observations
    sparse_obs: list
    marker_ref: MotionMap


def _band_limited(rng, n, half_range, amplitude):
    """Sum of <= MAX_WAVES sinusoids whose peak stays within amplitude*half_range.

    The band tops out well below Nyquist so adjacent-frame steps stay small
    relative to the motion amplitude; temporal smoothing then regularizes
    without fighting the true motion.
    """
    t = np.arange(n, dtype=float)
    k = int(rng.integers(1, MAX_WAVES + 1))
    amps = rng.uniform(0.2, 1.0, k)
    freqs = rng.uniform(0.004, 0.022, k)
    phases = rng.uniform(0.0, 2.0 * np.pi, k)
    total = amplitude * half_range
    if amps.sum() > 0:
        amps = amps * (total / amps.sum())
    out = np.zeros(n)
    for a, f, p in zip(amps, freqs, phases):
        out += a * np.sin(2.0 * np.pi * f * t + p)
    return out


def _smooth_unit(rng, n):
    """Smooth curve of length n with values in [-1, 1]."""
    x = np.linspace(0.0, 1.0, n)
    s = np.zeros(n)
    for _ in range(3):
        s += rng.uniform(0.3, 1.0) * np.sin(
            2.0 * np.pi * rng.uniform(0.5, 3.0) * x + rng.uniform(0.0, 2.0 * np.pi)
        )
    peak = np.max(np.abs(s))
    return s / peak if peak > 1e-12 else s


def _gt_sequence(rng, skeleton, cfg):
    theta = np.empty((cfg.T, skeleton.total_dof))
    centre = 0.5 * (skeleton.theta_min + skeleton.theta_max)
    half = 0.5 * (skeleton.theta_max - skeleton.theta_min)
    for d in range(skeleton.total_dof):
        theta[:, d] = centre[d] + _band_limited(rng, cfg.T, half[d], cfg.amplitude)
    root_rot = np.stack(
        [_band_limited(rng, cfg.T, ROOT_ROT_AMP, cfg.amplitude) for _ in range(3)],
        axis=1,
    )
    root_trans = np.array(ROOT_CENTER) + np.stack(
        [_band_limited(rng, cfg.T, ROOT_AMP[i], cfg.amplitude) for i in range(3)],
        axis=1,
    )
    return SkeletalPose(theta, root_rot, root_trans)


def _observe(rng, camera, skeleton, pos, body, cfg, with_silhouette):
    """One camera's observations of joint positions pos (T, n, 3), drawing
    each frame's random numbers in turn."""
    sigma = cfg.noise_px
    n_frames, n_j = pos.shape[:2]
    uv_all, _, valid_all = project_points(camera, pos)
    keypoints_all = np.zeros((n_frames, n_j, 2))
    conf_all = np.zeros((n_frames, n_j))
    silhouette = np.zeros((n_frames, 0, 2))
    if with_silhouette:
        outline = silhouette_structure(camera, skeleton, pos, body, cfg.sil_points)
        if outline.lost.any():
            raise EmptySilhouetteError("the projected body has no visible outline")
        silhouette = np.zeros_like(outline.points)
    for t, (uv, valid) in enumerate(zip(uv_all, valid_all)):
        noise = sigma * rng.standard_normal((n_j, 2))
        eps = rng.uniform(0.0, 0.35, n_j)
        occluded = rng.random(n_j) < cfg.occlusion
        occ_angle = rng.uniform(0.0, 2.0 * np.pi, n_j)
        occ_conf = rng.uniform(0.0, 0.3, n_j)
        if sigma > 0.0:
            conf = np.clip(1.0 - np.linalg.norm(noise, axis=1) / (3.0 * sigma) + eps, 0.0, 1.0)
        else:
            conf = np.ones(n_j)
        keypoints = keypoints_all[t]
        keypoints[:] = uv + noise
        keypoints[occluded] += (
            3.0 * sigma * np.stack([np.cos(occ_angle), np.sin(occ_angle)], axis=1)[occluded]
        )
        conf = np.where(occluded, occ_conf, conf)
        conf_all[t] = np.where(valid, conf, 0.0)
        keypoints[~valid] = 0.0
        if with_silhouette:
            sil = outline.points[t]
            silhouette[t] = sil + SIL_NOISE_SCALE * sigma * rng.standard_normal(sil.shape)
    return Observations(keypoints_all, conf_all, silhouette)


def _marker_reference(rng_warp, rng_jitter, gt_motion, cfg):
    t_out = max(2, int(round(cfg.T * rng_warp.uniform(0.9, 1.1))))
    rates = 1.0 + 0.2 * _smooth_unit(rng_warp, t_out)
    u = np.concatenate([[0.0], np.cumsum(rates[:-1])])
    warp = u / u[-1] * (gt_motion.n_frames - 1)
    ref = time_warp(gt_motion, warp)
    # re-performance wobble: tiny random local rotation on every joint-frame
    n_j = ref.n_joints
    q = ref.quats.reshape(t_out, n_j, 4)
    axes = rng_jitter.standard_normal((t_out, n_j, 3))
    axes /= np.maximum(np.linalg.norm(axes, axis=2, keepdims=True), 1e-12)
    angles = rng_jitter.uniform(0.0, np.deg2rad(2.0), (t_out, n_j, 1))
    jit = quat.from_rotvec((axes * angles).reshape(-1, 3)).reshape(t_out, n_j, 4)
    q = quat.canonicalize(quat.normalize(quat.mul(q, jit)))
    return MotionMap(q.reshape(t_out, 4 * n_j), ref.conf, ref.translations)


def synth_generate(cfg):
    """Build a fully synthetic scene. Same config (and seed) -> identical scene."""
    skeleton = default_skeleton()
    body = default_body(skeleton)
    children = np.random.SeedSequence(cfg.seed).spawn(4 + cfg.V)
    rng_gt = np.random.Generator(np.random.PCG64(children[0]))
    rng_warp = np.random.Generator(np.random.PCG64(children[1]))
    rng_jitter = np.random.Generator(np.random.PCG64(children[2]))
    rng_mono = np.random.Generator(np.random.PCG64(children[3]))

    gt = _gt_sequence(rng_gt, skeleton, cfg)
    gt_motion = build_motion_map(gt, skeleton, np.ones((cfg.T, skeleton.n_joints)))
    pos = fk_frames(skeleton, gt)[0]

    target = np.array(TARGET)

    def ring_camera(angle):
        position = np.array(
            [RING_RADIUS * np.sin(angle), CAMERA_HEIGHT, RING_RADIUS * np.cos(angle)]
        )
        return look_at(position, target, FX, FY, CX, CY)

    mono_camera = ring_camera(0.0)
    sparse_cameras = [
        ring_camera(2.0 * np.pi * v / cfg.V + np.pi / cfg.V) for v in range(cfg.V)
    ]

    mono_obs = _observe(rng_mono, mono_camera, skeleton, pos, body, cfg, True)
    sparse_obs = []
    for v in range(cfg.V):
        rng_v = np.random.Generator(np.random.PCG64(children[4 + v]))
        sparse_obs.append(_observe(rng_v, sparse_cameras[v], skeleton, pos, body, cfg, False))

    marker_ref = _marker_reference(rng_warp, rng_jitter, gt_motion, cfg)
    return SyntheticScene(
        skeleton, gt_motion, mono_camera, sparse_cameras, mono_obs, sparse_obs, marker_ref
    )
