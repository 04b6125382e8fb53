"""Motion sequences as flat per-frame quaternion rows, plus observation
containers and the on-disk formats for both.

A motion map stores T frames of N_J joint quaternions flattened to rows of
width 4*N_J, a confidence value per joint-frame, and the root translation
per frame. It is the common currency between the fitting, network, and
refinement stages.
"""

from dataclasses import dataclass, field

import numpy as np

from . import quat
from .errors import InvalidInputError, ParseError
from .jsonio import (load_document, numeric_array, require_array, require_field,
                     save_document)
from .skeleton import QuatPose, pose_to_quat, quat_to_pose

MOTION_FORMAT = "motion/1"
OBSERVATIONS_FORMAT = "observations/1"


@dataclass
class MotionMap:
    quats: np.ndarray
    conf: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        self.quats = np.asarray(self.quats, dtype=float)
        self.conf = np.asarray(self.conf, dtype=float)
        self.translations = np.asarray(self.translations, dtype=float)
        if self.quats.ndim != 2 or self.quats.shape[1] % 4 != 0:
            raise InvalidInputError("quats must be (T, 4*n_joints)")
        t, width = self.quats.shape
        if t < 2:
            raise InvalidInputError("motion needs at least two frames")
        if self.conf.shape != (t, width // 4):
            raise InvalidInputError(
                f"conf shape {self.conf.shape} does not match {t} frames x {width // 4} joints"
            )
        if self.translations.shape != (t, 3):
            raise InvalidInputError("translations must be (T, 3)")
        if np.any(self.conf < 0.0) or np.any(self.conf > 1.0):
            raise InvalidInputError("confidences must lie in [0, 1]")
        for arr in (self.quats, self.translations):
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError("motion entries must be finite")

    @property
    def n_frames(self):
        return self.quats.shape[0]

    @property
    def n_joints(self):
        return self.quats.shape[1] // 4

    def frame_quats(self, t):
        """Quaternions of frame t as an (n_joints, 4) view."""
        return self.quats[t].reshape(self.n_joints, 4)

    def copy(self):
        return MotionMap(self.quats.copy(), self.conf.copy(), self.translations.copy())


@dataclass
class FrameObservations:
    """2D detections for one frame: keypoints with confidences, outline points."""

    keypoints: np.ndarray
    conf: np.ndarray
    silhouette: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self):
        self.keypoints = np.asarray(self.keypoints, dtype=float)
        self.conf = np.asarray(self.conf, dtype=float)
        self.silhouette = np.asarray(self.silhouette, dtype=float).reshape(-1, 2)
        n = self.keypoints.shape[0]
        if self.keypoints.shape != (n, 2) or self.conf.shape != (n,):
            raise InvalidInputError("keypoints must be (n, 2) with conf (n,)")
        if np.any(self.conf < 0.0) or np.any(self.conf > 1.0):
            raise InvalidInputError("confidences must lie in [0, 1]")
        if not (np.all(np.isfinite(self.keypoints)) and np.all(np.isfinite(self.silhouette))):
            raise InvalidInputError("observation coordinates must be finite")


def build_motion_map(poses, skeleton, conf):
    """Stack poses into a motion map; conf is (T, n_joints)."""
    conf = np.asarray(conf, dtype=float)
    if conf.shape != (len(poses), skeleton.n_joints):
        raise InvalidInputError(
            f"conf shape {conf.shape} does not match {len(poses)} poses x "
            f"{skeleton.n_joints} joints"
        )
    rows = np.empty((len(poses), 4 * skeleton.n_joints))
    trans = np.empty((len(poses), 3))
    for t, pose in enumerate(poses):
        rows[t] = pose_to_quat(skeleton, pose).quats.ravel()
        trans[t] = pose.root_trans
    return MotionMap(rows, conf, trans)


def extract_poses(motion, skeleton):
    """Invert build_motion_map: one skeletal pose per frame (angles clamped)."""
    if motion.n_joints != skeleton.n_joints:
        raise InvalidInputError(
            f"motion has {motion.n_joints} joints, skeleton has {skeleton.n_joints}"
        )
    return [
        quat_to_pose(skeleton, QuatPose(motion.frame_quats(t)), motion.translations[t])
        for t in range(motion.n_frames)
    ]


def time_warp(motion, warp):
    """Resample a motion at fractional frame times.

    warp is a strictly increasing array of sample positions in [0, T-1];
    quaternions are interpolated by nlerp, confidences and translations
    linearly.
    """
    warp = np.asarray(warp, dtype=float)
    if warp.ndim != 1 or warp.size < 2:
        raise InvalidInputError("warp must be a 1-d array of at least two sample times")
    if np.any(np.diff(warp) <= 0.0):
        raise InvalidInputError("warp must be strictly increasing")
    if warp[0] < 0.0 or warp[-1] > motion.n_frames - 1:
        raise InvalidInputError("warp samples fall outside the motion")
    lo = np.floor(warp).astype(int)
    lo = np.minimum(lo, motion.n_frames - 2)
    frac = warp - lo
    n_j = motion.n_joints
    qa = motion.quats[lo].reshape(-1, n_j, 4)
    qb = motion.quats[lo + 1].reshape(-1, n_j, 4)
    out_q = np.empty_like(qa)
    for t in range(warp.size):
        out_q[t] = quat.nlerp(qa[t], qb[t], frac[t])
    conf = motion.conf[lo] * (1.0 - frac[:, None]) + motion.conf[lo + 1] * frac[:, None]
    trans = (
        motion.translations[lo] * (1.0 - frac[:, None])
        + motion.translations[lo + 1] * frac[:, None]
    )
    return MotionMap(out_q.reshape(warp.size, 4 * n_j), conf, trans)


def save_motion(path, motion):
    save_document(
        path,
        {
            "format": MOTION_FORMAT,
            "T": motion.n_frames,
            "n_joints": motion.n_joints,
            "quats": motion.quats.tolist(),
            "conf": motion.conf.tolist(),
            "translations": motion.translations.tolist(),
        },
    )


def load_motion(path):
    doc = load_document(path, MOTION_FORMAT)
    t = int(require_field(doc, path, "T"))
    n_j = int(require_field(doc, path, "n_joints"))
    return MotionMap(
        require_array(doc, path, "quats", (t, 4 * n_j)),
        require_array(doc, path, "conf", (t, n_j)),
        require_array(doc, path, "translations", (t, 3)),
    )


def save_observations(path, frames):
    save_document(
        path,
        {
            "format": OBSERVATIONS_FORMAT,
            "T": len(frames),
            "n_joints": int(frames[0].keypoints.shape[0]) if frames else 0,
            "frames": [
                {
                    "keypoints": f.keypoints.tolist(),
                    "conf": f.conf.tolist(),
                    "silhouette": f.silhouette.tolist(),
                }
                for f in frames
            ],
        },
    )


def load_observations(path):
    doc = load_document(path, OBSERVATIONS_FORMAT)
    t = int(require_field(doc, path, "T"))
    n_j = int(require_field(doc, path, "n_joints"))
    raw = require_field(doc, path, "frames")
    if len(raw) != t:
        raise ParseError(f"{path}: header says T={t} but {len(raw)} frames present")
    frames = []
    for k, item in enumerate(raw):
        where = f"{path}: frames[{k}]"
        try:
            frames.append(
                FrameObservations(
                    numeric_array(item["keypoints"], f"{where} keypoints").reshape(n_j, 2),
                    numeric_array(item["conf"], f"{where} conf").reshape(n_j),
                    numeric_array(item["silhouette"], f"{where} silhouette").reshape(-1, 2),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where} is malformed ({exc})") from exc
    return frames
