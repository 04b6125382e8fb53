"""Motion sequences as flat per-frame quaternion rows, plus one camera's
observations of a sequence, and the on-disk formats for both.

A motion map stores T frames of N_J joint quaternions flattened to rows of
width 4*N_J, a confidence value per joint-frame, and the root translation
per frame. It is the common currency between the fitting, network, and
refinement stages. `build_motion_map` takes a whole pose sequence (a
`SkeletalPose` with a leading frame axis) and `extract_poses` returns one,
each through a single batched pose <-> quaternion conversion.

An `Observations` record holds one camera's 2D detections for all T frames
as frame-axis arrays, so the LM terms read it without restacking.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import InvalidInputError, ParseError
from .jsonio import (load_document, numeric_array, require_array, require_field,
                     require_int, save_document)
from .skeleton import QuatPose, as_sequence, pose_to_quat, quat_to_pose

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

    def copy(self):
        return MotionMap(self.quats.copy(), self.conf.copy(), self.translations.copy())


@dataclass
class Observations:
    """One camera's 2D detections of T frames: keypoints (T, n, 2) with
    confidences (T, n), and outline points (T, m, 2).

    Outlines are zero-padded to the longest one: frame t observes its first
    sil_count[t] points (all m when sil_count is not given). Without an
    outline, m is 0.
    """

    keypoints: np.ndarray
    conf: np.ndarray
    silhouette: np.ndarray = None
    sil_count: np.ndarray = None

    def __post_init__(self):
        self.keypoints = np.asarray(self.keypoints, dtype=float)
        self.conf = np.asarray(self.conf, dtype=float)
        if self.conf.ndim != 2 or self.keypoints.shape != self.conf.shape + (2,):
            raise InvalidInputError("keypoints must be (T, n, 2) with conf (T, n)")
        t = self.conf.shape[0]
        if self.silhouette is None:
            self.silhouette = np.zeros((t, 0, 2))
        self.silhouette = np.asarray(self.silhouette, dtype=float)
        if self.silhouette.ndim != 3 or self.silhouette.shape[::2] != (t, 2):
            raise InvalidInputError("silhouette must be (T, m, 2)")
        if self.sil_count is None:
            self.sil_count = np.full(t, self.silhouette.shape[1])
        self.sil_count = np.asarray(self.sil_count)
        if self.sil_count.shape != (t,) or self.sil_count.dtype.kind not in "iu":
            raise InvalidInputError("sil_count must hold one integer per frame")
        if np.any(self.sil_count < 0) or np.any(self.sil_count > self.silhouette.shape[1]):
            raise InvalidInputError("sil_count must lie in [0, m]")
        if np.any(self.conf < 0.0) or np.any(self.conf > 1.0):
            raise InvalidInputError("confidences must lie in [0, 1]")
        if not (np.all(np.isfinite(self.keypoints)) and np.all(np.isfinite(self.silhouette))):
            raise InvalidInputError("observation coordinates must be finite")

    @property
    def n_frames(self):
        return self.conf.shape[0]


def build_motion_map(seq, skeleton, conf):
    """The motion map of a pose sequence (frame-axis SkeletalPose); conf is
    (T, n_joints)."""
    conf = np.asarray(conf, dtype=float)
    seq = as_sequence(seq)
    n_frames = seq.root_trans.shape[0]
    if conf.shape != (n_frames, skeleton.n_joints):
        raise InvalidInputError(
            f"conf shape {conf.shape} does not match {n_frames} poses x "
            f"{skeleton.n_joints} joints"
        )
    quats = pose_to_quat(skeleton, seq).quats
    return MotionMap(quats.reshape(n_frames, -1), conf, seq.root_trans.copy())


def extract_poses(motion, skeleton):
    """Invert build_motion_map: the pose sequence of every frame (angles clamped)."""
    if motion.n_joints != skeleton.n_joints:
        raise InvalidInputError(
            f"motion has {motion.n_joints} joints, skeleton has {skeleton.n_joints}"
        )
    quats = QuatPose(motion.quats.reshape(motion.n_frames, motion.n_joints, 4))
    return quat_to_pose(skeleton, quats, motion.translations)


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
    out_q = quat.nlerp(qa, qb, frac[:, None, None])
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
    t = require_int(doc, path, "T")
    n_j = require_int(doc, path, "n_joints")
    return MotionMap(
        require_array(doc, path, "quats", (t, 4 * n_j)),
        require_array(doc, path, "conf", (t, n_j)),
        require_array(doc, path, "translations", (t, 3)),
    )


def save_observations(path, obs):
    save_document(
        path,
        {
            "format": OBSERVATIONS_FORMAT,
            "T": obs.n_frames,
            "n_joints": obs.conf.shape[1] if obs.n_frames else 0,
            "frames": [
                {
                    "keypoints": obs.keypoints[t].tolist(),
                    "conf": obs.conf[t].tolist(),
                    "silhouette": obs.silhouette[t, :obs.sil_count[t]].tolist(),
                }
                for t in range(obs.n_frames)
            ],
        },
    )


def load_observations(path):
    doc = load_document(path, OBSERVATIONS_FORMAT)
    t = require_int(doc, path, "T")
    n_j = require_int(doc, path, "n_joints")
    if n_j < 0:
        raise ParseError(f"{path}: field 'n_joints' must not be negative")
    raw = require_field(doc, path, "frames")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: field 'frames' must be a list")
    if len(raw) != t:
        raise ParseError(f"{path}: header says T={t} but {len(raw)} frames present")
    keypoints = np.zeros((t, n_j, 2))
    conf = np.zeros((t, n_j))
    outlines = []
    for k, item in enumerate(raw):
        where = f"{path}: frames[{k}]"
        try:
            keypoints[k] = numeric_array(item["keypoints"],
                                         f"{where} keypoints").reshape(n_j, 2)
            conf[k] = numeric_array(item["conf"], f"{where} conf").reshape(n_j)
            outlines.append(
                numeric_array(item["silhouette"], f"{where} silhouette").reshape(-1, 2))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where} is malformed ({exc})") from exc
    sil_count = np.array([o.shape[0] for o in outlines], dtype=int)
    silhouette = np.zeros((t, sil_count.max(initial=0), 2))
    for k, outline in enumerate(outlines):
        silhouette[k, :outline.shape[0]] = outline
    try:
        return Observations(keypoints, conf, silhouette, sil_count)
    except InvalidInputError as exc:
        raise ParseError(f"{path}: {exc}") from exc
