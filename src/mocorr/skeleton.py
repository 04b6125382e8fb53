"""Kinematic skeleton: tree structure, forward kinematics, and the
pose <-> quaternion mapping.

A pose carries three pieces: per-joint angles theta (one entry per declared
rotation axis, concatenated in joint order), a root axis-angle rotation, and
a root translation in meters. The same type holds a whole sequence when each
piece gains a leading frame axis: theta (T, D), root_rot and root_trans
(T, 3). The quaternion form stores one unit quaternion per joint, with the
root rotation in slot 0: (n, 4) for one pose, (T, n, 4) for a sequence.
Forward kinematics and both conversions loop over joints only, each step
covering every frame; a single pose runs as a sequence of one.

Joint rotation axes are always listed in X, Y, Z order and the local
rotation composes in that order, so converting a quaternion back to angles
is an exact inverse for any rotation the joint can express.
"""

from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import InvalidInputError
from .jsonio import load_document, require_field, save_document

AXES = ("X", "Y", "Z")
REGIONS = ("torso", "left_arm", "right_arm", "left_leg", "right_leg")

SKELETON_FORMAT = "skeleton/1"


@dataclass
class Joint:
    name: str
    parent: int | None
    offset: np.ndarray
    dof: tuple = ()
    limits: np.ndarray = ()

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float)
        self.dof = tuple(self.dof)
        self.limits = np.asarray(self.limits, dtype=float).reshape(len(self.dof), 2)
        if self.offset.shape != (3,) or not np.all(np.isfinite(self.offset)):
            raise InvalidInputError(f"joint {self.name!r}: offset must be a finite 3-vector")
        ordered = tuple(ax for ax in AXES if ax in self.dof)
        if ordered != self.dof or len(set(self.dof)) != len(self.dof):
            raise InvalidInputError(
                f"joint {self.name!r}: dof must be a subset of X,Y,Z in that order"
            )
        if not np.all(np.isfinite(self.limits)):
            raise InvalidInputError(f"joint {self.name!r}: limits must be finite")
        if np.any(self.limits[:, 0] > self.limits[:, 1]):
            raise InvalidInputError(f"joint {self.name!r}: require theta_min <= theta_max")


@dataclass
class SkeletonModel:
    """Kinematic tree in topological order (parent index < child index)."""

    joints: tuple
    region_map: tuple

    def __post_init__(self):
        self.joints = tuple(self.joints)
        self.region_map = tuple(self.region_map)
        n = len(self.joints)
        if n < 1:
            raise InvalidInputError("skeleton needs at least one joint")
        roots = [i for i, j in enumerate(self.joints) if j.parent is None]
        if roots != [0]:
            raise InvalidInputError("exactly one root joint required, at index 0")
        for i, j in enumerate(self.joints):
            if j.parent is not None and not 0 <= j.parent < i:
                raise InvalidInputError(
                    f"joint {j.name!r}: parent index must precede the joint"
                )
        root = self.joints[0]
        if np.any(root.offset != 0.0):
            raise InvalidInputError("root offset must be zero (root sits at root_trans)")
        if root.dof:
            raise InvalidInputError(
                "root joint must not declare angle DOFs (root_rot covers its rotation)"
            )
        if len(self.region_map) != n:
            raise InvalidInputError("region_map must assign every joint to a region")
        for r in self.region_map:
            if r not in REGIONS:
                raise InvalidInputError(f"unknown region {r!r}")
        if set(self.region_map) != set(REGIONS):
            raise InvalidInputError("all five regions must be used")

        counts = [len(j.dof) for j in self.joints]
        self.dof_start = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        self.total_dof = int(self.dof_start[-1])
        self.theta_min = np.concatenate(
            [j.limits[:, 0] for j in self.joints if j.dof] or [np.empty(0)]
        )
        self.theta_max = np.concatenate(
            [j.limits[:, 1] for j in self.joints if j.dof] or [np.empty(0)]
        )
        # kinematic-tree edges, one per non-root joint
        self.bones = tuple((j.parent, i) for i, j in enumerate(self.joints) if j.parent is not None)
        # descendants[a, i] <=> joint i sits strictly below joint a
        self.descendants = np.zeros((n, n), dtype=bool)
        for i, j in enumerate(self.joints):
            if j.parent is not None:
                self.descendants[:, i] = self.descendants[:, j.parent]
                self.descendants[j.parent, i] = True
        # per angle column c: the joint it turns, and dof_descendants[c, i] <=>
        # angle c moves joint i
        self.dof_joint = np.repeat(np.arange(n), counts)
        self.dof_descendants = self.descendants[self.dof_joint]

    @property
    def n_joints(self):
        return len(self.joints)

    def theta_slice(self, i):
        """Slice of the theta vector holding joint i's angles."""
        return slice(int(self.dof_start[i]), int(self.dof_start[i + 1]))

    def region_joints(self, region):
        return [i for i, r in enumerate(self.region_map) if r == region]


@dataclass
class SkeletalPose:
    """One pose, or a sequence of T poses when every part has a leading frame axis."""

    theta: np.ndarray
    root_rot: np.ndarray
    root_trans: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.root_rot = np.asarray(self.root_rot, dtype=float)
        self.root_trans = np.asarray(self.root_trans, dtype=float)
        if (self.root_rot.ndim not in (1, 2) or self.root_rot.shape[-1] != 3
                or self.root_trans.shape != self.root_rot.shape):
            raise InvalidInputError(
                "root_rot and root_trans must be 3-vectors, or (T, 3) for a sequence"
            )
        if self.theta.ndim != self.root_rot.ndim or (
                self.theta.shape[:-1] != self.root_rot.shape[:-1]):
            raise InvalidInputError("theta must have one row of angles per frame")
        for part in (self.theta, self.root_rot, self.root_trans):
            if not np.all(np.isfinite(part)):
                raise InvalidInputError("pose entries must be finite")


@dataclass
class QuatPose:
    """One unit quaternion (w, x, y, z) per joint, canonicalized to w >= 0:
    (n_joints, 4) for one pose, (T, n_joints, 4) for a sequence."""

    quats: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quats, dtype=float)
        if q.ndim not in (2, 3) or q.shape[-1] != 4:
            raise InvalidInputError("quats must have shape (n_joints, 4), or (T, n_joints, 4)")
        norms = np.linalg.norm(q, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise InvalidInputError("quaternions deviate from unit norm by more than 1e-6")
        self.quats = quat.canonicalize(q / norms[..., None])


def identity_pose(skeleton):
    return SkeletalPose(np.zeros(skeleton.total_dof), np.zeros(3), np.zeros(3))


def _check_dims(skeleton, pose):
    if pose.theta.shape[-1] != skeleton.total_dof:
        raise InvalidInputError(
            f"pose has {pose.theta.shape[-1]} angles, skeleton expects {skeleton.total_dof}"
        )


def local_rotation(skeleton, i, pose):
    """Local rotation of joint i: composed axis rotations (root folds in root_rot).

    (3, 3) for one pose, (T, 3, 3) for a sequence; a joint without angles
    gives the identity (3, 3) either way.
    """
    joint = skeleton.joints[i]
    if joint.parent is None:
        return quat.to_matrix(quat.from_rotvec(pose.root_rot))
    r = np.eye(3)
    angles = pose.theta[..., skeleton.theta_slice(i)]
    for m, ax in enumerate(joint.dof):
        r = r @ quat.axis_rotation(ax, angles[..., m])
    return r


def as_sequence(pose):
    """The pose as a sequence: a single pose becomes one frame (T = 1)."""
    if pose.root_rot.ndim == 2:
        return pose
    return SkeletalPose(pose.theta[None], pose.root_rot[None], pose.root_trans[None])


def fk_frames(skeleton, pose):
    """World positions and world rotations of every joint.

    One pose gives (n, 3) and (n, 3, 3); a sequence gives (T, n, 3) and
    (T, n, 3, 3). Each step of the joint loop covers all frames, and a single
    pose runs as a sequence of one.
    """
    _check_dims(skeleton, pose)
    seq = as_sequence(pose)
    n_frames = seq.root_rot.shape[0]
    pos = np.empty((n_frames, skeleton.n_joints, 3))
    rot = np.empty((n_frames, skeleton.n_joints, 3, 3))
    for i, joint in enumerate(skeleton.joints):
        local = local_rotation(skeleton, i, seq)
        if joint.parent is None:
            pos[:, i] = seq.root_trans
            rot[:, i] = local
        else:
            pos[:, i] = pos[:, joint.parent] + rot[:, joint.parent] @ joint.offset
            rot[:, i] = rot[:, joint.parent] @ local
    if seq is pose:
        return pos, rot
    return pos[0], rot[0]


def forward_kinematics(skeleton, pose):
    """World position of every joint as an (n_joints, 3) array, meters."""
    return fk_frames(skeleton, pose)[0]


def pose_to_quat(skeleton, pose):
    """The quaternion form of a pose: (n, 4) for one pose, (T, n, 4) for a
    sequence. Each step of the joint loop covers all frames."""
    _check_dims(skeleton, pose)
    seq = as_sequence(pose)
    q = np.empty((seq.root_rot.shape[0], skeleton.n_joints, 4))
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            q[:, i] = quat.from_rotvec(seq.root_rot)
        else:
            q[:, i] = quat.from_matrix(local_rotation(skeleton, i, seq))
    return QuatPose(q if seq is pose else q[0])


def quat_to_pose(skeleton, qpose, root_trans):
    """The mapping from quaternions back to angles: S = M(Q, t).

    Each joint quaternion is factored as Rx(a) Ry(b) Rz(c); angles on the
    joint's declared axes are kept and clamped to limits, the rest of the
    rotation is dropped. Exact inverse of pose_to_quat on in-limit poses.
    Quaternions (n, 4) with root_trans (3,) give one pose; (T, n, 4) with
    (T, 3) give a sequence.
    """
    q = qpose.quats
    if q.shape[-2] != skeleton.n_joints:
        raise InvalidInputError(
            f"quat pose has {q.shape[-2]} joints, skeleton has {skeleton.n_joints}"
        )
    theta = np.zeros(q.shape[:-2] + (skeleton.total_dof,))
    root_rot = quat.to_rotvec(q[..., 0, :])
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is None or not joint.dof:
            continue
        a, b, c = quat.euler_xyz_from_matrix(quat.to_matrix(q[..., i, :]))
        by_axis = {"X": a, "Y": b, "Z": c}
        theta[..., skeleton.theta_slice(i)] = np.stack([by_axis[ax] for ax in joint.dof],
                                                       axis=-1)
    pose = SkeletalPose(theta, root_rot, np.asarray(root_trans, dtype=float))
    return clamp_joint_limits(pose, skeleton)


def clamp_joint_limits(pose, skeleton):
    """Clamp each angle into its joint's declared range; root parts unchanged."""
    _check_dims(skeleton, pose)
    theta = np.clip(pose.theta, skeleton.theta_min, skeleton.theta_max)
    return SkeletalPose(theta, pose.root_rot.copy(), pose.root_trans.copy())


def save_skeleton(path, skeleton):
    doc = {
        "format": SKELETON_FORMAT,
        "joints": [
            {
                "name": j.name,
                "parent": j.parent,
                "offset": j.offset.tolist(),
                "dof": list(j.dof),
                "limits": j.limits.tolist(),
            }
            for j in skeleton.joints
        ],
        "region_map": list(skeleton.region_map),
    }
    save_document(path, doc)


def load_skeleton(path):
    doc = load_document(path, SKELETON_FORMAT)
    raw = require_field(doc, path, "joints")
    joints = []
    for k, item in enumerate(raw):
        try:
            joints.append(
                Joint(
                    name=item["name"],
                    parent=item["parent"],
                    offset=item["offset"],
                    dof=item["dof"],
                    limits=item["limits"],
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            from .errors import ParseError

            raise ParseError(f"{path}: joints[{k}] is malformed ({exc})") from exc
    return SkeletonModel(joints, require_field(doc, path, "region_map"))


def default_skeleton():
    """Bundled 15-joint humanoid with 30 angle DOFs. Offsets in meters, y up.

    Limits are rough anatomical ranges; they mainly exist to exercise
    clamping and the bounded optimizer parameterization.
    """
    d = np.deg2rad

    def lim(*pairs):
        return [[d(lo), d(hi)] for lo, hi in pairs]

    joints = [
        Joint("pelvis", None, (0.0, 0.0, 0.0)),
        Joint("spine", 0, (0.0, 0.25, 0.0), ("X", "Y", "Z"),
              lim((-30, 30), (-35, 35), (-30, 30))),
        Joint("neck", 1, (0.0, 0.30, 0.0), ("X", "Y", "Z"),
              lim((-40, 40), (-50, 50), (-35, 35))),
        Joint("l_shoulder", 1, (0.20, 0.25, 0.0), ("X", "Y", "Z"),
              lim((-70, 70), (-60, 60), (-70, 70))),
        Joint("l_elbow", 3, (0.28, 0.0, 0.0), ("Y", "Z"),
              lim((-80, 80), (0, 130))),
        Joint("l_wrist", 4, (0.25, 0.0, 0.0), ("Z",), lim((-45, 45))),
        Joint("r_shoulder", 1, (-0.20, 0.25, 0.0), ("X", "Y", "Z"),
              lim((-70, 70), (-60, 60), (-70, 70))),
        Joint("r_elbow", 6, (-0.28, 0.0, 0.0), ("Y", "Z"),
              lim((-80, 80), (-130, 0))),
        Joint("r_wrist", 7, (-0.25, 0.0, 0.0), ("Z",), lim((-45, 45))),
        Joint("l_hip", 0, (0.10, -0.05, 0.0), ("X", "Y", "Z"),
              lim((-110, 40), (-40, 40), (-45, 45))),
        Joint("l_knee", 9, (0.0, -0.45, 0.0), ("X",), lim((0, 140))),
        Joint("l_ankle", 10, (0.0, -0.45, 0.0), ("X", "Z"),
              lim((-50, 35), (-30, 30))),
        Joint("r_hip", 0, (-0.10, -0.05, 0.0), ("X", "Y", "Z"),
              lim((-110, 40), (-40, 40), (-45, 45))),
        Joint("r_knee", 12, (0.0, -0.45, 0.0), ("X",), lim((0, 140))),
        Joint("r_ankle", 13, (0.0, -0.45, 0.0), ("X", "Z"),
              lim((-50, 35), (-30, 30))),
    ]
    regions = (
        "torso", "torso", "torso",
        "left_arm", "left_arm", "left_arm",
        "right_arm", "right_arm", "right_arm",
        "left_leg", "left_leg", "left_leg",
        "right_leg", "right_leg", "right_leg",
    )
    return SkeletonModel(joints, regions)
