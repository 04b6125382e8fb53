"""Kinematic skeleton: tree structure, forward kinematics, and the
pose <-> quaternion mapping.

A pose carries three pieces: per-joint angles theta (one entry per declared
rotation axis, concatenated in joint order), a root axis-angle rotation, and
a root translation in meters. The same type holds a whole sequence when each
piece gains a leading frame axis: theta (T, D), root_rot and root_trans
(T, 3). The quaternion form stores one unit quaternion per joint, with the
root rotation in slot 0: (n, 4) for one pose, (T, n, 4) for a sequence.
Forward kinematics and pose_to_quat build every joint's axis rotations for
all frames at once (`angle_products`) and then walk the tree one depth level
at a time; quat_to_pose factors every joint of every frame in one call. A
single pose runs as a sequence of one.

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
        # per angle column c: the joint it turns, its axis (an index into AXES),
        # its rank among that joint's angles, and dof_descendants[c, i] <=>
        # angle c moves joint i
        self.dof_joint = np.repeat(np.arange(n), counts)
        self.dof_axis = np.array([AXES.index(ax) for j in self.joints for ax in j.dof],
                                 dtype=int)
        self.dof_rank = np.arange(self.total_dof) - self.dof_start[self.dof_joint]
        self.dof_descendants = self.descendants[self.dof_joint]
        self._chain_layout(counts)

    def _chain_layout(self, counts):
        """Index arrays of the batched kinematics (`angle_products`, `fk_chain`).

        The angles' running products live in slots: slot k belongs to angle
        column rank_order[k], and slot total_dof holds the identity.
        rank_order groups the columns by rank, each group listing its joints
        in one order, those with more angles first, so the first entries of
        rank r's group (bounded by rank_start) are the columns just before
        rank r + 1's group, entry for entry.
        """
        n, d = len(self.joints), self.total_dof
        parent = np.array([-1] + [j.parent for j in self.joints[1:]])
        by_count = sorted(range(n), key=lambda i: -counts[i])
        self.rank_order = np.array([self.dof_start[i] + r for r in range(3)
                                    for i in by_count if counts[i] > r], dtype=int)
        self.rank_start = np.concatenate([[0], np.cumsum(np.bincount(self.dof_rank,
                                                                     minlength=3))])
        self.rank_pos = np.argsort(self.rank_order)
        # per slot: its angle's axis, the parent of the angle's joint, and the
        # slot of the running product before the angle (the identity for rank 0)
        self.slot_axis = self.dof_axis[self.rank_order]
        self.slot_parent = parent[self.dof_joint[self.rank_order]]
        self.before_slot = np.where(self.dof_rank[self.rank_order] > 0,
                                    self.rank_pos[self.rank_order - 1], d)
        # per joint: the slot of its local rotation, its last angle's
        self.local_slot = np.full(n, d)
        turned = np.asarray(counts) > 0
        self.local_slot[turned] = self.rank_pos[self.dof_start[1:][turned] - 1]
        # the tree by depth: per level below the root, its joints, their
        # parents, offsets (k, 1, 3, 1) and local-rotation slots
        depth = np.zeros(n, dtype=int)
        for i in range(1, n):
            depth[i] = depth[parent[i]] + 1
        offsets = np.stack([j.offset for j in self.joints])[:, None, :, None]
        self.levels = tuple((kids, parent[kids], offsets[kids], self.local_slot[kids])
                            for kids in (np.flatnonzero(depth == level)
                                         for level in range(1, depth.max() + 1)))
        # the (angle column, joint it moves) pairs
        self.dof_pairs = np.nonzero(self.dof_descendants)

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


def angle_products(skeleton, theta):
    """Every joint's axis rotations and their running products, for all frames.

    theta (T, D) gives (D + 1, T, 3, 3): slot k holds eye @ R_0 @ ... @ R_r
    for the angle column `skeleton.rank_order[k]`, rank r of its joint, and
    the last slot the identity. So a joint's local rotation sits in its
    `local_slot`, and the product before an angle in its `before_slot`. One
    cos and one sin call cover every angle; ranks 1 and 2 take one batched
    matmul each, over the slots of their rank.
    """
    d = skeleton.total_dof
    angles = theta[:, skeleton.rank_order].T
    c, s = np.cos(angles), np.sin(angles)
    # each angle's rotation about its axis, taking axis i towards axis j
    slot, axis = np.arange(d), skeleton.slot_axis
    i, j = (axis + 1) % 3, (axis + 2) % 3
    turn = np.zeros((d,) + theta.shape[:1] + (3, 3))
    turn[slot, :, axis, axis] = 1.0
    turn[slot, :, i, i] = c
    turn[slot, :, j, j] = c
    turn[slot, :, i, j] = -s
    turn[slot, :, j, i] = s
    products = np.empty((d + 1,) + turn.shape[1:])
    products[d] = np.eye(3)
    start = skeleton.rank_start
    # rank 0: eye @ R is R with each -0.0 entry made +0.0 (an entry sums one
    # product by 1 with products by 0, and a -0.0's column also holds
    # cos(0) = 1, whose product by 0 is +0.0); adding +0.0 gives the same bits
    np.add(turn[:start[1]], 0.0, out=products[:start[1]])
    for rank in (1, 2):
        group = slice(start[rank], start[rank + 1])
        before = slice(start[rank - 1], start[rank - 1] + group.stop - group.start)
        np.matmul(products[before], turn[group], out=products[group])
    return products


def as_sequence(pose):
    """The pose as a sequence: a single pose becomes one frame (T = 1)."""
    if pose.root_rot.ndim == 2:
        return pose
    return SkeletalPose(pose.theta[None], pose.root_rot[None], pose.root_trans[None])


def fk_chain(skeleton, seq):
    """Forward kinematics of a sequence, joint axis first, with the angle
    running products.

    Returns positions (n, T, 3), world rotations (n, T, 3, 3) and
    `angle_products(skeleton, seq.theta)`. The tree is walked one depth level
    at a time, each step covering every joint of the level in every frame;
    with the joint axis first, a level gathers whole (T, ...) blocks.
    """
    products = angle_products(skeleton, seq.theta)
    n_frames = seq.root_rot.shape[0]
    pos = np.empty((skeleton.n_joints, n_frames, 3))
    rot = np.empty((skeleton.n_joints, n_frames, 3, 3))
    pos[0] = seq.root_trans
    rot[0] = quat.to_matrix(quat.from_rotvec(seq.root_rot))
    for kids, parents, offsets, slots in skeleton.levels:
        parent_rot = rot[parents]
        pos[kids] = pos[parents] + (parent_rot @ offsets)[..., 0]
        rot[kids] = parent_rot @ products[slots]
    return pos, rot, products


def frames_first(a):
    """A joint-major array (n, T, ...) as a contiguous (T, n, ...) array."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


class Kinematics(tuple):
    """What `fk_frames` returns: the pair (positions, rotations), which
    unpacks and indexes as a tuple, and as `products` the angles' running
    products that the tree walk built (`angle_products` of the pose as a
    sequence), which `fk_jacobian` reuses."""

    def __new__(cls, pos, rot, products):
        self = super().__new__(cls, (pos, rot))
        self.products = products
        return self


def fk_frames(skeleton, pose):
    """World positions and world rotations of every joint, as `Kinematics`.

    One pose gives (n, 3) and (n, 3, 3); a sequence gives (T, n, 3) and
    (T, n, 3, 3). A single pose runs as a sequence of one.
    """
    _check_dims(skeleton, pose)
    seq = as_sequence(pose)
    pos, rot, products = fk_chain(skeleton, seq)
    if seq is pose:
        return Kinematics(frames_first(pos), frames_first(rot), products)
    return Kinematics(pos[:, 0], rot[:, 0], products)


def forward_kinematics(skeleton, pose):
    """World position of every joint as an (n_joints, 3) array, meters."""
    return fk_frames(skeleton, pose)[0]


def pose_to_quat(skeleton, pose):
    """The quaternion form of a pose: (n, 4) for one pose, (T, n, 4) for a
    sequence. The local rotations come from one `angle_products` call."""
    _check_dims(skeleton, pose)
    seq = as_sequence(pose)
    local = angle_products(skeleton, seq.theta)[skeleton.local_slot[1:]]
    q = np.empty((seq.root_rot.shape[0], skeleton.n_joints, 4))
    q[:, 0] = quat.from_rotvec(seq.root_rot)
    q[:, 1:] = quat.from_matrix(local).transpose(1, 0, 2)
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
    root_rot = quat.to_rotvec(q[..., 0, :])
    a, b, c = quat.euler_xyz_from_matrix(quat.to_matrix(q))
    theta = np.stack([a, b, c], -1)[..., skeleton.dof_joint, skeleton.dof_axis]
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
