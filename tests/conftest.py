import numpy as np
import pytest

from mocorr.camera import CapsuleBody, look_at
from mocorr.skeleton import AXES, Joint, REGIONS, SkeletalPose, SkeletonModel


def make_random_skeleton(rng, n_joints=None):
    """Random valid kinematic tree with every region represented."""
    if n_joints is None:
        n_joints = int(rng.integers(6, 21))
    assert n_joints >= 6
    joints = [Joint("root", None, np.zeros(3), (), np.zeros((0, 2)))]
    for i in range(1, n_joints):
        parent = int(rng.integers(0, i))
        offset = rng.uniform(-0.4, 0.4, 3)
        n_dof = int(rng.integers(1, 4))
        axes = tuple(sorted(rng.choice(3, size=n_dof, replace=False)))
        dof = tuple(AXES[a] for a in axes)
        lo = rng.uniform(-1.5, -0.1, n_dof)
        hi = rng.uniform(0.1, 1.5, n_dof)
        joints.append(Joint(f"j{i}", parent, offset, dof, np.stack([lo, hi], axis=1)))
    region_map = ["torso"] + [REGIONS[(i - 1) % len(REGIONS)] for i in range(1, n_joints)]
    return SkeletonModel(joints, tuple(region_map))


def make_toy_skeleton():
    """Tiny fixed 5-joint skeleton covering all regions; three DOF flavors."""
    joints = [
        Joint("root", None, np.zeros(3), (), np.zeros((0, 2))),
        Joint("a", 0, np.array([0.0, 0.3, 0.0]), ("X", "Y", "Z"),
              np.array([[-1.0, 1.0], [-0.9, 0.9], [-0.8, 0.8]])),
        Joint("b", 1, np.array([0.25, 0.0, 0.0]), ("Y", "Z"),
              np.array([[-1.2, 1.2], [0.0, 1.4]])),
        Joint("c", 0, np.array([-0.2, -0.3, 0.1]), ("X",),
              np.array([[-1.3, 0.4]])),
        Joint("d", 3, np.array([0.0, -0.35, 0.0]), ("X", "Z"),
              np.array([[-0.7, 0.7], [-0.6, 0.6]])),
    ]
    return SkeletonModel(joints, ("torso", "left_arm", "right_arm", "left_leg",
                                  "right_leg"))


def random_pose(rng, skeleton, margin=0.05, trans_scale=0.3):
    lo, hi = skeleton.theta_min, skeleton.theta_max
    span = hi - lo
    theta = lo + span * rng.uniform(margin, 1.0 - margin, skeleton.total_dof)
    return SkeletalPose(theta, rng.uniform(-0.6, 0.6, 3),
                        rng.uniform(-trans_scale, trans_scale, 3))


def aimed_bone_scene():
    """Toy skeleton, thick capsule body, a camera on the -z axis looking at
    the origin, and a two-frame sequence. In frame 0 the root -> "a" bone
    points straight at the camera, so it projects to a lone circle; that
    frame's 32-point outline has samples on all five piece kinds."""
    skeleton = make_toy_skeleton()
    body = CapsuleBody(np.array([0.08, 0.04, 0.03, 0.03]))
    camera = look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3), 500.0, 500.0, 320.0, 240.0)
    theta = 0.5 * (skeleton.theta_min + skeleton.theta_max)
    seq = SkeletalPose(np.stack([theta, theta]),
                       np.array([[-np.pi / 2, 0.0, 0.0], [0.3, -0.4, 0.2]]),
                       np.zeros((2, 3)))
    return skeleton, body, camera, seq


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def toy_skeleton():
    return make_toy_skeleton()
