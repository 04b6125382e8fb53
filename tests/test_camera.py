"""Pinhole projection and the capsule-silhouette proxy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocorr.camera import (
    PIECE_KINDS,
    _running_totals,
    Camera,
    CapsuleBody,
    bone_stadiums,
    default_body,
    load_camera,
    look_at,
    project,
    project_points,
    save_camera,
    silhouette_structure,
    stadium_signed_distance,
)
from mocorr.errors import (
    BehindCameraError,
    EmptySilhouetteError,
    InvalidInputError,
)
from mocorr.skeleton import SkeletalPose, as_sequence, fk_frames, identity_pose

from conftest import (
    aimed_bone_scene,
    frames_of,
    make_random_skeleton,
    make_toy_skeleton,
    random_pose,
    stack_poses,
)
from oracles import project_matrix, silhouette_points, silhouette_structure_per_frame


def make_camera(seed=0):
    rng = np.random.default_rng(seed)
    position = rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, -3.0])
    return look_at(position, np.zeros(3), 500.0, 480.0, 320.0, 240.0)


def test_project_matches_matrix_oracle():
    rng = np.random.default_rng(20)
    camera = make_camera(1)
    points = rng.uniform(-0.8, 0.8, (200, 3))
    ref_uv, ref_z = project_matrix(camera, points)
    for point, ru in zip(points, ref_uv):
        assert np.allclose(project(camera, point), ru, atol=1e-9)
    uv, z, valid = project_points(camera, points)
    assert np.all(valid)
    assert np.allclose(uv, ref_uv, atol=1e-9)
    assert np.allclose(z, ref_z, atol=1e-12)


def test_project_points_masks_behind_camera():
    camera = look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3),
                     500.0, 500.0, 320.0, 240.0)
    points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -5.0]])
    uv, z, valid = project_points(camera, points)
    assert valid.tolist() == [True, False]
    assert np.array_equal(uv[1], [0.0, 0.0])
    with pytest.raises(BehindCameraError):
        project(camera, points[1])


def test_look_at_geometry():
    rng = np.random.default_rng(21)
    for _ in range(20):
        position = rng.uniform(-3.0, 3.0, 3)
        target = rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(target - position) < 0.5:
            continue
        fwd = (target - position) / np.linalg.norm(target - position)
        if np.linalg.norm(np.cross(fwd, [0.0, 1.0, 0.0])) < 1e-3:
            continue
        camera = look_at(position, target, 400.0, 400.0, 320.0, 240.0)
        # Target lands on the principal point, camera origin maps to zero.
        assert np.allclose(project(camera, target), [320.0, 240.0], atol=1e-6)
        assert np.allclose(camera.to_camera(position), 0.0, atol=1e-9)
        # World-up should have no rightward component (y-up convention).
        up_cam = camera.rotation @ np.array([0.0, 1.0, 0.0])
        assert abs(up_cam[0]) < 1e-9
        assert up_cam[1] < 0.0  # y axis points down in camera frame


def test_look_at_degenerate_inputs():
    with pytest.raises(InvalidInputError):
        look_at(np.zeros(3), np.zeros(3), 500.0, 500.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        look_at(np.zeros(3), np.array([0.0, 5.0, 0.0]), 500.0, 500.0, 0.0, 0.0)


def test_camera_validation():
    bad_rot = np.eye(3)
    bad_rot[0, 0] = 2.0
    with pytest.raises(InvalidInputError):
        Camera(500.0, 500.0, 0.0, 0.0, bad_rot, np.zeros(3))
    mirror = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidInputError):
        Camera(500.0, 500.0, 0.0, 0.0, mirror, np.zeros(3))
    with pytest.raises(InvalidInputError):
        Camera(-1.0, 500.0, 0.0, 0.0, np.eye(3), np.zeros(3))
    # a NaN rotation entry passes the orthonormality test, since every
    # comparison with NaN is false
    nan_rot = np.eye(3)
    nan_rot[0, 1] = np.nan
    for fields in ((np.inf, 500.0, 0.0, 0.0, np.eye(3), np.zeros(3)),
                   (500.0, 500.0, np.inf, 0.0, np.eye(3), np.zeros(3)),
                   (500.0, 500.0, 0.0, np.nan, np.eye(3), np.zeros(3)),
                   (500.0, 500.0, 0.0, 0.0, nan_rot, np.zeros(3)),
                   (500.0, 500.0, 0.0, 0.0, np.eye(3), [0.0, 0.0, np.nan])):
        with pytest.raises(InvalidInputError, match="finite"):
            Camera(*fields)


def test_camera_save_load_round_trip(tmp_path):
    camera = make_camera(2)
    path = tmp_path / "cam.json"
    save_camera(path, camera)
    loaded = load_camera(path)
    assert loaded.fx == camera.fx and loaded.fy == camera.fy
    assert loaded.cx == camera.cx and loaded.cy == camera.cy
    assert np.array_equal(loaded.rotation, camera.rotation)
    assert np.array_equal(loaded.translation, camera.translation)


def brute_force_stadium_distance(points, st, samples=200001):
    """Dense sweep-parameter scan of min |p - c(s)| - r(s)."""
    s = np.linspace(0.0, 1.0, samples)
    centres = st["a"][None, :] + s[:, None] * (st["b"] - st["a"])[None, :]
    radii = st["ra"] + s * (st["rb"] - st["ra"])
    out = np.empty(len(points))
    for i, p in enumerate(points):
        out[i] = np.min(np.linalg.norm(centres - p, axis=1) - radii)
    return out


def test_stadium_signed_distance_matches_brute_force():
    rng = np.random.default_rng(22)
    a = rng.uniform(-50.0, 50.0, (6, 2))
    b = rng.uniform(-50.0, 50.0, (6, 2))
    ra = rng.uniform(2.0, 25.0, 6)
    rb = rng.uniform(2.0, 25.0, 6)
    points = rng.uniform(-80.0, 80.0, (40, 2))
    sd = stadium_signed_distance(points, a, b, ra, rb)
    assert sd.shape == (6, 40)
    for k in range(6):
        st = {"a": a[k], "b": b[k], "ra": ra[k], "rb": rb[k]}
        ref = brute_force_stadium_distance(points, st)
        # Closed form is exact; the dense scan can only overshoot slightly.
        assert np.all(sd[k] <= ref + 1e-9)
        assert np.max(np.abs(sd[k] - ref)) < 1e-4


def test_stadium_signed_distance_degenerate_circle():
    # One circle swallows the other: distance reduces to the big circle.
    points = np.array([[0.0, 0.0], [15.0, 0.0], [0.0, 10.0]])
    sd = stadium_signed_distance(points, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                                 np.array([10.0]), np.array([2.0]))
    assert np.allclose(sd[0], [-10.0, 5.0, 0.0], atol=1e-12)


def test_stadium_boundary_points_have_zero_distance():
    rng = np.random.default_rng(23)
    skeleton = make_toy_skeleton()
    body = default_body(skeleton)
    camera = make_camera(3)
    pose = random_pose(rng, skeleton, trans_scale=0.1)
    pos = fk_frames(skeleton, as_sequence(pose))[0]
    out = silhouette_structure(camera, skeleton, pos, body, 32)
    stads = out.stadiums
    for point, s in zip(out.points[0], out.stadium[0]):
        k = slice(s, s + 1)
        sd = stadium_signed_distance(point[None, :], stads.a[k], stads.b[k],
                                     stads.ra[k], stads.rb[k])
        assert abs(float(sd[0, 0])) < 1e-9


def test_silhouette_points_cardinality_and_cull():
    rng = np.random.default_rng(24)
    skeleton = make_toy_skeleton()
    body = default_body(skeleton)
    camera = make_camera(4)
    for n in (8, 16, 96):
        pose = random_pose(rng, skeleton, trans_scale=0.1)
        points = silhouette_points(camera, skeleton, pose, body, n)
        assert points.shape == (n, 2)
        # No sampled point sits strictly inside any capsule.
        pos = fk_frames(skeleton, as_sequence(pose))[0]
        stads = bone_stadiums(camera, skeleton, pos, body)
        sd = stadium_signed_distance(points, stads.a, stads.b, stads.ra, stads.rb)
        assert np.all(sd >= -1e-6)


def test_silhouette_points_minimum_count():
    skeleton = make_toy_skeleton()
    body = default_body(skeleton)
    camera = make_camera(5)
    with pytest.raises(InvalidInputError):
        silhouette_points(camera, skeleton, identity_pose(skeleton), body, 7)


def test_silhouette_behind_camera():
    skeleton = make_toy_skeleton()
    body = default_body(skeleton)
    camera = look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3),
                     500.0, 500.0, 320.0, 240.0)
    pose = SkeletalPose(np.zeros(skeleton.total_dof), np.zeros(3),
                        np.array([0.0, 0.0, -5.0]))
    with pytest.raises(EmptySilhouetteError):
        silhouette_points(camera, skeleton, pose, body, 16)


def test_bone_stadium_radii_scale_with_depth():
    skeleton = make_toy_skeleton()
    body = default_body(skeleton)
    camera = make_camera(6)
    pos = fk_frames(skeleton, as_sequence(identity_pose(skeleton)))[0]
    stads = bone_stadiums(camera, skeleton, pos, body)
    z = camera.to_camera(pos[0])[:, 2]
    assert len(stads.bone) == len(skeleton.bones)
    for k, ra, rb in zip(stads.bone, stads.ra, stads.rb):
        i, j = skeleton.bones[k]
        assert ra == pytest.approx(camera.fx * body.radii[k] / z[i])
        assert rb == pytest.approx(camera.fx * body.radii[k] / z[j])


def test_capsule_body_validation():
    skeleton = make_toy_skeleton()
    with pytest.raises(InvalidInputError):
        CapsuleBody(np.array([0.1, -0.1, 0.1, 0.1]))
    body = CapsuleBody(np.array([0.1]))
    pos = fk_frames(skeleton, as_sequence(identity_pose(skeleton)))[0]
    with pytest.raises(InvalidInputError):
        bone_stadiums(make_camera(7), skeleton, pos, body)


def test_default_body_matches_bone_count():
    skeleton = make_toy_skeleton()
    body = default_body(skeleton)
    assert len(body.radii) == len(skeleton.bones)
    assert np.all(body.radii > 0.0)


def assert_outline_matches_oracle(camera, skeleton, seq, body, n):
    """The batched structure equals the per-frame oracle frame by frame:
    points, records (stadium, kind, frac) and the lost flag, bit for bit.
    Returns the batched outline."""
    out = silhouette_structure(camera, skeleton, fk_frames(skeleton, seq)[0], body, n)
    stads = out.stadiums
    for t, pose in enumerate(frames_of(seq)):
        try:
            points, records = silhouette_structure_per_frame(camera, skeleton, pose, body, n)
        except EmptySilhouetteError:
            assert out.lost[t]
            continue
        assert not out.lost[t]
        assert np.array_equal(out.points[t], points)
        assert [PIECE_KINDS[k] for k in out.kind[t]] == [kind for _, kind, _ in records]
        assert np.array_equal(out.frac[t], [frac for _, _, frac in records])
        s = out.stadium[t]
        assert np.all(stads.frame[s] == t)
        assert np.array_equal(stads.bone[s], [rec["bone"] for rec, _, _ in records])
        for name in ("a", "b", "ra", "rb"):
            assert np.array_equal(getattr(stads, name)[s],
                                  [rec[name] for rec, _, _ in records])
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 6),
       n=st.integers(8, 64))
def test_batched_silhouette_structure_equals_per_frame_oracle(seed, n_frames, n):
    rng = np.random.default_rng(seed)
    skeleton = make_random_skeleton(rng)
    body = default_body(skeleton)
    poses = [random_pose(rng, skeleton, trans_scale=0.2) for _ in range(n_frames)]
    seq = stack_poses(poses)
    position = rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, -rng.uniform(1.0, 3.5)])
    camera = look_at(position, np.zeros(3), 500.0, 480.0, 320.0, 240.0)
    assert_outline_matches_oracle(camera, skeleton, seq, body, n)


def test_silhouette_structure_with_a_bone_aimed_at_the_camera():
    skeleton, body, camera, seq = aimed_bone_scene()
    out = assert_outline_matches_oracle(camera, skeleton, seq, body, 32)
    assert set(out.kind[0]) == set(range(len(PIECE_KINDS)))


def test_silhouette_structure_marks_a_frame_behind_the_camera_lost():
    skeleton, body, camera, seq = aimed_bone_scene()
    seq.root_trans[1] = [0.0, 0.0, -5.0]  # every joint behind the camera
    out = assert_outline_matches_oracle(camera, skeleton, seq, body, 32)
    assert out.lost.tolist() == [False, True]
    assert not np.any(out.stadiums.frame == 1)


def test_outline_totals_add_pieces_in_order():
    """Each frame's outline length adds its pieces one at a time, as the
    per-frame sum() did; pairwise summation rounds differently here, and a
    last-bit change in the total can move a sample count."""
    values = np.array([1.0] + [1e-16] * 9 + [2.0, 3.0])
    frame = np.array([0] * 10 + [2, 2])
    totals = _running_totals(values, frame, 3)
    assert totals.tolist() == [sum(values[:10]), 0.0, 5.0]
    assert totals[0] != np.sum(values[:10])
