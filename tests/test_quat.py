"""Quaternion primitives checked against scipy and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from mocorr import quat
from mocorr.errors import InvalidInputError

from oracles import (
    central_diff,
    conjugate,
    euler_xyz_from_matrix_per_matrix,
    from_matrix_per_matrix,
    grad_check,
    quat_from_scipy,
    rotvec_matrix_jacobian_per_frame,
    scipy_quat,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
rotvecs = st.tuples(finite, finite, finite).map(np.array).filter(
    lambda v: np.linalg.norm(v) < np.pi - 1e-3)


def random_unit_quats(rng, n):
    q = rng.standard_normal((n, 4))
    return quat.canonicalize(q / np.linalg.norm(q, axis=1, keepdims=True))


@given(rotvecs)
@settings(max_examples=200, deadline=None)
def test_rotvec_round_trip(v):
    back = quat.to_rotvec(quat.from_rotvec(v))
    assert np.allclose(back, v, atol=1e-12)


@given(rotvecs)
@settings(max_examples=200, deadline=None)
def test_to_matrix_matches_scipy(v):
    q = quat.from_rotvec(v)
    assert np.allclose(quat.to_matrix(q), scipy_quat(q).as_matrix(), atol=1e-12)
    assert np.allclose(quat.to_matrix(q), Rotation.from_rotvec(v).as_matrix(),
                       atol=1e-12)


def test_from_matrix_round_trip():
    rng = np.random.default_rng(1)
    for q in random_unit_quats(rng, 300):
        m = quat.to_matrix(q)
        back = quat.from_matrix(m)
        assert np.allclose(back, q, atol=1e-12)


def test_from_matrix_trace_branches():
    # Rotations by ~pi about each axis exercise the non-positive-trace pivots.
    for axis in range(3):
        v = np.zeros(3)
        v[axis] = np.pi - 1e-6
        q = quat.from_rotvec(v)
        assert np.allclose(quat.from_matrix(quat.to_matrix(q)), q, atol=1e-9)


def test_batched_from_matrix_and_euler_equal_per_matrix_oracle():
    """One stack holding every branch, bit for bit against the per-matrix
    code: positive traces, a pivot on each diagonal entry, and both
    gimbal-lock signs."""
    rng = np.random.default_rng(12)
    mats = list(quat.to_matrix(random_unit_quats(rng, 60)))
    for axis in range(3):  # rotations near pi pivot on their axis
        v = np.zeros(3)
        v[axis] = np.pi - 1e-3
        mats.append(quat.to_matrix(quat.from_rotvec(v)))
    for sign in (1.0, -1.0):
        a, c = rng.uniform(-1.0, 1.0, 2)
        mats.append(quat.rot_x(a) @ quat.rot_y(sign * np.pi / 2) @ quat.rot_z(c))
    stack = np.array(mats)
    trace = np.trace(stack, axis1=1, axis2=2)
    pivots = np.argmax(np.diagonal(stack, axis1=1, axis2=2), axis=1)[trace <= 0.0]
    assert np.any(trace > 0.0) and set(pivots) == {0, 1, 2}
    assert set(np.sign(stack[np.abs(stack[:, 0, 2]) >= 1.0 - 1e-12, 0, 2])) == {1.0, -1.0}

    q = quat.from_matrix(stack)
    assert np.array_equal(q, [from_matrix_per_matrix(m) for m in stack])
    assert np.array_equal(quat.from_matrix(stack[:64].reshape(8, 8, 3, 3)),
                          q[:64].reshape(8, 8, 4))
    angles = np.stack(quat.euler_xyz_from_matrix(stack), axis=1)
    assert np.array_equal(angles, [euler_xyz_from_matrix_per_matrix(m) for m in stack])


def test_mul_matches_scipy():
    rng = np.random.default_rng(2)
    a = random_unit_quats(rng, 100)
    b = random_unit_quats(rng, 100)
    for qa, qb in zip(a, b):
        prod = quat.mul(qa, qb)
        ref = quat_from_scipy(scipy_quat(qa) * scipy_quat(qb))
        assert np.allclose(quat.canonicalize(prod), ref, atol=1e-12)


def test_mul_identity_and_conjugate():
    rng = np.random.default_rng(3)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    for q in random_unit_quats(rng, 50):
        assert np.allclose(quat.mul(e, q), q)
        assert np.allclose(quat.mul(q, e), q)
        assert np.allclose(quat.canonicalize(quat.mul(q, conjugate(q))),
                           e, atol=1e-12)


def test_canonicalize_w_nonnegative():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((200, 4))
    out = quat.canonicalize(q)
    assert np.all(out[:, 0] >= 0.0)
    # Idempotent and sign-consistent: q and -q map to the same row.
    assert np.array_equal(quat.canonicalize(out), out)
    assert np.array_equal(quat.canonicalize(-q), out)


def test_canonicalize_zero_w_tie_break():
    assert np.array_equal(quat.canonicalize(np.array([0.0, -1.0, 0.0, 0.0])),
                          np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(quat.canonicalize(np.array([0.0, 0.0, -2.0, 5.0])),
                          np.array([0.0, 0.0, 2.0, -5.0]))
    assert np.array_equal(quat.canonicalize(np.array([0.0, 0.0, 0.0, -1.0])),
                          np.array([0.0, 0.0, 0.0, 1.0]))


def test_canonicalize_preserves_batch_shape():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((6, 3, 4))
    out = quat.canonicalize(q)
    assert out.shape == q.shape
    assert np.all(out[..., 0] >= 0.0)


def test_normalize_zero_raises():
    with pytest.raises(InvalidInputError):
        quat.normalize(np.zeros(4))
    with pytest.raises(InvalidInputError):
        quat.normalize(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))


def test_to_rotvec_angle_range():
    rng = np.random.default_rng(6)
    for q in random_unit_quats(rng, 200):
        angle = np.linalg.norm(quat.to_rotvec(q))
        assert 0.0 <= angle <= np.pi + 1e-12


def test_axis_rotation_matches_scipy():
    rng = np.random.default_rng(7)
    for axis in ("X", "Y", "Z"):
        for angle in rng.uniform(-np.pi, np.pi, 20):
            ref = Rotation.from_euler(axis.lower(), angle).as_matrix()
            assert np.allclose(quat.axis_rotation(axis, angle), ref, atol=1e-12)


def test_euler_xyz_factorization():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b, c = rng.uniform(-1.4, 1.4, 3)
        m = quat.rot_x(a) @ quat.rot_y(b) @ quat.rot_z(c)
        ra, rb, rc = quat.euler_xyz_from_matrix(m)
        assert np.allclose([ra, rb, rc], [a, b, c], atol=1e-9)


def test_euler_xyz_gimbal_lock():
    rng = np.random.default_rng(9)
    for sign in (1.0, -1.0):
        a, c = rng.uniform(-1.0, 1.0, 2)
        m = quat.rot_x(a) @ quat.rot_y(sign * np.pi / 2) @ quat.rot_z(c)
        ra, rb, rc = quat.euler_xyz_from_matrix(m)
        assert rc == 0.0
        rebuilt = quat.rot_x(ra) @ quat.rot_y(rb) @ quat.rot_z(rc)
        assert np.allclose(rebuilt, m, atol=1e-9)


def test_nlerp_endpoints_and_midpoint():
    rng = np.random.default_rng(10)
    a = random_unit_quats(rng, 50)
    b = random_unit_quats(rng, 50)
    for qa, qb in zip(a, b):
        assert np.allclose(quat.nlerp(qa, qb, 0.0), qa, atol=1e-12)
        assert np.allclose(quat.nlerp(qa, qb, 1.0), quat.canonicalize(qb),
                           atol=1e-12)
        mid = quat.nlerp(qa, qb, 0.5)
        qb_hemi = qb if qa @ qb >= 0 else -qb
        avg = 0.5 * (qa + qb_hemi)
        avg = quat.canonicalize(avg / np.linalg.norm(avg))
        assert np.allclose(mid, avg, atol=1e-12)


def test_nlerp_hemisphere_flip():
    rng = np.random.default_rng(11)
    for qa in random_unit_quats(rng, 20):
        qb = -quat.mul(qa, quat.from_rotvec(np.array([0.01, 0.0, 0.0])))
        mid = quat.nlerp(qa, qb, 0.5)
        # Short arc: midpoint stays close to qa, never near the antipode.
        assert min(np.linalg.norm(mid - qa), np.linalg.norm(mid + qa)) < 0.01


def test_rotvec_matrix_jacobian_matches_fd():
    rng = np.random.default_rng(12)
    vs = list(rng.uniform(-1.5, 1.5, (20, 3))) + [np.zeros(3),
                                                  np.full(3, 1e-9)]
    for v in vs:
        jac = quat.rotvec_matrix_jacobian(v)
        num = central_diff(lambda x: quat.to_matrix(quat.from_rotvec(x)).ravel(),
                           v, 1e-6)
        analytic = np.stack([jac[k].ravel() for k in range(3)], axis=1)
        assert grad_check(analytic, num, rtol=1e-5) < 1e-5


def test_batched_rotvec_matrix_jacobian_equals_per_frame_oracle():
    """A leading frame axis gives each frame bit for bit its single-vector
    value, frames below the small-angle threshold included."""
    rng = np.random.default_rng(14)
    vs = rng.uniform(-2.0, 2.0, (40, 3))
    vs[::5] *= 1e-8  # |v|^2 < 1e-14: first-order fallback
    vs[7] = 0.0
    vs[11] = [6e-8, 0.0, 0.0]  # just above the threshold
    jac = quat.rotvec_matrix_jacobian(vs)
    assert jac.shape == (40, 3, 3, 3)
    ref = np.stack([rotvec_matrix_jacobian_per_frame(v) for v in vs])
    assert np.array_equal(jac, ref)
    for v, r in zip(vs[:6], ref):
        assert np.array_equal(quat.rotvec_matrix_jacobian(v), r)
    assert np.array_equal(quat.rotvec_matrix_jacobian(vs[::5]), ref[::5])


def test_skew_cross_product():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u, w = rng.standard_normal((2, 3))
        assert np.allclose(quat.skew(u) @ w, np.cross(u, w), atol=1e-12)
