"""Quaternion primitives checked against scipy and finite differences."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from mocorr import quat
from mocorr.errors import InvalidInputError

from oracles import (
    axis_rotation,
    canonicalize_looped,
    central_diff,
    conjugate,
    euler_xyz_from_matrix_per_matrix,
    from_matrix_per_matrix,
    from_rotvec_masked,
    grad_check,
    quat_from_scipy,
    rot_x,
    rot_y,
    rot_z,
    rotvec_matrix_jacobian_masked,
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
        mats.append(rot_x(a) @ rot_y(sign * np.pi / 2) @ rot_z(c))
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
            assert np.allclose(axis_rotation(axis, angle), ref, atol=1e-12)


def test_euler_xyz_factorization():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b, c = rng.uniform(-1.4, 1.4, 3)
        m = rot_x(a) @ rot_y(b) @ rot_z(c)
        ra, rb, rc = quat.euler_xyz_from_matrix(m)
        assert np.allclose([ra, rb, rc], [a, b, c], atol=1e-9)


def test_euler_xyz_gimbal_lock():
    rng = np.random.default_rng(9)
    for sign in (1.0, -1.0):
        a, c = rng.uniform(-1.0, 1.0, 2)
        m = rot_x(a) @ rot_y(sign * np.pi / 2) @ rot_z(c)
        ra, rb, rc = quat.euler_xyz_from_matrix(m)
        assert rc == 0.0
        rebuilt = rot_x(ra) @ rot_y(rb) @ rot_z(rc)
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
        jac = quat.rotvec_matrix_jacobian(v, quat.to_matrix(quat.from_rotvec(v)))
        num = central_diff(lambda x: quat.to_matrix(quat.from_rotvec(x)).ravel(),
                           v, 1e-6)
        analytic = np.stack([jac[k].ravel() for k in range(3)], axis=1)
        assert grad_check(analytic, num, rtol=1e-5) < 1e-5


def test_batched_rotvec_matrix_jacobian_equals_per_frame_oracle():
    """A leading frame axis gives each frame bit for bit its single-vector
    value, frames below the small-angle threshold included."""
    def rotvec_jacobian(v):
        return quat.rotvec_matrix_jacobian(v, quat.to_matrix(quat.from_rotvec(v)))

    rng = np.random.default_rng(14)
    vs = rng.uniform(-2.0, 2.0, (40, 3))
    vs[::5] *= 1e-8  # |v|^2 < 1e-14: first-order fallback
    vs[7] = 0.0
    vs[11] = [6e-8, 0.0, 0.0]  # just above the threshold
    jac = rotvec_jacobian(vs)
    assert jac.shape == (40, 3, 3, 3)
    ref = np.stack([rotvec_matrix_jacobian_per_frame(v) for v in vs])
    assert np.array_equal(jac, ref)
    for v, r in zip(vs[:6], ref):
        assert np.array_equal(rotvec_jacobian(v), r)
    assert np.array_equal(rotvec_jacobian(vs[::5]), ref[::5])
    # a 200-row stack, near-zero rows on both sides of the threshold mixed in
    vs = rng.uniform(-2.5, 2.5, (200, 3))
    near = rng.choice(200, 50, replace=False)
    vs[near] *= 10.0 ** rng.uniform(-12, -6, (50, 1))
    vs[near[:5]] = 0.0
    vs[near[5:10], 1:] = 0.0
    jac = rotvec_jacobian(vs)
    ref = np.stack([rotvec_matrix_jacobian_per_frame(v) for v in vs])
    assert np.array_equal(jac, ref)
    assert np.array_equal(np.signbit(jac), np.signbit(ref))


def test_skew_cross_product():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u, w = rng.standard_normal((2, 3))
        assert np.allclose(quat.skew(u) @ w, np.cross(u, w), atol=1e-12)


def same_bits(a, b):
    """Equal shapes and equal bit patterns: zero signs and NaNs included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# components that exercise every tie of the sign rule: both zeros, NaN, and
# values of either sign
quat_components = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, -2.5]),
                            st.floats(-3.0, 3.0))


@given(rows=st.lists(st.tuples(*[quat_components] * 4), min_size=1, max_size=12),
       stacked=st.booleans())
@example(rows=[(0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0), (-0.0, -0.0, -1.0, 2.0),
               (np.nan, -1.0, 0.0, 0.0), (0.0, np.nan, -1.0, 0.0), (-0.0, 0.0, 0.0, -3.0)],
         stacked=True)
@settings(max_examples=300, deadline=None)
def test_canonicalize_equals_looped_oracle(rows, stacked):
    """The one-pass sign rule flips exactly the rows the three-step loop
    flips: w == 0 ties, +-0.0, NaN and all-zero rows included, over one
    quaternion, a stack and a stack with two leading axes."""
    q = np.array(rows)
    assert same_bits(quat.canonicalize(q), canonicalize_looped(q))
    assert same_bits(quat.canonicalize(q[0]), canonicalize_looped(q[0]))
    if stacked and len(rows) % 2 == 0:
        q = q.reshape(2, -1, 4)
        assert same_bits(quat.canonicalize(q), canonicalize_looped(q))


def mixed_rotvecs(seed, n):
    """n rotation vectors: ordinary rows mixed with zero rows, rows with zero
    components of either sign and rows whose angle sits on either side of
    the 1e-8 (from_rotvec) and sqrt(1e-14) (the root-rotation derivative)
    thresholds."""
    rng = np.random.default_rng(seed)
    vs = rng.uniform(-2.5, 2.5, (n, 3))
    kind = rng.integers(0, 6, n)
    scale = 10.0 ** np.select(
        [kind == 1, kind == 2, kind == 3],
        [rng.uniform(-14, -9, n), rng.uniform(-8.3, -7.7, n), rng.uniform(-7.3, -6.7, n)], 0.0)
    vs *= scale[:, None] / np.linalg.norm(vs, axis=1, keepdims=True) ** (kind > 0)[:, None]
    vs[kind == 4] = 0.0
    vs[kind == 5, rng.integers(0, 3)] = rng.choice([0.0, -0.0])
    return vs


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_from_rotvec_and_its_jacobian_equal_masked_oracles(seed, n):
    """The mask-free from_rotvec and root-rotation derivative give bit for
    bit the masked versions' values, on single vectors and on (T, 3) stacks
    that mix near-zero and large rows."""
    vs = mixed_rotvecs(seed, n)
    q = quat.from_rotvec(vs)
    assert same_bits(q, from_rotvec_masked(vs))
    r = quat.to_matrix(q)
    jac = quat.rotvec_matrix_jacobian(vs, r)
    assert same_bits(jac, rotvec_matrix_jacobian_masked(vs, r))
    for v, qv, rv, jv in zip(vs, q, r, jac):
        assert same_bits(quat.from_rotvec(v), qv)
        assert same_bits(from_rotvec_masked(v), qv)
        assert same_bits(quat.rotvec_matrix_jacobian(v, rv), jv)
        assert same_bits(rotvec_matrix_jacobian_masked(v, rv), jv)


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(3,), (5, 3), (2, 3, 3),
                                                             (4, 1, 2, 3)]))
@settings(max_examples=50, deadline=None)
def test_from_rotvec_batches_over_leading_axes(seed, shape):
    """Like to_matrix and canonicalize, from_rotvec takes any (..., 3) stack
    and gives each vector its flattened call's quaternion."""
    size = int(np.prod(shape[:-1]))
    vs = mixed_rotvecs(seed, size).reshape(shape)
    q = quat.from_rotvec(vs)
    assert q.shape == shape[:-1] + (4,)
    assert same_bits(q, quat.from_rotvec(vs.reshape(-1, 3)).reshape(q.shape))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_cross_equals_numpy_cross_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 1, 3)) * 10.0 ** rng.uniform(-8, 3, (n, 1, 1))
    b = rng.standard_normal((n, 4, 3))
    b[:, 0] = 0.0
    b[:, 1, 1] = -0.0
    assert same_bits(quat.cross(a, b), np.cross(a, b))
    assert same_bits(quat.cross(a[0, 0], b[0, 2]), np.cross(a[0, 0], b[0, 2]))
