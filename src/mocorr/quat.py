"""Quaternion and rotation primitives.

Conventions used everywhere in this package:
  * quaternion component order is (w, x, y, z);
  * unit quaternions are canonicalized to w >= 0 (the double cover q/-q is
    resolved in favour of non-negative scalar part);
  * rotation matrices act on column vectors, v' = R @ v;
  * axis-angle vectors ("rotvecs") encode angle * unit_axis in radians.
"""

import numpy as np

from .errors import InvalidInputError

_EPS = 1e-12


def normalize(q):
    """Return q scaled to unit norm. Raises on (near-)zero quaternions."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < _EPS):
        raise InvalidInputError("cannot normalize zero quaternion")
    return q / n


def canonicalize(q):
    """Flip sign so w >= 0; ties on w == 0 resolved by first nonzero component.

    One pass: a row flips when its first component that is not zero (-0.0
    counts as zero) is negative, so NaN and all-zero rows stay as they are.
    """
    q = np.asarray(q, dtype=float)
    flat = q.reshape(-1, 4)
    lead = flat[np.arange(flat.shape[0]), np.argmax(flat != 0.0, axis=1)]
    return np.where(lead[:, None] < 0.0, flat * -1.0, flat).reshape(q.shape)


def mul(a, b):
    """Hamilton product a * b."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def from_rotvec(v):
    """Unit quaternions (..., 4) of axis-angle vectors (..., 3) (angle * axis)."""
    v = np.asarray(v, dtype=float)
    # np.linalg.norm's own arithmetic, without its per-call checks
    angle = np.sqrt(np.add.reduce(v * v, axis=-1))
    half = 0.5 * angle
    # sin(a/2)/a, with the series value picked near zero
    small = angle < 1e-8
    s = np.where(small, 0.5 - angle ** 2 / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    return canonicalize(np.concatenate([np.cos(half)[..., None], v * s[..., None]], axis=-1))


def to_rotvec(q):
    """Axis-angle vector of a unit quaternion; angle in [0, pi] after canonicalization."""
    q = canonicalize(normalize(q))
    single = q.ndim == 1
    q = np.atleast_2d(q)
    s = np.linalg.norm(q[:, 1:], axis=-1)
    w = q[:, 0]
    angle = 2.0 * np.arctan2(s, w)
    small = s < 1e-12
    factor = np.empty_like(s)
    factor[~small] = angle[~small] / s[~small]
    factor[small] = 2.0  # w ~ 1 near identity
    out = q[:, 1:] * factor[:, None]
    return out[0] if single else out


def to_matrix(q):
    """3x3 rotation matrix of a unit quaternion (batched on leading axes)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = ww + xx - yy - zz
    m[..., 0, 1] = 2 * (xy - wz)
    m[..., 0, 2] = 2 * (xz + wy)
    m[..., 1, 0] = 2 * (xy + wz)
    m[..., 1, 1] = ww - xx + yy - zz
    m[..., 1, 2] = 2 * (yz - wx)
    m[..., 2, 0] = 2 * (xz - wy)
    m[..., 2, 1] = 2 * (yz + wx)
    m[..., 2, 2] = ww - xx - yy + zz
    return m


def from_matrix(m):
    """Unit quaternions of rotation matrices (..., 3, 3) (Shepperd's max-pivot
    method): a positive trace pivots on w, any other matrix on its largest
    diagonal entry."""
    m = np.asarray(m, dtype=float)
    flat = m.reshape(-1, 3, 3)
    trace = np.trace(flat, axis1=1, axis2=2)
    pivot = np.where(trace > 0.0, -1, np.argmax(np.diagonal(flat, axis1=1, axis2=2), axis=1))
    q = np.empty((flat.shape[0], 4))
    sel = pivot == -1
    f = flat[sel]
    r = np.sqrt(1.0 + trace[sel])
    s = 0.5 / r
    q[sel] = np.stack([0.5 * r, (f[:, 2, 1] - f[:, 1, 2]) * s, (f[:, 0, 2] - f[:, 2, 0]) * s,
                       (f[:, 1, 0] - f[:, 0, 1]) * s], axis=1)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        sel = pivot == i
        f = flat[sel]
        r = np.sqrt(1.0 + f[:, i, i] - f[:, j, j] - f[:, k, k])
        s = 0.5 / r
        q[sel, 0] = (f[:, k, j] - f[:, j, k]) * s
        q[sel, 1 + i] = 0.5 * r
        q[sel, 1 + j] = (f[:, j, i] + f[:, i, j]) * s
        q[sel, 1 + k] = (f[:, k, i] + f[:, i, k]) * s
    return canonicalize(normalize(q)).reshape(m.shape[:-2] + (4,))


def euler_xyz_from_matrix(m):
    """Angles (a, b, c) with m = Rx(a) @ Ry(b) @ Rz(c), each shaped like the
    leading axes of m (..., 3, 3).

    Gimbal-locked matrices (|m02| = 1) return c = 0 and fold the free angle
    into a, which keeps the factorization deterministic.
    """
    m = np.asarray(m, dtype=float)
    sb = np.clip(m[..., 0, 2], -1.0, 1.0)
    free = np.abs(sb) < 1.0 - 1e-12
    lock = np.where(sb > 0.0, 1.0, -1.0)
    a = np.where(free, np.arctan2(-m[..., 1, 2], m[..., 2, 2]),
                 lock * np.arctan2(m[..., 1, 0], m[..., 1, 1]))
    b = np.where(free, np.arcsin(sb), lock * (np.pi / 2))
    c = np.where(free, np.arctan2(-m[..., 0, 1], m[..., 0, 0]), 0.0)
    return a, b, c


def rotvec_matrix_jacobian(v, r):
    """d(R)/d(v_k) for R = exp([v]_x): array (3, 3, 3) indexed [k, i, j], or
    (T, 3, 3, 3) indexed [t, k, i, j] for rotation vectors (T, 3).

    `r` is R itself, `to_matrix(from_rotvec(v))`, (3, 3) or (T, 3, 3), which
    forward kinematics has already built. Closed form of Gallego & Yezzi with
    a first-order fallback near v = 0, where dR/dv_k -> [e_k]_x. Every frame
    runs the closed form on a safe denominator and the fallback is picked
    after, so no frame is gathered or scattered. Products keep the shapes of
    the single-vector form, so each frame gets bit for bit what it would get
    on its own.
    """
    v = np.asarray(v, dtype=float)
    seq = np.atleast_2d(v)
    theta2 = (seq[:, None, :] @ seq[:, :, None])[:, 0, 0]
    small = (theta2 < 1e-14)[:, None, None, None]
    eye = np.eye(3)
    r = np.asarray(r, dtype=float).reshape(-1, 3, 3)
    # (eye - r) @ e_k for every k, as matrix-vector products: (T, k, 3)
    cols = ((eye - r)[:, None] @ eye[:, :, None])[..., 0]
    w = seq[:, :, None, None] * skew(seq)[:, None] + skew(cross(seq[:, None], cols))
    big = (w / np.where(small, 1.0, theta2[:, None, None, None])) @ r[:, None]
    out = np.where(small, skew(eye), big)
    return out if v.ndim == 2 else out[0]


def cross(a, b):
    """a x b over the last axis of 3-vectors, broadcasting like np.cross and
    bit for bit its values: the same products and differences, without its
    per-call set-up."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def skew(v):
    """Cross-product matrix [v]_x: (3, 3), or (..., 3, 3) for vectors (..., 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def nlerp(a, b, u):
    """Normalized linear interpolation between unit quaternions.

    b is sign-flipped onto a's hemisphere first, so interpolation always takes
    the short arc. u = 0 gives a, u = 1 gives b (up to canonical sign).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = np.sum(a * b, axis=-1, keepdims=True)
    b = np.where(dot < 0.0, -b, b)
    return canonicalize(normalize((1.0 - u) * a + u * b))
