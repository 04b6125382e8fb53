"""Pinhole camera and the capsule-body silhouette proxy.

A camera maps world points through rotation/translation into a frame with
x right, y down, z forward, then projects by perspective division and
intrinsic scaling. Silhouettes come from per-bone capsules: each bone
projects to a generalized stadium (two circles of per-endpoint pixel radius
joined by external tangents), and the body outline is sampled densely on
every stadium boundary, dropping samples that land inside another stadium.

The silhouette functions take joint positions with a leading frame axis,
(T, n, 3), so one call covers a whole sequence. Stadiums are arrays with a
leading stadium axis (`Stadiums`), and each outline point's sampling record
is a row of arrays (stadium index, piece kind code, fraction) in `Outline`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, InvalidInputError
from .jsonio import load_document, require_array, save_document

CAMERA_FORMAT = "camera/1"

# camera-space points closer than this to the image plane are treated as invisible
Z_EPS = 1e-6


@dataclass
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.fx = float(self.fx)
        self.fy = float(self.fy)
        self.cx = float(self.cx)
        self.cy = float(self.cy)
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidInputError("focal lengths must be positive")
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise InvalidInputError("rotation must be 3x3 and translation a 3-vector")
        if np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3))) > 1e-9:
            raise InvalidInputError("rotation must be orthonormal")
        if np.linalg.det(self.rotation) < 0.0:
            raise InvalidInputError("rotation must be proper (det +1)")

    def to_camera(self, points):
        """World -> camera frame for a (..., 3) array (or single 3-vector)."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


def look_at(position, target, fx, fy, cx, cy):
    """Camera at `position` whose optical axis passes through `target`, y-up world."""
    position = np.asarray(position, dtype=float)
    forward = np.asarray(target, dtype=float) - position
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise InvalidInputError("camera position and target coincide")
    forward = forward / norm
    right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-9:
        raise InvalidInputError("camera looking straight along the world up axis")
    right = right / rnorm
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward])
    return Camera(fx, fy, cx, cy, rotation, -rotation @ position)


def project(camera, point):
    """Project one world point to pixels. Raises if it sits at or behind the camera."""
    p = camera.to_camera(np.asarray(point, dtype=float))
    if p[2] <= Z_EPS:
        raise BehindCameraError(f"point at camera-space z={p[2]:.3g}")
    return np.array(
        [camera.fx * p[0] / p[2] + camera.cx, camera.fy * p[1] / p[2] + camera.cy]
    )


def project_points(camera, points):
    """Batched projection of points (..., 3), e.g. (n, 3) or (T, n, 3).

    Returns (uv, z, valid); rows with z <= Z_EPS get uv = 0 and valid False,
    so callers can mask residuals instead of handling exceptions.
    """
    p = camera.to_camera(points)
    z = p[..., 2]
    valid = z > Z_EPS
    safe_z = np.where(valid, z, 1.0)
    uv = np.empty(p.shape[:-1] + (2,))
    uv[..., 0] = camera.fx * p[..., 0] / safe_z + camera.cx
    uv[..., 1] = camera.fy * p[..., 1] / safe_z + camera.cy
    uv[~valid] = 0.0
    return uv, z, valid


def save_camera(path, camera):
    save_document(
        path,
        {
            "format": CAMERA_FORMAT,
            "fx": camera.fx,
            "fy": camera.fy,
            "cx": camera.cx,
            "cy": camera.cy,
            "rotation": camera.rotation.tolist(),
            "translation": camera.translation.tolist(),
        },
    )


def load_camera(path):
    doc = load_document(path, CAMERA_FORMAT)
    vals = {}
    for key in ("fx", "fy", "cx", "cy"):
        vals[key] = float(require_array(doc, path, key, ()))
    return Camera(
        rotation=require_array(doc, path, "rotation", (3, 3)),
        translation=require_array(doc, path, "translation", (3,)),
        **vals,
    )


@dataclass
class CapsuleBody:
    """One radius (meters) per kinematic-tree edge, aligned with skeleton.bones."""

    radii: np.ndarray

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if self.radii.ndim != 1 or np.any(self.radii <= 0.0):
            raise InvalidInputError("capsule radii must be positive")


def default_body(skeleton):
    """Plausible flesh radii keyed on the child joint's body region."""
    by_region = {
        "torso": 0.08,
        "left_arm": 0.04,
        "right_arm": 0.04,
        "left_leg": 0.055,
        "right_leg": 0.055,
    }
    radii = [by_region[skeleton.region_map[child]] for _, child in skeleton.bones]
    return CapsuleBody(np.array(radii))


# Outline piece kinds. A stadium whose end circles are joined by external
# tangents has four pieces, in this order; one whose larger end circle
# swallows the other has a single "circle".
PIECE_KINDS = ("arc_a", "seg_hi", "arc_b", "seg_lo", "circle")
ARC_A, SEG_HI, ARC_B, SEG_LO, CIRCLE = range(len(PIECE_KINDS))

# outline candidates sampled per point kept, before the inside-another-stadium cull
OVERSAMPLE = 4


@dataclass
class Stadiums:
    """Projected bones with a leading stadium axis: one row per bone visible
    in a frame, in frame order and then bone order."""

    a: np.ndarray  # (S, 2) pixel centre of the parent-joint circle
    b: np.ndarray  # (S, 2) pixel centre of the child-joint circle
    ra: np.ndarray  # (S,) pixel radius at a
    rb: np.ndarray  # (S,) pixel radius at b
    frame: np.ndarray  # (S,) frame index
    bone: np.ndarray  # (S,) index into skeleton.bones


@dataclass
class Outline:
    """n outline points per frame and the sampling record of each point: its
    stadium, the kind of boundary piece it lies on and its fraction along
    that piece. The records let an optimizer freeze the sampling structure
    and move the points analytically with the pose (`piece_points`)."""

    stadiums: Stadiums
    points: np.ndarray  # (T, n, 2)
    stadium: np.ndarray  # (T, n) index into stadiums
    kind: np.ndarray  # (T, n) index into PIECE_KINDS
    frac: np.ndarray  # (T, n)
    lost: np.ndarray  # (T,) no outline: that frame's rows above are meaningless


def _row_dots(u, w):
    """u[i] @ w[i] for every row of two (k, m) arrays.

    Each row is its own BLAS dot, as in single-vector code: BLAS may fuse
    multiply-adds, so u0*w0 + u1*w1 written out can differ in the last bit.
    """
    return (u[:, None, :] @ w[:, :, None])[:, 0, 0]


def bone_stadiums(camera, skeleton, pos, body):
    """Projected endpoints and per-endpoint pixel radii of every bone of every
    frame whose two joints are in front of the camera.

    pos holds joint positions (T, n, 3); bones with either endpoint at or
    behind the camera plane are dropped.
    """
    if len(body.radii) != len(skeleton.bones):
        raise InvalidInputError(
            f"body has {len(body.radii)} radii, skeleton has {len(skeleton.bones)} bones"
        )
    uv, z, valid = project_points(camera, pos)
    ends = np.array(skeleton.bones, dtype=int).reshape(-1, 2)
    frame, bone = np.nonzero(valid[:, ends[:, 0]] & valid[:, ends[:, 1]])
    i, j = ends[bone, 0], ends[bone, 1]
    radius = camera.fx * body.radii[bone]
    return Stadiums(
        a=uv[frame, i],
        b=uv[frame, j],
        ra=radius / z[frame, i],
        rb=radius / z[frame, j],
        frame=frame,
        bone=bone,
    )


def stadium_geometry(st):
    """Per stadium: the a->b vector v, its length d, q = (ra - rb) / d clipped
    to [-1, 1], the direction psi of v, the half-angle beta = arccos(q) of
    the arc at b, and whether one end circle swallows the other ("circle":
    then d may be 0 and q, psi and beta are unused)."""
    v = st.b - st.a
    d = np.sqrt(_row_dots(v, v))
    circle = d <= np.abs(st.rb - st.ra) + 1e-12
    q = np.clip((st.ra - st.rb) / np.where(circle, 1.0, d), -1.0, 1.0)
    psi = np.arctan2(v[:, 1], v[:, 0])
    return v, d, q, psi, np.arccos(q), circle


def _outline_pieces(st):
    """Boundary pieces of every stadium, in stadium order and then piece
    order: (stadium index, kind, length) arrays."""
    _, d, _, _, beta, circle = stadium_geometry(st)
    dr = st.rb - st.ra
    seg = np.sqrt(np.maximum(d * d - dr * dr, 0.0))
    length = np.stack(
        [st.ra * (2.0 * np.pi - 2.0 * beta), seg, st.rb * 2.0 * beta, seg], axis=1)
    length[circle, 0] = 2.0 * np.pi * np.maximum(st.ra, st.rb)[circle]
    kind = np.tile(np.array([ARC_A, SEG_HI, ARC_B, SEG_LO]), (len(d), 1))
    kind[circle, 0] = CIRCLE
    used = np.ones(kind.shape, dtype=bool)
    used[circle, 1:] = False
    stadium = np.repeat(np.arange(len(d)), 4).reshape(-1, 4)
    return stadium[used], kind[used], length[used]


def piece_points(st, stadium, kind, frac):
    """Outline points at sampling records (stadium index, kind, frac).

    Every kind is a centre c = a + w*(b - a) plus a radius r along the angle
    base + frac*sweep; the per-kind parameters reproduce each piece's own
    formula operation for operation.
    """
    v, _, _, psi, beta, _ = stadium_geometry(st)
    a, v, ra, rb = st.a[stadium], v[stadium], st.ra[stadium], st.rb[stadium]
    psi, beta = psi[stadium], beta[stadium]
    arc_a, arc_b, circle = kind == ARC_A, kind == ARC_B, kind == CIRCLE
    centre_w = np.select([arc_a, arc_b, circle], [0.0, 1.0, np.where(ra >= rb, 0.0, 1.0)],
                         frac)
    radius = np.select([arc_a, arc_b, circle], [ra, rb, np.maximum(ra, rb)],
                       ra + frac * (rb - ra))
    base = np.select([arc_a | (kind == SEG_HI), arc_b | (kind == SEG_LO)],
                     [psi + beta, psi - beta], 0.0)
    sweep = np.select([arc_a, arc_b, circle],
                      [2.0 * np.pi - 2.0 * beta, 2.0 * beta, 2.0 * np.pi], 0.0)
    ang = base + frac * sweep
    return (a + centre_w[:, None] * v) + radius[:, None] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=1)


def _offsets_along(points, a, v):
    """(p - a[k]) @ v[k] and |p - a[k]|^2 for every stadium k and point p:
    two (S, m) arrays. The product is one BLAS matrix-vector product per
    stadium, as for a single stadium."""
    w = points[None, :, :] - a[:, None, :]
    return (w @ v[:, :, None])[..., 0], np.sum(w * w, axis=2)


def stadium_signed_distance(points, a, b, ra, rb):
    """Signed distance (px) from points (m, 2) to each of S stadiums given by
    a, b (S, 2) and ra, rb (S,): an (S, m) matrix, negative inside.

    A stadium is the union of discs centred on the segment a->b with
    linearly interpolated radius, so the distance is min over the sweep
    parameter of |p - c(s)| - r(s), minimized in closed form.
    """
    points = np.atleast_2d(points)
    v = b - a
    vv = _row_dots(v, v)[:, None]
    dr = (rb - ra)[:, None]
    wv, ww = _offsets_along(points, a, v)

    def distance_at(s):
        g = np.sqrt(np.maximum(ww - 2.0 * s * wv + s * s * vv, 0.0))
        return g - (ra[:, None] + s * dr)

    # candidate sweep parameters: ends plus stationary points of the distance
    best = np.minimum(distance_at(np.zeros_like(wv)), distance_at(np.ones_like(wv)))
    with np.errstate(divide="ignore", invalid="ignore"):
        aa = vv * (vv - dr * dr)
        bb = -2.0 * wv * (vv - dr * dr)
        disc = bb * bb - 4.0 * aa * (wv * wv - dr * dr * ww)
        ok = disc > 0.0
        root = np.sqrt(np.where(ok, disc, 0.0))
        for sgn in (-1.0, 1.0):
            s = np.where(ok, (-bb + sgn * root) / (2.0 * aa), 0.0)
            best = np.minimum(best, distance_at(np.clip(s, 0.0, 1.0)))
    # one end circle swallows the other: the distance to the bigger one
    deg = vv[:, 0] <= dr[:, 0] * dr[:, 0] + 1e-15
    if deg.any():
        centre = a[deg] + np.where(ra[deg] >= rb[deg], 0.0, 1.0)[:, None] * v[deg]
        best[deg] = (np.linalg.norm(points[None, :, :] - centre[:, None, :], axis=2)
                     - np.maximum(ra[deg], rb[deg])[:, None])
    return best


def _frame_starts(frame, n_frames):
    """Start of each frame's run in an array sorted by frame: (n_frames + 1,)."""
    return np.searchsorted(frame, np.arange(n_frames + 1))


def _running_totals(values, frame, n_frames):
    """Per-frame totals of values sorted by frame, each added up one value
    at a time in order, as Python's sum() does; np.sum adds pairwise, and a
    last-bit difference can move a sample count."""
    starts = _frame_starts(frame, n_frames)
    slot = np.arange(len(values)) - starts[frame]
    table = np.zeros((n_frames, max(int(np.diff(starts).max(initial=0)), 1)))
    table[frame, slot] = values
    return np.cumsum(table, axis=1)[:, -1]


def silhouette_structure(camera, skeleton, pos, body, n):
    """n outline points per frame of joint positions pos (T, n_joints, 3).

    Every piece of every stadium gets samples in proportion to its length
    (about n * OVERSAMPLE per frame); samples that land inside another
    stadium of the same frame are culled, and n survivors are picked evenly.
    A frame with no visible bone, a zero-length outline or no survivor is
    marked lost.
    """
    if n < 8:
        raise InvalidInputError("need at least 8 silhouette points")
    pos = np.asarray(pos, dtype=float)
    n_frames = pos.shape[0]
    st = bone_stadiums(camera, skeleton, pos, body)
    p_stadium, p_kind, p_length = _outline_pieces(st)
    p_frame = st.frame[p_stadium]
    total = _running_totals(p_length, p_frame, n_frames)
    lost = ~(total > 0.0)

    budget = max(8 * OVERSAMPLE, n * OVERSAMPLE)
    live = ~lost[p_frame]
    counts = np.zeros(len(p_length), dtype=int)
    counts[live] = np.maximum(
        1, np.rint(budget * p_length[live] / total[p_frame[live]]).astype(int))
    piece = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    s_frac = (np.arange(len(piece)) - first[piece] + 0.5) / counts[piece]
    s_stadium, s_kind = p_stadium[piece], p_kind[piece]
    s_points = piece_points(st, s_stadium, s_kind, s_frac)

    out = Outline(
        stadiums=st,
        points=np.full((n_frames, n, 2), np.nan),
        stadium=np.full((n_frames, n), -1),
        kind=np.full((n_frames, n), -1),
        frac=np.full((n_frames, n), np.nan),
        lost=lost,
    )
    s_starts = _frame_starts(st.frame[s_stadium], n_frames)
    st_starts = _frame_starts(st.frame, n_frames)
    for t in np.flatnonzero(~lost):
        lo, hi = s_starts[t], s_starts[t + 1]
        own = slice(st_starts[t], st_starts[t + 1])
        sd = stadium_signed_distance(s_points[lo:hi], st.a[own], st.b[own],
                                     st.ra[own], st.rb[own])
        others = s_stadium[lo:hi] != np.arange(own.start, own.stop)[:, None]
        kept = np.flatnonzero(~np.any((sd < -1e-6) & others, axis=0))
        if kept.size == 0:
            lost[t] = True
            continue
        pick = lo + kept[np.round(np.linspace(0, kept.size - 1, n)).astype(int)]
        out.points[t] = s_points[pick]
        out.stadium[t] = s_stadium[pick]
        out.kind[t] = s_kind[pick]
        out.frac[t] = s_frac[pick]
    return out

