"""Microbenchmark of the kinematics core: forward kinematics, its Jacobian,
the pose -> quaternion conversion and the rotation helpers under them.

Times `fk_frames`, `fk_jacobian` (given `fk_frames`' output), the pair of
them as one LM iterate runs them (`lm_iterate`), `pose_to_quat`,
`quat.rotvec_matrix_jacobian` (given the root rotation matrices, as
`fk_jacobian` passes them), `quat.from_rotvec` on the root rotations and
`quat.canonicalize` on every joint quaternion, on seeded in-limit poses of
the default skeleton at T = 2, 8 and 120 frames. `pose_iterate` times a
whole `PoseProblem` iterate, `residuals`, `jacobian` and
`normal_equations` at one x, on the poses' own noisy projections: through
4 cameras at T = 2 (the keypoint fits) and through 1 camera with an anchor
at T = 120 (refine without its silhouettes). Prints one JSON line: for each
case and T, the best of `--repeat` timings of one call, in microseconds.
BLAS is pinned to one thread before numpy loads. It has no timing gate;
compare two checkouts by running each one's copy.

    python tools/bench_kinematics.py [--repeat 7]
"""

import argparse
import itertools
import json
import os
import sys
import timeit

FRAMES = (2, 8, 120)
# pose_iterate's problems: T -> (cameras, anchored)
ITERATE = {2: (4, False), 120: (1, True)}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def best_call_us(fn, repeat):
    """Best over `repeat` runs of the mean time of one call, in microseconds."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def pose_iterate(skeleton, seq, n_views, anchored, rng):
    """One LM iterate of a pose problem on seq's own noisy projections
    through n_views cameras around it, anchored to seq's angles and root
    rotations when `anchored`. Calls alternate between two points, so each
    one misses the state the problem keeps for the x before."""
    import numpy as np

    from mocorr.camera import look_at, project_points
    from mocorr.motion import Observations
    from mocorr.optim.energies import EnergyWeights
    from mocorr.optim.problem import PoseProblem, View
    from mocorr.skeleton import fk_frames

    pos = fk_frames(skeleton, seq)[0]
    views = []
    for angle in 2.0 * np.pi * np.arange(n_views) / n_views:
        camera = look_at([3.0 * np.sin(angle), 1.2, 3.0 * np.cos(angle)], np.zeros(3),
                         500.0, 500.0, 320.0, 240.0)
        uv = project_points(camera, pos)[0] + rng.normal(0.0, 2.0, pos.shape[:2] + (2,))
        views.append(View(camera, Observations(uv, rng.uniform(0.5, 1.0, pos.shape[:2])),
                          1.0 / n_views))
    anchor = (seq.theta, seq.root_rot) if anchored else None
    problem = PoseProblem(skeleton, views, EnergyWeights(), anchor=anchor)
    x = problem.pack(seq.theta, seq.root_rot, seq.root_trans)
    points = itertools.cycle([x, x + rng.normal(0.0, 0.01, x.shape)])

    def iterate():
        x = next(points)
        r = problem.residuals(x)
        problem.jacobian(x).normal_equations(r)

    return iterate


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="timing runs per case")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import numpy as np

    from mocorr import quat
    from mocorr.optim.kinematics import fk_jacobian
    from mocorr.skeleton import SkeletalPose, default_skeleton, fk_frames, pose_to_quat

    skeleton = default_skeleton()
    lo, hi = skeleton.theta_min, skeleton.theta_max
    rng = np.random.default_rng(0)
    results = {name: {} for name in
               ("fk_frames", "fk_jacobian", "lm_iterate", "pose_iterate", "pose_to_quat",
                "rotvec_matrix_jacobian", "from_rotvec", "canonicalize")}
    for n_frames in FRAMES:
        # in-limit angles, root rotations of up to about 1 rad, roots within 0.3 m
        theta = lo + (hi - lo) * rng.uniform(0.05, 0.95, (n_frames, skeleton.total_dof))
        seq = SkeletalPose(theta, rng.uniform(-0.6, 0.6, (n_frames, 3)),
                           rng.uniform(-0.3, 0.3, (n_frames, 3)))
        root = quat.to_matrix(quat.from_rotvec(seq.root_rot))
        fk = fk_frames(skeleton, seq)
        quats = pose_to_quat(skeleton, seq).quats
        calls = {
            "fk_frames": lambda: fk_frames(skeleton, seq),
            "fk_jacobian": lambda: fk_jacobian(skeleton, seq, fk),
            "lm_iterate": lambda: fk_jacobian(skeleton, seq, fk_frames(skeleton, seq)),
            "pose_to_quat": lambda: pose_to_quat(skeleton, seq),
            "rotvec_matrix_jacobian": lambda: quat.rotvec_matrix_jacobian(seq.root_rot, root),
            "from_rotvec": lambda: quat.from_rotvec(seq.root_rot),
            "canonicalize": lambda: quat.canonicalize(quats),
        }
        if n_frames in ITERATE:
            calls["pose_iterate"] = pose_iterate(skeleton, seq, *ITERATE[n_frames], rng)
        for name, fn in calls.items():
            results[name][str(n_frames)] = round(best_call_us(fn, args.repeat), 2)
    print(json.dumps({"unit": "us", "blas_threads": 1, "repeat": args.repeat,
                      "frames": list(FRAMES), "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
