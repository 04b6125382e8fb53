"""Benchmark of the Levenberg-Marquardt keypoint fits, solve by solve.

Generates `--scenes` seeded T = 2 scenes with four sparse views (scene
seeds `--seed`, `--seed` + 1, ...), runs the monocular fit and the 4-view
fit of each, and prints one JSON line per fit: the solver's status,
iterations, residual evaluations, rejected trial steps and failed damped
solves, the final cost, the damping the solve ended with and the fit's wall
time in seconds. A last line sums
them per fit kind. BLAS is pinned to one thread before numpy loads. It has
no timing gate; compare two checkouts by running each one's copy.

    python tools/bench_lm.py [--scenes 8] [--seed 0]
"""

import argparse
import json
import os
import sys
import time

T = 2
VIEWS = 4
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
COUNTS = ("iterations", "residual_evaluations", "rejected_steps", "failed_solves")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenes", type=int, default=8, help="scenes to fit")
    parser.add_argument("--seed", type=int, default=0, help="first scene seed")
    args = parser.parse_args(argv)
    if args.scenes < 1:
        parser.error("--scenes must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    from mocorr.optim import fitting
    from mocorr.synth import SceneConfig, synth_generate

    # the fits return only the motion, so keep each solve's LMResult on the way
    solves = []
    solve = fitting.levenberg_marquardt

    def recording(*solve_args, **solve_kwargs):
        solves.append(solve(*solve_args, **solve_kwargs))
        return solves[-1]

    fitting.levenberg_marquardt = recording
    fits = {
        "mono": lambda s: fitting.initial_fit(s.mono_obs, s.mono_camera, s.skeleton),
        "4-view": lambda s: fitting.sparse_view_fit(s.sparse_obs, s.sparse_cameras,
                                                    s.skeleton),
    }
    totals = {kind: dict.fromkeys(COUNTS + ("cap_hits", "wall_s"), 0) for kind in fits}
    for scene_seed in range(args.seed, args.seed + args.scenes):
        scene = synth_generate(SceneConfig(T=T, V=VIEWS, seed=scene_seed))
        for kind, fit in fits.items():
            start = time.perf_counter()
            fit(scene)
            wall = time.perf_counter() - start
            result = solves[-1]
            record = {"scene_seed": scene_seed, "fit": kind, "status": result.status}
            record.update({name: getattr(result, name) for name in COUNTS})
            record.update(cost=result.cost, final_damping=result.final_damping,
                          wall_s=round(wall, 4))
            print(json.dumps(record))
            for name in COUNTS:
                totals[kind][name] += record[name]
            totals[kind]["cap_hits"] += result.status == "max_iterations"
            totals[kind]["wall_s"] = round(totals[kind]["wall_s"] + wall, 4)
    print(json.dumps({"scenes": args.scenes, "frames": T, "views": VIEWS,
                      "blas_threads": 1, "totals": totals}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
