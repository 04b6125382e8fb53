"""Microbenchmark of the network layers at the default training shapes.

Times `GRU.forward`/`backward` and `Conv1d.forward`/`backward` on seeded
inputs: the generator GRU (208 -> 256) at batch 8, the discriminator GRU
(60 -> 128) at batch 8 and at batch 16, the size of its joint pass over
generated and reference windows, and the first temporal convolution
(75 -> 128, kernel 7) at batch 8, all over 64 frames. Two more cases time
what a training batch runs around them: `disc_pair_b16` is the
discriminator's pass over 8 generated and 8 reference windows, its one
shared backward (`backward`) against the two backward calls it replaces
(`backward_two_calls`); `gen_local_convs_b8` is the generator's 15 per-joint
convolutions (5 -> 16, kernel 7) at batch 8 as one `GroupedConv1d`, its
backward without the input gradient as training runs it, against the
15 `Conv1d` calls (`forward_per_joint`, `backward_per_joint`). Prints one
JSON line: for each case and pass, the best of `--repeat` timings of one
call, in microseconds. BLAS is pinned to one thread before numpy loads. It
has no timing gate; compare two checkouts by running each one's copy.

    python tools/bench_layers.py [--repeat 7]
"""

import argparse
import json
import os
import sys
import timeit

FRAMES = 64
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def best_call_us(fn, repeat):
    """Best over `repeat` runs of the mean time of one call, in microseconds."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


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

    from mocorr.net.layers import GRU, Conv1d, GroupedConv1d
    from mocorr.net.model import Discriminator

    rng = np.random.default_rng(0)
    # name: (layer, batch); widths are the TrainConfig defaults on the
    # 15-joint skeleton: 5 * 15 network channels, 4 * 15 quaternion channels,
    # and 128 + 5 * 16 fused generator channels
    cases = {
        "gen_gru_b8": (GRU(208, 256, rng), 8),
        "disc_gru_b8": (GRU(60, 128, rng), 8),
        "disc_gru_b16": (GRU(60, 128, rng), 16),
        "conv1_b8": (Conv1d(75, 128, 7, rng), 8),
    }
    results = {}
    for name, (layer, batch) in cases.items():
        in_dim = layer.params["w_input" if isinstance(layer, GRU) else "weight"].shape[1]
        x = rng.normal(size=(batch, FRAMES, in_dim))
        dy = rng.normal(size=layer.forward(x).shape)
        results[name] = {
            "forward": round(best_call_us(lambda: layer.forward(x), args.repeat), 2),
            # backward reads the cache of the forward above; its weight
            # gradients accumulate across calls, which costs the same
            "backward": round(best_call_us(lambda: layer.backward(dy), args.repeat), 2),
        }

    disc = Discriminator(15, rng, hidden=128)
    q = rng.normal(size=(16, FRAMES, 60))
    disc.forward(q)
    dscore_gen, dscore = rng.normal(size=8), rng.normal(size=16)

    def two_calls():
        disc.backward(np.concatenate([dscore_gen, np.zeros(8)]))
        disc.zero_grad()
        disc.backward(dscore)

    results["disc_pair_b16"] = {
        "forward": round(best_call_us(lambda: disc.forward(q), args.repeat), 2),
        "backward": round(best_call_us(
            lambda: disc.backward_shared(dscore_gen, dscore), args.repeat), 2),
        "backward_two_calls": round(best_call_us(two_calls, args.repeat), 2),
    }

    convs = [Conv1d(5, 16, 7, rng) for _ in range(15)]
    bank = GroupedConv1d(convs)
    x = rng.normal(size=(8, FRAMES, 75))
    dy = rng.normal(size=bank.forward(x).shape)
    slices = [x[:, :, 5 * j:5 * j + 5] for j in range(15)]

    def per_joint_forward():
        for conv, xj in zip(convs, slices):
            conv.forward(xj)

    def per_joint_backward():
        for conv, dyj in zip(convs, dy):
            conv.backward(dyj)

    per_joint_forward()
    results["gen_local_convs_b8"] = {
        "forward": round(best_call_us(lambda: bank.forward(x), args.repeat), 2),
        "backward": round(best_call_us(lambda: bank.backward(dy, False), args.repeat), 2),
        "forward_per_joint": round(best_call_us(per_joint_forward, args.repeat), 2),
        "backward_per_joint": round(best_call_us(per_joint_backward, args.repeat), 2),
    }
    print(json.dumps({"unit": "us", "blas_threads": 1, "repeat": args.repeat,
                      "frames": FRAMES, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
