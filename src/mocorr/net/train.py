"""Deterministic alternating training for the motion prior.

Each batch takes one generator step on L_sv + L_adv and, when adversarial
training is enabled, one discriminator step on L_D against random windows
drawn from the unpaired reference motions. One discriminator pass scores the
generated and the reference windows together, and both steps take their
values and gradients from those scores, through one shared discriminator
backward. The generator's backward skips the gradient with respect to its
data input, which nothing uses. All sequences are pre-cut to a shared
window length so batches stack without padding.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, NumericFailureError, SequenceTooShortError
from .losses import loss_adv_grad, loss_disc_grad, loss_sv_grad
from .model import Discriminator, Generator, motion_channels

# Adam: the two learning rates, the factor they fall by from the decay
# boundary on, and the moment decay rates and denominator offset
LR_GEN = 1e-3
LR_DISC = 1e-2
DECAY = 0.1
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 200
    batch: int = 32
    decay_epoch: int | None = None
    seed: int = 0
    window: int = 64
    stride: int = 8
    adversarial: bool = True
    conv_width: int = 128
    local_width: int = 16
    hidden: int = 256
    disc_hidden: int = 128
    kernel: int = 7
    dropout: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError("epochs must be at least 1")
        if self.batch < 1 or self.window < 1 or self.stride < 1:
            raise InvalidInputError("batch, window and stride must be positive")
        for name in ("conv_width", "local_width", "hidden", "disc_hidden"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be at least 1")
        if self.kernel < 1 or self.kernel % 2 != 1:
            raise InvalidInputError("kernel width must be odd and at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidInputError("dropout rate must lie in [0, 1)")
        if self.decay_epoch is not None and self.decay_epoch < 1:
            raise InvalidInputError("decay_epoch must be at least 1")

    def decay_boundary(self):
        """First epoch (1-based) that runs at the decayed learning rate."""
        if self.decay_epoch is not None:
            return self.decay_epoch
        return max(1, self.epochs - 100 + 1)


class Adam:
    """Adam over the parameters of `layers`, updated in place.

    Each step walks every array in chunks of `CHUNK` elements, updating each
    chunk with `out=` ufuncs into two scratch buffers, so it allocates
    nothing per step and the chunk's operands stay in cache across the
    ufunc passes. Every element goes through the textbook expression in
    its usual order, lr * (m1 / c1) / (sqrt(m2 / c2) + eps).
    """

    CHUNK = 16384

    def __init__(self, layers, lr, beta1, beta2, eps):
        self.layers = layers
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moment1 = [{k: np.zeros_like(v) for k, v in layer.params.items()}
                        for _, layer in layers]
        self.moment2 = [{k: np.zeros_like(v) for k, v in layer.params.items()}
                        for _, layer in layers]
        self._scratch = (np.empty(self.CHUNK), np.empty(self.CHUNK))

    def step(self, lr_scale=1.0):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        lr = self.lr * lr_scale
        for (_, layer), m1, m2 in zip(self.layers, self.moment1, self.moment2):
            for k, p in layer.params.items():
                # parameters, gradients and moments are all created
                # contiguous, so these reshapes are views
                flat = [a.reshape(-1) for a in (p, layer.grads[k], m1[k], m2[k])]
                for lo in range(0, p.size, self.CHUNK):
                    p_c, g, m1_c, m2_c = (a[lo:lo + self.CHUNK] for a in flat)
                    s1, s2 = (a[:g.size] for a in self._scratch)
                    m1_c *= b1
                    m1_c += np.multiply(g, 1.0 - b1, out=s1)
                    m2_c *= b2
                    np.multiply(g, 1.0 - b2, out=s1)
                    m2_c += np.multiply(s1, g, out=s1)
                    np.divide(m1_c, correction1, out=s1)
                    s1 *= lr
                    np.divide(m2_c, correction2, out=s2)
                    np.sqrt(s2, out=s2)
                    s2 += self.eps
                    p_c -= np.divide(s1, s2, out=s1)


def _cut(seq, length, stride):
    """Windows of `length` frames every `stride` frames, the last one flush
    with the end; `length` is at most the sequence's length."""
    t = seq.shape[0]
    starts = list(range(0, t - length + 1, stride))
    if starts[-1] != t - length:
        starts.append(t - length)
    return [seq[s:s + length] for s in starts]


def make_windows(dataset, unpaired, cfg):
    """Cut all sequences to one shared window length.

    Returns (inputs, targets, references) where inputs are (T_w, 5N) channel
    stacks, targets and references are (T_w, 4N) quaternion rows.
    """
    if not dataset:
        raise InvalidInputError("training dataset is empty")
    lengths = [m.n_frames for m, _ in dataset]
    lengths += [m.n_frames for m in unpaired]
    w = min(cfg.window, min(lengths))
    if w < cfg.kernel:
        raise SequenceTooShortError(
            f"shortest training sequence ({w} frames) is below the "
            f"receptive width {cfg.kernel}")
    inputs, targets = [], []
    for noisy, ref in dataset:
        if noisy.n_frames != ref.n_frames or noisy.n_joints != ref.n_joints:
            raise InvalidInputError("paired motions must share shape")
        x = motion_channels(noisy)
        y = ref.quats
        for xw, yw in zip(_cut(x, w, cfg.stride), _cut(y, w, cfg.stride)):
            inputs.append(xw)
            targets.append(yw)
    references = []
    for motion in unpaired:
        references.extend(_cut(motion.quats, w, cfg.stride))
    return inputs, targets, references


def train(dataset, unpaired, skeleton, cfg):
    """Alternating optimization of generator and discriminator.

    dataset: list of (noisy MotionMap, reference MotionMap) pairs.
    unpaired: list of MotionMap whose quats feed the discriminator as reals.
    Returns (generator, discriminator, history) with per-epoch mean losses.
    """
    if cfg.adversarial and not unpaired:
        raise InvalidInputError("adversarial training needs unpaired reference motions")
    n = skeleton.n_joints
    reals = unpaired if cfg.adversarial else []
    for motion in [noisy for noisy, _ in dataset] + reals:
        if motion.n_joints != n:
            raise InvalidInputError("motion joint count does not match the skeleton")
    streams = np.random.SeedSequence(cfg.seed).spawn(5)
    rng_gen = np.random.default_rng(streams[0])
    rng_disc = np.random.default_rng(streams[1])
    rng_shuffle = np.random.default_rng(streams[2])
    rng_dropout = np.random.default_rng(streams[3])
    rng_unpaired = np.random.default_rng(streams[4])

    gen = Generator(skeleton, rng_gen, conv_width=cfg.conv_width,
                    local_width=cfg.local_width, hidden=cfg.hidden,
                    kernel=cfg.kernel, dropout=cfg.dropout)
    disc = Discriminator(n, rng_disc, hidden=cfg.disc_hidden)
    adam_gen = Adam(gen.layers(), LR_GEN, BETA1, BETA2, EPS)
    adam_disc = Adam(disc.layers(), LR_DISC, BETA1, BETA2, EPS)

    inputs, targets, references = make_windows(dataset, reals, cfg)
    boundary = cfg.decay_boundary()
    history = {"loss_sv": [], "loss_adv": [], "loss_disc": []}
    for epoch in range(1, cfg.epochs + 1):
        lr_scale = DECAY if epoch >= boundary else 1.0
        order = rng_shuffle.permutation(len(inputs))
        sums = np.zeros(3)
        count = 0
        for bi, lo in enumerate(range(0, len(order), cfg.batch)):
            idx = order[lo:lo + cfg.batch]
            xb = np.stack([inputs[i] for i in idx])
            yb = np.stack([targets[i] for i in idx])
            pred = gen.forward(xb, train=True, rng=rng_dropout)
            sv_value, dpred = loss_sv_grad(pred, yb)
            adv_value = 0.0
            disc_value = 0.0
            if cfg.adversarial:
                b = len(idx)
                pick = rng_unpaired.integers(0, len(references), size=b)
                real = np.stack([references[i] for i in pick])
                scores = disc.forward(np.concatenate([pred, real]))
                adv_value, ddfake = loss_adv_grad(scores[:b])
                disc_value, dreal, dfake = loss_disc_grad(scores[b:], scores[:b])
                disc.zero_grad()
                dpred = dpred + disc.backward_shared(ddfake, np.concatenate([dfake, dreal]))
                adam_disc.step(lr_scale)
            gen.zero_grad()
            gen.backward(dpred, input_grad=False)
            adam_gen.step(lr_scale)
            values = (sv_value, adv_value, disc_value)
            if not all(np.isfinite(v) for v in values):
                raise NumericFailureError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}")
            sums += np.asarray(values) * len(idx)
            count += len(idx)
        history["loss_sv"].append(float(sums[0] / count))
        history["loss_adv"].append(float(sums[1] / count))
        history["loss_disc"].append(float(sums[2] / count))
    return gen, disc, history
