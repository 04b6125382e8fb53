"""Motion-prior network: sequence generator plus realism discriminator.

The generator consumes per-joint channels (four quaternion components and
one confidence) and emits corrected per-joint quaternions for every frame.
A global convolutional branch looks at the whole marker layout while a
per-joint branch feeds body-region codes, and a recurrent decoder turns the
fused features into the output sequence. The discriminator scores whole
quaternion sequences with a recurrent encoder; it is only used during
adversarial training.
"""

import numpy as np

from ..errors import InvalidInputError, ParseError, SequenceTooShortError
from ..jsonio import (decode_array, encode_array, load_document, require_array,
                      require_field, require_int, save_document)
from ..numerics import sigmoid
from ..skeleton import REGIONS
from .layers import Affine, BatchNorm, Conv1d, Dropout, ELU, GRU

CHECKPOINT_FORMAT = "hybridnet/2"
# hybridnet/1 stored each layer array as a list of JSON floats; it still loads
_ARRAY_DECODERS = {CHECKPOINT_FORMAT: decode_array, "hybridnet/1": require_array}
CHANNELS_PER_JOINT = 5


class Generator:
    def __init__(self, skeleton, rng, *, conv_width=128, local_width=16,
                 hidden=256, kernel=7, dropout=0.1):
        self.n_joints = skeleton.n_joints
        self.conv_width = conv_width
        self.local_width = local_width
        self.hidden = hidden
        self.kernel = kernel
        self.dropout_rate = dropout
        self.region_joints = tuple(skeleton.region_joints(r) for r in REGIONS)
        in_ch = CHANNELS_PER_JOINT * self.n_joints

        self.conv1 = Conv1d(in_ch, conv_width, kernel, rng)
        self.bn1 = BatchNorm(conv_width)
        self.conv2 = Conv1d(conv_width, conv_width, kernel, rng)
        self.bn2 = BatchNorm(conv_width)
        self.conv3 = Conv1d(conv_width, conv_width, kernel, rng)
        self.bn3 = BatchNorm(conv_width)
        self.elu1, self.elu2, self.elu3 = ELU(), ELU(), ELU()
        self.local = [Conv1d(CHANNELS_PER_JOINT, local_width, kernel, rng)
                      for _ in range(self.n_joints)]
        fused = conv_width + local_width * len(REGIONS)
        self.gru = GRU(fused, hidden, rng)
        self.drop = Dropout(dropout)
        self.dec1 = Affine(hidden, 256, rng)
        self.dec2 = Affine(256, 128, rng)
        self.dec3 = Affine(128, 4 * self.n_joints, rng)

    def layers(self):
        """Parameterized layers in their fixed serialization order."""
        named = [("conv1", self.conv1), ("bn1", self.bn1),
                 ("conv2", self.conv2), ("bn2", self.bn2),
                 ("conv3", self.conv3), ("bn3", self.bn3)]
        named.extend((f"local{j}", self.local[j]) for j in range(self.n_joints))
        named.extend([("gru", self.gru), ("dec1", self.dec1),
                      ("dec2", self.dec2), ("dec3", self.dec3)])
        return named

    def zero_grad(self):
        for _, layer in self.layers():
            layer.zero_grad()

    def forward(self, x, train=False, rng=None):
        b, t, ch = x.shape
        if ch != CHANNELS_PER_JOINT * self.n_joints:
            raise InvalidInputError(
                f"generator expects {CHANNELS_PER_JOINT * self.n_joints} channels, got {ch}")
        if t < self.kernel:
            raise SequenceTooShortError(
                f"sequence length {t} is below the receptive width {self.kernel}")
        g = self.elu1.forward(self.bn1.forward(self.conv1.forward(x), train))
        g = self.elu2.forward(self.bn2.forward(self.conv2.forward(g), train))
        g = self.elu3.forward(self.bn3.forward(self.conv3.forward(g), train))
        local_feats = []
        for j in range(self.n_joints):
            xj = x[:, :, CHANNELS_PER_JOINT * j:CHANNELS_PER_JOINT * (j + 1)]
            local_feats.append(self.local[j].forward(xj))
        codes = [sum(local_feats[j] for j in joints) for joints in self.region_joints]
        fused = np.concatenate([g] + codes, axis=2)
        h = self.gru.forward(fused)
        h = self.drop.forward(h, train, rng)
        y = self.dec1.forward(h)
        y = self.dec2.forward(y)
        return self.dec3.forward(y)

    def backward(self, dy):
        d = self.dec3.backward(dy)
        d = self.dec2.backward(d)
        d = self.dec1.backward(d)
        d = self.drop.backward(d)
        dfused = self.gru.backward(d)
        dg = dfused[:, :, :self.conv_width]
        dx = np.zeros((dy.shape[0], dy.shape[1], CHANNELS_PER_JOINT * self.n_joints))
        for k, joints in enumerate(self.region_joints):
            lo = self.conv_width + k * self.local_width
            dcode = dfused[:, :, lo:lo + self.local_width]
            for j in joints:
                dxj = self.local[j].backward(dcode)
                dx[:, :, CHANNELS_PER_JOINT * j:CHANNELS_PER_JOINT * (j + 1)] += dxj
        d = self.conv3.backward(self.bn3.backward(self.elu3.backward(dg)))
        d = self.conv2.backward(self.bn2.backward(self.elu2.backward(d)))
        dx += self.conv1.backward(self.bn1.backward(self.elu1.backward(d)))
        return dx


class Discriminator:
    def __init__(self, n_joints, rng, *, hidden=128):
        self.n_joints = n_joints
        self.hidden = hidden
        self.gru = GRU(4 * n_joints, hidden, rng)
        self.head = Affine(hidden, 1, rng)

    def layers(self):
        return [("gru", self.gru), ("head", self.head)]

    def zero_grad(self):
        for _, layer in self.layers():
            layer.zero_grad()

    def forward(self, q):
        b, t, ch = q.shape
        if ch != 4 * self.n_joints:
            raise InvalidInputError(
                f"discriminator expects {4 * self.n_joints} channels, got {ch}")
        h = self.gru.forward(q)
        score = sigmoid(self.head.forward(h[:, -1, :])[:, 0])
        self._cache = (score, t)
        return score

    def backward(self, dscore):
        score, t = self._cache
        dlogit = (dscore * score * (1.0 - score))[:, None]
        dh_last = self.head.backward(dlogit)
        dh = np.zeros((dscore.shape[0], t, self.hidden))
        dh[:, -1, :] = dh_last
        return self.gru.backward(dh)


def motion_channels(motion):
    """Stack each joint's quaternion and confidence into network channels."""
    t, n = motion.n_frames, motion.n_joints
    x = np.empty((t, CHANNELS_PER_JOINT * n))
    for j in range(n):
        x[:, CHANNELS_PER_JOINT * j:CHANNELS_PER_JOINT * j + 4] = \
            motion.quats[:, 4 * j:4 * j + 4]
        x[:, CHANNELS_PER_JOINT * j + 4] = motion.conf[:, j]
    return x


def generator_forward(gen, motion, train=False, rng=None):
    """Run one motion map through the generator; returns (T, 4N) quats."""
    x = motion_channels(motion)[None, :, :]
    return gen.forward(x, train, rng)[0]


def discriminator_forward(disc, quats):
    """Score one (T, 4N) quaternion sequence; returns a scalar in (0, 1)."""
    quats = np.asarray(quats, dtype=float)
    if quats.ndim != 2:
        raise InvalidInputError("expected a single (T, 4N) sequence")
    return float(disc.forward(quats[None, :, :])[0])


def _layer_state(layer, path):
    arrays = {**layer.params, **layer.buffers}
    return {name: encode_array(arrays[name].ravel(), path) for name in sorted(arrays)}


def _load_layer_state(layer, state, context, decode):
    if not isinstance(state, dict):
        raise ParseError(f"{context}: layer state must be an object")
    for name in sorted(layer.params):
        flat = decode(state, context, name, (layer.params[name].size,))
        layer.params[name][...] = flat.reshape(layer.params[name].shape)
    for name in sorted(layer.buffers):
        flat = decode(state, context, name, (layer.buffers[name].size,))
        layer.buffers[name][...] = flat.reshape(layer.buffers[name].shape)


def save_checkpoint(path, gen, disc):
    """Write a hybridnet/2 checkpoint: each layer array is base64 "<f8" text.
    A non-finite parameter raises NumericFailureError before the file opens."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "n_joints": gen.n_joints,
        "conv_width": gen.conv_width,
        "local_width": gen.local_width,
        "hidden": gen.hidden,
        "kernel": gen.kernel,
        "dropout": gen.dropout_rate,
        "disc_hidden": disc.hidden,
        "generator": {name: _layer_state(layer, path) for name, layer in gen.layers()},
        "discriminator": {name: _layer_state(layer, path) for name, layer in disc.layers()},
    }
    save_document(path, doc)


def load_checkpoint(path, skeleton):
    """Read a hybridnet/2 or hybridnet/1 checkpoint."""
    doc = load_document(path, tuple(_ARRAY_DECODERS))
    decode = _ARRAY_DECODERS[doc["format"]]
    n_joints = require_int(doc, path, "n_joints")
    if n_joints != skeleton.n_joints:
        raise ParseError(
            f"checkpoint stores {n_joints} joints but the skeleton has {skeleton.n_joints}")
    rng = np.random.default_rng(0)
    gen = Generator(
        skeleton, rng,
        conv_width=require_int(doc, path, "conv_width"),
        local_width=require_int(doc, path, "local_width"),
        hidden=require_int(doc, path, "hidden"),
        kernel=require_int(doc, path, "kernel"),
        dropout=float(require_field(doc, path, "dropout")),
    )
    disc = Discriminator(n_joints, rng, hidden=require_int(doc, path, "disc_hidden"))
    gen_state = require_field(doc, path, "generator")
    disc_state = require_field(doc, path, "discriminator")
    if not isinstance(gen_state, dict) or not isinstance(disc_state, dict):
        raise ParseError(f"{path}: generator/discriminator must be objects")
    for name, layer in gen.layers():
        if name not in gen_state:
            raise ParseError(f"checkpoint is missing generator layer {name!r}")
        _load_layer_state(layer, gen_state[name], f"generator.{name}", decode)
    for name, layer in disc.layers():
        if name not in disc_state:
            raise ParseError(f"checkpoint is missing discriminator layer {name!r}")
        _load_layer_state(layer, disc_state[name], f"discriminator.{name}", decode)
    return gen, disc
