"""Training losses for the motion prior, with closed-form gradients.

All losses accept batched sequences shaped (batch, time, 4 * n_joints) and
reduce with the batch mean, so gradient magnitudes do not scale with batch
size. `loss_sv` compares against the sparse-view reference and adds a soft
unit-norm penalty on every per-joint quaternion block.
"""

import numpy as np

from ..errors import InvalidInputError

QUAT_NORM_WEIGHT = 1e-5


def _as_batch(a):
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        a = a[None, :, :]
    if a.ndim != 3 or a.shape[2] % 4 != 0:
        raise InvalidInputError("expected (batch, time, 4 * n_joints) quaternion channels")
    return a


def loss_sv(pred, ref):
    value, _ = loss_sv_grad(pred, ref)
    return value


def loss_sv_grad(pred, ref):
    """Mean per-sequence data term plus unit-norm penalty, and d/dpred."""
    pred = _as_batch(pred)
    ref = _as_batch(ref)
    if pred.shape != ref.shape:
        raise InvalidInputError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    b = pred.shape[0]
    diff = pred - ref
    data = float(np.sum(diff * diff))
    blocks = pred.reshape(b, pred.shape[1], -1, 4)
    norms = np.linalg.norm(blocks, axis=3)
    dev = norms - 1.0
    value = (data + QUAT_NORM_WEIGHT * float(np.sum(dev * dev))) / b

    grad = 2.0 * diff
    safe = np.where(norms > 1e-12, norms, 1.0)
    scale = 2.0 * QUAT_NORM_WEIGHT * dev / safe
    scale[norms <= 1e-12] = 0.0
    grad += (scale[:, :, :, None] * blocks).reshape(pred.shape)
    return value, grad / b


def loss_adv(d_fake):
    value, _ = loss_adv_grad(d_fake)
    return value


def loss_adv_grad(d_fake):
    """Generator's realism objective: push discriminator scores toward 1."""
    d_fake = np.asarray(d_fake, dtype=float).ravel()
    dev = d_fake - 1.0
    return float(np.mean(dev * dev)), 2.0 * dev / d_fake.size


def loss_disc(d_real, d_fake):
    value, _, _ = loss_disc_grad(d_real, d_fake)
    return value


def loss_disc_grad(d_real, d_fake):
    """Discriminator objective: real scores toward 1, fake toward 0."""
    d_real = np.asarray(d_real, dtype=float).ravel()
    d_fake = np.asarray(d_fake, dtype=float).ravel()
    dev = d_real - 1.0
    value = float(np.mean(dev * dev)) + float(np.mean(d_fake * d_fake))
    return value, 2.0 * dev / d_real.size, 2.0 * d_fake / d_fake.size
