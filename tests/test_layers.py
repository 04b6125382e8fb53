"""Network layers: value oracles and finite-difference gradient checks."""

import numpy as np
import pytest

from conftest import make_toy_skeleton, stack_poses
from mocorr.errors import InvalidInputError, SequenceTooShortError
from mocorr.net.layers import (
    Affine,
    BatchNorm,
    Conv1d,
    Dropout,
    ELU,
    GRU,
    _uniform_init,
)
from mocorr.net.model import (
    CHANNELS_PER_JOINT,
    Discriminator,
    Generator,
    discriminator_forward,
    generator_forward,
    motion_channels,
)
from mocorr.motion import build_motion_map
from mocorr.numerics import sigmoid
from mocorr.skeleton import SkeletalPose
from oracles import GRUStepwise, grad_check, sigmoid_masked


def param_names(layer):
    return sorted(layer.params)


def loss_value(layer, x, w, train=False, rng_seed=None):
    """L = sum(w * forward(x)) with buffers restored afterwards."""
    saved = {k: v.copy() for k, v in layer.buffers.items()}
    kwargs = {"rng": np.random.default_rng(rng_seed)} if rng_seed is not None else {}
    y = layer.forward(x, train=train, **kwargs)
    for k, v in saved.items():
        layer.buffers[k][...] = v
    return float(np.sum(w * y))


def analytic_grads(layer, x, w, train=False, rng_seed=None):
    """Run forward/backward once; returns (param grad vector, input grad)."""
    layer.zero_grad()
    saved = {k: v.copy() for k, v in layer.buffers.items()}
    kwargs = {"rng": np.random.default_rng(rng_seed)} if rng_seed is not None else {}
    layer.forward(x, train=train, **kwargs)
    dx = layer.backward(w)
    for k, v in saved.items():
        layer.buffers[k][...] = v
    pieces = [layer.grads[n].ravel() for n in param_names(layer)]
    gvec = np.concatenate(pieces) if pieces else np.zeros(0)
    return gvec, dx


def fd_param_grads(layer, x, w, train=False, rng_seed=None, step=1e-6):
    out = []
    for name in param_names(layer):
        flat = layer.params[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            h = step * max(1.0, abs(orig))
            flat[i] = orig + h
            lp = loss_value(layer, x, w, train, rng_seed)
            flat[i] = orig - h
            lm = loss_value(layer, x, w, train, rng_seed)
            flat[i] = orig
            out.append((lp - lm) / (2.0 * h))
    return np.array(out)


def fd_input_grad(layer, x, w, train=False, rng_seed=None, step=1e-6):
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = step * max(1.0, abs(orig))
        flat_x[i] = orig + h
        lp = loss_value(layer, x, w, train, rng_seed)
        flat_x[i] = orig - h
        lm = loss_value(layer, x, w, train, rng_seed)
        flat_x[i] = orig
        flat_g[i] = (lp - lm) / (2.0 * h)
    return grad


def check_layer_grads(layer, x, w, train=False, rng_seed=None, tol=1e-5):
    gvec, dx = analytic_grads(layer, x, w, train, rng_seed)
    if gvec.size:
        assert grad_check(gvec, fd_param_grads(layer, x, w, train, rng_seed)) < tol
    assert grad_check(dx, fd_input_grad(layer, x, w, train, rng_seed)) < tol


def conv_reference(weight, bias, x):
    b, t, _ = x.shape
    out_ch, in_ch, kernel = weight.shape
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    y = np.zeros((b, t, out_ch))
    for bb in range(b):
        for tt in range(t):
            for o in range(out_ch):
                acc = bias[o]
                for k in range(kernel):
                    acc += weight[o, :, k] @ xp[bb, tt + k, :]
                y[bb, tt, o] = acc
    return y


def gru_reference(params, x):
    wi, bi = params["w_input"], params["b_input"]
    wh, bh = params["w_hidden"], params["b_hidden"]
    hs = wh.shape[1]
    b, t, _ = x.shape
    h = np.zeros((b, hs))
    out = np.zeros((b, t, hs))
    for k in range(t):
        gi = x[:, k] @ wi.T + bi
        gh = h @ wh.T + bh
        r = 1.0 / (1.0 + np.exp(-(gi[:, :hs] + gh[:, :hs])))
        z = 1.0 / (1.0 + np.exp(-(gi[:, hs:2 * hs] + gh[:, hs:2 * hs])))
        n = np.tanh(gi[:, 2 * hs:] + r * gh[:, 2 * hs:])
        h = (1.0 - z) * n + z * h
        out[:, k] = h
    return out


def test_uniform_init_bound():
    rng = np.random.default_rng(0)
    vals = _uniform_init(rng, (2000,), 16)
    assert np.all(np.abs(vals) <= 0.25)
    assert np.abs(vals).max() > 0.2
    conv = Conv1d(4, 3, 5, np.random.default_rng(1))
    bound = 1.0 / np.sqrt(4 * 5)
    assert np.all(np.abs(conv.params["weight"]) <= bound)
    assert np.all(np.abs(conv.params["bias"]) <= bound)


def test_sigmoid_stability():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    with np.errstate(over="raise", invalid="raise"):
        y = sigmoid(x)
    assert y[2] == 0.5
    assert np.all(np.diff(y) >= 0.0)
    assert np.allclose(y + sigmoid(-x), 1.0, atol=1e-15)
    assert 0.0 <= y[0] < 1e-12 and 1.0 - 1e-12 < y[4] <= 1.0


def test_sigmoid_matches_masked_oracle_bitwise():
    rng = np.random.default_rng(30)
    edges = [0.0, -0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
    x = np.concatenate([rng.normal(scale=8.0, size=100_000), edges])
    # compare the bits, so that NaN payloads and signed zeros count too
    assert np.array_equal(sigmoid(x).view(np.int64), sigmoid_masked(x).view(np.int64))
    block = rng.normal(size=(8, 512))
    assert np.array_equal(sigmoid(block), sigmoid_masked(block))


def test_conv1d_value_matches_direct_convolution():
    rng = np.random.default_rng(2)
    conv = Conv1d(3, 4, 5, rng)
    x = rng.normal(size=(2, 7, 3))
    y = conv.forward(x)
    ref = conv_reference(conv.params["weight"], conv.params["bias"], x)
    assert y.shape == (2, 7, 4)
    assert np.allclose(y, ref, rtol=1e-12, atol=1e-14)


def test_conv1d_rejects_even_kernel():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        Conv1d(3, 4, 2, rng)
    with pytest.raises(InvalidInputError):
        Conv1d(3, 4, 4, rng)


def test_conv1d_gradients():
    rng = np.random.default_rng(3)
    conv = Conv1d(3, 4, 3, rng)
    x = rng.normal(size=(2, 6, 3))
    w = rng.normal(size=(2, 6, 4))
    check_layer_grads(conv, x, w, tol=1e-6)


def test_batchnorm_train_values_and_running_stats():
    rng = np.random.default_rng(4)
    bn = BatchNorm(3, momentum=0.1)
    bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
    bn.params["beta"][...] = rng.normal(size=3)
    rm0 = bn.buffers["running_mean"].copy()
    rv0 = bn.buffers["running_var"].copy()
    x = rng.normal(1.0, 2.0, size=(2, 4, 3))
    y = bn.forward(x, train=True)

    n = 8
    mean = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    xhat = (x - mean) / np.sqrt(var + bn.eps)
    assert np.allclose(y, xhat * bn.params["gamma"] + bn.params["beta"],
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(bn.buffers["running_mean"], 0.9 * rm0 + 0.1 * mean,
                       rtol=1e-12)
    assert np.allclose(bn.buffers["running_var"],
                       0.9 * rv0 + 0.1 * var * n / (n - 1), rtol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(5)
    bn = BatchNorm(3)
    bn.buffers["running_mean"][...] = rng.normal(size=3)
    bn.buffers["running_var"][...] = rng.uniform(0.5, 2.0, 3)
    bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
    bn.params["beta"][...] = rng.normal(size=3)
    x = rng.normal(size=(2, 4, 3))
    y = bn.forward(x, train=False)
    ref = (x - bn.buffers["running_mean"]) / \
        np.sqrt(bn.buffers["running_var"] + bn.eps)
    assert np.allclose(y, ref * bn.params["gamma"] + bn.params["beta"],
                       rtol=1e-12, atol=1e-14)


def test_batchnorm_gradients_train_and_eval():
    rng = np.random.default_rng(6)
    bn = BatchNorm(3)
    bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
    bn.params["beta"][...] = rng.normal(size=3)
    x = rng.normal(size=(2, 4, 3))
    w = rng.normal(size=(2, 4, 3))
    check_layer_grads(bn, x, w, train=True, tol=1e-5)
    bn.buffers["running_mean"][...] = rng.normal(size=3)
    bn.buffers["running_var"][...] = rng.uniform(0.5, 2.0, 3)
    check_layer_grads(bn, x, w, train=False, tol=1e-6)


def test_elu_value_and_gradient():
    rng = np.random.default_rng(7)
    elu = ELU()
    x = rng.normal(size=(2, 5, 3))
    x[np.abs(x) < 0.05] += 0.1  # keep away from the kink
    y = elu.forward(x)
    assert np.allclose(y, np.where(x > 0, x, np.exp(x) - 1.0),
                       rtol=1e-12, atol=1e-15)
    w = rng.normal(size=x.shape)
    check_layer_grads(elu, x, w, tol=1e-6)


def test_dropout_validation_and_identity_paths():
    with pytest.raises(InvalidInputError):
        Dropout(1.0)
    with pytest.raises(InvalidInputError):
        Dropout(-0.01)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4, 3))
    drop = Dropout(0.4)
    assert np.array_equal(drop.forward(x, train=False), x)
    dy = rng.normal(size=x.shape)
    assert np.array_equal(drop.backward(dy), dy)
    zero = Dropout(0.0)
    assert np.array_equal(
        zero.forward(x, train=True, rng=np.random.default_rng(0)), x)
    with pytest.raises(InvalidInputError):
        drop.forward(x, train=True)  # no generator supplied


def test_dropout_mask_scale_and_backward():
    rng = np.random.default_rng(9)
    rate = 0.25
    drop = Dropout(rate)
    x = rng.uniform(1.0, 2.0, size=(3, 5, 4))
    y = drop.forward(x, train=True, rng=np.random.default_rng(10))
    mask = y / x
    keep = 1.0 / (1.0 - rate)
    assert np.all((np.abs(mask) < 1e-12) | (np.abs(mask - keep) < 1e-12))
    zeros = int(np.sum(np.abs(mask) < 1e-12))
    assert 1 <= zeros <= 40  # 60 draws at rate 0.25
    dy = rng.normal(size=x.shape)
    assert np.allclose(drop.backward(dy), dy * mask, rtol=1e-12, atol=1e-15)


def test_affine_value_and_gradients():
    rng = np.random.default_rng(11)
    aff = Affine(3, 4, rng)
    x = rng.normal(size=(2, 5, 3))
    y = aff.forward(x)
    assert np.allclose(y, x @ aff.params["weight"].T + aff.params["bias"],
                       rtol=1e-12, atol=1e-14)
    w = rng.normal(size=(2, 5, 4))
    check_layer_grads(aff, x, w, tol=1e-6)


def test_gru_value_matches_stepwise_reference():
    rng = np.random.default_rng(12)
    gru = GRU(3, 5, rng)
    x = rng.normal(size=(2, 4, 3))
    y = gru.forward(x)
    assert y.shape == (2, 4, 5)
    assert np.allclose(y, gru_reference(gru.params, x), rtol=1e-12, atol=1e-14)


def test_gru_gradients_full_bptt():
    rng = np.random.default_rng(13)
    gru = GRU(3, 5, rng)
    x = rng.normal(size=(2, 4, 3))
    w = rng.normal(size=(2, 4, 5))
    check_layer_grads(gru, x, w, tol=1e-5)


# (in_dim, hidden) of the generator's and the discriminator's GRU at the
# default widths on the 15-joint skeleton
MODEL_GRU_SHAPES = [(128 + 16 * 5, 256), (4 * 15, 128)]


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("batch", [8, 1])
@pytest.mark.parametrize("in_dim,hidden", MODEL_GRU_SHAPES)
def test_gru_matches_stepwise_oracle(in_dim, hidden, batch):
    # the hoisted input projection does the per-step arithmetic in one
    # matmul, so the output is bit for bit the same; numpy hands a one-row
    # product to gemv and a taller one to gemm, which round differently, so
    # a batch of one agrees only to rounding. The weight gradients are summed
    # over all steps at once, which only reorders the sum.
    gru = GRU(in_dim, hidden, np.random.default_rng(31))
    oracle = GRUStepwise(in_dim, hidden, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    x = rng.normal(size=(batch, 24, in_dim))
    dout = rng.normal(size=(batch, 24, hidden))
    y, y_ref = gru.forward(x), oracle.forward(x)
    if batch > 1:
        assert np.array_equal(y, y_ref)
    assert rel_err(y, y_ref) <= 1e-12
    assert rel_err(gru.backward(dout), oracle.backward(dout)) <= 1e-12
    for name in gru.grads:
        assert rel_err(gru.grads[name], oracle.grads[name]) <= 1e-12


def small_generator(dropout=0.0, kernel=3, seed=20):
    skeleton = make_toy_skeleton()
    gen = Generator(skeleton, np.random.default_rng(seed), conv_width=8,
                    local_width=4, hidden=6, kernel=kernel, dropout=dropout)
    return skeleton, gen


def toy_motion(skeleton, t, seed):
    rng = np.random.default_rng(seed)
    poses = []
    lo, hi = skeleton.theta_min, skeleton.theta_max
    for _ in range(t):
        theta = lo + (hi - lo) * rng.uniform(0.1, 0.9, skeleton.total_dof)
        poses.append(SkeletalPose(theta, rng.uniform(-0.4, 0.4, 3),
                                  rng.uniform(-0.2, 0.2, 3)))
    return build_motion_map(stack_poses(poses), skeleton,
                            rng.uniform(0.5, 1.0, (t, skeleton.n_joints)))


def test_motion_channels_packing():
    skeleton = make_toy_skeleton()
    motion = toy_motion(skeleton, 4, seed=14)
    x = motion_channels(motion)
    assert x.shape == (4, CHANNELS_PER_JOINT * skeleton.n_joints)
    for j in range(skeleton.n_joints):
        assert np.array_equal(x[:, 5 * j:5 * j + 4], motion.quats[:, 4 * j:4 * j + 4])
        assert np.array_equal(x[:, 5 * j + 4], motion.conf[:, j])


def test_generator_output_shape_and_determinism():
    skeleton, gen = small_generator()
    motion = toy_motion(skeleton, 10, seed=15)
    y1 = generator_forward(gen, motion)
    y2 = generator_forward(gen, motion)
    assert y1.shape == (10, 4 * skeleton.n_joints)
    assert np.array_equal(y1, y2)


def test_generator_zero_params_emit_decoder_bias():
    skeleton, gen = small_generator()
    for _, layer in gen.layers():
        for p in layer.params.values():
            p[...] = 0.0
    bias = np.random.default_rng(16).normal(size=4 * skeleton.n_joints)
    gen.dec3.params["bias"][...] = bias
    motion = toy_motion(skeleton, 9, seed=17)
    y = generator_forward(gen, motion)
    assert np.array_equal(y, np.tile(bias, (9, 1)))


def test_generator_input_validation():
    skeleton, gen = small_generator(kernel=3)
    with pytest.raises(SequenceTooShortError):
        gen.forward(np.zeros((1, 2, 25)))
    with pytest.raises(InvalidInputError):
        gen.forward(np.zeros((1, 10, 24)))


def test_generator_end_to_end_gradients():
    skeleton, gen = small_generator()
    motion = toy_motion(skeleton, 12, seed=18)
    x = motion_channels(motion)[None, :, :]
    rng = np.random.default_rng(19)
    w = rng.normal(size=(1, 12, 4 * skeleton.n_joints))

    def loss():
        return float(np.sum(w * gen.forward(x)))

    gen.zero_grad()
    gen.forward(x)
    dx = gen.backward(w)

    # Input gradient, every coordinate.
    fd_dx = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), fd_dx.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = 1e-6 * max(1.0, abs(orig))
        flat_x[i] = orig + h
        lp = loss()
        flat_x[i] = orig - h
        lm = loss()
        flat_x[i] = orig
        flat_g[i] = (lp - lm) / (2.0 * h)
    assert grad_check(dx, fd_dx) < 1e-5

    # Parameter gradients, sampled coordinates across every layer.
    slots = [(layer.params[n], layer.grads[n])
             for _, layer in gen.layers() for n in sorted(layer.params)]
    sizes = np.array([p.size for p, _ in slots])
    bounds = np.cumsum(sizes)
    picks = rng.choice(int(bounds[-1]), size=64, replace=False)
    analytic, numeric = [], []
    for gidx in picks:
        s = int(np.searchsorted(bounds, gidx, side="right"))
        local = int(gidx - (bounds[s - 1] if s else 0))
        p, g = slots[s]
        flat = p.ravel()
        orig = flat[local]
        h = 1e-6 * max(1.0, abs(orig))
        flat[local] = orig + h
        lp = loss()
        flat[local] = orig - h
        lm = loss()
        flat[local] = orig
        analytic.append(g.ravel()[local])
        numeric.append((lp - lm) / (2.0 * h))
    assert grad_check(np.array(analytic), np.array(numeric)) < 1e-4


def test_discriminator_zero_params_score_half():
    disc = Discriminator(2, np.random.default_rng(21), hidden=6)
    for _, layer in disc.layers():
        for p in layer.params.values():
            p[...] = 0.0
    q = np.random.default_rng(22).normal(size=(9, 8))
    assert discriminator_forward(disc, q) == 0.5


def test_discriminator_scores_stay_in_unit_interval():
    rng = np.random.default_rng(23)
    disc = Discriminator(2, rng, hidden=6)
    for _ in range(100):
        t = int(rng.integers(2, 30))
        q = rng.normal(scale=3.0, size=(t, 8))
        s = discriminator_forward(disc, q)
        assert 0.0 < s < 1.0


def test_discriminator_sensitive_to_frame_order():
    rng = np.random.default_rng(24)
    disc = Discriminator(2, rng, hidden=6)
    q = rng.normal(size=(16, 8))
    perm = np.random.default_rng(25).permutation(16)
    assert not np.array_equal(perm, np.arange(16))
    s1 = discriminator_forward(disc, q)
    s2 = discriminator_forward(disc, q[perm])
    assert abs(s1 - s2) > 1e-6


def test_discriminator_input_validation():
    disc = Discriminator(2, np.random.default_rng(26), hidden=6)
    with pytest.raises(InvalidInputError):
        discriminator_forward(disc, np.zeros((2, 3, 8)))
    with pytest.raises(InvalidInputError):
        disc.forward(np.zeros((1, 5, 9)))


def test_discriminator_gradients():
    rng = np.random.default_rng(27)
    disc = Discriminator(2, rng, hidden=6)
    x = rng.normal(size=(2, 5, 8))
    w = rng.normal(size=2)

    def loss():
        return float(np.sum(w * disc.forward(x)))

    disc.zero_grad()
    disc.forward(x)
    dx = disc.backward(w)

    fd_dx = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), fd_dx.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        h = 1e-6 * max(1.0, abs(orig))
        flat_x[i] = orig + h
        lp = loss()
        flat_x[i] = orig - h
        lm = loss()
        flat_x[i] = orig
        flat_g[i] = (lp - lm) / (2.0 * h)
    assert grad_check(dx, fd_dx) < 1e-5

    analytic, numeric = [], []
    for _, layer in disc.layers():
        for name in sorted(layer.params):
            flat = layer.params[name].ravel()
            gflat = layer.grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                h = 1e-6 * max(1.0, abs(orig))
                flat[i] = orig + h
                lp = loss()
                flat[i] = orig - h
                lm = loss()
                flat[i] = orig
                analytic.append(gflat[i])
                numeric.append((lp - lm) / (2.0 * h))
    assert grad_check(np.array(analytic), np.array(numeric)) < 1e-5
