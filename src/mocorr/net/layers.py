"""Network building blocks with hand-written backward passes.

Every layer keeps its parameters and matching gradient buffers in plain
dicts, caches whatever its backward pass needs during forward, and returns
the gradient with respect to its input from backward. Inputs are batched
time series shaped (batch, time, channels).
"""

import numpy as np

from ..errors import InvalidInputError
from ..numerics import sigmoid

# BatchNorm: the running statistics' update rate, and the offset added to the
# variance under the square root
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class Layer:
    def __init__(self):
        self.params = {}
        self.grads = {}
        self.buffers = {}
        self._cache = None

    def _register(self, name, value):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def zero_grad(self):
        for g in self.grads.values():
            g[...] = 0.0


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class Conv1d(Layer):
    """Temporal convolution with zero padding that preserves sequence length."""

    def __init__(self, in_ch, out_ch, kernel, rng):
        super().__init__()
        if kernel % 2 != 1:
            raise InvalidInputError("kernel width must be odd")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel
        self._register("weight", _uniform_init(rng, (out_ch, in_ch, kernel), in_ch * kernel))
        self._register("bias", _uniform_init(rng, (out_ch,), in_ch * kernel))

    def forward(self, x, train=False):
        b, t, _ = x.shape
        pad = self.kernel // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        # patches[b, t, k, c] = xp[b, t + k, c]
        patches = np.stack([xp[:, k:k + t, :] for k in range(self.kernel)], axis=2)
        flat = patches.reshape(b, t, self.kernel * self.in_ch)
        w = self.params["weight"].transpose(0, 2, 1).reshape(self.out_ch, -1)
        self._cache = (flat, (b, t))
        return flat @ w.T + self.params["bias"]

    def backward(self, dy, input_grad=True):
        """Accumulates the parameter gradients; returns dL/dx, or None when
        `input_grad` is false."""
        flat, (b, t) = self._cache
        w = self.params["weight"].transpose(0, 2, 1).reshape(self.out_ch, -1)
        dy2 = dy.reshape(-1, self.out_ch)
        dw = dy2.T @ flat.reshape(-1, self.kernel * self.in_ch)
        self.grads["weight"] += dw.reshape(self.out_ch, self.kernel, self.in_ch).transpose(0, 2, 1)
        self.grads["bias"] += dy2.sum(axis=0)
        if not input_grad:
            return None
        dflat = (dy2 @ w).reshape(b, t, self.kernel, self.in_ch)
        pad = self.kernel // 2
        dxp = np.zeros((b, t + 2 * pad, self.in_ch))
        for k in range(self.kernel):
            dxp[:, k:k + t, :] += dflat[:, :, k, :]
        return dxp[:, pad:pad + t, :]


class GroupedConv1d:
    """A bank of same-shape Conv1d layers, the g-th reading input channels
    [g * in_ch, (g + 1) * in_ch), run as batched matmuls.

    The Conv1d layers hold the parameters and gradient buffers; their
    weights are stacked afresh on every call. Forward builds one patch stack
    for all groups and returns (groups, batch, time, out_ch). Every GEMM has
    the operand shapes of the matching Conv1d call (one per group and batch
    row in forward, one per group for the weight gradient), so outputs and
    gradients equal the per-layer calls bit for bit.
    """

    def __init__(self, convs):
        self.convs = convs
        self.in_ch = convs[0].in_ch
        self.out_ch = convs[0].out_ch
        self.kernel = convs[0].kernel
        self._cache = None

    def _weights(self):
        """(groups, out_ch, kernel * in_ch), Conv1d's flattened layout."""
        w = np.stack([conv.params["weight"] for conv in self.convs])
        return w.transpose(0, 1, 3, 2).reshape(len(self.convs), self.out_ch, -1)

    def forward(self, x):
        b, t, _ = x.shape
        g, k, c = len(self.convs), self.kernel, self.in_ch
        pad = k // 2
        # group-major and zero-padded, so that each patch row below is one
        # contiguous run of k * c values
        xp = np.zeros((g, b, t + 2 * pad, c))
        xp[:, :, pad:pad + t] = x.reshape(b, t, g, c).transpose(2, 0, 1, 3)
        # patches[g, b, t, k, c] = xp[g, b, t + k, c]
        windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
        flat = windows.transpose(0, 1, 2, 4, 3).reshape(g, b, t, k * c)
        self._cache = flat
        y = flat @ self._weights().transpose(0, 2, 1)[:, None]
        y += np.stack([conv.params["bias"] for conv in self.convs])[:, None, None]
        return y

    def backward(self, dy, input_grad):
        """dy: (groups, batch, time, out_ch). Accumulates every layer's
        parameter gradients; returns dL/dx, or None when `input_grad` is
        false."""
        flat = self._cache
        g, b, t, kc = flat.shape
        dy2 = dy.reshape(g, b * t, self.out_ch)
        dw = dy2.transpose(0, 2, 1) @ flat.reshape(g, b * t, kc)
        dw = dw.reshape(g, self.out_ch, self.kernel, self.in_ch).transpose(0, 1, 3, 2)
        db = dy2.sum(axis=1)
        for conv, dw_g, db_g in zip(self.convs, dw, db):
            conv.grads["weight"] += dw_g
            conv.grads["bias"] += db_g
        if not input_grad:
            return None
        dflat = (dy2 @ self._weights()).reshape(g, b, t, self.kernel, self.in_ch)
        pad = self.kernel // 2
        dxp = np.zeros((g, b, t + 2 * pad, self.in_ch))
        for k in range(self.kernel):
            dxp[:, :, k:k + t] += dflat[:, :, :, k]
        return dxp[:, :, pad:pad + t].transpose(1, 2, 0, 3).reshape(b, t, g * self.in_ch)


class BatchNorm(Layer):
    """Per-channel normalization over the batch and time axes."""

    def __init__(self, ch):
        super().__init__()
        self._register("gamma", np.ones(ch))
        self._register("beta", np.zeros(ch))
        self.buffers["running_mean"] = np.zeros(ch)
        self.buffers["running_var"] = np.ones(ch)

    def forward(self, x, train=False):
        if train:
            n = x.shape[0] * x.shape[1]
            mean = x.mean(axis=(0, 1))
            var = x.var(axis=(0, 1))
            self.buffers["running_mean"] *= 1.0 - BN_MOMENTUM
            self.buffers["running_mean"] += BN_MOMENTUM * mean
            unbiased = var * n / max(n - 1, 1)
            self.buffers["running_var"] *= 1.0 - BN_MOMENTUM
            self.buffers["running_var"] += BN_MOMENTUM * unbiased
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean) * inv
        self._cache = (xhat, inv, train, x.shape[0] * x.shape[1])
        return xhat * self.params["gamma"] + self.params["beta"]

    def backward(self, dy):
        xhat, inv, train, n = self._cache
        self.grads["gamma"] += np.sum(dy * xhat, axis=(0, 1))
        self.grads["beta"] += np.sum(dy, axis=(0, 1))
        dxhat = dy * self.params["gamma"]
        if not train:
            return dxhat * inv
        # batch statistics took part in the normalization, so fold their
        # derivatives back in
        return (
            dxhat - dxhat.mean(axis=(0, 1)) - xhat * np.mean(dxhat * xhat, axis=(0, 1))
        ) * inv


class ELU(Layer):
    def forward(self, x, train=False):
        y = np.where(x > 0.0, x, np.expm1(x))
        self._cache = (x > 0.0, y)
        return y

    def backward(self, dy):
        positive, y = self._cache
        return dy * np.where(positive, 1.0, y + 1.0)


class Dropout(Layer):
    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise InvalidInputError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._cache = None
            return x
        if rng is None:
            raise InvalidInputError("training-mode dropout needs a random generator")
        mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        self._cache = mask
        return x * mask

    def backward(self, dy):
        return dy if self._cache is None else dy * self._cache


class Affine(Layer):
    def __init__(self, in_dim, out_dim, rng):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._register("weight", _uniform_init(rng, (out_dim, in_dim), in_dim))
        self._register("bias", _uniform_init(rng, (out_dim,), in_dim))

    def forward(self, x, train=False):
        self._cache = x
        return x @ self.params["weight"].T + self.params["bias"]

    def backward(self, dy):
        x = self._cache
        dy2 = dy.reshape(-1, self.out_dim)
        self.grads["weight"] += dy2.T @ x.reshape(-1, self.in_dim)
        self.grads["bias"] += dy2.sum(axis=0)
        return dy @ self.params["weight"]


class GRU(Layer):
    """Single-layer gated recurrent unit returning the full hidden sequence.

    Gate layout follows the common [reset; update; candidate] stacking:
        r = sigmoid(Wi_r x + bi_r + Wh_r h + bh_r)
        z = sigmoid(Wi_z x + bi_z + Wh_z h + bh_z)
        n = tanh(Wi_n x + bi_n + r * (Wh_n h + bh_n))
        h' = (1 - z) * n + z * h

    Only the W_h h products depend on the previous step, so everything that
    reads the input is hoisted out of the time loop: forward projects every
    frame's x through W_i in one matmul, and backward keeps the per-step
    gate gradients and forms the W_i and W_h gradients, the bias gradients
    and dx with one matmul or sum each after the loop.
    """

    def __init__(self, in_dim, hidden, rng):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        self._register("w_input", _uniform_init(rng, (3 * hidden, in_dim), hidden))
        self._register("b_input", _uniform_init(rng, (3 * hidden,), hidden))
        self._register("w_hidden", _uniform_init(rng, (3 * hidden, hidden), hidden))
        self._register("b_hidden", _uniform_init(rng, (3 * hidden,), hidden))

    def forward(self, x, train=False):
        b, t, _ = x.shape
        hs = self.hidden
        # a contiguous copy of W_h^T: numpy's gemm reads it faster than the
        # transposed view, with the same result
        wh_t = np.ascontiguousarray(self.params["w_hidden"].T)
        bh = self.params["b_hidden"]
        gi = (x.reshape(b * t, self.in_dim) @ self.params["w_input"].T
              + self.params["b_input"]).reshape(b, t, 3 * hs)
        h_prev = np.empty((b, t, hs))
        rz = np.empty((b, t, 2 * hs))
        n = np.empty((b, t, hs))
        ghn = np.empty((b, t, hs))
        out = np.empty((b, t, hs))
        h = np.zeros((b, hs))
        for k in range(t):
            gh = h @ wh_t + bh
            h_prev[:, k] = h
            rz[:, k] = sigmoid(gi[:, k, :2 * hs] + gh[:, :2 * hs])
            r, z = rz[:, k, :hs], rz[:, k, hs:]
            n[:, k] = np.tanh(gi[:, k, 2 * hs:] + r * gh[:, 2 * hs:])
            ghn[:, k] = gh[:, 2 * hs:]
            h = (1.0 - z) * n[:, k] + z * h
            out[:, k] = h
        self._cache = (x, h_prev, rz, n, ghn)
        return out

    def backward(self, dout, row_scale=None, input_rows=None):
        """Accumulates the parameter gradients and returns dL/dx.

        With `row_scale` (one factor per batch row) the parameter gradients
        are those of the upstream row_scale[i] * dout[i], while dx stays that
        of `dout`. The backward is linear in each row's upstream, so one time
        loop then serves two losses whose upstreams differ only by a factor
        per row. dx covers the first `input_rows` rows, or all of them.
        """
        x, h_prev, rz, n, ghn = self._cache
        b, t, hs = h_prev.shape
        wh = self.params["w_hidden"]
        dgi = np.empty((b, t, 3 * hs))
        dgh = np.empty((b, t, 3 * hs))
        dh = np.zeros((b, hs))
        for k in range(t - 1, -1, -1):
            r, z, nk = rz[:, k, :hs], rz[:, k, hs:], n[:, k]
            dtotal = dout[:, k, :] + dh
            dz = dtotal * (h_prev[:, k] - nk)
            dn = dtotal * (1.0 - z)
            dh = dtotal * z
            dgn = dn * (1.0 - nk * nk)
            dr = dgn * ghn[:, k]
            dgi[:, k, :hs] = dr * r * (1.0 - r)
            dgi[:, k, hs:2 * hs] = dz * z * (1.0 - z)
            dgi[:, k, 2 * hs:] = dgn
            dgh_k = np.concatenate([dgi[:, k, :2 * hs], dgn * r], axis=1)
            dgh[:, k] = dgh_k
            dh += dgh_k @ wh
        if row_scale is None:
            xs, hps = x, h_prev
            self.grads["b_input"] += dgi.reshape(b * t, 3 * hs).sum(axis=0)
            self.grads["b_hidden"] += dgh.reshape(b * t, 3 * hs).sum(axis=0)
        else:
            # scale the narrower operands, x and h_prev, not dgi and dgh
            xs = x * row_scale[:, None, None]
            hps = h_prev * row_scale[:, None, None]
            self.grads["b_input"] += row_scale @ dgi.sum(axis=1)
            self.grads["b_hidden"] += row_scale @ dgh.sum(axis=1)
        dgi = dgi.reshape(b * t, 3 * hs)
        dgh = dgh.reshape(b * t, 3 * hs)
        self.grads["w_input"] += dgi.T @ xs.reshape(b * t, self.in_dim)
        self.grads["w_hidden"] += dgh.T @ hps.reshape(b * t, hs)
        rows = b if input_rows is None else input_rows
        return (dgi[:rows * t] @ self.params["w_input"]).reshape(rows, t, self.in_dim)
