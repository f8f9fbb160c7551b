"""Layers with explicit forward/backward passes.

Conventions:
  * Every layer takes a whole mini-batch, in one input shape. Sequences
    are time-major (T, B, features), so step t of every sequence is one
    contiguous (B, features) block: Lstm, BiLstm and BatchNorm take only
    these. Conv2d takes only (B, C, H, W) images. Dense, Sigmoid and
    MaxPool2d act on trailing axes and take any leading ones. A single
    example is a batch of one; the models, not the layers, add that axis.
  * Weight products are single GEMMs over the 2-D (T·B, features) view;
    BatchNorm takes its statistics per example, over axis 0 (time), so an
    example's outputs do not depend on the rest of its batch.
  * forward(x, training=True) keeps in _cache what backward() needs; an
    inference forward keeps nothing and drops any earlier cache. backward()
    without a cache raises RuntimeError (Layer._backward_cache).
  * backward() ACCUMULATES parameter gradients, summed over the batch
    (call zero_grads between batches), and returns the gradient w.r.t.
    the layer input.

Tensor naming, which is also the checkpoint format:
  * A layer lists its trainable array attributes in PARAMS; the gradient
    buffer of parameter "w" is the attribute "dw".
  * A layer with named children in its `children` dict reports each
    child tensor as "<child>.<name>", in child order, recursively.
  * state() is params() followed by the running statistics listed in
    STATS (BatchNorm's running_mean and running_var).
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .checkpoint import restore_params


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


# The logistic function, a ufunc that neither overflows nor loses precision
# at either end.
sigmoid = expit


class Layer:
    """The one parameter container: subclasses declare PARAMS, STATS and
    children, and define forward/backward; backward reads what the last
    training forward left in _cache through _backward_cache."""

    PARAMS: tuple[str, ...] = ()
    STATS: tuple[str, ...] = ()
    children: dict[str, "Layer"] = {}  # containers assign their own in __init__
    _cache = None  # what backward needs, set only by a training forward

    def _backward_cache(self):
        """The cache of the last forward, which must have been a training one."""
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a preceding forward(x, training=True)")
        return self._cache

    def _collect(self, kind: str, attr_prefix: str = "") -> dict[str, np.ndarray]:
        """The arrays named in the class tuple `kind` (PARAMS or STATS), read
        from attribute attr_prefix + name, then each child's, prefixed."""
        out = {n: getattr(self, attr_prefix + n) for n in getattr(self, kind)}
        for prefix, child in self.children.items():
            out.update({f"{prefix}.{k}": v for k, v in child._collect(kind, attr_prefix).items()})
        return out

    def params(self) -> dict[str, np.ndarray]:
        return self._collect("PARAMS")

    def grads(self) -> dict[str, np.ndarray]:
        """Gradient buffers under the names of their parameters."""
        return self._collect("PARAMS", "d")

    def zero_grads(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0

    def state(self) -> dict[str, np.ndarray]:
        """Parameters, then running statistics: the checkpoint tensors."""
        return {**self.params(), **self._collect("STATS")}

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        restore_params(self.state(), tensors)


class Dense(Layer):
    """Affine map on the last axis: (..., in) -> (..., out).

    Every leading axis (time, batch) shares the same weights; the product
    is one GEMM over the (N, in) view of all rows.
    """

    PARAMS = ("w", "b")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.w = uniform_init(rng, (in_features, out_features), in_features)
        self.b = uniform_init(rng, (out_features,), in_features)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.w.shape[0]:
            raise ValueError(f"expected {self.w.shape[0]} input features, got {x.shape}")
        self._cache = x if training else None
        rows = x.reshape(-1, x.shape[-1]) @ self.w + self.b
        return rows.reshape(*x.shape[:-1], rows.shape[1])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._backward_cache()
        g = grad.reshape(-1, self.w.shape[1])
        self.dw += x.reshape(-1, self.w.shape[0]).T @ g
        self.db += g.sum(axis=0)
        return (g @ self.w.T).reshape(x.shape)


class Sigmoid(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = sigmoid(x)
        self._cache = y if training else None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        y = self._backward_cache()
        return grad * y * (1.0 - y)


class BatchNorm(Layer):
    """Per-feature normalization over axis 0 of (N, B, F) input.

    Training statistics are taken over the N frames of each of the B
    examples, never across the batch, and the running statistics move
    once per example, in batch order.

    eps is small enough that normalized batch variance lands within 1e-5
    of unity for any non-degenerate feature column.
    """

    PARAMS = ("gamma", "beta")
    STATS = ("running_mean", "running_var")

    def __init__(self, num_features: int, eps: float = 1e-10, momentum: float = 0.1):
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.eps = eps
        self.momentum = momentum
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        f = self.gamma.size
        if x.ndim != 3 or x.shape[2] != f:
            raise ValueError(f"expected (N, B, {f}) input, got {x.shape}")
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            for m, v in zip(mean, var):
                self.running_mean += self.momentum * (m - self.running_mean)
                self.running_var += self.momentum * (v - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std) if training else None
        return self.gamma * xhat + self.beta

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._backward_cache()
        f = self.gamma.size
        self.dgamma += (grad * xhat).reshape(-1, f).sum(axis=0)
        self.dbeta += grad.reshape(-1, f).sum(axis=0)
        dxhat = grad * self.gamma
        n = xhat.shape[0]
        # Each example's statistics depend on all its frames, hence the
        # mean corrections over axis 0.
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )


class Conv2d(Layer):
    """Same-padded stride-1 correlation: (B, C_in, H, W) -> (B, C_out, H, W).

    The whole batch is one GEMM of the weights with the (C_in·kh·kw, B·H·W)
    column matrix.
    """

    PARAMS = ("w", "b")

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, int],
                 rng: np.random.Generator):
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        self.w = uniform_init(rng, (out_channels, in_channels, kh, kw), fan_in)
        self.b = uniform_init(rng, (out_channels,), fan_in)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        c_out, c_in, kh, kw = self.w.shape
        if x.ndim != 4 or x.shape[1] != c_in:
            raise ValueError(f"expected (B, {c_in}, H, W) input, got {x.shape}")
        n, _, h, w = x.shape
        ph, pw = kh // 2, kw // 2
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))).transpose(1, 0, 2, 3)
        cols = np.empty((c_in, kh, kw, n, h, w))
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[:, :, i : i + h, j : j + w]
        flat = cols.reshape(c_in * kh * kw, n * h * w)
        out = self.w.reshape(c_out, -1) @ flat
        out += self.b[:, None]
        self._cache = (flat, x.shape) if training else None
        return out.reshape(c_out, n, h, w).transpose(1, 0, 2, 3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        flat, (n, _, h, w) = self._backward_cache()
        c_out, c_in, kh, kw = self.w.shape
        gmat = grad.transpose(1, 0, 2, 3).reshape(c_out, n * h * w)
        self.dw += (gmat @ flat.T).reshape(self.w.shape)
        self.db += gmat.sum(axis=1)
        dcols = (self.w.reshape(c_out, -1).T @ gmat).reshape(c_in, kh, kw, n, h, w)
        ph, pw = kh // 2, kw // 2
        dxp = np.zeros((c_in, n, h + 2 * ph, w + 2 * pw))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + h, j : j + w] += dcols[:, i, j]
        return dxp[:, :, ph : ph + h, pw : pw + w].transpose(1, 0, 2, 3)


class MaxPool2d(Layer):
    """Non-overlapping max pooling over the last two axes of (..., H, W);
    pool sizes must divide them.

    Each pool offset (i, j) is one strided view x[..., i::ph, j::pw]; the
    output is their running np.maximum. A tie keeps the earlier offset in
    row-major order, so the gradient goes where argmax over the window
    would send it.
    """

    def __init__(self, pool: tuple[int, int]):
        self.pool = pool

    def _offsets(self) -> list[tuple[slice, slice]]:
        ph, pw = self.pool
        return [(slice(i, None, ph), slice(j, None, pw)) for i in range(ph) for j in range(pw)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ph, pw = self.pool
        if x.shape[-2] % ph or x.shape[-1] % pw:
            raise ValueError(f"pool {self.pool} does not divide input {x.shape}")
        first, *rest = (x[(..., *k)] for k in self._offsets())
        out = first.copy()
        winner = np.zeros(out.shape, dtype=np.min_scalar_type(ph * pw - 1))
        for k, view in enumerate(rest, 1):
            if training:
                np.copyto(winner, k, where=view > out)
            np.maximum(out, view, out=out)
        self._cache = (winner, x.shape) if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        winner, in_shape = self._backward_cache()
        dx = np.empty(in_shape)
        for k, offset in enumerate(self._offsets()):
            dx[(..., *offset)] = np.where(winner == k, grad, 0.0)
        return dx


class Lstm(Layer):
    """Single-direction LSTM over a time-major (T, B, input) batch of
    sequences, zero initial state.

    Gate layout along the 4H axis is [input, forget, cell, output].

    Only the h -> h recurrence runs step by step, after the input-GEMM
    hoisting of Appleyard, Kočiský & Blunsom, "Optimizing Performance of
    Recurrent Neural Networks on GPUs" (2016): the input projection is one
    GEMM over the (T·B, input) rows before the loop, and the weight and
    input gradients are GEMMs over the per-step gate gradients after it.
    Each step is one (B, H) @ (H, 4H) product for the whole batch.
    """

    PARAMS = ("w_x", "w_h", "b")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        h = hidden_size
        self.hidden_size = h
        self.w_x = uniform_init(rng, (input_size, 4 * h), input_size)
        self.w_h = uniform_init(rng, (h, 4 * h), h)
        self.b = uniform_init(rng, (4 * h,), input_size)
        self.dw_x = np.zeros_like(self.w_x)
        self.dw_h = np.zeros_like(self.w_h)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n_in = self.w_x.shape[0]
        if x.ndim != 3 or x.shape[2] != n_in:
            raise ValueError(f"expected (T, B, {n_in}) input, got {x.shape}")
        t_len, batch, _ = x.shape
        h = self.hidden_size
        # Pre-activations of every step; block t becomes the activated gates
        # [i, f, g, o] once step t adds its recurrent term.
        gates = (x.reshape(t_len * batch, n_in) @ self.w_x + self.b).reshape(t_len, batch, 4 * h)
        c = np.empty((t_len, batch, h))
        tanh_c = np.empty((t_len, batch, h))
        hs = np.empty((t_len, batch, h))
        h_prev = c_prev = np.zeros((batch, h))
        rec, tanh_g, i_g = np.empty((batch, 4 * h)), np.empty((batch, h)), np.empty((batch, h))
        gi, gf, gg, go = (gates[..., k * h : (k + 1) * h] for k in range(4))
        # The (B, ·) blocks of step t in lockstep, all as preallocated views.
        for a, i_t, f_t, g_t, o_t, c_t, tanh_c_t, h_t in zip(gates, gi, gf, gg, go,
                                                            c, tanh_c, hs):
            a += np.dot(h_prev, self.w_h, out=rec)
            np.tanh(g_t, out=tanh_g)
            sigmoid(a, out=a)  # one call for all four gates, then g fixed up
            np.copyto(g_t, tanh_g)
            np.multiply(f_t, c_prev, out=c_t)
            c_t += np.multiply(i_t, tanh_g, out=i_g)
            np.tanh(c_t, out=tanh_c_t)
            np.multiply(o_t, tanh_c_t, out=h_t)
            h_prev, c_prev = h_t, c_t
        self._cache = (x, gates, c, tanh_c, hs) if training else None
        return hs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, gates, c, tanh_c, hs = self._backward_cache()
        t_len, batch, h = hs.shape
        i, f, g, o = (gates[..., k * h : (k + 1) * h] for k in range(4))
        c_prev = np.zeros_like(c)
        c_prev[1:] = c[:-1]
        h_prev = np.zeros_like(hs)
        h_prev[1:] = hs[:-1]
        # Every elementwise derivative at once: the gate gradients of step t
        # are dc_t * fac[t, :, :3] for [i, f, g] and dh_t * fac[t, :, 3] for o.
        fac = np.empty((t_len, batch, 4, h))
        fac[:, :, 0] = g * i * (1.0 - i)
        fac[:, :, 1] = c_prev * f * (1.0 - f)
        fac[:, :, 2] = i * (1.0 - g**2)
        fac[:, :, 3] = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c**2)
        da = np.empty((t_len, batch, 4, h))
        da_rows = da.reshape(t_len, batch, 4 * h)
        w_h_t = self.w_h.T
        dh, dh_next, dc_next = np.empty((batch, h)), np.zeros((batch, h)), np.zeros((batch, h))
        dc_col = np.empty((batch, 1, h))  # dc_t, broadcast over the three gates it feeds
        dc = dc_col[:, 0]
        steps = zip(grad[::-1], dc_dh[::-1], fac[::-1, :, :3], fac[::-1, :, 3], f[::-1],
                    da[::-1, :, :3], da[::-1, :, 3], da_rows[::-1])
        for grad_t, dc_dh_t, fac_ifg_t, fac_o_t, f_t, da_ifg_t, da_o_t, da_row in steps:
            np.add(grad_t, dh_next, out=dh)
            np.multiply(dh, dc_dh_t, out=dc)
            dc += dc_next
            np.multiply(fac_ifg_t, dc_col, out=da_ifg_t)
            np.multiply(fac_o_t, dh, out=da_o_t)
            np.multiply(dc, f_t, out=dc_next)
            np.dot(da_row, w_h_t, out=dh_next)
        da_flat = da_rows.reshape(t_len * batch, 4 * h)
        self.dw_x += x.reshape(t_len * batch, -1).T @ da_flat
        self.dw_h += h_prev.reshape(t_len * batch, h).T @ da_flat
        self.db += da_flat.sum(axis=0)
        return (da_flat @ self.w_x.T).reshape(t_len, batch, -1)


class BiLstm(Layer):
    """Forward and time-reversed LSTM passes over (T, B, input), hidden
    states concatenated, so the output feature size is twice the hidden
    size."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.fwd = Lstm(input_size, hidden_size, rng)
        self.bwd = Lstm(input_size, hidden_size, rng)
        self.children = {"fwd": self.fwd, "bwd": self.bwd}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        h_f = self.fwd.forward(x, training)
        h_b = self.bwd.forward(x[::-1], training)[::-1]
        return np.concatenate([h_f, h_b], axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        h = self.fwd.hidden_size
        dx_f = self.fwd.backward(grad[..., :h])
        dx_b = self.bwd.backward(grad[::-1, ..., h:])[::-1]
        return dx_f + dx_b
