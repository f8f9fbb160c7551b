"""Layers with explicit forward/backward passes.

Conventions:
  * forward() caches whatever backward() needs; call them in pairs.
    Lstm keeps its cache (gates and states of every step) only when
    forward(x, training=True); its backward() raises without one.
  * backward() ACCUMULATES parameter gradients (call zero_grads between
    batches) and returns the gradient w.r.t. the layer input.
  * Sequence layers take (T, features); image layers take (C, H, W).

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
    children, and define forward/backward."""

    PARAMS: tuple[str, ...] = ()
    STATS: tuple[str, ...] = ()
    children: dict[str, "Layer"] = {}  # containers assign their own in __init__

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
    """Affine map on the last axis: (N, in) -> (N, out).

    Applying it to a (T, in) sequence gives the time-distributed form,
    same weights at every step.
    """

    PARAMS = ("w", "b")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.w = uniform_init(rng, (in_features, out_features), in_features)
        self.b = uniform_init(rng, (out_features,), in_features)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.w.shape[0]:
            raise ValueError(f"expected {self.w.shape[0]} input features, got {x.shape}")
        self._x = x
        return x @ self.w + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.dw += self._x.T @ grad
        self.db += grad.sum(axis=0)
        return grad @ self.w.T


class Sigmoid(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = sigmoid(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._y * (1.0 - self._y)


class BatchNorm(Layer):
    """Per-feature normalization over the leading axis of (N, F) input.

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
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.gamma.size:
            raise ValueError(f"expected (N, {self.gamma.size}) input, got {x.shape}")
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, training)
        return self.gamma * xhat + self.beta

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, training = self._cache
        self.dgamma += (grad * xhat).sum(axis=0)
        self.dbeta += grad.sum(axis=0)
        dxhat = grad * self.gamma
        if not training:
            return dxhat * inv_std
        n = xhat.shape[0]
        # Batch statistics depend on every row, hence the mean corrections.
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )


class Conv2d(Layer):
    """Same-padded stride-1 correlation: (C_in, H, W) -> (C_out, H, W)."""

    PARAMS = ("w", "b")

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, int],
                 rng: np.random.Generator):
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        self.w = uniform_init(rng, (out_channels, in_channels, kh, kw), fan_in)
        self.b = uniform_init(rng, (out_channels,), fan_in)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        c_out, c_in, kh, kw = self.w.shape
        if x.ndim != 3 or x.shape[0] != c_in:
            raise ValueError(f"expected ({c_in}, H, W) input, got {x.shape}")
        _, h, w = x.shape
        ph, pw = kh // 2, kw // 2
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
        cols = np.empty((c_in, kh, kw, h, w))
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[:, i : i + h, j : j + w]
        flat = cols.reshape(c_in * kh * kw, h * w)
        out = self.w.reshape(c_out, -1) @ flat + self.b[:, None]
        self._cache = (flat, x.shape)
        return out.reshape(c_out, h, w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        flat, x_shape = self._cache
        c_out, c_in, kh, kw = self.w.shape
        _, h, w = x_shape
        gmat = grad.reshape(c_out, h * w)
        self.dw += (gmat @ flat.T).reshape(self.w.shape)
        self.db += gmat.sum(axis=1)
        dcols = (self.w.reshape(c_out, -1).T @ gmat).reshape(c_in, kh, kw, h, w)
        ph, pw = kh // 2, kw // 2
        dxp = np.zeros((c_in, h + 2 * ph, w + 2 * pw))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + h, j : j + w] += dcols[:, i, j]
        return dxp[:, ph : ph + h, pw : pw + w]


class MaxPool2d(Layer):
    """Non-overlapping max pooling; pool sizes must divide the input."""

    def __init__(self, pool: tuple[int, int]):
        self.pool = pool

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ph, pw = self.pool
        c, h, w = x.shape
        if h % ph or w % pw:
            raise ValueError(f"pool {self.pool} does not divide input {x.shape}")
        ho, wo = h // ph, w // pw
        windows = x.reshape(c, ho, ph, wo, pw).transpose(0, 1, 3, 2, 4).reshape(c, ho, wo, ph * pw)
        self._idx = windows.argmax(axis=-1)
        self._in_shape = x.shape
        return np.take_along_axis(windows, self._idx[..., None], axis=-1)[..., 0]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        ph, pw = self.pool
        c, h, w = self._in_shape
        ho, wo = h // ph, w // pw
        scattered = np.zeros((c, ho, wo, ph * pw))
        np.put_along_axis(scattered, self._idx[..., None], grad[..., None], axis=-1)
        return scattered.reshape(c, ho, wo, ph, pw).transpose(0, 1, 3, 2, 4).reshape(c, h, w)


class Lstm(Layer):
    """Single-direction LSTM over a (T, input) sequence, zero initial state.

    Gate layout along the 4H axis is [input, forget, cell, output].

    Only the h -> h recurrence runs step by step, after the input-GEMM
    hoisting of Appleyard, Kočiský & Blunsom, "Optimizing Performance of
    Recurrent Neural Networks on GPUs" (2016): the input projection is one
    GEMM before the loop, and the weight and input gradients are GEMMs over
    the per-step gate gradients after it.
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
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.w_x.shape[0]:
            raise ValueError(f"expected (T, {self.w_x.shape[0]}) input, got {x.shape}")
        t_len, h = x.shape[0], self.hidden_size
        # Pre-activations of every step; row t becomes the activated gates
        # [i, f, g, o] once step t adds its recurrent term.
        gates = x @ self.w_x + self.b
        c = np.empty((t_len, h))
        tanh_c = np.empty((t_len, h))
        hs = np.empty((t_len, h))
        h_prev = c_prev = np.zeros(h)
        i, f, g, o = (slice(k * h, (k + 1) * h) for k in range(4))
        # Row views in lockstep; np.dot costs less per call than @ on vectors.
        for a, c_t, tanh_c_t, h_t in zip(gates, c, tanh_c, hs):
            a += np.dot(h_prev, self.w_h)
            tanh_g = np.tanh(a[g])
            sigmoid(a, out=a)  # one call for all four gates, then g fixed up
            a[g] = tanh_g
            np.multiply(a[f], c_prev, out=c_t)
            c_t += a[i] * tanh_g
            np.tanh(c_t, out=tanh_c_t)
            np.multiply(a[o], tanh_c_t, out=h_t)
            h_prev, c_prev = h_t, c_t
        self._cache = (x, gates, c, tanh_c, hs) if training else None
        return hs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("Lstm.backward needs a preceding forward(x, training=True)")
        x, gates, c, tanh_c, hs = self._cache
        t_len, h = x.shape[0], self.hidden_size
        i, f, g, o = (gates[:, k * h : (k + 1) * h] for k in range(4))
        c_prev = np.zeros_like(c)
        c_prev[1:] = c[:-1]
        h_prev = np.zeros_like(hs)
        h_prev[1:] = hs[:-1]
        # Every elementwise derivative at once: the gate gradients of step t
        # are dc_t * fac[t, :3] for [i, f, g] and dh_t * fac[t, 3] for o.
        fac = np.empty((t_len, 4, h))
        fac[:, 0] = g * i * (1.0 - i)
        fac[:, 1] = c_prev * f * (1.0 - f)
        fac[:, 2] = i * (1.0 - g**2)
        fac[:, 3] = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c**2)
        da = np.empty((t_len, 4, h))
        da_rows = da.reshape(t_len, 4 * h)
        dh_next = dc_next = np.zeros(h)
        steps = zip(grad[::-1], dc_dh[::-1], fac[::-1], f[::-1], da[::-1], da_rows[::-1])
        for grad_t, dc_dh_t, fac_t, f_t, da_t, da_row in steps:
            dh = grad_t + dh_next
            dc = dh * dc_dh_t
            dc += dc_next
            np.multiply(fac_t[:3], dc, out=da_t[:3])
            np.multiply(fac_t[3], dh, out=da_t[3])
            dc_next = dc * f_t
            dh_next = np.dot(self.w_h, da_row)
        self.dw_x += x.T @ da_rows
        self.dw_h += h_prev.T @ da_rows
        self.db += da_rows.sum(axis=0)
        return da_rows @ self.w_x.T


class BiLstm(Layer):
    """Forward and time-reversed LSTM passes, hidden states concatenated,
    so the output feature size is twice the hidden size."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.fwd = Lstm(input_size, hidden_size, rng)
        self.bwd = Lstm(input_size, hidden_size, rng)
        self.children = {"fwd": self.fwd, "bwd": self.bwd}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        h_f = self.fwd.forward(x, training)
        h_b = self.bwd.forward(x[::-1], training)[::-1]
        return np.concatenate([h_f, h_b], axis=1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        h = self.fwd.hidden_size
        dx_f = self.fwd.backward(grad[:, :h])
        dx_b = self.bwd.backward(grad[::-1, h:])[::-1]
        return dx_f + dx_b
