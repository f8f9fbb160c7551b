"""Layers with explicit forward/backward passes.

Conventions:
  * Every layer takes a whole mini-batch, in one input shape. Sequences
    are time-major (T, B, features), so step t of every sequence is one
    contiguous (B, features) block: Lstm, BiLstm and BatchNorm take only
    these. Conv2d takes only (B, C, H, W) images. Dense, Sigmoid and
    MaxPool2d act on trailing axes and take any leading ones. A single
    example is a batch of one; only SeparatorModel.predict_mask takes an
    unbatched grid, and adds that axis itself.
  * Weight products are single GEMMs over the 2-D (T·B, features) view;
    BatchNorm takes its statistics per example, over axis 0 (time), so an
    example's outputs do not depend on the rest of its batch.
  * forward(x, training=True) keeps in _cache what backward() needs; an
    inference forward keeps nothing and drops any earlier cache. backward()
    consumes the cache (Layer._backward_cache): the layer lets go of it as
    backward starts, so a training step holds no finished layer's
    activations, and a second backward without a new training forward, like
    one without any, raises RuntimeError. Conv2d's backward drops its
    column matrix, the largest of them, once the weight gradient is formed.
  * Lstm and BiLstm step through one recurrence, _recur forward and
    _recur_backward backward, over (T, D, B, ·) arrays with a leading
    direction axis: an Lstm is its D = 1 case, a BiLstm its D = 2 case,
    fwd at time s together with bwd at time T-1-s. Both start from zero
    state, which backward() assumes. BiLstm's outputs and gradients are
    bitwise those of its two Lstm children run one after the other, but
    it calls neither child's forward nor backward. Its forward is its
    input GEMMs, then the recurrence, which AmtModel.predict also runs
    alone at inference over pre-activations it assembled.
  * At inference a stack of Lstm layers, each reading the hidden states
    of the one below, runs through lstm_stack, which steps all of them in
    its own loop and calls none of their forwards. It carries an
    (L, 2, B, hidden) state of every layer's (h, c), overwritten with the
    final one, so consecutive blocks of a sequence passed with one state
    give the outputs of one pass over the whole; its outputs are bitwise
    those of each layer's forward in turn. stack_dense projects its output
    through a Dense head in the same chunks of frames as its input GEMMs.
  * Every logistic is 0.5·tanh(x/2) + 0.5 in numpy ufuncs: this module
    imports numpy only, so a command that never resamples never loads
    scipy. Sigmoid calls sigmoid(x): one new array, four ufunc calls.
    _recur and lstm_stack halve the i, f and o columns of their copy of
    w_h and of each input projection beforehand, which is exact, so one
    tanh over the whole gate block also gives tanh(g).
  * backward() ACCUMULATES parameter gradients, summed over the batch,
    into buffers that zero_grads() creates at its first call and zeroes
    after, and returns the gradient w.r.t. the layer input.
    BatchNorm.backward_params accumulates only the parameter gradients,
    for a model's input norm, whose input gradient nothing reads.

Tensor naming, which is also the checkpoint format:
  * A layer lists its trainable array attributes in PARAMS; the gradient
    buffer of parameter "w" is the attribute "dw", made by zero_grads().
  * A layer with named children in its `children` dict reports each
    child tensor as "<child>.<name>", in child order, recursively.
  * state() is params() followed by the running statistics listed in
    STATS (BatchNorm's running_mean and running_var).
"""

from __future__ import annotations

import numpy as np

from .checkpoint import restore_params


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function of a float array, as 0.5 * tanh(0.5 * x) + 0.5
    in a new array, through four ufunc calls.

    tanh saturates instead of overflowing, so no input raises a warning:
    0 maps to exactly 0.5, +-inf to 1 and 0, and NaN stays NaN. Within
    2^-51 of scipy.special.expit; results below ~1e-16 lose the relative
    precision expit keeps, and those below 2^-54 flush to 0.
    """
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


class Layer:
    """The one parameter container: subclasses declare PARAMS, STATS and
    children, and define forward/backward; backward takes what the last
    training forward left in _cache through _backward_cache, which empties
    it."""

    PARAMS: tuple[str, ...] = ()
    STATS: tuple[str, ...] = ()
    children: dict[str, "Layer"] = {}  # containers assign their own in __init__
    _cache = None  # what backward needs, set only by a training forward
    _has_grads = False  # set by zero_grads(), which creates the gradient buffers

    def _backward_cache(self):
        """The cache of the last training forward, once zero_grads() has run,
        handed over: the layer keeps no reference, so what backward drops is
        freed, and the next backward needs a new training forward."""
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a preceding forward(x, training=True)")
        if not self._has_grads:
            raise RuntimeError(f"{type(self).__name__}.backward needs zero_grads() first")
        cache, self._cache = self._cache, None
        return cache

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
        """Gradient buffers under the names of their parameters, once zero_grads() has run."""
        return self._collect("PARAMS", "d")

    def zero_grads(self) -> None:
        """Zero this layer's gradient buffers and its children's. The first
        call creates them, and nothing else does: inference holds none."""
        for name in self.PARAMS:
            if not hasattr(self, "d" + name):
                setattr(self, "d" + name, np.empty_like(getattr(self, name)))
            getattr(self, "d" + name)[...] = 0.0
        for child in self.children.values():
            child.zero_grads()
        self._has_grads = True

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


_SIGMOID_CHUNK = 1 << 14  # elements of 1 - y that Sigmoid.backward holds at once


class Sigmoid(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = sigmoid(x)
        self._cache = y if training else None
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        y = self._backward_cache()
        out = grad * y
        # out *= 1.0 - y, with 1.0 - y made for a few leading rows at a time:
        # whole, it would be a third full-size array beside out and grad
        rows = max(1, _SIGMOID_CHUNK // y[0].size) if len(y) else 1
        one_minus_y = np.empty_like(y[:rows])
        for r0 in range(0, len(y), rows):
            part = y[r0 : r0 + rows]
            out[r0 : r0 + rows] *= np.subtract(1.0, part, out=one_minus_y[: len(part)])
        return out


_BN_EPS = 1e-10  # BatchNorm's variance floor: non-degenerate columns normalize to variance 1 ± 1e-5
_BN_MOMENTUM = 0.1  # the step of BatchNorm's running statistics, once per example


class BatchNorm(Layer):
    """Per-feature normalization over axis 0 of (N, B, F) input.

    Training statistics are taken over the N frames of each of the B
    examples, never across the batch, and the running statistics move
    once per example, in batch order.
    """

    PARAMS = ("gamma", "beta")
    STATS = ("running_mean", "running_var")

    def __init__(self, num_features: int):
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        f = self.gamma.size
        if x.ndim != 3 or x.shape[2] != f:
            raise ValueError(f"expected (N, B, {f}) input, got {x.shape}")
        if training:
            # x.var(axis=0) as numpy computes it, from this mean and x - mean,
            # which xhat then reuses
            mean = x.mean(axis=0)
            xhat = x - mean
            var = np.multiply(xhat, xhat).sum(axis=0)
            var /= x.shape[0]
            for m, v in zip(mean, var):
                self.running_mean += _BN_MOMENTUM * (m - self.running_mean)
                self.running_var += _BN_MOMENTUM * (v - self.running_var)
        else:
            xhat = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        xhat *= inv_std
        self._cache = (xhat, inv_std) if training else None
        out = self.gamma * xhat
        out += self.beta
        return out

    def _accumulate(self, grad: np.ndarray, xhat: np.ndarray) -> None:
        """Add dgamma and dbeta for the output gradient grad, given the cached xhat."""
        f = self.gamma.size
        self.dgamma += (grad * xhat).reshape(-1, f).sum(axis=0)
        self.dbeta += grad.reshape(-1, f).sum(axis=0)

    def backward_params(self, grad: np.ndarray) -> None:
        """Accumulate dgamma and dbeta without the input gradient: the
        backward of a model's input layer, whose input gradient nothing
        reads. It consumes the cache as backward does."""
        self._accumulate(grad, self._backward_cache()[0])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._backward_cache()
        self._accumulate(grad, xhat)
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
        flat = None  # the column matrix, the largest array of a step, is read only by dw
        self.db += gmat.sum(axis=1)
        dcols = (self.w.reshape(c_out, -1).T @ gmat).reshape(c_in, kh, kw, n, h, w)
        gmat = None
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
                # k if this offset beats the running maximum: as k rises, the
                # largest such k is the last offset to beat it
                np.maximum(winner, np.greater(view, out) * winner.dtype.type(k), out=winner)
            np.maximum(out, view, out=out)
        self._cache = (winner, x.shape) if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        winner, in_shape = self._backward_cache()
        dx = np.zeros(in_shape)
        won = np.empty(winner.shape, dtype=bool)
        for k, offset in enumerate(self._offsets()):
            # grad's exact bits where offset k won, signed zeros and NaN
            # payloads included; +0.0 where it lost
            np.copyto(dx[(..., *offset)], grad, where=np.equal(winner, k, out=won))
        return dx


# Per gate [i, f, g, o]: the scale of the pre-activations, and with it the
# affine map that finishes the three logistics 0.5·tanh(a/2) + 0.5 after
# one tanh over all four gates. x·0.5 is exact in binary floating point,
# and x·1 + (-0.0) is x, the sign of a zero included.
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])
_GATE_SHIFT = np.array([0.5, 0.5, -0.0, 0.5])


def _recur(gates: np.ndarray, w_h: np.ndarray):
    """The forward recurrence of D independent directions from zero state,
    over (T, D, B, 4H) pre-activations and their stacked (D, H, 4H)
    recurrent weights: step t adds h_(t-1) @ w_h to block t, one stacked
    (D, B, H) @ (D, H, 4H) product, and turns the block in place into the
    activated gates [i, f, g, o]. The i, f and o columns of the block and
    of a copy of w_h are halved first, so one tanh over the block and one
    affine map give all four gates. Returns the (T, D, B, H) c, tanh(c)
    and h of every step."""
    t_len, n_dir, batch, four_h = gates.shape
    h = four_h // 4
    scale, shift = np.repeat(_GATE_SCALE, h), np.repeat(_GATE_SHIFT, h)
    gates *= scale
    w_h = w_h * scale
    c, tanh_c, hs = (np.empty((t_len, n_dir, batch, h)) for _ in range(3))
    h_prev = c_prev = np.zeros((n_dir, batch, h))
    rec, i_g = np.empty((n_dir, batch, four_h)), np.empty((n_dir, batch, h))
    gi, gf, gg, go = (gates[..., k * h : (k + 1) * h] for k in range(4))
    # The (D, B, ·) blocks of step t in lockstep, all as preallocated views.
    for a, i_t, f_t, g_t, o_t, c_t, tanh_c_t, h_t in zip(gates, gi, gf, gg, go,
                                                        c, tanh_c, hs):
        a += np.matmul(h_prev, w_h, out=rec)
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, g_t, out=i_g)
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(o_t, tanh_c_t, out=h_t)
        h_prev, c_prev = h_t, c_t
    return c, tanh_c, hs


def _recur_backward(grad_steps: np.ndarray, gates: np.ndarray, c: np.ndarray,
                    tanh_c: np.ndarray, w_h_t: np.ndarray) -> np.ndarray:
    """The backward recurrence of _recur: the (T, D, B, 4H) gate gradients
    for (T, D, B, H) output gradients grad_steps, given _recur's activated
    gates, c and tanh(c) and the stacked (D, 4H, H) transposed w_h."""
    t_len, n_dir, batch, h = c.shape
    i, f, g, o = (gates[..., k * h : (k + 1) * h] for k in range(4))
    c_prev = np.zeros_like(c)
    c_prev[1:] = c[:-1]
    # Every elementwise derivative at once. Step t then scales its block
    # in place, by dc_t for [i, f, g] and by dh_t for o, which turns the
    # factors into its gate gradients.
    da = np.empty((t_len, n_dir, batch, 4, h))
    da_i, da_f, da_g, da_o = (da[..., k, :] for k in range(4))
    np.multiply(g, i, out=da_i)
    da_i *= 1.0 - i  # g·i·(1 - i)
    np.multiply(c_prev, f, out=da_f)
    da_f *= 1.0 - f  # c_prev·f·(1 - f)
    np.subtract(1.0, g**2, out=da_g)
    da_g *= i  # i·(1 - g²)
    np.multiply(tanh_c, o, out=da_o)
    da_o *= 1.0 - o  # tanh_c·o·(1 - o)
    dc_dh = 1.0 - tanh_c**2
    dc_dh *= o  # o·(1 - tanh_c²)
    da_rows = da.reshape(t_len, n_dir, batch, 4 * h)
    dh, dh_next, dc_next = (np.zeros((n_dir, batch, h)) for _ in range(3))
    dc_col = np.empty((n_dir, batch, 1, h))  # dc_t, broadcast over the three gates it feeds
    dc = dc_col[..., 0, :]
    steps = zip(grad_steps[::-1], dc_dh[::-1], f[::-1], da[::-1, ..., :3, :],
                da[::-1, ..., 3, :], da_rows[::-1])
    for grad_t, dc_dh_t, f_t, da_ifg_t, da_o_t, da_row in steps:
        np.add(grad_t, dh_next, out=dh)
        np.multiply(dh, dc_dh_t, out=dc)
        dc += dc_next
        da_ifg_t *= dc_col
        da_o_t *= dh
        np.multiply(dc, f_t, out=dc_next)
        np.matmul(da_row, w_h_t, out=dh_next)
    return da_rows


class Lstm(Layer):
    """Single-direction LSTM over a time-major (T, B, input) batch of
    sequences, from a zero initial state.  At inference a stack of Lstm
    layers runs through lstm_stack instead, which also carries a state.

    Gate layout along the 4H axis is [input, forget, cell, output].

    Only the h -> h recurrence runs step by step, after the input-GEMM
    hoisting of Appleyard, Kočiský & Blunsom, "Optimizing Performance of
    Recurrent Neural Networks on GPUs" (2016): the input projection is one
    GEMM over the (T·B, input) rows before the loop, and the weight and
    input gradients are GEMMs over the per-step gate gradients after it.
    The steps are those of _recur and _recur_backward, which BiLstm shares:
    an Lstm is their one-direction case, D = 1.
    """

    PARAMS = ("w_x", "w_h", "b")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        h = hidden_size
        self.hidden_size = h
        self.w_x = uniform_init(rng, (input_size, 4 * h), input_size)
        self.w_h = uniform_init(rng, (h, 4 * h), h)
        self.b = uniform_init(rng, (4 * h,), input_size)

    def _project(self, rows: np.ndarray, out: np.ndarray) -> None:
        """out[...] = rows @ w_x + b: the (T, B, 4H) pre-activations of the
        (T·B, input) rows, one GEMM."""
        np.add((rows @ self.w_x).reshape(out.shape), self.b, out=out)

    def _accumulate(self, rows: np.ndarray, hs: np.ndarray, da: np.ndarray) -> np.ndarray:
        """Add the dw_x, dw_h and db of (T, B, 4H) gate gradients da, one
        GEMM each over the (T·B, input) rows and the (T, B, H) states hs
        they came from, and return the (T, B, input) input gradient."""
        t_len, batch, h = hs.shape
        da_flat = da.reshape(t_len * batch, 4 * h)
        h_prev = np.zeros((t_len, batch, h))
        h_prev[1:] = hs[:-1]
        self.dw_x += rows.T @ da_flat
        self.dw_h += h_prev.reshape(t_len * batch, h).T @ da_flat
        self.db += da_flat.sum(axis=0)
        return (da_flat @ self.w_x.T).reshape(t_len, batch, -1)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n_in = self.w_x.shape[0]
        if x.ndim != 3 or x.shape[2] != n_in:
            raise ValueError(f"expected (T, B, {n_in}) input, got {x.shape}")
        t_len, batch, _ = x.shape
        gates = np.empty((t_len, 1, batch, 4 * self.hidden_size))
        self._project(x.reshape(t_len * batch, n_in), gates[:, 0])
        c, tanh_c, hs = (a[:, 0] for a in _recur(gates, self.w_h[None]))
        self._cache = (x, gates[:, 0], c, tanh_c, hs) if training else None
        return hs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, gates, c, tanh_c, hs = self._backward_cache()
        t_len, batch, _ = x.shape
        da = _recur_backward(grad[:, None], gates[:, None], c[:, None], tanh_c[:, None],
                             self.w_h.T[None])
        return self._accumulate(x.reshape(t_len * batch, -1), hs, da[:, 0])


# Steps by which each layer of lstm_stack trails the one below it, and
# the most frames of one of its input-projection GEMMs.
_STACK_LAG = 64


def _stack_chunks(t_len: int, lag: int) -> list[tuple[int, int]]:
    """[a, e) frame ranges of at most lag frames that cover 0 ... t_len.
    None has a single frame unless t_len is 1: the GEMM of a 1-row matrix
    need not give the bits of the same row in a taller one, so a 1-frame
    tail takes the last frame of the range before it (lag >= 3)."""
    bounds = [*range(0, t_len, lag), t_len]
    if t_len > 1 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return list(zip(bounds, bounds[1:]))


def lstm_stack(layers: list[Lstm], x: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Inference through stacked Lstm layers, each reading the hidden
    states of the one below, over a time-major (T, B, input) batch: the
    last layer's (T, B, H) states, bitwise those of calling each layer's
    forward in turn.

    state holds every layer's (h, c) as an (L, 2, B, H) array. The pass
    starts from it and overwrites it with the final one, so consecutive
    blocks of a sequence passed with one state get the outputs of one
    pass over the whole.

    All layers step in one loop, as a wavefront (Appleyard, Kočiský &
    Blunsom 2016): step s advances layer l at time s - l·lag, with
    lag = min(_STACK_LAG, T), so T + (L-1)·lag steps replace L·T. Each
    step is one stacked (L, B, H) @ (L, H, 4H) product and nine
    elementwise calls over the gate-major (4, L, B, H) block of every
    layer it advances. The i, f and o columns of the stacked w_h and rows
    of each projection are halved, which is exact, so one tanh over the
    block gives tanh(g) and the tanh(a/2) of the three logistics
    0.5·tanh(a/2) + 0.5; g is copied beside c, so [i, f]·[g, c] is one
    product. A layer's input projection is one GEMM per _stack_chunks
    range of its input, made at the step that reaches the range, by when
    the layer below has finished it. So no gates lie more than lag steps
    ahead, and they live in a ring of lag steps; only h is kept per step,
    and c beside tanh(g) in one (2, L, B, H) buffer.
    """
    n_layers, h = len(layers), layers[0].hidden_size
    n_in = layers[0].w_x.shape[0]
    if x.ndim != 3 or x.shape[2] != n_in:
        raise ValueError(f"expected (T, B, {n_in}) input, got {x.shape}")
    if any(layer.w_x.shape != (h, 4 * h) for layer in layers[1:]):
        raise ValueError(f"every layer above the first must map {h} states to {h}")
    t_len, batch, _ = x.shape
    if state.shape != (n_layers, 2, batch, h):
        raise ValueError(f"expected a {(n_layers, 2, batch, h)} state, got {state.shape}")
    for layer in layers:
        layer._cache = None  # an inference pass, as for every layer's own forward
    lag = min(_STACK_LAG, t_len)
    n_steps = t_len + (n_layers - 1) * lag
    # gates[s % lag, :, l]: layer l's pre-activations at step s, the i, f
    # and o rows halved, then [sigmoid(i), sigmoid(f), -, sigmoid(o)];
    # hs[s + 1, l]: its h after step s, and hs[l·lag, l] its initial h.
    gates = np.empty((lag, 4, n_layers, batch, h))
    hs = np.empty((n_steps + 1, n_layers, batch, h))
    for l in range(n_layers):
        hs[l * lag, l] = state[l, 0]
    # gc[:, l]: layer l's [tanh(g), c] at the step it last advanced, and
    # ig_fc[:, l] its [i·g, f·c].
    gc = np.empty((2, n_layers, batch, h))
    gc[1] = state[:, 1]
    ig_fc, tanh_c = np.empty_like(gc), np.empty((n_layers, batch, h))
    half = _GATE_SCALE
    w_h = np.stack([layer.w_h for layer in layers]) * np.repeat(half, h)
    rec = np.empty((n_layers, batch, 4 * h))
    chunk_end = dict(_stack_chunks(t_len, lag))
    # Between two bounds the same layers advance, within one turn of the
    # ring; at each, a layer may reach a range it projects.
    bounds = sorted({t + l * lag for t in (*chunk_end, t_len) for l in range(n_layers)}
                    | set(range(0, n_steps, lag)))
    for s0, s1 in zip(bounds, bounds[1:]):
        for l, layer in enumerate(layers):
            t0 = s0 - l * lag
            if t0 in chunk_end:
                t1 = chunk_end[t0]
                rows = x[t0:t1] if l == 0 else np.ascontiguousarray(
                    hs[t0 + (l - 1) * lag + 1 : t1 + (l - 1) * lag + 1, l - 1])
                pre = rows.reshape((t1 - t0) * batch, -1) @ layer.w_x
                gates[np.arange(s0, s0 + t1 - t0) % lag, :, l] = (
                    pre.reshape(t1 - t0, batch, 4, h).transpose(0, 2, 1, 3)
                    + layer.b.reshape(4, 1, h)) * half[:, None, None]
        lo = next(l for l in range(n_layers) if s0 < t_len + l * lag)
        hi = max(l for l in range(n_layers) if l * lag <= s0) + 1
        rec_l, gc_l, prod = rec[lo:hi], gc[:, lo:hi], ig_fc[:, lo:hi]
        rec_gates = rec_l.reshape(hi - lo, batch, 4, h).transpose(2, 0, 1, 3)
        (g_l, c_l), (ig, fc), w_l, tc = gc_l, prod, w_h[lo:hi], tanh_c[lo:hi]
        ring = slice(s0 % lag, s0 % lag + s1 - s0)
        steps = zip(gates[ring, :, lo:hi], gates[ring, :2, lo:hi], gates[ring, 2, lo:hi],
                    gates[ring, 3, lo:hi], hs[s0:s1, lo:hi], hs[s0 + 1 : s1 + 1, lo:hi])
        for a, if_t, g_t, o_t, h_prev, h_t in steps:
            np.matmul(h_prev, w_l, out=rec_l)
            a += rec_gates
            np.tanh(a, out=a)
            np.copyto(g_l, g_t)
            a *= 0.5
            a += 0.5
            np.multiply(if_t, gc_l, out=prod)
            np.add(ig, fc, out=c_l)  # i·g + f·c, the bits of f·c + i·g
            np.tanh(c_l, out=tc)
            np.multiply(o_t, tc, out=h_t)
    for l in range(n_layers):
        state[l, 0] = hs[t_len + l * lag, l]
    state[:, 1] = gc[1]
    top = (n_layers - 1) * lag
    return hs[top + 1 : top + t_len + 1, n_layers - 1].copy()


def stack_dense(layer: Dense, x: np.ndarray) -> np.ndarray:
    """Inference Dense.forward of lstm_stack's (T, B, in) output, with one
    GEMM per _stack_chunks range of frames, as lstm_stack projects its
    inputs. A GEMM gives a row bits that depend on its row count, so blocks
    of a sequence whose ranges are those of the whole get the rows of one
    pass over the whole, bitwise."""
    t_len, batch, n_in = x.shape
    layer._cache = None
    out = np.empty((t_len, batch, layer.w.shape[1]))
    for a, e in _stack_chunks(t_len, min(_STACK_LAG, t_len)):
        np.matmul(x[a:e].reshape(-1, n_in), layer.w, out=out[a:e].reshape(-1, out.shape[2]))
    out += layer.b
    return out


class BiLstm(Layer):
    """Forward and time-reversed LSTM passes over (T, B, input), hidden
    states concatenated, so the output feature size is twice the hidden
    size.

    forward is _pre_activations, then _recurrence. _pre_activations gives
    each direction's input projection, one GEMM over its own rows
    (Lstm._project), as (T, 2, B, 4H) pre-activations in step order:
    [s, 0] is fwd at time s and [s, 1] bwd at time T-1-s. For a (1, N,
    input) batch of one-frame sequences that is N frames' pre-activations
    of both directions in time order. The two directions are independent,
    so one loop steps both: _recur and _recur_backward with D = 2,
    carrying h and c (dh and dc in backward) as a (2, B, H) stack, half
    the Python steps of two Lstm loops. _recurrence runs that loop over
    given pre-activations: for forward, and at inference for
    AmtModel.predict, which assembles its windows' pre-activations from
    frames it projected once. Weight and input gradients stay one GEMM
    over each direction's rows (Lstm._accumulate), in the order
    fwd.forward(x) and bwd.forward(x[::-1]) would sum them, so outputs and
    gradients are bitwise those of the two Lstm passes. fwd and bwd stay
    Lstm children, which own the weights and gradient buffers.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.fwd = Lstm(input_size, hidden_size, rng)
        self.bwd = Lstm(input_size, hidden_size, rng)
        self.children = {"fwd": self.fwd, "bwd": self.bwd}

    def _directions(self, x: np.ndarray):
        """(layer, its (T·B, input) rows in its own time order) for fwd, then bwd."""
        rows = x.shape[0] * x.shape[1]
        return zip((self.fwd, self.bwd), (x.reshape(rows, -1), x[::-1].reshape(rows, -1)))

    def _pre_activations(self, x: np.ndarray) -> np.ndarray:
        """(T, B, input) -> the (T, 2, B, 4H) step-order pre-activations."""
        n_in = self.fwd.w_x.shape[0]
        if x.ndim != 3 or x.shape[2] != n_in:
            raise ValueError(f"expected (T, B, {n_in}) input, got {x.shape}")
        gates = np.empty((x.shape[0], 2, x.shape[1], 4 * self.fwd.hidden_size))
        for d, (layer, rows) in enumerate(self._directions(x)):
            layer._project(rows, gates[:, d])
        return gates

    def _recurrence(self, gates: np.ndarray):
        """The (T, B, 2H) outputs of (T, 2, B, 4H) step-order pre-activations,
        which become the activated gates, and the (gates, c, tanh_c, hs)
        backward reads."""
        c, tanh_c, hs = _recur(gates, np.stack([self.fwd.w_h, self.bwd.w_h]))
        return np.concatenate([hs[:, 0], hs[::-1, 1]], axis=-1), (gates, c, tanh_c, hs)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out, steps = self._recurrence(self._pre_activations(x))
        self._cache = (x, *steps) if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, gates, c, tanh_c, hs = self._backward_cache()
        h = self.fwd.hidden_size
        grad_steps = np.stack([grad[..., :h], grad[::-1, ..., h:]], axis=1)
        w_h_t = np.stack([self.fwd.w_h, self.bwd.w_h]).transpose(0, 2, 1)
        da = _recur_backward(grad_steps, gates, c, tanh_c, w_h_t)
        dx_f, dx_b = (layer._accumulate(rows, hs[:, d], da[:, d])
                      for d, (layer, rows) in enumerate(self._directions(x)))
        return dx_f + dx_b[::-1]
