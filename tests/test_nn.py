import logging
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stemscribe import nn
from stemscribe.nn.layers import _BN_EPS, _SIGMOID_CHUNK, _STACK_LAG, _stack_chunks
from stemscribe.nn.layers import sigmoid as sigmoid_fn


class LayerHarness:
    """Wraps one layer as a grad_check-able model.

    Loss is a fixed random projection of the output, so every output
    element carries gradient signal.
    """

    def __init__(self, layer, out_shape, seed=0, training=True):
        self.layer = layer
        self.proj = np.random.default_rng(seed + 7_000).standard_normal(out_shape)
        self.training = training

    def params(self):
        return self.layer.params()

    def grads(self):
        return self.layer.grads()

    def zero_grads(self):
        self.layer.zero_grads()

    def loss_and_grad(self, x):
        out = self.layer.forward(x, self.training)
        self.layer.backward(self.proj)
        return float((out * self.proj).sum())


def layer_cases(seed):
    """One example per layer, as the batch of one."""
    rng = np.random.default_rng(seed)
    return [
        (nn.Dense(4, 3, rng), rng.standard_normal((5, 1, 4)), (5, 1, 3)),
        (nn.BatchNorm(3), rng.standard_normal((6, 1, 3)), (6, 1, 3)),
        (nn.Conv2d(2, 3, (3, 3), rng), rng.standard_normal((1, 2, 4, 5)), (1, 3, 4, 5)),
        (nn.Lstm(3, 4, rng), rng.standard_normal((5, 1, 3)), (5, 1, 4)),
        (nn.BiLstm(3, 2, rng), rng.standard_normal((4, 1, 3)), (4, 1, 4)),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_every_layer_gradient_matches_finite_differences(seed):
    # 5 seeds x 5 layer types = 25 independent checks
    for layer, x, out_shape in layer_cases(seed):
        model = LayerHarness(layer, out_shape, seed)
        assert nn.grad_check(model, x) < 1e-4


def batched_layer_cases(seed):
    rng = np.random.default_rng(seed)
    return [
        (nn.Dense(4, 3, rng), rng.standard_normal((5, 2, 4)), (5, 2, 3)),
        (nn.BatchNorm(3), rng.standard_normal((6, 3, 3)), (6, 3, 3)),
        (nn.Conv2d(2, 3, (3, 3), rng), rng.standard_normal((3, 2, 4, 5)), (3, 3, 4, 5)),
        (nn.Lstm(3, 4, rng), rng.standard_normal((5, 3, 3)), (5, 3, 4)),
        (nn.BiLstm(3, 2, rng), rng.standard_normal((4, 2, 3)), (4, 2, 4)),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_every_layer_gradient_matches_finite_differences_on_a_batch(seed):
    for layer, x, out_shape in batched_layer_cases(seed):
        model = LayerHarness(layer, out_shape, seed)
        assert nn.grad_check(model, x) < 1e-4


# ------------------------------------------------------------- batch norm

def test_batch_norm_constant_column_is_zeroed():
    bn = nn.BatchNorm(2)
    x = np.full((8, 1, 2), 3.7)
    assert np.abs(bn.forward(x, training=True)).max() < 1e-4


def test_batch_norm_normalizes():
    bn = nn.BatchNorm(1)
    out = bn.forward(np.array([[[1.0]], [[2.0]], [[3.0]]]), training=True)
    assert abs(out.mean()) < 1e-6
    assert abs(out.var() - 1.0) < 1e-6


def test_batch_norm_affine_params():
    bn = nn.BatchNorm(1)
    bn.gamma[:] = 2.0
    bn.beta[:] = 3.0
    out = bn.forward(np.array([[[1.0]], [[2.0]], [[3.0]]]), training=True)
    assert out.mean() == pytest.approx(3.0, abs=1e-9)
    assert out.std() == pytest.approx(2.0, rel=1e-6)


def test_batch_norm_statistics_property():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        bn = nn.BatchNorm(5)
        out = bn.forward(rng.standard_normal((16, 1, 5)) * 3 + 1, training=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-5


def test_batch_norm_inference_uses_running_stats():
    bn = nn.BatchNorm(1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        bn.forward(rng.standard_normal((32, 1, 1)) * 2 + 5, training=True)
    out = bn.forward(np.array([[[5.0]]]), training=False)
    # at the distribution mean the normalized value is near zero
    assert abs(out[0, 0, 0]) < 0.2


def test_batch_norm_takes_statistics_per_example():
    # example 1 is example 0 scaled by 1e3 and shifted: over the batch
    # axis the two would share statistics, per example each normalizes alone
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((16, 4))
    x = np.stack([x0, 1e3 * x0 + 50.0], axis=1)  # (T, B, F)
    grad = rng.standard_normal(x.shape)
    batched = nn.BatchNorm(4)
    batched.zero_grads()
    out = batched.forward(x, training=True)
    dx = batched.backward(grad)
    solo = nn.BatchNorm(4)
    solo.zero_grads()
    for b in range(2):
        one = slice(b, b + 1)
        np.testing.assert_allclose(out[:, one], solo.forward(x[:, one], training=True),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(dx[:, one], solo.backward(grad[:, one]), rtol=1e-10,
                                   atol=1e-12)
    # running statistics move once per example, in batch order
    for name, value in solo.state().items():
        np.testing.assert_allclose(batched.state()[name], value, rtol=1e-12)


@pytest.mark.parametrize("layout", ["contiguous", "amt"])
def test_batch_norm_is_numpy_mean_and_var_bitwise(layout):
    # "amt": the strided (W, B, bins) view of (B, bins, W) windows AmtModel passes
    rng = np.random.default_rng(4)
    if layout == "amt":
        x = (rng.standard_normal((3, 12, 40)) * 3.0 + 1.0).transpose(2, 0, 1)
    else:
        x = rng.standard_normal((40, 3, 12)) * 3.0 + 1.0
    bn = nn.BatchNorm(12)
    bn.gamma[:], bn.beta[:] = np.linspace(0.5, 2.0, 12), np.linspace(-1.0, 1.0, 12)
    out = bn.forward(x, training=True)
    mean, var = x.mean(axis=0), x.var(axis=0)
    want = bn.gamma * ((x - mean) * (1.0 / np.sqrt(var + _BN_EPS))) + bn.beta
    assert out.tobytes() == want.tobytes()
    running_mean, running_var = np.zeros(12), np.ones(12)
    for m, v in zip(mean, var):
        running_mean += 0.1 * (m - running_mean)
        running_var += 0.1 * (v - running_var)
    assert np.array_equal(bn.running_mean, running_mean)
    assert np.array_equal(bn.running_var, running_var)
    inv_std = 1.0 / np.sqrt(running_var + _BN_EPS)
    want = bn.gamma * ((x - running_mean) * inv_std) + bn.beta
    assert bn.forward(x).tobytes() == want.tobytes()


def test_batch_norm_backward_params_accumulates_what_backward_does(rng):
    bn = nn.BatchNorm(3)
    bn.zero_grads()
    x, grad = rng.standard_normal((2, 6, 4, 3))
    with pytest.raises(RuntimeError, match="training=True"):
        bn.backward_params(grad)
    bn.forward(x, training=True)
    bn.backward(grad)
    full = bn.dgamma.copy(), bn.dbeta.copy()
    bn.zero_grads()
    bn.forward(x, training=True)  # backward consumed the cache
    assert bn.backward_params(grad) is None
    assert np.array_equal(bn.dgamma, full[0]) and np.array_equal(bn.dbeta, full[1])


def test_batch_norm_shape_check():
    with pytest.raises(ValueError):
        nn.BatchNorm(3).forward(np.zeros((4, 1, 2)), training=True)
    with pytest.raises(ValueError):  # one (N, F) example must come as the batch of one
        nn.BatchNorm(3).forward(np.zeros((4, 3)), training=True)


# ------------------------------------------------------------------ lstm

def test_lstm_zero_weights_give_zero_outputs(rng):
    lstm = nn.Lstm(3, 4, rng)
    for p in lstm.params().values():
        p[...] = 0.0
    out = lstm.forward(rng.standard_normal((6, 1, 3)))
    assert not out.any()


def test_lstm_single_step_closed_form():
    lstm = nn.Lstm(1, 1, np.random.default_rng(0))
    lstm.w_x[...] = np.array([[0.5, -0.3, 0.8, 0.2]])
    lstm.w_h[...] = 0.0  # first step has no recurrent term anyway
    lstm.b[...] = np.array([0.1, 0.2, -0.1, 0.0])
    x = np.array([[[2.0]]])
    out = lstm.forward(x)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    gate_in = sig(0.5 * 2 + 0.1)
    gate_cell = np.tanh(0.8 * 2 - 0.1)
    gate_out = sig(0.2 * 2 + 0.0)
    c = gate_in * gate_cell  # forget gate sees zero initial cell state
    assert out[0, 0, 0] == pytest.approx(gate_out * np.tanh(c), abs=1e-12)


def test_lstm_input_shape_check(rng):
    with pytest.raises(ValueError):
        nn.Lstm(3, 2, rng).forward(np.zeros((4, 1, 5)))


def test_bilstm_output_width_and_zero_weights(rng):
    bi = nn.BiLstm(3, 4, rng)
    out = bi.forward(rng.standard_normal((5, 2, 3)))
    assert out.shape == (5, 2, 8)
    for p in bi.params().values():
        p[...] = 0.0
    assert not bi.forward(rng.standard_normal((5, 2, 3))).any()


def test_bilstm_palindrome_symmetry(rng):
    # With tied directions, reading a palindrome backwards is the same
    # computation, so the two halves swap across the midpoint.
    bi = nn.BiLstm(2, 3, rng)
    for name, p in bi.fwd.params().items():
        bi.bwd.params()[name][...] = p
    row = rng.standard_normal((4, 2))
    x = np.vstack([row, row[::-1]])[:, None]  # length 8 palindrome, batch of one
    out = bi.forward(x)[:, 0]
    t_len = x.shape[0]
    for t in range(t_len):
        np.testing.assert_allclose(out[t, :3], out[t_len - 1 - t, 3:], atol=1e-12)


def masked_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loop_lstm(lstm, x, grad):
    """Forward and backward one step at a time, with one outer product per
    weight per step: the reference the hoisted Lstm must match.  Returns
    (hs, dx, dw_x, dw_h, db)."""
    t_len, h = x.shape[0], lstm.hidden_size
    gi, gf, gg, go, c, tanh_c, hs = (np.empty((t_len, h)) for _ in range(7))
    h_prev, c_prev = np.zeros(h), np.zeros(h)
    for t in range(t_len):
        a = x[t] @ lstm.w_x + lstm.b + h_prev @ lstm.w_h
        gi[t] = masked_sigmoid(a[:h])
        gf[t] = masked_sigmoid(a[h : 2 * h])
        gg[t] = np.tanh(a[2 * h : 3 * h])
        go[t] = masked_sigmoid(a[3 * h :])
        c[t] = gf[t] * c_prev + gi[t] * gg[t]
        tanh_c[t] = np.tanh(c[t])
        hs[t] = go[t] * tanh_c[t]
        h_prev, c_prev = hs[t], c[t]
    dx = np.empty_like(x)
    dw_x, dw_h, db = (np.zeros_like(p) for p in (lstm.w_x, lstm.w_h, lstm.b))
    dh_next, dc_next = np.zeros(h), np.zeros(h)
    for t in range(t_len - 1, -1, -1):
        dh = grad[t] + dh_next
        do = dh * tanh_c[t]
        dc = dh * go[t] * (1.0 - tanh_c[t] ** 2) + dc_next
        c_prev = c[t - 1] if t > 0 else np.zeros(h)
        di, df, dg = dc * gg[t], dc * c_prev, dc * gi[t]
        dc_next = dc * gf[t]
        da = np.concatenate([
            di * gi[t] * (1.0 - gi[t]),
            df * gf[t] * (1.0 - gf[t]),
            dg * (1.0 - gg[t] ** 2),
            do * go[t] * (1.0 - go[t]),
        ])
        h_prev = hs[t - 1] if t > 0 else np.zeros(h)
        dw_x += np.outer(x[t], da)
        dw_h += np.outer(h_prev, da)
        db += da
        dx[t] = da @ lstm.w_x.T
        dh_next = da @ lstm.w_h.T
    return hs, dx, dw_x, dw_h, db


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("input_size, hidden, t_len", [
    (1, 1, 1), (3, 4, 5), (257, 32, 47), (336, 16, 128),
])
def test_lstm_matches_per_step_loop(input_size, hidden, t_len):
    rng = np.random.default_rng(input_size + hidden + t_len)
    lstm = nn.Lstm(input_size, hidden, rng)
    lstm.zero_grads()
    x = rng.standard_normal((t_len, input_size))
    grad = rng.standard_normal((t_len, hidden))
    hs, dx, dw_x, dw_h, db = loop_lstm(lstm, x, grad)
    assert_close(lstm.forward(x[:, None], training=True)[:, 0], hs)
    assert_close(lstm.backward(grad[:, None])[:, 0], dx)
    assert_close(lstm.dw_x, dw_x)
    assert_close(lstm.dw_h, dw_h)
    assert_close(lstm.db, db)


def two_array_lstm_backward(lstm, grad):
    """Lstm.backward as it was with a factor array `fac` and a separate
    gate-gradient array `da`: the reference the in-place scaling must
    equal bitwise. Returns (dx, dw_x, dw_h, db) without touching lstm's
    gradient buffers."""
    x, gates, c, tanh_c, hs = lstm._backward_cache()
    t_len, batch, h = hs.shape
    i, f, g, o = (gates[..., k * h : (k + 1) * h] for k in range(4))
    c_prev = np.zeros_like(c)
    c_prev[1:] = c[:-1]
    h_prev = np.zeros_like(hs)
    h_prev[1:] = hs[:-1]
    fac = np.empty((t_len, batch, 4, h))
    fac[:, :, 0] = g * i * (1.0 - i)
    fac[:, :, 1] = c_prev * f * (1.0 - f)
    fac[:, :, 2] = i * (1.0 - g**2)
    fac[:, :, 3] = tanh_c * o * (1.0 - o)
    dc_dh = o * (1.0 - tanh_c**2)
    da = np.empty((t_len, batch, 4, h))
    da_rows = da.reshape(t_len, batch, 4 * h)
    w_h_t = lstm.w_h.T
    dh, dh_next, dc_next = np.empty((batch, h)), np.zeros((batch, h)), np.zeros((batch, h))
    dc_col = np.empty((batch, 1, h))
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
    dw_x = x.reshape(t_len * batch, -1).T @ da_flat
    dw_h = h_prev.reshape(t_len * batch, h).T @ da_flat
    db = da_flat.sum(axis=0)
    return (da_flat @ lstm.w_x.T).reshape(t_len, batch, -1), dw_x, dw_h, db


def np_dot_lstm_forward(lstm, x):
    """Lstm.forward as its own one-direction loop, one np.dot of the (B, H)
    states per step: the reference the stacked np.matmul of the shared
    recurrence must equal bitwise. Returns (gates, c, tanh_c, hs)."""
    t_len, batch, n_in = x.shape
    h = lstm.hidden_size
    gates = (x.reshape(t_len * batch, n_in) @ lstm.w_x + lstm.b).reshape(t_len, batch, 4 * h)
    c, tanh_c, hs = (np.empty((t_len, batch, h)) for _ in range(3))
    h_prev = c_prev = np.zeros((batch, h))
    rec, tanh_g, i_g = np.empty((batch, 4 * h)), np.empty((batch, h)), np.empty((batch, h))
    gi, gf, gg, go = (gates[..., k * h : (k + 1) * h] for k in range(4))
    for a, i_t, f_t, g_t, o_t, c_t, tanh_c_t, h_t in zip(gates, gi, gf, gg, go,
                                                        c, tanh_c, hs):
        a += np.dot(h_prev, lstm.w_h, out=rec)
        np.tanh(g_t, out=tanh_g)
        sigmoid_fn(a, out=a)
        np.copyto(g_t, tanh_g)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, tanh_g, out=i_g)
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(o_t, tanh_c_t, out=h_t)
        h_prev, c_prev = h_t, c_t
    return gates, c, tanh_c, hs


@pytest.mark.parametrize("t_len, batch, input_size, hidden", [
    (1, 1, 3, 2),
    (91, 6, 257, 32), (91, 6, 32, 32),  # the train_desk separator's two layers
])
def test_lstm_forward_is_bitwise_the_np_dot_loop(t_len, batch, input_size, hidden):
    rng = np.random.default_rng(t_len * batch + hidden)
    lstm = nn.Lstm(input_size, hidden, rng)
    lstm.zero_grads()
    x = rng.standard_normal((t_len, batch, input_size))
    hs = lstm.forward(x, training=True)
    _, gates, c, tanh_c, _ = lstm._backward_cache()
    want = np_dot_lstm_forward(lstm, x)
    for name, a, b in zip(("gates", "c", "tanh_c", "hs"), (gates, c, tanh_c, hs), want):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("t_len, batch, input_size, hidden", [
    (1, 1, 3, 2),
    (91, 6, 257, 32), (91, 6, 32, 32),  # the train_desk separator's two layers
])
def test_lstm_backward_is_bitwise_the_two_array_form(t_len, batch, input_size, hidden):
    rng = np.random.default_rng(t_len * batch + hidden)
    lstm = nn.Lstm(input_size, hidden, rng)
    lstm.zero_grads()
    x = rng.standard_normal((t_len, batch, input_size))
    grad = rng.standard_normal((t_len, batch, hidden))
    lstm.forward(x, training=True)
    want = two_array_lstm_backward(lstm, grad)
    lstm.forward(x, training=True)  # the reference consumed the cache
    got = (lstm.backward(grad), lstm.dw_x, lstm.dw_h, lstm.db)
    for name, a, b in zip(("dx", "dw_x", "dw_h", "db"), got, want):
        assert np.array_equal(a, b), name


def two_loop_forward(bi, x, training=False):
    """BiLstm.forward as two Lstm loops, fwd over x and then bwd over
    x[::-1]: the reference the fused one-loop BiLstm must equal bitwise."""
    h_f = bi.fwd.forward(x, training)
    h_b = bi.bwd.forward(x[::-1], training)[::-1]
    return np.concatenate([h_f, h_b], axis=-1)


def two_loop_backward(bi, grad):
    """BiLstm.backward after two_loop_forward."""
    h = bi.fwd.hidden_size
    dx_f = bi.fwd.backward(grad[..., :h])
    dx_b = bi.bwd.backward(grad[::-1, ..., h:])[::-1]
    return dx_f + dx_b


@pytest.mark.parametrize("t_len, batch, input_size, hidden", [
    (1, 1, 3, 2), (7, 2, 5, 3), (128, 4, 168, 16), (512, 3, 336, 64), (9, 1, 4, 5),
])
def test_bilstm_is_bitwise_the_two_lstm_loops(t_len, batch, input_size, hidden):
    rng = np.random.default_rng(t_len + batch)
    bi = nn.BiLstm(input_size, hidden, rng)
    bi.zero_grads()
    x = rng.standard_normal((t_len, batch, input_size))
    grad = rng.standard_normal((t_len, batch, 2 * hidden))
    out = bi.forward(x, training=True)
    dx = bi.backward(grad)
    grads = {k: g.copy() for k, g in bi.grads().items()}
    assert len(grads) == 6
    bi.zero_grads()
    assert np.array_equal(out, two_loop_forward(bi, x, training=True))
    assert np.array_equal(dx, two_loop_backward(bi, grad))
    for name, g in bi.grads().items():
        assert np.array_equal(grads[name], g), name
    assert np.array_equal(bi.forward(x), out)  # inference gives the training outputs


def test_bilstm_forward_is_its_pre_activations_then_its_recurrence(rng):
    bi = nn.BiLstm(5, 3, rng)
    x = rng.standard_normal((7, 2, 5))
    gates = bi._pre_activations(x)
    assert gates.shape == (7, 2, 2, 12)
    assert np.array_equal(bi._recurrence(gates)[0], bi.forward(x))
    # a batch of one-frame sequences: each frame's fwd and bwd pre-activations, in time order
    frames = bi._pre_activations(x[:, :1].transpose(1, 0, 2))[0]
    for d, lstm in enumerate((bi.fwd, bi.bwd)):
        np.testing.assert_allclose(frames[d], x[:, 0] @ lstm.w_x + lstm.b, rtol=1e-14)


def test_bilstm_checkpoint_keeps_the_two_loop_tensor_names(tmp_path, rng):
    bi = nn.BiLstm(4, 3, rng)
    assert list(bi.state()) == [f"{d}.{p}" for d in ("fwd", "bwd") for p in ("w_x", "w_h", "b")]
    nn.save_checkpoint(tmp_path / "bi.ssnn", bi.state())
    loaded = nn.BiLstm(4, 3, np.random.default_rng(99))
    loaded.load_state(nn.load_checkpoint(tmp_path / "bi.ssnn"))
    x = rng.standard_normal((6, 2, 4))
    assert np.array_equal(loaded.forward(x), two_loop_forward(loaded, x))
    np.testing.assert_allclose(loaded.forward(x), bi.forward(x), atol=1e-6)  # float32 storage


def test_bilstm_matches_per_step_loops(rng):
    bi = nn.BiLstm(6, 5, rng)
    bi.zero_grads()
    x = rng.standard_normal((9, 6))
    grad = rng.standard_normal((9, 10))
    hs_f, dx_f, *grads_f = loop_lstm(bi.fwd, x, grad[:, :5])
    hs_b, dx_b, *grads_b = loop_lstm(bi.bwd, x[::-1], grad[::-1, 5:])
    assert_close(bi.forward(x[:, None], training=True)[:, 0], np.hstack([hs_f, hs_b[::-1]]))
    assert_close(bi.backward(grad[:, None])[:, 0], dx_f + dx_b[::-1])
    for lstm, expected in ((bi.fwd, grads_f), (bi.bwd, grads_b)):
        for actual, want in zip((lstm.dw_x, lstm.dw_h, lstm.db), expected):
            assert_close(actual, want)


@pytest.mark.parametrize("input_size, hidden, t_len, batch", [
    (3, 4, 5, 2), (168, 16, 128, 4), (257, 32, 91, 6),
])
def test_lstm_batch_matches_per_sequence_loops(input_size, hidden, t_len, batch):
    rng = np.random.default_rng(input_size + batch)
    lstm = nn.Lstm(input_size, hidden, rng)
    lstm.zero_grads()
    x = rng.standard_normal((t_len, batch, input_size))
    grad = rng.standard_normal((t_len, batch, hidden))
    hs = lstm.forward(x, training=True)
    dx = lstm.backward(grad)
    sums = [np.zeros_like(p) for p in (lstm.w_x, lstm.w_h, lstm.db)]
    for b in range(batch):
        hs_b, dx_b, *grads_b = loop_lstm(lstm, x[:, b], grad[:, b])
        assert_close(hs[:, b], hs_b)
        assert_close(dx[:, b], dx_b)
        for total, g in zip(sums, grads_b):
            total += g
    for actual, want in zip((lstm.dw_x, lstm.dw_h, lstm.db), sums):
        assert_close(actual, want)


def test_lstm_single_sequence_is_the_batch_of_one(rng):
    # a (T, F) sequence has one form, (T, 1, F); the unbatched one is refused
    lstm = nn.Lstm(5, 3, rng)
    x = rng.standard_normal((7, 5))
    with pytest.raises(ValueError, match=r"\(T, B, 5\)"):
        lstm.forward(x, training=True)
    assert lstm.forward(x[:, None]).shape == (7, 1, 3)


LAG = _STACK_LAG


def separator_lstms(n_layers, seed=0):
    """Lstm layers at the separator's default sizes: 257 bins, hidden 64."""
    rng = np.random.default_rng(seed)
    return [nn.Lstm(257 if i == 0 else 64, 64, rng) for i in range(n_layers)]


def layer_after_layer(lstms, x):
    """The reference for lstm_stack: each layer's own forward in turn, from
    zero state, and the (L, 2, B, H) final (h, c) its cache holds."""
    final = []
    for lstm in lstms:
        x = lstm.forward(x, training=True)
        _, _, c, _, hs = lstm._cache
        final.append((hs[-1], c[-1]))
    return x, np.array(final)


@pytest.mark.parametrize("t_len", [1, LAG - 1, LAG, LAG + 1, 2 * LAG + 1, 2048])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_lstm_stack_is_bitwise_the_layers_one_after_the_other(n_layers, t_len):
    # Also checks, on the numpy in use, that a GEMM of 2 or more rows gives
    # the bits of the same rows in a taller one: layers above the first
    # project their inputs a chunk at a time.
    lstms = separator_lstms(n_layers)
    x = np.random.default_rng(t_len).standard_normal((t_len, 1, 257))
    state = np.zeros((n_layers, 2, 1, 64))
    out = nn.lstm_stack(lstms, x, state)
    want, final = layer_after_layer(lstms, x)
    assert np.array_equal(out, want)
    assert np.array_equal(state, final)


@pytest.mark.parametrize("batch, scale", [(3, 1.0), (1, 1e3), (3, 1e3)])
@pytest.mark.parametrize("n_layers", [1, 3])
def test_lstm_stack_halved_gates_keep_the_bits_of_the_layers(n_layers, batch, scale):
    # lstm_stack halves the i, f and o columns of w_h and rows of each
    # projection, where each layer's forward halves their sums inside
    # sigmoid. Scaled by 1e3, the pre-activations saturate tanh and the
    # logistics at their limits.
    lstms = separator_lstms(n_layers)
    x = scale * np.random.default_rng(batch).standard_normal((2 * LAG + 1, batch, 257))
    state = np.zeros((n_layers, 2, batch, 64))
    out = nn.lstm_stack(lstms, x, state)
    want, final = layer_after_layer(lstms, x)
    assert np.array_equal(out, want)
    assert np.array_equal(state, final)


@pytest.mark.parametrize("split", [1, 20, 39])
def test_lstm_carried_state_joins_two_halves_into_one_pass(split):
    lstms = separator_lstms(2, seed=1)
    x = np.random.default_rng(split).standard_normal((40, 2, 257))
    state = np.zeros((2, 2, 2, 64))
    halves = [nn.lstm_stack(lstms, x[:split], state), nn.lstm_stack(lstms, x[split:], state)]
    want, final = layer_after_layer(lstms, x)
    assert np.array_equal(np.concatenate(halves), want)
    assert np.array_equal(state, final)  # the state left is the last step's (h, c)


@pytest.mark.parametrize("split", [2, LAG + 1, 1000])
@pytest.mark.parametrize("n_layers", [2, 3])
def test_lstm_stack_carried_state_joins_two_blocks_into_one_pass(n_layers, split):
    lstms = separator_lstms(n_layers, seed=1)
    x = np.random.default_rng(split).standard_normal((1100, 1, 257))
    state = np.zeros((n_layers, 2, 1, 64))
    blocks = [nn.lstm_stack(lstms, x[:split], state), nn.lstm_stack(lstms, x[split:], state)]
    want, final = layer_after_layer(lstms, x)
    assert np.array_equal(np.concatenate(blocks), want)
    assert np.array_equal(state, final)


def test_lstm_stack_joins_a_one_frame_block_to_within_rounding(rng):
    # A 1-frame block at batch 1 is a 1-row input GEMM, which need not give
    # the bits of the same row in a taller GEMM.
    lstms = separator_lstms(2, seed=2)
    x = rng.standard_normal((40, 1, 257))
    state = np.zeros((2, 2, 1, 64))
    blocks = [nn.lstm_stack(lstms, x[:1], state), nn.lstm_stack(lstms, x[1:], state)]
    np.testing.assert_allclose(np.concatenate(blocks), layer_after_layer(lstms, x)[0],
                               rtol=0, atol=1e-12)


class RowCount(np.ndarray):
    """A weight matrix that records the rows of every matrix multiplied by it."""

    def __rmatmul__(self, other):
        self.rows.append(other.shape[0])
        return other @ self.view(np.ndarray)


@pytest.mark.parametrize("t_len", [1, 2, LAG + 1, 2 * LAG + 1, 3 * LAG])
def test_lstm_stack_projects_no_single_row_chunk_of_a_longer_block(t_len):
    lstms = separator_lstms(3)
    rows = []
    for lstm in lstms:
        lstm.w_x = lstm.w_x.view(RowCount)
        lstm.w_x.rows = rows
    nn.lstm_stack(lstms, np.zeros((t_len, 1, 257)), np.zeros((3, 2, 1, 64)))
    assert sum(rows) == 3 * t_len  # every layer projects each frame once
    assert all(2 <= r <= LAG for r in rows) or t_len == 1


def test_stack_chunks_cover_the_block_in_short_ranges():
    for t_len in range(1, 3 * LAG + 3):
        lag = min(LAG, t_len)
        chunks = _stack_chunks(t_len, lag)
        assert [a for a, _ in chunks] == [0] + [e for _, e in chunks[:-1]]
        assert chunks[-1][1] == t_len
        assert all(e - a <= lag for a, e in chunks)
        assert all(e - a >= 2 for a, e in chunks) or t_len == 1


@pytest.mark.parametrize("batch", [1, 2])
def test_stack_dense_gives_a_block_of_whole_chunks_the_bits_of_the_whole(rng, batch):
    head = nn.Dense(64, 257, rng)
    x = rng.standard_normal((3 * LAG + 9, batch, 64))
    whole = nn.stack_dense(head, x)
    np.testing.assert_allclose(whole, head.forward(x), rtol=0, atol=1e-12)
    for a, e in [(0, LAG), (LAG, 3 * LAG), (2 * LAG, 3 * LAG + 9)]:
        assert np.array_equal(nn.stack_dense(head, x[a:e]), whole[a:e])


def test_lstm_state_starts_where_it_is_given(rng):
    lstms = [nn.Lstm(3, 4, rng), nn.Lstm(4, 4, rng)]
    x = rng.standard_normal((5, 1, 3))
    state = np.zeros((2, 2, 1, 4))
    first = nn.lstm_stack(lstms, x, state)
    carried = state.copy()
    assert not np.array_equal(nn.lstm_stack(lstms, x, state), first)
    assert not np.array_equal(carried, 0.0)


def test_lstm_training_forward_refuses_a_state(rng):
    # only the inference stack carries a state; backward assumes zero state
    from stemscribe.separation import SeparatorModel

    sep = SeparatorModel(num_bins=9, hidden=4, layers=2)
    with pytest.raises(ValueError, match="zero state"):
        sep.forward_mask(rng.standard_normal((5, 1, 9)), training=True, state=sep.zero_state())
    with pytest.raises(ValueError, match=r"\(2, 2, 1, 4\) state"):
        nn.lstm_stack([sep.children["lstm0"], sep.children["lstm1"]], rng.standard_normal((5, 1, 9)),
                      np.zeros((2, 1, 4)))


def test_lstm_stack_refuses_an_input_or_layer_of_the_wrong_size(rng):
    lstms = [nn.Lstm(3, 4, rng), nn.Lstm(4, 4, rng)]
    state = np.zeros((2, 2, 1, 4))
    with pytest.raises(ValueError, match=r"\(T, B, 3\)"):
        nn.lstm_stack(lstms, rng.standard_normal((5, 3)), state)
    with pytest.raises(ValueError, match="map 4 states to 4"):
        nn.lstm_stack([lstms[0], nn.Lstm(4, 5, rng)], rng.standard_normal((5, 1, 3)), state)


def test_bilstm_batch_matches_single_sequences(rng):
    bi = nn.BiLstm(6, 5, rng)
    bi.zero_grads()
    x = rng.standard_normal((9, 3, 6))
    grad = rng.standard_normal((9, 3, 10))
    out = bi.forward(x, training=True)
    dx = bi.backward(grad)
    batched = {k: g.copy() for k, g in bi.grads().items()}
    bi.zero_grads()
    for b in range(3):
        assert_close(out[:, b : b + 1], bi.forward(x[:, b : b + 1], training=True))
        assert_close(dx[:, b : b + 1], bi.backward(grad[:, b : b + 1]))
    for name, g in bi.grads().items():
        assert_close(batched[name], g)


# ------------------------------------------------- conv / pool / dense

def test_conv_identity_kernel(rng):
    conv = nn.Conv2d(1, 1, (1, 1), rng)
    conv.w[...] = 1.0
    conv.b[...] = 0.0
    x = rng.standard_normal((2, 1, 5, 6))
    np.testing.assert_allclose(conv.forward(x), x, atol=1e-12)


def test_conv_shape_check(rng):
    conv = nn.Conv2d(2, 3, (3, 3), rng)
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ValueError, match=r"\(B, 2, H, W\)"):  # one image is the batch of one
        conv.forward(np.zeros((2, 4, 4)))


def test_maxpool_simple():
    pool = nn.MaxPool2d((2, 2))
    out = pool.forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 4.0


def test_maxpool_must_divide():
    with pytest.raises(ValueError):
        nn.MaxPool2d((2, 2)).forward(np.zeros((1, 3, 4)))


def argmax_maxpool(x, grad, pool):
    """The window-reshape/argmax max pool over one (C, H, W) image: the
    reference for values, gradients and the tie rule (first maximum in
    row-major window order wins).  Returns (output, input gradient)."""
    ph, pw = pool
    c, h, w = x.shape
    ho, wo = h // ph, w // pw
    windows = x.reshape(c, ho, ph, wo, pw).transpose(0, 1, 3, 2, 4).reshape(c, ho, wo, ph * pw)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    scattered = np.zeros((c, ho, wo, ph * pw))
    np.put_along_axis(scattered, idx[..., None], grad[..., None], axis=-1)
    dx = scattered.reshape(c, ho, wo, ph, pw).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
    return out, dx


@pytest.mark.parametrize("pool, shape", [
    ((2, 1), (3, 4, 84, 16)), ((2, 1), (1, 2, 6, 7)), ((2, 2), (2, 3, 4, 6)),
    ((3, 2), (2, 1, 6, 4)), ((1, 3), (1, 2, 5, 9)),
])
def test_maxpool_matches_argmax_pooling_with_exact_ties(pool, shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.integers(-2, 3, size=shape).astype(float)  # five levels: ties everywhere
    x[..., : pool[0], :] = 1.0  # whole windows of equal values
    pooled_shape = (*shape[:2], shape[2] // pool[0], shape[3] // pool[1])
    grad = rng.standard_normal(pooled_shape)
    layer = nn.MaxPool2d(pool)
    layer.zero_grads()
    out = layer.forward(x, training=True)
    dx = layer.backward(grad)
    for b in range(shape[0]):
        want_out, want_dx = argmax_maxpool(x[b], grad[b], pool)
        assert np.array_equal(out[b], want_out)
        assert np.array_equal(dx[b], want_dx)
    # one image is the B = 1 case
    single = nn.MaxPool2d(pool)
    single.zero_grads()
    assert np.array_equal(single.forward(x[0], training=True), out[0])
    assert np.array_equal(single.backward(grad[0]), dx[0])


def test_maxpool_gradient_keeps_signed_zeros_and_non_finite_values():
    # the winner gets grad's exact bits, every other cell +0.0
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8, 6))
    grad = rng.standard_normal((2, 3, 4, 6))
    grad.flat[::5], grad.flat[1::7], grad.flat[2::11] = -0.0, np.nan, -np.inf
    layer = nn.MaxPool2d((2, 1))
    layer.zero_grads()
    for g in (grad, np.asfortranarray(grad)):
        layer.forward(x, training=True)  # each backward consumes the cache
        dx = layer.backward(g)
        for b in range(x.shape[0]):
            assert dx[b].tobytes() == argmax_maxpool(x[b], grad[b], (2, 1))[1].tobytes()


def test_sigmoid_midpoint_and_saturation():
    s = nn.Sigmoid()
    assert s.forward(np.array([0.0]))[0] == 0.5
    out = s.forward(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(out))
    assert sigmoid_fn(np.array([0.0]))[0] == 0.5


@pytest.mark.parametrize("shape", [(0, 3), (5,), (4, 1, 3), (91, 6, 257), (2, _SIGMOID_CHUNK + 3),
                                   (_SIGMOID_CHUNK + 5, 2)])
def test_sigmoid_backward_is_bitwise_the_whole_grid_formula(shape):
    # 1 - y is made a few rows at a time: for rows of every size, the
    # product is (grad * y) * (1 - y), elementwise, bit for bit
    rng = np.random.default_rng(3)
    x, grad = rng.normal(0.0, 4.0, shape), rng.standard_normal(shape)
    layer = nn.Sigmoid()
    layer.zero_grads()
    for g in (grad, np.asfortranarray(grad)):
        y = layer.forward(x, training=True)
        want = g * y
        want *= 1.0 - y
        assert layer.backward(g).tobytes() == want.tobytes()
        assert np.array_equal(y, layer.forward(x))  # the output it handed out is left alone


def test_sigmoid_backward_holds_its_result_and_a_chunk():
    # beside the caller's grad and its own cached output, backward makes
    # only the gradient it returns and a _SIGMOID_CHUNK-element 1 - y;
    # a whole-grid 1 - y doubled its peak
    layer = nn.Sigmoid()
    layer.zero_grads()
    x = np.random.default_rng(4).standard_normal((91, 6, 257))
    layer.forward(x, training=True)
    grad = np.ones_like(x)
    tracemalloc.start()
    try:
        out = layer.backward(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 8 * _SIGMOID_CHUNK + 64 * 1024


def test_sigmoid_is_within_two_ulps_of_expit():
    from scipy.special import expit  # the reference only; src/ never imports scipy.special

    extremes = np.array([1e-300, 20.0, 37.0, 709.8, 745.0, 1e3, np.inf])
    draws = np.random.default_rng(12).normal(0.0, 8.0, 10**6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning, not only RuntimeWarning
        for x in (draws, np.concatenate([extremes, -extremes])):
            assert np.max(np.abs(sigmoid_fn(x) - expit(x))) <= 2.0**-51
        nan = sigmoid_fn(np.array([np.nan, 0.0, -0.0]))
        grid = np.linspace(-800.0, 800.0, 200_001)
        y = sigmoid_fn(grid)
        aliased = draws[:1000].copy()
        assert sigmoid_fn(aliased, out=aliased) is aliased
    assert np.isnan(nan[0]) and nan[1] == 0.5 and nan[2] == 0.5
    assert np.all(np.diff(y) >= 0.0) and y[0] == 0.0 and y[-1] == 1.0
    assert np.array_equal(aliased, sigmoid_fn(draws[:1000]))


def contract_cases():
    """(layer, training input, output shape) for each of the seven layer types."""
    rng = np.random.default_rng(4)
    return {
        "Dense": (nn.Dense(3, 2, rng), rng.standard_normal((4, 1, 3)), (4, 1, 2)),
        "Sigmoid": (nn.Sigmoid(), rng.standard_normal((4, 1, 3)), (4, 1, 3)),
        "BatchNorm": (nn.BatchNorm(3), rng.standard_normal((4, 1, 3)), (4, 1, 3)),
        "Conv2d": (nn.Conv2d(1, 2, (3, 3), rng), rng.standard_normal((1, 1, 4, 4)), (1, 2, 4, 4)),
        "MaxPool2d": (nn.MaxPool2d((2, 1)), rng.standard_normal((1, 1, 2, 2)), (1, 1, 1, 2)),
        "Lstm": (nn.Lstm(3, 4, rng), rng.standard_normal((5, 1, 3)), (5, 1, 4)),
        "BiLstm": (nn.BiLstm(3, 2, rng), rng.standard_normal((5, 2, 3)), (5, 2, 4)),
    }


@pytest.mark.parametrize("name", list(contract_cases()))
def test_inference_forward_keeps_no_backward_cache(name):
    layer, x, out_shape = contract_cases()[name]
    with pytest.raises(RuntimeError, match=rf"^{name}\.backward needs a preceding "
                                           r"forward\(x, training=True\)$"):
        layer.backward(np.ones(out_shape))  # no forward at all
    layer.forward(x, training=True)
    with pytest.raises(RuntimeError, match=rf"^{name}\.backward needs zero_grads\(\) first"):
        layer.backward(np.ones(out_shape))  # no gradient buffers yet
    layer.zero_grads()
    layer.backward(np.ones(out_shape))
    layer.forward(x, training=False)  # drops the training cache too
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="training=True"):
        layer.backward(np.ones(out_shape))


@pytest.mark.parametrize("name, method", [*((name, "backward") for name in contract_cases()),
                                          ("BatchNorm", "backward_params")])
def test_backward_consumes_the_training_cache(name, method):
    layer, x, out_shape = contract_cases()[name]
    backward = getattr(layer, method)
    layer.zero_grads()
    for _ in range(2):  # each training forward admits one backward
        layer.forward(x, training=True)
        backward(np.ones(out_shape))
        assert layer._cache is None
        with pytest.raises(RuntimeError, match=rf"^{name}\.backward needs a preceding "
                                               r"forward\(x, training=True\)$"):
            backward(np.ones(out_shape))
    layer.forward(x)  # an inference forward keeps nothing either
    assert layer._cache is None


def layers_of(model):
    yield model
    for child in model.children.values():
        yield from layers_of(child)


def test_a_training_step_leaves_no_activations_behind(rng):
    from stemscribe.separation import SeparatorModel, TrainingClip
    from stemscribe.transcription import AmtConfig, AmtExample, AmtModel

    sep = SeparatorModel(num_bins=9, hidden=4, layers=2)
    clips = [TrainingClip(*rng.random((4, 12, 9))) for _ in range(2)]
    amt = AmtModel(AmtConfig(conv_channels=2, hidden=3), n_bins=6, n_keys=5)
    windows = [AmtExample(rng.standard_normal((6, 8)), rng.integers(0, 2, (8, 5), dtype=np.uint8))
               for _ in range(3)]
    for model, batch in ((sep, clips), (amt, windows)):
        model.zero_grads()
        model.loss_and_grad(batch)
        assert [layer for layer in layers_of(model) if layer._cache is not None] == []
        buffers = {"d" + name for layer in layers_of(model) for name in layer.PARAMS}
        assert {path.rsplit(".", 1)[1] for path in held_activations(model)} == buffers


def held_activations(model):
    """Attribute paths of every ndarray a model's layers hold beyond their
    parameters and running statistics: gradient buffers count too."""
    own = {id(a) for a in model.state().values()}
    found = []

    def walk(obj, path):
        if isinstance(obj, np.ndarray):
            if id(obj) not in own:
                found.append(path)
        elif isinstance(obj, nn.Layer):
            for name, value in vars(obj).items():
                walk(value, f"{path}.{name}")
        elif isinstance(obj, (tuple, list)):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")
        elif isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{path}[{key!r}]")

    walk(model, type(model).__name__)
    return found


def test_inference_leaves_no_activations_behind(rng, tmp_path):
    from stemscribe import cli
    from stemscribe.config import PipelineConfig
    from stemscribe.separation import SeparatorModel
    from stemscribe.transcription import AmtConfig, AmtModel

    sep = SeparatorModel(num_bins=9, hidden=4, layers=2)
    sep.forward_mask(rng.standard_normal((12, 2, 9)), training=True)
    assert held_activations(sep)  # training keeps what backward needs
    with pytest.raises(RuntimeError, match=r"needs zero_grads\(\) first"):
        sep.backward(np.ones((12, 2, 9)))  # no gradient buffers yet
    sep.predict_mask(rng.standard_normal((12, 9)))
    assert held_activations(sep) == []
    amt = AmtModel(AmtConfig(conv_channels=2, hidden=3), n_bins=6, n_keys=5)
    windows = rng.standard_normal((3, 6, 8))
    amt.forward(windows, training=True)
    assert held_activations(amt)
    with pytest.raises(RuntimeError, match=r"^AmtModel\.backward needs zero_grads\(\) first"):
        amt.backward(np.ones((3, 8, 5)))
    amt.forward(windows)
    assert held_activations(amt) == []
    amt.forward(windows, training=True)
    amt.predict(rng.standard_normal((6, 20)), window=8, hop=4)
    assert held_activations(amt) == []
    # the models inference builds hold weights only, fresh or loaded
    cfg, path = PipelineConfig(), tmp_path / "model.ssnn"
    for build in (cli._amt_model, cli._separator_model):
        fresh = build(cfg, None)
        assert held_activations(fresh) == []
        nn.save_checkpoint(path, fresh.state())
        loaded = build(cfg, str(path))
        assert held_activations(loaded) == []
        loaded.zero_grads()  # training's first step creates the gradient buffers
        assert held_activations(loaded)


def test_dense_is_time_distributed(rng):
    # one weight set applied independently at every sequence step
    d = nn.Dense(3, 2, rng)
    x = rng.standard_normal((4, 3))
    batched = d.forward(x)
    rows = np.vstack([d.forward(x[t : t + 1]) for t in range(4)])
    np.testing.assert_allclose(batched, rows, atol=1e-12)


def test_conv_batch_matches_single_images(rng):
    conv = nn.Conv2d(2, 3, (3, 3), rng)
    conv.zero_grads()
    x = rng.standard_normal((4, 2, 6, 5))
    grad = rng.standard_normal((4, 3, 6, 5))
    out = conv.forward(x, training=True)
    dx = conv.backward(grad)
    batched = {k: g.copy() for k, g in conv.grads().items()}
    conv.zero_grads()
    for b in range(4):
        np.testing.assert_allclose(out[b : b + 1], conv.forward(x[b : b + 1], training=True),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(dx[b : b + 1], conv.backward(grad[b : b + 1]), rtol=1e-12,
                                   atol=1e-14)
    for name, g in conv.grads().items():
        np.testing.assert_allclose(batched[name], g, rtol=1e-10, atol=1e-12)


def test_dense_batch_is_time_and_batch_distributed(rng):
    d = nn.Dense(3, 2, rng)
    x = rng.standard_normal((4, 5, 3))
    out = d.forward(x, training=True)
    assert out.shape == (4, 5, 2)
    assert np.array_equal(out.reshape(20, 2), d.forward(x.reshape(20, 3)))


def test_dense_shape_check(rng):
    with pytest.raises(ValueError):
        nn.Dense(3, 2, rng).forward(np.zeros((4, 7)))


# ------------------------------------------------------------ focal loss

def test_focal_equals_bce_at_unit_alpha_zero_gamma(rng):
    p = rng.uniform(0.01, 0.99, size=1000)
    y = (rng.uniform(size=1000) > 0.7).astype(float)
    loss, _ = nn.focal_loss(p, y, alpha=1.0, gamma=0.0)
    bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert abs(loss - bce) < 1e-12


def test_focal_reference_points():
    loss, _ = nn.focal_loss(np.array(0.5), np.array(1.0), alpha=1.0, gamma=0.0)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    loss, _ = nn.focal_loss(np.array(0.9), np.array(1.0), alpha=0.35, gamma=3.0)
    assert loss == pytest.approx(0.35 * 0.1**3 * -np.log(0.9), abs=1e-12)
    assert loss == pytest.approx(3.688e-5, abs=1e-8)


def test_focal_vanishes_on_confident_correct():
    loss, _ = nn.focal_loss(np.array(1.0 - 1e-7), np.array(1.0), alpha=0.35, gamma=3.0)
    assert loss < 1e-20


def test_focal_class_flip_symmetry(rng):
    p = rng.uniform(0.01, 0.99, size=200)
    y = (rng.uniform(size=200) > 0.5).astype(float)
    a, _ = nn.focal_loss(p, y, alpha=0.5, gamma=2.0)
    b, _ = nn.focal_loss(1.0 - p, 1.0 - y, alpha=0.5, gamma=2.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_focal_gradient_matches_finite_differences(rng):
    params = {"alpha": 0.35, "gamma": 3.0}
    p = rng.uniform(0.05, 0.95, size=50)
    y = (rng.uniform(size=50) > 0.6).astype(float)
    _, grad = nn.focal_loss(p, y, **params)
    step = 1e-6
    for i in range(p.size):
        bumped = p.copy()
        bumped[i] += step
        lp, _ = nn.focal_loss(bumped, y, **params)
        bumped[i] -= 2 * step
        lm, _ = nn.focal_loss(bumped, y, **params)
        numeric = (lp - lm) / (2 * step)
        assert abs(grad[i] - numeric) / max(abs(numeric), 1e-6) < 1e-5


def plain_focal_loss(y_pred, y_true, alpha, gamma):
    """focal_loss as the formula reads, one temporary per operation."""
    inside = (y_pred > 1e-7) & (y_pred < 1.0 - 1e-7)
    p = np.clip(y_pred, 1e-7, 1.0 - 1e-7)
    pt = y_true * p + (1.0 - y_true) * (1.0 - p)
    one_minus = 1.0 - pt
    log_pt = np.log(pt)
    loss = float(np.mean(-alpha * one_minus**gamma * log_pt))
    if gamma > 0.0:
        dpt = alpha * (gamma * one_minus ** (gamma - 1.0) * log_pt - one_minus**gamma / pt)
    else:
        dpt = -alpha / pt
    return loss, dpt * (2.0 * y_true - 1.0) * inside / y_pred.size


@pytest.mark.parametrize("shape", [(16, 88), (5,), ()])
@pytest.mark.parametrize("alpha, gamma", [(0.35, 3.0), (1.0, 0.0), (0.5, 1.5)])
def test_focal_is_the_plain_formula_bitwise(shape, alpha, gamma):
    rng = np.random.default_rng(len(shape))
    y_pred = rng.uniform(0.0, 1.0, shape)
    y_pred = np.where(rng.uniform(0.0, 1.0, shape) < 0.1, 1.0, y_pred)  # clipped cells
    y_true = (rng.uniform(0.0, 1.0, shape) < 0.2).astype(float)
    loss, grad = nn.focal_loss(y_pred, y_true, alpha, gamma)
    want_loss, want_grad = plain_focal_loss(y_pred, y_true, alpha, gamma)
    assert loss == want_loss
    assert np.shape(grad) == np.shape(want_grad)
    assert np.asarray(grad).tobytes() == np.asarray(want_grad).tobytes()


def test_focal_shape_mismatch():
    with pytest.raises(ValueError):
        nn.focal_loss(np.zeros(3), np.zeros(4), 0.35, 3.0)


# ------------------------------------------------------------- optimizer

class Sgd:
    """Plain gradient descent: the simplest optimizer fit can drive."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, p in params.items():
            p -= self.lr * grads[name]


class Quadratic:
    """One-parameter model with loss (w - target)^2; exact gradient."""

    def __init__(self, w0=5.0, target=2.0):
        self.w = np.array([w0])
        self.dw = np.zeros(1)
        self.target = target

    def params(self):
        return {"w": self.w}

    def grads(self):
        return {"w": self.dw}

    def zero_grads(self):
        self.dw[...] = 0.0

    def loss_and_grad(self, batch):
        diff = self.w[0] - self.target
        self.dw += 2.0 * diff * len(batch)
        return float(diff * diff) * len(batch)


def test_sgd_zero_learning_rate_keeps_params():
    model = Quadratic()
    nn.fit(model, [0], Sgd(lr=0.0), epochs=3)
    assert model.w[0] == 5.0


def test_sgd_quadratic_monotone_decrease():
    model = Quadratic()
    trace = nn.fit(model, [0], Sgd(lr=0.1), epochs=50)
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert model.w[0] == pytest.approx(2.0, abs=1e-3)


def test_adam_first_step_is_signed_learning_rate():
    # bias correction makes the first update lr * g / (|g| + eps)
    model = Quadratic(w0=5.0)
    nn.fit(model, [0], nn.Adam(lr=0.01), epochs=1)
    assert model.w[0] == pytest.approx(5.0 - 0.01, abs=1e-6)


def test_adam_step_is_the_plain_update_bitwise():
    rng = np.random.default_rng(9)
    params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
    want = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    adam = nn.Adam(lr=5e-3)
    for t in range(1, 21):
        grads = {k: rng.standard_normal(v.shape) * 10.0 ** -t for k, v in params.items()}
        adam.step(params, grads)
        for k, g in grads.items():
            m[k] += (1.0 - 0.9) * (g - m[k])
            v2[k] += (1.0 - 0.999) * (g * g - v2[k])
            m_hat, v_hat = m[k] / (1.0 - 0.9**t), v2[k] / (1.0 - 0.999**t)
            want[k] -= 5e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert all(params[k].tobytes() == want[k].tobytes() for k in params)


@pytest.mark.filterwarnings("ignore:overflow")
def test_fit_divergence_raises_with_epoch():
    model = Quadratic(w0=1e160)  # squared loss overflows to inf immediately
    with pytest.raises(nn.DivergenceError) as exc:
        nn.fit(model, [0], Sgd(lr=1.0), epochs=3)
    assert exc.value.epoch == 0


def test_fit_batches_average_gradients():
    # two identical examples in one batch must move w exactly as far as one
    a = Quadratic()
    nn.fit(a, [0, 1], Sgd(lr=0.1), epochs=1, batch_size=2)
    b = Quadratic()
    nn.fit(b, [0], Sgd(lr=0.1), epochs=1, batch_size=1)
    assert a.w[0] == pytest.approx(b.w[0], abs=1e-12)


def test_fit_logs_epoch_time_and_mean_gradient_norm(caplog):
    model = Quadratic(w0=5.0, target=2.0)
    with caplog.at_level(logging.DEBUG, logger="stemscribe.nn.optim"):
        trace = nn.fit(model, [0, 1, 2], Sgd(lr=0.1), epochs=2, batch_size=2)
    records = [r.getMessage() for r in caplog.records if r.name == "stemscribe.nn.optim"]
    assert len(records) == 2
    # epoch 0: batches of two and one examples at w = 5 and w = 4.4, each with
    # the batch-averaged gradient 2 (w - 2): norms 6 and 4.8
    match = re.fullmatch(r"epoch 0: loss ([\d.]+), ([\d.]+) s, mean gradient norm ([\d.]+)",
                         records[0])
    assert match is not None, records[0]
    assert float(match[1]) == pytest.approx(trace[0], abs=1e-6)
    assert float(match[3]) == pytest.approx(5.4, rel=1e-5)
    assert 0.0 <= float(match[2]) < 10.0


def test_grad_check_linear_model_is_tight(rng):
    d = nn.Dense(3, 1, rng)

    class Linear:
        def params(self):
            return d.params()

        def grads(self):
            return d.grads()

        def zero_grads(self):
            d.zero_grads()

        def loss_and_grad(self, x):
            out = d.forward(x, training=True)
            target = 1.0
            diff = out[0, 0] - target
            d.backward(np.array([[2.0 * diff]]))
            return float(diff * diff)

    assert nn.grad_check(Linear(), rng.standard_normal((1, 3))) < 1e-7


# ------------------------------------------------------------ checkpoint

def test_checkpoint_roundtrip(tmp_path, rng):
    tensors = {
        "layer.w": rng.standard_normal((3, 4)),
        "layer.b": rng.standard_normal(4),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "model.ssnn"
    nn.save_checkpoint(path, tensors)
    loaded = nn.load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert np.abs(loaded[name] - arr).max() < 1e-6  # float32 storage


def test_an_interrupted_checkpoint_write_keeps_the_checkpoint_before(tmp_path, rng,
                                                                    monkeypatch):
    path = tmp_path / "model.ssnn"
    nn.save_checkpoint(path, {"w": rng.standard_normal((30, 40))})
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def cut_short(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", cut_short)
    with pytest.raises(OSError, match="no space"):
        nn.save_checkpoint(path, {"w": rng.standard_normal((30, 40))})
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.ssnn"]


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.ssnn"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(nn.CheckpointError):
        nn.load_checkpoint(p)


def test_restore_params_rejects_missing_keys(rng):
    d = nn.Dense(2, 2, rng)
    with pytest.raises(nn.CheckpointError):
        nn.restore_params(d.params(), {"w": np.zeros((2, 2))})  # no "b"


def test_restore_params_rejects_unexpected_keys(rng):
    d = nn.Dense(2, 2, rng)
    extra = {**d.params(), "w_extra": np.zeros(2)}
    with pytest.raises(nn.CheckpointError, match="w_extra"):
        nn.restore_params(d.params(), extra)


def test_checkpoint_tensor_names_and_order_are_pinned():
    # Saved .ssnn files hold exactly these names in exactly this order.
    from stemscribe.separation import SeparatorModel
    from stemscribe.transcription import AmtModel

    lstm = ["w_x", "w_h", "b"]
    assert list(SeparatorModel(num_bins=257).state()) == [
        "norm.gamma", "norm.beta",
        *(f"lstm{i}.{p}" for i in range(2) for p in lstm),
        "head.w", "head.b",
        "norm.running_mean", "norm.running_var",
    ]
    assert list(AmtModel().state()) == [
        "norm.gamma", "norm.beta", "conv.w", "conv.b",
        *(f"blstm.{d}.{p}" for d in ("fwd", "bwd") for p in lstm),
        "head.w", "head.b",
        "norm.running_mean", "norm.running_var",
    ]
