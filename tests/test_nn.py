import logging
import re

import numpy as np
import pytest

from stemscribe import nn
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
    out = batched.forward(x, training=True)
    dx = batched.backward(grad)
    solo = nn.BatchNorm(4)
    for b in range(2):
        one = slice(b, b + 1)
        np.testing.assert_allclose(out[:, one], solo.forward(x[:, one], training=True),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(dx[:, one], solo.backward(grad[:, one]), rtol=1e-10,
                                   atol=1e-12)
    # running statistics move once per example, in batch order
    for name, value in solo.state().items():
        np.testing.assert_allclose(batched.state()[name], value, rtol=1e-12)


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
    x = rng.standard_normal((t_len, input_size))
    grad = rng.standard_normal((t_len, hidden))
    hs, dx, dw_x, dw_h, db = loop_lstm(lstm, x, grad)
    assert_close(lstm.forward(x[:, None], training=True)[:, 0], hs)
    assert_close(lstm.backward(grad[:, None])[:, 0], dx)
    assert_close(lstm.dw_x, dw_x)
    assert_close(lstm.dw_h, dw_h)
    assert_close(lstm.db, db)


def test_bilstm_matches_per_step_loops(rng):
    bi = nn.BiLstm(6, 5, rng)
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


def test_bilstm_batch_matches_single_sequences(rng):
    bi = nn.BiLstm(6, 5, rng)
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
    out = layer.forward(x, training=True)
    dx = layer.backward(grad)
    for b in range(shape[0]):
        want_out, want_dx = argmax_maxpool(x[b], grad[b], pool)
        assert np.array_equal(out[b], want_out)
        assert np.array_equal(dx[b], want_dx)
    # one image is the B = 1 case
    single = nn.MaxPool2d(pool)
    assert np.array_equal(single.forward(x[0], training=True), out[0])
    assert np.array_equal(single.backward(grad[0]), dx[0])


def test_sigmoid_midpoint_and_saturation():
    s = nn.Sigmoid()
    assert s.forward(np.array([0.0]))[0] == 0.5
    out = s.forward(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(out))
    assert sigmoid_fn(np.array([0.0]))[0] == 0.5


def contract_cases():
    """(layer, training input, output shape) for each of the six layer types."""
    rng = np.random.default_rng(4)
    return {
        "Dense": (nn.Dense(3, 2, rng), rng.standard_normal((4, 1, 3)), (4, 1, 2)),
        "Sigmoid": (nn.Sigmoid(), rng.standard_normal((4, 1, 3)), (4, 1, 3)),
        "BatchNorm": (nn.BatchNorm(3), rng.standard_normal((4, 1, 3)), (4, 1, 3)),
        "Conv2d": (nn.Conv2d(1, 2, (3, 3), rng), rng.standard_normal((1, 1, 4, 4)), (1, 2, 4, 4)),
        "MaxPool2d": (nn.MaxPool2d((2, 1)), rng.standard_normal((1, 1, 2, 2)), (1, 1, 1, 2)),
        "Lstm": (nn.Lstm(3, 4, rng), rng.standard_normal((5, 1, 3)), (5, 1, 4)),
    }


@pytest.mark.parametrize("name", list(contract_cases()))
def test_inference_forward_keeps_no_backward_cache(name):
    layer, x, out_shape = contract_cases()[name]
    with pytest.raises(RuntimeError, match=rf"^{name}\.backward needs a preceding "
                                           r"forward\(x, training=True\)$"):
        layer.backward(np.ones(out_shape))  # no forward at all
    layer.forward(x, training=True)
    layer.backward(np.ones(out_shape))
    layer.forward(x, training=False)  # drops the training cache too
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="training=True"):
        layer.backward(np.ones(out_shape))


def held_activations(model):
    """Attribute paths of every ndarray a model's layers hold beyond their
    parameters, gradient buffers and running statistics."""
    own = {id(a) for a in (*model.state().values(), *model.grads().values())}
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


def test_inference_leaves_no_activations_behind(rng):
    from stemscribe.separation import SeparatorModel
    from stemscribe.transcription import AmtConfig, AmtModel

    sep = SeparatorModel(num_bins=9, hidden=4, layers=2)
    sep.forward_mask(rng.standard_normal((12, 2, 9)), training=True)
    assert held_activations(sep)  # training keeps what backward needs
    sep.predict_mask(rng.standard_normal((12, 9)))
    assert held_activations(sep) == []
    amt = AmtModel(AmtConfig(n_bins=6, conv_channels=2, hidden=3, n_keys=5))
    windows = rng.standard_normal((3, 6, 8))
    amt.forward(windows, training=True)
    assert held_activations(amt)
    amt.predict(windows)
    assert held_activations(amt) == []


def test_dense_is_time_distributed(rng):
    # one weight set applied independently at every sequence step
    d = nn.Dense(3, 2, rng)
    x = rng.standard_normal((4, 3))
    batched = d.forward(x)
    rows = np.vstack([d.forward(x[t : t + 1]) for t in range(4)])
    np.testing.assert_allclose(batched, rows, atol=1e-12)


def test_conv_batch_matches_single_images(rng):
    conv = nn.Conv2d(2, 3, (3, 3), rng)
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
    loss, _ = nn.focal_loss(p, y, nn.FocalLossParams(alpha=1.0, gamma=0.0))
    bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert abs(loss - bce) < 1e-12


def test_focal_reference_points():
    loss, _ = nn.focal_loss(np.array(0.5), np.array(1.0),
                            nn.FocalLossParams(alpha=1.0, gamma=0.0))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    loss, _ = nn.focal_loss(np.array(0.9), np.array(1.0),
                            nn.FocalLossParams(alpha=0.35, gamma=3.0))
    assert loss == pytest.approx(0.35 * 0.1**3 * -np.log(0.9), abs=1e-12)
    assert loss == pytest.approx(3.688e-5, abs=1e-8)


def test_focal_vanishes_on_confident_correct():
    loss, _ = nn.focal_loss(np.array(1.0 - 1e-7), np.array(1.0),
                            nn.FocalLossParams())
    assert loss < 1e-20


def test_focal_class_flip_symmetry(rng):
    p = rng.uniform(0.01, 0.99, size=200)
    y = (rng.uniform(size=200) > 0.5).astype(float)
    params = nn.FocalLossParams(alpha=0.5, gamma=2.0)
    a, _ = nn.focal_loss(p, y, params)
    b, _ = nn.focal_loss(1.0 - p, 1.0 - y, params)
    assert a == pytest.approx(b, abs=1e-12)


def test_focal_gradient_matches_finite_differences(rng):
    params = nn.FocalLossParams(alpha=0.35, gamma=3.0)
    p = rng.uniform(0.05, 0.95, size=50)
    y = (rng.uniform(size=50) > 0.6).astype(float)
    _, grad = nn.focal_loss(p, y, params)
    step = 1e-6
    for i in range(p.size):
        bumped = p.copy()
        bumped[i] += step
        lp, _ = nn.focal_loss(bumped, y, params)
        bumped[i] -= 2 * step
        lm, _ = nn.focal_loss(bumped, y, params)
        numeric = (lp - lm) / (2 * step)
        assert abs(grad[i] - numeric) / max(abs(numeric), 1e-6) < 1e-5


def test_focal_params_validated():
    with pytest.raises(ValueError):
        nn.FocalLossParams(alpha=0.0)
    with pytest.raises(ValueError):
        nn.FocalLossParams(alpha=1.5)
    with pytest.raises(ValueError):
        nn.FocalLossParams(gamma=-0.1)
    nn.FocalLossParams(alpha=1.0)  # closed right end admits plain BCE


def test_focal_shape_mismatch():
    with pytest.raises(ValueError):
        nn.focal_loss(np.zeros(3), np.zeros(4))


# ------------------------------------------------------------- optimizer

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
    nn.fit(model, [0], nn.Sgd(lr=0.0), epochs=3)
    assert model.w[0] == 5.0


def test_sgd_quadratic_monotone_decrease():
    model = Quadratic()
    trace = nn.fit(model, [0], nn.Sgd(lr=0.1), epochs=50)
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert model.w[0] == pytest.approx(2.0, abs=1e-3)


def test_adam_first_step_is_signed_learning_rate():
    # bias correction makes the first update lr * g / (|g| + eps)
    model = Quadratic(w0=5.0)
    nn.fit(model, [0], nn.Adam(lr=0.01), epochs=1)
    assert model.w[0] == pytest.approx(5.0 - 0.01, abs=1e-6)


@pytest.mark.filterwarnings("ignore:overflow")
def test_fit_divergence_raises_with_epoch():
    model = Quadratic(w0=1e160)  # squared loss overflows to inf immediately
    with pytest.raises(nn.DivergenceError) as exc:
        nn.fit(model, [0], nn.Sgd(lr=1.0), epochs=3)
    assert exc.value.epoch == 0


def test_fit_batches_average_gradients():
    # two identical examples in one batch must move w exactly as far as one
    a = Quadratic()
    nn.fit(a, [0, 1], nn.Sgd(lr=0.1), epochs=1, batch_size=2)
    b = Quadratic()
    nn.fit(b, [0], nn.Sgd(lr=0.1), epochs=1, batch_size=1)
    assert a.w[0] == pytest.approx(b.w[0], abs=1e-12)


def test_fit_logs_epoch_time_and_mean_gradient_norm(caplog):
    model = Quadratic(w0=5.0, target=2.0)
    with caplog.at_level(logging.DEBUG, logger="stemscribe.nn.optim"):
        trace = nn.fit(model, [0, 1, 2], nn.Sgd(lr=0.1), epochs=2, batch_size=2)
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
