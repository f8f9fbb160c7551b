import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemscribe import nn
from stemscribe.audio_io import Waveform
from stemscribe.dsp import CqtConfig, num_cqt_frames
from stemscribe.nn import grad_check
from stemscribe.nn.loss import focal_loss
from stemscribe.pianoroll import N_KEYS, NoteEvent, PianoRoll
from stemscribe.transcription import (AmtConfig, AmtExample, AmtModel,
                                      SegmentedFeatures, build_training_pair,
                                      examples_from_pair, f1_from,
                                      frame_metrics, onset_metrics, segment,
                                      stitch_and_threshold, transcribe_waveform)

DT = CqtConfig().frame_time


def silent_roll(frames, frame_time=DT):
    return PianoRoll(np.zeros((N_KEYS, frames), dtype=np.uint8), frame_time)


# --------------------------------------------------------------- segment

@pytest.mark.parametrize("n, expected", [(512, 1), (1024, 3), (7752, 29)])
def test_segment_counts(n, expected):
    segs = segment(np.zeros((4, n)), window=512, hop=256)
    assert len(segs.segments) == expected
    assert segs.source_length == n


def test_segment_count_formula_property(rng):
    for _ in range(30):
        n = int(rng.integers(1, 3000))
        segs = segment(np.zeros((2, n)), window=512, hop=256)
        assert len(segs.segments) == (max(n, 512) - 512) // 256 + 1


def test_segment_short_input_zero_padded():
    feats = np.ones((3, 100))
    segs = segment(feats, window=512, hop=256)
    assert len(segs.segments) == 1
    assert segs.source_length == 100
    np.testing.assert_array_equal(segs.segments[0][:, :100], feats)
    assert not segs.segments[0][:, 100:].any()


def test_segment_slices_match_source(rng):
    feats = rng.standard_normal((5, 50))
    segs = segment(feats, window=16, hop=8)
    for i, s in enumerate(segs.segments):
        np.testing.assert_array_equal(s, feats[:, i * 8 : i * 8 + 16])


def test_segment_rejects_bad_input():
    with pytest.raises(ValueError):
        segment(np.zeros((4, 0)))
    with pytest.raises(ValueError):
        segment(np.zeros(16))
    with pytest.raises(ValueError):
        SegmentedFeatures([], 8, 10)
    with pytest.raises(ValueError):
        SegmentedFeatures([np.zeros((2, 4)), np.zeros((2, 5))], 8, 10)


# ---------------------------------------------------------------- stitch

def test_stitch_uniform_high_probability_is_all_ones():
    outputs = [np.full((8, N_KEYS), 0.9) for _ in range(3)]
    roll = stitch_and_threshold(outputs, 4, 16, 0.5, DT)
    assert roll.grid.all()
    assert roll.num_frames == 16


def test_stitch_threshold_is_strict():
    outputs = [np.full((4, N_KEYS), 0.5)]
    roll = stitch_and_threshold(outputs, 4, 4, 0.5, DT)
    assert not roll.grid.any()
    # frames 2-3 average (0.25 + 0.75) / 2 = 0.5 exactly: not above it
    outputs = [np.full((4, N_KEYS), 0.25), np.full((4, N_KEYS), 0.75)]
    roll = stitch_and_threshold(outputs, 2, 6, 0.5, DT)
    np.testing.assert_array_equal(roll.grid[0], [0, 0, 0, 0, 1, 1])


def test_stitch_averages_overlap():
    a = np.full((4, N_KEYS), 0.4)
    b = np.full((4, N_KEYS), 0.8)
    roll = stitch_and_threshold([a, b], 2, 6, 0.5, DT)
    # frames 0-1 see only 0.4; 2-3 average to 0.6; 4-5 see only 0.8
    np.testing.assert_array_equal(roll.grid[0], [0, 0, 1, 1, 1, 1])


def test_stitch_trims_and_zero_fills():
    outputs = [np.full((8, N_KEYS), 0.9)]
    roll = stitch_and_threshold(outputs, 4, 5, 0.5, DT)
    assert roll.num_frames == 5  # trimmed below the window width
    roll = stitch_and_threshold(outputs, 4, 12, 0.5, DT)
    assert roll.num_frames == 12
    assert roll.grid[:, :8].all() and not roll.grid[:, 8:].any()


def test_stitch_rejects_mismatched_windows():
    with pytest.raises(ValueError):
        stitch_and_threshold([np.zeros((4, N_KEYS)), np.zeros((5, N_KEYS))], 2, 8, 0.5, DT)
    with pytest.raises(ValueError):
        stitch_and_threshold([], 2, 8, 0.5, DT)


# ------------------------------------------- reference window placement
# Per-window loop references for segment, examples_from_pair and
# stitch_and_threshold; the strided window grid must match them exactly.

def loop_segment(features, window, hop):
    n = features.shape[1]
    if n < window:
        features = np.pad(features, ((0, 0), (0, window - n)))
    count = (features.shape[1] - window) // hop + 1
    return [features[:, i * hop : i * hop + window].copy() for i in range(count)]


def loop_targets(segments, hop, roll):
    window = segments[0].shape[1]
    targets = []
    for i in range(len(segments)):
        start = i * hop
        target = roll.grid[:, start : start + window]
        if target.shape[1] < window:
            target = np.pad(target, ((0, 0), (0, window - target.shape[1])))
        targets.append(target.T.astype(np.float64))
    return targets


def loop_stitch(outputs, hop_frames, source_length, threshold):
    window, n_keys = outputs[0].shape
    total = max(source_length, (len(outputs) - 1) * hop_frames + window)
    accum = np.zeros((total, n_keys))
    count = np.zeros(total)
    for i, probs in enumerate(outputs):
        start = i * hop_frames
        accum[start : start + window] += probs
        count[start : start + window] += 1.0
    covered = count > 0
    accum[covered] /= count[covered, None]
    grid = (accum.T > threshold).astype(np.uint8)
    return grid[:, :source_length]


def window_grid(max_n, max_window, max_cells=None):
    """(N, window, hop) with hop in 1..2*window; max_cells caps
    windows x window by capping N."""
    def with_n(window, hop):
        n = max_n
        if max_cells is not None:
            n = min(n, window + max(1, max_cells // window) * hop - 1)
        return st.tuples(st.integers(1, n), st.just(window), st.just(hop))

    return st.integers(1, max_window).flatmap(
        lambda w: st.integers(1, 2 * w).flatmap(lambda h: with_n(w, h)))


@given(window_grid(3000, 600), st.integers(1, 3))
@settings(max_examples=100)
def test_segment_matches_the_window_loop(grid, rows):
    n, window, hop = grid
    feats = np.random.default_rng(n).standard_normal((rows, n))
    segs = segment(feats, window, hop)
    expected = loop_segment(feats, window, hop)
    assert segs.segments.shape == (len(expected), rows, window)
    assert np.array_equal(segs.segments, expected)
    assert segs.source_length == n and not segs.segments.flags.writeable


@given(window_grid(600, 120))
@settings(max_examples=100)
def test_examples_cut_targets_like_the_window_loop(grid):
    n, window, hop = grid
    rng = np.random.default_rng(n)
    feats = rng.standard_normal((2, n))
    roll = PianoRoll(rng.integers(0, 2, (N_KEYS, n)), DT)
    examples = examples_from_pair(segment(feats, window, hop), roll)
    segments = loop_segment(feats, window, hop)
    targets = loop_targets(segments, hop, roll)
    assert len(examples) == len(targets)
    for ex, seg, target in zip(examples, segments, targets):
        assert np.array_equal(ex.features, seg)
        assert np.array_equal(ex.targets, target)
        assert ex.targets.dtype == target.dtype and ex.targets.strides == target.strides


@given(window_grid(3000, 600, max_cells=20_000),
       st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(0.0, 0.99)),
       st.booleans())
@settings(max_examples=100)
def test_stitch_matches_the_window_loop(grid, threshold, quantized):
    n, window, hop = grid
    count = (max(n, window) - window) // hop + 1
    rng = np.random.default_rng(n * window)
    shape = (count, window, N_KEYS)
    # quarter steps make many averages land exactly on the threshold
    probs = rng.integers(0, 5, shape) / 4.0 if quantized else rng.random(shape)
    outputs = list(probs)
    roll = stitch_and_threshold(outputs, hop, n, threshold, DT)
    assert np.array_equal(roll.grid, loop_stitch(outputs, hop, n, threshold))


def test_examples_reject_a_roll_of_another_length(rng):
    segs = segment(rng.standard_normal((6, 20)), window=8, hop=4)
    with pytest.raises(ValueError, match="roll has 19 frames"):
        examples_from_pair(segs, silent_roll(19))


# ----------------------------------------------------------------- model

TINY = AmtConfig(conv_channels=2, hidden=3)
TINY_SHAPE = {"n_bins": 6, "n_keys": 5}


def test_model_outputs_probabilities():
    model = AmtModel(TINY, seed=0, **TINY_SHAPE)
    probs = model.predict(np.random.default_rng(1).standard_normal((6, 9))[None])[0]
    assert probs.shape == (9, 5)
    assert ((probs > 0.0) & (probs < 1.0)).all()


def test_model_rejects_wrong_bin_count():
    with pytest.raises(ValueError, match=r"expected \(B, 6, W\) features, got \(1, 7, 9\)"):
        AmtModel(TINY, **TINY_SHAPE).predict(np.zeros((1, 7, 9)))


def test_models_refuse_an_unbatched_input():
    # one window or grid is the batch of one; only predict_mask adds that axis
    from stemscribe.separation import SeparatorModel

    with pytest.raises(ValueError, match=r"expected \(B, 6, W\) features, got \(6, 9\)"):
        AmtModel(TINY, **TINY_SHAPE).forward(np.zeros((6, 9)))
    separator = SeparatorModel(num_bins=5, hidden=3, layers=1)
    with pytest.raises(ValueError, match=r"expected \(N, B, 5\) input, got \(4, 5\)"):
        separator.forward_mask(np.zeros((4, 5)))
    assert separator.predict_mask(np.zeros((4, 5))).shape == (4, 5)


def test_config_validation():
    with pytest.raises(ValueError, match="pooling by 2 must divide n_bins 5"):
        AmtModel(TINY, n_bins=5)
    with pytest.raises(ValueError):
        AmtConfig(threshold=1.0)
    # the BiLSTM reads conv_channels x pooled bins per frame
    assert AmtModel(TINY, **TINY_SHAPE).blstm.fwd.w_x.shape[0] == 2 * 3


def test_model_gradient_matches_finite_differences(rng):
    model = AmtModel(TINY, seed=1, **TINY_SHAPE)
    features = np.random.default_rng(2).standard_normal((6, 7))
    targets = (np.random.default_rng(3).random((7, 5)) > 0.6).astype(float)
    rel = grad_check(model, [AmtExample(features, targets)])
    assert rel < 1e-4


def test_model_gradient_matches_finite_differences_on_a_batch():
    model = AmtModel(TINY, seed=1, **TINY_SHAPE)
    rng = np.random.default_rng(2)
    batch = [AmtExample(scale * rng.standard_normal((6, 7)),
                        (rng.random((7, 5)) > 0.6).astype(float)) for scale in (1.0, 30.0, 0.1)]
    assert grad_check(model, batch) < 1e-4


def per_example_loss_and_grad(model, ex):
    """One (bins, W) window through the layers as the batch of one: the
    per-example AmtModel.loss_and_grad that the batched one replaced, kept
    as the reference. Adds into the gradient buffers; returns the loss."""
    x = model.norm.forward(ex.features.T[:, None], True)[:, 0].T
    pooled = model.pool.forward(model.conv.forward(x[None, None], True), True)[0]
    c, b, w = pooled.shape
    seq = pooled.transpose(2, 0, 1).reshape(w, 1, c * b)
    probs = model.out.forward(model.head.forward(model.blstm.forward(seq, True), True), True)
    loss, grad = focal_loss(probs[:, 0], ex.targets, model.cfg.alpha, model.cfg.gamma)
    g = model.blstm.backward(model.head.backward(model.out.backward(grad[:, None])))
    g = model.conv.backward(model.pool.backward(g.reshape(w, c, b).transpose(1, 2, 0)[None]))
    model.norm.backward(g[0, 0].T[:, None])
    return loss


def accumulated(model, batch):
    """The per-batch gradient accumulation loop that fit ran before it
    batched: (summed loss, gradient buffers, checkpoint tensors)."""
    model.zero_grads()
    loss = 0.0
    for ex in batch:
        loss += per_example_loss_and_grad(model, ex)
    return loss, {k: g.copy() for k, g in model.grads().items()}, model.state()


def batched(model, batch):
    model.zero_grads()
    loss = model.loss_and_grad(batch)
    return loss, {k: g.copy() for k, g in model.grads().items()}, model.state()


def desk_windows(count, seed=0):
    """Windows at the train_desk sizes: 84 CQT bins by 128 frames."""
    rng = np.random.default_rng(seed)
    return [AmtExample(rng.standard_normal((84, 128)) - 3.0,
                       (rng.random((128, N_KEYS)) > 0.95).astype(float)) for _ in range(count)]


DESK = AmtConfig(conv_channels=4, hidden=16)


@pytest.mark.parametrize("count, rtol", [(1, 1e-12), (4, 1e-10)])
def test_batched_gradients_equal_accumulated_per_example_gradients(count, rtol):
    batch = desk_windows(count)
    want_loss, want_grads, want_state = accumulated(AmtModel(DESK, seed=5), batch)
    loss, grads, state = batched(AmtModel(DESK, seed=5), batch)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=rtol, atol=rtol * np.abs(g).max())
    for name, value in want_state.items():  # running statistics too
        np.testing.assert_allclose(state[name], value, rtol=1e-12, atol=1e-15)


def test_windows_of_very_different_scale_get_their_solo_outputs():
    # a batch norm pooling statistics over the batch would mix the two
    quiet, = desk_windows(1, seed=1)
    loud = AmtExample(1e3 * quiet.features + 40.0, quiet.targets)
    model = AmtModel(DESK, seed=2)
    together = model.forward(np.stack([quiet.features, loud.features]), training=True)
    for probs, ex in zip(together, (quiet, loud)):
        np.testing.assert_allclose(probs, model.forward(ex.features[None], training=True)[0],
                                   rtol=1e-10, atol=1e-12)
    inference = model.predict(np.stack([quiet.features, loud.features]))
    for probs, ex in zip(inference, (quiet, loud)):
        np.testing.assert_allclose(probs, model.predict(ex.features[None])[0], rtol=1e-10,
                                   atol=1e-12)


def test_model_state_round_trip(tmp_path):
    from stemscribe.nn import load_checkpoint, save_checkpoint
    model = AmtModel(TINY, seed=4, **TINY_SHAPE)
    x = np.random.default_rng(5).standard_normal((6, 8))[None]
    before = model.predict(x)
    path = tmp_path / "amt.ckpt"
    save_checkpoint(path, model.state())
    other = AmtModel(TINY, seed=99, **TINY_SHAPE)
    other.load_state(load_checkpoint(path))
    np.testing.assert_allclose(other.predict(x), before, atol=1e-6)


# ---------------------------------------------------------------- scores

def test_f1_reference_points():
    assert f1_from(0.7632, 0.5408) == pytest.approx(0.6330, abs=1e-4)
    assert f1_from(0.6824, 0.4583) == pytest.approx(0.5484, abs=1e-4)
    assert f1_from(0.0, 0.0) == 0.0
    assert f1_from(1.0, 1.0) == 1.0


def roll_with(pitch_frames, frames=30):
    roll = silent_roll(frames)
    for pitch, span in pitch_frames:
        roll.grid[pitch - 21, span] = 1
    return roll


def test_frame_metrics_perfect_prediction():
    truth = roll_with([(60, slice(2, 9)), (64, slice(4, 6))])
    s = frame_metrics(truth, truth)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    assert not s.undefined


def test_frame_metrics_hand_counts():
    truth = roll_with([(60, slice(0, 2))])          # pitch 60 at frames 0,1
    pred = roll_with([(60, slice(0, 1)), (62, slice(1, 2))])
    s = frame_metrics(pred, truth)
    # tp=1 (60@0), fp=1 (62@1), fn=1 (60@1)
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(0.5)
    assert s.f1 == pytest.approx(0.5)


def test_frame_metrics_silent_frames_do_not_dilute():
    truth_small = roll_with([(60, slice(0, 2))], frames=4)
    pred_small = roll_with([(60, slice(0, 1))], frames=4)
    truth_big = roll_with([(60, slice(0, 2))], frames=400)
    pred_big = roll_with([(60, slice(0, 1))], frames=400)
    assert frame_metrics(pred_small, truth_small) == frame_metrics(pred_big, truth_big)


def test_frame_metrics_empty_prediction_flags_precision():
    truth = roll_with([(60, slice(0, 5))])
    s = frame_metrics(silent_roll(30), truth)
    assert s.recall == 0.0 and s.precision == 0.0 and s.f1 == 0.0
    assert "precision" in s.undefined and "f1" in s.undefined


def test_frame_metrics_swap_exchanges_precision_and_recall():
    a = roll_with([(60, slice(0, 7)), (65, slice(3, 9))])
    b = roll_with([(60, slice(2, 7)), (70, slice(1, 4))])
    assert frame_metrics(a, b).precision == pytest.approx(frame_metrics(b, a).recall)


def test_frame_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        frame_metrics(silent_roll(10), silent_roll(11))


def test_onset_metrics_identical_rolls():
    roll = roll_with([(60, slice(5, 12)), (72, slice(2, 4))])
    s = onset_metrics(roll, roll, tolerance=0.0)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)


def test_onset_metrics_one_frame_shift_within_tolerance():
    truth = roll_with([(60, slice(10, 16))])
    pred = roll_with([(60, slice(11, 17))])
    s = onset_metrics(pred, truth, tolerance=0.05)  # shift ~23 ms
    assert s.f1 == 1.0


def test_onset_metrics_three_frame_shift_unmatched():
    truth = roll_with([(60, slice(10, 16))])
    pred = roll_with([(60, slice(13, 19))])
    s = onset_metrics(pred, truth, tolerance=0.05)  # shift ~70 ms
    assert s.f1 == 0.0 and s.precision == 0.0 and s.recall == 0.0


def test_onset_metrics_greedy_matches_each_onset_once():
    truth = roll_with([(60, slice(10, 12)), (60, slice(13, 15))])
    pred = roll_with([(60, slice(10, 12))])  # one prediction, two references
    s = onset_metrics(pred, truth, tolerance=0.2)
    assert s.precision == 1.0
    assert s.recall == pytest.approx(0.5)


def test_onset_metrics_rejects_timing_mismatch():
    a = silent_roll(10, 512 / 22050)
    b = silent_roll(10, 256 / 22050)
    with pytest.raises(ValueError):
        onset_metrics(a, b)


# -------------------------------------------------------------- pipeline

CQT_SMALL = CqtConfig()


def test_build_training_pair_silence_gives_zero_roll():
    audio = Waveform(np.zeros((1, 22050)), 22050)
    segs, roll = build_training_pair(audio, [], duration=1.0, window=16, hop_frames=8)
    n_frames = num_cqt_frames(22050, CQT_SMALL)
    assert segs.source_length == n_frames
    assert roll.num_frames == n_frames
    assert not roll.grid.any()


def test_build_training_pair_rasterizes_notes_onto_frames():
    audio = Waveform(np.zeros((1, 22050)), 22050)
    note = NoteEvent(60, 0.2, 0.5)
    _, roll = build_training_pair(audio, [note], duration=1.0, window=16, hop_frames=8)
    dt = 512 / 22050
    first = int(np.floor(0.2 / dt + 0.5))
    last = int(np.floor(0.5 / dt + 0.5))
    np.testing.assert_array_equal(np.flatnonzero(roll.grid[39]),
                                  np.arange(first, last + 1))


def test_build_training_pair_pads_short_audio_to_duration():
    audio = Waveform(np.zeros((1, 4000)), 22050)
    segs, roll = build_training_pair(audio, [], duration=1.0, window=16, hop_frames=8)
    assert segs.source_length == num_cqt_frames(22050, CQT_SMALL)


def test_examples_align_targets_to_windows(rng):
    feats = rng.standard_normal((6, 20))
    segs = segment(feats, window=8, hop=4)
    roll = silent_roll(20)
    roll.grid[39, 18:20] = 1
    examples = examples_from_pair(segs, roll)
    assert len(examples) == len(segs.segments)
    for ex in examples:
        assert ex.targets.shape == (8, N_KEYS)
    # last window starts at frame 12 and sees the active tail at 18..19
    assert examples[-1].targets[6:8, 39].all()
    assert not examples[-1].targets[:6, 39].any()


def test_examples_zero_pad_roll_tail(rng):
    # a sub-window clip pads features to one window; targets must follow
    feats = rng.standard_normal((6, 10))
    segs = segment(feats, window=16, hop=8)
    roll = silent_roll(10)
    roll.grid[39, :] = 1
    (example,) = examples_from_pair(segs, roll)
    assert example.targets.shape == (16, N_KEYS)
    assert example.targets[:10, 39].all()
    assert not example.targets[10:, 39].any()


def test_transcribe_waveform_matches_source_frame_count(rng):
    audio = Waveform(rng.standard_normal((1, 6615)) * 0.1, 22050)
    model = AmtModel(AmtConfig(conv_channels=2, hidden=4), seed=0, n_bins=84)
    roll = transcribe_waveform(audio, model, window=8, hop_frames=4)
    assert roll.num_frames == num_cqt_frames(6615, CQT_SMALL)
    assert roll.frame_time == pytest.approx(512 / 22050)


def test_train_amt_loss_decreases(rng):
    cfg = AmtConfig(conv_channels=2, hidden=4, alpha=0.35, gamma=2.0)
    model = AmtModel(cfg, seed=0, n_bins=6)
    feats = rng.standard_normal((6, 12))
    segs = segment(feats, window=6, hop=3)
    roll = silent_roll(12)
    roll.grid[39, 2:9] = 1
    trace = nn.fit(model, examples_from_pair(segs, roll), nn.Adam(lr=5e-3), epochs=5,
                   batch_size=10, rng=np.random.default_rng(0))
    assert len(trace) == 5
    assert all(np.isfinite(trace))
    assert trace[-1] < trace[0]
