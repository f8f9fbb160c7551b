import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemscribe import nn, separation, synth
from stemscribe.audio_io import Waveform, WavReader, read_wav, write_wav
from stemscribe.bss_metrics import si_sdr
from stemscribe.dsp import StftConfig, istft, log_magnitude
from stemscribe.separation import (SeparatorModel, SourceSet, TrainingClip,
                                   analysis_spectrogram, apply_mask, ideal_ratio_mask,
                                   make_training_clip, mixture_of, oracle_masks, remix,
                                   separate, separate_blocks, sum_accompaniment)

CFG = StftConfig()


def toy_sources(duration=0.5, sr=8000, seed=0):
    return synth.make_source_set(duration, sr, seed)


def const_set(arrays, sr=8000):
    return SourceSet(**{
        name: Waveform(np.array([arr], dtype=float), sr)
        for name, arr in zip(("vocals", "bass", "drums", "other"), arrays)
    })


# ------------------------------------------------------------ source sets

def test_source_set_alignment_enforced():
    with pytest.raises(ValueError):
        SourceSet(
            vocals=Waveform(np.zeros((1, 10)), 8000),
            bass=Waveform(np.zeros((1, 11)), 8000),
            drums=Waveform(np.zeros((1, 10)), 8000),
            other=Waveform(np.zeros((1, 10)), 8000),
        )


def test_sum_accompaniment_zeros_and_known_values():
    s = const_set([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert not sum_accompaniment(s).samples.any()
    s = const_set([[9.0, 9.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(sum_accompaniment(s).samples, [[2.0, 2.0]])


def test_mixture_is_vocals_plus_accompaniment():
    s = toy_sources()
    mix = mixture_of(s)
    expected = s.vocals.samples + sum_accompaniment(s).samples
    np.testing.assert_allclose(mix.samples, expected, atol=1e-6)


# ----------------------------------------------------------------- remix

def test_remix_single_set_scales_each_stem_by_one_drawn_gain():
    # the targets are the scaled stems, so each stem's gain can be recovered
    s = toy_sources()
    mix, targets = remix([s], rng=np.random.default_rng(5))
    gains = []
    for name, stem in s.stems().items():
        nonzero = stem.samples != 0
        ratio = targets.stems()[name].samples[nonzero] / stem.samples[nonzero]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        gains.append(ratio[0])
    assert all(separation.GAIN_LOW <= g <= separation.GAIN_HIGH for g in gains)
    assert len(set(gains)) == 4  # a gain per stem
    weighted = sum(g * stem.samples for g, stem in zip(gains, s.stems().values()))
    np.testing.assert_allclose(mix.samples, weighted, atol=1e-12)


def test_remix_single_set_unit_gains(monkeypatch):
    monkeypatch.setattr(separation, "GAIN_LOW", 1.0)
    monkeypatch.setattr(separation, "GAIN_HIGH", 1.0)
    s = toy_sources()
    mix, targets = remix([s], rng=0)
    np.testing.assert_allclose(mix.samples, mixture_of(s).samples, atol=1e-12)


def test_remix_zero_gains_silent(monkeypatch):
    monkeypatch.setattr(separation, "GAIN_LOW", 0.0)
    monkeypatch.setattr(separation, "GAIN_HIGH", 0.0)
    mix, _ = remix([toy_sources()], rng=0)
    assert not mix.samples.any()


def test_remix_deterministic_under_seed():
    sets = [toy_sources(seed=i) for i in range(3)]
    a, _ = remix(sets, rng=np.random.default_rng(42))
    b, _ = remix(sets, rng=np.random.default_rng(42))
    assert a.samples.tobytes() == b.samples.tobytes()


def test_remix_mixture_equals_target_sum():
    mix, targets = remix([toy_sources(seed=i) for i in range(2)], rng=7)
    total = sum(w.samples for w in targets.stems().values())
    np.testing.assert_allclose(mix.samples, total, atol=1e-12)


def test_remix_empty_rejected():
    with pytest.raises(ValueError):
        remix([], rng=0)


# ----------------------------------------------------------------- masks

def random_spec(rng, frames=6):
    """A random complex (frames, bins) grid."""
    shape = (frames, CFG.num_bins)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_apply_mask_identity_and_zero(rng):
    spec = random_spec(rng)
    ones = apply_mask(np.ones(spec.shape), spec)
    np.testing.assert_array_equal(ones, spec)
    zeros = apply_mask(np.zeros(spec.shape), spec)
    assert not zeros.any()


def test_apply_mask_shape_check(rng):
    spec = random_spec(rng)
    with pytest.raises(ValueError):
        apply_mask(np.ones((2, 2)), spec)


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_mask_complementarity(seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    m = rng.uniform(0, 1, size=spec.shape)
    recombined = apply_mask(m, spec) + apply_mask(1.0 - m, spec)
    assert np.abs(recombined - spec).max() < 1e-9


def test_ideal_ratio_mask_values():
    t = np.array([[1.0, 3.0, 0.0, 2.0]])
    r = np.array([[0.0, 1.0, 0.0, 2.0]])
    np.testing.assert_allclose(ideal_ratio_mask(t, r), [[1.0, 0.75, 0.0, 0.5]])
    with pytest.raises(ValueError):
        ideal_ratio_mask(np.zeros((1, 2)), np.zeros((2, 1)))


# ----------------------------------------------------------------- model

def test_model_masks_lie_in_unit_interval(rng):
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=8, layers=2, seed=0)
    spec = random_spec(rng)
    mask = model.predict_mask(log_magnitude(np.abs(spec)))
    assert mask.shape == spec.shape
    assert mask.min() >= 0.0 and mask.max() <= 1.0


def test_model_loss_matches_direct_formula(rng):
    # independent recomputation of the L1 objective from the emitted mask
    model = SeparatorModel(num_bins=5, hidden=4, layers=1, seed=3)
    clip = TrainingClip(
        log_mag=rng.standard_normal((6, 5)),
        mix_mag=rng.uniform(0.1, 1.0, (6, 5)),
        vocal_mag=rng.uniform(0.0, 1.0, (6, 5)),
        accomp_mag=rng.uniform(0.0, 1.0, (6, 5)),
    )
    mask = model.forward_mask(clip.log_mag[:, None], training=True)[:, 0]
    expected = (np.abs(mask * clip.mix_mag - clip.vocal_mag).mean()
                + np.abs((1 - mask) * clip.mix_mag - clip.accomp_mag).mean())
    model.zero_grads()
    assert model.loss_and_grad([clip]) == pytest.approx(expected, rel=1e-9)


def test_model_loss_zero_when_mask_is_exact(rng):
    # targets manufactured from the model's own mask leave no residual
    model = SeparatorModel(num_bins=5, hidden=4, layers=1, seed=0)
    log_mag = rng.standard_normal((4, 5))
    mix = rng.uniform(0.5, 1.0, (4, 5))
    mask = model.forward_mask(log_mag[:, None], training=True)[:, 0]  # batch-stat path
    clip = TrainingClip(log_mag, mix, mask * mix, (1 - mask) * mix)
    model.zero_grads()
    assert model.loss_and_grad([clip]) == pytest.approx(0.0, abs=1e-12)


def test_model_gradients(rng):
    model = SeparatorModel(num_bins=5, hidden=4, layers=2, seed=0)
    mix = rng.uniform(0.2, 1.0, (6, 5))
    vocal = rng.uniform(0, 1, (6, 5)) * mix
    clip = TrainingClip(np.log10(mix), mix, vocal, mix - vocal)
    assert nn.grad_check(model, [clip]) < 1e-4


def test_model_gradients_on_a_batch(rng):
    model = SeparatorModel(num_bins=5, hidden=4, layers=2, seed=0)
    batch = []
    for scale in (1.0, 50.0):
        mix = scale * rng.uniform(0.2, 1.0, (6, 5))
        vocal = rng.uniform(0, 1, (6, 5)) * mix
        batch.append(TrainingClip(np.log10(mix), mix, vocal, mix - vocal))
    assert nn.grad_check(model, batch) < 1e-4


def per_clip_loss_and_grad(model, clip):
    """The per-clip SeparatorModel.loss_and_grad that the batched one
    replaced, kept as the reference: adds into the gradient buffers and
    returns the loss."""
    mask = model.forward_mask(clip.log_mag[:, None], training=True)[:, 0]
    d_vocal = mask * clip.mix_mag - clip.vocal_mag
    d_accomp = (1.0 - mask) * clip.mix_mag - clip.accomp_mag
    loss = float(np.abs(d_vocal).mean() + np.abs(d_accomp).mean())
    model.backward(((np.sign(d_vocal) - np.sign(d_accomp)) * clip.mix_mag / d_vocal.size)[:, None])
    return loss


def desk_clips(count, seed=0):
    """Clips at the train_desk sizes: 91 frames of 257 bins."""
    rng = np.random.default_rng(seed)
    clips = []
    for _ in range(count):
        mix = rng.uniform(0.0, 2.0, (91, 257))
        vocal = rng.uniform(0.0, 1.0, mix.shape) * mix
        clips.append(TrainingClip(log_magnitude(mix), mix, vocal, mix - vocal))
    return clips


@pytest.mark.parametrize("count, rtol", [(1, 1e-12), (6, 1e-10)])
def test_batched_gradients_equal_accumulated_per_clip_gradients(count, rtol):
    clips = desk_clips(count)
    results = []
    for step in ("per clip", "batched"):
        model = SeparatorModel(num_bins=257, hidden=32, layers=2, seed=3)
        model.zero_grads()
        if step == "per clip":
            loss = sum(per_clip_loss_and_grad(model, clip) for clip in clips)
        else:
            loss = model.loss_and_grad(clips)
        results.append((loss, {k: g.copy() for k, g in model.grads().items()}, model.state()))
    (want_loss, want_grads, want_state), (loss, grads, state) = results
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=rtol, atol=rtol * np.abs(g).max())
    for name, value in want_state.items():
        np.testing.assert_allclose(state[name], value, rtol=1e-12, atol=1e-15)


def test_clips_of_very_different_scale_get_their_solo_masks():
    quiet, = desk_clips(1, seed=1)
    loud = 1e3 * quiet.log_mag + 40.0
    model = SeparatorModel(num_bins=257, hidden=32, layers=2, seed=2)
    together = model.forward_mask(np.stack([quiet.log_mag, loud], axis=1), training=True)
    for b, log_mag in enumerate((quiet.log_mag, loud)):
        np.testing.assert_allclose(together[:, b],
                                   model.forward_mask(log_mag[:, None], training=True)[:, 0],
                                   rtol=1e-10, atol=1e-12)


def test_state_roundtrip(tmp_path):
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=1, seed=1)
    nn.save_checkpoint(tmp_path / "m.ssnn", model.state())
    clone = SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=1, seed=99)
    clone.load_state(nn.load_checkpoint(tmp_path / "m.ssnn"))
    for name, p in model.state().items():
        assert np.abs(clone.state()[name] - p).max() < 1e-6


def test_load_state_rejects_checkpoint_of_a_deeper_stack(tmp_path):
    deep = SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=2, seed=1)
    nn.save_checkpoint(tmp_path / "m.ssnn", deep.state())
    shallow = SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=1, seed=1)
    with pytest.raises(nn.CheckpointError, match="lstm1.w_x"):
        shallow.load_state(nn.load_checkpoint(tmp_path / "m.ssnn"))


# -------------------------------------------------------------- separate

def grid_masks(mask):
    """Mask source of the rows of a whole (frames, bins) mask."""
    return lambda first_frame, log_mag: mask[first_frame : first_frame + log_mag.shape[0]]


def test_analysis_spectrogram_pads_and_inverts_exactly(rng):
    x = rng.standard_normal(3000)
    w = Waveform(x[None, :], 8000)
    spec = analysis_spectrogram(w, CFG)
    back = istft(spec, CFG)[CFG.fft_size : CFG.fft_size + x.size]
    assert np.abs(back - x).max() < 1e-9


def test_separate_forced_masks(rng):
    x = rng.standard_normal(4000)
    mix = Waveform(x[None, :], 8000)
    shape = analysis_spectrogram(mix, CFG).shape
    vocals, accomp = separate_blocks(mix, grid_masks(np.ones(shape)), CFG)
    assert np.abs(vocals.samples[0] - x).max() < 1e-9
    assert np.abs(accomp.samples).max() < 1e-9
    vocals, accomp = separate_blocks(mix, grid_masks(np.zeros(shape)), CFG)
    assert np.abs(vocals.samples).max() < 1e-9


def test_separate_model_stems_recombine(rng):
    mix = mixture_of(toy_sources(duration=0.7))
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=1, seed=0)
    vocals, accomp, mask = separate(mix, model, CFG)
    assert vocals.num_samples == mix.num_samples
    assert mask.min() >= 0 and mask.max() <= 1
    resid = vocals.samples + accomp.samples - mix.mono_samples()
    rel = np.linalg.norm(resid) / np.linalg.norm(mix.samples)
    assert rel < 1e-6


def separate_or_force(mix, model, mask):
    """(vocals, accompaniment, mask used): separate() under the model, or
    separate_blocks under the rows of a forced mask."""
    if mask is None:
        return separate(mix, model, CFG)
    return (*separate_blocks(mix, grid_masks(mask), CFG), mask)


def two_istft_separate(mix, mask, cfg):
    """Reference stems: the inverse STFTs of m and of 1 - m, each trimmed
    to the mixture."""
    spec = analysis_spectrogram(mix, cfg)
    lo, hi = cfg.fft_size, cfg.fft_size + mix.num_samples
    return (istft(apply_mask(mask, spec), cfg)[lo:hi],
            istft(apply_mask(1.0 - mask, spec), cfg)[lo:hi])


@pytest.mark.parametrize("channels", [1, 2])
def test_accompaniment_matches_the_inverted_complementary_mask(rng, channels):
    mix = Waveform(rng.standard_normal((channels, 3000)), 8000)
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=1, seed=0)
    shape = analysis_spectrogram(mix, CFG).shape
    for mask in (None, rng.random(shape)):
        vocals, accomp, used = separate_or_force(mix, model, mask)
        ref_vocals, ref_accomp = two_istft_separate(mix, used, CFG)
        assert np.array_equal(vocals.samples[0], ref_vocals)
        assert np.abs(accomp.samples[0] - ref_accomp).max() < 1e-12
        resid = vocals.samples + accomp.samples - mix.mono_samples()
        assert np.abs(resid).max() < 1e-12


def lane_loop_masks(mix, model, cfg):
    """The lane pass as a plain loop over separation._lane_plan, the
    reference SeparatorModel.masks must match from _LANE_MIN_FRAMES frames
    on: each lane's rows cut from the whole log-magnitude grid and zero
    past its stop, each super-block's lanes stepped together in calls of
    _LANE_ROUND frames, and the head run once over the kept top-layer
    states of the whole grid."""
    norm, *lstms, head, out = model.children.values()
    log_mag = log_magnitude(np.abs(analysis_spectrogram(mix, cfg)))
    top = np.full((len(log_mag), 1, head.w.shape[0]), np.nan)
    for lanes in separation._lane_plan(len(log_mag)):
        steps = max(stop - first for first, _, stop in lanes)
        x = np.zeros((steps, len(lanes), cfg.num_bins))
        for j, (first, _, stop) in enumerate(lanes):
            x[: stop - first, j] = norm.forward(log_mag[first:stop, None])[:, 0]
        state = model.zero_state(len(lanes))
        r = separation._LANE_ROUND
        h = np.concatenate([nn.lstm_stack(lstms, x[s : s + r], state)
                            for s in range(0, steps, r)])
        for j, (first, keep, stop) in enumerate(lanes):
            top[keep:stop, 0] = h[keep - first : stop - first, j]
    return out.forward(nn.stack_dense(head, top))[:, 0]


def whole_grid_separate(mix, model, cfg, mask=None):
    """The whole-grid separation that the blocked pass replaced, kept as
    the reference: one STFT, one mask and one inverse STFT of the analysis
    grid.  The model's mask is that of one pass over the grid, or from
    _LANE_MIN_FRAMES frames on that of the lane loop.  Returns (vocals
    samples, mask)."""
    spec = analysis_spectrogram(mix, cfg)
    if mask is None and len(spec) < separation._LANE_MIN_FRAMES:
        mask = model.predict_mask(log_magnitude(np.abs(spec)))
    elif mask is None:
        mask = lane_loop_masks(mix, model, cfg)
    lo, hi = cfg.fft_size, cfg.fft_size + mix.num_samples
    return istft(apply_mask(mask, spec), cfg)[None, lo:hi], mask


BLOCK = 16


@pytest.mark.parametrize("block, frames", [
    # 6 frames is the smallest analysis grid: one sample plus the padding
    (BLOCK, 6), (BLOCK, BLOCK - 1), (BLOCK, BLOCK), (BLOCK, BLOCK + 1),
    (BLOCK, 3 * BLOCK + 17), (1, 3 * BLOCK + 17),
])
def test_blocked_separation_matches_the_whole_grid(rng, monkeypatch, block, frames):
    monkeypatch.setattr(separation, "_SEP_BLOCK", block)
    # the fewest samples with this many frames, so the last one is zero-padded
    mix = Waveform(rng.standard_normal((1, (frames - 2) * CFG.hop - CFG.fft_size + 1)), 8000)
    assert len(analysis_spectrogram(mix, CFG)) == frames
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=8, layers=2, seed=0)
    shape = (frames, CFG.num_bins)
    for mask in (None, rng.uniform(0.0, 1.0, shape), np.ones(shape), np.zeros(shape)):
        vocals, accomp, used = separate_or_force(mix, model, mask)
        ref_vocals, ref_mask = whole_grid_separate(mix, model, CFG, mask)
        np.testing.assert_allclose(used, ref_mask, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vocals.samples, ref_vocals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(accomp.samples, mix.samples - ref_vocals, rtol=0, atol=1e-12)
    for value in (1.0, 0.0):  # the CLI's ones and zeros modes
        vocals, _ = separate_blocks(mix, lambda t0, log_mag: np.full(log_mag.shape, value), CFG)
        ref_vocals, _ = whole_grid_separate(mix, None, CFG, np.full(shape, value))
        np.testing.assert_allclose(vocals.samples, ref_vocals, rtol=0, atol=1e-12)
    # the oracle source: the ideal ratio mask of two references, built per block
    target = Waveform(rng.standard_normal(mix.samples.shape), 8000)
    residual = Waveform(rng.standard_normal(mix.samples.shape), 8000)
    irm = ideal_ratio_mask(np.abs(analysis_spectrogram(target, CFG)),
                           np.abs(analysis_spectrogram(residual, CFG)))
    blocks = []
    vocals, _ = separate_blocks(mix, oracle_masks(mix, target, residual, CFG), CFG,
                                on_block=lambda t0, log_mag, rows: blocks.append(rows))
    assert np.array_equal(np.concatenate(blocks), irm)
    ref_vocals, _ = whole_grid_separate(mix, None, CFG, irm)
    np.testing.assert_allclose(vocals.samples, ref_vocals, rtol=0, atol=1e-12)


@pytest.mark.parametrize("frames, lane_frames", [
    # the last block of 64, 512 and 1024 frames would hold 1 frame
    pytest.param(1025, None, id="1025"),
    # the last block of 512 and 1024 frames holds 65 frames, of 64 one
    pytest.param(1089, None, id="1089"),
    # the longest grid of one pass
    pytest.param(separation._LANE_MIN_FRAMES - 1, None, id="longest-one-pass"),
    # 8 lanes of 256 frames; a block of 512 frames takes rows from 2 or 3
    pytest.param(2053, None, id="2053"),
    # 2 super-blocks of 8 lanes of 128 frames
    pytest.param(2053, 256, id="2053-two-super-blocks"),
])
def test_blocked_separation_is_bitwise_the_whole_grid(rng, monkeypatch, frames, lane_frames):
    # blocks of multiples of nn.layers._STACK_LAG frames, and one block of
    # any size holding the whole grid, at the default separator sizes
    if lane_frames:
        monkeypatch.setattr(separation, "_LANE_FRAMES", lane_frames)
    mix = Waveform(rng.standard_normal((1, (frames - 2) * CFG.hop - CFG.fft_size + 1)), 22050)
    assert len(analysis_spectrogram(mix, CFG)) == frames
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=64, layers=2, seed=0)
    ref_vocals, ref_mask = whole_grid_separate(mix, model, CFG)
    for block in (64, 512, 1024, 3000):
        monkeypatch.setattr(separation, "_SEP_BLOCK", block)
        vocals, accomp, mask = separate(mix, model, CFG)
        assert np.array_equal(mask, ref_mask), block
        assert np.array_equal(vocals.samples, ref_vocals), block
        assert np.array_equal(accomp.samples, mix.samples - ref_vocals), block


def check_lane_plan(n_frames):
    """Every frame of the grid kept from exactly one lane, lane bounds on
    the lag, and no lane reading before frame 0 or past the grid."""
    plan = separation._lane_plan(n_frames)
    if n_frames < separation._LANE_MIN_FRAMES:
        assert plan == []
        return
    lanes = [lane for lanes in plan for lane in lanes]
    assert [0] + [stop for _, _, stop in lanes] == [keep for _, keep, _ in lanes] + [n_frames]
    assert all(keep < stop for _, keep, stop in lanes)
    assert lanes[0][:2] == (0, 0)  # the grid's first lane keeps every frame it reads
    assert all(keep - first == separation._BURN_IN and first > 0 for first, keep, _ in lanes[1:])
    lag = nn.layers._STACK_LAG
    assert all(first % lag == keep % lag == 0 for first, keep, _ in lanes)
    reads = lanes[0][2]  # what every lane reads but the grid's last, which stops at its end
    assert all(stop - first == reads for first, _, stop in lanes[:-1])
    assert lanes[-1][2] - lanes[-1][0] <= reads
    for lanes in plan:
        assert 1 <= len(lanes) <= separation._LANES
        assert max(stop - first for first, _, stop in lanes) <= separation._LANE_FRAMES
        assert lanes[-1][2] - lanes[0][1] <= separation._LANES * separation._LANE_FRAMES
    assert all(len(lanes) == separation._LANES for lanes in plan[:-1])


LANE_MIN = separation._LANE_MIN_FRAMES


@pytest.mark.parametrize("n_frames", [
    1, 2, 63, 64, 65, LANE_MIN - 1, LANE_MIN, LANE_MIN + 1,
    separation._grid_frames(10 * 22050, CFG),  # 1,731: separate_10s runs as one pass
    separation._grid_frames(60 * 22050, CFG),  # 10,341: 2 super-blocks of 8 lanes
    # one full super-block, and one frame more
    separation._LANES * (separation._LANE_FRAMES - separation._BURN_IN) + separation._BURN_IN,
    separation._LANES * (separation._LANE_FRAMES - separation._BURN_IN) + separation._BURN_IN + 1,
])
def test_lane_plan_keeps_every_frame_from_one_lane(n_frames):
    check_lane_plan(n_frames)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100_000))
def test_lane_plan_keeps_every_frame_from_one_lane_at_any_length(n_frames):
    check_lane_plan(n_frames)


# A tiny lane pass: 3 lanes per super-block, each reading at most 256
# frames, 64 of burn-in and 64 per call, from 128 frames on
TINY_LANES = {"_LANES": 3, "_LANE_FRAMES": 256, "_LANE_ROUND": 64, "_BURN_IN": 64,
              "_LANE_MIN_FRAMES": 128}


@pytest.mark.parametrize("n_frames", [127, 128, 129, 191, 600, 1000, 1001])
def test_tiny_lane_plans_keep_every_frame_from_one_lane(monkeypatch, n_frames):
    for name, value in TINY_LANES.items():
        monkeypatch.setattr(separation, name, value)
    check_lane_plan(n_frames)
    if n_frames >= 1000:
        assert [len(lanes) for lanes in separation._lane_plan(n_frames)] == [3, 2]


@pytest.mark.parametrize("frames", [128, 129, 300, 1000, 1001])
def test_lane_masks_are_bitwise_the_lane_loop(rng, monkeypatch, tmp_path, frames):
    # from a Waveform and from a file, in blocks of several sizes, one of
    # which holds rows of two super-blocks at 1000 frames
    for name, value in TINY_LANES.items():
        monkeypatch.setattr(separation, name, value)
    samples = (frames - 2) * CFG.hop - CFG.fft_size + 1
    write_wav(Waveform(0.1 * rng.standard_normal((2, samples)), 22050), tmp_path / "m.wav")
    mix = read_wav(tmp_path / "m.wav")
    assert len(analysis_spectrogram(mix, CFG)) == frames
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=8, layers=3, seed=1)
    ref = lane_loop_masks(mix, model, CFG)
    assert np.isfinite(ref).all()
    for block in (64, 512):
        monkeypatch.setattr(separation, "_SEP_BLOCK", block)
        with WavReader(tmp_path / "m.wav") as reader:
            for source in (mix, reader):
                blocks = []
                separate_blocks(source, model.masks(source, CFG), CFG,
                                on_block=lambda t0, log_mag, rows: blocks.append(rows))
                assert np.array_equal(np.concatenate(blocks), ref), block


def test_a_contracting_separator_runs_in_lanes_as_in_one_pass():
    # with the norm's statistics fitted to the grid, the default-size
    # separator forgets its state within the burn-in: its lane masks are
    # those of one pass over the grid within 1e-6 (seen: 1.1e-16)
    mix = mixture_of(synth.make_source_set(15.0, 22050, 1))
    log_mag = log_magnitude(np.abs(analysis_spectrogram(mix, CFG)))
    assert len(separation._lane_plan(len(log_mag))[0]) == separation._LANES
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=64, layers=2, seed=0)
    norm = model.children["norm"]
    norm.running_mean, norm.running_var = log_mag.mean(axis=0), log_mag.var(axis=0)
    _, _, mask = separate(mix, model, CFG)
    assert np.abs(mask - model.predict_mask(log_mag)).max() < 1e-6


def test_a_lone_last_frame_joins_the_block_before_it(rng, monkeypatch):
    monkeypatch.setattr(separation, "_SEP_BLOCK", BLOCK)
    mix = Waveform(rng.standard_normal((1, (2 * BLOCK - 1) * CFG.hop - CFG.fft_size + 1)), 8000)
    seen = []
    separate_blocks(mix, grid_masks(np.ones((2 * BLOCK + 1, CFG.num_bins))), CFG,
                    on_block=lambda t0, log_mag, rows: seen.append((t0, len(rows))))
    assert seen == [(0, BLOCK), (BLOCK, BLOCK + 1)]


def test_separate_refuses_a_mask_off_the_analysis_grid(rng):
    mix = Waveform(rng.standard_normal((1, 1000)), 8000)
    frames = len(analysis_spectrogram(mix, CFG))
    with pytest.raises(ValueError, match="analysis grid"):
        separate_blocks(mix, grid_masks(np.ones((frames - 1, CFG.num_bins))), CFG)


def test_oracle_masks_refuse_a_reference_off_the_analysis_grid(rng):
    # one hop more of a reference is one more frame than the mixture's grid has
    mix = Waveform(rng.standard_normal((1, 1000)), 8000)
    longer = Waveform(rng.standard_normal((1, 1000 + CFG.hop)), 8000)
    for target, residual in ((longer, mix), (mix, longer)):
        with pytest.raises(ValueError, match="analysis grid"):
            oracle_masks(mix, target, residual, CFG)


def test_blocks_see_every_frame_once_in_order(rng, monkeypatch):
    monkeypatch.setattr(separation, "_SEP_BLOCK", BLOCK)
    mix = Waveform(rng.standard_normal((1, 5000)), 8000)
    seen = []
    separate_blocks(mix, SeparatorModel(num_bins=CFG.num_bins, hidden=4, layers=1).masks(mix, CFG),
                    CFG, on_block=lambda t0, log_mag, rows: seen.append((t0, log_mag, rows)))
    grid = log_magnitude(np.abs(analysis_spectrogram(mix, CFG)))
    assert [t0 for t0, _, _ in seen] == list(range(0, grid.shape[0], BLOCK))
    assert np.array_equal(np.concatenate([log_mag for _, log_mag, _ in seen]), grid)
    assert all(rows.shape == log_mag.shape for _, log_mag, rows in seen)


def test_separate_oracle_mask_tone_vs_noise(rng):
    # tone and filtered noise occupy mostly disjoint TF cells, so the
    # oracle mask should isolate the tone far beyond the 10 dB bar
    sr = 8000
    t = np.arange(2 * sr) / sr
    tone = Waveform((0.4 * np.sin(2 * np.pi * 440 * t))[None, :], sr)
    noise = Waveform((0.2 * rng.standard_normal(t.size))[None, :], sr)
    mix = Waveform(tone.samples + noise.samples, sr)
    est, _ = separate_blocks(mix, oracle_masks(mix, tone, noise, CFG), CFG)
    assert si_sdr(tone, est) > 10.0


# -------------------------------------------------------------- training

def test_training_clip_shapes():
    s = toy_sources(duration=0.5)
    clip = make_training_clip(mixture_of(s), s.vocals, sum_accompaniment(s), CFG)
    assert clip.log_mag.shape == clip.mix_mag.shape
    assert clip.mix_mag.shape == clip.vocal_mag.shape == clip.accomp_mag.shape
    assert clip.mix_mag.shape[1] == CFG.num_bins


def test_train_separator_reduces_loss():
    sets = [toy_sources(seed=i) for i in range(2)]
    rng = np.random.default_rng(0)
    clips = []
    for _ in range(4):
        mixture, targets = remix(sets, rng=rng)
        clips.append(make_training_clip(
            mixture, targets.vocals, sum_accompaniment(targets), CFG))
    model = SeparatorModel(num_bins=CFG.num_bins, hidden=8, layers=1, seed=0)
    trace = nn.fit(model, clips, nn.Adam(lr=1e-3), epochs=5, batch_size=4,
                   rng=np.random.default_rng(0))
    assert len(trace) == 5
    assert trace[-1] < trace[0]
    assert all(np.isfinite(v) for v in trace)
