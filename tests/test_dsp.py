import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemscribe import dsp
from stemscribe.dsp import (CqtConfig, StftConfig, WindowError, cqt,
                            cqt_kernels, istft, log_magnitude, make_window, num_cqt_frames,
                            num_stft_frames, overlap_add, stft)


def dft_oracle(frame):
    """Direct O(N^2) DFT, the reference for the FFT path."""
    n = frame.size
    k = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    return basis @ frame


def tone(freq, duration, sr, phase=0.3):
    # nonzero phase so the first sample is nonzero too
    t = np.arange(int(duration * sr)) / sr
    return np.sin(2 * np.pi * freq * t + phase)


# ---------------------------------------------------------------- windows

def test_make_window_is_the_periodic_hann():
    hann = make_window(8)
    assert hann[0] == 0.0 and hann.max() <= 1.0
    assert np.array_equal(hann, 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8))
    # its squares sum to a constant at a quarter-length hop
    steady = overlap_add(np.broadcast_to(hann**2, (4, 8)), 2)[6:8]
    assert steady == pytest.approx([1.5, 1.5], abs=1e-12)


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(fft_size=512, hop=0)
    with pytest.raises(ValueError):
        StftConfig(fft_size=512, hop=513)
    assert StftConfig().num_bins == 257


# ------------------------------------------------------------------ stft

def test_stft_constant_frame():
    # the periodic Hann's DFT: N/2 at bin 0, -N/4 at bin 1, nothing above
    cfg = StftConfig(fft_size=512, hop=512)
    s = stft(np.ones(512), cfg)
    assert s.shape == (1, 257) and s.dtype == np.complex128
    assert s[0, 0] == pytest.approx(256.0)
    assert s[0, 1] == pytest.approx(-128.0)
    assert np.abs(s[0, 2:]).max() < 1e-9


def test_stft_zero_signal():
    s = stft(np.zeros(2000), StftConfig())
    assert not s.any()


def test_stft_single_frame_matches_direct_dft():
    cfg = StftConfig(fft_size=512, hop=512)
    sr = 8192
    x = tone(16 * sr / 512, 512 / sr, sr, phase=0.0)  # exactly bin 16
    s = stft(x, cfg)
    assert np.argmax(np.abs(s[0])) == 16
    expected = dft_oracle(x * make_window(512))
    assert np.abs(s[0] - expected).max() < 1e-9 * np.abs(expected).max()


def test_stft_frame_count_and_tail_padding():
    cfg = StftConfig()
    assert num_stft_frames(512, cfg) == 1
    assert num_stft_frames(100, cfg) == 1  # shorter than one window
    assert num_stft_frames(513, cfg) == 2
    assert num_stft_frames(512 + 128, cfg) == 2
    assert num_stft_frames(512 + 129, cfg) == 3
    assert len(stft(np.ones(513), cfg)) == 2


def test_stft_empty_input_rejected():
    with pytest.raises(ValueError):
        stft(np.zeros(0), StftConfig())


def test_transforms_refuse_samples_that_are_not_1d():
    # a (channels, n) array must not reach np.pad, which would pad its
    # channel axis too: cqt's padding of (1, 4000) samples allocates 1.9 GB
    for x in (np.ones((1, 4000)), np.zeros((1, 0))):
        with pytest.raises(ValueError, match="expected a non-empty 1-D signal"):
            stft(x, StftConfig())
        with pytest.raises(ValueError, match="expected a non-empty 1-D signal"):
            cqt(x, CqtConfig(n_bins=24))


@given(st.integers(0, 10_000))
@settings(max_examples=20)
def test_stft_linearity(seed):
    rng = np.random.default_rng(seed)
    cfg = StftConfig(fft_size=64, hop=16)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    a, b = rng.uniform(-2, 2, size=2)
    left = stft(a * x + b * y, cfg)
    right = a * stft(x, cfg) + b * stft(y, cfg)
    scale = np.abs(right).max() or 1.0
    assert np.abs(left - right).max() < 1e-9 * scale


def test_parseval_per_frame(rng):
    cfg = StftConfig(fft_size=64, hop=64)
    x = rng.standard_normal(64)
    s = stft(x, cfg)[0]
    windowed = x * make_window(64)
    # rfft keeps half the spectrum; double the shared bins before comparing
    power = np.abs(s) ** 2
    full = power[0] + power[-1] + 2 * power[1:-1].sum()
    assert full / 64 == pytest.approx((windowed**2).sum(), rel=1e-6)


def gather_stft(x, cfg):
    """Frames gathered through a (frames, fft_size) index array, the
    reference the strided-view STFT must match."""
    n_frames = num_stft_frames(x.size, cfg)
    x = np.pad(x, (0, (n_frames - 1) * cfg.hop + cfg.fft_size - x.size))
    idx = np.arange(cfg.fft_size)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    frames = x[idx] * make_window(cfg.fft_size)[None, :]
    return np.fft.rfft(frames, axis=1)


@pytest.mark.parametrize("fft_size, hop, n_samples", [
    (512, 128, 8000),  # default config
    (512, 128, 300),   # shorter than one window: 1 frame
    (512, 128, 512),   # exactly one window
    (512, 100, 2049),  # hop does not divide the length
    (256, 7, 1000),
])
def test_stft_matches_index_gather_exactly(rng, fft_size, hop, n_samples):
    cfg = StftConfig(fft_size=fft_size, hop=hop)
    x = rng.standard_normal(n_samples)
    assert np.array_equal(stft(x, cfg), gather_stft(x, cfg))


# ----------------------------------------------------------------- istft

def interior(x, cfg):
    return x[cfg.fft_size : x.size - cfg.fft_size]


def test_istft_roundtrip_noise_interior(rng):
    cfg = StftConfig()
    x = rng.standard_normal(22050)
    back = istft(stft(x, cfg), cfg)[: x.size]
    err = np.linalg.norm(interior(back - x, cfg)) / np.linalg.norm(interior(x, cfg))
    assert err < 1e-6


def test_istft_roundtrip_tone():
    cfg = StftConfig()
    x = tone(440.0, 1.0, 22050)
    back = istft(stft(x, cfg), cfg)[: x.size]
    err = np.linalg.norm(interior(back - x, cfg)) / np.linalg.norm(interior(x, cfg))
    assert err < 1e-6


def test_istft_zero_spectrogram():
    cfg = StftConfig()
    assert not istft(np.zeros((10, 257), dtype=complex), cfg).any()


def test_istft_refuses_a_grid_of_another_width():
    for shape in [(4, 100), (4, 258), (257,), (1, 4, 257)]:
        with pytest.raises(ValueError, match=r"expected \(frames, 257\) grid"):
            istft(np.zeros(shape, dtype=complex), StftConfig())


def test_istft_gap_detection():
    # Hann at hop == fft_size leaves every frame-boundary sample uncovered.
    cfg = StftConfig(fft_size=64, hop=64)
    s = stft(np.ones(64 * 10), cfg)
    with pytest.raises(WindowError):
        istft(s, cfg)


def loop_istft(s, cfg):
    """Frame-by-frame overlap-add, the reference the strided one must match."""
    win = make_window(cfg.fft_size)
    length = (len(s) - 1) * cfg.hop + cfg.fft_size
    norm = np.zeros(length)
    for t in range(len(s)):
        norm[t * cfg.hop : t * cfg.hop + cfg.fft_size] += win**2
    frames = np.fft.irfft(s, n=cfg.fft_size, axis=1) * win[None, :]
    out = np.zeros(length)
    for t in range(len(s)):
        out[t * cfg.hop : t * cfg.hop + cfg.fft_size] += frames[t]
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    return out


@pytest.mark.parametrize("fft_size, hop", [(512, 128), (512, 100), (256, 7)])
def test_istft_matches_frame_loop_exactly(rng, fft_size, hop):
    cfg = StftConfig(fft_size=fft_size, hop=hop)
    shape = (37, cfg.num_bins)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(istft(s, cfg), loop_istft(s, cfg))


@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 3), st.data())
def test_overlap_add_carries_trailing_axes_like_a_frame_loop(n_frames, n, keys, data):
    hop = data.draw(st.integers(1, 2 * n + 1), label="hop")
    frames = np.random.default_rng(n_frames * n * hop).standard_normal((n_frames, n, keys))
    out = np.zeros(((n_frames - 1) * hop + n, keys))
    for t in range(n_frames):
        out[t * hop : t * hop + n] += frames[t]
    assert np.array_equal(overlap_add(frames, hop), out)


@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 3), st.data())
def test_overlap_add_through_a_carry_equals_one_call(n_frames, n, keys, data):
    hop = data.draw(st.integers(1, n), label="hop")
    cut = data.draw(st.integers(0, n_frames), label="cut")
    frames = np.random.default_rng(n_frames * n * hop).standard_normal((n_frames, n, keys))
    whole = overlap_add(frames, hop)
    tail = n - hop
    done, carry = [], np.zeros((tail, keys))
    for block in (frames[:cut], frames[cut:]):
        if not len(block):
            continue
        acc = np.zeros(((len(block) - 1) * hop + n, keys))
        acc[:tail] = carry
        assert overlap_add(block, hop, acc) is acc
        done.append(acc[: len(block) * hop])
        carry = acc[len(block) * hop :]
    assert np.array_equal(np.concatenate(done + [carry]), whole)


def test_overlap_add_refuses_an_accumulator_of_the_wrong_length():
    with pytest.raises(ValueError, match="accumulator"):
        overlap_add(np.ones((3, 8)), 4, np.zeros(15))


@pytest.mark.parametrize("fft_size, hop", [(512, 128), (512, 100)])
@pytest.mark.parametrize("cuts", [(1,), (7, 8), (16, 30, 36)])
def test_istft_block_by_block_through_a_carry_equals_one_call(rng, fft_size, hop, cuts):
    cfg = StftConfig(fft_size=fft_size, hop=hop)
    shape = (37, cfg.num_bins)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    carry = np.zeros((2, fft_size - hop))
    parts = [istft(s[a:b], cfg, carry) for a, b in zip((0, *cuts), (*cuts, 37))]
    whole = istft(s, cfg)
    assert [p.size for p in parts] == [(b - a) * hop for a, b in zip((0, *cuts), (*cuts, 37))]
    assert np.array_equal(np.concatenate(parts), whole[: 37 * hop])


def test_istft_refuses_a_gapped_window_on_any_grid():
    # the squared Hann windows at hop == fft_size vanish at every frame
    # start, which a one-frame grid does not reach; the pair is refused anyway
    cfg = StftConfig(fft_size=64, hop=64)
    with pytest.raises(WindowError):
        istft(np.ones((1, 33), dtype=complex), cfg)


# --------------------------------------------------------- log magnitude

def test_log_magnitude_reference_points():
    assert log_magnitude(np.array(1.0)) == pytest.approx(0.0, abs=1e-9)
    assert log_magnitude(np.array(np.sqrt(10.0))) == pytest.approx(10.0, abs=1e-9)
    assert log_magnitude(np.array(0.0)) == pytest.approx(-100.0, abs=1e-9)


@given(st.floats(0, 1e6), st.floats(0, 1e6))
def test_log_magnitude_monotone_and_bounded(s1, s2):
    lo, hi = sorted([s1, s2])
    a, b = log_magnitude(np.array(lo)), log_magnitude(np.array(hi))
    assert a <= b + 1e-12
    assert a >= -100.0 - 1e-12
    assert np.isfinite(a) and np.isfinite(b)


# ------------------------------------------------------------------- cqt

def test_cqt_config_validation():
    with pytest.raises(ValueError):
        CqtConfig(n_bins=0)
    with pytest.raises(ValueError):
        CqtConfig(n_bins=108)  # top bin would pass Nyquist at 22050
    with pytest.raises(ValueError):
        CqtConfig(hop=0)
    with pytest.raises(ValueError):
        CqtConfig(sample_rate=-1)  # by the Nyquist rule: frame_time is never <= 0


def test_cqt_frame_time_is_hop_over_rate():
    for hop, rate in ((512, 22050), (256, 8000), (441, 44100), (1, 16000)):
        frame_time = CqtConfig(hop=hop, sample_rate=rate).frame_time
        assert np.float64(frame_time).tobytes() == np.float64(hop / rate).tobytes()
    assert CqtConfig().frame_time == pytest.approx(0.02322, abs=1e-5)


def test_cqt_center_frequencies():
    cfg = CqtConfig()
    assert cfg.center_frequency(0) == 27.5
    assert cfg.center_frequency(12) == pytest.approx(55.0)
    ratios = [cfg.center_frequency(k + 1) / cfg.center_frequency(k)
              for k in range(cfg.n_bins - 1)]
    assert np.allclose(ratios, 2 ** (1 / 12), rtol=0, atol=1e-12)


def test_cqt_tone_bins():
    cfg = CqtConfig(n_bins=36)
    for k in (0, 12, 24):
        x = tone(cfg.center_frequency(k), 2.0, cfg.sample_rate)
        out = cqt(x, cfg)
        assert out.shape == (36, num_cqt_frames(x.size, cfg))
        mid = out[:, out.shape[1] // 2]  # stay clear of edge taper
        assert np.argmax(mid) == k


def test_cqt_zero_signal():
    cfg = CqtConfig(n_bins=24)
    assert not cqt(np.zeros(4000), cfg).any()


def test_cqt_matches_direct_inner_products(rng):
    # Sliding-window implementation against a literal per-frame dot product.
    cfg = CqtConfig(n_bins=24, f_min=110.0, hop=256, sample_rate=8000)
    x = rng.standard_normal(2000)
    out = cqt(x, cfg)
    kernels = cqt_kernels(cfg)
    pad = max(k.size for k in kernels) // 2 + 1
    n_frames = num_cqt_frames(x.size, cfg)
    padded = np.pad(x, (pad, pad + cfg.hop * n_frames))
    for k in (0, 11, 23):
        kern = kernels[k]
        for t in (0, n_frames // 2, n_frames - 1):
            start = cfg.hop * t + pad - kern.size // 2
            seg = padded[start : start + kern.size]
            assert out[k, t] == pytest.approx(abs(np.vdot(kern, seg)), abs=1e-12)


def loop_cqt(x, cfg):
    """One gathered (frames, kernel length) matrix per bin, the reference the
    octave-grouped GEMM must match."""
    kernels = cqt_kernels(cfg)
    n_frames = num_cqt_frames(x.size, cfg)
    pad = max(k.size for k in kernels) // 2 + 1
    padded = np.pad(x, (pad, pad + cfg.hop * n_frames))
    out = np.empty((cfg.n_bins, n_frames))
    for k, kernel in enumerate(kernels):
        n_k = kernel.size
        starts = cfg.hop * np.arange(n_frames) + pad - n_k // 2
        segs = padded[starts[:, None] + np.arange(n_k)[None, :]]
        out[k] = np.abs(segs @ np.conj(kernel))
    return out


CQT_CASES = [
    (CqtConfig(), 3 * 22050),           # default config, 3 s
    (CqtConfig(n_bins=30), 3 * 22050),  # partial top octave
    (CqtConfig(), 300),                 # shorter than one hop: 1 frame
    (CqtConfig(), 257 * 512),           # 257 frames, one past a full block
    (CqtConfig(), 256 * 512 + 1),       # 257 frames, the last one sample into its hop
]


@pytest.mark.parametrize("cfg, n_samples", CQT_CASES)
def test_cqt_matches_per_bin_loop(rng, cfg, n_samples):
    x = rng.standard_normal(n_samples)
    out = cqt(x, cfg)
    assert out.shape == (cfg.n_bins, num_cqt_frames(n_samples, cfg))
    assert np.allclose(out, loop_cqt(x, cfg), rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("cfg, n_samples", CQT_CASES)
def test_cqt_right_pad_covers_every_window(rng, monkeypatch, cfg, n_samples):
    # Padding the right end by another hop per frame, as the transform once
    # did, must change no value: no chunk reads past the zeros cqt adds.
    x = rng.standard_normal(n_samples)
    out = cqt(x, cfg)
    extra = cfg.hop * num_cqt_frames(n_samples, cfg)
    pad = np.pad
    monkeypatch.setattr(np, "pad", lambda x, width: pad(x, (width[0], width[1] + extra)))
    assert np.array_equal(cqt(x, cfg), out)


def test_a_cqt_case_reads_chunks_past_the_symmetric_pad():
    # The lowest octave's last frame spans m whole hops, which can end
    # beyond the n_max//2 + 1 zeros a symmetric pad would leave; the
    # right-pad cases above must include such a frame count.
    cfg, n_samples = CQT_CASES[-1]
    pad, octaves = dsp._octave_bases(cfg)
    n_frames = num_cqt_frames(n_samples, cfg)
    ends = [start + (n_frames + basis.shape[1] - 1) * cfg.hop for start, basis in octaves]
    assert max(ends) > n_samples + 2 * pad


def rebuilding_cqt(x, cfg):
    """The transform with nothing cached: every call builds the kernels,
    each octave's zero-padded (n_max, 2g) basis and its (hop, m, 2g) chunk
    layout again, then sums each frame's m chunk products."""
    kernels = cqt_kernels(cfg)
    n_frames = num_cqt_frames(x.size, cfg)
    hop = cfg.hop
    pad = max(k.size for k in kernels) // 2 + 1
    padded = np.pad(x, (pad, pad + hop * (n_frames + 1)))
    out = np.empty((cfg.n_bins, n_frames))
    for k0 in range(0, cfg.n_bins, cfg.bins_per_octave):
        group = kernels[k0 : k0 + cfg.bins_per_octave]
        g, n_max = len(group), max(k.size for k in group)
        m = -(-n_max // hop)
        basis = np.zeros((m * hop, 2 * g))
        for j, kernel in enumerate(group):
            off = n_max // 2 - kernel.size // 2
            basis[off : off + kernel.size, j] = kernel.real
            basis[off : off + kernel.size, g + j] = -kernel.imag
        chunk_basis = basis.reshape(m, hop, 2 * g).transpose(1, 0, 2).reshape(hop, -1)
        start = pad - n_max // 2
        chunks = padded[start : start + (n_frames + m - 1) * hop].reshape(-1, hop)
        for t0 in range(0, n_frames, dsp._CQT_BLOCK):
            n = min(dsp._CQT_BLOCK, n_frames - t0)
            prod = (chunks[t0 : t0 + n + m - 1] @ chunk_basis).reshape(-1, m, 2 * g)
            acc = prod[:n, 0].copy()
            for j in range(1, m):
                acc += prod[j : j + n, j]
            out[k0 : k0 + g, t0 : t0 + n] = np.hypot(acc[:, :g], acc[:, g:]).T
    return out


@pytest.mark.parametrize("cfg, n_samples", CQT_CASES)
def test_cached_cqt_equals_the_rebuilding_one(rng, cfg, n_samples):
    x = rng.standard_normal(n_samples)
    assert np.array_equal(cqt(x, cfg), rebuilding_cqt(x, cfg))
    assert np.array_equal(cqt(x, cfg), rebuilding_cqt(x, cfg))  # from the cache


def test_cqt_builds_its_kernels_once_per_config(rng, monkeypatch):
    calls = []

    def counting_kernels(cfg):
        calls.append(cfg)
        return cqt_kernels(cfg)

    monkeypatch.setattr(dsp, "cqt_kernels", counting_kernels)
    dsp._octave_bases.cache_clear()
    cfg = CqtConfig(n_bins=24, f_min=110.0, hop=256, sample_rate=8000)
    for n in (2000, 3000):
        cqt(rng.standard_normal(n), cfg)
    # an equal config built anew shares the cached bases
    cqt(rng.standard_normal(2000), CqtConfig(n_bins=24, f_min=110.0, hop=256, sample_rate=8000))
    assert calls == [cfg]
    other = CqtConfig(n_bins=12, f_min=110.0, sample_rate=8000)
    cqt(rng.standard_normal(2000), other)
    assert calls == [cfg, other]


def test_cqt_keeps_the_bases_of_one_config(rng, monkeypatch):
    # a second config's bases replace the first's, which are built again
    # when that config comes back
    calls = []

    def counting_kernels(cfg):
        calls.append(cfg)
        return cqt_kernels(cfg)

    monkeypatch.setattr(dsp, "cqt_kernels", counting_kernels)
    dsp._octave_bases.cache_clear()
    first = CqtConfig(n_bins=24, f_min=110.0, hop=256, sample_rate=8000)
    second = CqtConfig(n_bins=12, f_min=110.0, sample_rate=8000)
    for cfg in (first, second, second, first):
        cqt(rng.standard_normal(2000), cfg)
        assert dsp._octave_bases.cache_info().currsize == 1
    assert calls == [first, second, first]


def test_cached_cqt_bases_are_read_only():
    _, octaves = dsp._octave_bases(CqtConfig(n_bins=24, f_min=110.0, sample_rate=8000))
    for _, basis in octaves:
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            basis.reshape(basis.shape[0], -1)[0, 0] = 1.0  # the GEMM's flat view


def test_cqt_memory_grows_with_audio_not_kernel_length(rng):
    # From 10 s to 30 s the padded signal and the output grow by ~7 MiB; a
    # (frames x kernel length) gather per bin would add ~273 MiB.
    cfg = CqtConfig()

    def peak(seconds):
        x = rng.standard_normal(seconds * cfg.sample_rate)
        tracemalloc.start()
        try:
            cqt(x, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(30) - peak(10) < 64 * 2**20


def test_cqt_of_a_song_length_clip_peaks_far_below_a_frame_block_copy(rng):
    # 60 s at the default config: the padded signal is 10.6 MB and the
    # output 1.7 MB.  Copying 256 overlapping 13,485-sample frames per
    # GEMM, as the frame-blocked transform did, peaked at 40.1 MB.
    cfg = CqtConfig()
    x = rng.standard_normal(60 * cfg.sample_rate)
    tracemalloc.start()
    try:
        cqt(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_num_cqt_frames_formula():
    cfg = CqtConfig()
    assert num_cqt_frames(512, cfg) == 1
    assert num_cqt_frames(513, cfg) == 2
    assert num_cqt_frames(180 * 22050, cfg) == 7752
