import struct
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stemscribe.audio_io import (UnsupportedCodecError, Waveform, WavFormatError, downmix,
                                 read_wav, resample, resampled_length, write_wav)

LSB16 = 2.0**-15


def pcm16_file(path, samples, sample_rate=44100):
    """Hand-packed minimal RIFF/WAVE, the byte-level oracle for read_wav."""
    data = b"".join(struct.pack("<h", s) for s in samples)
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_roundtrip_three_samples(tmp_path):
    w = Waveform(np.array([[0.0, 0.5, -0.5]]), 44100)
    write_wav(w, tmp_path / "t.wav")
    back = read_wav(tmp_path / "t.wav")
    assert back.sample_rate == 44100
    assert np.abs(back.samples - w.samples).max() <= LSB16


def test_silence_file(tmp_path):
    pcm16_file(tmp_path / "s.wav", [0] * 44100)
    w = read_wav(tmp_path / "s.wav")
    assert w.num_samples == 44100
    assert not w.samples.any()


def test_pcm16_positive_full_scale(tmp_path):
    pcm16_file(tmp_path / "f.wav", [32767])
    w = read_wav(tmp_path / "f.wav")
    assert w.samples[0, 0] == pytest.approx(32767 / 32768, abs=1e-12)


def test_roundtrip_white_noise(tmp_path, rng):
    w = Waveform(rng.uniform(-1, 1, size=(1, 22050)), 22050)
    write_wav(w, tmp_path / "n.wav")
    back = read_wav(tmp_path / "n.wav")
    assert np.abs(back.samples - w.samples).max() < LSB16


def test_roundtrip_float32(tmp_path, rng):
    w = Waveform(rng.standard_normal((2, 500)), 8000)
    write_wav(w, tmp_path / "f32.wav", bit_depth=32)
    back = read_wav(tmp_path / "f32.wav")
    assert back.channels == 2
    assert np.abs(back.samples - w.samples).max() < 1e-6


def test_write_wav_returns_the_clipped_sample_count(tmp_path):
    # 1.0 rounds to 32768, one past the largest PCM16 code; -1.0 fits
    w = Waveform(np.array([[0.5, 1.0, -1.0, 1.5], [-2.0, 0.0, 32767 / 32768, -0.25]]), 8000)
    assert write_wav(w, tmp_path / "c16.wav") == 3
    assert write_wav(w, tmp_path / "c32.wav", bit_depth=32) == 0
    assert write_wav(Waveform(np.zeros((1, 0)), 8000), tmp_path / "e.wav") == 0
    back = read_wav(tmp_path / "c16.wav").samples * 32768
    np.testing.assert_array_equal(back, [[16384, 32767, -32768, 32767],
                                         [-32768, 0, 32767, -8192]])


def test_empty_waveform_roundtrip(tmp_path):
    write_wav(Waveform(np.zeros((1, 0)), 8000), tmp_path / "e.wav")
    assert (tmp_path / "e.wav").stat().st_size == 44  # header only
    assert read_wav(tmp_path / "e.wav").num_samples == 0


@given(st.integers(0, 2**31 - 1))
def test_roundtrip_within_one_lsb(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    w = Waveform(rng.uniform(-1, 1, size=(1, 64)), 8000)
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    write_wav(w, path)
    assert np.abs(read_wav(path).samples - w.samples).max() <= LSB16


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        read_wav(p)


def test_unsupported_codec(tmp_path):
    data = struct.pack("<h", 0)
    fmt = struct.pack("<HHIIHH", 85, 1, 8000, 16000, 2, 16)  # MP3 format tag
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    p = tmp_path / "mp3.wav"
    p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(UnsupportedCodecError):
        read_wav(p)


def riff_wave(fmt, payload):
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, bits, rate=8000, sub_tag=None):
    """16-byte fmt body, or the 40-byte WAVE_FORMAT_EXTENSIBLE one (tag
    0xFFFE) whose sub-format GUID carries sub_tag."""
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    if sub_tag is None:
        return fmt
    guid = struct.pack("<I", sub_tag) + bytes.fromhex("00001000800000aa00389b71")
    return fmt + struct.pack("<HHI", 22, bits, 0b11) + guid


@pytest.mark.parametrize("tag, bits, dtype, scale", [(1, 16, "<i2", 20000), (3, 32, "<f4", 0.5)],
                         ids=["pcm16", "float32"])
def test_extensible_decodes_like_plain_format(tmp_path, rng, tag, bits, dtype, scale):
    payload = (rng.uniform(-1, 1, 2 * 50) * scale).astype(dtype).tobytes()  # 50 stereo frames
    (tmp_path / "plain.wav").write_bytes(riff_wave(fmt_chunk(tag, 2, bits), payload))
    (tmp_path / "ext.wav").write_bytes(riff_wave(fmt_chunk(0xFFFE, 2, bits, sub_tag=tag), payload))
    plain, ext = read_wav(tmp_path / "plain.wav"), read_wav(tmp_path / "ext.wav")
    assert ext.samples.shape == (2, 50) and ext.sample_rate == 8000
    assert np.array_equal(ext.samples, plain.samples)


def test_extensible_other_subformats_rejected(tmp_path):
    p = tmp_path / "ext_float16.wav"
    p.write_bytes(riff_wave(fmt_chunk(0xFFFE, 2, 16, sub_tag=3), bytes(4 * 10)))
    with pytest.raises(UnsupportedCodecError):
        read_wav(p)
    p.write_bytes(riff_wave(fmt_chunk(0xFFFE, 1, 16, sub_tag=0x55), bytes(2 * 10)))  # MP3 sub-format
    with pytest.raises(UnsupportedCodecError):
        read_wav(p)


def pack_codes(bits, codes):
    """Integer PCM codes packed one sample at a time, the byte-level oracle:
    8-bit is unsigned (code + 128), 24-bit the low 3 bytes of each int32."""
    if bits == 8:
        return bytes(c + 128 for c in codes)
    if bits == 24:
        return b"".join(struct.pack("<i", c)[:3] for c in codes)
    return b"".join(struct.pack({16: "<h", 32: "<i"}[bits], c) for c in codes)


@pytest.mark.parametrize("sub_tag", [None, 1], ids=["plain", "extensible"])
@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_integer_pcm_decodes_every_width_to_its_code_over_full_scale(tmp_path, rng, bits,
                                                                     sub_tag):
    top = 2 ** (bits - 1)
    extremes = [-top, -top + 1, -1, 0, 1, top // 2, top - 1]
    codes = np.concatenate([extremes, rng.integers(-top, top, 3 * 20 - len(extremes))])
    tag = 1 if sub_tag is None else 0xFFFE
    (tmp_path / "pcm.wav").write_bytes(
        riff_wave(fmt_chunk(tag, 3, bits, sub_tag=sub_tag), pack_codes(bits, codes.tolist())))
    w = read_wav(tmp_path / "pcm.wav")
    assert w.samples.shape == (3, 20) and w.sample_rate == 8000
    assert w.samples.min() == -1.0 and w.samples.max() < 1.0
    np.testing.assert_array_equal(w.samples * top, codes.reshape(20, 3).T)


@pytest.mark.parametrize("sub_tag", [None, 3], ids=["plain", "extensible"])
def test_float64_decodes_exactly(tmp_path, rng, sub_tag):
    x = rng.standard_normal((2, 30))
    tag = 3 if sub_tag is None else 0xFFFE
    (tmp_path / "f64.wav").write_bytes(
        riff_wave(fmt_chunk(tag, 2, 64, sub_tag=sub_tag), x.T.astype("<f8").tobytes()))
    np.testing.assert_array_equal(read_wav(tmp_path / "f64.wav").samples, x)


def test_a_24_bit_file_from_the_wave_module_loads(tmp_path):
    codes = np.array([[-2**23, -300000, -1, 0, 1, 4660, 2**23 - 1],
                      [5, -5, 2**22, -2**22, 77, -77, 0]])
    with wave.open(str(tmp_path / "w24.wav"), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(3)
        f.setframerate(44100)
        f.writeframes(pack_codes(24, codes.T.ravel().tolist()))
    w = read_wav(tmp_path / "w24.wav")
    assert w.sample_rate == 44100
    np.testing.assert_array_equal(w.samples * 2**23, codes)


def test_a_trailing_partial_sample_is_dropped(tmp_path):
    payload = pack_codes(24, [1000, -1000]) + b"\x01\x02"
    (tmp_path / "cut.wav").write_bytes(riff_wave(fmt_chunk(1, 1, 24), payload))
    np.testing.assert_array_equal(read_wav(tmp_path / "cut.wav").samples * 2**23, [[1000, -1000]])


@pytest.mark.parametrize("cut_bytes, present", [(0, 1000), (600, 700)])
def test_only_a_truncated_data_chunk_warns(tmp_path, caplog, cut_bytes, present):
    # the header declares 1,000 frames; cut_bytes are cut off the end, and
    # the frames present still load
    path = tmp_path / "cut.wav"
    pcm16_file(path, list(range(1000)))
    path.write_bytes(path.read_bytes()[: -cut_bytes or None])
    with caplog.at_level("WARNING", logger="stemscribe.audio_io"):
        assert read_wav(path).num_samples == present
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    if cut_bytes:
        assert len(warnings) == 1
        assert str(path) in warnings[0] and "1000 frames declared, 700 present" in warnings[0]
    else:
        assert warnings == []


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.zeros((1, 4)), 0)
    with pytest.raises(ValueError):
        Waveform(np.array([[np.nan]]), 8000)


def test_downmix_is_channel_mean():
    w = Waveform(np.array([[1.0, 0.0], [0.0, 1.0]]), 8000)
    assert np.array_equal(downmix(w.samples), [0.5, 0.5])
    assert np.array_equal(w.mono_samples(), [0.5, 0.5])
    mono = Waveform(np.array([[1.0, 2.0]]), 8000)
    assert np.shares_memory(mono.mono_samples(), mono.samples)  # a view of the one channel


def test_resample_identity():
    w = Waveform(np.array([[0.1, 0.2, 0.3]]), 8000)
    out = resample(w, 8000)
    assert np.array_equal(out.samples, w.samples)


def test_resample_length():
    w = Waveform(np.zeros((1, 44100)), 44100)
    assert resample(w, 22050).num_samples == 22050


@pytest.mark.parametrize("n, source, target", [(8000, 8000, 22050), (7919, 8000, 22050),
                                               (1, 44100, 22050), (12345, 22050, 16000),
                                               (0, 16000, 22050), (999, 22050, 22050)])
def test_resampled_length_is_the_length_resample_gives(n, source, target):
    w = Waveform(np.zeros((1, n)), source)
    assert resampled_length(n, source, target) == resample(w, target).num_samples


def test_resample_preserves_tone():
    # 440 Hz sits below both Nyquists; its DFT peak must not move by more
    # than one bin of a 4096-point transform.
    sr = 44100
    t = np.arange(sr) / sr
    w = Waveform(np.sin(2 * np.pi * 440.0 * t)[None, :], sr)
    out = resample(w, 22050)

    def peak_hz(x, rate):
        mags = np.abs(np.fft.rfft(x[:4096]))
        return np.argmax(mags) * rate / 4096

    before = peak_hz(w.samples[0], sr)
    after = peak_hz(out.samples[0], 22050)
    assert abs(before - 440.0) <= sr / 4096
    assert abs(after - before) <= 22050 / 4096
