"""PCM WAV decode/encode and sample-rate conversion.

Reads RIFF/WAVE containers with 8-bit (unsigned, offset 128), 16-, 24-
or 32-bit integer PCM or 32- or 64-bit IEEE float payloads,
little-endian throughout, tagged plainly or as WAVE_FORMAT_EXTENSIBLE
with the matching sub-format. Writes 16-bit PCM or 32-bit float. Integer
samples are mapped to [-1, 1) on read (divided by 2**(bits-1)) and
quantized back on write, so a read/write round trip is exact to within
one LSB of the chosen bit depth. A data chunk that ends before its
declared size, as a streaming writer leaves it, loads the frames present
with a warning that counts the missing ones.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2..15 of every standard sub-format GUID; bytes 0..1 hold the plain
# format tag (KSDATAFORMAT_SUBTYPE_PCM is 00000001-0000-0010-8000-00aa00389b71).
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

log = logging.getLogger(__name__)


class WavFormatError(ValueError):
    """Raised when a file is not a well-formed RIFF/WAVE container."""


class UnsupportedCodecError(WavFormatError):
    """Raised for WAVE payloads other than 8/16/24/32-bit integer PCM or
    32/64-bit IEEE float."""


@dataclass
class Waveform:
    """Sampled audio. ``samples`` has shape (channels, n_samples)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, n) array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain NaN or Inf")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def to_mono(self) -> "Waveform":
        """Downmix by channel mean. Identity for mono input."""
        if self.channels == 1:
            return self
        return Waveform(self.samples.mean(axis=0, keepdims=True), self.sample_rate)

    def mono_samples(self) -> np.ndarray:
        """1-D view of the channel-mean signal."""
        return self.to_mono().samples[0]


def _pcm24(payload: memoryview) -> np.ndarray:
    """Packed little-endian 24-bit samples: each 3-byte group goes to the
    top of an int32, whose arithmetic shift right by 8 sign-extends it."""
    wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
    wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    return (wide.view("<i4")[:, 0] >> 8) / 2.0**23


# (format tag, bits per sample) -> float64 samples of a whole-sample payload
_DECODERS = {
    (WAVE_FORMAT_PCM, 8): lambda b: (np.frombuffer(b, dtype=np.uint8) - 128.0) / 128.0,
    (WAVE_FORMAT_PCM, 16): lambda b: np.frombuffer(b, dtype="<i2") / 2.0**15,
    (WAVE_FORMAT_PCM, 24): _pcm24,
    (WAVE_FORMAT_PCM, 32): lambda b: np.frombuffer(b, dtype="<i4") / 2.0**31,
    (WAVE_FORMAT_IEEE_FLOAT, 32): lambda b: np.frombuffer(b, dtype="<f4").astype(np.float64),
    (WAVE_FORMAT_IEEE_FLOAT, 64): lambda b: np.frombuffer(b, dtype="<f8").astype(np.float64),
}


def read_wav(path) -> Waveform:
    """Decode an integer PCM (8, 16, 24 or 32 bits) or float (32 or 64
    bits) WAV file.

    Raises FileNotFoundError for a missing file, WavFormatError for a
    malformed RIFF container, UnsupportedCodecError for other codecs.
    """
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise WavFormatError(f"{path}: too short for a RIFF header")
    if data[0:4] != b"RIFF":
        raise WavFormatError(f"{path}: missing RIFF magic (got {data[0:4]!r})")
    if data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a WAVE form (got {data[8:12]!r})")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated")
            fmt = list(struct.unpack_from("<HHIIHH", body, 0))
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE and len(body) >= 40:
                guid = body[24:40]
                if guid[2:] == _SUBFORMAT_GUID_TAIL:
                    fmt[0] = struct.unpack_from("<H", guid)[0]
        elif chunk_id == b"data":
            payload, declared = body, chunk_size
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: no fmt chunk")
    if payload is None:
        raise WavFormatError(f"{path}: no data chunk")

    audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if n_channels < 1:
        raise WavFormatError(f"{path}: invalid channel count {n_channels}")

    decode = _DECODERS.get((audio_format, bits))
    if decode is None:
        raise UnsupportedCodecError(
            f"{path}: unsupported codec (format={audio_format}, bits={bits})"
        )
    width = bits // 8  # a trailing partial sample is dropped, as is a partial frame
    samples = decode(memoryview(payload)[: len(payload) // width * width])

    n_frames = samples.size // n_channels
    if len(payload) < declared:
        log.warning("%s: truncated data chunk, %d frames declared, %d present",
                    path, declared // (width * n_channels), n_frames)
    samples = samples[: n_frames * n_channels].reshape(n_frames, n_channels).T
    return Waveform(samples, sample_rate)


def write_wav(w: Waveform, path, bit_depth: int = 16) -> int:
    """Encode as PCM16 (default) or IEEE float32.

    Returns the number of samples clipped to the PCM16 range; float32
    clips nothing and returns 0.
    """
    clipped = 0
    if bit_depth == 16:
        audio_format, sample_width = WAVE_FORMAT_PCM, 2
        scaled = np.round(w.samples * 32768.0)
        clipped = int(np.count_nonzero((scaled < -32768) | (scaled > 32767)))
        payload = np.clip(scaled, -32768, 32767).T.astype("<i2").tobytes()
    elif bit_depth == 32:
        audio_format, sample_width = WAVE_FORMAT_IEEE_FLOAT, 4
        payload = w.samples.T.astype("<f4").tobytes()
    else:
        raise ValueError(f"bit_depth must be 16 or 32, got {bit_depth}")

    block_align = w.channels * sample_width
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        audio_format,
        w.channels,
        w.sample_rate,
        w.sample_rate * block_align,
        block_align,
        sample_width * 8,
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
    return clipped


def resampled_length(n: int, source_rate: int, target_rate: int) -> int:
    """Samples in n samples at source_rate resampled to target_rate:
    round(n * target_rate / source_rate)."""
    return int(round(n * target_rate / source_rate))


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Polyphase windowed-sinc resampling (Kaiser window).

    Output length is resampled_length(n, source_rate, target_rate); equal
    rates return the input unchanged.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return w
    from scipy.signal import resample_poly  # imported here: scipy.signal takes ~1 s to load

    ratio = Fraction(target_rate, w.sample_rate)
    out_len = resampled_length(w.num_samples, w.sample_rate, target_rate)
    out = resample_poly(
        w.samples, ratio.numerator, ratio.denominator, axis=1, window=("kaiser", 8.0)
    )
    if out.shape[1] < out_len:
        out = np.pad(out, ((0, 0), (0, out_len - out.shape[1])))
    return Waveform(out[:, :out_len], target_rate)
