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

Both directions also go block by block, so a signal need never be held
whole: WavReader parses the header once and decodes any range of frames,
and WavWriter writes the header from the frame count given up front,
then quantizes each block it is handed. read_wav and write_wav are the
one-block cases of these two.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2..15 of every standard sub-format GUID; bytes 0..1 hold the plain
# format tag (KSDATAFORMAT_SUBTYPE_PCM is 00000001-0000-0010-8000-00aa00389b71).
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

# Frames per block of the scan of a float payload for NaN and Inf
_SCAN_FRAMES = 1 << 16

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

    def mono_samples(self) -> np.ndarray:
        """The 1-D downmix of the samples."""
        return downmix(self.samples)

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop) of every channel, as WavReader.read gives
        a file's: a Waveform is a sample source too."""
        return self.samples[:, start:stop]


def downmix(samples: np.ndarray) -> np.ndarray:
    """The 1-D mono signal of (channels, n) samples, which every transform
    takes: their channel mean, a view when there is one channel."""
    return samples[0] if samples.shape[0] == 1 else samples.mean(axis=0)


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


class WavReader:
    """An open WAV file: its header parsed once, its frames decoded by range.

    Raises as read_wav does. A float payload is scanned block by block
    when the file opens, so a NaN or Inf anywhere in it is refused before
    any frame is read. Use as a context manager, which closes the file.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            self._parse_header()
            if self._format == WAVE_FORMAT_IEEE_FLOAT:
                for start in range(0, self.num_samples, _SCAN_FRAMES):
                    if not np.isfinite(self.read(start, start + _SCAN_FRAMES)).all():
                        raise ValueError(f"{path}: samples contain NaN or Inf")
        except BaseException:
            self._file.close()
            raise

    def _parse_header(self) -> None:
        path, f = self.path, self._file
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12:
            raise WavFormatError(f"{path}: too short for a RIFF header")
        if head[0:4] != b"RIFF":
            raise WavFormatError(f"{path}: missing RIFF magic (got {head[0:4]!r})")
        if head[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a WAVE form (got {head[8:12]!r})")

        fmt = None
        data = None
        pos = 12
        while pos + 8 <= size:
            f.seek(pos)
            chunk_id, chunk_size = struct.unpack("<4sI", f.read(8))
            if chunk_id == b"fmt ":
                body = f.read(min(chunk_size, 40))
                if len(body) < 16:
                    raise WavFormatError(f"{path}: fmt chunk truncated")
                fmt = list(struct.unpack_from("<HHIIHH", body, 0))
                if fmt[0] == WAVE_FORMAT_EXTENSIBLE and len(body) >= 40:
                    guid = body[24:40]
                    if guid[2:] == _SUBFORMAT_GUID_TAIL:
                        fmt[0] = struct.unpack_from("<H", guid)[0]
            elif chunk_id == b"data":
                data = pos + 8, chunk_size
            pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

        if fmt is None:
            raise WavFormatError(f"{path}: no fmt chunk")
        if data is None:
            raise WavFormatError(f"{path}: no data chunk")

        audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
        if n_channels < 1:
            raise WavFormatError(f"{path}: invalid channel count {n_channels}")
        if sample_rate <= 0:
            raise WavFormatError(f"{path}: invalid sample rate {sample_rate}")
        self._decode = _DECODERS.get((audio_format, bits))
        if self._decode is None:
            raise UnsupportedCodecError(
                f"{path}: unsupported codec (format={audio_format}, bits={bits})"
            )
        self._format = audio_format
        self.channels = n_channels
        self.sample_rate = sample_rate
        self._offset, declared = data
        self._frame_bytes = bits // 8 * n_channels
        present = min(declared, size - self._offset)
        # a trailing partial frame is dropped
        self.num_samples = present // self._frame_bytes
        if present < declared:
            log.warning("%s: truncated data chunk, %d frames declared, %d present",
                        path, declared // self._frame_bytes, self.num_samples)

    def read(self, start: int, stop: int) -> np.ndarray:
        """Frames [start, stop) of the file, as far as it holds them, as a
        (channels, frames) float64 array."""
        stop = min(stop, self.num_samples)
        start = min(start, stop)
        self._file.seek(self._offset + start * self._frame_bytes)
        payload = self._file.read((stop - start) * self._frame_bytes)
        return self._decode(memoryview(payload)).reshape(-1, self.channels).T

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()


def read_wav(path) -> Waveform:
    """Decode an integer PCM (8, 16, 24 or 32 bits) or float (32 or 64
    bits) WAV file.

    Raises FileNotFoundError for a missing file, WavFormatError for a
    malformed RIFF container, UnsupportedCodecError for other codecs.
    """
    with WavReader(path) as wav:
        return Waveform(wav.read(0, wav.num_samples), wav.sample_rate)


class WavWriter:
    """A PCM16 (default) or IEEE float32 WAV file written block by block.

    The header goes first, from the frame count given up front; each
    write() appends (channels, frames) samples, quantized as write_wav
    quantizes them, and `clipped` sums the samples clipped to the PCM16
    range. Use as a context manager: leaving it without an error checks
    that the frames written are the frames declared.
    """

    def __init__(self, path, sample_rate: int, channels: int, num_samples: int,
                 bit_depth: int = 16):
        if bit_depth == 16:
            audio_format, sample_width = WAVE_FORMAT_PCM, 2
        elif bit_depth == 32:
            audio_format, sample_width = WAVE_FORMAT_IEEE_FLOAT, 4
        else:
            raise ValueError(f"bit_depth must be 16 or 32, got {bit_depth}")
        self.path = path
        self.clipped = 0
        self._pcm16 = bit_depth == 16
        self._declared, self._written = num_samples, 0
        block_align = channels * sample_width
        data_size = num_samples * block_align
        header = b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE"
        header += b"fmt " + struct.pack(
            "<IHHIIHH",
            16,
            audio_format,
            channels,
            sample_rate,
            sample_rate * block_align,
            block_align,
            sample_width * 8,
        )
        header += b"data" + struct.pack("<I", data_size)
        self._file = open(path, "wb")
        self._file.write(header)

    def write(self, samples: np.ndarray) -> None:
        """Append the frames of a (channels, frames) array."""
        if self._pcm16:
            scaled = np.round(samples * 32768.0)
            self.clipped += int(np.count_nonzero((scaled < -32768) | (scaled > 32767)))
            payload = np.clip(scaled, -32768, 32767).T.astype("<i2").tobytes()
        else:
            payload = samples.T.astype("<f4").tobytes()
        self._file.write(payload)
        self._written += samples.shape[1]

    def __enter__(self) -> "WavWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._file.close()
        if exc_type is None and self._written != self._declared:
            raise ValueError(f"{self.path}: {self._declared} frames declared, "
                             f"{self._written} written")


def write_wav(w: Waveform, path, bit_depth: int = 16) -> int:
    """Encode as PCM16 (default) or IEEE float32.

    Returns the number of samples clipped to the PCM16 range; float32
    clips nothing and returns 0.
    """
    with WavWriter(path, w.sample_rate, w.channels, w.num_samples, bit_depth) as out:
        out.write(w.samples)
    return out.clipped


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

    common = math.gcd(target_rate, w.sample_rate)  # the rate ratio in lowest terms
    out_len = resampled_length(w.num_samples, w.sample_rate, target_rate)
    out = resample_poly(
        w.samples, target_rate // common, w.sample_rate // common, axis=1, window=("kaiser", 8.0)
    )
    if out.shape[1] < out_len:
        out = np.pad(out, ((0, 0), (0, out_len - out.shape[1])))
    return Waveform(out[:, :out_len], target_rate)
