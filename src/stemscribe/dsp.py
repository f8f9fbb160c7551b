"""Time-frequency transforms: STFT, overlap-add inverse, log-magnitude
scaling, and a constant-Q filterbank computed one octave at a time as a
real GEMM of the signal's hop-long chunks, which copies no frame, in
memory O(audio).  One overlap_add serves both the iSTFT and the stitching of the
note model's overlapping window outputs (transcription.py).

Layout conventions; every transform takes arrays, none a Waveform:
  * Signals are 1-D float arrays of mono samples at the config's rate.
  * STFT grids are (frames, bins) complex128 with bins = fft_size // 2 + 1.
  * CQT grids are (bins, frames), one row per log-spaced bin.
  * Every window, of STFT frames and CQT kernels alike, is the periodic
    Hann of make_window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


class WindowError(ValueError):
    """Window/hop pair unusable for analysis or reconstruction."""


def make_window(length: int) -> np.ndarray:
    """The periodic Hann window of the STFT and of every CQT kernel; its
    squares sum to a constant at hop = length / 4."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 512
    hop: int = 128

    def __post_init__(self):
        if not 0 < self.hop <= self.fft_size:
            raise ValueError(f"need 0 < hop <= fft_size, got hop={self.hop}, fft_size={self.fft_size}")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


def num_stft_frames(n_samples: int, cfg: StftConfig) -> int:
    if n_samples <= cfg.fft_size:
        return 1
    return 1 + int(np.ceil((n_samples - cfg.fft_size) / cfg.hop))


def stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """(frames, bins) grid of the windowed rFFT over sliding frames of the
    1-D samples x; the last frame is zero-padded."""
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a non-empty 1-D signal, got shape {x.shape}")
    n_frames = num_stft_frames(x.size, cfg)
    padded_len = (n_frames - 1) * cfg.hop + cfg.fft_size
    x = np.pad(x, (0, padded_len - x.size))
    window = make_window(cfg.fft_size)
    frames = sliding_window_view(x, cfg.fft_size)[:: cfg.hop] * window
    return np.fft.rfft(frames, axis=1)


def overlap_add(frames: np.ndarray, hop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum the (frames, n, ...) rows placed hop apart along axis 1; trailing
    axes ride along.  Piece j of every row lands in one strided add; taking
    pieces last to first adds each sample's terms from the earliest frame
    on, exactly as a frame loop does.

    The sum goes into out when it is given: an accumulator of the result's
    shape, zero but for a carry in its first n - hop samples, the sums of
    the earlier frames that reach them.  Those sums come first, so a grid
    added block by block through such a carry gets the bits of one call.
    """
    n_frames, n = frames.shape[:2]
    shape = ((n_frames - 1) * hop + n,) + frames.shape[2:]
    if out is None:
        out = np.zeros(shape)
    elif out.shape != shape:
        raise ValueError(f"accumulator of shape {out.shape}, expected {shape}")
    for j in range(-(-n // hop) - 1, -1, -1):
        piece = frames[:, j * hop : (j + 1) * hop]
        # rows t of the view are the samples (t + j) * hop onward
        rows = as_strided(out[j * hop :], piece.shape, (hop * out.strides[0],) + out.strides,
                          writeable=True)
        rows += piece
    return out


def check_invertible(cfg: StftConfig) -> None:
    """Raise WindowError unless istft can invert grids of cfg."""
    win = make_window(cfg.fft_size)
    # Away from the edges each sample sees the squared windows of one hop
    # period, taken here from the row that every one of `pieces` frames
    # reaches; if they leave a gap, frames were lost between hops.
    pieces = -(-cfg.fft_size // cfg.hop)
    steady = overlap_add(np.broadcast_to(win**2, (pieces, cfg.fft_size)), cfg.hop)
    if steady[(pieces - 1) * cfg.hop : pieces * cfg.hop].min() < 1e-10:
        raise WindowError(f"hop {cfg.hop} leaves gaps between Hann windows of {cfg.fft_size}; "
                          "cannot invert")


def istft(bins: np.ndarray, cfg: StftConfig, carry: np.ndarray | None = None) -> np.ndarray:
    """1-D samples of the weighted overlap-add inverse of a (frames, bins)
    grid of cfg; exact for unmodified grids wherever the squared-window
    sum is nonzero.  A grid of another width raises ValueError.

    A long grid can go through in consecutive blocks of frames, with the
    bits of one call: give every block the same carry, a (2, fft_size - hop)
    array of zeros before the first.  Each call then returns only the
    frames x hop samples that no later frame reaches, and leaves the tails
    of the frame sum and of the squared-window sum in the carry for the
    next block.  The last fft_size - hop samples of the grid stay there.
    """
    if bins.ndim != 2 or bins.shape[1] != cfg.num_bins:
        raise ValueError(f"expected (frames, {cfg.num_bins}) grid, got {bins.shape}")
    check_invertible(cfg)
    win = make_window(cfg.fft_size)
    frames = np.fft.irfft(bins, n=cfg.fft_size, axis=1)
    frames *= win
    out = np.zeros((len(bins) - 1) * cfg.hop + cfg.fft_size)
    norm = np.zeros_like(out)
    if carry is not None:
        out[: carry.shape[1]], norm[: carry.shape[1]] = carry
    overlap_add(np.broadcast_to(win**2, frames.shape), cfg.hop, norm)
    overlap_add(frames, cfg.hop, out)
    if carry is not None:
        done = len(bins) * cfg.hop
        carry[:] = out[done:], norm[done:]
        out, norm = out[:done], norm[:done]
    np.divide(out, norm, out=out, where=norm > 1e-12)
    return out


def log_magnitude(magnitudes: np.ndarray) -> np.ndarray:
    """Decibels of a magnitude grid, 10 log10(m²), with the power floored
    at 1e-10 (-100 dB) for stability."""
    s = np.asarray(magnitudes, dtype=np.float64)
    return 10.0 * np.log10(np.maximum(s**2, 1e-10))


@dataclass(frozen=True)
class CqtConfig:
    n_bins: int = 84
    bins_per_octave: int = 12
    f_min: float = 27.5
    hop: int = 512
    sample_rate: int = 22050

    def __post_init__(self):
        if min(self.n_bins, self.bins_per_octave, self.hop) <= 0:
            raise ValueError("CQT parameters must be positive")
        if not self.f_min > 0:  # a NaN fails this test, as it must
            raise ValueError(f"f_min must be positive, got {self.f_min}")
        if not self.max_frequency() < self.sample_rate / 2:
            raise ValueError(
                f"top bin {self.max_frequency():.1f} Hz reaches Nyquist "
                f"({self.sample_rate / 2:.1f} Hz)"
            )

    def center_frequency(self, k: int) -> float:
        return self.f_min * 2.0 ** (k / self.bins_per_octave)

    def max_frequency(self) -> float:
        return self.center_frequency(self.n_bins - 1)

    @property
    def frame_time(self) -> float:
        """Seconds per frame: the hop at the sample rate."""
        return self.hop / self.sample_rate


def cqt_kernels(cfg: CqtConfig) -> list[np.ndarray]:
    """One complex kernel per bin, Hann-windowed and L1-normalized, with
    length set by the constant quality factor Q = 1 / (2^(1/bpo) - 1)."""
    q = 1.0 / (2.0 ** (1.0 / cfg.bins_per_octave) - 1.0)
    kernels = []
    for k in range(cfg.n_bins):
        f_k = cfg.center_frequency(k)
        n_k = int(np.ceil(q * cfg.sample_rate / f_k))
        win = make_window(n_k)
        t = np.arange(n_k) - (n_k - 1) / 2.0
        kernel = win * np.exp(-2j * np.pi * f_k * t / cfg.sample_rate)
        kernels.append(kernel / win.sum())
    return kernels


# Frames per CQT GEMM.  Each octave's product for one block is a
# (block + m - 1, m x 2g) array, 1.5 MB at the default 27.5 Hz bottom bin
# (m = 27 hop-long chunks, 2g = 24 columns); nothing else grows with it.
_CQT_BLOCK = 256


def num_cqt_frames(n_samples: int, cfg: CqtConfig) -> int:
    return int(np.ceil(n_samples / cfg.hop))


@functools.lru_cache(maxsize=1)  # one config's bases, 5.3 MB at the default, not several
def _octave_bases(cfg: CqtConfig) -> tuple[int, tuple[tuple[int, np.ndarray], ...]]:
    """The left padding cqt needs and, per octave, where its frames start
    in the padded signal and its (hop, m, 2g) chunk basis.

    An octave's g kernels, zero-padded to its longest, n_max, form an
    (n_max, 2g) real basis: real parts in the first g columns, negated
    imaginary parts in the last g.  Kernel k sits at offset
    n_max//2 - n_k//2, so it meets exactly the samples hop*t + pad - n_k//2
    onward that it would meet alone.  Zero-padded further to m whole hops,
    its rows j*hop ... (j+1)*hop are column block [:, j] of the chunk basis.
    Kept for the last config alone, and read-only, since every call with
    that config shares them."""
    kernels = cqt_kernels(cfg)
    pad = max(k.size for k in kernels) // 2 + 1
    octaves = []
    for k0 in range(0, cfg.n_bins, cfg.bins_per_octave):
        group = kernels[k0 : k0 + cfg.bins_per_octave]
        g, n_max = len(group), max(k.size for k in group)
        m = -(-n_max // cfg.hop)
        basis = np.zeros((m * cfg.hop, 2 * g))
        for j, kernel in enumerate(group):
            off = n_max // 2 - kernel.size // 2
            basis[off : off + kernel.size, j] = kernel.real
            basis[off : off + kernel.size, g + j] = -kernel.imag
        chunk_basis = np.ascontiguousarray(basis.reshape(m, cfg.hop, 2 * g).transpose(1, 0, 2))
        chunk_basis.flags.writeable = False
        octaves.append((pad - n_max // 2, chunk_basis))
    return pad, tuple(octaves)


def cqt(x: np.ndarray, cfg: CqtConfig) -> np.ndarray:
    """Constant-Q magnitudes of the 1-D samples x at cfg.sample_rate,
    shape (n_bins, frames), frames centered at multiples of the hop.

    Bins are taken an octave (bins_per_octave bins) at a time, as in
    Schörkhuber & Klapuri, "Constant-Q transform toolbox for music
    processing" (SMC 2010), but without decimation: each octave's kernels
    are zero-padded to its longest one, so that one real basis of the
    kernels' stacked real and imaginary parts gives the same inner
    products as one kernel at a time.  No frame is copied out of the
    signal.  The padded signal from an octave's first frame on is a
    contiguous run of hop-long chunks, and frame t is chunks t ... t+m-1,
    so one GEMM of the chunks with the (hop, m x 2g) chunk basis gives,
    in column block j of row t + j, the part of frame t's inner products
    that chunk j holds; a frame's products are the sum of its m blocks.
    The bases of the last config are cached (_octave_bases).  Frames go
    through in blocks of _CQT_BLOCK, so beyond the padded signal and the
    output the working memory is one block's product.
    """
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a non-empty 1-D signal, got shape {x.shape}")
    pad, octaves = _octave_bases(cfg)
    n_frames = num_cqt_frames(x.size, cfg)
    hop = cfg.hop
    # zeros on the right up to the end of every octave's last chunk
    end = max(start + (n_frames + basis.shape[1] - 1) * hop for start, basis in octaves)
    padded = np.pad(x, (pad, max(end - pad - x.size, 0)))
    out = np.empty((cfg.n_bins, n_frames))
    for k0, (start, basis) in zip(range(0, cfg.n_bins, cfg.bins_per_octave), octaves):
        _, m, g2 = basis.shape
        g = g2 // 2
        chunks = padded[start : start + (n_frames + m - 1) * hop].reshape(-1, hop)
        flat_basis = basis.reshape(hop, m * g2)
        for t0 in range(0, n_frames, _CQT_BLOCK):
            n = min(_CQT_BLOCK, n_frames - t0)
            prod = (chunks[t0 : t0 + n + m - 1] @ flat_basis).reshape(-1, m, g2)
            acc = prod[:n, 0].copy()
            for j in range(1, m):
                acc += prod[j : j + n, j]
            out[k0 : k0 + g, t0 : t0 + n] = np.hypot(acc[:, :g], acc[:, g:]).T
    return out
