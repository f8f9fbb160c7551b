"""Vocals/accompaniment separation: mask algebra, on-the-fly remixing,
and the LSTM mask-estimator model.

A mask is a plain (frames, bins) float array in [0, 1] over the
analysis_spectrogram grid of the mixture. Separation is one pass over
blocks of _SEP_BLOCK frames of that grid: each block's samples, read
from the mixture (a WAV file or a Waveform) and downmixed, its STFT,
its log-magnitude grid, its rows from a mask source (the model, the
oracle or a constant) and the inverse STFT of the masked bins, with the
overlap-add tail carried from block to block. Each block's stem samples
go on as it completes them, so a separation from file to file holds no
signal whole, and its memory does not grow with the audio.

The model's mask source (SeparatorModel.masks) runs its LSTM layers in
one of two ways, chosen by the length of the grid alone. A grid shorter
than _LANE_MIN_FRAMES frames, such as 10 s at the default config, is
one pass, the layers' (h, c) carried from block to block. A longer grid is
cut into lanes that step together as one batch, each from zero state
after a burn-in (_lane_plan, _LanePass), whose masks are those of the
one pass within a bound that the weights set: scripts/lane_gate.py
measures it, and ROADMAP.md holds its table for trained separators.
Either way every stage is per frame or causal, and every matrix product
of the model runs over row ranges that the grid alone sets, so the
masks and stems are bitwise the same at any _SEP_BLOCK that is a
multiple of nn.layers._STACK_LAG, under any BLAS thread count and from
run to run. The accompaniment is the mono mixture minus the vocals, so
the two stems add back to the mixture by construction; it equals the
inverse STFT of the complementary mask 1 - m to rounding error.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import nn
from .audio_io import Waveform, WavReader, downmix
from .dsp import StftConfig, istft, log_magnitude, num_stft_frames, stft

STEM_NAMES = ("vocals", "bass", "drums", "other")

GAIN_LOW, GAIN_HIGH = 0.5, 1.25

# Analysis frames per separation block: 3.0 s at the default 22.05 kHz
# and hop 128.  Its grids (frames, bins, masks, inverse frames) peak at
# 8 MB under tracemalloc at the default config, whatever the length of
# the audio (16 MB at 1024 frames, 32 MB at 2048).  A multiple of
# nn.layers._STACK_LAG, so nn.lstm_stack and nn.stack_dense project the
# frames of every block in the chunks of a pass over the whole grid, and
# the masks and stems do not depend on it.
_SEP_BLOCK = 512

# The lane pass of SeparatorModel.masks (_lane_plan, _LanePass).  A grid
# of at least _LANE_MIN_FRAMES frames is cut into lanes, whose bounds are
# multiples of nn.layers._STACK_LAG, and the lanes of each super-block,
# at most _LANES, step together as one batch of nn.lstm_stack from zero
# state, _LANE_ROUND frames per call.  Each lane reads at most
# _LANE_FRAMES frames, so the top-layer states a super-block keeps are at
# most 4 MB at the default sizes; its (_LANE_ROUND, _LANES, bins) input
# buffer is 4 MB more, and a 60 s separate peaks 8 MB above one pass
# under tracemalloc.  Every lane but the grid's first starts _BURN_IN
# frames before the first frame it keeps and drops their outputs: the
# burn-in of Kapturowski et al., "Recurrent Experience Replay in
# Distributed Reinforcement Learning" (ICLR 2019), after which the lane
# runs from about the state one pass over the grid reaches there.  At
# batch 8 a frame's step costs about half what it costs at batch 1, but
# the lanes take a second STFT of every frame and step through their
# burn-in too, so a grid shorter than _LANE_MIN_FRAMES (11.9 s at the
# default config; 10 s is 1,731 frames) gains too little and runs as
# one pass.
_LANES = 8
_LANE_FRAMES = 1024
_LANE_ROUND = 128
_BURN_IN = 128
_LANE_MIN_FRAMES = 2048

# Where separate_blocks reads the mixture: read(start, stop) gives the
# samples [start, stop) of every channel.
SampleSource = Waveform | WavReader

# masks(first_frame, log_mag) -> the mask rows of a block's frames
MaskSource = Callable[[int, np.ndarray], np.ndarray]

# sink(first_sample, vocals, accompaniment): the stems' samples from
# first_sample on
StemSink = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass
class SourceSet:
    """Aligned stems of one track."""

    vocals: Waveform
    bass: Waveform
    drums: Waveform
    other: Waveform

    def __post_init__(self):
        stems = self.stems()
        rates = {w.sample_rate for w in stems.values()}
        lengths = {w.num_samples for w in stems.values()}
        if len(rates) != 1 or len(lengths) != 1:
            raise ValueError("stems must share sample rate and length")

    def stems(self) -> dict[str, Waveform]:
        return {name: getattr(self, name) for name in STEM_NAMES}

    @property
    def sample_rate(self) -> int:
        return self.vocals.sample_rate


def sum_accompaniment(s: SourceSet) -> Waveform:
    """Samplewise bass + drums + other."""
    total = s.bass.samples + s.drums.samples + s.other.samples
    return Waveform(total, s.sample_rate)


def mixture_of(s: SourceSet) -> Waveform:
    return Waveform(s.vocals.samples + sum_accompaniment(s).samples, s.sample_rate)


def remix(sets: list[SourceSet],
          rng: np.random.Generator | int | None = None) -> tuple[Waveform, SourceSet]:
    """Draw each stem from a random set, scale it by a gain drawn uniformly
    from [GAIN_LOW, GAIN_HIGH], and sum them into a new mixture.

    The returned targets are the scaled stems, so the mixture equals their
    sum exactly.
    """
    if not sets:
        raise ValueError("need at least one source set")
    lengths = {s.vocals.num_samples for s in sets}
    if len(lengths) != 1:
        raise ValueError("source sets must have aligned clip lengths")
    rng = np.random.default_rng(rng)
    picked = {name: sets[rng.integers(len(sets))].stems()[name] for name in STEM_NAMES}
    gains = {name: float(rng.uniform(GAIN_LOW, GAIN_HIGH)) for name in STEM_NAMES}
    scaled = {
        name: Waveform(gains[name] * w.samples, w.sample_rate) for name, w in picked.items()
    }
    targets = SourceSet(**scaled)
    return mixture_of(targets), targets


def apply_mask(mask: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Elementwise scaling of the complex bins; phase is untouched."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != bins.shape:
        raise ValueError(f"mask shape {mask.shape} does not match spectrogram {bins.shape}")
    return mask * bins


def ideal_ratio_mask(target: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Oracle mask target / (target + residual), with 0/0 mapped to 0."""
    target = np.asarray(target, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    if target.shape != residual.shape:
        raise ValueError(f"shape mismatch: {target.shape} vs {residual.shape}")
    denom = target + residual
    out = np.zeros_like(denom)
    np.divide(target, denom, out=out, where=denom > 0)
    return out


class SeparatorModel(nn.Layer):
    """Mask estimator: per-bin batch norm over frames, an LSTM stack, and a
    time-distributed dense+sigmoid head emitting one mask value per bin."""

    def __init__(self, num_bins: int, hidden: int = 64, layers: int = 2, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.num_bins = num_bins
        self.children = {"norm": nn.BatchNorm(num_bins)}
        for i in range(layers):
            self.children[f"lstm{i}"] = nn.Lstm(num_bins if i == 0 else hidden, hidden, rng)
        self.children["head"] = nn.Dense(hidden, num_bins, rng)
        self.children["out"] = nn.Sigmoid()

    def forward_mask(self, log_mag: np.ndarray, training: bool = False,
                     state: np.ndarray | None = None) -> np.ndarray:
        """(frames, B, bins) masks for a time-major (frames, B, bins) batch
        of log grids.

        A training forward runs the LSTM layers one after the other, from
        zero state, each keeping what backward needs.  At inference they
        run as one nn.lstm_stack, from state (see zero_state) when given,
        which is then left holding the final one, and the head projects
        in lstm_stack's chunks of frames (nn.stack_dense), so a frame's
        mask does not depend on the block of the grid it is passed in."""
        norm, *lstms, head, out = self.children.values()
        h = norm.forward(log_mag, training)
        del log_mag  # a stacked training batch, made for this call, goes before the LSTMs run
        if training:
            if state is not None:
                raise ValueError("a training forward starts from zero state; backward assumes it")
            for lstm in lstms:
                h = lstm.forward(h, training=True)
            h = head.forward(h, training=True)
        else:
            h = nn.lstm_stack(lstms, h, self.zero_state(h.shape[1]) if state is None else state)
            h = nn.stack_dense(head, h)
        return out.forward(h, training)

    def backward(self, grad_mask: np.ndarray) -> None:
        """Takes the gradient of the mask forward_mask returned."""
        norm, *rest = self.children.values()
        for layer in reversed(rest):
            grad_mask = layer.backward(grad_mask)
        norm.backward_params(grad_mask)

    def zero_state(self, batch: int = 1) -> np.ndarray:
        """The (h, c) of every LSTM layer at the start of a grid, as the
        (layers, 2, batch, hidden) array nn.lstm_stack carries."""
        lstms = [layer for layer in self.children.values() if isinstance(layer, nn.Lstm)]
        return np.zeros((len(lstms), 2, batch, lstms[0].hidden_size))

    def predict_mask(self, log_mag: np.ndarray,
                     state: np.ndarray | _LanePass | None = None) -> np.ndarray:
        """Inference mask for a (frames, bins) log_magnitude grid, from state
        (see forward_mask) when given.  When state is a _LanePass, the
        rows are those of the pass's next len(log_mag) frames: the pass
        gives their top-layer LSTM states, running the super-block that
        holds them first if it has not, and only the head runs here."""
        if not isinstance(state, _LanePass):
            return self.forward_mask(log_mag[:, None], state=state)[:, 0]
        *_, head, out = self.children.values()
        return out.forward(nn.stack_dense(head, state.next_states(len(log_mag))))[:, 0]

    def masks(self, mixture: SampleSource, stft_cfg: StftConfig) -> MaskSource:
        """Mask source of the mixture's analysis grid: predict_mask of each
        block, in order, from the state the block before it left.

        A grid shorter than _LANE_MIN_FRAMES frames is one pass, the
        lstm_stack (h, c) carried from block to block.  A longer one is a
        lane pass (_lane_plan, _LanePass), whose masks are those of the
        one pass only within a bound that the burn-in and the weights set
        (scripts/lane_gate.py measures it).  Either way the rows are
        bitwise the same at any _SEP_BLOCK that is a multiple of
        nn.layers._STACK_LAG, under any BLAS thread count and from run to
        run."""
        plan = _lane_plan(_grid_frames(mixture.num_samples, stft_cfg))
        state = _LanePass(self, mixture, stft_cfg, plan) if plan else self.zero_state()
        return lambda first_frame, log_mag: self.predict_mask(log_mag, state)

    def loss_and_grad(self, batch: list["TrainingClip"]) -> float:
        """Summed L1 spectrogram-magnitude loss of equal-length clips on
        both estimated stems, in one forward and one backward pass.

        Each residual, mask·mix - vocal and then (1 - mask)·mix - accomp,
        goes through one (frames, B, bins) buffer, and the gradient
        (sign_v - sign_a)·mix / n through a second: each step of those
        formulas, in their order, is made in place, and each clip's
        magnitudes enter its own rows, never stacked."""
        mask = self.forward_mask(np.stack([clip.log_mag for clip in batch], axis=1),
                                 training=True)
        resid = np.empty_like(mask)
        for b, clip in enumerate(batch):
            np.multiply(mask[:, b], clip.mix_mag, out=resid[:, b])
            resid[:, b] -= clip.vocal_mag
        grad = np.sign(resid)
        per_clip = np.abs(resid, out=resid).mean(axis=(0, 2))
        np.subtract(1.0, mask, out=resid)
        mask = None  # the output layer's cache, which its backward frees, holds it
        for b, clip in enumerate(batch):
            resid[:, b] *= clip.mix_mag
            resid[:, b] -= clip.accomp_mag
            grad[:, b] -= np.sign(resid[:, b])
            grad[:, b] *= clip.mix_mag
        per_clip += np.abs(resid, out=resid).mean(axis=(0, 2))
        resid = None
        grad /= grad.shape[0] * grad.shape[2]  # cells per clip
        self.backward(grad)
        return float(per_clip.sum())


@dataclass
class TrainingClip:
    """Precomputed spectrogram features for one remixed clip."""

    log_mag: np.ndarray
    mix_mag: np.ndarray
    vocal_mag: np.ndarray
    accomp_mag: np.ndarray


def make_training_clip(mixture: Waveform, vocals: Waveform, accompaniment: Waveform,
                       cfg: StftConfig) -> TrainingClip:
    mix_mag = np.abs(stft(mixture.mono_samples(), cfg))
    return TrainingClip(
        log_mag=log_magnitude(mix_mag),
        mix_mag=mix_mag,
        vocal_mag=np.abs(stft(vocals.mono_samples(), cfg)),
        accomp_mag=np.abs(stft(accompaniment.mono_samples(), cfg)),
    )


def _grid_frames(num_samples: int, cfg: StftConfig) -> int:
    """Frames of the analysis grid of a signal of num_samples samples."""
    return num_stft_frames(num_samples + 2 * cfg.fft_size, cfg)


def _padded_block(source: SampleSource, t0: int, t1: int, cfg: StftConfig) -> np.ndarray:
    """The 1-D samples that frames t0..t1-1 of the analysis grid cover:
    the source's downmix with one FFT length of zeros on each side, read
    from the source for these frames alone."""
    a, b = t0 * cfg.hop - cfg.fft_size, (t1 - 1) * cfg.hop  # in source samples
    lo = max(a, 0)
    hi = max(min(b, source.num_samples), lo)
    return np.pad(downmix(source.read(lo, hi)), (lo - a, b - hi))


def _lane_plan(n_frames: int) -> list[list[tuple[int, int, int]]]:
    """The lanes of the lane pass over a grid of n_frames frames, one list
    per super-block of at most _LANES consecutive lanes; empty for a grid
    shorter than _LANE_MIN_FRAMES, which runs as one pass.

    A lane is (first, keep, stop): it reads the frames [first, stop) and
    keeps the outputs of [keep, stop).  Lane i reads from i·L on and keeps
    from i·L + _BURN_IN, but for the grid's first lane, which keeps every
    frame it reads; so all lanes read L + _BURN_IN frames, but the grid's
    last, which stops at its end.  L is the smallest multiple of
    nn.layers._STACK_LAG with which the fewest super-blocks of lanes
    reading at most _LANE_FRAMES frames hold the grid."""
    if n_frames < _LANE_MIN_FRAMES:
        return []
    lag = nn.layers._STACK_LAG
    span = n_frames - _BURN_IN  # the frames after those the first lane keeps in addition
    supers = -(-span // (_LANES * (_LANE_FRAMES - _BURN_IN)))
    length = lag * -(-span // (_LANES * supers * lag))
    keeps = [0, *range(length + _BURN_IN, n_frames, length), n_frames]
    lanes = [(i * length, keep, stop) for i, (keep, stop) in enumerate(zip(keeps, keeps[1:]))]
    return [lanes[i : i + _LANES] for i in range(0, len(lanes), _LANES)]


class _LanePass:
    """The lane pass over one mixture's analysis grid (_lane_plan).

    A super-block's lanes step together, _LANE_ROUND frames per
    nn.lstm_stack call, with their (h, c) carried from call to call, for
    as many frames as its longest lane reads.  For each call every lane
    reads its own samples, through _padded_block, stft, log_magnitude and
    the norm, into one (_LANE_ROUND, lanes, bins) buffer; a lane past its
    stop is fed zero rows, whose outputs it drops.  The pass keeps only
    the top layer's states of one super-block, in one (L + _BURN_IN,
    lanes, hidden) buffer, and runs the next super-block when
    next_states first asks for one of its frames."""

    def __init__(self, model: SeparatorModel, source: SampleSource, cfg: StftConfig,
                 plan: list[list[tuple[int, int, int]]]):
        self.model, self.source, self.cfg = model, source, cfg
        self.supers = iter(plan)
        self.lanes: list[tuple[int, int, int]] = []  # the super-block in the buffer
        first, _, stop = plan[0][0]
        hidden = model.children["head"].w.shape[0]
        self.top = np.empty((stop - first, len(plan[0]), hidden))
        self.next = 0  # the next frame next_states hands out

    def next_states(self, count: int) -> np.ndarray:
        """(count, 1, hidden) top-layer states of the next count frames of
        the grid, in order."""
        t0, t1 = self.next, self.next + count
        rows = np.empty((count, 1, self.top.shape[2]))
        t = t0
        while t < t1:
            if not self.lanes or t >= self.lanes[-1][2]:
                self._run(next(self.supers))
            for j, (first, keep, stop) in enumerate(self.lanes):
                a, e = max(t, keep), min(t1, stop)
                if a < e:
                    rows[a - t0 : e - t0, 0] = self.top[a - first : e - first, j]
            t = min(t1, self.lanes[-1][2])
        self.next = t1
        return rows

    def _run(self, lanes: list[tuple[int, int, int]]) -> None:
        """Step the super-block's lanes, keeping their top-layer states."""
        norm, *lstms, _, _ = self.model.children.values()
        steps = max(stop - first for first, _, stop in lanes)
        x = np.empty((min(_LANE_ROUND, steps), len(lanes), norm.gamma.size))
        state = self.model.zero_state(len(lanes))
        for s in range(0, steps, _LANE_ROUND):
            r = min(_LANE_ROUND, steps - s)
            for j, (first, _, stop) in enumerate(lanes):
                t0, t1 = first + s, min(first + s + r, stop)
                if t0 < t1:
                    grid = stft(_padded_block(self.source, t0, t1, self.cfg), self.cfg)
                    x[: t1 - t0, j] = norm.forward(log_magnitude(np.abs(grid))[:, None])[:, 0]
                x[max(t1 - t0, 0) : r, j] = 0.0
            self.top[s : s + r, : len(lanes)] = nn.lstm_stack(lstms, x[:r], state)
        self.lanes = lanes


def analysis_spectrogram(w: Waveform, cfg: StftConfig) -> np.ndarray:
    """(frames, bins) STFT of the signal with one FFT length of zeros on
    each side.

    Masking makes the spectrogram inconsistent, and the overlap-add
    divisor is tiny at the tapered ends, so inverting a masked edge
    frame amplifies the inconsistency by orders of magnitude.  Padding
    keeps every real sample in the flat interior; callers trim
    [fft_size : fft_size + n] after inversion.  The rows every mask
    source gives separate_blocks are rows of this grid.
    """
    return stft(_padded_block(w, 0, _grid_frames(w.num_samples, cfg), cfg), cfg)


def oracle_masks(mixture: Waveform, target: Waveform, residual: Waveform,
                 cfg: StftConfig) -> MaskSource:
    """Mask source of ideal_ratio_mask over the references' analysis grid
    magnitudes, one block at a time.  Refuses a grid not the mixture's."""
    grids = [(_grid_frames(w.num_samples, cfg), cfg.num_bins) for w in (mixture, target, residual)]
    for grid in grids[1:]:
        if grid != grids[0]:
            raise ValueError(f"reference grid {grid} does not match the analysis grid {grids[0]}")
    return lambda t0, log_mag: ideal_ratio_mask(
        *(np.abs(stft(_padded_block(w, t0, t0 + len(log_mag), cfg), cfg))
          for w in (target, residual)))


def separate_blocks(mixture: SampleSource, masks: MaskSource, stft_cfg: StftConfig,
                    on_block: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
                    sink: StemSink | None = None) -> tuple[Waveform, Waveform] | None:
    """(vocals, accompaniment) of the mixture in one pass over blocks of
    _SEP_BLOCK frames of its analysis_spectrogram grid; a lone last frame
    joins the block before it.

    Each block's samples are read from the mixture, transformed, masked
    by the rows masks(first_frame, log_mag) returns for it, and inverted;
    the inverse's overlap-add tail carries over to the next, so the stems
    are those of the whole grid at once.  Rows off the block's grid, or
    holding a NaN, a value outside [0, 1] or a -0.0, which only a diverged
    separator gives, raise ValueError before on_block sees them.
    on_block(first_frame, log_mag, rows) sees each block's log-magnitude
    rows and mask rows in frame order.  Given a sink, the pass hands it
    the stem samples each block completes, in order, and returns None;
    else it returns the stems.
    """
    cfg = stft_cfg
    n = mixture.num_samples
    n_frames = _grid_frames(n, cfg)
    collect = sink is None
    if collect:
        stems = np.empty((2, n))

        def sink(first: int, vocals: np.ndarray, accomp: np.ndarray) -> None:
            stems[:, first : first + vocals.size] = vocals, accomp

    carry = np.zeros((2, cfg.fft_size - cfg.hop))
    bounds = [*range(0, n_frames, _SEP_BLOCK), n_frames]
    if bounds[-1] - bounds[-2] == 1:
        # a lone last frame joins the block before it: the model's GEMM of
        # a 1-row block need not give that row the bits of a taller one
        del bounds[-2]
    for t0, t1 in zip(bounds, bounds[1:]):
        x = _padded_block(mixture, t0, t1, cfg)
        bins = stft(x, cfg)
        log_mag = log_magnitude(np.abs(bins))
        rows = masks(t0, log_mag)
        if rows.shape != log_mag.shape:
            raise ValueError(f"mask rows {rows.shape} of frames {t0}..{t1 - 1} do not match "
                             f"the analysis grid {(n_frames, cfg.num_bins)}")
        bad = ~((rows >= 0.0) & (rows <= 1.0)) | np.signbit(rows)
        if bad.any():
            raise ValueError(f"mask rows of frames {t0}..{t1 - 1}: {np.count_nonzero(bad)} values "
                             f"NaN, outside [0, 1] or -0.0, the first {rows[bad][0]}; "
                             "the separator has diverged")
        bad = None  # not held through on_block: that raised a 60 s separate's peak RSS 0.6 MB
        if on_block is not None:
            on_block(t0, log_mag, rows)
        bins = apply_mask(rows, bins)
        log_mag = rows = None  # the inverse needs only the masked bins
        # The inverse of this block's frames x hop samples from x's first,
        # trimmed to the mixture's; the last frame starts no earlier than
        # the mixture's end, so the blocks cover all of it.
        inverse = istft(bins, cfg, carry)
        first = t0 * cfg.hop - cfg.fft_size
        lo, hi = max(-first, 0), max(min(n - first, inverse.size), 0)
        vocals = inverse[lo:hi]
        sink(first + lo, vocals, x[lo:hi] - vocals)
    if collect:
        return (Waveform(stems[:1], mixture.sample_rate),
                Waveform(stems[1:], mixture.sample_rate))
    return None


def separate(mixture: Waveform, model: SeparatorModel,
             stft_cfg: StftConfig) -> tuple[Waveform, Waveform, np.ndarray]:
    """(vocals, accompaniment, mask) of the mixture under the model; the
    accompaniment is the exact complement mixture - vocals."""
    blocks = []
    vocals, accomp = separate_blocks(mixture, model.masks(mixture, stft_cfg), stft_cfg,
                                     on_block=lambda t0, log_mag, rows: blocks.append(rows))
    return vocals, accomp, np.concatenate(blocks)
