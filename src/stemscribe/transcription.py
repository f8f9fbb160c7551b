"""Piano transcription: feature windowing, the conv/BiLSTM note model
and its config, training examples, probability stitching, and
frame/onset scoring. cli._train_and_save fits the model with nn.fit.

AmtConfig is the run config's ``amt`` section and the one place each
setting of the note model is kept and checked: its sizes, its threshold
and its focal loss's alpha and gamma. The model's input and output
widths (CQT bins, keys) are arguments of AmtModel, and the frame period
of its rolls is that of the CQT, dsp.CqtConfig.frame_time.

The feature pipeline is log-scaled constant-Q magnitudes at 22050 Hz with
a 512-sample hop, cut into 512-frame windows that overlap by half. One
helper, _windows, places those windows: they are a single read-only
strided view of the grid, and training targets are cut from the piano
roll by the same placement. The model emits 88 per-frame key
probabilities; overlapping window outputs are averaged through
dsp.overlap_add, the iSTFT's own overlap-add, and binarized strictly
above the config's threshold, 0.5 by default.

Training runs AmtModel.forward on stacked windows. Inference runs
AmtModel.predict on the whole grid: at inference every layer before the
BiLSTM recurrence reads a frame and its two neighbours only, so predict
takes each frame through them once, in blocks of frames per group of
windows, and only the recurrence, the head and the sigmoid run per
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .audio_io import Waveform, resample
from .dsp import CqtConfig, cqt, log_magnitude, overlap_add
from .nn.loss import focal_loss
from .pianoroll import LOWEST_PITCH, N_KEYS, PianoRoll, rasterize_notes, roll_to_notes

SEGMENT_WINDOW = 512
SEGMENT_HOP = 256
# onset_metrics matches onsets within 50 ms, the convention of mir_eval's
# transcription metrics (Raffel et al., ISMIR 2014).
ONSET_TOLERANCE = 0.05
# The factor the note model's max pooling divides the bins by.
_POOL_FREQ = 2
# Windows that AmtModel.predict takes through the recurrence, head and
# sigmoid together, and whose new frames it projects as one block. A group
# of 3 default-size windows holds 6.3 MB of pre-activations (512 steps of
# 2 directions x 3 windows x 256) and 4.2 MB of the 1,024 frames' own
# projections; the conv, pool and projection of its block add ~19 MB while
# they run (~14 MB for the 768 frames of each later group). Batches of 1
# and of 3 windows are not bitwise equal in the recurrence and head GEMMs.
_WINDOW_BATCH = 3


def _windows(grid: np.ndarray, window: int, hop: int) -> np.ndarray:
    """The (count, rows, window) read-only view of a (rows, N) grid's
    windows, one every hop frames from frame 0.

    A grid shorter than one window is zero-padded up to it; the count is
    then (N_padded - window) // hop + 1, so a trailing partial window is
    not emitted. Stitching zero-fills whatever the last window misses.
    """
    return sliding_window_view(_padded(grid, window), window, axis=1)[:, ::hop].transpose(1, 0, 2)


def _padded(grid: np.ndarray, window: int) -> np.ndarray:
    """A (rows, N) grid, zero-padded to one window if it is shorter."""
    n = grid.shape[1]
    return np.pad(grid, ((0, 0), (0, window - n))) if n < window else grid


@dataclass
class SegmentedFeatures:
    """Overlapping fixed-width windows cut from one feature grid, as one
    (count, bins, window) array."""

    segments: np.ndarray
    hop_frames: int
    source_length: int

    def __post_init__(self):
        self.segments = np.asarray(self.segments)  # a ragged list raises ValueError
        if self.segments.ndim != 3 or not len(self.segments):
            raise ValueError(f"need a (count >= 1, bins, window) array, got {self.segments.shape}")
        if self.hop_frames <= 0 or self.source_length <= 0:
            raise ValueError("hop_frames and source_length must be positive")

    @property
    def window(self) -> int:
        return self.segments.shape[2]


def segment(features: np.ndarray, window: int = SEGMENT_WINDOW,
            hop: int = SEGMENT_HOP) -> SegmentedFeatures:
    """Cut a (bins, N) grid into overlapping (bins, window) windows placed
    by _windows."""
    if features.ndim != 2 or features.shape[1] < 1:
        raise ValueError(f"expected a (bins, N >= 1) grid, got {features.shape}")
    return SegmentedFeatures(_windows(features, window, hop), hop, features.shape[1])


@dataclass(frozen=True)
class AmtConfig:
    """The note model's settings: conv and BiLSTM sizes, the binarization
    threshold, and the focal loss's alpha and gamma. A NaN fails every
    range check."""

    conv_channels: int = 16
    hidden: int = 64
    threshold: float = 0.5
    alpha: float = 0.35
    gamma: float = 3.0

    def __post_init__(self):
        if min(self.conv_channels, self.hidden) <= 0:
            raise ValueError("model sizes must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold {self.threshold} outside (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")


@dataclass
class AmtExample:
    """One training window: (bins, W) features, (W, keys) binary targets,
    0 or 1 in any real or integer dtype."""

    features: np.ndarray
    targets: np.ndarray


class AmtModel(nn.Layer):
    """Frame-wise key-activation estimator over feature windows.

    Per-bin batch norm over n_bins feature rows, a 3x3 conv bank,
    frequency-only max pooling, a time-major reshape, a BiLSTM, then a
    shared dense+sigmoid head giving n_keys probabilities per frame. A
    batch of equal-width windows runs as one pass of forward, whose
    training batch norm takes its statistics per window. predict is the
    inference of a whole feature grid, which projects each frame once.
    """

    def __init__(self, cfg: AmtConfig = AmtConfig(), seed: int = 0, *,
                 n_bins: int = CqtConfig.n_bins, n_keys: int = N_KEYS):
        if n_bins % _POOL_FREQ:
            raise ValueError(f"pooling by {_POOL_FREQ} must divide n_bins {n_bins}")
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.n_bins = n_bins
        # feature width per frame after pooling and the time-major reshape
        seq_features = cfg.conv_channels * (n_bins // _POOL_FREQ)
        self.norm = nn.BatchNorm(n_bins)
        self.conv = nn.Conv2d(1, cfg.conv_channels, (3, 3), rng)
        self.pool = nn.MaxPool2d((_POOL_FREQ, 1))
        self.blstm = nn.BiLstm(seq_features, cfg.hidden, rng)
        self.head = nn.Dense(2 * cfg.hidden, n_keys, rng)
        self.out = nn.Sigmoid()
        self.children = {"norm": self.norm, "conv": self.conv, "pool": self.pool,
                         "blstm": self.blstm, "head": self.head, "out": self.out}

    def forward(self, seg: np.ndarray, training: bool = False) -> np.ndarray:
        """(B, bins, W) windows -> (B, W, keys) probabilities."""
        if seg.ndim != 3 or seg.shape[1] != self.n_bins:
            raise ValueError(f"expected (B, {self.n_bins}, W) features, got {seg.shape}")
        x = self.norm.forward(seg.transpose(2, 0, 1), training)  # stats per window and bin
        x = self.pool.forward(self.conv.forward(x.transpose(1, 2, 0)[:, None], training),
                              training)
        n, c, b, w = x.shape
        self._cache = x.shape if training else None
        # one contiguous copy for BiLstm, which reads it in both time orders
        seq = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).reshape(w, n, c * b)
        x = self.blstm.forward(seq, training)
        return self.out.forward(self.head.forward(x, training), training).transpose(1, 0, 2)

    def backward(self, grad: np.ndarray) -> None:
        """Takes the gradient of the probabilities forward returned. Each
        step's gradient is dropped once the next has read it."""
        n, c, b, w = self._backward_cache()
        g = self.blstm.backward(self.head.backward(self.out.backward(grad.transpose(1, 0, 2))))
        g = self.pool.backward(g.reshape(w, n, c, b).transpose(1, 2, 3, 0))
        g = self.conv.backward(g)
        self.norm.backward_params(g[:, 0].transpose(2, 0, 1))

    def predict(self, features: np.ndarray, window: int = SEGMENT_WINDOW,
                hop: int = SEGMENT_HOP) -> np.ndarray:
        """(bins, N) grid -> the (count, window, keys) probabilities of the
        windows _windows places on it: forward over
        segment(features, window, hop).segments, but for the bits that the
        input projection's GEMM row counts give.

        At inference norm, conv, pool and the BiLstm input projections
        act on a frame and its two neighbours only, so each frame goes
        through them once, in one block of frames per group of
        _WINDOW_BATCH windows: the frames the group adds to those the
        group before projected, with one frame of real context on each
        side. Only each window's first and last frame is projected again,
        beside the zero neighbour its own conv padding gives. The group's
        step-order pre-activations are gathered from the projected frames
        and go through the BiLstm recurrence, the head and the sigmoid
        together.
        """
        if features.ndim != 2 or features.shape[0] != self.n_bins or features.shape[1] < 1:
            raise ValueError(f"expected a ({self.n_bins}, N >= 1) grid, got {features.shape}")
        if window <= 0 or hop <= 0:
            raise ValueError(f"window and hop must be positive, got {window} and {hop}")
        self._cache = self.blstm._cache = None  # an inference pass, as forward's
        grid = _padded(features, window)
        starts = np.arange(0, grid.shape[1] - window + 1, hop)
        outputs = np.empty((len(starts), window, self.head.w.shape[1]))
        frames, base = np.empty((2, 0, self.blstm.fwd.b.size)), 0  # projected frames from base
        for i in range(0, len(starts), _WINDOW_BATCH):
            group = starts[i : i + _WINDOW_BATCH]
            # the projections this group shares with the one before, copied so
            # that the rest are freed before the frames it adds are projected
            frames = frames[:, group[0] - base :].copy()
            frames = np.concatenate([frames, self._project_frames(
                grid, group[0] + frames.shape[1], group[-1] + window)], axis=1)
            base = group[0]
            x = self.blstm._recurrence(self._gates(grid, group, window, frames))[0]
            outputs[i : i + len(group)] = self.out.forward(self.head.forward(x)).transpose(1, 0, 2)
        return outputs

    def _gates(self, grid: np.ndarray, group: np.ndarray, window: int,
               frames: np.ndarray) -> np.ndarray:
        """The (window, 2, len(group), 4H) step-order pre-activations of the
        windows starting at the grid frames in group, gathered from the
        (2, ·, 4H) projections of the frames from group[0] on, but for the
        first and last frame of each, which are projected again."""
        first, last = self._project_edges(grid, group, window)
        at = group - group[0] + np.arange(window)[:, None]  # the frame of each step
        gates = np.empty((window, 2, len(group), frames.shape[2]))
        np.take(frames[0], at, axis=0, out=gates[:, 0], mode="clip")
        np.take(frames[1], at[::-1], axis=0, out=gates[:, 1], mode="clip")
        gates[0, 0], gates[-1, 0], gates[0, 1], gates[-1, 1] = first[0], last[0], last[1], first[1]
        return gates

    def _project(self, pooled: np.ndarray) -> np.ndarray:
        """(B, C, bins / pool, W) pooled columns -> (2, B·W, 4H): the fwd
        and bwd pre-activations of each column, as a batch of one-frame
        sequences."""
        rows = pooled.transpose(0, 3, 1, 2).reshape(1, -1, self.blstm.fwd.w_x.shape[0])
        return self.blstm._pre_activations(rows)[0]

    def _convolved(self, cols: np.ndarray) -> np.ndarray:
        """(bins, B, W) grid columns -> the (B, C, bins / pool, W) pooled
        conv output of each of the B images norm makes of them."""
        x = self.norm.forward(cols.transpose(2, 1, 0))
        return self.pool.forward(self.conv.forward(x.transpose(1, 2, 0)[:, None]))

    def _project_frames(self, grid: np.ndarray, start: int, end: int) -> np.ndarray:
        """(2, end - start, 4H): grid frames start ... end-1 projected, each
        beside its real neighbours (zero beyond the grid)."""
        lo, hi = max(start - 1, 0), min(end + 1, grid.shape[1])
        return self._project(self._convolved(grid[:, None, lo:hi])[..., start - lo : end - lo])

    def _project_edges(self, grid: np.ndarray, group: np.ndarray, window: int):
        """The (2, len(group), 4H) projections of the first frames of the
        windows starting at the frames in group, then those of their last
        frames, each beside the zero that stands for the frame before or
        after its window."""
        m = min(window, 2)  # the edge frame and its one neighbour in the window
        cols = np.concatenate([group, group + window - m])[:, None] + np.arange(m)
        pooled = self._convolved(grid[:, cols])
        n = len(group)
        proj = self._project(np.concatenate([pooled[:n, ..., :1], pooled[n:, ..., m - 1 :]]))
        return proj[:, :n], proj[:, n:]

    def loss_and_grad(self, batch: list[AmtExample]) -> float:
        """Summed focal loss of equal-width windows, each averaged over its
        own cells, in one forward and one backward pass."""
        probs = self.forward(np.stack([ex.features for ex in batch]), training=True)
        losses, grads = zip(*(focal_loss(p, ex.targets, self.cfg.alpha, self.cfg.gamma)
                              for p, ex in zip(probs, batch)))
        grad = np.stack(grads)
        probs = grads = None  # the output layer's cache, which its backward frees, holds probs
        self.backward(grad)
        return float(sum(losses))


def stitch_and_threshold(outputs: list[np.ndarray], hop_frames: int, source_length: int,
                         threshold: float, frame_time: float) -> PianoRoll:
    """Average overlapping (window, keys) outputs placed hop_frames apart,
    binarize strictly above the threshold, and trim (or zero-fill) to the
    source frame count: a roll of frame_time seconds per frame."""
    probs = np.asarray(outputs)  # ragged outputs raise ValueError
    if probs.ndim != 3 or not len(probs):
        raise ValueError(f"need a (count >= 1, window, keys) stack to stitch, got {probs.shape}")
    accum = overlap_add(probs, hop_frames)
    count = overlap_add(np.broadcast_to(1.0, probs.shape[:2]), hop_frames)
    accum /= np.maximum(count, 1.0)[:, None]  # frames no window covers stay 0
    grid = np.zeros((probs.shape[2], source_length), dtype=np.uint8)
    stitched = min(source_length, len(accum))
    grid[:, :stitched] = accum[:stitched].T > threshold
    return PianoRoll(grid, frame_time)


@dataclass(frozen=True)
class Scores:
    precision: float
    recall: float
    f1: float
    undefined: frozenset = frozenset()
    """Names of scores whose denominator was empty (reported as 0)."""


def f1_from(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _scores_from_counts(tp: int, fp: int, fn: int) -> Scores:
    undefined = set()
    precision = recall = 0.0
    if tp + fp:
        precision = tp / (tp + fp)
    else:
        undefined.add("precision")
    if tp + fn:
        recall = tp / (tp + fn)
    else:
        undefined.add("recall")
    if precision + recall == 0.0:
        undefined.add("f1")
    return Scores(precision, recall, f1_from(precision, recall), frozenset(undefined))


def frame_metrics(pred: PianoRoll, truth: PianoRoll) -> Scores:
    """Cell-wise precision/recall/F1 over all (key, frame) cells.  A cell
    silent in both rolls counts toward none of tp, fp and fn, so silent
    frames, however many, leave every score as it is."""
    if pred.grid.shape != truth.grid.shape:
        raise ValueError(f"shape mismatch: {pred.grid.shape} vs {truth.grid.shape}")
    p = pred.grid.astype(bool)
    t = truth.grid.astype(bool)
    tp = int(np.sum(p & t))
    fp = int(np.sum(p & ~t))
    fn = int(np.sum(~p & t))
    return _scores_from_counts(tp, fp, fn)


def _onset_times(roll: PianoRoll) -> list[list[float]]:
    """Per pitch row, in time order, the start times of the notes
    roll_to_notes makes of its runs."""
    onsets = [[] for _ in range(N_KEYS)]
    for note in roll_to_notes(roll):
        onsets[note.pitch - LOWEST_PITCH].append(note.start)
    return onsets


def onset_metrics(pred: PianoRoll, truth: PianoRoll) -> Scores:
    """Onset precision/recall/F1 with greedy earliest-first matching of
    same-pitch onsets within ONSET_TOLERANCE seconds, inclusive."""
    if pred.grid.shape[0] != truth.grid.shape[0]:
        raise ValueError(f"shape mismatch: {pred.grid.shape} vs {truth.grid.shape}")
    if abs(pred.frame_time - truth.frame_time) > 1e-12:
        raise ValueError("rolls disagree on frame timing")
    tp = fp = fn = 0
    for pred_onsets, truth_onsets in zip(_onset_times(pred), _onset_times(truth)):
        j = 0
        matched = 0
        for t in truth_onsets:
            while j < len(pred_onsets) and pred_onsets[j] < t - ONSET_TOLERANCE:
                j += 1  # too early for this and every later reference
            if j < len(pred_onsets) and pred_onsets[j] <= t + ONSET_TOLERANCE:
                matched += 1
                j += 1
        tp += matched
        fp += len(pred_onsets) - matched
        fn += len(truth_onsets) - matched
    return _scores_from_counts(tp, fp, fn)


def _features(audio: Waveform, cqt_cfg: CqtConfig, num_samples: int | None = None) -> np.ndarray:
    """The (bins, frames) model input of training and inference alike:
    resample, downmix, log-scaled CQT.  num_samples zero-pads or truncates
    the signal before the transform."""
    if audio.sample_rate != cqt_cfg.sample_rate:
        audio = resample(audio, cqt_cfg.sample_rate)
    x = audio.mono_samples()
    if num_samples is not None:
        x = np.pad(x[:num_samples], (0, max(0, num_samples - x.size)))
    return log_magnitude(cqt(x, cqt_cfg))


def build_training_pair(audio: Waveform, notes, cqt_cfg: CqtConfig = CqtConfig(), *,
                        duration: float, window: int = SEGMENT_WINDOW,
                        hop_frames: int = SEGMENT_HOP) -> tuple[SegmentedFeatures, PianoRoll]:
    """Aligned (features, target roll) for one clip.

    Audio is resampled if needed, then padded or truncated to the fixed
    duration before the transform, so every pair lands on the same frame
    grid; notes are rasterized onto that grid.
    """
    feats = _features(audio, cqt_cfg, int(round(duration * cqt_cfg.sample_rate)))
    roll = rasterize_notes(notes, cqt_cfg.frame_time, feats.shape[1])
    return segment(feats, window, hop_frames), roll


def examples_from_pair(segmented: SegmentedFeatures, roll: PianoRoll) -> list[AmtExample]:
    """Cut one target window from the roll for each feature window, by the
    same placement (a sub-window roll is zero-padded like the features).
    Features and targets are read-only views, of the feature grid and of
    the roll's uint8 grid: the examples of a clip hold each grid once."""
    if roll.num_frames != segmented.source_length:
        raise ValueError(f"roll has {roll.num_frames} frames, features {segmented.source_length}")
    targets = _windows(roll.grid, segmented.window, segmented.hop_frames)
    return [AmtExample(seg, target.T) for seg, target in zip(segmented.segments, targets)]


def transcribe_waveform(audio: Waveform, model: AmtModel,
                        cqt_cfg: CqtConfig = CqtConfig(),
                        window: int = SEGMENT_WINDOW,
                        hop_frames: int = SEGMENT_HOP) -> PianoRoll:
    """Audio in, binary piano roll out; the full untrimmed clip is used,
    through one AmtModel.predict over its feature grid."""
    features = _features(audio, cqt_cfg)
    return stitch_and_threshold(model.predict(features, window, hop_frames), hop_frames,
                                features.shape[1], model.cfg.threshold, cqt_cfg.frame_time)
