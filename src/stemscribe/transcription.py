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
from .pianoroll import N_KEYS, PianoRoll, active_runs, rasterize_notes

SEGMENT_WINDOW = 512
SEGMENT_HOP = 256
# The factor the note model's max pooling divides the bins by.
_POOL_FREQ = 2
# Windows per forward pass at inference. A default-size window in flight
# holds ~10 MB of activations; up to 3 at once leave the peak RSS of
# transcribing a 180 s clip where one at a time puts it.
_WINDOW_BATCH = 3


def _windows(grid: np.ndarray, window: int, hop: int) -> np.ndarray:
    """The (count, rows, window) read-only view of a (rows, N) grid's
    windows, one every hop frames from frame 0.

    A grid shorter than one window is zero-padded up to it; the count is
    then (N_padded - window) // hop + 1, so a trailing partial window is
    not emitted. Stitching zero-fills whatever the last window misses.
    """
    n = grid.shape[1]
    if n < window:
        grid = np.pad(grid, ((0, 0), (0, window - n)))
    return sliding_window_view(grid, window, axis=1)[:, ::hop].transpose(1, 0, 2)


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
    """One training window: (bins, W) features, (W, keys) binary targets."""

    features: np.ndarray
    targets: np.ndarray


class AmtModel(nn.Layer):
    """Frame-wise key-activation estimator over feature windows.

    Per-bin batch norm over n_bins feature rows, a 3x3 conv bank,
    frequency-only max pooling, a time-major reshape, a BiLSTM, then a
    shared dense+sigmoid head giving n_keys probabilities per frame. A
    batch of equal-width windows runs as one pass; the batch norm takes
    its statistics per window.
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
        """Takes the gradient of the probabilities forward returned."""
        n, c, b, w = self._backward_cache()
        g = self.blstm.backward(self.head.backward(self.out.backward(grad.transpose(1, 0, 2))))
        g = self.conv.backward(self.pool.backward(g.reshape(w, n, c, b).transpose(1, 2, 3, 0)))
        self.norm.backward_params(g[:, 0].transpose(2, 0, 1))

    def predict(self, seg: np.ndarray) -> np.ndarray:
        return self.forward(seg, training=False)

    def loss_and_grad(self, batch: list[AmtExample]) -> float:
        """Summed focal loss of equal-width windows, each averaged over its
        own cells, in one forward and one backward pass."""
        probs = self.forward(np.stack([ex.features for ex in batch]), training=True)
        losses, grads = zip(*(focal_loss(p, ex.targets, self.cfg.alpha, self.cfg.gamma)
                              for p, ex in zip(probs, batch)))
        self.backward(np.stack(grads))
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
    """Per pitch row, the start times of each contiguous active run."""
    dt = roll.frame_time
    return [[a * dt for a, _ in active_runs(row)] for row in roll.grid]


def onset_metrics(pred: PianoRoll, truth: PianoRoll, tolerance: float = 0.05) -> Scores:
    """Onset precision/recall/F1 with greedy earliest-first matching of
    same-pitch onsets within the tolerance (seconds, inclusive)."""
    if pred.grid.shape[0] != truth.grid.shape[0]:
        raise ValueError(f"shape mismatch: {pred.grid.shape} vs {truth.grid.shape}")
    if abs(pred.frame_time - truth.frame_time) > 1e-12:
        raise ValueError("rolls disagree on frame timing")
    tp = fp = fn = 0
    for pred_onsets, truth_onsets in zip(_onset_times(pred), _onset_times(truth)):
        j = 0
        matched = 0
        for t in truth_onsets:
            while j < len(pred_onsets) and pred_onsets[j] < t - tolerance:
                j += 1  # too early for this and every later reference
            if j < len(pred_onsets) and pred_onsets[j] <= t + tolerance:
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
    same placement (a sub-window roll is zero-padded like the features)."""
    if roll.num_frames != segmented.source_length:
        raise ValueError(f"roll has {roll.num_frames} frames, features {segmented.source_length}")
    targets = _windows(roll.grid, segmented.window, segmented.hop_frames)
    return [AmtExample(seg, target.T.astype(np.float64))
            for seg, target in zip(segmented.segments, targets)]


def transcribe_waveform(audio: Waveform, model: AmtModel,
                        cqt_cfg: CqtConfig = CqtConfig(),
                        window: int = SEGMENT_WINDOW,
                        hop_frames: int = SEGMENT_HOP) -> PianoRoll:
    """Audio in, binary piano roll out; the full untrimmed clip is used.
    The windows go through the model in batches of _WINDOW_BATCH."""
    segmented = segment(_features(audio, cqt_cfg), window, hop_frames)
    windows = segmented.segments
    outputs = np.concatenate([model.predict(windows[i : i + _WINDOW_BATCH])
                              for i in range(0, len(windows), _WINDOW_BATCH)])
    return stitch_and_threshold(outputs, segmented.hop_frames, segmented.source_length,
                                model.cfg.threshold, cqt_cfg.frame_time)
