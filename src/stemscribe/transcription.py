"""Piano transcription: feature windowing, the conv/BiLSTM note model,
focal-loss training, probability stitching, and frame/onset scoring.

The feature pipeline is log-scaled constant-Q magnitudes at 22050 Hz with
a 512-sample hop, cut into 512-frame windows that overlap by half. One
helper, _windows, places those windows: they are a single read-only
strided view of the grid, and training targets are cut from the piano
roll by the same placement. The model emits 88 per-frame key
probabilities; overlapping window outputs are averaged through
dsp.overlap_add, the iSTFT's own overlap-add, and binarized strictly
above 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .audio_io import Waveform, resample
from .dsp import CqtConfig, cqt, log_magnitude, overlap_add
from .nn.loss import FocalLossParams, focal_loss
from .pianoroll import N_KEYS, FrameTiming, PianoRoll, active_runs, rasterize_notes

SEGMENT_WINDOW = 512
SEGMENT_HOP = 256
DEFAULT_CLIP_SECONDS = 180.0
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
    n_bins: int = 84
    conv_channels: int = 16
    kernel: tuple[int, int] = (3, 3)
    pool_freq: int = 2
    hidden: int = 64
    n_keys: int = N_KEYS
    threshold: float = 0.5

    def __post_init__(self):
        if self.n_bins % self.pool_freq:
            raise ValueError(f"pool_freq {self.pool_freq} must divide n_bins {self.n_bins}")
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold {self.threshold} out of range")

    @property
    def seq_features(self) -> int:
        """Feature width per frame after pooling and the time-major reshape."""
        return self.conv_channels * (self.n_bins // self.pool_freq)


@dataclass
class AmtExample:
    """One training window: (bins, W) features, (W, keys) binary targets."""

    features: np.ndarray
    targets: np.ndarray


class AmtModel(nn.Layer):
    """Frame-wise key-activation estimator over feature windows.

    Per-bin batch norm, a 3x3 conv bank, frequency-only max pooling, a
    time-major reshape, a BiLSTM, then a shared dense+sigmoid head giving
    88 probabilities per frame. A batch of equal-width windows runs as
    one pass; the batch norm takes its statistics per window.
    """

    def __init__(self, cfg: AmtConfig = AmtConfig(), seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.norm = nn.BatchNorm(cfg.n_bins)
        self.conv = nn.Conv2d(1, cfg.conv_channels, cfg.kernel, rng)
        self.pool = nn.MaxPool2d((cfg.pool_freq, 1))
        self.blstm = nn.BiLstm(cfg.seq_features, cfg.hidden, rng)
        self.head = nn.Dense(2 * cfg.hidden, cfg.n_keys, rng)
        self.out = nn.Sigmoid()
        self.children = {"norm": self.norm, "conv": self.conv, "blstm": self.blstm,
                         "head": self.head}
        self.loss_params = FocalLossParams()

    def forward(self, seg: np.ndarray, training: bool = False) -> np.ndarray:
        """(B, bins, W) windows -> (B, W, keys) probabilities; one (bins, W)
        window -> (W, keys)."""
        x = seg[None] if seg.ndim == 2 else seg
        if x.ndim != 3 or x.shape[1] != self.cfg.n_bins:
            raise ValueError(f"expected (B, {self.cfg.n_bins}, W) or ({self.cfg.n_bins}, W) "
                             f"features, got {seg.shape}")
        x = self.norm.forward(x.transpose(2, 0, 1), training)  # stats per window and bin
        x = self.pool.forward(self.conv.forward(x.transpose(1, 2, 0)[:, None], training),
                              training)
        n, c, b, w = x.shape
        self._cache = x.shape if training else None
        x = self.blstm.forward(x.transpose(3, 0, 1, 2).reshape(w, n, c * b), training)
        probs = self.out.forward(self.head.forward(x, training), training).transpose(1, 0, 2)
        return probs if seg.ndim == 3 else probs[0]

    def backward(self, grad: np.ndarray) -> None:
        """Takes the gradient of the probabilities forward returned."""
        n, c, b, w = self._backward_cache()
        g = grad[None] if grad.ndim == 2 else grad
        g = self.blstm.backward(self.head.backward(self.out.backward(g.transpose(1, 0, 2))))
        g = self.conv.backward(self.pool.backward(g.reshape(w, n, c, b).transpose(1, 2, 3, 0)))
        self.norm.backward(g[:, 0].transpose(2, 0, 1))  # input gradient ends here

    def predict(self, seg: np.ndarray) -> np.ndarray:
        return self.forward(seg, training=False)

    def loss_and_grad(self, batch: list[AmtExample]) -> float:
        """Summed focal loss of equal-width windows, each averaged over its
        own cells, in one forward and one backward pass."""
        probs = self.forward(np.stack([ex.features for ex in batch]), training=True)
        losses, grads = zip(*(focal_loss(p, ex.targets, self.loss_params)
                              for p, ex in zip(probs, batch)))
        self.backward(np.stack(grads))
        return float(sum(losses))


def stitch_and_threshold(outputs: list[np.ndarray], hop_frames: int, source_length: int,
                         threshold: float = 0.5,
                         timing: FrameTiming = FrameTiming()) -> PianoRoll:
    """Average overlapping (window, keys) outputs placed hop_frames apart,
    binarize strictly above the threshold, and trim (or zero-fill) to the
    source frame count."""
    probs = np.asarray(outputs)  # ragged outputs raise ValueError
    if probs.ndim != 3 or not len(probs):
        raise ValueError(f"need a (count >= 1, window, keys) stack to stitch, got {probs.shape}")
    accum = overlap_add(probs, hop_frames)
    count = overlap_add(np.broadcast_to(1.0, probs.shape[:2]), hop_frames)
    accum /= np.maximum(count, 1.0)[:, None]  # frames no window covers stay 0
    grid = np.zeros((probs.shape[2], source_length), dtype=np.uint8)
    stitched = min(source_length, len(accum))
    grid[:, :stitched] = accum[:stitched].T > threshold
    return PianoRoll(grid, timing.time_per_frame)


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
    """Cell-wise precision/recall/F1 restricted to frames where either
    roll has any active key; all-silent frames do not inflate the scores."""
    if pred.grid.shape != truth.grid.shape:
        raise ValueError(f"shape mismatch: {pred.grid.shape} vs {truth.grid.shape}")
    active = (pred.grid.any(axis=0)) | (truth.grid.any(axis=0))
    p = pred.grid[:, active].astype(bool)
    t = truth.grid[:, active].astype(bool)
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
    return log_magnitude(cqt(Waveform(x[None, :], cqt_cfg.sample_rate), cqt_cfg))


def build_training_pair(audio: Waveform, notes, cqt_cfg: CqtConfig = CqtConfig(),
                        duration: float = DEFAULT_CLIP_SECONDS,
                        window: int = SEGMENT_WINDOW,
                        hop_frames: int = SEGMENT_HOP) -> tuple[SegmentedFeatures, PianoRoll]:
    """Aligned (features, target roll) for one clip.

    Audio is resampled if needed, then padded or truncated to the fixed
    duration before the transform, so every pair lands on the same frame
    grid; notes are rasterized onto that grid.
    """
    feats = _features(audio, cqt_cfg, int(round(duration * cqt_cfg.sample_rate)))
    timing = FrameTiming(cqt_cfg.hop, cqt_cfg.sample_rate)
    roll = rasterize_notes(notes, timing, feats.shape[1])
    return segment(feats, window, hop_frames), roll


def examples_from_pair(segmented: SegmentedFeatures, roll: PianoRoll) -> list[AmtExample]:
    """Cut one target window from the roll for each feature window, by the
    same placement (a sub-window roll is zero-padded like the features)."""
    if roll.num_frames != segmented.source_length:
        raise ValueError(f"roll has {roll.num_frames} frames, features {segmented.source_length}")
    targets = _windows(roll.grid, segmented.window, segmented.hop_frames)
    return [AmtExample(seg, target.T.astype(np.float64))
            for seg, target in zip(segmented.segments, targets)]


def train_amt(pairs, model: AmtModel, epochs: int,
              loss: FocalLossParams = FocalLossParams(), lr: float = 1e-3,
              batch_size: int = 10, seed: int = 0, epoch_callback=None) -> list[float]:
    """Adam over focal loss on all windows of all pairs; per-epoch trace."""
    model.loss_params = loss
    examples = [ex for segmented, roll in pairs for ex in examples_from_pair(segmented, roll)]
    return nn.fit(
        model,
        examples,
        nn.Adam(lr=lr),
        epochs=epochs,
        batch_size=batch_size,
        rng=np.random.default_rng(seed),
        epoch_callback=epoch_callback,
    )


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
    timing = FrameTiming(cqt_cfg.hop, cqt_cfg.sample_rate)
    return stitch_and_threshold(outputs, segmented.hop_frames, segmented.source_length,
                                model.cfg.threshold, timing)
