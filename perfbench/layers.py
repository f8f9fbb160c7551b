"""Which stemscribe functions the traced run wraps, and the counters it
computes from their arguments and results.

Per-timestep helpers (``nn.layers.sigmoid``, ``np.outer`` in the LSTM
loops) are deliberately not wrapped: they run about a million times in a
training op and the wrapper would cost more than the work. Their time is
self time of the layer method that calls them.
"""

from __future__ import annotations

import math

import numpy as np

from spans import Tracer

# Counters computed from call arguments and results rather than timed.
# They repeat exactly for the same inputs.
COMPUTED = (
    "dsp.cqt.gather_mb",
    "nn.Lstm.steps",
    "transcription.windows",
    "transcription.window_fill",
    "transcription.frame_coverage",
    "audio_io.write_wav.clipped_samples",
    "nn.save_checkpoint.calls",
    "midi.notes",
)

NN_LAYERS = ("Lstm", "Conv2d", "Dense", "BatchNorm", "MaxPool2d", "Sigmoid")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_cqt(c, args, kwargs, result) -> None:
    """Bytes the direct-kernel CQT gathers: for each bin, one complex128
    (frames x kernel length) segment matrix."""
    cfg = _arg(args, kwargs, 1, "cfg")
    q = 1.0 / (2.0 ** (1.0 / cfg.bins_per_octave) - 1.0)
    kernel_total = sum(math.ceil(q * cfg.sample_rate / cfg.center_frequency(k))
                       for k in range(cfg.n_bins))
    c["dsp.cqt.gather_mb"] += result.shape[1] * kernel_total * 16 / 1e6


def _count_lstm_steps(c, args, kwargs, result) -> None:
    c["nn.Lstm.steps"] += _arg(args, kwargs, 1, "x").shape[0]


def _count_clipped(c, args, kwargs, result) -> None:
    if _arg(args, kwargs, 2, "bit_depth", 16) == 16:
        scaled = np.round(_arg(args, kwargs, 0, "w").samples * 32768.0)
        c["audio_io.write_wav.clipped_samples"] += int(np.count_nonzero(
            (scaled > 32767) | (scaled < -32768)))


def _count_checkpoint(c, args, kwargs, result) -> None:
    c["nn.save_checkpoint.calls"] += 1


def _count_notes(c, args, kwargs, result) -> None:
    c["midi.notes"] += len(_arg(args, kwargs, 0, "notes"))


def _count_stitch(c, args, kwargs, result) -> None:
    """Window bookkeeping of one transcription, from the stitch inputs."""
    outputs = _arg(args, kwargs, 0, "outputs")
    hop = _arg(args, kwargs, 1, "hop_frames")
    source = _arg(args, kwargs, 2, "source_length")
    window = outputs[0].shape[0]
    c["transcription.windows"] += len(outputs)
    c["transcription.source_frames"] += source
    c["transcription.window_frames"] += len(outputs) * window
    c["transcription.covered_frames"] += min(source, (len(outputs) - 1) * hop + window)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported stemscribe package."""
    from stemscribe import audio_io, dsp, midi, nn, pianoroll, separation, transcription

    tracer.patch_function(audio_io, "read_wav", "audio_io.read_wav")
    tracer.patch_function(audio_io, "write_wav", "audio_io.write_wav", _count_clipped)
    tracer.patch_function(dsp, "stft", "dsp.stft")
    tracer.patch_function(dsp, "istft", "dsp.istft")
    tracer.patch_function(dsp, "cqt", "dsp.cqt", _count_cqt)
    tracer.patch_method(separation.SeparatorModel, "predict_mask", "separation.predict_mask")
    tracer.patch_method(transcription.AmtModel, "predict", "transcription.predict")
    tracer.patch_function(transcription, "build_training_pair",
                          "transcription.build_training_pair")
    tracer.patch_function(transcription, "stitch_and_threshold", None, _count_stitch)
    for cls_name in NN_LAYERS:
        cls = getattr(nn, cls_name)
        steps = _count_lstm_steps if cls_name == "Lstm" else None
        tracer.patch_method(cls, "forward", f"nn.{cls_name}.forward", steps)
        tracer.patch_method(cls, "backward", f"nn.{cls_name}.backward")
    tracer.patch_function(nn, "focal_loss", "nn.focal_loss")
    tracer.patch_method(nn.Adam, "step", "nn.Adam.step")
    tracer.patch_function(nn, "save_checkpoint", "nn.save_checkpoint", _count_checkpoint)
    tracer.patch_function(pianoroll, "roll_to_notes", "pianoroll.roll_to_notes")
    tracer.patch_function(midi, "write_smf", "midi.write_smf", _count_notes)


def per_op_metrics(tracer: Tracer, op: int) -> dict[str, float]:
    """Self seconds per traced layer plus the computed counters of one op."""
    out = {f"{name}.s": t for name, t in tracer.self_times(op).items()}
    out["cli.self_s"] = out.pop("cli.s", 0.0)
    c = tracer.counters[op]
    for name in COMPUTED:
        out[name] = c.get(name, 0)
    source = c.get("transcription.source_frames", 0)
    if source:
        out["transcription.window_fill"] = source / c["transcription.window_frames"]
        out["transcription.frame_coverage"] = c["transcription.covered_frames"] / source
    return out
