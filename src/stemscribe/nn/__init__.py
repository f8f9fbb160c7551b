"""Minimal tensor/layer runtime with hand-derived gradients.

Everything runs on float64 numpy arrays, a mini-batch at a time: fit
stacks each batch and makes one forward and one backward pass for it.
Nothing here changes process-wide allocator settings: under glibc,
cli.main pins the mmap and trim thresholds for every stemscribe command,
so a batch's multi-MB temporaries reuse the heap of the batch before.
Nothing here imports scipy: the logistic, layers.sigmoid, is
0.5 * tanh(0.5 * x) + 0.5 in numpy ufuncs.
Every layer keeps one contract:
  * one input shape: sequences are time-major (T, B, F) and images
    (B, C, H, W); a single example is the batch of one, and only
    SeparatorModel.predict_mask takes an unbatched grid;
  * forward(x, training=True) keeps what backward needs, an inference
    forward keeps nothing, and backward consumes what the training
    forward kept, so a training step holds no finished layer's
    activations; backward without a training forward since the last
    one, or before the first zero_grads() creates the gradient buffers,
    raises RuntimeError.
An LSTM steps through time only for the h -> h recurrence, for the
whole batch at once: its input projection and its weight and input
gradients are single matrix products over all T·B rows. Lstm and BiLstm
share one recurrence over a leading direction axis, one stacked
(D, B, H) @ (D, H, 4H) product per step: D = 1 for Lstm, and D = 2 for
BiLstm, whose two directions step in one loop. At inference, stacked
Lstm layers step together through lstm_stack: layer l trails layer l-1
by a fixed lag, each step is one stacked (L, B, H) @ (L, H, 4H) product
and one tanh over half-scaled i, f and o gate columns, and their (h, c)
carry over from block to block as one (L, 2, B, H) array. Analytic
backward passes are validated against central finite differences (see
gradcheck). focal_loss takes alpha and gamma as plain numbers; the note
model's config, transcription.AmtConfig, holds and checks them.
"""

from .layers import (BatchNorm, BiLstm, Conv2d, Dense, Layer, Lstm, MaxPool2d, Sigmoid, lstm_stack,
                     stack_dense)
from .loss import focal_loss
from .optim import Adam, DivergenceError, fit
from .gradcheck import grad_check
from .checkpoint import CheckpointError, load_checkpoint, restore_params, save_checkpoint

__all__ = [
    "Adam",
    "BatchNorm",
    "BiLstm",
    "CheckpointError",
    "Conv2d",
    "Dense",
    "DivergenceError",
    "Layer",
    "Lstm",
    "MaxPool2d",
    "Sigmoid",
    "fit",
    "focal_loss",
    "grad_check",
    "load_checkpoint",
    "lstm_stack",
    "restore_params",
    "save_checkpoint",
    "stack_dense",
]
