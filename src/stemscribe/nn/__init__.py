"""Minimal tensor/layer runtime with hand-derived gradients.

Everything runs on float64 numpy arrays, a mini-batch at a time: fit
stacks each batch and makes one forward and one backward pass for it.
Every layer keeps one contract:
  * one input shape: sequences are time-major (T, B, F) and images
    (B, C, H, W); a single example is the batch of one, and only the
    model entry points accept it unbatched;
  * forward(x, training=True) keeps what backward needs, an inference
    forward keeps nothing, and backward without a training forward
    raises RuntimeError.
An LSTM steps through time only for the h -> h recurrence, one
(B, H) @ (H, 4H) product per step for the whole batch: its input
projection and its weight and input gradients are single matrix products
over all T·B rows. Analytic backward passes are validated against central
finite differences (see gradcheck).
"""

from .layers import (BatchNorm, BiLstm, Conv2d, Dense, Layer, Lstm, MaxPool2d, Sigmoid,
                     uniform_init)
from .loss import FocalLossParams, focal_loss
from .optim import Adam, DivergenceError, Sgd, fit
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
    "FocalLossParams",
    "Layer",
    "Lstm",
    "MaxPool2d",
    "Sgd",
    "Sigmoid",
    "fit",
    "focal_loss",
    "grad_check",
    "load_checkpoint",
    "restore_params",
    "save_checkpoint",
    "uniform_init",
]
