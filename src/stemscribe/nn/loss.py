"""Focal loss for binary grids with heavy class imbalance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLIP_EPS = 1e-7


@dataclass(frozen=True)
class FocalLossParams:
    alpha: float = 0.35
    gamma: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")


def focal_loss(
    y_pred: np.ndarray, y_true: np.ndarray, params: FocalLossParams = FocalLossParams()
) -> tuple[float, np.ndarray]:
    """Mean of -alpha * (1 - p_t)^gamma * log(p_t) and its gradient.

    p_t = y_true * y_pred + (1 - y_true) * (1 - y_pred), natural log.
    Predictions are clipped to [1e-7, 1 - 1e-7] before the log; gradients
    vanish outside the clip range. With gamma = 0 and alpha = 1 this is
    exactly mean binary cross-entropy.
    """
    y_pred = np.asarray(y_pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_pred.shape != y_true.shape:
        raise ValueError(f"shape mismatch: {y_pred.shape} vs {y_true.shape}")
    inside = (y_pred > CLIP_EPS) & (y_pred < 1.0 - CLIP_EPS)
    # Each step below is the one of the plain formula, in its order, with
    # its result written into a buffer it no longer needs: the same bits.
    p = np.clip(y_pred, CLIP_EPS, 1.0 - CLIP_EPS, out=np.empty(y_pred.shape))
    pt = np.multiply(y_true, p, out=np.empty(y_pred.shape))
    np.subtract(1.0, p, out=p)
    p *= 1.0 - y_true
    pt += p  # y·p + (1 - y)·(1 - p)
    # [()] makes a 0-d array the numpy scalar the plain formula's power sees
    one_minus = np.subtract(1.0, pt, out=p)[()]
    log_pt = np.log(pt)
    weight = one_minus**params.gamma  # (1 - p_t)^gamma, once for the loss and its gradient
    terms = np.multiply(-params.alpha, weight, out=np.empty(y_pred.shape))
    terms *= log_pt
    loss = float(np.mean(terms))
    if params.gamma > 0.0:
        dpt = np.multiply(params.gamma, one_minus ** (params.gamma - 1.0), out=terms)
        dpt *= log_pt
        dpt -= weight / pt
        dpt *= params.alpha
    else:
        dpt = np.divide(-params.alpha, pt, out=terms)
    sign = np.multiply(2.0, y_true, out=pt)
    sign -= 1.0
    dpt *= sign
    dpt *= inside
    dpt /= y_pred.size
    return loss, dpt
