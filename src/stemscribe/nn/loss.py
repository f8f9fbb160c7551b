"""Focal loss for binary grids with heavy class imbalance."""

from __future__ import annotations

import numpy as np

CLIP_EPS = 1e-7


def focal_loss(y_pred: np.ndarray, y_true: np.ndarray, alpha: float,
               gamma: float) -> tuple[float, np.ndarray]:
    """Mean of -alpha * (1 - p_t)^gamma * log(p_t) and its gradient.

    p_t = y_true * y_pred + (1 - y_true) * (1 - y_pred), natural log.
    Predictions are clipped to [1e-7, 1 - 1e-7] before the log; gradients
    vanish outside the clip range. With gamma = 0 and alpha = 1 this is
    exactly mean binary cross-entropy. The note model's config,
    transcription.AmtConfig, holds alpha in (0, 1] and gamma in [0, inf).
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
    weight = one_minus**gamma  # (1 - p_t)^gamma, once for the loss and its gradient
    terms = np.multiply(-alpha, weight, out=np.empty(y_pred.shape))
    terms *= log_pt
    loss = float(np.mean(terms))
    if gamma > 0.0:
        dpt = np.multiply(gamma, one_minus ** (gamma - 1.0), out=terms)
        dpt *= log_pt
        dpt -= weight / pt
        dpt *= alpha
    else:
        dpt = np.divide(-alpha, pt, out=terms)
    sign = np.multiply(2.0, y_true, out=pt)
    sign -= 1.0
    dpt *= sign
    dpt *= inside
    dpt /= y_pred.size
    return loss, dpt
