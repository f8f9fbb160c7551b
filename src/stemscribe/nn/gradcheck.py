"""Finite-difference validation of analytic gradients."""

from __future__ import annotations

import numpy as np


def grad_check(model, batch) -> float:
    """Max relative error between analytic and central-difference gradients.

    batch is what model.loss_and_grad takes. Perturbs every parameter
    element twice, by +-1e-4, so keep the model tiny. The relative error
    denominator is floored at 1e-6 to ignore noise on near-zero gradient
    entries.
    """
    model.zero_grads()
    model.loss_and_grad(batch)
    analytic = {name: g.copy() for name, g in model.grads().items()}

    def loss_only() -> float:
        model.zero_grads()
        return model.loss_and_grad(batch)

    step = 1e-4
    worst = 0.0
    for name, p in model.params().items():
        flat = p.reshape(-1)
        a = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_only()
            flat[i] = orig - step
            lm = loss_only()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            rel = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), 1e-6)
            worst = max(worst, rel)
    model.zero_grads()
    return worst
