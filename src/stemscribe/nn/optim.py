"""Parameter updates and the shared training loop.

A trainable model has params(), grads() and zero_grads() as an nn.Layer
does, plus loss_and_grad(example) -> float, which accumulates into the
gradient buffers; optimizers update the params() arrays in place.
"""

from __future__ import annotations

import logging
import math

import numpy as np

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}")
        self.epoch = epoch


class Sgd:
    def __init__(self, lr: float = 1e-2):
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            p -= self.lr * grads[name]


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def fit(model, examples, optimizer, epochs: int, batch_size: int = 1,
        rng: np.random.Generator | None = None, epoch_callback=None) -> list[float]:
    """Mini-batch training by gradient accumulation.

    Returns the per-epoch mean loss trace; raises DivergenceError with the
    offending epoch index if the loss goes non-finite.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    trace: list[float] = []
    n = len(examples)
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            batch = [examples[i] for i in order[start : start + batch_size]]
            model.zero_grads()
            batch_loss = 0.0
            for ex in batch:
                batch_loss += model.loss_and_grad(ex)
            for g in model.grads().values():
                g /= len(batch)
            optimizer.step(model.params(), model.grads())
            total += batch_loss
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise DivergenceError(epoch, mean_loss)
        trace.append(mean_loss)
        if epoch_callback is not None:
            epoch_callback(epoch, mean_loss)
        log.debug("epoch %d: loss %.6f", epoch, mean_loss)
    return trace
