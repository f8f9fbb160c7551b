"""Parameter updates and the shared training loop.

A trainable model has params(), grads() and zero_grads() as an nn.Layer
does, plus loss_and_grad(batch) -> float: given a list of examples, it
adds their gradients into the buffers, in one forward and one backward
pass for the whole batch, and returns their summed loss. Optimizers
update the params() arrays in place.
"""

from __future__ import annotations

import logging
import math
import time

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
    """Mini-batch training: one loss_and_grad call per batch of examples,
    whose gradients are then divided by the batch size.

    Returns the per-epoch mean loss trace; raises ValueError on an empty
    example list and DivergenceError with the offending epoch index if the
    loss goes non-finite. Each epoch's loss, wall time and mean global
    gradient L2 norm (of the batch-averaged gradients) are logged at debug
    level.
    """
    n = len(examples)
    if not n:
        raise ValueError("fit needs at least one training example; the example list is empty")
    if rng is None:
        rng = np.random.default_rng(0)
    trace: list[float] = []
    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        grad_norms = []
        for start in range(0, n, batch_size):
            batch = [examples[i] for i in order[start : start + batch_size]]
            model.zero_grads()
            total += model.loss_and_grad(batch)
            grads = model.grads()
            for g in grads.values():
                g /= len(batch)
            grad_norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
            optimizer.step(model.params(), grads)
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise DivergenceError(epoch, mean_loss)
        trace.append(mean_loss)
        if epoch_callback is not None:
            epoch_callback(epoch, mean_loss)
        log.debug("epoch %d: loss %.6f, %.3f s, mean gradient norm %.6g", epoch, mean_loss,
                  time.perf_counter() - started, sum(grad_norms) / len(grad_norms))
    return trace
