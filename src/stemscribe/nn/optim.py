"""Parameter updates and the shared training loop.

A trainable model has params(), grads() and zero_grads() as an nn.Layer
does, plus loss_and_grad(batch) -> float: given a list of examples, it
adds their gradients into the buffers its first zero_grads() created, in
one forward and one backward pass for the whole batch, and returns their
summed loss. Adam, the one optimizer, updates the params() arrays in
place; of its settings only the learning rate is a parameter.
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


# Adam's moment decay rates and denominator offset, the defaults of Kingma
# & Ba, "Adam: A Method for Stochastic Optimization" (ICLR 2015).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1, bias2 = 1.0 - _BETA1**self.t, 1.0 - _BETA2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self._m[name], self._v[name]
            # m += (1 - beta1)·(g - m); v += (1 - beta2)·(g² - v);
            # p -= lr·m̂ / (sqrt(v̂) + eps), each step in its order, in two buffers
            step = np.subtract(g, m)
            step *= 1.0 - _BETA1
            m += step
            np.multiply(g, g, out=step)
            step -= v
            step *= 1.0 - _BETA2
            v += step
            denom = np.divide(v, bias2)
            np.sqrt(denom, out=denom)
            denom += _EPS
            np.divide(m, bias1, out=step)
            step *= self.lr
            step /= denom
            p -= step


def fit(model, examples, optimizer, epochs: int, batch_size: int = 1,
        rng: np.random.Generator | None = None, epoch_callback=None) -> list[float]:
    """Mini-batch training: one loss_and_grad call per batch of examples,
    whose gradients are then divided by the batch size.

    Returns the per-epoch mean loss trace; raises ValueError on an empty
    example list and DivergenceError with the offending epoch index if the
    loss goes non-finite. Each epoch's loss, wall time and mean global
    gradient L2 norm (of the batch-averaged gradients) are logged at debug
    level. fit leaves the process's allocator settings alone: cli.main pins
    glibc's heap thresholds for every stemscribe command.
    """
    n = len(examples)
    if not n:
        raise ValueError("fit needs at least one training example; the example list is empty")
    if rng is None:
        rng = np.random.default_rng(0)
    debug = log.isEnabledFor(logging.DEBUG)  # the gradient norms feed only the debug line
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
            if debug:
                grad_norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
            optimizer.step(model.params(), grads)
        mean_loss = total / n
        if not math.isfinite(mean_loss):
            raise DivergenceError(epoch, mean_loss)
        trace.append(mean_loss)
        if epoch_callback is not None:
            epoch_callback(epoch, mean_loss)
        if debug:
            log.debug("epoch %d: loss %.6f, %.3f s, mean gradient norm %.6g", epoch, mean_loss,
                      time.perf_counter() - started, sum(grad_norms) / len(grad_norms))
    return trace
