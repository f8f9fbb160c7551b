"""A fixed computation that gauges how fast this CPU runs at the moment.

The machines the benchmark runs on share their cores with other work, and
their speed swings: on a 2-vCPU virtual machine, ops ran about 1.6x slower
in a slow state than in a fast one, and a state lasted from seconds to
minutes. A run's raw median then says more about the state the run fell in
than about the program. The benchmark therefore samples this probe while
each op runs and reports the op's time in reference seconds::

    reference seconds = seconds * REFERENCE_S / mean probe seconds

that is, the time the op would have taken on a CPU that runs the probe in
``REFERENCE_S``. The probe uses numpy alone, never the program, so a change
to the program moves its reference seconds as much as its seconds. Its
kernel mixes the two kinds of work the ops do: a Python loop of small
array operations (as in the per-timestep LSTM) and large FFTs.

Samples are taken right before and after the op and, through ``SIGALRM``,
every ``INTERVAL_S`` during it, because a state can change within a long
op: on 14 s ops, probes taken only at the edges read from 6.4 to 11 ms
while the ops' raw times stayed within 15 %. Python runs the handler on
the main thread between bytecodes, so a sample waits for a long numpy
call to return. The time the samples
take inside the op is subtracted from the op's seconds; it still counts
toward the self time of whichever layer it interrupted in a traced op
(about ``REFERENCE_S / INTERVAL_S``, 2 %, of every layer).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Probe seconds on the fast state of the 2-vCPU machine in README.md, so
# that reference seconds read close to seconds there.
REFERENCE_S = 0.010
REPEATS = 3
INTERVAL_S = 0.5
STEPS = 250
HIDDEN = 64

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((HIDDEN, 4 * HIDDEN)) / 8.0
_X = _rng.standard_normal((STEPS, 4 * HIDDEN))
_SIGNAL = _rng.standard_normal(1 << 15)


def _kernel() -> float:
    h = np.zeros(HIDDEN)
    c = np.zeros(HIDDEN)
    for t in range(STEPS):
        z = _X[t] + h @ _W
        i, f, g, o = np.split(z, 4)
        c = c / (1.0 + np.exp(-f)) + np.tanh(g) / (1.0 + np.exp(-i))
        h = np.tanh(c) / (1.0 + np.exp(-o))
    spectrum = np.abs(np.fft.rfft(_SIGNAL))
    return float(h.sum() + spectrum[1])


def measure() -> float:
    """Median seconds of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Probe samples around and during one op: enter right before the op
    starts, exit right after it ends, then read ``scale``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the samples took inside the op

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Sampler":
        self.samples.append(measure())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference seconds per second of the op, after one more sample."""
        self.samples.append(measure())
        return REFERENCE_S / statistics.fmean(self.samples)


for _ in range(5):  # first calls pay for numpy's lazy set-up
    _kernel()
