"""Wall-clock timing corrected by a calibration kernel sampled during the call.

The machine this benchmark was built on (2 shared cores) switches between a
normal and a fast state, up to 2x apart, every second or so, and the share
of fast time drifts between minutes; process CPU time drifts the same way.
Kernel runs placed before and after a 2-3 s call missed the state changes
inside it. So while a timed call runs, an interval timer interrupts it every
`PERIOD_S` seconds and runs one short kernel sample in the signal handler.
The handler's own time is taken out of the call's time, and the call's time
is multiplied by `KERNEL_REF_S` over the mean sample time: a figure reads as
seconds on the reference machine at its mean sample time, taken over both
speed states.

The kernel never touches `bandprompt`. It is a miniature reverse-mode tape
(small matmuls, tanh, softmax and row norms recorded as closures, then
replayed backwards): the mix of interpreter work and small-array numpy
dispatch the program spends its time in, so both respond to the machine's
state alike. A kernel of tight 8x8 matmuls alone over-corrected: it sped up
more than the workloads did in the fast state.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# Mean sample time on the reference machine (2-core Intel Xeon virtual machine,
# Python 3.11, numpy 2.4, one BLAS thread), over samples taken in both speed
# states (300 samples: median 2.07 ms, mean 1.91 ms). A constant, not a
# measurement: changing it rescales every reported time.
KERNEL_REF_S = 0.00190

PERIOD_S = 0.05
MIN_SAMPLES = 20
SAMPLE_ROUNDS = 8


class _Node:
    __slots__ = ("value", "back")

    def __init__(self, value, back=None):
        self.value = value
        self.back = back


def kernel(rounds: int = SAMPLE_ROUNDS) -> float:
    a = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
    w = np.linspace(-0.5, 0.5, 32 * 16).reshape(32, 16)
    acc = 0.0
    for i in range(rounds):
        tape = []
        x = _Node(a * (1.0 + 1e-3 * i))
        for _ in range(5):
            h = np.tanh(x.value @ w)
            tape.append(_Node(h, lambda g, h=h: g * (1.0 - h * h)))
            e = np.exp(h - h.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            tape.append(_Node(p, lambda g, p=p: p * (g - (g * p).sum(axis=1, keepdims=True))))
            n = np.sqrt((p * p).sum(axis=1, keepdims=True))
            x = _Node(np.concatenate([p / n, p], axis=1))
            tape.append(x)
        g = np.ones((16, 16))
        for node in reversed(tape):
            if node.back is not None:
                g = node.back(g)
        acc += float(g[i % 16, 3])
    return acc


class Calibrator:
    """Times calls with kernel samples taken during them.

    `now()` is a clock that stands still while a sample runs, so spans read
    from it exclude the samples too. Use as a context manager: it owns the
    SIGALRM handler and the interval timer while open.
    """

    def __init__(self):
        self._stolen = 0.0
        self._samples: list[float] = []
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def now(self) -> float:
        return time.perf_counter() - self._stolen

    def _sample(self) -> None:
        # No collection inside a sample: one triggered here would be program
        # work taken out of the call's time.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self._samples.append(dt)
        self._stolen += time.perf_counter() - t0

    def time(self, fn, *args):
        """Run `fn(*args)`; return (result, calibrated seconds, factor).

        The factor, `KERNEL_REF_S` over the mean sample time, also scales
        the call's trace spans. Calls too short for `MIN_SAMPLES` samples are
        topped up with samples taken right after them.
        """
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = self.now()
        try:
            result = fn(*args)
        finally:
            wall = self.now() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        while len(self._samples) < MIN_SAMPLES:
            self._sample()
        factor = KERNEL_REF_S / (sum(self._samples) / len(self._samples))
        return result, wall * factor, factor
