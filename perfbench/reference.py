"""The fixed reference kernel that sets the benchmark's time scale.

On a shared host the speed of the machine drifts by a third within a
minute (other tenants, frequency), for the reference kernel and the
program alike.  The benchmark therefore times this kernel next to every
cycle of operations and reports each timing *normalised*: wall time
multiplied by ``NOMINAL_S / measured kernel time``.  That is the wall
time the operation would take on a host where the kernel takes
``NOMINAL_S``; the drift cancels, and a change to the program still
shows in full, because the kernel uses nothing from the program.

The ``step`` kernel mixes what the program's step loop does:
interpreter-bound float arithmetic, dict and list traffic, and small
numpy operations.  The ``signal`` kernel does what the signal-fidelity
radar does instead: a smoothed covariance, ``eigh``, polynomial rooting
and an FFT on a short complex tone.  Its time follows the host's
LAPACK speed, which the interpreter-bound kernel over-corrects for.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel wall time the normalised figures are scaled to (the kernel's
#: typical time on a quiet 2.1 GHz x86-64 host, Python 3.11).
NOMINAL_S = 0.0025
SIGNAL_NOMINAL_S = 0.0021

#: Kernel time spent after each operation, as a share of the
#: operation's wall time.  Sampling this densely, right next to the
#: work, is what lets the kernel track the host's speed.  Past
#: ``MAX_CALLS`` a longer sample tracks no better (it cannot interleave
#: with a long operation) and only takes time from the measurement.
BUDGET = 0.2
MAX_CALLS = 40


def kernel(n: int = 1000) -> float:
    matrix = np.arange(9.0).reshape(3, 3) / 10.0
    x = np.ones(3)
    acc = 0.0
    table = {}
    trail = []
    for i in range(n):
        x = matrix @ x
        x = x / (abs(x[0]) + 1.0)
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
        trail.append(acc)
    return acc + float(x[0])


def signal_kernel() -> float:
    t = np.arange(128.0)
    x = np.exp(2j * np.pi * 0.11 * t) + 0.05 * np.exp(2j * np.pi * 0.31 * t)
    snapshots = np.lib.stride_tricks.sliding_window_view(x, 24)
    covariance = snapshots.T @ snapshots.conj() / snapshots.shape[0]
    _, vectors = np.linalg.eigh(covariance)
    noise = vectors[:, :22]
    projector = noise @ noise.conj().T
    coefficients = np.array(
        [np.trace(projector, offset=k) for k in range(23, -24, -1)]
    )
    roots = np.roots(coefficients)
    spectrum = np.abs(np.fft.fft(x, 512))
    return float(np.abs(roots).min()) + float(spectrum.max())


#: Kernel and its nominal time, by name (the nominal times are in the
#: same ratio as the two kernels' typical times on one host).
KERNELS = {
    "step": (kernel, NOMINAL_S),
    "signal": (signal_kernel, SIGNAL_NOMINAL_S),
}


class Sampler:
    """Times a kernel after each operation and averages the samples
    over a cycle."""

    def __init__(self, kind: str = "step") -> None:
        self.kernel, self.nominal = KERNELS[kind]
        self.seconds = 0.0
        self.calls = 0

    def follow(self, wall: float) -> float:
        """Time the kernel for about ``BUDGET`` of ``wall`` seconds;
        returns the wall-to-normalised factor this sample alone gives."""
        calls = max(1, min(MAX_CALLS, round(BUDGET * wall / self.nominal)))
        start = time.perf_counter()
        for _ in range(calls):
            self.kernel()
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.calls += calls
        return self.nominal * calls / elapsed

    def scale(self, wall: float) -> float:
        """Wall-to-normalised factor for the cycle just timed (``wall``
        seconds long), from the samples taken since the last call."""
        if not self.calls:
            self.follow(wall)
        factor = self.nominal * self.calls / self.seconds
        self.seconds, self.calls = 0.0, 0
        return factor
