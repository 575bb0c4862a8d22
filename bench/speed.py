"""Host-speed normalisation for the benchmark's wall times.

On a shared host the speed of one core drifts by 10-30% over tens of
seconds, for any program though not by the same amount, so raw wall times of the same command
spread more from run to run than any change worth measuring. The
benchmark therefore times a fixed calibration kernel next to what it
measures. The kernel is the mix georisk's hot paths are made of: a
pure-Python loop, an in-place sort and prefix sum, a Cholesky
factorisation, elementwise numpy passes over arrays larger than L2, and
page faults on freshly released memory (the risk map spends about 17% of
its time in the operating system, mostly faulting in large temporaries). It reports

    normalised time = wall time * NOMINAL_KERNEL_S / mean kernel time

that is, the wall time the command would have taken on a host where the
kernel takes ``NOMINAL_KERNEL_S``. The kernel never calls georisk, so a
change to georisk moves the normalised time as it moves the wall
time at a fixed host speed.

``SpeedProbe`` samples the kernel before a command, every
``PROBE_INTERVAL_S`` of wall time while it runs (from a SIGALRM handler,
which Python runs in the main thread between bytecodes) and after it.
The kernel's own time inside the command is subtracted from the
command's wall time.
"""

from __future__ import annotations

import mmap
import signal
import time

import numpy as np

NOMINAL_KERNEL_S = 0.02  # kernel time on the host the baseline was measured on
PROBE_INTERVAL_S = 0.5

_rng = np.random.default_rng(20240131)
_VALUES = _rng.standard_normal(400_000)
_points = _rng.standard_normal((400, 2))
_SPD = _points @ _points.T + 400.0 * np.eye(400)
# Work buffers, allocated once, so a sample taken at the command's memory
# peak does not raise its peak RSS.
_ORDERED = np.empty_like(_VALUES)
_SQUARES = np.empty_like(_VALUES)
_FAULT_BYTES = 4 << 20
_FAULT_MAP = mmap.mmap(-1, _FAULT_BYTES)
_FAULTED = np.frombuffer(_FAULT_MAP, dtype=np.float64)


def kernel() -> float:
    """A fixed piece of work of about 20 ms; returns a checksum."""
    acc = 0.0
    for i in range(50_000):
        acc += (i * 0.5) % 3.0
    _ORDERED[:] = _VALUES
    _ORDERED.sort()
    np.multiply(_ORDERED, _ORDERED, out=_SQUARES)
    acc += float(np.cumsum(_SQUARES, out=_SQUARES)[-1])
    acc += float(np.linalg.cholesky(_SPD)[-1, -1])
    for _ in range(3):
        np.multiply(_VALUES, _ORDERED, out=_SQUARES)
        np.add(_SQUARES, _ORDERED, out=_SQUARES)
        np.divide(_SQUARES, _VALUES, out=_ORDERED)
    acc += float(_ORDERED.sum())
    # hand the pages back, then fault them in again as zero pages
    _FAULT_MAP.madvise(mmap.MADV_DONTNEED)
    _FAULTED.fill(1.0)
    return acc + float(_FAULTED[-1])


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_times(count: int) -> list:
    return [time_kernel() for _ in range(count)]


def normalise(wall_s: float, samples) -> float:
    """Wall time scaled to the nominal host speed."""
    return wall_s * NOMINAL_KERNEL_S / (sum(samples) / len(samples))


class SpeedProbe:
    """Context manager sampling the kernel around and during a command.

    ``samples`` holds every kernel time; ``inside_s`` is the kernel time
    spent inside the ``with`` block, to subtract from its wall time.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S, edge_samples: int = 3):
        self.interval_s = interval_s
        self.edge_samples = edge_samples
        self.samples: list = []
        self.inside_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        took = time_kernel()
        self.samples.append(took)
        self.inside_s += took

    def __enter__(self):
        kernel()  # warm caches before the first sample
        self.samples += kernel_times(self.edge_samples)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += kernel_times(self.edge_samples)
        return False
