"""A fixed reference kernel that measures how fast the machine runs now.

On a shared machine the speed of one core moves by up to 40% over minutes.
Timing one fixed kernel throughout a run lets the run report its times at a
nominal machine speed: a time is multiplied by the speed factor, nominal
kernel time over the run's median kernel time.

The kernel is a numpy convolution-pooling stage of the shape of chatmine's
first conv stage, with fresh temporaries as there. It uses no chatmine code,
so a change to chatmine cannot move it. A pure-Python kernel was tried too
and dropped: its time jumped between two levels that no workload followed.
"""

import statistics
import time

import numpy as np

# median kernel time, in seconds, that defines nominal speed; about what the
# kernel took on the 2-core box the benchmark was written on
NOMINAL_S = 0.05

_rng = np.random.default_rng(0)
_SEQ = np.lib.stride_tricks.sliding_window_view(_rng.random(800), 3)
_KERNELS = _rng.random((1024, 3))


def kernel():
    """Four passes of conv, ReLU and first-max pooling over 1024 kernels,
    each with 6.5 MB of fresh temporaries, so page-fault costs count."""
    for _ in range(4):
        np.maximum(_SEQ @ _KERNELS.T, 0.0).argmax(axis=0)


def measure(repeats=2):
    """`repeats` timings of the kernel, in seconds."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def speed(samples):
    """Machine speed relative to nominal from kernel timings; below 1 when
    the machine runs slow. Multiply a measured time by it, or divide a
    rate, to get the value at nominal speed."""
    return NOMINAL_S / statistics.median(samples)
