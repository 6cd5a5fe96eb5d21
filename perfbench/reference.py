"""A fixed reference kernel that measures the host's current speed.

A shared host changes speed for minutes at a time: on a 2-vCPU host, one
LeNet evaluation took 88 ms in one stretch and 140 ms in the next, and the
whole run of a workload often falls in one state. No statistic taken over
the program's own samples can remove a state that covers the whole run.
So the bench times this kernel between every two timed blocks (set-ups and
repetitions) and scales each block by how fast the kernel ran around it.

The kernel mirrors the work of the three workloads, in plain numpy and
scipy, and never calls the library, so a change to the library cannot
change it:

* an im2col convolution and max-pool stack like LeNet's forward pass,
* a DCT, a masked resampling with normal draws and an inverse DCT,
* dense products with a ReLU, like the wide MLP's layers.

On that host, three sets of 8-10 runs per workload gave scaled rates that
spread by 0.03-0.06 between runs (interquartile range / median), where the
plain wall-clock rates spread by up to 0.20. The scaled medians of the
sets agreed within 2%; the plain ones differed by up to 30%. The kernel does
not track the wide MLP's training, so set-up times stay noisier.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

# The kernel's time on a nominal host. A block's scaled time is its wall
# time times NOMINAL_S / (the kernel's time around it): the time the block
# would take on a host that runs the kernel in NOMINAL_S seconds.
NOMINAL_S = 0.08


def _conv_pool(x, w):
    n = x.shape[0]
    win = sliding_window_view(x, w.shape[2:], axis=(2, 3))
    h2, w2 = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, h2 * w2, -1)
    y = np.maximum(cols @ w.reshape(w.shape[0], -1).T, 0.0)
    y = y.transpose(0, 2, 1).reshape(n, w.shape[0], h2 // 2, 2, w2 // 2, 2)
    return y.max(axis=(3, 5))


class Reference:
    """The kernel's inputs (fixed, independent of the workload seed) and
    the time of its last run."""

    def __init__(self):
        rng = np.random.default_rng(20240227)
        self.images = rng.random((250, 1, 28, 28))
        self.conv = (rng.normal(0.0, 0.3, (6, 1, 5, 5)), rng.normal(0.0, 0.1, (16, 6, 5, 5)))
        self.vector = rng.normal(0.0, 0.05, 262144)
        self.replace = rng.random(self.vector.size) >= 0.1
        self.acts = rng.normal(0.0, 1.0, (300, 512))
        self.dense = rng.normal(0.0, 0.05, (512, 512))
        self.run()   # warm-up: first-call set-up in numpy and scipy.fft
        self.last = self.run()

    def run(self):
        """Run the kernel once; returns its wall time in seconds."""
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        x = self.images
        for w in self.conv:
            x = _conv_pool(x, w)
        c = scipy.fft.dct(self.vector, type=2, norm="ortho")
        c[self.replace] = rng.normal(0.0, 0.02, int(self.replace.sum()))
        scipy.fft.idct(c, type=2, norm="ortho").astype(np.float32)
        h = self.acts
        for _ in range(5):
            h = np.maximum(h @ self.dense, 0.0)
        return time.perf_counter() - t0

    def scale(self):
        """Scale factor for the block that has just ended: NOMINAL_S over
        the mean of the kernel's times before and after the block."""
        before, self.last = self.last, self.run()
        return NOMINAL_S / ((before + self.last) / 2.0)
