"""Machine-speed calibration of the end-to-end wall time.

On a shared virtual machine the same computation runs 10-15 % faster or
slower from one minute to the next, and up to 40 % from one second to the
next (for numpy-bound and interpreter-bound code alike, in CPU time as in
wall time), which is more than a benchmark bound can absorb.  So the pass
times are scaled by the machine's speed, measured next to them: a fixed
kernel that does not use lqw is timed before every invocation of a timed
pass and once after the last one, and each invocation's time is scaled by
the kernel times taken right before and right after it:

    scaled time = measured time * NOMINAL_S / (mean of the two kernel times)

``wall_s`` is the median over the passes of the scaled pass times.  NOMINAL_S
is the kernel's median time, between lqw invocations, on the host the
benchmark was written on (a 2-vCPU KVM guest, Intel Xeon, Python 3.11, numpy
2.4).  A change to lqw moves the scaled time exactly as it moves the
measured one; only the host's drift cancels.  The unscaled ``wall_raw_s``
and the kernel's median ``kernel_s`` are printed beside it.

``setup_s`` is not scaled: it is measured in separate processes, away from
the kernel, and scaling it by the run's kernel times made its run-to-run
spread wider, not narrower.

The kernel mixes the kinds of work lqw does: a walk-like loop of small
complex matrix products and strided copies, a pure-Python loop, and sorts.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.045


def scaled_pass(seconds: list[float], kernel_s: list[float]) -> float:
    """A pass's wall time at the nominal speed: each invocation's time scaled
    by the mean of the kernel times taken right before and right after it."""
    return sum(s * NOMINAL_S * 2 / (before + after)
               for s, before, after in zip(seconds, kernel_s, kernel_s[1:]))


class Kernel:
    """The calibration kernel; calling it returns the seconds one run took.

    Its working set is small (~0.7 MB) and is touched, untimed, before each
    run, and it allocates nothing while it runs (every result goes to a
    buffer made here): its time depends on the machine, not on the state of
    the caches or the heap the previous lqw invocation left behind."""

    def __init__(self):
        import numpy as np

        self.np = np
        sites = 2001
        self.cur = np.zeros((sites, 3), dtype=np.complex128)
        self.nxt = np.zeros_like(self.cur)
        self.coined = np.zeros_like(self.cur)
        self.coin = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]], dtype=np.complex128) / 3
        self.values = np.random.default_rng(0).random(20_000)
        self.sorted = np.empty_like(self.values)
        self()  # first call: numpy's one-time set-up is not a speed sample

    def __call__(self) -> float:
        for buffer in (self.cur, self.nxt, self.coined, self.sorted):
            buffer.fill(0.0)
        self.values.sum()
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def _run(self) -> None:
        np, cur, nxt, coin = self.np, self.cur, self.nxt, self.coin
        c = cur.shape[0] // 2
        cur[c] = 1.0 / 3 ** 0.5
        for t in range(c):
            lo, hi = c - t, c + t + 1
            coined = self.coined[:hi - lo]
            np.matmul(cur[lo:hi], coin, out=coined)
            nxt[lo - 1:hi + 1] = 0.0
            nxt[lo - 1:hi - 1, 0] = coined[:, 0]
            nxt[lo + 1:hi + 1, 1] = coined[:, 1]
            nxt[lo:hi, 2] = coined[:, 2]
            cur, nxt = nxt, cur
        total = 0
        for j in range(40_000):
            total += j * j
        for _ in range(8):
            self.sorted[:] = self.values
            self.sorted.sort()
