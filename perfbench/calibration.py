"""Machine-speed probes, run in processes of their own.

On a 2-core VM that shares its cores, CPU speed drifts by tens of percent
over minutes.  Two fixed probes track that drift, and the gated timings are
divided by them:

* ``Calibration`` times a fixed kernel of the same kind of work as the
  program's jobs (interpreted Python, 7x7 ``eigvals`` and solves, one small
  matmul) before every job.  The kernel runs in a long-lived worker process
  that does not import ``beamalloc``, so nothing the program does to its own
  process (BLAS thread pools, heap, interpreter state) can reach it.  It
  inherits the benchmark's CPU pinning (see ``run.pin_cpu``), so it runs on
  the CPU the jobs run on; unpinned, its times did not follow the jobs'.
* ``SETUP_PROBE`` is what a fresh interpreter spends importing the
  program's third-party dependencies (numpy and the scipy modules it uses);
  ``run.measure_setup`` times it in turn with the program's own set-up.

Run as a script, this file is the ``Calibration`` worker: for every line on
stdin it times one kernel sample and prints the seconds it took.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Median time of one kernel sample when the 2-core Xeon VM the benchmark was
# written on runs at its usual speed.  Gated job timings are rescaled to it.
KERNEL_REFERENCE_S = 0.016

SETUP_PROBE = """\
import sys, time
import numpy, scipy.linalg, scipy.special
print(repr(time.monotonic()))
"""


class Calibration:
    """Parent side of the kernel worker.  Use as a context manager: the worker
    is stopped and waited for on exit.  `speed` is above 1 when the machine
    ran faster than its reference state."""

    def __init__(self):
        self.samples = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sample()  # the first sample warms the worker up; it is not kept
        self.samples.clear()
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        return False

    def sample(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration worker exited")
        self.samples.append(float(line))

    def speed_of(self, first):
        """Machine speed from the samples taken since `samples[first]`:
        reference time / their mean time."""
        return KERNEL_REFERENCE_S / statistics.fmean(self.samples[first:])


def _serve():
    import numpy as np

    rng = np.random.default_rng(20210906)
    small = rng.standard_normal((12, 7, 7)) + 7.0 * np.eye(7)
    a = rng.standard_normal((256, 49))
    b = rng.standard_normal((49, 128))
    for _ in sys.stdin:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(20):
            for m in small:
                acc += float(np.max(np.abs(np.linalg.eigvals(m))))
                acc += float(np.linalg.solve(m, m[0]).sum())
            acc += float(np.maximum(a @ b, 0.0).sum())
            acc += sum(0.5 * i for i in range(300))
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _serve()
