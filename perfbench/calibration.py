"""Machine-speed calibration: a fixed kernel timed between the runs of a workload.

This host's CPUs are shared.  Each CPU flips between a fast and a slow
state, ~1.5x apart, that lasts for seconds, and whole 30-second runs can
fall in a slow period.  A wall time alone then measures the host as much
as the program.  So every untraced trial times this kernel, which does not
depend on the package, on its CPU before its first run and after every run,
and ``run.py`` rescales the trial's times to the reference speed:
``time * REFERENCE_S / cal``, where ``cal`` is the mean of the kernel times
the trial took.  On a host where the kernel takes ``REFERENCE_S`` the
rescaled time equals the raw one; ``run.py`` prints the raw times beside it.

One kernel time varies by ~19% (coefficient of variation, 40 ms samples)
from one sample to the next, with little correlation between neighbours,
so a single sample paired with a single workload run adds noise; the mean
over a trial's samples follows the CPU's state and averages the rest.

The kernel mixes the three kinds of work the workloads do: pure-Python
float formatting (the CSV emission of ``desk``), many small numpy calls
(the per-step bandit loops) and passes over arrays larger than the caches
(the ledger's ``(M x steps)`` matrices), in time shares of about 1:1:4.
Timed apart over four seeds of each workload, the formatting and the small
calls swung 1.5-3x more than the workloads' trial times did, and the array
passes somewhat less (the workloads' elasticity against them was
1.0-1.8).  Against the 1:1:4 mix it was 0.8-1.3 on all four workloads.

The kernel's time also depends on the heap of the process that runs it:
after a ``desk`` run has built and freed tens of MB of text, the same
kernel in the same process runs up to 2x slower.  So a ``Calibrator`` runs
it in a helper process forked before the package is imported, whose heap
the workload never touches.
"""

from __future__ import annotations

import os
import struct
import time

REFERENCE_S = 0.030  # kernel time, on one CPU, that defines the reference speed
PASSES = 2  # kernel passes on each CPU per calibration


def kernel() -> float:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    import numpy as np

    text = ",".join([repr(i * 0.1234567) for i in range(7000)])
    small = np.linspace(-0.3, 0.3, 100).reshape(10, 10)
    v = np.ones(10)
    for _ in range(1000):
        v = small @ v
        v /= np.linalg.norm(v)
    large = np.arange(1 << 20, dtype=np.float64)  # 8 MiB, freed on return
    out = np.cumsum(large)
    for _ in range(2):
        np.cumsum(out, out=out)
    return len(text) + float(v[0]) + float(out[-1])


def calibrate() -> list[float]:
    """Seconds each of ``PASSES`` kernel passes takes on each CPU this process may use.

    The process pins itself to each CPU in turn and then restores its
    affinity.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            for _ in range(PASSES):
                started = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


class Calibrator:
    """A forked helper process that runs ``calibrate`` on request.

    Create it before importing the package.  The helper inherits the
    caller's CPU affinity, sleeps on a pipe between requests, and exits
    when ``close`` closes the pipe or the caller dies.
    """

    def __init__(self) -> None:
        import numpy  # noqa: F401  (loaded once, before the fork)

        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper
            os.close(request_w)
            os.close(reply_r)
            code = 1
            try:
                while os.read(request_r, 1):
                    times = calibrate()
                    os.write(reply_w, struct.pack(f"=B{len(times)}d", len(times), *times))
                code = 0
            finally:
                os._exit(code)  # never runs the caller's code or flushes its buffers
        os.close(request_r)
        os.close(reply_w)
        self._request, self._reply = request_w, os.fdopen(reply_r, "rb")

    def __call__(self) -> list[float]:
        """One ``calibrate`` in the helper: its kernel times."""
        os.write(self._request, b"c")
        head = self._reply.read(1)
        body = self._reply.read(8 * head[0]) if head else b""
        if not head or len(body) != 8 * head[0]:
            raise RuntimeError("calibration helper died")
        return list(struct.unpack(f"={head[0]}d", body))

    def close(self) -> None:
        os.close(self._request)
        self._reply.close()
        os.waitpid(self.pid, 0)
