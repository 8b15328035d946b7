"""A fixed reference kernel that tracks the host's current speed.

On a shared host the same code can run 30-50% slower for tens of seconds at
a time, and CPU time slows with wall time (the loss is not steal time).  The
timed loop therefore runs this kernel between operations and expresses each
operation's latency in units of the kernel's duration measured next to it.
Operation and kernel slow down together, so the ratio stays steady while the
wall-clock time drifts.

The kernel does not use the program.  It mixes the two kinds of work the
program does: small dense linear algebra with Python overhead, as on the
l2 route, and a small HiGHS LP through scipy, as on the p = 1 and p = inf
routes.  One run takes about 2.5 ms on a 2-core Xeon with Python 3.11.

Set-up runs in fresh processes, so it is timed whole and scaled by the
kernel's duration measured just before and after it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# kernel time as a share of operation time in the timed loop
SHARE = 0.2
# the kernel's duration on the host the benchmark was sized on (2-core Xeon,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1); set-up time is reported scaled
# to a host of this speed
NOMINAL_S = 2.5e-3
# reference samples around an operation that give its local kernel time
NEIGHBOURS = 9


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.B = np.linalg.qr(rng.standard_normal((24, 12)))[0]
        self.x = rng.standard_normal(24)
        m, r = 6, 3
        Bl = rng.standard_normal((m, r))
        xl = rng.standard_normal(m)
        self.lp = dict(
            c=np.concatenate([np.zeros(r), np.ones(m)]),
            A_ub=np.block([[-Bl, -np.eye(m)], [Bl, -np.eye(m)]]),
            b_ub=np.concatenate([-xl, xl]),
            bounds=[(None, None)] * r + [(0, None)] * m,
            method="highs",
        )

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(100):
            a = np.asarray(self.x, dtype=float)
            c = self.B.T @ a
            acc += float(np.linalg.norm(a - self.B @ c))
        return acc + float(linprog(**self.lp).fun)

    def seconds(self, runs: int = 3) -> float:
        """Median duration of a few runs, in seconds."""
        out = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self()
            out.append(time.perf_counter() - t0)
        return statistics.median(out)


class Timeline:
    """Kernel samples taken between operations, looked up by time."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.starts: list[int] = []
        self.durations: list[int] = []
        self.total = 0

    def keep_up(self, op_total_ns: int, clock) -> None:
        """Run the kernel until its time is SHARE of the operations' time."""
        while self.total < SHARE * op_total_ns:
            t0 = clock()
            self.kernel()
            d = clock() - t0
            self.starts.append(t0)
            self.durations.append(d)
            self.total += d

    def local(self, t_ns: int) -> float:
        """Median kernel duration (ns) of the samples nearest to time t_ns."""
        i = bisect.bisect_left(self.starts, t_ns)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.starts) - NEIGHBOURS))
        return statistics.median(self.durations[lo: lo + NEIGHBOURS])
