"""Host speed sampled during a timed pass, to take a shared CPU's drift out of timings.

On a shared host the speed of this process's CPU drifts with what other
tenants run: the same pass can take 1.7 s in one minute and 3 s in the next,
and runs minutes apart disagree by more than any bound worth setting.  While
a ``Sampler`` is active, a SIGALRM every PERIOD_S runs a fixed small job (a
short SciPy RK45 solve of a 2x2 system: the kind of work dichokit's
integrations do, with no dichokit code in it) and records its duration.
The time spent in the handler is taken out of the timings (``spent``).
The speed changes within seconds, so a short call is scaled by the samples
taken nearest to it, not by those of its whole pass.

A pass's host scale is NOMINAL_S over the mean sample time, leaving out
samples over twice the median (a sample the host preempted).  A time
multiplied by it is in host-normalised seconds: the time the pass would have
taken on this host while the sample job runs in NOMINAL_S.  On 65 passes of
each of the four workloads on the reference host, taken while the mean
sample ranged from 1.7 to 4.0 ms, the slope of log pass time over log mean
sample time was 0.91 to 0.98, and the interquartile range of single pass
times, as a share of the median, fell from 36-50 % raw to 6-10 % normalised.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
# mean sample time on the reference host (2 vCPU Xeon at 2.1 GHz) when its
# core is not contended
NOMINAL_S = 0.002
# an interval holding fewer samples than this is scaled by this many samples
# nearest to its middle
NEAREST = 8


def _job():
    import numpy as np
    from scipy.integrate import solve_ivp

    def field(t, y):
        a = np.array([[-1.0, np.sin(t)], [0.3 * np.cos(t), 0.5]])
        return (a @ y.reshape(2, 2)).ravel()

    solve_ivp(field, (0.0, 1.5), np.eye(2).ravel(), rtol=1e-9, atol=1e-12)


class Sampler:
    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False
        _job()  # import and warm the job outside any timing

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        try:
            _job()
        finally:
            dt = perf_counter() - t0
            self.samples.append((t0, dt))
            self.spent += dt
            self._busy = False

    def __enter__(self):
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale_near(self, t0, t1, k=NEAREST):
        """Host scale over [t0, t1] (perf_counter times): from the samples
        taken in it, or from the k taken nearest to its middle if it holds
        fewer than k."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if len(inside) < k:
            mid = 0.5 * (t0 + t1)
            inside = [dt for _, dt in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:k]]
        return scale(inside)


def scale(samples):
    if not samples:
        return 1.0
    cut = 2.0 * statistics.median(samples)
    return NOMINAL_S / statistics.fmean(x for x in samples if x <= cut)
