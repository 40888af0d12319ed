"""Interpreter-speed probe: scales measured times to a fixed reference speed.

The machine this benchmark runs on is shared, and how fast it runs Python
wanders by a third over tens of seconds.  The probe runs a small fixed
kernel every PERIOD_S of wall time (SETUP_PERIOD_S during the short set-up)
from a SIGALRM handler, in the middle of the work being timed.  The kernel does what lawcheck spends its time on:
jet arithmetic on small Python lists and dict updates with Fraction values.
It is the benchmark's own code, so a change to lawcheck cannot speed it up.

A time measured over a window is reported as

    (wall time - time spent in the kernel) * mean(REFERENCE_S / kernel time)

over the kernel samples inside the window: the wall time the window would
have taken with the kernel running at REFERENCE_S, its median time on the
reference box (see README.md).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
SETUP_PERIOD_S = 0.01
REFERENCE_S = 6.0e-4
MIN_SAMPLES = 3


class _Jet:
    __slots__ = ("v", "g", "h")


def _jet(v, g, h):
    j = _Jet.__new__(_Jet)
    j.v, j.g, j.h = v, g, h
    return j


def _jet_mul(a, b):
    v1, v2, g1, g2 = a.v, b.v, a.g, b.g
    return _jet(v1 * v2, [p * v2 + q * v1 for p, q in zip(g1, g2)],
                [[h1 * v2 + h2 * v1 + g1[i] * g2[k] + g2[i] * g1[k]
                  for k, (h1, h2) in enumerate(zip(r1, r2))]
                 for i, (r1, r2) in enumerate(zip(a.h, b.h))])


_X = _jet(0.3, [1.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
_Y = _jet(0.7, [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])


def kernel():
    """The fixed piece of work whose duration the probe samples."""
    y = _X
    for _ in range(20):
        y = _jet_mul(_jet_mul(y, _Y), _X)
    terms = {}
    for i in range(50):
        key = (i % 7, (i % 3, i % 5))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return y.v, len(terms)


class SpeedProbe:
    """Samples the kernel's duration every PERIOD_S while active."""

    def __init__(self):
        self.samples = []            # (start, kernel seconds)

    def sample(self):
        """Run the kernel once and record its duration."""
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _tick(self, _signum, _frame):
        self.sample()

    def start(self, period=PERIOD_S):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Reference-speed seconds of the window [t0, t1).

        The speed comes from the samples inside the window, or from the
        MIN_SAMPLES samples nearest to it when the window holds fewer.
        """
        inside = [d for s, d in self.samples if t0 <= s < t1]
        speed = inside
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda sd: abs(sd[0] - mid))
            speed = [d for _s, d in nearest[:MIN_SAMPLES]]
        if not speed:
            raise RuntimeError("no speed samples")
        factor = statistics.fmean(REFERENCE_S / d for d in speed)
        return (t1 - t0 - sum(inside)) * factor
