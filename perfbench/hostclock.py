"""Host-speed scaling of measured intervals.

Shared hosts switch between a fast state and a state about 1.5x slower, for
seconds at a time. That moves the median of a 30 s run by up to a third.
Timing a fixed kernel between tasks, and scaling each task by the kernel
times around it, cancels most of that drift. The kernel uses only the
standard library and mixes what qlat spends its time on: a primitive
polynomial remainder sequence (as in ratfunc), fraction-free
Gaussian-integer elimination (as in linalg) and Fraction boxing. It never
calls qlat, so no change to the program can change it.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# Seconds the calibration kernel takes when the host runs at full speed. A
# time is reported as raw seconds * CAL_REF_S / (the kernel's time around
# it): seconds at full host speed.
CAL_REF_S = 0.005
CAL_REPS = 15


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _primitive(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return [c // g for c in a] if g > 1 else a


def _poly_gcd(a, b):
    a, b = _primitive(a), _primitive(b)
    while b:
        r, lb = list(a), b[-1]
        while len(r) >= len(b):
            lead = r[-1]
            if lead:
                r = [lb * c for c in r]
                shift = len(r) - len(b)
                for i, cb in enumerate(b):
                    r[shift + i] -= lead * cb
            r.pop()
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r)
    return a


_CAL_COMMON = [1, -2, 0, 1, 1, -1]
_CAL_POLYS = (_poly_mul([(3 * i * i + 5) % 11 - 5 for i in range(12)], _CAL_COMMON),
              _poly_mul([(7 * i + 2) % 13 - 6 for i in range(10)], _CAL_COMMON))
_CAL_MATRIX = [[((7 * i + 3 * j * j) % 19 - 9, (5 * i * j + 1) % 7 - 3) for j in range(12)]
               for i in range(6)]


def _gaussian_elimination():
    rows = [list(r) for r in _CAL_MATRIX]
    q_re, q_im = 1, 0
    for k in range(len(rows)):
        p_re, p_im = rows[k][k]
        if not (p_re or p_im):
            p_re = 1
        qn = q_re * q_re + q_im * q_im
        for r in range(len(rows)):
            if r == k:
                continue
            f_re, f_im = rows[r][k]
            new = []
            for (a_re, a_im), (b_re, b_im) in zip(rows[r], rows[k]):
                n_re = p_re * a_re - p_im * a_im - f_re * b_re + f_im * b_im
                n_im = p_re * a_im + p_im * a_re - f_re * b_im - f_im * b_re
                new.append(((n_re * q_re + n_im * q_im) // qn, (n_im * q_re - n_re * q_im) // qn))
            rows[r] = new
        q_re, q_im = p_re, p_im
    return [Fraction(a, b or 1) for a, b in rows[0]]


def calibrate() -> float:
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        _poly_gcd(*_CAL_POLYS)
        _gaussian_elimination()
    return time.perf_counter() - t0


class HostClock:
    """Times the calibration kernel before the first measured interval and
    after each one; ``scale`` divides each interval by the mean kernel time
    of the four samples around it."""

    def __init__(self):
        self.samples = [calibrate()]

    def mark(self) -> None:
        self.samples.append(calibrate())

    def scale(self, raws: list[float]) -> list[float]:
        # Interval i lies between samples i and i + 1.
        return [raw * CAL_REF_S / statistics.fmean(self.samples[max(0, i - 1):i + 3])
                for i, raw in enumerate(raws)]
