"""The reference kernel that corrects every timing for machine speed.

It does the program's kind of work with the standard library alone:
Fraction products and sums over lists (as in Q and Q[x] arithmetic) and
integer fraction-free elimination (as on Z).  It never imports canonform,
so a change to canonform cannot change its cost; a change to process-wide
state (gc thresholds, the switch interval) can, which is why its own time
is reported beside every corrected figure.

A call that took `raw` seconds while the kernel took `local` seconds
(the mean of the runs just before and just after the call) is reported
as raw * NOMINAL_S / local: seconds on a machine where the kernel takes
NOMINAL_S.
"""
from __future__ import annotations

import time
from fractions import Fraction

# Close to the kernel's median time on the machine of README.md's reference
# figures (2 vCPU, CPython 3.11); fixed so corrected figures compare across
# commits and machines.
NOMINAL_S = 0.00090

_POLY = tuple(Fraction(3 * i + 1, i + 2) for i in range(12))
_INTS = tuple(tuple((i * i * j + 3 * j * j + i + 1) % 19 - 9 for j in range(10)) for i in range(10))


def reference_kernel():
    """About a millisecond of exact list arithmetic."""
    out = [Fraction(0)] * (2 * len(_POLY) - 1)
    for i, x in enumerate(_POLY):
        for j, y in enumerate(_POLY):
            out[i + j] += x * y
    w = [list(row) for row in _INTS]
    n, prev = len(w), 1
    for k in range(n - 1):
        if w[k][k] == 0:
            t = next((t for t in range(k + 1, n) if w[t][k]), None)
            if t is None:
                break
            w[k], w[t] = w[t], w[k]
        for i in range(k + 1, n):
            wik = w[i][k]
            w[i] = [w[i][j] if j <= k else (w[k][k] * w[i][j] - wik * w[k][j]) // prev
                    for j in range(n)]
        prev = w[k][k]
    return out, w


def kernel_seconds():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def corrected(raw, before, after):
    """raw seconds at the nominal kernel speed."""
    return raw * NOMINAL_S * 2 / (before + after)
