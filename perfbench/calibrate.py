"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the speed of one core drifts by a third or more, from one
second to the next and over minutes, as neighbours come and go; medians
within a run cannot remove drift that outlasts the run.  So the worker runs a
short slice of this kernel before the timed phase and again after every
SLICE_EVERY_S of operation time, in the same process, and the benchmark
scales each operation's latency by REFERENCE_S / (the median time of the
slices around it).  A scaled time is the time the operation would take on a
machine that runs the kernel in REFERENCE_S; it moves with the library's
speed relative to the kernel, not with the neighbours.

The kernel does the kind of work the library does, in its own code: a
product of polynomials stored as dicts from exponent tuples to Fractions.
Its inputs are fixed, it imports nothing from the library, and the cyclic
garbage collector is off while it runs, so neither a change to the library
nor the size of the library's caches changes its time.
"""

import gc
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# about the fastest median slice of a run seen on a shared 2-vCPU x86-64 VM
# under Python 3.11; it only sets the scale of the scaled times, and a run
# reports the median slice it measured
REFERENCE_S = 0.002
SLICE_EVERY_S = 0.02
READY_SLICES = 5  # slices before the first operation; they also scale set-up
WINDOW = 2  # slices on each side of an operation that set its speed


def _monomials(n_vars, total):
    if n_vars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _monomials(n_vars - 1, total - first):
            yield (first,) + rest


def _poly(n_vars, degree, step):
    """A dense polynomial with fixed small rational coefficients."""
    out, k = {}, 0
    for total in range(degree + 1):
        for mono in _monomials(n_vars, total):
            k += step
            out[mono] = Fraction(k % 7 - 3, k % 5 + 1)
    return out


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            c = out.get(mono, 0) + ca * cb
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


_A = _poly(3, 3, 3)
_B = _poly(3, 3, 5)
TERMS = 82  # of the 84 monomials of degree <= 6 in 3 variables, two cancel


def slice_s():
    """Time of one slice of the kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        terms = len(_mul(_A, _B))
        elapsed = perf_counter() - t
    finally:
        if enabled:
            gc.enable()
    if terms != TERMS:
        raise RuntimeError(f"calibration kernel made {terms} terms, not {TERMS}")
    return elapsed


def ready_factor(slices):
    """REFERENCE_S / the median of the slices taken before the first
    operation: the factor that scales set-up."""
    return REFERENCE_S / statistics.median(s for i, s in slices if i < 0)


def scaled(lat, slices):
    """Each latency times REFERENCE_S / the median of the WINDOW slices
    before and the WINDOW slices after it.  ``slices`` holds [index of the
    operation the slice follows (-1 before the first), seconds]."""
    after = [i for i, _ in slices]
    times = [s for _, s in slices]
    out = []
    for j, t in enumerate(lat):
        k = bisect_left(after, j)  # the first slice taken after operation j
        near = times[max(0, k - WINDOW):k + WINDOW]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
