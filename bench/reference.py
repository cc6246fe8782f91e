"""Reference kernels that put the untraced timings on one speed scale.

The benchmark's host is shared: over minutes its speed moves between
levels up to about 2x apart, and not every kind of code slows by the same
factor.  Before each timed call the harness runs the reference kernel
that matches the call's kind of work and times it; each set-up process
times the scalar Python kernel after its set-up.  Dividing a time by its
kernel's time, and multiplying by the kernel's nominal time, gives the
time at the reference speed ("normalized seconds").

The kernels use only numpy and the standard library, never ``ael``, so a
change to the package moves the normalized times and not the scale.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL = np.linspace(-3.0, 3.0, 64)  # the size of one quadrature rule
_LARGE = np.linspace(0.0, 1.0, 1 << 18)
_LARGE_OUT = np.empty_like(_LARGE)  # preallocated: page faults would dominate


def small_arrays() -> float:
    """Many numpy calls on 64-element arrays plus scalar math: the shape of
    the payoff kernel and the solver built on it."""
    acc = 0.0
    for i in range(400):
        y = np.exp(-0.5 * (_SMALL * _SMALL + i * 1e-3))
        acc += float(y.sum()) + math.erf(i * 1e-3)
    return acc


def large_arrays() -> float:
    """A few numpy calls on 2^18-element arrays: the shape of the Monte
    Carlo layer."""
    acc = 0.0
    for i in range(8):
        np.multiply(_LARGE, _LARGE, out=_LARGE_OUT)
        np.multiply(_LARGE_OUT, -(1.0 + i * 1e-3), out=_LARGE_OUT)
        np.exp(_LARGE_OUT, out=_LARGE_OUT)
        acc += float(_LARGE_OUT.sum())
    return acc


def python_loop() -> int:
    """Scalar Python bytecode, no numpy: the shape of importing modules and
    building the run configuration, which set-up time measures."""
    acc = 0
    for i in range(100_000):
        acc += i * i
    return acc


# Span name, kernel and nominal seconds of each kernel: its median time on
# an idle 2-CPU x86_64 host at its faster speed level (Python 3.11.7,
# numpy 2.4.6).  The nominal times only fix the unit of the normalized
# seconds; they are not compared with anything.
SMALL = ("ref.small_arrays", small_arrays, 1.7e-3)
LARGE = ("ref.large_arrays", large_arrays, 6.0e-3)
PYTHON = ("ref.python_loop", python_loop, 6.0e-3)
