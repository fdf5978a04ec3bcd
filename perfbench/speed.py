"""Machine-speed reference for the end-to-end timings.

On a shared machine the interpreter's speed swings by up to 1.7x within
seconds.  Fast and slow spells last from a few seconds to a minute, so
how much of a 20-second run falls into each one decides its median
latency more than the program does.  The benchmark therefore times a
fixed piece of interpreter work, `sample()`, between operations, and
scales each operation's wall time by `REFERENCE_S / (kernel time around
it)`.  The kernel is benchmark code that no change to the package can
touch, so the scale factor measures only the machine.  Its hot path is
like the program's: small boxed-int objects with Python-level operators,
and Fraction arithmetic.

Scaled times read as wall-clock times on a machine where `sample()` takes
exactly REFERENCE_S.  The raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1e-3
ROUNDS = 32


class _Box:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Box(self.v * other.v % 10007)

    def __add__(self, other):
        return _Box((self.v + other.v) % 10007)


def sample() -> float:
    """Seconds taken by the fixed kernel, now."""
    t0 = perf_counter()
    xs = [_Box(i) for i in range(1, 40)]
    acc, f = _Box(1), Fraction(1)
    for _ in range(ROUNDS):
        for x in xs:
            acc = acc * x + x
        f = f * Fraction(3, 7) + Fraction(1, 11)
        f = Fraction(f.numerator % 1000003, f.denominator % 1000003 or 1)
    return perf_counter() - t0


def warm() -> None:
    for _ in range(5):
        sample()


def scaled(times, kernels):
    """Scale times[i] by the mean of the kernel times taken just before and
    just after it: kernels has one entry more than times."""
    return [t * REFERENCE_S / ((kernels[i] + kernels[i + 1]) / 2)
            for i, t in enumerate(times)]
