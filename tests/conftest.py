import gc
import random
import signal
import types
from contextlib import contextmanager
from fractions import Fraction

import pytest

from tdpair121 import Field, ParameterArray, QQ, admissible, derived_params


@contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once seconds have passed, so that
    a hang fails the test instead of stalling the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_scalar(rng, field, span=6):
    if field.p:
        return field(rng.randrange(field.p))
    return field(Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3))))


def random_array(rng, field):
    vals = [random_scalar(rng, field) for _ in range(8)]
    return ParameterArray(field, tuple(vals[0:3]), tuple(vals[3:6]), vals[6], vals[7])


def random_array_with_denominators(rng, field):
    while True:
        pa = random_array(rng, field)
        if pa.theta[0] != pa.theta[2] and pa.thetastar[0] != pa.thetastar[2]:
            return pa


def random_admissible_array(rng, field):
    while True:
        pa = random_array(rng, field)
        if admissible(pa).ok:
            return pa


def random_boundary_array(rng, field):
    """Array with distinct sequences, nonzero split scalars, and the
    product condition forced to fail: varphi == varphi1 * varphi2."""
    while True:
        if field.p:
            theta = tuple(field(x) for x in rng.sample(range(field.p), 3))
            thetastar = tuple(field(x) for x in rng.sample(range(field.p), 3))
            delta = field(rng.randrange(field.p))
        else:
            theta = tuple(field(x) for x in rng.sample(range(-5, 6), 3))
            thetastar = tuple(field(x) for x in rng.sample(range(-5, 6), 3))
            delta = field(rng.randint(-8, 8))
        a_term = (theta[0] - theta[1]) * (thetastar[0] - thetastar[1])
        b_term = (theta[1] - theta[2]) * (thetastar[1] - thetastar[2])
        varphi = (delta - a_term) * (delta - b_term)
        phi = varphi + delta * (theta[0] - theta[2]) * (thetastar[0] - thetastar[2])
        if varphi.is_zero or phi.is_zero:
            continue
        pa = ParameterArray(field, theta, thetastar, varphi, phi)
        report = admissible(pa)
        assert report.failed == ("(iii)",)
        dp = derived_params(pa)
        assert pa.varphi == dp.varphi1 * dp.varphi2
        return pa


def random_invertible(rng, field, matrix_cls):
    while True:
        m = matrix_cls(field, [[random_scalar(rng, field) for _ in range(4)]
                               for _ in range(4)])
        if not m.det().is_zero:
            return m


def referents(start):
    """Every object reachable from start by gc referents, start included,
    not walking into types, modules or functions."""
    seen, todo = {}, [start]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            seen[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return list(seen.values())


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def p0():
    return ParameterArray.make(QQ, (1, 0, -1), (1, 0, -1), 2, 1)


@pytest.fixture
def gf101():
    return Field(101)
