"""The linear algebra fails closed: on malformed arguments each public call
that reaches the row reduction, and matrix arithmetic, returns, or raises
ValueError, TypeError or ZeroDivisionError (SingularMatrixError is a
ValueError), within a time bound.

The draws are ragged and empty grids, entries and operands from mixed
fields, floats, bools and None, and vectors of the wrong length, beside
well-formed small grids so that the kernels run too.
"""

from fractions import Fraction
from operator import add, mul, sub

import pytest

from conftest import deadline
from tdpair121 import Field, Matrix, QQ, Subspace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

FIELDS = (QQ, Field(2), Field(7), Field(2 ** 61 - 1))
# documented failures; TimeoutError from the deadline is none of them
CLOSED = (ValueError, TypeError, ZeroDivisionError)

fields = st.sampled_from(FIELDS)
small = st.integers(-3, 3)
scalars = st.one_of(
    small, small, st.integers(-2 ** 70, 2 ** 70),
    st.fractions(max_denominator=2 ** 20),
    st.sampled_from(["1/2", "-3", "1/0", "x", "", "1.5"]),
    st.floats(), st.booleans(), st.none(),
    st.builds(lambda field, n: field(n), fields, small),  # an element of any field
)
junk = st.one_of(st.none(), st.booleans(), st.floats(), small, st.just("12"))


def vectors(n, entries=scalars):
    """Lists of n entries (none for a negative n)."""
    return st.lists(entries, min_size=max(n, 0), max_size=max(n, 0))


# well-formed n-vectors of small ints, wrong lengths, bad entries, junk
any_vectors = st.one_of(
    st.integers(0, 5).flatmap(lambda n: vectors(n, small)),
    st.lists(scalars, max_size=6), junk)
grids = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda s: st.lists(vectors(s[1], small), min_size=s[0], max_size=s[0])),
    st.integers(1, 5).flatmap(lambda n: st.lists(vectors(n), min_size=n, max_size=n)),
    st.lists(st.lists(scalars, max_size=5), max_size=5),  # ragged or empty
    junk)
ambients = st.integers(-1, 5)
operands = st.one_of(junk, st.lists(small, max_size=4))


def closed(call, *args):
    """call(*args), or None when it raises a documented error; any other
    exception, or a run past one second, fails the property."""
    try:
        with deadline(1.0):
            return call(*args)
    except CLOSED:
        return None


def fields_like(field):
    """field itself, at least half the time, or any field."""
    return st.one_of(st.just(field), fields)


def spans(field, n):
    """Vector lists for Subspace(field, n, ...): mostly n-vectors of small
    ints, now and then of bad entries or of another length."""
    good = vectors(n, small)
    return st.lists(st.one_of(good, good, good, vectors(n), any_vectors), max_size=4)


@SETTINGS
@given(st.data())
def test_matrix_calls_fail_closed(data):
    m = closed(Matrix, data.draw(fields), data.draw(grids))
    if m is None:
        return
    for call in (Matrix.rank, Matrix.kernel, Matrix.invert, Matrix.det):
        closed(call, m)
    other = closed(Matrix, data.draw(fields_like(m.field)), data.draw(grids))
    for operand in (other, data.draw(operands)):
        for op in (mul, add, sub):
            closed(op, m, operand)
    field = data.draw(fields_like(m.field))
    s = closed(Subspace, field, m.ncols, data.draw(spans(field, m.ncols)))
    if s is not None:
        closed(s.image, m)
        closed(s.is_invariant, m)


@SETTINGS
@given(st.data())
def test_subspace_calls_fail_closed(data):
    field, n = data.draw(fields), data.draw(ambients)
    s = closed(Subspace, field, n, data.draw(spans(field, n)))
    if s is None:
        return
    closed(s.contains, data.draw(st.one_of(vectors(n, small), any_vectors)))
    other_field, other_n = data.draw(fields_like(field)), data.draw(st.one_of(st.just(n), ambients))
    other = closed(Subspace, other_field, other_n, data.draw(spans(other_field, other_n)))
    for operand in (other, data.draw(operands)):
        closed(s.__add__, operand)
        closed(s.__and__, operand)
        closed(s.image, operand)
        closed(s.is_invariant, operand)
