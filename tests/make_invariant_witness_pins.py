"""Write tests/data/invariant_witness_pins.json and count its witness kinds.

    PYTHONPATH=src python tests/make_invariant_witness_pins.py

Each pin is a seeded pair (A, A*) with A = S D S^-1 for a diagonal D of
eigenvalue pattern (a, b, b, c) or (a, b, c, d), and A* = S M S^-1 for a
sparse M, so that many pairs share an invariant subspace; next to it
stands common_invariant_subspace(A, A*).to_json(), or null.  GF(3) has
room for (a, b, b, c) only, and GF(2) for neither: it uses (a, b, b, b)
and (a, a, b, b) instead, which the search handles by enumeration.  The counts printed
sort each witness by the candidate that produced it: a sum of whole
eigenspaces, a line of A's eigenplane at (1:0) or at a finite root of
its conditions, or such a line plus one or two eigenlines.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from tdpair121 import (
    Field,
    Matrix,
    QQ,
    Subspace,
    common_invariant_subspace,
    eigen_data,
    subspace_sum,
)

PATH = Path(__file__).parent / "data" / "invariant_witness_pins.json"
PRIMES = (2, 3, 5, 7, 101, 10007)
PER_PATTERN = 16
QQ_PER_PATTERN = 20
WIDE_QQ = 8
WIDE_BITS = 100


def dumps(pins) -> str:
    """The file text: one pin per line."""
    return "[\n" + ",\n".join(json.dumps(pin, sort_keys=True) for pin in pins) + "\n]\n"


def _scalar(rng, field, bits):
    if field.p:
        return rng.randrange(field.p)
    if bits:
        return rng.randrange(-2 ** bits, 2 ** bits)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))


def _invertible(rng, field, bits):
    while True:
        s = Matrix(field, [[_scalar(rng, field, bits) for _ in range(4)] for _ in range(4)])
        if not s.det().is_zero:
            return s


def _eigenvalues(rng, field, pattern):
    distinct = len(set(pattern))
    if field.p:
        vals = rng.sample(range(field.p), distinct)
    else:
        vals = rng.sample(range(-6, 7), distinct)
    return [vals[i] for i in pattern]


def _sparse(rng, field):
    density = rng.choice((0.25, 0.5, 0.75))
    return Matrix(field, [[_scalar(rng, field, 0) if rng.random() < density else 0
                           for _ in range(4)] for _ in range(4)])


def _patterns(field):
    if field.p == 2:
        return ((0, 1, 1, 1), (0, 0, 1, 1))
    if field.p == 3:
        return ((0, 1, 1, 2),)
    return ((0, 1, 1, 2), (0, 1, 2, 3))


def cases():
    """(field, A, A*) for every pin, in file order."""
    out = []
    for field in [QQ] + [Field(p) for p in PRIMES]:
        patterns = _patterns(field)
        count = QQ_PER_PATTERN if field is QQ else PER_PATTERN
        if field.p == 3:
            count *= 2
        for pattern in patterns:
            for i in range(count):
                rng = random.Random(f"invariant-pin:{field.p}:{pattern}:{i}")
                bits = WIDE_BITS if field is QQ and i < WIDE_QQ // len(patterns) else 0
                s = _invertible(rng, field, bits)
                si = s.invert()
                d = Matrix.diagonal(field, _eigenvalues(rng, field, pattern))
                out.append((field, s * d * si, s * _sparse(rng, field) * si))
    return out


def kind(a, w):
    """The candidate kind that produced witness w of the pair with first matrix a."""
    spaces = list(eigen_data(a).eigenspaces)
    for r in range(1, len(spaces)):
        if any(subspace_sum(c) == w for c in combinations(spaces, r)):
            return "fixed sum"
    plane = next((s for s in spaces if s.dim == 2), None)
    if plane is None or len(spaces) != 3:
        return "enumerated"
    if w.dim > 1:
        return "plane line plus eigenlines"
    if w == Subspace(a.field, 4, plane.basis[:1]):
        return "plane line at (1:0)"
    return "plane line at a finite root"


def main() -> None:
    pins, kinds = [], Counter()
    for field, a, astar in cases():
        w = common_invariant_subspace(a, astar)
        kinds["none" if w is None else kind(a, w)] += 1
        pins.append({"field": field.to_json(), "A": a.to_json(), "Astar": astar.to_json(),
                     "witness": None if w is None else w.to_json()})
    PATH.write_text(dumps(pins))
    print(len(pins), "pins:", dict(sorted(kinds.items())))


if __name__ == "__main__":
    main()
