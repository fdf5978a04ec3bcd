"""Write tests/data/decomposition_pins.json and count its report kinds.

    PYTHONPATH=src python tests/make_decomposition_pins.py

Each pin is a seeded pair (A, A*) with orderings theta, thetastar, and
next to it stands verify_td_system(A, A*, theta, thetastar).to_json().
Where TDSystem.from_matrices accepts the pair, the pin also holds the six
split_decomposition(...).to_json(), shape(...) (null when it raises) and
verify_split_actions(...).  The pairs come in six kinds, cycled by index:

  0  an admissible array's system, conjugated by a random S;
  1  a boundary array's canonical pair (reducible), conjugated;
  2  any array's canonical pair (split scalars may vanish), conjugated;
  3  a commuting pair S D S^-1, S D* S^-1 with D, D* diagonal;
  4  S D S^-1 against S M S^-1 for a sparse M;
  5  an admissible system with theta in a wrong order.

Kinds 3 and 4 take the first ordering of find_td_orderings when there is
one.  GF(2) has no three distinct eigenvalues, so its pins are commuting
and sparse pairs whose reports fail diagonalizability.  Over QQ the first
WIDE_QQ pins are conjugated by matrices with 100-bit entries.  Five
more pins are TDSystems built field by field, whose eigenspace lists need
not span the space: two repeated thetas (one with dims adding up to 4),
a repeated thetastar, a theta holding a value that is no eigenvalue, and
a pair of matrices with two eigenplanes each whose orderings put a
non-eigenvalue in the middle (its shape is (2, 0, 2)).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tdpair121 import (
    Decomposition,
    Field,
    Matrix,
    ParameterArray,
    QQ,
    TDSystem,
    admissible,
    canonical_matrices,
    find_td_orderings,
    shape,
    split_decomposition,
    verify_split_actions,
    verify_td_system,
)

PATH = Path(__file__).parent / "data" / "decomposition_pins.json"
PRIMES = (2, 3, 5, 7, 101, 10007)
PER_FIELD = 32
QQ_COUNT = 40
GF2_COUNT = 8
WIDE_QQ = 8
WIDE_BITS = 100
KINDS = 6


def dumps(pins) -> str:
    """The file text: one pin per line."""
    return "[\n" + ",\n".join(json.dumps(pin, sort_keys=True) for pin in pins) + "\n]\n"


def _scalar(rng, field, bits=0):
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


def _distinct(rng, field, k):
    if field.p:
        return [field(x) for x in rng.sample(range(field.p), k)]
    return [field(x) for x in rng.sample(range(-6, 7), k)]


def _array(rng, field, want):
    """A parameter array with distinct eigenvalue sequences and defined
    derived parameters: admissible, boundary (only (iii) fails) or any."""
    while True:
        pa = ParameterArray(field, tuple(_distinct(rng, field, 3)), tuple(_distinct(rng, field, 3)),
                            field(_scalar(rng, field)), field(_scalar(rng, field)))
        report = admissible(pa)
        if want == "admissible" and not report.ok:
            continue
        if want == "boundary" and report.failed != ("(iii)",):
            continue
        try:
            canonical_matrices(pa)
        except (ValueError, ZeroDivisionError):
            continue
        return pa


def _pattern(rng, field, vals):
    """Four diagonal entries taking the three values, one of them twice."""
    diag = list(vals) + [rng.choice(vals)]
    rng.shuffle(diag)
    return diag


def _ordered(a, astar, theta, thetastar):
    """The first ordering pair that passes both tridiagonal checks, else
    the given one."""
    try:
        found = find_td_orderings(a, astar)
    except ValueError:
        found = []
    return found[0] if found else (theta, thetastar)


def pair(rng, field, kind, bits):
    """(A, A*, theta, thetastar) of the given kind."""
    s = _invertible(rng, field, bits)
    si = s.invert()
    if field.p == 2:
        kind = 3 + kind % 2
    if kind in (0, 1, 2, 5):
        pa = _array(rng, field, {0: "admissible", 1: "boundary", 2: "any", 5: "admissible"}[kind])
        a, astar = canonical_matrices(pa)
        theta, thetastar = pa.theta, pa.thetastar
        if kind == 5:
            theta = (theta[1], theta[0], theta[2])
        return s * a * si, s * astar * si, theta, thetastar
    if field.p == 2:
        vals, duals = [field(0), field(1), field(1)], [field(1), field(0), field(0)]
        d = Matrix.diagonal(field, [rng.choice((0, 1)) for _ in range(4)])
    else:
        vals, duals = _distinct(rng, field, 3), _distinct(rng, field, 3)
        d = Matrix.diagonal(field, _pattern(rng, field, vals))
    if kind == 3:
        m = Matrix.diagonal(field, _pattern(rng, field, duals) if field.p != 2
                            else [rng.choice((0, 1)) for _ in range(4)])
    else:
        density = rng.choice((0.25, 0.5, 0.75))
        m = Matrix(field, [[_scalar(rng, field) if rng.random() < density else 0
                            for _ in range(4)] for _ in range(4)])
    a, astar = s * d * si, s * m * si
    return (a, astar) + _ordered(a, astar, tuple(vals), tuple(duals))


def cases():
    """(field, A, A*, theta, thetastar) for every seeded pin, in file order."""
    out = []
    for field in [QQ] + [Field(p) for p in PRIMES]:
        count = QQ_COUNT if field is QQ else GF2_COUNT if field.p == 2 else PER_FIELD
        for i in range(count):
            rng = random.Random(f"decomposition-pin:{field.p}:{i}")
            bits = WIDE_BITS if field is QQ and i < WIDE_QQ else 0
            out.append((field,) + pair(rng, field, i % KINDS, bits))
    return out


def direct_systems():
    """TDSystems built field by field, with eigenspace lists that do not
    span the space or hold a zero space; the E and Estar fields are empty."""
    out = []
    field = Field(7)
    pa = ParameterArray.make(field, (1, 2, 3), (4, 5, 6), 1, 2)
    a, astar = canonical_matrices(pa)
    t, ts = pa.theta, pa.thetastar
    out.append(TDSystem(a, astar, (t[1], t[1], t[2]), ts, (), ()))
    out.append(TDSystem(a, astar, (t[0], t[0], t[1]), ts, (), ()))
    out.append(TDSystem(a, astar, t, (ts[0], ts[2], ts[0]), (), ()))
    out.append(TDSystem(a, astar, (t[0], field(0), t[2]), ts, (), ()))
    rng = random.Random("decomposition-pin:direct:1")
    s, u = _invertible(rng, field, 0), _invertible(rng, field, 0)
    a = s * Matrix.diagonal(field, [1, 1, 3, 3]) * s.invert()
    astar = u * Matrix.diagonal(field, [4, 4, 6, 6]) * u.invert()
    out.append(TDSystem(a, astar, (field(1), field(2), field(3)),
                        (field(4), field(5), field(6)), (), ()))
    return out


def system_doc(tds) -> dict:
    """The six decompositions, the shape and the split-action check."""
    try:
        dims = list(shape(tds))
    except ValueError:
        dims = None
    return {
        "split": {dec.value: [c.to_json() for c in split_decomposition(tds, dec)]
                  for dec in Decomposition},
        "shape": dims,
        "split_actions": verify_split_actions(tds),
    }


def pin(field, a, astar, theta, thetastar, direct=False) -> dict:
    """One pin; a direct one builds its TDSystem field by field."""
    doc = {"field": field.to_json(), "A": a.to_json(), "Astar": astar.to_json(),
           "theta": [str(x) for x in theta], "thetastar": [str(x) for x in thetastar],
           "report": verify_td_system(a, astar, theta, thetastar).to_json()}
    if direct:
        tds = TDSystem(a, astar, tuple(theta), tuple(thetastar), (), ())
    else:
        try:
            tds = TDSystem.from_matrices(a, astar, theta, thetastar)
        except ValueError:
            tds = None
    doc["system"] = None if tds is None else system_doc(tds)
    if direct:
        doc["direct"] = True
    return doc


def compute():
    """Every pin, recomputed from its seed."""
    pins = [pin(*case) for case in cases()]
    for tds in direct_systems():
        pins.append(pin(tds.field, tds.A, tds.Astar, tds.theta, tds.thetastar, True))
    return pins


def main() -> None:
    pins = compute()
    PATH.write_text(dumps(pins))
    kinds = Counter()
    for p in pins:
        r = p["report"]
        tri = r["tridiagonal_AstarE"] and r["tridiagonal_AEstar"]
        kinds[(tri, r["irreducible"], str(r["shape"]),
               None if p["system"] is None else str(p["system"]["shape"]))] += 1
    print(len(pins), "pins")
    for k, n in sorted(kinds.items(), key=str):
        print(" tridiagonal=%s irreducible=%s shape=%s system_shape=%s:" % k, n)


if __name__ == "__main__":
    main()
