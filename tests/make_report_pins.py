"""Write tests/data/report_pins.json and count its exit codes.

    PYTHONPATH=src python tests/make_report_pins.py

Each pin is a seeded parameter array, the exit code of
`tdpair121 report <array> --full`, and the sha256 of its stdout.  The
arrays come PER_FIELD to a field, over QQ, GF(101) and GF(2^61 - 1), in
three kinds cycled by index:

  0, 1  an admissible array (exit 0, every matrix embedded);
  2     an inadmissible one (exit 2), with one defect in turn: theta[2]
        equal to theta[0] (derived parameters undefined), phi zero, or
        split scalars with varphi equal to varphi1 * varphi2.

Over QQ the first WIDE_QQ arrays have numerators and denominators of up
to WIDE_BITS bits, and the others the small entries of the acceptance
suite.  Over GF(p) the entries are uniform residues.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from tdpair121 import Field, ParameterArray, QQ, admissible
from tdpair121.cli import main

PATH = Path(__file__).parent / "data" / "report_pins.json"
PRIMES = (101, 2 ** 61 - 1)
PER_FIELD = 20
WIDE_QQ = 6
WIDE_BITS = 100
KINDS = 3


def dumps(pins) -> str:
    """The file text: one pin per line."""
    return "[\n" + ",\n".join(json.dumps(pin, sort_keys=True) for pin in pins) + "\n]\n"


def _scalar(rng, field, bits):
    if field.p:
        return rng.randrange(field.p)
    if bits:
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))


def array(rng, field, kind, bits, defect=0) -> ParameterArray:
    """An admissible array for kinds 0 and 1; for kind 2 an admissible
    draw with the given defect (0, 1 or 2) put in."""
    while True:
        vals = [field(_scalar(rng, field, bits)) for _ in range(8)]
        theta, thetastar = tuple(vals[0:3]), tuple(vals[3:6])
        pa = ParameterArray(field, theta, thetastar, vals[6], vals[7])
        if not admissible(pa).ok:
            continue
        if kind != 2:
            return pa
        if defect == 0:
            return ParameterArray(field, (vals[0], vals[1], vals[0]), thetastar, vals[6], vals[7])
        if defect == 1:
            return ParameterArray(field, theta, thetastar, vals[6], field.zero)
        return _boundary(pa, field(_scalar(rng, field, bits)))


def _boundary(pa: ParameterArray, delta) -> ParameterArray:
    """pa with its split scalars replaced so that varphi equals
    varphi1 * varphi2 (condition (iii) fails): with a and b the products
    of the first and of the last eigenvalue differences, varphi is
    (delta - a)(delta - b) and phi is varphi + delta (t0 - t2)(s0 - s2)."""
    (t0, t1, t2), (s0, s1, s2) = pa.theta, pa.thetastar
    a, b = (t0 - t1) * (s0 - s1), (t1 - t2) * (s1 - s2)
    varphi = (delta - a) * (delta - b)
    phi = varphi + delta * (t0 - t2) * (s0 - s2)
    return ParameterArray(pa.field, pa.theta, pa.thetastar, varphi, phi)


def cases():
    """Every seeded array, in file order."""
    out = []
    for field in [QQ] + [Field(p) for p in PRIMES]:
        for i in range(PER_FIELD):
            rng = random.Random(f"report-pin:{field.p}:{i}")
            bits = WIDE_BITS if field is QQ and i < WIDE_QQ else 0
            out.append(array(rng, field, i % KINDS, bits, i // KINDS % 3))
    return out


def report_full(doc: dict, workdir: str):
    """(exit code, stdout) of `report --full` on the array document."""
    path = Path(workdir) / "pa.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["report", str(path), "--full"])
    return code, buf.getvalue()


def pin(doc: dict, workdir: str) -> dict:
    code, out = report_full(doc, workdir)
    return {"array": doc, "exit": code,
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


def compute():
    """Every pin, recomputed from its seed."""
    with tempfile.TemporaryDirectory() as workdir:
        return [pin(pa.to_json(), workdir) for pa in cases()]


def main_() -> None:
    pins = compute()
    PATH.write_text(dumps(pins))
    print(len(pins), "pins")
    for (kind, code), n in sorted(Counter((p["array"]["field"]["kind"], p["exit"])
                                          for p in pins).items()):
        print(f" field={kind} exit={code}:", n)


if __name__ == "__main__":
    main_()
