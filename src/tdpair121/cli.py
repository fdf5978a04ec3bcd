"""Command-line front end: report, verify, construct, enumerate.

Exit codes: 0 success, 1 usage, I/O or parse errors, 2 inadmissible
parameter array, 3 verification failure.  All JSON output has sorted keys
and fixed array ordering, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bases import (
    BasisId,
    basis_matrix,
    represent,
    represent_formula,
    transition_formula,
    transition_numeric,
)
from .fields import Field, _is_prime
from .linalg import Matrix
from .params import ParameterArray, _enumerate_counts, _require_admissible, construct
from .tdsystem import _undiagonalizable, _verify_unordered, verify_td_system

EXIT_OK = 0
EXIT_IO = 1
EXIT_INADMISSIBLE = 2
EXIT_UNVERIFIED = 3

DEFAULT_MAX_PRIME = 7


# what reading and parsing an input file can raise on malformed input
_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, ZeroDivisionError)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None


def _emit(doc: dict, out: str | None, code: int) -> int:
    """Write doc to the file out, or to stdout; returns code, or the I/O
    exit code when out cannot be written."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail_io(str(exc))
    else:
        sys.stdout.write(text)
    return code


def _fail_io(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_IO


def cmd_report(args) -> int:
    try:
        pa = ParameterArray.from_json(_load_json(args.parameter_array))
    except _PARSE_ERRORS as exc:
        return _fail_io(str(exc))

    report = pa._admissibility
    doc: dict = {
        "parameter_array": pa.to_json(),
        "admissibility": report.to_json(),
    }
    try:
        doc["derived_params"] = pa._derived.to_json()
    except ValueError:
        doc["derived_params"] = None

    if not report.ok:
        return _emit(doc, args.out, EXIT_INADMISSIBLE)

    tds = construct(pa)
    verification = verify_td_system(tds.A, tds.Astar, tds.theta, tds.thetastar)
    doc["verification"] = verification.to_json()

    failures = []
    reps = {}
    for basis in BasisId:
        for which in ("A", "Astar"):
            numeric = reps[which, basis] = represent(tds, which, basis)
            if numeric != represent_formula(pa, which, basis):
                failures.append(f"represent {which} {basis.value}")
    trans = []
    for frm in BasisId:
        for to in BasisId:
            if frm is to:
                continue
            numeric = transition_numeric(tds, frm, to)
            if numeric != transition_formula(pa, frm, to):
                failures.append(f"transition {frm.value}->{to.value}")
            trans.append((frm, to, numeric))
    cross = not failures
    doc["cross_check"] = cross
    if failures:
        doc["cross_check_failures"] = sorted(failures)
    if args.full:
        doc["bases"] = {b.value: basis_matrix(tds, b).to_json() for b in BasisId}
        doc["representations"] = {which: {b.value: reps[which, b].to_json() for b in BasisId}
                                  for which in ("A", "Astar")}
        doc["transitions"] = [{"from": frm.value, "to": to.value, "matrix": m.to_json()}
                              for frm, to, m in trans]

    return _emit(doc, args.out, EXIT_OK if cross and verification.overall else EXIT_UNVERIFIED)


def _elements(field: Field, value, shape: tuple, key: str):
    """Parse a list (shape (n,)) or a matrix (shape (n, m)) of element strings."""
    def fits(v, dims):
        return not dims or (isinstance(v, list) and len(v) == dims[0]
                            and all(fits(x, dims[1:]) for x in v))

    if not fits(value, shape):
        raise ValueError(f"{key} must be a list of {' lists of '.join(map(str, shape))} "
                         "element strings")
    return Matrix.from_json(field, value) if len(shape) == 2 else [field.parse(s) for s in value]


def cmd_verify(args) -> int:
    try:
        data = _load_json(args.system)
        if not isinstance(data, dict) or not isinstance(data.get("field"), dict):
            raise ValueError("a system file is a JSON object with a field object")
        field = Field.from_json(data["field"])
        a = _elements(field, data["A"], (4, 4), "A")
        astar = _elements(field, data["Astar"], (4, 4), "Astar")
        theta, thetastar = (_elements(field, data[k], (3,), k) if k in data else None
                            for k in ("theta", "thetastar"))
    except _PARSE_ERRORS as exc:
        return _fail_io(str(exc))

    doc: dict = {}
    if theta is not None and thetastar is not None:
        report = verify_td_system(a, astar, theta, thetastar)
    else:
        try:
            doc["orderings_found"], theta, thetastar, report = _verify_unordered(a, astar)
        except ValueError as exc:
            doc.update(orderings_found=0, reason=str(exc))
            report = _undiagonalizable(False, False)
        else:
            doc["theta"] = [str(x) for x in theta]
            doc["thetastar"] = [str(x) for x in thetastar]
    doc["verification"] = report.to_json()
    ok = report.overall and report.shape == (1, 2, 1)
    return _emit(doc, None, EXIT_OK if ok else EXIT_UNVERIFIED)


def cmd_construct(args) -> int:
    try:
        pa = ParameterArray.from_json(_load_json(args.parameter_array))
    except _PARSE_ERRORS as exc:
        return _fail_io(str(exc))
    try:
        _require_admissible(pa)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INADMISSIBLE
    return _emit(construct(pa).to_json(), args.out, EXIT_OK)


def cmd_enumerate(args) -> int:
    p = args.p
    try:
        prime = _is_prime(p)
    except ValueError as exc:
        return _fail_io(str(exc))
    if not prime:
        return _fail_io(f"{p} is not prime")
    max_p = DEFAULT_MAX_PRIME
    env = os.environ.get("TDP_MAX_GRID")
    if env is not None:
        try:
            max_p = int(env)
        except ValueError:
            return _fail_io(f"TDP_MAX_GRID must be an integer, got {env!r}")
    if p > max_p and not args.force:
        return _fail_io(
            f"grid of size {p}^8 exceeds the guard (p <= {max_p}); "
            "pass --force or raise TDP_MAX_GRID")
    return _emit(_enumerate_counts(p, args.orbits), None, EXIT_OK)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one "error:" line and exit 1, like any
    other unusable input; argparse's own exit code 2 is the CLI's code for
    an inadmissible parameter array.  Subparsers inherit the class."""

    def error(self, message):
        sys.exit(_fail_io(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdpair121",
        description="Exact construction, verification and analysis of "
                    "tridiagonal pairs of shape (1,2,1).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="full report for a parameter array file")
    p_report.add_argument("parameter_array", help="parameter array JSON file")
    p_report.add_argument("--full", action="store_true",
                          help="embed all basis/representation/transition matrices")
    p_report.add_argument("--out", help="write the report here instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_verify = sub.add_parser(
        "verify", help="verify the axioms for a matrix pair file")
    p_verify.add_argument("system", help="system JSON file with A, Astar, field")
    p_verify.set_defaults(func=cmd_verify)

    p_construct = sub.add_parser(
        "construct", help="build the canonical system for a parameter array")
    p_construct.add_argument("parameter_array", help="parameter array JSON file")
    p_construct.add_argument("--out", help="write the system here instead of stdout")
    p_construct.set_defaults(func=cmd_construct)

    p_enum = sub.add_parser(
        "enumerate", help="count admissible parameter arrays over GF(p)")
    p_enum.add_argument("--p", type=int, required=True, help="prime field size")
    p_enum.add_argument("--orbits", action="store_true",
                        help="also count dihedral orbits of the admissible set")
    p_enum.add_argument("--force", action="store_true",
                        help="ignore the grid-size guard")
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
