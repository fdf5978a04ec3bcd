"""Command-line front end: report, verify, construct, enumerate.

Exit codes: 0 success, 1 usage, I/O or parse errors, 2 inadmissible
parameter array, 3 verification failure.  All JSON output has sorted keys
and fixed array ordering, so identical inputs give byte-identical output.

Each process runs one subcommand, so each `cmd_*` imports the modules it
runs and the top of this module imports `fields` alone: `report` loads
every module, `verify` `linalg` and `tdsystem`, `construct` `params`
(with what it imports, but not `bases`), and `enumerate`, which evaluates
integer polynomials, nothing more.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fields import Field, _is_prime

EXIT_OK = 0
EXIT_IO = 1
EXIT_INADMISSIBLE = 2
EXIT_UNVERIFIED = 3

DEFAULT_MAX_PRIME = 7


# what reading and parsing an input file can raise on malformed input
_PARSE_ERRORS = (OSError, ValueError, TypeError, ZeroDivisionError)


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
    from .bases import (
        BasisId,
        basis_matrix,
        represent,
        represent_formula,
        transition_formula,
        transition_numeric,
    )
    from .params import ParameterArray, construct
    from .tdsystem import verify_td_system

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
    from .linalg import Matrix

    def fits(v, dims):
        return not dims or (isinstance(v, list) and len(v) == dims[0]
                            and all(fits(x, dims[1:]) for x in v))

    if not fits(value, shape):
        raise ValueError(f"{key} must be a list of {' lists of '.join(map(str, shape))} "
                         "element strings")
    return Matrix.from_json(field, value) if len(shape) == 2 else [field.parse(s) for s in value]


def cmd_verify(args) -> int:
    from .linalg import eigen_data
    from .tdsystem import _undiagonalizable, find_td_orderings, verify_td_system

    try:
        data = _load_json(args.system)
        if not isinstance(data, dict) or not isinstance(data.get("field"), dict):
            raise ValueError("a system file is a JSON object with a field object")
        for key in ("A", "Astar"):
            if key not in data:
                raise ValueError(f"a system file needs the key {key!r}")
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
            orderings = find_td_orderings(a, astar)
        except ValueError as exc:
            doc.update(orderings_found=0, reason=str(exc))
            report = _undiagonalizable(False, False)
        else:  # verify_td_system relabels the frames the search kept
            theta, thetastar = orderings[0] if orderings else (
                eigen_data(a).eigenvalues, eigen_data(astar).eigenvalues)
            doc.update(orderings_found=len(orderings), theta=[str(x) for x in theta],
                       thetastar=[str(x) for x in thetastar])
            report = verify_td_system(a, astar, theta, thetastar)
    doc["verification"] = report.to_json()
    ok = report.overall and report.shape == (1, 2, 1)
    return _emit(doc, None, EXIT_OK if ok else EXIT_UNVERIFIED)


def cmd_construct(args) -> int:
    from .params import ParameterArray, _require_admissible, construct

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


def _enumerate_counts(p: int, orbits: bool) -> dict:
    """Counts over GF(p), p prime, of the arrays passing (i), (i) and (ii),
    and all three conditions; with `orbits`, the admissible ones' orbits.

    Admissible count.  A triple passing (i) is t1 + (a, 0, -b) with
    a = t0-t1, b = t1-t2 and a, b, a+b nonzero: n = p(p-1)(p-2) triples.
    For theta, thetastar passing (i), `derived_params` gives varphi1 =
    d - aa* and varphi2 = d - bb*, with d = (phi - varphi)/den and
    den = (a+b)(a*+b*).  So a nonzero (varphi, phi) fails (iii) exactly
    when varphi = (d - aa*)(d - bb*).  Each d gives one such pair, with
    phi = varphi + d*den = (d + ab*)(d + a*b), and it is nonzero unless d
    is one of aa*, bb*, -ab*, -a*b.  As a, b, a+b and the starred values
    are nonzero, these four can coincide only as aa* = bb* or ab* = a*b.
    Given (a, b), each equation fixes a* for every b* != 0, with a* and
    a*+b* nonzero: (p-1)^2 (p-2) solutions (a, b, a*, b*), times p^2
    translations.  Each of the n^2 pairs of triples thus has
    (p-1)^2 - p + 4 - [aa* = bb*] - [ab* = a*b] admissible (varphi, phi):

        N = p^2 (p-1)^2 (p-2) (p^3 - 5p^2 + 11p - 12).

    Orbits.  The admissible arrays form a union of orbits: (i) and (ii)
    are plainly invariant, `*` fixes varphi, varphi1 and varphi2, and `d`,
    `D` exchange varphi - varphi1*varphi2 with phi - phi1*phi2, which are
    equal (expand with phi1 = d + (t1-t2)(s0-s1), phi2 = d + (t0-t1)(s1-s2)
    and phi - varphi = d*den).  Write the eight group elements as
    d^a D^b *^c.  Those with c = 0 reverse theta, thetastar or both, and a
    triple of distinct values is never its own reverse, so none but the
    identity fixes an array.  Of those with c = 1, `*` fixes exactly the
    arrays with thetastar = theta, and `dD*` those with thetastar = theta
    reversed, whatever (varphi, phi); `d*` and `D*` square to dD, so a
    fixed point of theirs would be one of dD.  A stabilizer holding both
    `*` and `dD*` would hold their product dD.  So every stabilizer has
    order 1 or 2, every orbit has 8 or 4 arrays, and the arrays in orbits
    of size 4 are exactly the N4 admissible arrays with thetastar equal to
    theta or to theta reversed.  Of the N admissible arrays, N4/4 orbits
    have size 4 and (N - N4)/8 have size 8.  thetastar = theta gives
    (a*, b*) = (a, b), so ab* = a*b, and aa* = bb* iff a = b; theta
    reversed gives (a*, b*) = (-b, -a), the same the other way round.  For
    odd p, a = b on p(p-1) triples, so N4 = 2(n(p^2 - 3p + 4) - p(p-1)) =
    2p(p-1)((p-2)(p^2 - 3p + 4) - 1); for p = 2 no triple passes (i).
    """
    n = p * (p - 1) * (p - 2)
    total = p * p * (p - 1) ** 2 * (p - 2) * (p ** 3 - 5 * p * p + 11 * p - 12)
    result = {"p": p, "pass_i": n * n * p * p, "pass_i_ii": n * n * (p - 1) ** 2,
              "admissible": total}
    if orbits:
        fixed = 2 * p * (p - 1) * ((p - 2) * (p * p - 3 * p + 4) - 1) if p > 2 else 0
        sizes = {4: fixed // 4, 8: (total - fixed) // 8}
        result["orbits"] = {"count": sum(sizes.values()),
                            "sizes": {str(k): v for k, v in sizes.items() if v}}
    return result


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
