"""The four workloads: seeded inputs, one operation each, independent checks.

Raw inputs are plain ints (residues) and Fractions drawn from a seeded
`random.Random`; only the generated inputs reach the program.  Expected
answers come from `tests/oracle.py` and from small routines in this file
that never import the package, so a wrong answer from the package cannot
also be the reference.

Every workload exposes `cycle` (input classes repeat with this period),
`pool_size`, `reuses_inputs`, and:
  raw_inputs(stream, start, count) seeded raw inputs, no package code
  build(api, raws)                 inputs through the public API (set-up)
  reference(raw)                   expected answer, outside every timer
  run(api, item)                   one operation (timed)
  check(result, ref)               raise Failure on any disagreement
  operands(api, inputs)            matrices for the scalar micro-timings
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

MIN_OPS = 100  # latency_p90_ms needs ten samples beyond it


class Failure(Exception):
    """An operation whose output disagrees with the independent check."""


def child_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("TDP_MAX_GRID", None)
    return env


def load_oracle(root: str):
    path = os.path.join(root, "tests", "oracle.py")
    spec = importlib.util.spec_from_file_location("tdp_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- raw scalars and arrays ------------------------------------------------------
# A raw array is (p, theta, thetastar, varphi, phi) with p == 0 for QQ.

def acceptance_scalar(rng, p):
    """The acceptance-suite distribution (tests/conftest.py)."""
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))


def residue(rng, p):
    return rng.randrange(p)


def _distinct3(rng, p, draw):
    out = []
    while len(out) < 3:
        x = draw(rng, p)
        if x not in out:
            out.append(x)
    return tuple(out)


def oracle_derived(oracle, raw):
    p, theta, thetastar, varphi, phi = raw
    if p:
        return oracle.derived_formulas_mod(p, theta, thetastar, varphi, phi)
    return oracle.derived_formulas(theta, thetastar, varphi, phi)


def oracle_admissible(oracle, raw) -> bool:
    """The three-part criterion, decided with the oracle's formulas."""
    p, theta, thetastar, varphi, phi = raw
    if len(set(theta)) < 3 or len(set(thetastar)) < 3 or varphi == 0 or phi == 0:
        return False
    vp1, vp2, _, _ = oracle_derived(oracle, raw)
    prod = vp1 * vp2 % p if p else vp1 * vp2
    return prod != varphi


def random_admissible(rng, p, draw, oracle):
    while True:
        vals = [draw(rng, p) for _ in range(8)]
        raw = (p, tuple(vals[0:3]), tuple(vals[3:6]), vals[6], vals[7])
        if oracle_admissible(oracle, raw):
            return raw


def random_generic(rng, p, draw):
    """Distinct eigenvalues and nonzero split scalars; condition (iii) is
    left to chance (it fails with probability about 1/p), and the
    reference decides the expected verdict either way."""
    while True:
        raw = (p, _distinct3(rng, p, draw), _distinct3(rng, p, draw),
               draw(rng, p), draw(rng, p))
        if raw[3] != 0 and raw[4] != 0:
            return raw


def random_boundary(rng, p, draw):
    """Distinct eigenvalues, nonzero split scalars, and varphi equal to
    varphi1 * varphi2 by construction: reducible, with a common eigenvector."""
    while True:
        theta, thetastar = _distinct3(rng, p, draw), _distinct3(rng, p, draw)
        delta = draw(rng, p)
        a = (theta[0] - theta[1]) * (thetastar[0] - thetastar[1])
        b = (theta[1] - theta[2]) * (thetastar[1] - thetastar[2])
        varphi = (delta - a) * (delta - b)
        phi = varphi + delta * (theta[0] - theta[2]) * (thetastar[0] - thetastar[2])
        if p:
            varphi, phi = varphi % p, phi % p
        if varphi != 0 and phi != 0:
            return (p, theta, thetastar, varphi, phi)


def make_array(api, fields, raw):
    p, theta, thetastar, varphi, phi = raw
    return api.ParameterArray.make(fields[p], theta, thetastar, varphi, phi)


def make_fields(api, primes):
    return {0: api.QQ, **{p: api.Field(p) for p in primes}}


# -- independent exact linear algebra on raw values -------------------------------

def _reduce(x, p):
    return x % p if p else x


def canonical_raw(raw, derived):
    """The canonical matrix pair, transcribed from the construction with
    the oracle's derived parameters."""
    p, (t0, t1, t2), (s0, s1, s2), varphi, _ = raw
    vp1, vp2 = derived[0], derived[1]
    a = [[t0, 0, 0, 0], [1, t1, 0, 0], [0, 0, t1, 0], [0, 1, vp2, t2]]
    astar = [[s0, vp1, varphi, 0], [0, s1, 0, 0], [0, 0, s1, 1], [0, 0, 0, s2]]
    norm = (lambda m: [[_reduce(x, p) for x in r] for r in m]) if p else (
        lambda m: [[Fraction(x) for x in r] for r in m])
    return norm(a), norm(astar)


def raw_rank(rows, p) -> int:
    work = [[_reduce(Fraction(x) if not p else x, p) for x in r] for r in rows]
    rank, ncols = 0, len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p) if p else 1 / work[rank][c]
        work[rank] = [_reduce(x * inv, p) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c]
                work[i] = [_reduce(x - f * y, p) for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def raw_apply(m, v, p):
    return [_reduce(sum(m[i][j] * v[j] for j in range(4)), p) for i in range(4)]


def vals(matrix):
    return [[x.val for x in row] for row in matrix.rows]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failure(what)


# -- battery_qq / battery_gf101 ---------------------------------------------------

class Battery:
    """Full pipeline on a fresh admissible array: construct, verify, chain
    vectors, 12 representation and 30 transition matrices against their
    closed forms, and extraction."""

    cycle = 1
    reuses_inputs = False

    def __init__(self, name, p, oracle):
        self.name, self.p, self.oracle = name, p, oracle
        self.pool_size = 300 if p == 0 else 600

    def raw_inputs(self, stream, start, count):
        out = []
        for i in range(start, start + count):
            rng = random.Random(f"{self.name}:{stream}:{i}")
            out.append(random_admissible(rng, self.p, acceptance_scalar, self.oracle))
        return out

    def build(self, api, raws):
        self.fields = make_fields(api, [self.p] if self.p else [])
        return [make_array(api, self.fields, raw) for raw in raws]

    def reference(self, raw):
        derived = oracle_derived(self.oracle, raw)
        return {"raw": raw, "derived": derived, "canonical": canonical_raw(raw, derived)}

    def run(self, api, pa):
        tds = api.construct(pa)
        report = api.verify_td_system(tds.A, tds.Astar, tds.theta, tds.thetastar)
        eta = api.eta_vectors(tds)
        reps, mismatches = {}, 0
        for basis in api.BasisId:
            for which in ("A", "Astar"):
                numeric = api.represent(tds, which, basis, eta)
                if numeric != api.represent_formula(pa, which, basis):
                    mismatches += 1
                reps[which, basis.value] = numeric
        for frm in api.BasisId:
            for to in api.BasisId:
                if frm is not to and (api.transition_numeric(tds, frm, to, eta)
                                      != api.transition_formula(pa, frm, to)):
                    mismatches += 1
        extracted = api.extract_parameter_array(tds)
        return tds, report, reps, mismatches, extracted

    def check(self, result, ref):
        tds, report, reps, mismatches, extracted = result
        _, theta, thetastar, varphi, phi = ref["raw"]
        a, astar = ref["canonical"]
        expect(report.overall and report.shape == (1, 2, 1), "verification failed")
        expect(mismatches == 0, f"cross_check false on {mismatches} of 42 matrices")
        expect(vals(tds.A) == a and vals(tds.Astar) == astar,
               "constructed matrices differ from the canonical transcription")
        t0, t1, t2 = theta
        s0, s1, s2 = thetastar
        diag = lambda d: [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]
        expect(vals(reps["A", "EigA"]) == diag((t0, t1, t1, t2)), "A not diagonal in EigA")
        expect(vals(reps["Astar", "EigAstar"]) == diag((s0, s1, s1, s2)),
               "Astar not diagonal in EigAstar")
        expect(vals(reps["A", "SplitZD"]) == a and vals(reps["Astar", "SplitZD"]) == astar,
               "split representation differs from the oracle's derived parameters")
        ex = extracted
        got = ([x.val for x in ex.theta], [x.val for x in ex.thetastar],
               ex.varphi.val, ex.phi.val)
        expect(got == (list(theta), list(thetastar), varphi, phi),
               "extraction does not round-trip")

    def operands(self, api, inputs):
        """Matrices whose entries the scalar micro-timings draw from."""
        out = []
        for _, pa in inputs:
            tds = api.construct(pa)
            out += [tds.A, tds.Astar, *tds.E, *tds.Estar]
        return out


# -- verify_wide --------------------------------------------------------------------

VERIFY_P = 10007
# One cycle: three admissible pairs and one boundary pair over GF(10007).
VERIFY_CYCLE = (False, False, False, True)


class VerifyWide:
    """verify_td_system on pre-built matrix pairs over a large prime field."""

    name = "verify_wide"
    cycle = len(VERIFY_CYCLE)
    pool_size = 400
    reuses_inputs = False

    def __init__(self, oracle):
        self.oracle = oracle

    def raw_inputs(self, stream, start, count):
        out = []
        for i in range(start, start + count):
            rng = random.Random(f"{self.name}:{stream}:{i}")
            gen = random_boundary if VERIFY_CYCLE[i % self.cycle] else random_generic
            out.append(gen(rng, VERIFY_P, residue))
        return out

    def build(self, api, raws):
        self.fields = make_fields(api, [VERIFY_P])
        out = []
        for raw in raws:
            pa = make_array(api, self.fields, raw)
            a, astar = api.canonical_matrices(pa)
            out.append((a, astar, pa.theta, pa.thetastar))
        return out

    def reference(self, raw):
        derived = oracle_derived(self.oracle, raw)
        return {"raw": raw, "admissible": oracle_admissible(self.oracle, raw),
                "canonical": canonical_raw(raw, derived)}

    def run(self, api, item):
        return api.verify_td_system(*item)

    def check(self, report, ref):
        p = ref["raw"][0]
        expect(report.diagonalizable_a and report.diagonalizable_astar,
               "diagonalizability not detected")
        expect(report.tridiagonal_astar_e and report.tridiagonal_a_estar,
               "tridiagonality not detected")
        if ref["admissible"]:
            expect(report.overall and report.shape == (1, 2, 1) and report.witness is None,
                   "admissible pair not verified irreducible of shape (1,2,1)")
            return
        expect(not report.irreducible and report.witness is not None,
               "boundary pair not reported reducible with a witness")
        basis = [[x.val for x in v] for v in report.witness.basis]
        dim = raw_rank(basis, p)
        expect(0 < dim < 4 and dim == len(basis), "witness is not a proper subspace")
        for m in ref["canonical"]:
            for v in basis:
                expect(raw_rank(basis + [raw_apply(m, v, p)], p) == dim,
                       "witness is not invariant")

    def operands(self, api, inputs):
        out = []
        for _, (a, astar, theta, thetastar) in inputs:
            out += [a, astar, *api.primitive_idempotents(a, theta),
                    *api.primitive_idempotents(astar, thetastar)]
        return out


# -- cli_mix ------------------------------------------------------------------------

CLI_P = 101
CLI_MIX = (  # (input key, subcommand metric)
    ("report_full_qq", "report_full"),
    ("report_full_gf", "report_full"),
    ("verify_qq", "verify"),
    ("verify_gf", "verify"),
    ("verify_search_qq", "verify_search"),
    ("construct_gf", "construct"),
    ("enumerate", "enumerate"),
)
ENUM_P = 5
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


class CliMix:
    """One `python -m tdpair121 ...` process per operation, rotating
    through a fixed mix of subcommands on seeded input files."""

    name = "cli_mix"
    cycle = len(CLI_MIX)
    pool_size = cycle
    reuses_inputs = True  # each command repeats, so its stdout can be compared

    def __init__(self, oracle, root, workdir):
        self.oracle, self.root, self.workdir = oracle, root, workdir
        self.first_stdout = {}

    def raw_inputs(self, stream, start, count):
        rng = random.Random(f"{self.name}:{stream}")
        arrays = {
            "report_full_qq": random_admissible(rng, 0, acceptance_scalar, self.oracle),
            "report_full_gf": random_admissible(rng, CLI_P, acceptance_scalar, self.oracle),
            "verify_qq": random_admissible(rng, 0, acceptance_scalar, self.oracle),
            "verify_gf": random_admissible(rng, CLI_P, acceptance_scalar, self.oracle),
            "verify_search_qq": random_admissible(rng, 0, acceptance_scalar, self.oracle),
            "construct_gf": random_admissible(rng, CLI_P, acceptance_scalar, self.oracle),
            "enumerate": None,
        }
        return [(key, arrays[key]) for key, _ in CLI_MIX][start:start + count]

    def build(self, api, raws):
        """Write each input file; systems for `verify` come from `construct`."""
        os.makedirs(self.workdir, exist_ok=True)
        fields = make_fields(api, [CLI_P])
        items = []
        for key, raw in raws:
            if raw is None:
                items.append((key, ["enumerate", "--p", str(ENUM_P), "--orbits"]))
                continue
            pa = make_array(api, fields, raw)
            path = os.path.join(self.workdir, f"{key}.json")
            if key.startswith("verify"):
                doc = api.construct(pa).to_json()
                if key.startswith("verify_search"):
                    del doc["theta"], doc["thetastar"]
                argv = ["verify", path]
            elif key.startswith("report"):
                doc, argv = pa.to_json(), ["report", "--full", path]
            else:
                doc, argv = pa.to_json(), ["construct", path]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            items.append((key, argv))
        return items

    def reference(self, raw_item):
        key, raw = raw_item
        if raw is None:
            count_i, count_i_ii, adm = self.oracle.enumerate_arrays_mod(ENUM_P)
            n_orbits, sizes = self.oracle.d4_orbit_stats(adm)
            return {"key": key, "doc": {
                "p": ENUM_P, "pass_i": count_i, "pass_i_ii": count_i_ii,
                "admissible": len(adm),
                "orbits": {"count": n_orbits,
                           "sizes": {str(k): v for k, v in sorted(sizes.items())}}}}
        derived = oracle_derived(self.oracle, raw)
        return {"key": key, "raw": raw, "derived": derived,
                "canonical": canonical_raw(raw, derived)}

    def operands(self, api, inputs):
        fields = make_fields(api, [CLI_P])
        out = []
        for (_, raw), _ in inputs:
            if raw is not None:
                tds = api.construct(make_array(api, fields, raw))
                out += [tds.A, tds.Astar, *tds.E, *tds.Estar]
        return out

    def run(self, api, item, summary=None, keep_spans=False):
        """One child process, run to completion; returns (exit code, stdout,
        max RSS in KiB, seconds).  Traced through cli_child.py when
        `summary` names the file it writes its span summary to."""
        _, argv = item
        cmd = [sys.executable, "-m", "tdpair121"]
        if summary:
            cmd = [sys.executable, CLI_CHILD, summary] + (["--spans"] if keep_spans else [])
        with open(os.path.join(self.workdir, "child.stderr"), "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd + argv, cwd=self.root, env=child_env(self.root),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err)
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 rather than wait: it returns this child's own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss, elapsed

    def check(self, result, ref):
        code, out, _, _ = result
        key = ref["key"]
        expect(code == 0, f"{key}: exit code {code}")
        first = self.first_stdout.setdefault(key, out)
        expect(out == first, f"{key}: stdout differs from the first run")
        doc = json.loads(out)
        if key == "enumerate":
            expect(doc == ref["doc"], "enumerate counts differ from the oracle")
            return
        p, theta, thetastar, varphi, phi = ref["raw"]
        s = lambda x: str(_reduce(x, p) if p else Fraction(x))
        strs = lambda seq: [s(x) for x in seq]
        grid = lambda m: [strs(r) for r in m]
        a, astar = ref["canonical"]
        if key.startswith("report"):
            expect(doc["parameter_array"]["theta"] == strs(theta)
                   and doc["parameter_array"]["varphi"] == s(varphi), f"{key}: echo differs")
            names = ("varphi1", "varphi2", "phi1", "phi2")
            expect(doc["derived_params"] == dict(zip(names, strs(ref["derived"]))),
                   f"{key}: derived parameters differ from the oracle")
            expect(doc["cross_check"] is True, f"{key}: cross_check false")
            expect(doc["verification"]["overall"] is True, f"{key}: not verified")
            expect(doc["representations"]["A"]["SplitZD"] == grid(a)
                   and doc["representations"]["Astar"]["SplitZD"] == grid(astar),
                   f"{key}: split representation differs from the oracle")
            expect(len(doc["transitions"]) == 30, f"{key}: missing transitions")
        elif key.startswith("construct"):
            expect(doc["A"] == grid(a) and doc["Astar"] == grid(astar)
                   and doc["theta"] == strs(theta) and doc["thetastar"] == strs(thetastar),
                   f"{key}: constructed system differs from the canonical transcription")
        else:
            ver = doc["verification"]
            expect(ver["overall"] is True and ver["shape"] == [1, 2, 1],
                   f"{key}: not verified with shape (1,2,1)")
            if key.startswith("verify_search"):
                # the standard ordering is unique up to inversion
                expect(doc["orderings_found"] == 4
                       and doc["theta"] in (strs(theta), strs(theta[::-1]))
                       and doc["thetastar"] in (strs(thetastar), strs(thetastar[::-1])),
                       f"{key}: ordering search found {doc['orderings_found']}")
