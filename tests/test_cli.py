import json
from pathlib import Path

import pytest

import oracle
from conftest import random_boundary_array
from make_report_pins import pin as report_pin
from tdpair121 import QQ, canonical_matrices
from tdpair121.cli import main


P0_DOC = {
    "field": {"kind": "Q"},
    "theta": ["1", "0", "-1"],
    "thetastar": ["1", "0", "-1"],
    "varphi": "2",
    "phi": "1",
}


@pytest.fixture
def p0_file(tmp_path):
    path = tmp_path / "p0.json"
    path.write_text(json.dumps(P0_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_report_worked_instance(capsys, p0_file):
    code, doc = run(capsys, "report", p0_file)
    assert code == 0
    assert doc["admissibility"] == {"ok": True, "failed": []}
    assert doc["derived_params"] == {
        "varphi1": "-5/4", "varphi2": "-5/4", "phi1": "3/4", "phi2": "3/4"}
    assert doc["cross_check"] is True
    assert doc["verification"]["overall"] is True
    assert doc["verification"]["shape"] == [1, 2, 1]
    assert "bases" not in doc


def test_report_full_embeds_matrices(capsys, p0_file):
    code, doc = run(capsys, "report", p0_file, "--full")
    assert code == 0
    assert set(doc["bases"]) == {
        "SplitZD", "SplitZZ", "SplitDZ", "SplitDD", "EigA", "EigAstar"}
    assert len(doc["transitions"]) == 30
    assert set(doc["representations"]) == {"A", "Astar"}
    assert doc["representations"]["A"]["SplitZD"] == [
        ["1", "0", "0", "0"], ["1", "0", "0", "0"],
        ["0", "0", "0", "0"], ["0", "1", "-5/4", "-1"]]


def test_report_prime_field_array(capsys, tmp_path):
    # the worked instance reduced mod 13: -5/4 = 2 and 3/4 = 4 there
    doc = {
        "field": {"kind": "Fp", "p": 13},
        "theta": ["1", "0", "12"],
        "thetastar": ["1", "0", "12"],
        "varphi": "2",
        "phi": "1",
    }
    path = tmp_path / "p0mod13.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "report", str(path))
    assert code == 0
    assert out["derived_params"] == {
        "varphi1": "2", "varphi2": "2", "phi1": "4", "phi2": "4"}
    assert out["cross_check"] is True
    assert out["verification"]["shape"] == [1, 2, 1]


def test_report_inadmissible_exit_2(capsys, tmp_path):
    doc = dict(P0_DOC, theta=["1", "1", "-1"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "report", str(path))
    assert code == 2
    assert out["admissibility"] == {"ok": False, "failed": ["(i)"]}


def test_report_missing_file_exit_1(capsys, tmp_path):
    code = main(["report", str(tmp_path / "nope.json")])
    assert code == 1


def test_report_malformed_json_exit_1(capsys, tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    assert main(["report", str(path)]) == 1


def test_report_unknown_field_exit_1(capsys, tmp_path):
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(dict(P0_DOC, field={"kind": "R"})))
    assert main(["report", str(path)]) == 1


def test_report_deterministic_bytes(tmp_path, p0_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["report", p0_file, "--full", "--out", str(out1)]) == 0
    assert main(["report", p0_file, "--full", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_names_the_matrices_that_fail_the_cross_check(capsys, monkeypatch, p0_file):
    # one perturbed transition table, then also one perturbed representation
    # table: exit 3, and cross_check_failures names exactly those matrices;
    # a passing report has no such key; cmd_report reads the tables from
    # bases when it runs, so they are perturbed there
    import tdpair121.bases as bases
    from tdpair121 import BasisId, Matrix

    code, doc = run(capsys, "report", p0_file)
    assert code == 0 and doc["cross_check"] is True
    assert "cross_check_failures" not in doc

    real = bases.transition_formula

    def perturbed(pa, frm, to):
        m = real(pa, frm, to)
        if (frm, to) == (BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ):
            return m + Matrix.identity(pa.field, 4)
        return m

    monkeypatch.setattr(bases, "transition_formula", perturbed)
    code, doc = run(capsys, "report", p0_file)
    assert code == 3
    assert doc["cross_check"] is False
    assert doc["cross_check_failures"] == ["transition SplitZD->SplitZZ"]

    real_rep = bases.represent_formula

    def perturbed_rep(pa, which, basis):
        m = real_rep(pa, which, basis)
        return m + Matrix.identity(pa.field, 4) if (which, basis) == ("Astar", BasisId.EIG_A) else m

    monkeypatch.setattr(bases, "represent_formula", perturbed_rep)
    code, doc = run(capsys, "report", p0_file)
    assert code == 3 and doc["cross_check"] is False
    assert doc["cross_check_failures"] == ["represent Astar EigA", "transition SplitZD->SplitZZ"]


def test_report_full_bytes_pinned(tmp_path):
    # exit code and sha256 of the stdout of `report --full` on 60 seeded
    # arrays, 20 each over QQ (6 with 100-bit entries), GF(101) and
    # GF(2^61 - 1), 18 of them inadmissible; written by make_report_pins.py
    # while the closed-form tables still ran on boxed field elements
    pins = json.loads((Path(__file__).parent / "data" / "report_pins.json").read_text())
    assert len(pins) == 60
    for p in pins:
        assert report_pin(p["array"], str(tmp_path)) == p


def test_construct_then_verify_pipeline(capsys, tmp_path, p0_file):
    sys_file = tmp_path / "sys.json"
    assert main(["construct", p0_file, "--out", str(sys_file)]) == 0
    capsys.readouterr()
    code, doc = run(capsys, "verify", str(sys_file))
    assert code == 0
    assert doc["verification"]["overall"] is True
    assert doc["verification"]["shape"] == [1, 2, 1]


def test_construct_inadmissible_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(P0_DOC, varphi="0")))
    assert main(["construct", str(path)]) == 2


def test_verify_without_orderings_searches(capsys, tmp_path, p0_file):
    sys_file = tmp_path / "sys.json"
    main(["construct", p0_file, "--out", str(sys_file)])
    capsys.readouterr()
    data = json.loads(sys_file.read_text())
    del data["theta"], data["thetastar"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    code, doc = run(capsys, "verify", str(bare))
    assert code == 0
    assert doc["orderings_found"] == oracle.P0_ORDERING_PAIR_COUNT
    assert doc["verification"]["shape"] == [1, 2, 1]


def test_verify_conjugated_system_without_orderings(capsys, tmp_path, rng):
    from conftest import random_admissible_array, random_invertible
    from tdpair121 import Matrix, construct
    pa = random_admissible_array(rng, QQ)
    sys_ = construct(pa)
    s = random_invertible(rng, QQ, Matrix)
    si = s.invert()
    path = tmp_path / "conj.json"
    path.write_text(json.dumps({
        "field": {"kind": "Q"},
        "A": (s * sys_.A * si).to_json(),
        "Astar": (s * sys_.Astar * si).to_json(),
    }))
    code, doc = run(capsys, "verify", str(path))
    assert code == 0
    assert doc["orderings_found"] == 4
    assert doc["verification"]["overall"] is True
    assert doc["verification"]["shape"] == [1, 2, 1]


def test_verify_without_orderings_on_seven_digit_eigenvalues_is_fast(tmp_path):
    # a bare QQ pair whose eigenvalues have seven digits; finding them by
    # trying every divisor of the characteristic polynomial's coefficients
    # ran past 20 s
    import os
    import subprocess
    import sys
    import time

    import tdpair121
    doc = dict(P0_DOC, theta=["1000003", "1000033", "1000037"],
               thetastar=["1000039", "1000081", "1000099"], varphi="1000117", phi="1000121")
    pa, system, bare = (tmp_path / name for name in ("pa.json", "sys.json", "bare.json"))
    pa.write_text(json.dumps(doc))
    assert main(["construct", str(pa), "--out", str(system)]) == 0
    data = json.loads(system.read_text())
    del data["theta"], data["thetastar"]
    bare.write_text(json.dumps(data))
    src = str(Path(tdpair121.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tdpair121", "verify", str(bare)],
                          capture_output=True, text=True, timeout=10, env=env)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["orderings_found"] == 4
    assert out["verification"]["overall"] is True
    assert out["verification"]["shape"] == [1, 2, 1]
    assert elapsed < 1.0


def test_verify_identity_pair_exit_3(capsys, tmp_path):
    eye = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
           ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    path = tmp_path / "eye.json"
    path.write_text(json.dumps({"field": {"kind": "Q"}, "A": eye, "Astar": eye}))
    code, doc = run(capsys, "verify", str(path))
    assert code == 3
    assert doc["orderings_found"] == 0
    assert doc["verification"]["overall"] is False


@pytest.mark.parametrize("p", [0, 7])
def test_verify_without_orderings_matches_library(capsys, tmp_path, rng, p):
    # verify without orderings runs find_td_orderings, then verify_td_system
    # on the first ordering found, or on eigen_data's order when none
    # passes; its document must be exactly what that pair gives
    from conftest import random_admissible_array, random_invertible, random_scalar
    from tdpair121 import Field, Matrix, eigen_data, find_td_orderings, verify_td_system
    field = Field(p) if p else QQ

    def conj(q, m):
        return q * m * q.invert()

    def diagonal_three_eigenvalues():
        while True:
            evs = [random_scalar(rng, field) for _ in range(3)]
            if len(set(evs)) == 3:
                return Matrix.diagonal(field, evs + [evs[rng.randrange(3)]])

    pairs = []
    for _ in range(3):
        q = random_invertible(rng, field, Matrix)
        a, astar = canonical_matrices(random_admissible_array(rng, field))
        pairs.append((conj(q, a), conj(q, astar)))
        pairs.append(tuple(conj(random_invertible(rng, field, Matrix), diagonal_three_eigenvalues())
                           for _ in range(2)))
    found = set()
    for a, astar in pairs:
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"field": field.to_json(),
                                    "A": a.to_json(), "Astar": astar.to_json()}))
        code, doc = run(capsys, "verify", str(path))
        orderings = find_td_orderings(a, astar)
        theta, thetastar = (orderings[0] if orderings
                            else (eigen_data(a).eigenvalues, eigen_data(astar).eigenvalues))
        report = verify_td_system(a, astar, theta, thetastar)
        assert doc == {"orderings_found": len(orderings),
                       "theta": [str(x) for x in theta],
                       "thetastar": [str(x) for x in thetastar],
                       "verification": report.to_json()}
        assert code == (0 if report.overall and report.shape == (1, 2, 1) else 3)
        found.add(bool(orderings))
    assert found == {True, False}


@pytest.mark.parametrize("p", [0, 101, 10007])
def test_verify_without_orderings_costs_one_spectral_decomposition(
        capsys, monkeypatch, tmp_path, rng, p):
    # the ordering search finds the roots of both charpolys and keeps the
    # frames of their eigen_data order: six eigenspaces, and P and P*
    # inverted, 8 eliminations in all; the verify on the first ordering
    # relabels those frames, so it adds no elimination, charpoly or root
    # finding to a fresh pair
    from conftest import random_admissible_array, random_invertible
    import tdpair121
    from tdpair121 import Field, Matrix, _poly, linalg
    field = Field(p) if p else QQ
    calls = []
    for module, name in ((linalg, "_rref"), (linalg, "_eigenspace"),
                         (_poly, "charpoly"), (_poly, "roots")):
        real = getattr(module, name)
        spy = lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args)
        for other in vars(tdpair121).values():
            if getattr(other, name, None) is real:
                monkeypatch.setattr(other, name, spy)
    q = random_invertible(rng, field, Matrix)
    qi = q.invert()
    a, astar = (qi * m * q for m in canonical_matrices(random_admissible_array(rng, field)))
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"field": field.to_json(),
                                "A": a.to_json(), "Astar": astar.to_json()}))
    calls.clear()
    code, doc = run(capsys, "verify", str(path))
    assert code == 0 and doc["orderings_found"] == 4
    assert sorted(calls) == sorted(["_rref"] * 8 + ["_eigenspace"] * 6
                                   + ["charpoly", "roots"] * 2), calls


EYE = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
EYE3 = [row[:3] for row in EYE[:3]]
ORDERS = {"theta": ["1", "0", "-1"], "thetastar": ["1", "0", "-1"]}


@pytest.mark.parametrize("doc", [
    {"field": {"kind": "Q"}, "A": EYE3, "Astar": EYE3, **ORDERS},
    {"field": {"kind": "Q"}, "A": EYE3, "Astar": EYE3},
    {"field": {"kind": "Q"}, "A": EYE, "Astar": EYE, "theta": ["1", "0"],
     "thetastar": ["1", "0", "-1"]},
    {"field": {"kind": "Q"}, "A": [[int(x) for x in row] for row in EYE], "Astar": EYE},
    [{"field": {"kind": "Q"}, "A": EYE, "Astar": EYE}],
    {"field": "Q", "A": EYE, "Astar": EYE},
    {"field": {"kind": "Q"}, "A": EYE, "Astar": EYE,
     "theta": ["1/0", "0", "-1"], "thetastar": ["1", "0", "-1"]},
], ids=["3x3", "3x3-no-orderings", "theta-length-2", "json-numbers", "top-level-array",
        "field-not-object", "zero-denominator"])
def test_verify_malformed_system_exit_1(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


MALFORMED_PARAMETER_FILES = {
    "string field descriptor": {**P0_DOC, "field": "Q"},
    "top-level array": [P0_DOC],
    "nested theta": {**P0_DOC, "theta": [["1"], "0", "-1"]},
    "string theta": {**P0_DOC, "theta": "102"},
    "zero denominator": {**P0_DOC, "varphi": "1/0"},
    "float split scalar": {**P0_DOC, "field": {"kind": "Fp", "p": 7}, "varphi": 2.5},
    "float characteristic": {**P0_DOC, "field": {"kind": "Fp", "p": 7.9}},
    # field elements are strings, in parameter arrays as in system files
    "number theta": {**P0_DOC, "theta": [1, 0, -1]},
    "number thetastar": {**P0_DOC, "thetastar": ["1", 0, "-1"]},
    "number varphi": {**P0_DOC, "varphi": 2},
    "number phi": {**P0_DOC, "phi": 1},
    # the element grammar has no whitespace and no "+"
    "padded theta": {**P0_DOC, "theta": [" 1", "0", "-1"]},
    "plus-signed phi": {**P0_DOC, "phi": "+1"},
}


@pytest.mark.parametrize("command", ["report", "construct"])
@pytest.mark.parametrize("doc", list(MALFORMED_PARAMETER_FILES.values()),
                         ids=list(MALFORMED_PARAMETER_FILES))
def test_malformed_parameter_array_exit_1(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, doc, message", [
    ("report", {}, "a parameter array needs the key 'field'"),
    ("construct", {k: v for k, v in P0_DOC.items() if k != "phi"},
     "a parameter array needs the key 'phi'"),
    ("report", {**P0_DOC, "field": {"kind": "Fp"}}, "an Fp field descriptor needs the key 'p'"),
    ("verify", {"field": {"kind": "Q"}, "Astar": EYE}, "a system file needs the key 'A'"),
    ("verify", {"field": {"kind": "Q"}, "A": EYE}, "a system file needs the key 'Astar'"),
], ids=["report-empty", "construct-no-phi", "report-no-p", "verify-no-A", "verify-no-Astar"])
def test_a_missing_key_is_named(capsys, tmp_path, command, doc, message):
    # the error line was the bare KeyError: "error: 'field'", "error: 'A'"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_boundary_system_exit_3_with_witness(capsys, tmp_path, rng):
    pa = random_boundary_array(rng, QQ)
    a, astar = canonical_matrices(pa)
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({
        "field": {"kind": "Q"},
        "A": a.to_json(),
        "Astar": astar.to_json(),
        "theta": [str(x) for x in pa.theta],
        "thetastar": [str(x) for x in pa.thetastar],
    }))
    code, doc = run(capsys, "verify", str(path))
    assert code == 3
    assert doc["verification"]["irreducible"] is False
    assert len(doc["verification"]["witness"]) == 1


def test_enumerate_gf2_empty(capsys):
    code, doc = run(capsys, "enumerate", "--p", "2")
    assert code == 0
    assert doc == {"p": 2, "pass_i": 0, "pass_i_ii": 0, "admissible": 0}


@pytest.mark.parametrize("p", [3, 5])
def test_enumerate_matches_bruteforce_oracle(capsys, p):
    code, doc = run(capsys, "enumerate", "--p", str(p), "--orbits")
    assert code == 0
    count_i, count_i_ii, admissible = oracle.enumerate_arrays_mod(p)
    n_orbits, sizes = oracle.d4_orbit_stats(admissible)
    assert doc["pass_i"] == count_i
    assert doc["pass_i_ii"] == count_i_ii
    assert doc["admissible"] == len(admissible)
    assert doc["orbits"]["count"] == n_orbits
    assert doc["orbits"]["sizes"] == {str(k): v for k, v in sizes.items()}
    if p == 3:
        assert (count_i, count_i_ii, len(admissible), n_orbits) == (
            oracle.GF3_PASS_I, oracle.GF3_PASS_I_II, oracle.GF3_ADMISSIBLE,
            oracle.GF3_ORBIT_COUNT)


def test_enumerate_bytes_pinned(capsys):
    # stdout for p = 2 and p = 7, recorded when the counts still walked
    # every array and its dihedral orbit, and for p = 11 and p = 13 with
    # --force, recorded when they still made one pass over GF(p) per pair
    # of eigenvalue triples
    from pathlib import Path
    data = Path(__file__).parent / "data"
    for name, primes in (("enumerate_pins.json", ["2", "7", "7"]),
                         ("enumerate_pins_large.json", ["11", "13"])):
        pins = json.loads((data / name).read_text())
        assert [pin["argv"][2] for pin in pins] == primes
        for pin in pins:
            assert main(pin["argv"]) == 0
            assert capsys.readouterr().out == pin["stdout"]


def test_enumerate_61_bit_prime_is_instant(capsys):
    import time
    start = time.perf_counter()
    code, doc = run(capsys, "enumerate", "--p", str(2 ** 61 - 1), "--force", "--orbits")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    total = sum(int(size) * count for size, count in doc["orbits"]["sizes"].items())
    assert total == doc["admissible"] > 0
    assert doc["pass_i"] >= doc["pass_i_ii"] >= doc["admissible"]


def test_enumerate_orbit_sizes_sum_to_admissible(capsys):
    code, doc = run(capsys, "enumerate", "--p", "5", "--orbits")
    assert code == 0
    total = sum(int(size) * count for size, count in doc["orbits"]["sizes"].items())
    assert total == doc["admissible"]


def test_enumerate_composite_p_exit_1(capsys):
    assert main(["enumerate", "--p", "6"]) == 1


def test_enumerate_guard_and_env_override(capsys, monkeypatch):
    assert main(["enumerate", "--p", "11"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("TDP_MAX_GRID", "3")
    assert main(["enumerate", "--p", "5"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("TDP_MAX_GRID", "5")
    code, doc = run(capsys, "enumerate", "--p", "5")
    assert code == 0 and doc["p"] == 5
    monkeypatch.setenv("TDP_MAX_GRID", "abc")
    assert main(["enumerate", "--p", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: TDP_MAX_GRID must be an integer, got 'abc'\n"


def test_report_idempotent_on_extracted_array(capsys, tmp_path, p0_file):
    from tdpair121 import ParameterArray, construct, extract_parameter_array
    pa = ParameterArray.from_json(P0_DOC)
    back = extract_parameter_array(construct(pa))
    path = tmp_path / "extracted.json"
    path.write_text(json.dumps(back.to_json()))
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    assert main(["report", p0_file, "--out", str(out1)]) == 0
    assert main(["report", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_prime_beyond_certified_range_exit_1(capsys, tmp_path):
    eye = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
           ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": {"kind": "Fp", "p": 3317044064679887385961981},
                                "A": eye, "Astar": eye}))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["enumerate", "--p", "3317044064679887385961981"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_boundary_witness_bytes_pinned(capsys, tmp_path):
    # verify output of conjugated boundary pairs over GF(101) and GF(10007),
    # recorded when root finding over GF(p) still scanned every residue
    from pathlib import Path
    pins = json.loads((Path(__file__).parent / "data" / "verify_witness_pins.json").read_text())
    assert len(pins) == 4
    for i, pin in enumerate(pins):
        path = tmp_path / f"pin{i}.json"
        path.write_text(json.dumps(pin["system"]))
        assert main(["verify", str(path)]) == 3
        assert capsys.readouterr().out == pin["stdout"]


@pytest.mark.parametrize("command", ["report", "construct", "verify"])
def test_deeply_nested_json_exit_1(capsys, tmp_path, command):
    # json.load recurses once per level and raised RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("command", ["report", "construct"])
@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exit_1(capsys, tmp_path, p0_file, command, target):
    assert main([command, p0_file, "--out", str(tmp_path / target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--p", "abc"], ["verify"], [], ["bogus"], ["enumerate", "--p", "5", "--zzz"],
    ["report"], ["enumerate"],
], ids=["p-not-int", "verify-no-file", "no-command", "unknown-command", "unknown-option",
        "report-no-file", "enumerate-no-p"])
def test_usage_errors_exit_1_with_one_error_line(capsys, argv):
    # exit 2 is the code of an inadmissible array, not of a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"], ["verify", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
