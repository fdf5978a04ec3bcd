import json
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

import oracle
import tdpair121
from conftest import (
    random_admissible_array,
    random_boundary_array,
    random_invertible,
    random_scalar,
    referents,
)
from make_decomposition_pins import KINDS, dumps as dump_decompositions, pair
from make_decomposition_pins import pin as decomposition_pin
from make_invariant_witness_pins import dumps
from tdpair121 import (
    Decomposition,
    Field,
    Matrix,
    QQ,
    Subspace,
    TDSystem,
    canonical_matrices,
    common_invariant_subspace,
    construct,
    extract_parameter_array,
    find_td_orderings,
    shape,
    split_decomposition,
    subspace_sum,
    verify_split_actions,
    verify_td_system,
)


@pytest.fixture
def tds(p0):
    return construct(p0)


def test_verify_worked_instance(tds):
    report = verify_td_system(tds.A, tds.Astar, tds.theta, tds.thetastar)
    assert report.overall
    assert report.diagonalizable_a and report.diagonalizable_astar
    assert report.tridiagonal_astar_e and report.tridiagonal_a_estar
    assert report.irreducible and report.witness is None
    assert report.shape == (1, 2, 1)
    assert report.skipped == ()


def test_verify_four_distinct_eigenvalues_fails_first_axiom():
    m = Matrix.diagonal(QQ, [0, 1, 2, 3])
    report = verify_td_system(m, m, (QQ(0), QQ(1), QQ(2)), (QQ(0), QQ(1), QQ(2)))
    assert not report.diagonalizable_a and not report.diagonalizable_astar
    assert not report.overall
    assert "irreducible" in report.skipped
    assert report.shape is None


def test_verify_wrong_spectrum_reported_not_raised(tds):
    report = verify_td_system(tds.A, tds.Astar,
                              (QQ(5), QQ(6), QQ(7)), tds.thetastar)
    assert not report.diagonalizable_a
    assert report.diagonalizable_astar
    assert not report.overall


def test_verify_repeated_eigenvalue_reported(tds):
    report = verify_td_system(tds.A, tds.Astar,
                              (QQ(1), QQ(1), QQ(0)), tds.thetastar)
    assert not report.diagonalizable_a


def test_verify_malformed_raises(tds):
    with pytest.raises(ValueError):
        verify_td_system(tds.A, tds.Astar, (QQ(1), QQ(0)), tds.thetastar)
    small = Matrix(QQ, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        verify_td_system(small, small, tds.theta, tds.thetastar)


def test_verify_boundary_array_fails_only_irreducibility(rng):
    pa = random_boundary_array(rng, QQ)
    a, astar = canonical_matrices(pa)
    report = verify_td_system(a, astar, pa.theta, pa.thetastar)
    assert report.diagonalizable_a and report.diagonalizable_astar
    assert report.tridiagonal_astar_e and report.tridiagonal_a_estar
    assert not report.irreducible
    w = report.witness
    assert w is not None and w.dim == 1
    assert w.is_invariant(a) and w.is_invariant(astar)
    assert "witness" in report.to_json()


def test_verify_irreducibility_skipped_when_tridiagonality_fails():
    # diagonal against a lower-triangular partner with a far corner entry:
    # axioms (i)-(iii) hold, the tridiagonal axiom fails, so the
    # invariant-subspace check is skipped rather than run
    a = Matrix.diagonal(QQ, [0, 1, 1, 2])
    astar = Matrix(QQ, [[3, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [1, 0, 0, 5]])
    report = verify_td_system(a, astar, (QQ(0), QQ(1), QQ(2)),
                              (QQ(3), QQ(4), QQ(5)))
    assert report.diagonalizable_a and report.diagonalizable_astar
    assert not report.tridiagonal_astar_e
    assert not report.irreducible and not report.overall
    assert report.skipped == ("irreducible",)


def test_every_admissible_array_over_gf3_constructs_and_verifies():
    """Exhaustive small-characteristic check: all 108 admissible arrays."""
    field = Field(3)
    _, _, arrays = oracle.enumerate_arrays_mod(3)
    assert len(arrays) == oracle.GF3_ADMISSIBLE
    for arr in arrays:
        pa_theta = tuple(field(x) for x in arr[0:3])
        pa_thetastar = tuple(field(x) for x in arr[3:6])
        from tdpair121 import ParameterArray, extract_parameter_array
        pa = ParameterArray(field, pa_theta, pa_thetastar,
                            field(arr[6]), field(arr[7]))
        sys_ = construct(pa)
        report = verify_td_system(sys_.A, sys_.Astar, sys_.theta, sys_.thetastar)
        assert report.overall and report.shape == (1, 2, 1), arr
        assert extract_parameter_array(sys_) == pa


def test_find_orderings_worked_instance(tds):
    pairs = find_td_orderings(tds.A, tds.Astar)
    assert len(pairs) == oracle.P0_ORDERING_PAIR_COUNT
    found = {(tuple(str(x) for x in th), tuple(str(x) for x in ts))
             for th, ts in pairs}
    fwd = ("1", "0", "-1")
    rev = ("-1", "0", "1")
    assert found == {(fwd, fwd), (fwd, rev), (rev, fwd), (rev, rev)}


def test_find_orderings_closed_under_reversals(rng, gf101):
    for field in (QQ, gf101):
        pa = random_admissible_array(rng, field)
        sys_ = construct(pa)
        pairs = set(find_td_orderings(sys_.A, sys_.Astar))
        for th, ts in pairs:
            assert (th[::-1], ts) in pairs
            assert (th, ts[::-1]) in pairs
            assert (th[::-1], ts[::-1]) in pairs


def test_find_orderings_junk_pair_empty():
    # repeated-eigenvalue diagonal against a generic conjugated diagonal:
    # both diagonalizable with 3 eigenvalues, no ordering tridiagonalizes
    a = Matrix.diagonal(QQ, [0, 0, 1, 2])
    s = Matrix(QQ, [[1, -1, 2, -1], [3, 2, 3, 2], [2, 1, -3, 3], [0, 3, -2, 2]])
    astar = s * Matrix.diagonal(QQ, [3, 4, 4, 5]) * s.invert()
    assert find_td_orderings(a, astar) == []


def test_find_orderings_wrong_eigenvalue_count():
    eye = Matrix.identity(QQ, 4)
    with pytest.raises(ValueError):
        find_td_orderings(eye, eye)


def test_pair_checks_require_4x4_matrices_over_one_field():
    # a 3x3 pair used to get the whole space back as a "proper" witness, and
    # a 4x4 against a 3x3 failed deep inside with a vector length error
    a3 = Matrix.diagonal(QQ, [1, 2, 3])
    cyclic = Matrix(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    a4 = Matrix.diagonal(QQ, [1, 2, 2, 3])
    for a, astar in ((a3, cyclic), (a4, cyclic)):
        with pytest.raises(ValueError, match="4x4"):
            common_invariant_subspace(a, astar)
        with pytest.raises(ValueError, match="4x4"):
            find_td_orderings(a, astar)
    other = Matrix.diagonal(Field(7), [1, 2, 2, 3])
    with pytest.raises(ValueError, match="different fields"):
        common_invariant_subspace(a4, other)
    with pytest.raises(ValueError, match="different fields"):
        find_td_orderings(a4, other)


def test_from_matrices_validates_as_verify_does():
    # a 3x3 pair used to build a system whose ambient-4 subspaces held
    # length-3 vectors, and a 4x4 pair with two eigenvalues each one whose
    # shape raised IndexError
    a3 = Matrix.diagonal(QQ, [1, 2, 3])
    a4 = Matrix.diagonal(QQ, [1, 2, 2, 1])
    b4 = Matrix.diagonal(QQ, [1, 2, 2, 3])
    for args, match in (
        ((a3, a3, (1, 2, 3), (1, 2, 3)), "4x4"),
        ((a4, a4, (1, 2), (1, 2)), "length 3"),
        ((b4, b4, (1, 2, 3), (1, 2)), "length 3"),
        ((b4, Matrix.diagonal(Field(7), [1, 2, 2, 3]), (1, 2, 3), (1, 2, 3)), "different fields"),
    ):
        with pytest.raises(ValueError, match=match):
            TDSystem.from_matrices(*args)
        with pytest.raises(ValueError, match=match):
            verify_td_system(*args)


def test_find_orderings_symmetric_in_the_pair(tds):
    direct = find_td_orderings(tds.A, tds.Astar)
    swapped = find_td_orderings(tds.Astar, tds.A)
    assert {(ts, th) for th, ts in direct} == set(swapped)


def _far_blocks_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p):
    """Tables [i][j] telling whether E_i A* E_j = 0 and whether E*_i A E*_j
    = 0, by raw products of the primitive idempotents: ints mod p, or
    Fractions for p = 0."""
    from fractions import Fraction

    def mul(x, y):
        out = [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        return [[v % p for v in row] for row in out] if p else out

    def idempotents(rows, evs):
        out = []
        for i, ei in enumerate(evs):
            acc = [[int(r == c) for c in range(4)] for r in range(4)]
            for ej in evs:
                if ej != ei:
                    inv = pow(ei - ej, -1, p) if p else 1 / Fraction(ei - ej)
                    acc = mul(acc, [[(rows[r][c] - ej * (r == c)) * inv for c in range(4)]
                                    for r in range(4)])
            out.append(acc)
        return out

    def far(e, m):
        return [[not any(map(any, mul(mul(e[i], m), e[j]))) for j in range(3)]
                for i in range(3)]

    return far(idempotents(a_rows, evs_a), astar_rows), far(idempotents(astar_rows, evs_s), a_rows)


def _orderings_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p):
    """Ordering pairs passing the tridiagonal axioms, by the block test of
    :func:`_far_blocks_from_idempotents`."""
    fa, fs = _far_blocks_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p)
    return [(tuple(evs_a[i] for i in pa), tuple(evs_s[i] for i in ps))
            for pa in permutations(range(3)) if fa[pa[0]][pa[2]] and fa[pa[2]][pa[0]]
            for ps in permutations(range(3)) if fs[ps[0]][ps[2]] and fs[ps[2]][ps[0]]]


def _idempotent_test_pair(rng, field, kind):
    """A pair with eigenvalue pattern (a, b, b, c) on both sides and its
    sorted raw spectra: kind 0 conjugated independently (mostly not
    tridiagonal), 1 conjugated by one matrix (every ordering passes), 2 a
    conjugated canonical system (four orderings)."""
    p = field.p
    values = range(p) if p else range(-6, 7)
    if kind == 2:
        pa = random_admissible_array(rng, field)
        a, astar = canonical_matrices(pa)
        s = random_invertible(rng, field, Matrix)
        a, astar = s * a * s.invert(), s * astar * s.invert()
        return a, astar, sorted(x.val for x in pa.theta), sorted(x.val for x in pa.thetastar)
    evs_a, evs_s = sorted(rng.sample(values, 3)), sorted(rng.sample(values, 3))
    s = random_invertible(rng, field, Matrix)
    s_star = random_invertible(rng, field, Matrix) if kind == 0 else s
    x, y, z = rng.sample(evs_a, 3)
    a = s * Matrix.diagonal(field, [x, y, y, z]) * s.invert()
    x, y, z = rng.sample(evs_s, 3)
    astar = s_star * Matrix.diagonal(field, [x, y, y, z]) * s_star.invert()
    return a, astar, evs_a, evs_s


@pytest.mark.parametrize("p", [7, 13, pytest.param(0, id="QQ")])
def test_find_orderings_match_idempotent_definition(rng, p):
    field = Field(p)
    counts = {0: 0, 4: 0, 36: 0}
    for trial in range(36):
        a, astar, evs_a, evs_s = _idempotent_test_pair(rng, field, trial % 3)
        a_rows = [[x.val for x in row] for row in a.rows]
        astar_rows = [[x.val for x in row] for row in astar.rows]
        expected = _orderings_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p)
        got = [(tuple(x.val for x in th), tuple(x.val for x in ts))
               for th, ts in find_td_orderings(a, astar)]
        assert got == expected
        if len(got) in counts:
            counts[len(got)] += 1
    assert all(counts.values()), counts


@pytest.mark.parametrize("p", [7, 13, pytest.param(0, id="QQ")])
def test_verify_matches_idempotent_definition_under_all_orderings(rng, p):
    # verify asks the far-block test for blocks (0, 2) of each matrix in the
    # given order, find_td_orderings for the three pairs of blocks in
    # eigen_data's order: each flag is judged here on its own, under all
    # 36 ordering pairs, by products of the primitive idempotents
    field = Field(p)
    seen = set()
    for trial in range(12):
        a, astar, evs_a, evs_s = _idempotent_test_pair(rng, field, trial % 3)
        a_rows = [[x.val for x in row] for row in a.rows]
        astar_rows = [[x.val for x in row] for row in astar.rows]
        fa, fs = _far_blocks_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p)
        for pa, ps in product(permutations(range(3)), repeat=2):
            report = verify_td_system(a, astar, [field(evs_a[i]) for i in pa],
                                      [field(evs_s[i]) for i in ps])
            assert report.diagonalizable_a and report.diagonalizable_astar
            flags = (report.tridiagonal_astar_e, report.tridiagonal_a_estar)
            assert flags == (fa[pa[0]][pa[2]] and fa[pa[2]][pa[0]],
                             fs[ps[0]][ps[2]] and fs[ps[2]][ps[0]])
            seen.add(flags)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_derived_objects_die_with_the_system(p0):
    import gc
    import weakref

    from tdpair121 import BasisId, basis_matrix, represent, transition_numeric
    system = construct(p0)
    represent(system, "A", BasisId.SPLIT_ZD)
    transition_numeric(system, BasisId.SPLIT_DZ, BasisId.EIG_A)
    basis_matrix(system, BasisId.SPLIT_DD)
    assert shape(system) == (1, 2, 1)
    split_decomposition(system, Decomposition.ZSTAR_D)
    assert verify_split_actions(system)
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


def test_split_decomposition_eigenspace_rows(tds):
    spaces = [Subspace(QQ, 4, tds.A.shift(t).kernel()) for t in tds.theta]
    duals = [Subspace(QQ, 4, tds.Astar.shift(t).kernel()) for t in tds.thetastar]
    assert split_decomposition(tds, Decomposition.Z_D) == spaces
    assert split_decomposition(tds, Decomposition.ZSTAR_DSTAR) == duals


def test_split_decomposition_first_row(tds):
    comps = split_decomposition(tds, Decomposition.ZSTAR_D)
    assert [c.dim for c in comps] == [1, 2, 1]
    assert comps[0] == Subspace.column_space(tds.Estar[0])


def test_split_components_direct_sum(rng, gf101, tds):
    systems = [tds]
    for field in (QQ, gf101):
        systems.append(construct(random_admissible_array(rng, field)))
    for sys_ in systems:
        for dec in Decomposition:
            comps = split_decomposition(sys_, dec)
            assert sum(c.dim for c in comps) == 4
            assert (comps[0] + comps[1] + comps[2]).dim == 4


def test_shape_consistent_across_decompositions(rng, gf101, tds):
    assert shape(tds) == (1, 2, 1)
    for field in (QQ, gf101):
        sys_ = construct(random_admissible_array(rng, field))
        dims = shape(sys_)
        assert dims == (1, 2, 1)
        assert dims[0] == dims[2] and dims[0] <= dims[1]
        for dec in Decomposition:
            assert tuple(c.dim for c in split_decomposition(sys_, dec)) == dims


def test_decompositions_pinned():
    # verify_td_system reports, and where TDSystem.from_matrices accepts
    # the pair the six decompositions, shape and split-action check, of 208
    # seeded pairs over QQ (8 conjugated by 100-bit matrices) and GF(2, 3, 5,
    # 7, 101, 10007), plus 5 TDSystems built field by field (repeated or
    # non-eigenvalue orderings); written by make_decomposition_pins.py while
    # the decompositions were still built from boxed subspace sums and meets
    text = (Path(__file__).parent / "data" / "decomposition_pins.json").read_text()
    pins = json.loads(text)
    assert len(pins) == 213
    got = []
    for p in pins:
        field = Field.from_json(p["field"])
        got.append(decomposition_pin(
            field, Matrix.from_json(field, p["A"]), Matrix.from_json(field, p["Astar"]),
            [field.parse(x) for x in p["theta"]], [field.parse(x) for x in p["thetastar"]],
            p.get("direct", False)))
    assert dump_decompositions(got) == text


def test_constructed_system_builds_its_eigenspaces_once(monkeypatch, rng):
    # construct reads the idempotents off the six eigenspaces and keeps
    # them: the decompositions and the extraction build none of their own
    calls = []
    real = tdpair121.linalg._eigenspace

    def spy(m, e):
        calls.append(e)
        return real(m, e)

    for module in vars(tdpair121).values():
        if getattr(module, "_eigenspace", None) is real:
            monkeypatch.setattr(module, "_eigenspace", spy)
    for field in (QQ, Field(101)):
        calls.clear()
        tds = construct(random_admissible_array(rng, field))
        assert shape(tds) == (1, 2, 1)
        split_decomposition(tds, Decomposition.ZSTAR_D)
        assert verify_split_actions(tds)
        extract_parameter_array(tds)
        assert len(calls) == 6, calls


def test_verify_eliminates_on_four_columns_only(monkeypatch, rng):
    # the meets are kernels of annihilators, so no elimination in verify
    # is wider than the space; the one exception is the [M | I] of
    # _inv_grid, which writes a matrix in the eigenspace coordinates
    calls = []
    real = tdpair121.linalg._rref

    def spy(work, p):
        calls.append((len(work[0]) if work else 0, sys._getframe(1).f_code.co_name))
        return real(work, p)

    for module in vars(tdpair121).values():
        if getattr(module, "_rref", None) is real:
            monkeypatch.setattr(module, "_rref", spy)
    for field in (Field(101), QQ):
        pa = random_admissible_array(rng, field)
        a, astar = canonical_matrices(pa)
        q = random_invertible(rng, field, Matrix)
        qi = q.invert()
        calls.clear()
        report = verify_td_system(qi * a * q, qi * astar * q, pa.theta, pa.thetastar)
        assert report.overall and report.shape == (1, 2, 1)
        wide = [(w, caller) for w, caller in calls if w > 4]
        assert calls and wide and all(c == (8, "_inv_grid") for c in wide), wide


def test_verify_reads_the_shape_without_eliminating(monkeypatch, rng):
    # an ordered verify eliminates for the six eigenspaces and the inverses
    # of P and P*; the shape reads determinants of corner blocks of C and
    # C^-1 in closed form, so a witness adds the only other reduction (22
    # per verify while the meets were annihilators and directness ranks)
    calls = []
    real = tdpair121.linalg._rref

    def spy(work, p):
        calls.append(p)
        return real(work, p)

    for module in vars(tdpair121).values():
        if getattr(module, "_rref", None) is real:
            monkeypatch.setattr(module, "_rref", spy)
    for field in (QQ, Field(10007)):
        for make in (random_admissible_array, random_boundary_array):
            pa = make(rng, field)
            a, astar = canonical_matrices(pa)
            q = random_invertible(rng, field, Matrix)
            qi = q.invert()
            calls.clear()
            report = verify_td_system(qi * a * q, qi * astar * q, pa.theta, pa.thetastar)
            assert report.shape == (1, 2, 1)
            assert report.irreducible is (make is random_admissible_array)
            assert len(calls) == 8 + (not report.irreducible), len(calls)


def test_verify_forms_c_its_inverse_and_b_only(monkeypatch, rng):
    # a fresh pair costs one grid product, B = C D* C^-1, as the far blocks
    # of C^-1 D C are dotted out of its factors, and eight eliminations: the
    # six eigenspaces, each read by the one null-space reader off shifted
    # rows built in place (no _shift_grid), and the two solves of C and C^-1
    # against P and P*, neither of which is inverted; kernels and meets reach
    # the same reader
    from tdpair121 import linalg, tdsystem

    calls = []
    for name in ("_mul_grids", "_rref", "_shift_grid"):
        real = getattr(linalg, name)
        spy = (lambda *args, _n=name, _f=real:
               calls.append((_n, sys._getframe(1).f_code.co_name)) or _f(*args))
        for module in vars(tdpair121).values():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    assert not hasattr(tdsystem, "_zero_blocks")
    field = Field(10007)
    for _ in range(3):
        pa = random_admissible_array(rng, field)
        a, astar = canonical_matrices(pa)
        q = random_invertible(rng, field, Matrix)
        qi = q.invert()
        a, astar = qi * a * q, qi * astar * q
        calls.clear()
        report = verify_td_system(a, astar, pa.theta, pa.thetastar)
        assert report.overall and report.shape == (1, 2, 1)
        assert sorted(calls) == sorted([("_mul_grids", "_view")]
                                       + [("_rref", "_null")] * 6
                                       + [("_rref", "_inv_grid")] * 2), calls
    calls.clear()
    assert len(a.kernel()) == 0 and (Subspace.full(field, 4) & Subspace.zero(field, 4)).is_zero
    assert calls and set(calls) - {("_rref", "_span")} == {("_rref", "_null")}, calls


def test_verify_unordered_builds_eigen_coordinates_once(monkeypatch, rng):
    # verify without orderings is find_td_orderings, then verify_td_system
    # on the first ordering found: the search keeps the frames of
    # eigen_data's order and the verify relabels them, so no eigenspace is
    # built twice.  No frame keeps an inverse: the search and every verify,
    # later ones too, solve for C and C^-1 against P and P*, two
    # eliminations each
    calls = []
    real = tdpair121.linalg._inv_grid

    def spy(g, p, rhs=None):
        calls.append(p)
        return real(g, p, rhs)

    for module in vars(tdpair121).values():
        if getattr(module, "_inv_grid", None) is real:
            monkeypatch.setattr(module, "_inv_grid", spy)
    for field in (QQ, Field(101)):
        pa = random_admissible_array(rng, field)
        a, astar = canonical_matrices(pa)
        q = random_invertible(rng, field, Matrix)
        qi = q.invert()
        a, astar = qi * a * q, qi * astar * q
        calls.clear()
        orderings = find_td_orderings(a, astar)
        report = verify_td_system(a, astar, *orderings[0])
        assert len(orderings) == 4 and report.overall and report.shape == (1, 2, 1)
        assert len(calls) == 4, calls
        calls.clear()
        assert verify_td_system(a, astar, pa.theta, pa.thetastar).overall
        assert len(calls) == 2, calls
        calls.clear()
        assert verify_td_system(a, astar, pa.theta, pa.thetastar).overall
        assert len(find_td_orderings(a, astar)) == 4
        assert len(calls) == 4, calls


def test_construct_and_verify_share_one_spectral_decomposition(monkeypatch, rng):
    # construct builds the frames of A and A* (six eigenspaces) and keeps
    # them on the matrices, inverting P and P* for the idempotents only, so
    # verifying its matrices builds no space and solves for C and C^-1 once
    # each; a fresh pair builds its own frames, solves against P and P*,
    # never inverts C, and reads the shape with no characteristic
    # polynomial.  One frame is kept per matrix: a new order of A's
    # eigenvalues relabels it, building no space and solving twice, and the
    # system's own order still reads its own blocks afterwards.
    from tdpair121 import _poly, linalg, tdsystem

    calls = []
    real_space, real_inv, real_charpoly = linalg._eigenspace, linalg._inv_grid, _poly.charpoly

    def inv_spy(g, p, rhs=None):
        calls.append(("inv", g))
        return real_inv(g, p, rhs)

    monkeypatch.setattr(linalg, "_eigenspace", lambda m, e: calls.append(("space", e))
                        or real_space(m, e))
    monkeypatch.setattr(linalg, "_inv_grid", inv_spy)
    monkeypatch.setattr(tdsystem, "_inv_grid", inv_spy)
    monkeypatch.setattr(_poly, "charpoly", lambda rows, p: calls.append(("charpoly", p))
                        or real_charpoly(rows, p))

    def counts():
        kinds = [kind for kind, _ in calls]
        calls.clear()
        return kinds.count("space"), kinds.count("inv"), kinds.count("charpoly")

    for field in (QQ, Field(101)):
        pa = random_admissible_array(rng, field)
        calls.clear()
        t = construct(pa)
        report = verify_td_system(t.A, t.Astar, t.theta, t.thetastar)
        assert report.overall and report.shape == (1, 2, 1)
        assert counts() == (6, 4, 0)

        q = random_invertible(rng, field, Matrix)
        qi = q.invert()
        a, astar = qi * t.A * q, qi * t.Astar * q
        calls.clear()
        report = verify_td_system(a, astar, t.theta, t.thetastar)
        assert report.overall and report.shape == (1, 2, 1)
        inverted = [g for kind, g in calls if kind == "inv"]
        assert counts() == (6, 2, 0)
        assert inverted == [linalg._frame(a, t.theta).basis[0],
                            linalg._frame(astar, t.thetastar).basis[0]]

        swapped = (t.theta[1], t.theta[0], t.theta[2])
        report = verify_td_system(t.A, t.Astar, swapped, t.thetastar)
        assert not report.tridiagonal_astar_e and report.tridiagonal_a_estar
        assert counts() == (0, 2, 0)
        assert verify_td_system(t.A, t.Astar, t.theta, t.thetastar).overall
        assert counts() == (0, 2, 0)


def test_frames_are_kept_only_for_orderings_of_the_spectrum(monkeypatch, rng):
    # a matrix keeps one frame, of the first ordering of its spectrum it is
    # asked about: verifies under many theta guesses, which are not its
    # spectrum, and under all 36 ordering pairs leave that one frame per
    # matrix, where every guess once left a frame of its own and every
    # ordering still did.  A system built field by field with such a theta
    # keeps its frames itself, so it builds their spaces once.
    from tdpair121 import linalg

    field = Field(10007)
    t = construct(random_admissible_array(rng, field))
    kept = [t.A._spectrum, t.Astar._spectrum]
    for _ in range(300):
        guess = tuple(field(rng.randrange(10007)) for _ in range(3))
        report = verify_td_system(t.A, t.Astar, guess, t.thetastar)
        assert report.diagonalizable_a is (sorted(x.val for x in guess)
                                           == sorted(x.val for x in t.theta))
    passed = [(theta, thetastar) for theta, thetastar in
              product(permutations(t.theta), permutations(t.thetastar))
              if verify_td_system(t.A, t.Astar, theta, thetastar).overall]
    assert passed == [(th, ts) for th in (t.theta, t.theta[::-1])
                      for ts in (t.thetastar, t.thetastar[::-1])]
    for m, spectrum, record in zip((t.A, t.Astar), (t.theta, t.thetastar), kept):
        assert m._spectrum is record
        assert record[1] == tuple(x.val for x in spectrum)
        assert sum(isinstance(x, linalg._Frame) for x in referents(m)) == 1

    calls = []
    real = linalg._eigenspace
    monkeypatch.setattr(linalg, "_eigenspace", lambda m, e: calls.append(e) or real(m, e))
    bad = (t.theta[0], t.theta[0], t.theta[2])
    system = TDSystem(t.A, t.Astar, bad, t.thetastar, (), ())
    assert not system._frames[0].ok and system._frames[1].ok
    spaces = system._spaces
    assert system._transition and system._spaces == spaces
    assert calls == list(bad)
    assert t.A._spectrum is kept[0]


def test_qq_fractions_are_built_only_at_the_boxing_edge(monkeypatch, rng):
    # over QQ subspace rows, chain vectors and bases are held as integers;
    # linalg, tdsystem and bases build a Fraction only in _box, where a
    # value leaves (Matrix.rows, Subspace.basis, returned vectors, charpoly).
    # Fraction arithmetic is charged to the frame that asked for it.
    from fractions import Fraction

    from tdpair121 import BasisId, eta_vectors, represent, represent_formula

    watched = {"tdpair121.linalg", "tdpair121.tdsystem", "tdpair121.bases"}
    cases = []
    for make in [random_admissible_array] * 4 + [random_boundary_array] * 2:
        pa = make(rng, QQ)
        a, astar = canonical_matrices(pa)
        q = random_invertible(rng, QQ, Matrix)
        qi = q.invert()
        a, astar = qi * a * q, qi * astar * q
        admissible = make is random_admissible_array
        tds = TDSystem.from_matrices(a, astar, pa.theta, pa.thetastar) if admissible else None
        cases.append((pa, a, astar, tds))
    built, boxed = [], []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == "fractions":
            frame = frame.f_back
        module, name = frame.f_globals.get("__name__"), frame.f_code.co_name
        if module in watched:
            (boxed if name == "_box" else built).append((module, name))
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    results = []
    for pa, a, astar, tds in cases:
        report = verify_td_system(a, astar, pa.theta, pa.thetastar)
        if tds is None:
            results.append((pa, report, None, None))
            continue
        eta = eta_vectors(tds)
        reps = {(w, b): represent(tds, w, b) for w in ("A", "Astar") for b in BasisId}
        results.append((pa, report, eta, reps))
    monkeypatch.undo()
    assert not built, sorted(set(built))
    assert boxed  # the spy saw the boxing of the chain vectors
    for pa, report, eta, reps in results:
        assert report.shape == (1, 2, 1)
        if reps is None:
            assert not report.irreducible and report.witness is not None
            continue
        assert report.overall and any(x.val.denominator > 1 for x in eta.eta0 + eta.eta2)
        assert len(reps) == 12 and all(
            m == represent_formula(pa, w, b) for (w, b), m in reps.items())


def _oracle_agrees(tds):
    """Compare the six decompositions and the shape of tds with the
    enumeration oracle; returns the oracle's shape."""
    p = tds.field.p
    rows = [[[x.val for x in r] for r in m.rows] for m in (tds.A, tds.Astar)]
    evs = [[x.val for x in t] for t in (tds.theta, tds.thetastar)]
    decomps = oracle.decompositions_mod(*rows, *evs, p)
    for dec in Decomposition:
        comps = split_decomposition(tds, dec)
        assert tuple(c.dim for c in comps) == decomps[dec.value][0]
    want = oracle.shape_mod(*rows, *evs, p)
    try:
        got = shape(tds)
    except ValueError:
        got = None
    assert got == want
    return want


@pytest.mark.parametrize("p", [3, 5])
def test_shape_matches_enumeration_oracle(p):
    # seeded diagonalizable pairs passing both tridiagonal checks: the
    # reported shape, None included, and the dims of split_decomposition
    # against the oracle, which meets chain members by enumerating F^4
    import random

    field = Field(p)
    shapes = []
    for i in range(200):
        if len(shapes) == (12 if p == 3 else 8):
            break
        a, astar, theta, thetastar = pair(random.Random(f"shape-oracle:{p}:{i}"),
                                          field, i % KINDS, 0)
        report = verify_td_system(a, astar, theta, thetastar)
        if not (report.tridiagonal_astar_e and report.tridiagonal_a_estar):
            continue
        want = _oracle_agrees(TDSystem.from_matrices(a, astar, theta, thetastar))
        assert report.shape == want
        shapes.append(want)
        # a repeated eigenvalue: theta[0]'s space twice, which does not
        # span V even where the dims add up to 4
        _oracle_agrees(TDSystem(a, astar, (theta[0],) + tuple(theta[:2]), thetastar, (), ()))
    assert None in shapes and (1, 2, 1) in shapes


@pytest.mark.parametrize("p", [5, 7])
def test_completed_basis_route_matches_enumeration_oracle(p):
    # TDSystems built field by field whose eigenspaces do not form a basis,
    # so P and P* are completed by unit vectors: a theta holding a value
    # that is no eigenvalue (an empty block), a repeated theta (one block
    # for two members), and pairs with two eigenplanes each, ordered with a
    # non-eigenvalue in the middle, whose corner blocks are 2 x 2
    import random

    from make_decomposition_pins import _invertible

    field = Field(p)
    a, astar, theta, thetastar = pair(random.Random(f"completed-basis:{p}"), field, 0, 0)
    other = next(x for x in field.elements() if x not in theta)
    systems = [TDSystem(a, astar, t, thetastar, (), ())
               for t in ((theta[0], other, theta[2]), (theta[0], theta[0], theta[2]))]
    x, y, z, xs, zs = (field(v) for v in (1, 0, 3, 2, 4))
    for k in range(2):
        rng = random.Random(f"completed-basis:{p}:{k}")
        s, u = _invertible(rng, field, 0), _invertible(rng, field, 0)
        planes = (s * Matrix.diagonal(field, [x, x, z, z]) * s.invert(),
                  u * Matrix.diagonal(field, [xs, xs, zs, zs]) * u.invert())
        systems.append(TDSystem(*planes, (x, y, z), (xs, y, zs), (), ()))
    shapes = [_oracle_agrees(tds) for tds in systems]
    assert shapes[:2] == [None, None] and (2, 0, 2) in shapes


def test_directness_is_read_off_the_transition():
    # of the 39 decomposition pins that pass both tridiagonal checks with
    # shape null, six have dims (1, 2, 1) in all six decompositions, and
    # only directness, the corner blocks of C and C^-1, turns them down
    pins = json.loads((Path(__file__).parent / "data" / "decomposition_pins.json").read_text())
    undirect = []
    for i, p in enumerate(pins):
        field = Field.from_json(p["field"])
        a, astar = Matrix.from_json(field, p["A"]), Matrix.from_json(field, p["Astar"])
        theta, thetastar = ([field.parse(x) for x in p[k]] for k in ("theta", "thetastar"))
        report = verify_td_system(a, astar, theta, thetastar)
        if not (report.tridiagonal_astar_e and report.tridiagonal_a_estar) or report.shape:
            continue
        tds = TDSystem.from_matrices(a, astar, theta, thetastar)
        if all(tuple(c.dim for c in split_decomposition(tds, dec)) == (1, 2, 1)
               for dec in Decomposition):
            undirect.append(i)
            with pytest.raises(ValueError):
                shape(tds)
    assert undirect == [9, 56, 74, 88, 114, 126]


def test_each_corner_of_the_transition_decides_directness():
    # A = diag(1, 2, 2, 3) and A* = C diag(1, 2, 2, 4) C^-1 over GF(5), so
    # C is the transition up to scaling its blocks; in each system one of
    # the eight corners C[I_a, J_b], C^-1[J_b, I_a] (a, b in {0, 2}) is zero
    # and the other seven are not, so exactly that corner makes one split
    # decomposition not direct and the shape undefined
    import random

    field, rng = Field(5), random.Random("corner-pins")
    a = Matrix.diagonal(field, [1, 2, 2, 3])
    theta, thetastar = (field(1), field(2), field(3)), (field(1), field(2), field(4))
    corners = [(m, r, k) for i in (0, 3) for j in (0, 3) for m, r, k in ((0, i, j), (1, j, i))]
    for zero in range(8):
        while True:
            rows = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            c = Matrix(field, rows)
            if c.det().is_zero:
                continue
            pair_ = (c, c.invert())
            vals = [pair_[m].rows[r][k].is_zero for m, r, k in corners]
            if vals == [n == zero for n in range(8)]:
                break
        astar = c * Matrix.diagonal(field, [1, 2, 2, 4]) * c.invert()
        assert _oracle_agrees(TDSystem(a, astar, theta, thetastar, (), ())) is None


def test_shape_matches_enumeration_oracle_gf2():
    # GF(2) has no three distinct eigenvalues, so no pair passes the
    # tridiagonal checks; TDSystems built field by field, under every
    # ordering of 0 and 1 with repeats, are compared instead: two seeded
    # pairs, and the scalar pair (I, 0), whose orderings with a
    # non-eigenvalue give shapes such as (0, 4, 0)
    import random

    field = Field(2)
    pairs = [pair(random.Random(f"shape-oracle:2:{i}"), field, i, 0)[:2] for i in range(2)]
    pairs.append((Matrix.identity(field, 4), Matrix.zeros(field, 4, 4)))
    shapes = set()
    for a, astar in pairs:
        for theta, thetastar in product(product(field.elements(), repeat=3), repeat=2):
            shapes.add(_oracle_agrees(TDSystem(a, astar, theta, thetastar, (), ())))
    assert None in shapes and len(shapes) > 1


def test_split_actions_worked_instance(tds):
    assert verify_split_actions(tds)


def test_split_actions_eigenrow_annihilation(tds):
    comps = split_decomposition(tds, Decomposition.Z_D)
    for i, comp in enumerate(comps):
        m = tds.A.shift(tds.theta[i])
        for v in comp.basis:
            assert all(x.is_zero for x in m.apply(v))


def test_split_actions_detect_corruption(p0, tds):
    rows = [list(r) for r in tds.Astar.rows]
    rows[0][3] = QQ(1)  # single corrupted entry
    corrupted = Matrix(QQ, rows)
    bad = TDSystem(tds.A, corrupted, tds.theta, tds.thetastar, tds.E, tds.Estar)
    assert not verify_split_actions(bad)


def test_split_actions_random_systems(rng, gf101):
    for field in (QQ, gf101):
        assert verify_split_actions(construct(random_admissible_array(rng, field)))


# the split decompositions by the orders in which component i runs A's and
# A*'s eigenvalues: it meets V*_so[0] + ... + V*_so[i] and V_ao[i] + ... + V_ao[2]
SPLIT_ORDERS = {
    Decomposition.ZSTAR_D: ((0, 1, 2), (0, 1, 2)),
    Decomposition.ZSTAR_Z: ((2, 1, 0), (0, 1, 2)),
    Decomposition.DSTAR_Z: ((2, 1, 0), (2, 1, 0)),
    Decomposition.DSTAR_D: ((0, 1, 2), (2, 1, 0)),
}


def _maps(m, src, dst):
    return dst.contains_subspace(src.image(m))


def _split_table(tds):
    """The 24 inclusions (A - theta_ao[i]) U_i in U_{i+1} and (A* -
    thetastar_so[i]) U_i in U_{i-1} of the split decompositions, U_3 = U_-1 = 0."""
    zero = Subspace.zero(tds.field, 4)
    for dec, (ao, so) in SPLIT_ORDERS.items():
        u = split_decomposition(tds, dec) + [zero]
        if not all(_maps(tds.A.shift(tds.theta[ao[i]]), u[i], u[i + 1])
                   and _maps(tds.Astar.shift(tds.thetastar[so[i]]), u[i], u[i - 1])
                   for i in range(3)):
            return False
    return True


def _windows(tds):
    """A* V_i in V_{i-1} + V_i + V_{i+1} and A V*_i likewise, on [0D] and [0*D*]."""
    for dec, m in ((Decomposition.Z_D, tds.Astar), (Decomposition.ZSTAR_DSTAR, tds.A)):
        v = split_decomposition(tds, dec)
        if not all(_maps(m, v[i], subspace_sum(v[max(i - 1, 0):i + 2])) for i in range(3)):
            return False
    return True


def test_split_actions_match_the_full_table():
    # the raising/lowering table, computed on the public API, against
    # verify_split_actions, which checks only the two windows: on seeded
    # pairs with arbitrary orderings (repeated values, non-eigenvalues) and
    # on constructed systems; the windows imply the 24 split inclusions,
    # which alone do not imply the windows
    import random

    outcomes, repeated = set(), set()
    for p in (2, 3, 5):
        field = Field(p)
        for i in range(60):
            rng = random.Random(f"split-table:{p}:{i}")
            systems = []
            if p > 2 and i % 3 == 0:
                systems.append(construct(random_admissible_array(rng, field)))
                a, astar = systems[0].A, systems[0].Astar
            else:
                a, astar = pair(rng, field, i % KINDS, 0)[:2]
            theta = tuple(field(rng.randrange(p)) for _ in range(3))
            thetastar = tuple(field(rng.randrange(p)) for _ in range(3))
            systems.append(TDSystem(a, astar, theta, thetastar, (), ()))
            for tds in systems:
                table, windows = _split_table(tds), _windows(tds)
                got = verify_split_actions(tds)
                assert got == (table and windows)
                assert table or not windows
                outcomes.add((got, table))
                if len(set(tds.theta)) < 3:
                    repeated.add(got)
    assert outcomes == {(True, True), (False, True), (False, False)}
    assert repeated == {True, False}


def test_split_action_pins_are_the_windows_of_their_reports():
    # on every pinned pair that from_matrices accepts, the pinned split-action
    # check is the conjunction of the report's two tridiagonal checks
    pins = json.loads((Path(__file__).parent / "data" / "decomposition_pins.json").read_text())
    checked = 0
    for p in pins:
        if p["system"] is None or p.get("direct"):
            continue
        report = p["report"]
        assert p["system"]["split_actions"] is (report["tridiagonal_AstarE"]
                                                and report["tridiagonal_AEstar"])
        checked += 1
    assert checked == 170


def test_split_actions_build_no_decomposition(monkeypatch, rng):
    # the windows read the kept eigenspaces: no meet, no annihilator and no
    # inverse of an eigenbasis, which only split_decomposition pays for
    systems = [construct(random_admissible_array(rng, field)) for field in (QQ, Field(101))]
    calls = []
    for name in ("_decompositions", "_ann", "_inv_grid"):
        for module in vars(tdpair121).values():
            real = getattr(module, name, None)
            if callable(real):
                monkeypatch.setattr(module, name,
                                    lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args))
    assert all(verify_split_actions(tds) for tds in systems)
    assert calls == []
    split_decomposition(systems[0], Decomposition.ZSTAR_D)
    assert "_decompositions" in calls


# -- invariant subspace search ------------------------------------------------

def random_diagonalizable(rng, field):
    s = random_invertible(rng, field, Matrix)
    d = Matrix.diagonal(field, [random_scalar(rng, field) for _ in range(4)])
    return s * d * s.invert()


def random_flagged_pair(rng, field):
    """S D S^-1 and S T S^-1 for a random invertible S, diagonal D and upper
    triangular T: both fix the flag of S's first columns, so the pair has
    invariant subspaces of every dimension."""
    s = random_invertible(rng, field, Matrix)
    d = Matrix.diagonal(field, [random_scalar(rng, field) for _ in range(4)])
    t = Matrix(field, [[random_scalar(rng, field) if j >= i else 0 for j in range(4)]
                       for i in range(4)])
    s_inv = s.invert()
    return s * d * s_inv, s * t * s_inv


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariant_search_agrees_with_bruteforce(rng, p):
    field = Field(p)
    subspaces = oracle.all_subspaces_mod(p)
    assert len(subspaces) == oracle.gaussian_binomial_total(p)
    trials = 25 if p < 5 else 8
    pairs = []
    for _ in range(trials):
        a = random_diagonalizable(rng, field)
        pairs.append((a, Matrix(field, [[random_scalar(rng, field) for _ in range(4)]
                                        for _ in range(4)])))
    # pairs with a witness in each dimension, so that a search trying the
    # dimensions out of order returns a larger witness than the least
    pairs += [random_flagged_pair(rng, field) for _ in range(trials)]
    for a, astar in pairs:
        got = common_invariant_subspace(a, astar)
        a_rows = [[x.val for x in row] for row in a.rows]
        astar_rows = [[x.val for x in row] for row in astar.rows]
        expected = oracle.brute_force_common_invariant(a_rows, astar_rows, p, subspaces)
        assert (got is None) == (expected is None)
        if got is not None:
            assert 0 < got.dim < 4
            assert got.is_invariant(a) and got.is_invariant(astar)
            # the oracle lists subspaces by dimension, so its first hit has
            # the least dimension, as the search's witness must
            assert got.dim == len(expected)


def test_invariant_witnesses_pinned():
    # common_invariant_subspace on 232 seeded pairs over QQ (8 of them
    # conjugated by 100-bit matrices) and GF(2, 3, 5, 7, 101, 10007), with A*
    # sparse before conjugation; written by make_invariant_witness_pins.py
    # while the search still tested each candidate by minors and subspaces
    text = (Path(__file__).parent / "data" / "invariant_witness_pins.json").read_text()
    pins = json.loads(text)
    assert len(pins) == 232
    got = []
    for pin in pins:
        field = Field.from_json(pin["field"])
        w = common_invariant_subspace(Matrix.from_json(field, pin["A"]),
                                      Matrix.from_json(field, pin["Astar"]))
        got.append({**pin, "witness": None if w is None else w.to_json()})
    assert dumps(got) == text


def test_invariant_search_requires_diagonalizable():
    jordan = Matrix(QQ, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    with pytest.raises(ValueError):
        common_invariant_subspace(jordan, Matrix.identity(QQ, 4))


def test_invariant_search_profile_limit_over_rationals():
    # two planes cannot be searched over the rationals
    a = Matrix.diagonal(QQ, [1, 1, 2, 2])
    with pytest.raises(ValueError):
        common_invariant_subspace(a, Matrix.identity(QQ, 4))


def test_invariant_search_verified_system_is_clean(tds):
    assert common_invariant_subspace(tds.A, tds.Astar) is None


def test_invariant_search_finds_rational_line():
    # A and A* share the obvious line through e1 + e2
    a = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    astar = Matrix(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 4, 0], [0, 0, 0, 5]])
    w = common_invariant_subspace(a, astar)
    assert w is not None
    assert w.is_invariant(a) and w.is_invariant(astar)


def test_verify_boundary_pair_over_large_prime():
    # root finding over GF(p) must not depend on p being small: a residue
    # scan would touch 2^31 elements here
    import random
    p = 2**31 - 1
    field = Field(p)
    rng = random.Random("large-p boundary")
    pa = random_boundary_array(rng, field)
    a, astar = canonical_matrices(pa)
    s = random_invertible(rng, field, Matrix)
    si = s.invert()
    a, astar = s * a * si, s * astar * si
    report = verify_td_system(a, astar, pa.theta, pa.thetastar)
    assert report.diagonalizable_a and report.diagonalizable_astar
    assert report.tridiagonal_astar_e and report.tridiagonal_a_estar
    assert not report.irreducible and report.witness is not None
    basis = [[x.val for x in v] for v in report.witness.basis]
    dim = oracle.rank_mod(basis, p)
    assert 0 < dim < 4 and dim == len(basis)
    for m in (a, astar):
        rows = [[x.val for x in row] for row in m.rows]
        for v in basis:
            assert oracle.rank_mod(basis + [oracle.mat_vec_mod(rows, v, p)], p) == dim


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_invariant_search_quadratic_line_condition(p):
    # A* swaps the plane of A's double eigenvalue as (x, y) -> (9y, x), so
    # the invariant lines in it are x^2 = 9y^2, x = +-3y; the smallest root
    # comes first.  No eigenline of A is invariant under A*.
    field = Field(p)
    a = Matrix.diagonal(field, [1, 2, 3, 3])
    astar = Matrix(field, [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 9], [0, 0, 1, 0]])
    w = common_invariant_subspace(a, astar)
    assert w == Subspace(field, 4, [(0, 0, 3, 1)])


def _is_eigenvector(m, v, p):
    """Whether M v is a multiple of v: every 2x2 minor of [v, Mv] vanishes,
    computed on plain Fractions (p == 0) or ints mod p."""
    vals = [x.val for x in v]
    mv = [sum(x.val * y for x, y in zip(row, vals)) for row in m.rows]
    minors = [vals[i] * mv[j] - vals[j] * mv[i] for i in range(4) for j in range(i)]
    return not any(x % p if p else x for x in minors)


@pytest.mark.parametrize("p", [0, 10007])
def test_invariant_search_one_linear_condition(p):
    # A* acts on the plane of A's double eigenvalue as 7 times the identity,
    # so the only nonzero condition on a line x*u1 + y*u2 there is row 0's
    # 3x + 5y = 0: its one point (-5 : 3) is the witness, the line
    # (-5/3 : 1), not (-5 : 1).  Neither eigenline is invariant.
    # Conjugating by S moves the witness by S.
    import random
    field = Field(p)
    a = Matrix.diagonal(field, [1, 2, 5, 5])
    astar = Matrix(field, [[0, 1, 3, 5], [1, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 7]])
    line = (0, 0, field(-5) * field(3).inverse(), 1)
    lines = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -5, 1), line]
    s = random_invertible(random.Random(f"one-condition:{p}"), field, Matrix)
    si = s.invert()
    for pair_, move in (((a, astar), lambda v: v), ((s * a * si, s * astar * si), s.apply)):
        w = common_invariant_subspace(*pair_)
        assert w == Subspace(field, 4, [move(line)])
        assert all(_is_eigenvector(m, w.basis[0], p) for m in pair_)
        if p:
            # the oracle's own invariance test picks the witness out of the
            # coordinate lines, the slip's line and the witness
            rows = [[[x.val for x in r] for r in m.rows] for m in pair_]
            candidates = []
            for v in lines:
                vec = tuple(field(c).val for c in move(v))
                candidates.append((1, {tuple(k * x % p for x in vec) for k in range(p)},
                                   [vec]))
            found = oracle.brute_force_common_invariant(*rows, p, candidates)
            assert Subspace(field, 4, found) == w


def test_invariant_search_checks_one_point_and_folds_no_gcd(monkeypatch, rng):
    # a nonzero linear condition on the plane's line family leaves one
    # candidate point, which the solver checks exactly; every family of
    # conjugated admissible and boundary pairs has such a condition, so
    # verify with orderings computes no polynomial gcd
    from tdpair121 import _poly, tdsystem

    cases = []
    for field in (QQ, Field(10007)):
        for make in [random_admissible_array] * 3 + [random_boundary_array] * 3:
            pa = make(rng, field)
            a, astar = canonical_matrices(pa)
            q = random_invertible(rng, field, Matrix)
            qi = q.invert()
            cases.append((qi * a * q, qi * astar * q, pa, make is random_admissible_array))
    gcds, families = [], []
    real_gcd, real_solve = _poly.gcd, tdsystem._solve_line_family

    def spy_gcd(a, b, p):
        gcds.append(p)
        return real_gcd(a, b, p)

    def spy_solve(p, *args):
        families.append(p)
        return real_solve(p, *args)

    monkeypatch.setattr(_poly, "gcd", spy_gcd)
    monkeypatch.setattr(tdsystem, "_solve_line_family", spy_solve)
    for a, astar, pa, irreducible in cases:
        report = verify_td_system(a, astar, pa.theta, pa.thetastar)
        assert report.shape == (1, 2, 1) and report.irreducible is irreducible
        assert (report.witness is None) is irreducible
    assert families and not gcds, (len(families), len(gcds))


def test_verify_conjugated_systems(rng, gf101):
    # non-canonical presentations: conjugate by random invertible maps
    from tdpair121 import extract_parameter_array
    for field in (QQ, gf101):
        for _ in range(5):
            pa = random_admissible_array(rng, field)
            sys_ = construct(pa)
            s = random_invertible(rng, field, Matrix)
            si = s.invert()
            a = s * sys_.A * si
            astar = s * sys_.Astar * si
            report = verify_td_system(a, astar, pa.theta, pa.thetastar)
            assert report.overall and report.shape == (1, 2, 1)
            conj = TDSystem.from_matrices(a, astar, pa.theta, pa.thetastar)
            assert extract_parameter_array(conj) == pa
            assert (pa.theta, pa.thetastar) in find_td_orderings(a, astar)


def test_system_json_roundtrip(tds):
    data = tds.to_json()
    field = Field.from_json(data["field"])
    a = Matrix.from_json(field, data["A"])
    astar = Matrix.from_json(field, data["Astar"])
    assert a == tds.A and astar == tds.Astar
