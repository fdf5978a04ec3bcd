import json
import sys
from pathlib import Path

import pytest

import oracle
import tdpair121
from conftest import (
    random_admissible_array,
    random_boundary_array,
    random_invertible,
    random_scalar,
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
    find_td_orderings,
    shape,
    split_decomposition,
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


def _orderings_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p):
    """Ordering pairs passing the tridiagonal axioms, by raw products
    E_i A* E_j and E*_i A E*_j of the primitive idempotents: ints mod p,
    or Fractions for p = 0."""
    from fractions import Fraction
    from itertools import permutations

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

    fa = far(idempotents(a_rows, evs_a), astar_rows)
    fs = far(idempotents(astar_rows, evs_s), a_rows)
    return [(tuple(evs_a[i] for i in pa), tuple(evs_s[i] for i in ps))
            for pa in permutations(range(3)) if fa[pa[0]][pa[2]] and fa[pa[2]][pa[0]]
            for ps in permutations(range(3)) if fs[ps[0]][ps[2]] and fs[ps[2]][ps[0]]]


@pytest.mark.parametrize("p", [7, 13, pytest.param(0, id="QQ")])
def test_find_orderings_match_idempotent_definition(rng, p):
    # pairs with eigenvalue pattern (a, b, b, c) on both sides: independently
    # conjugated (mostly not tridiagonal), conjugated by one matrix (every
    # ordering passes), and conjugated canonical systems (four orderings)
    field = Field(p)
    values = range(p) if p else range(-6, 7)
    counts = {0: 0, 4: 0, 36: 0}
    for trial in range(36):
        kind = trial % 3
        if kind == 2:
            pa = random_admissible_array(rng, field)
            a, astar = canonical_matrices(pa)
            s = random_invertible(rng, field, Matrix)
            a, astar = s * a * s.invert(), s * astar * s.invert()
            evs_a = sorted(x.val for x in pa.theta)
            evs_s = sorted(x.val for x in pa.thetastar)
        else:
            evs_a, evs_s = sorted(rng.sample(values, 3)), sorted(rng.sample(values, 3))
            s = random_invertible(rng, field, Matrix)
            s_star = random_invertible(rng, field, Matrix) if kind == 0 else s
            x, y, z = rng.sample(evs_a, 3)
            a = s * Matrix.diagonal(field, [x, y, y, z]) * s.invert()
            x, y, z = rng.sample(evs_s, 3)
            astar = s_star * Matrix.diagonal(field, [x, y, y, z]) * s_star.invert()
        a_rows = [[x.val for x in row] for row in a.rows]
        astar_rows = [[x.val for x in row] for row in astar.rows]
        expected = _orderings_from_idempotents(a_rows, astar_rows, evs_a, evs_s, p)
        got = [(tuple(x.val for x in th), tuple(x.val for x in ts))
               for th, ts in find_td_orderings(a, astar)]
        assert got == expected
        if len(got) in counts:
            counts[len(got)] += 1
    assert all(counts.values()), counts


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


def test_verify_unordered_builds_eigen_coordinates_once(monkeypatch, rng):
    # the ordering search and the checks read one view of the pair, so
    # each matrix is written in the other's eigenspace basis once: one
    # inversion of that basis per matrix, with orderings given or not
    from tdpair121 import tdsystem

    calls = []
    real = tdsystem._inv_grid

    def spy(g, p):
        calls.append(p)
        return real(g, p)

    monkeypatch.setattr(tdsystem, "_inv_grid", spy)
    for field in (QQ, Field(101)):
        pa = random_admissible_array(rng, field)
        a, astar = canonical_matrices(pa)
        q = random_invertible(rng, field, Matrix)
        qi = q.invert()
        a, astar = qi * a * q, qi * astar * q
        calls.clear()
        found, _, _, report = tdsystem._verify_unordered(a, astar)
        assert found == 4 and report.overall and report.shape == (1, 2, 1)
        assert len(calls) == 2, calls
        calls.clear()
        assert verify_td_system(a, astar, pa.theta, pa.thetastar).overall
        assert len(calls) == 2, calls


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


def test_shape_matches_enumeration_oracle_gf2():
    # GF(2) has no three distinct eigenvalues, so no pair passes the
    # tridiagonal checks; TDSystems built field by field, under every
    # ordering of 0 and 1 with repeats, are compared instead: two seeded
    # pairs, and the scalar pair (I, 0), whose orderings with a
    # non-eigenvalue give shapes such as (0, 4, 0)
    import random
    from itertools import product

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


# -- invariant subspace search ------------------------------------------------

def random_diagonalizable(rng, field):
    s = random_invertible(rng, field, Matrix)
    d = Matrix.diagonal(field, [random_scalar(rng, field) for _ in range(4)])
    return s * d * s.invert()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariant_search_agrees_with_bruteforce(rng, p):
    field = Field(p)
    subspaces = oracle.all_subspaces_mod(p)
    assert len(subspaces) == oracle.gaussian_binomial_total(p)
    trials = 25 if p < 5 else 8
    for _ in range(trials):
        a = random_diagonalizable(rng, field)
        astar = Matrix(field, [[random_scalar(rng, field) for _ in range(4)]
                               for _ in range(4)])
        got = common_invariant_subspace(a, astar)
        a_rows = [[x.val for x in row] for row in a.rows]
        astar_rows = [[x.val for x in row] for row in astar.rows]
        expected = oracle.brute_force_common_invariant(a_rows, astar_rows, p, subspaces)
        assert (got is None) == (expected is None)
        if got is not None:
            assert 0 < got.dim < 4
            assert got.is_invariant(a) and got.is_invariant(astar)


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
    # so the only condition on a line x*u1 + y*u2 there is row 0's
    # 3x + 5y = 0: a lone condition skips the gcd and is not made monic,
    # and the witness is the line (-5/3 : 1), not (-5 : 1).  Neither
    # eigenline is invariant.  Conjugating by S moves the witness by S.
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
