import ast
import inspect
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import oracle
import tdpair121
import tdpair121.bases as bases_module
from conftest import random_admissible_array, random_boundary_array, random_invertible
from tdpair121 import (
    BasisId,
    Decomposition,
    Field,
    Matrix,
    ParameterArray,
    QQ,
    SingularMatrixError,
    Subspace,
    TDSystem,
    admissible,
    basis_matrix,
    canonical_matrices,
    canonical_seed,
    construct,
    derived_params,
    eta_vectors,
    extract_parameter_array,
    represent,
    represent_formula,
    shape,
    split_decomposition,
    transition_formula,
    transition_numeric,
)

SPLIT_BASES = (BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ, BasisId.SPLIT_DZ, BasisId.SPLIT_DD)


@pytest.fixture
def tds(p0):
    return construct(p0)


@pytest.fixture
def eta(tds):
    return eta_vectors(tds)


def unit(j):
    return tuple(QQ(1 if i == j else 0) for i in range(4))


def test_eta_canonical_seed_is_first_standard_vector(tds, eta):
    assert eta.eta0star == unit(0)


def test_eta_chain_values(tds, eta):
    assert eta.eta0 == tuple(QQ(x) for x in oracle.P0_ETA0)
    assert eta.eta2 == tuple(QQ(x) for x in oracle.P0_ETA2)
    assert eta.eta2star == tuple(QQ(x) for x in oracle.P0_ETA2STAR)


def test_eta_vectors_live_in_their_eigenspaces(tds, eta):
    assert tds.Estar[0].apply(eta.eta0star) == eta.eta0star
    assert tds.E[0].apply(eta.eta0) == eta.eta0
    assert tds.E[2].apply(eta.eta2) == eta.eta2
    assert tds.Estar[2].apply(eta.eta2star) == eta.eta2star


def test_eta_rescaling_is_linear(tds, eta):
    c = QQ("7/3")
    scaled = eta_vectors(tds, tuple(c * x for x in eta.eta0star))
    assert scaled.eta0 == tuple(c * x for x in eta.eta0)
    assert scaled.eta2 == tuple(c * x for x in eta.eta2)
    assert scaled.eta2star == tuple(c * x for x in eta.eta2star)


def test_eta_seed_validation(tds):
    with pytest.raises(ValueError):
        eta_vectors(tds, (QQ(0),) * 4)
    with pytest.raises(ValueError):
        eta_vectors(tds, unit(1))  # not in the first dual eigenspace


def test_basis_matrices_invertible(tds, eta):
    for b in BasisId:
        assert not basis_matrix(tds, b, eta).det().is_zero


def test_split_zd_first_column(tds, eta):
    m = basis_matrix(tds, BasisId.SPLIT_ZD, eta)
    assert m.col(0) == unit(0)


def test_eiga_second_column_matches_projector_formula(tds, eta, p0):
    t0, t1, t2 = tds.theta
    m = basis_matrix(tds, BasisId.EIG_A, eta)
    lead = tds.A.shift(t0).apply(eta.eta0star)
    expected = tuple(
        (a + (t1 - t2) * b) / ((t1 - t0) * (t1 - t2))
        for a, b in zip(eta.eta2, lead))
    assert m.col(1) == expected == tds.E[1].apply(eta.eta0star)


def test_split_basis_columns_span_decomposition_components(tds, eta):
    for b, dec in (
        (BasisId.SPLIT_ZD, Decomposition.ZSTAR_D),
        (BasisId.SPLIT_ZZ, Decomposition.ZSTAR_Z),
        (BasisId.SPLIT_DZ, Decomposition.DSTAR_Z),
        (BasisId.SPLIT_DD, Decomposition.DSTAR_D),
    ):
        m = basis_matrix(tds, b, eta)
        comps = split_decomposition(tds, dec)
        assert Subspace(QQ, 4, [m.col(0)]) == comps[0]
        assert Subspace(QQ, 4, [m.col(1), m.col(2)]) == comps[1]
        assert Subspace(QQ, 4, [m.col(3)]) == comps[2]


def test_represent_split_zd_tabulated_matrix(tds, eta, p0):
    got = represent(tds, "A", BasisId.SPLIT_ZD, eta)
    assert got == Matrix(QQ, [[1, 0, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, 0], [0, 1, "-5/4", -1]])
    assert got == represent_formula(p0, "A", BasisId.SPLIT_ZD)


def test_represent_eigenbases_are_diagonal(tds, eta):
    t0, t1, t2 = tds.theta
    s0, s1, s2 = tds.thetastar
    assert represent(tds, "A", BasisId.EIG_A, eta) == Matrix.diagonal(
        QQ, [t0, t1, t1, t2])
    assert represent(tds, "Astar", BasisId.EIG_ASTAR, eta) == Matrix.diagonal(
        QQ, [s0, s1, s1, s2])


def test_all_twelve_representations_match_formulas(rng, gf101, p0):
    arrays = [p0]
    arrays += [random_admissible_array(rng, QQ) for _ in range(3)]
    arrays += [random_admissible_array(rng, gf101) for _ in range(5)]
    for pa in arrays:
        sys_ = construct(pa)
        eta_ = eta_vectors(sys_)
        for which in ("A", "Astar"):
            for b in BasisId:
                assert represent(sys_, which, b, eta_) == represent_formula(pa, which, b)


def test_transition_same_basis_is_identity(tds, eta, p0):
    for b in BasisId:
        assert transition_numeric(tds, b, b, eta) == Matrix.identity(QQ, 4)
        assert transition_formula(p0, b, b) == Matrix.identity(QQ, 4)


def test_transition_ring_pair_product_identity(tds, eta):
    fwd = transition_numeric(tds, BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ, eta)
    back = transition_numeric(tds, BasisId.SPLIT_ZZ, BasisId.SPLIT_ZD, eta)
    assert fwd * back == Matrix.identity(QQ, 4)


def test_transition_formula_entries_at_p0(p0):
    t = transition_formula(p0, BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ)
    assert t.rows[0][1] == p0.theta[0] - p0.theta[2] == QQ(2)
    t = transition_formula(p0, BasisId.SPLIT_ZZ, BasisId.SPLIT_DZ)
    assert t.rows[0][0] == p0.phi == QQ(1)


def test_transition_eigenbases_pair_at_p0(tds, eta, p0):
    numeric = transition_numeric(tds, BasisId.EIG_A, BasisId.EIG_ASTAR, eta)
    assert numeric == transition_formula(p0, BasisId.EIG_A, BasisId.EIG_ASTAR)


def test_all_thirty_transitions_match_formulas(rng, gf101, p0):
    arrays = [p0, random_admissible_array(rng, QQ),
              random_admissible_array(rng, gf101)]
    for pa in arrays:
        sys_ = construct(pa)
        eta_ = eta_vectors(sys_)
        for frm in BasisId:
            for to in BasisId:
                if frm is to:
                    continue
                assert transition_numeric(sys_, frm, to, eta_) == \
                    transition_formula(pa, frm, to)


def test_transition_forward_backward_products(rng, gf101):
    pa = random_admissible_array(rng, gf101)
    eye = Matrix.identity(pa.field, 4)
    seen = set()
    for frm in BasisId:
        for to in BasisId:
            if frm is to or (to, frm) in seen:
                continue
            seen.add((frm, to))
            assert transition_formula(pa, frm, to) * \
                transition_formula(pa, to, frm) == eye
    assert len(seen) == 15


def test_representation_conjugation_consistency(rng, gf101):
    pa = random_admissible_array(rng, gf101)
    sys_ = construct(pa)
    eta_ = eta_vectors(sys_)
    for which in ("A", "Astar"):
        base = represent(sys_, which, BasisId.SPLIT_ZD, eta_)
        for b in BasisId:
            t = transition_numeric(sys_, BasisId.SPLIT_ZD, b, eta_)
            assert represent(sys_, which, b, eta_) == t.invert() * base * t


def test_transitions_independent_of_seed_scale(tds, eta, p0):
    scaled = eta_vectors(tds, tuple(QQ(-5) * x for x in eta.eta0star))
    for frm in BasisId:
        for to in BasisId:
            if frm is to:
                continue
            assert transition_numeric(tds, frm, to, scaled) == \
                transition_numeric(tds, frm, to, eta)


def test_basis_closure_identity(tds, eta, p0):
    # second transformation sends the second basis vector back into the
    # span of the first two, with the derived scalar as coefficient
    dp = derived_params(p0)
    t0 = tds.theta[0]
    s1 = tds.thetastar[1]
    lead = tds.A.shift(t0).apply(eta.eta0star)
    got = tds.Astar.apply(lead)
    expected = tuple(dp.varphi1 * a + s1 * b for a, b in zip(eta.eta0star, lead))
    assert got == expected


def test_transition_formula_requires_admissible(p0):
    from tdpair121 import ParameterArray
    bad = ParameterArray(QQ, p0.theta, p0.thetastar, QQ.zero, p0.phi)
    with pytest.raises(ValueError):
        transition_formula(bad, BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ)


@pytest.mark.parametrize("call, shown", [
    (lambda pa, tds: represent_formula(pa, "A", "x"), "'x'"),
    (lambda pa, tds: transition_formula(pa, "x", "x"), "'x'"),
    (lambda pa, tds: transition_formula(pa, None, None), "None"),
    (lambda pa, tds: transition_formula(pa, "a", "b"), "'a'"),
    (lambda pa, tds: transition_formula(pa, BasisId.SPLIT_ZD, "x"), "'x'"),
    (lambda pa, tds: transition_numeric(tds, "x", "x"), "'x'"),
    (lambda pa, tds: transition_numeric(tds, "a", "b"), "'a'"),
    (lambda pa, tds: basis_matrix(tds, "x"), "'x'"),
])
def test_formula_and_numeric_sides_refuse_an_unknown_basis_alike(p0, call, shown):
    # the formula side raised KeyError, or returned the identity for
    # transition_formula(pa, "x", "x"), where the numeric side raised this
    with pytest.raises(ValueError, match=f"^unknown basis {shown}$"):
        call(p0, construct(p0))


def test_formulas_share_one_admissibility_gate(gf101):
    # a repeated theta once made represent_formula divide by zero, and a
    # zero phi let it return all 12 matrices; both formula functions now
    # refuse every inadmissible array with the same ValueError
    ok = ParameterArray.make(gf101, (1, 2, 3), (4, 5, 7), 9, 11)
    assert admissible(ok).ok
    bad = [replace(ok, theta=(gf101(1), gf101(1), gf101(3))),
           replace(ok, phi=gf101.zero),
           random_boundary_array(random.Random(5), gf101)]
    for pa in bad:
        failed = list(admissible(pa).failed)
        assert failed
        message = f"inadmissible parameter array, failed {failed}"
        for which in ("A", "Astar"):
            for b in BasisId:
                with pytest.raises(ValueError) as info:
                    represent_formula(pa, which, b)
                assert str(info.value) == message
        for frm in BasisId:
            for to in BasisId:
                with pytest.raises(ValueError) as info:
                    transition_formula(pa, frm, to)
                assert str(info.value) == message


def test_tables_invert_once_per_array(monkeypatch, gf101):
    # the eight inversions of the table context run once per array: an
    # identity transition only passes the admissibility gate, where it
    # once rebuilt the context on every call
    calls = []
    real = bases_module._inverses

    def spy(vals, p):
        calls.append(p)
        return real(vals, p)

    monkeypatch.setattr(bases_module, "_inverses", spy)
    pa = ParameterArray.make(gf101, (1, 2, 3), (4, 5, 7), 9, 11)
    for frm, to in ((BasisId.EIG_A, BasisId.EIG_A), (BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ),
                    (BasisId.SPLIT_DD, BasisId.SPLIT_DD)):
        transition_formula(pa, frm, to)
    represent_formula(pa, "A", BasisId.SPLIT_ZD)
    assert calls == [101]


def _tables():
    """The closed-form tables of bases.py: the functions whose one return
    is a 4x4 list literal, read off the module's source."""
    tree = ast.parse(inspect.getsource(bases_module))
    out = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            ret = fn.body[-1]
            if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.List)
                    and len(ret.value.elts) == 4
                    and all(isinstance(r, ast.List) and len(r.elts) == 4
                            for r in ret.value.elts)):
                out.append(fn)
    return out


def test_tables_divide_nowhere_and_call_nothing():
    # each of the 12 + 30 tables is a transcription on its own: it divides
    # nowhere (the inverses are read from its parameters), calls no
    # function, assigns no name and reads no name but its parameters, so it
    # is never composed from another table or from the numeric side.  Its
    # parameters are the names of the context it reads, each of them read,
    # and together the 42 tables read every name of the context
    tables = _tables()
    assert len(tables) == 42
    declared = set()
    for fn in tables:
        params = {a.arg for a in fn.args.args}
        read = set()
        for node in ast.walk(fn):
            assert not isinstance(node, (ast.Div, ast.FloorDiv, ast.Call, ast.Attribute)), \
                f"{fn.name}: {ast.dump(node)[:60]}"
            if isinstance(node, ast.Name):
                assert isinstance(node.ctx, ast.Load), f"{fn.name} assigns {node.id}"
                assert node.id in params, f"{fn.name} reads {node.id}"
                read.add(node.id)
        assert read == params, f"{fn.name} never reads {params - read}"
        declared |= params
    for field in (QQ, Field(101)):
        pa = ParameterArray.make(field, (1, 2, 3), (4, 5, 7), 9, 11)
        assert declared == set(bases_module._ctx(pa))


def test_one_registry_keys_the_42_tables_by_their_names():
    # _TABLES is read off the tables' names at import: _rep_<which>_<code>
    # under (which, basis), _t_<frm>_<to> under (frm, to).  It holds each of
    # the 42 tables of the source once, with the getter of the context
    # values its parameters name, in their order
    registry = bases_module._TABLES
    assert set(registry) == ({(w, b) for w in ("A", "Astar") for b in BasisId}
                             | {(f, t) for f in BasisId for t in BasisId if f is not t})
    assert registry[("A", BasisId.SPLIT_ZD)][0] is bases_module._rep_a_zd
    assert registry[(BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ)][0] is bases_module._t_zd_zz
    tables = {fn.name: [a.arg for a in fn.args.args] for fn in _tables()}
    assert sorted(table.__name__ for table, _ in registry.values()) == sorted(tables)
    assert all(getattr(bases_module, table.__name__) is table for table, _ in registry.values())
    names = {name: name for name in bases_module._ctx(
        ParameterArray.make(Field(101), (1, 2, 3), (4, 5, 7), 9, 11))}
    for table, reads in registry.values():
        assert list(reads(names)) == tables[table.__name__], table.__name__


@pytest.mark.parametrize("p, bits", [(5, 0), (7, 0), (2 ** 61 - 1, 0), (0, 100)])
def test_all_42_formulas_match_numeric_where_slips_show(p, bits):
    # small primes wrap every entry, a 61-bit prime leaves products of
    # several residues far from reduced, and 100-bit rationals give the
    # numeric side grids over non-least denominators; each formula must
    # equal its numeric twin on the grids and on the boxed rows alike
    rng = random.Random(f"formula-slips-{p}-{bits}")
    field = Field(p)
    for _ in range(3):
        pa = wide_admissible_array(rng, field, bits)
        tds = construct(pa)
        pairs = [(represent(tds, w, b), represent_formula(pa, w, b))
                 for w in ("A", "Astar") for b in BasisId]
        pairs += [(transition_numeric(tds, f, t), transition_formula(pa, f, t))
                  for f in BasisId for t in BasisId if f is not t]
        assert len(pairs) == 42
        for numeric, formula in pairs:
            assert numeric == formula and formula == numeric
            assert all(is_canonical(x, p) for r in vals(formula) for x in r)
            assert formula.rows == numeric.rows


# -- numeric matrices against an independent computation -----------------------

def vals(m):
    return [[x.val for x in r] for r in m.rows]


def is_canonical(v, p):
    """A reduced Fraction with positive denominator, or a residue in [0, p)."""
    if p:
        return type(v) is int and 0 <= v < p
    return (type(v) is Fraction and v.denominator > 0
            and math.gcd(v.numerator, v.denominator) == 1)


def wide_admissible_array(rng, field, bits):
    """An admissible array with entries of up to `bits` bits over QQ, or
    uniform residues over GF(p)."""
    def draw():
        if field.p:
            return field(rng.randrange(field.p))
        return field(Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits)))

    while True:
        pa = ParameterArray(field, tuple(draw() for _ in range(3)),
                            tuple(draw() for _ in range(3)), draw(), draw())
        if admissible(pa).ok:
            return pa


@pytest.mark.parametrize("p, bits", [(0, 3), (0, 100), (3, 0), (101, 0), (10007, 0)])
def test_numeric_matrices_match_independent_products(p, bits):
    # represent = B^-1 M B and transition_numeric = B_frm^-1 B_to, with the
    # inverse and products taken by tests/oracle.py on plain values, for
    # seeds c * eta0* off the canonical one; B itself scales by c
    rng = random.Random(f"raw-grids-{p}-{bits}")
    field = Field(p)
    for _ in range(2):
        pa = wide_admissible_array(rng, field, bits)
        tds = construct(pa)
        canonical = {b: basis_matrix(tds, b) for b in BasisId}
        for _ in range(3):
            c = field.zero
            while c.is_zero or c == field.one:
                c = field(rng.randrange(p)) if p else field(
                    Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits)))
            eta = eta_vectors(tds, tuple(c * x for x in canonical_seed(tds)))
            bases, inverses = {}, {}
            for b in BasisId:
                m = basis_matrix(tds, b, eta)
                assert m == canonical[b].scale(c)
                bases[b] = vals(m)
                inverses[b] = oracle.mat_inverse(bases[b], p)
            for which, m in (("A", tds.A), ("Astar", tds.Astar)):
                for b in BasisId:
                    got = vals(represent(tds, which, b, eta))
                    assert all(is_canonical(x, p) for r in got for x in r)
                    expected = oracle.mat_mul(vals(m), bases[b], p)
                    assert got == oracle.mat_mul(inverses[b], expected, p)
            for frm in BasisId:
                for to in BasisId:
                    got = vals(transition_numeric(tds, frm, to, eta))
                    assert all(is_canonical(x, p) for r in got for x in r)
                    assert got == oracle.mat_mul(inverses[frm], bases[to], p)


# -- each derived object once ---------------------------------------------------

def test_system_without_idempotents_fails_closed():
    # a TDSystem built field by field with E = Estar = () has decompositions,
    # a shape and a parameter array, read off its eigenspaces; the bases read
    # E*_0, E_1 and E*_1, so every entry point refuses it with ValueError
    field = Field(7)
    pa = ParameterArray.make(field, (1, 2, 3), (4, 5, 6), 3, 2)
    a, astar = canonical_matrices(pa)
    bare = TDSystem(a, astar, pa.theta, pa.thetastar, (), ())
    seed = canonical_seed(construct(pa))
    calls = [
        lambda: canonical_seed(bare),
        lambda: eta_vectors(bare),
        lambda: eta_vectors(bare, seed),
        lambda: basis_matrix(bare, BasisId.EIG_A),
        lambda: basis_matrix(bare, BasisId.EIG_ASTAR, eta_vectors(construct(pa))),
        lambda: represent(bare, "A", BasisId.SPLIT_ZD),
        lambda: transition_numeric(bare, BasisId.EIG_A, BasisId.SPLIT_DD),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="no idempotents"):
            call()
    assert shape(bare) == (1, 2, 1)
    assert extract_parameter_array(bare) == pa


def test_eta_vectors_without_seed_is_the_canonical_chain(rng, gf101):
    for field in (QQ, gf101):
        tds = construct(random_admissible_array(rng, field))
        own = eta_vectors(tds)
        assert own == eta_vectors(tds, canonical_seed(tds))
        assert eta_vectors(tds) is own


def test_the_42_numeric_matrices_cost_six_eliminations_and_two_products(monkeypatch, rng):
    # each basis B is solved once against all six bases and its A and A*
    # images, B^-1 [B_SplitZD | ... | B_EigAstar | A B | A* B], one
    # elimination of a 4x36 grid, after two wide products A (all six) and
    # A* (all six); the 42 matrices are slices of the six grids (they took
    # 6 inversions and 54 products), and reading them again costs nothing.
    # Growing the chain applies A or A* 7 times, and the bases take 9 more
    # matrix-vector products: (A - t0)eta0*, (A - t2)eta0* and (A* - s0)eta2
    # are kept from the chain (12, 19 in all, when each was formed twice).
    # eta_vectors keeps the record it grows from another seed, so that
    # eta's matrices cost the bases alone, the three steps included.
    calls = []
    for name in ("_rref", "_mul_grids", "_apply_raw"):
        real = getattr(tdpair121.linalg, name)

        def spy(*args, _n=name, _f=real):
            width = len(args[0][0]) if _n == "_rref" else None
            calls.append((_n, width, sys._getframe(1).f_code.co_name if width else None))
            return _f(*args)

        for module in vars(tdpair121).values():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    for field in (QQ, Field(101)):
        tds = construct(random_admissible_array(rng, field))
        extract_parameter_array(tds)  # the split scalars are read first
        calls.clear()
        eta = eta_vectors(tds)
        assert calls == [("_apply_raw", None, None)] * 7
        calls.clear()
        for _ in range(2):
            matrices = [represent(tds, w, b) for w in ("A", "Astar") for b in BasisId]
            matrices += [transition_numeric(tds, f, t) for f in BasisId for t in BasisId
                         if f is not t]
            assert len(matrices) == 42
        solved = [("_apply_raw", None, None)] * 9 + [("_mul_grids", None, None)] * 2 + \
            [("_rref", 36, "_inv_grid")] * 6
        assert sorted(calls, key=str) == solved, calls
        other = eta_vectors(tds, tuple(tds.field(3) * x for x in eta.eta0star))
        calls.clear()
        assert represent(tds, "A", BasisId.EIG_A, other) == matrices[4]
        assert sorted(calls, key=str) == solved, calls


def test_one_other_eta_solves_its_six_bases_once(monkeypatch, rng):
    # the system keeps the record of the last non-canonical eta beside its
    # own, so the 42 matrices of one such eta run 6 eliminations, where each
    # call once built and solved a fresh set of bases (252 eliminations);
    # a second eta takes the one slot, and the canonical chain keeps its own
    calls = []
    real = bases_module._inv_grid
    monkeypatch.setattr(bases_module, "_inv_grid",
                        lambda *args: calls.append(args[1]) or real(*args))

    def all_42(eta):
        calls.clear()
        out = [represent(tds, w, b, eta) for w in ("A", "Astar") for b in BasisId]
        out += [transition_numeric(tds, f, t, eta) for f in BasisId for t in BasisId
                if f is not t]
        assert len(out) == 42
        return out

    for field in (QQ, Field(10007)):
        tds = construct(random_admissible_array(rng, field))
        own = all_42(None)
        seed = eta_vectors(tds).eta0star
        etas = [eta_vectors(tds, tuple(field(k) * x for x in seed)) for k in (3, 5)]
        assert all_42(etas[0]) == own and len(calls) == 6
        assert all_42(etas[0]) == own and calls == []
        assert all_42(etas[1]) == own and len(calls) == 6
        assert all_42(eta_vectors(tds)) == own and calls == []
        assert all_42(etas[1]) == own and calls == []


def test_an_eta_that_is_not_its_own_chain_is_refused():
    # a handed-in eta is grown again from its eta0* and must come back: taken
    # as it stands, an eta with only eta0* doubled gives 34 of the 42 numeric
    # matrices wrong, and another system's eta wrong bases, without error
    for field in (QQ, Field(101)):
        tds, other = (construct(ParameterArray.make(field, (1, 2, 3), (5, 7, 11), vp, ph))
                      for vp, ph in ((13, 17), (17, 13)))
        eta = eta_vectors(tds)
        doubled = replace(eta, eta0star=tuple(field(2) * x for x in eta.eta0star))
        for bad in (doubled, eta_vectors(other)):
            assert bad != eta
            for call in (lambda: basis_matrix(tds, BasisId.SPLIT_ZD, bad),
                         lambda: represent(tds, "A", BasisId.EIG_A, bad),
                         lambda: transition_numeric(tds, BasisId.SPLIT_ZD, BasisId.EIG_A, bad)):
                with pytest.raises(ValueError):
                    call()
        twice = eta_vectors(tds, doubled.eta0star)
        assert represent(tds, "A", BasisId.EIG_A, twice) == represent(tds, "A", BasisId.EIG_A)


def test_the_qq_tables_subtract_nowhere(monkeypatch, rng):
    # _ctx forms the six eigenvalue differences once per array, in both
    # signs, with the inverse products the tables share; the 42 tables read
    # them by name, so once the context is built no table subtracts (the
    # tables made 184 subtractions per array when each formed its own)
    calls = []
    real = bases_module._Q.__sub__
    monkeypatch.setattr(bases_module._Q, "__sub__", lambda a, b: calls.append(b) or real(a, b))
    for _ in range(3):
        pa = random_admissible_array(rng, QQ)
        pa._table_ctx
        calls.clear()
        matrices = [represent_formula(pa, w, b) for w in ("A", "Astar") for b in BasisId]
        matrices += [transition_formula(pa, f, t) for f in BasisId for t in BasisId
                     if f is not t]
        assert len(matrices) == 42 and calls == []
        tds = construct(pa)
        assert matrices == [represent(tds, w, b) for w in ("A", "Astar") for b in BasisId] + \
            [transition_numeric(tds, f, t) for f in BasisId for t in BasisId if f is not t]


def test_the_qq_pipeline_hashes_no_fraction(monkeypatch, rng):
    # a matrix keeps one frame and tells an ordering of its spectrum by
    # comparing raw values with ==, never by hashing them; construct, verify
    # on its matrices under every ordering of theta (each relabels the kept
    # frame), eigen_data, the ordering search, the chain and the 42 numeric
    # matrices then hash no Fraction (Fraction.__hash__ is Python code, and
    # frame keys of Fractions once hashed about 30 per array)
    from itertools import permutations

    from tdpair121 import eigen_data, find_td_orderings, verify_td_system

    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or real(x))
    for _ in range(3):
        pa = random_admissible_array(rng, QQ)
        tds = construct(pa)
        reports = [verify_td_system(tds.A, tds.Astar, theta, tds.thetastar)
                   for theta in permutations(tds.theta)]
        assert [r.overall for r in reports] == [True, False, False, False, False, True]
        assert eigen_data(tds.A).diagonalizable and eigen_data(tds.Astar).diagonalizable
        assert len(find_td_orderings(tds.A, tds.Astar)) == 4
        eta_vectors(tds)
        matrices = [represent(tds, w, b) for w in ("A", "Astar") for b in BasisId]
        matrices += [transition_numeric(tds, f, t) for f in BasisId for t in BasisId
                     if f is not t]
        assert len(matrices) == 42 and calls == []


def _bases_calls(tds):
    """All 48 numeric calls: 6 basis matrices, 12 representations and 36
    transitions, the identities included."""
    calls = [lambda b=b: basis_matrix(tds, b) for b in BasisId]
    calls += [lambda w=w, b=b: represent(tds, w, b) for w in ("A", "Astar") for b in BasisId]
    calls += [lambda f=f, t=t: transition_numeric(tds, f, t) for f in BasisId for t in BasisId]
    return calls


def test_the_six_bases_stand_or_fall_together():
    # on random GF(5) systems a basis can be dependent, or the split
    # scalars unreadable, while other bases are not: every numeric call
    # now raises that first failure, where represent(., EigA) returned on
    # such systems, so no "transition" into a dependent basis is returned
    field = Field(5)
    outcomes = {}
    for i in range(25):
        rng = random.Random(f"bases-fall-together:{i}")
        pair = []
        for _ in range(2):
            vals = [field(x) for x in rng.sample(range(5), 3)]
            s = random_invertible(rng, field, Matrix)
            d = Matrix.diagonal(field, [vals[0], vals[1], vals[1], vals[2]])
            pair.append((s * d * s.invert(), vals))
        (a, theta), (astar, thetastar) = pair
        tds = TDSystem.from_matrices(a, astar, theta, thetastar)
        try:
            eta_vectors(tds)
        except ValueError:
            continue  # a chain vector vanishes, so there are no bases to build
        got = set()
        for call in _bases_calls(tds):
            try:
                call()
                got.add(None)
            except ValueError as e:  # SingularMatrixError included
                got.add((type(e), str(e)))
        assert len(got) == 1, (i, got)
        outcomes[i] = got.pop()
    dependent = "{} columns are dependent; input is not shape (1,2,1)".format
    unread = (ValueError, "split scalars vanish; input is not a shape-(1,2,1) system")
    assert outcomes == {
        0: (SingularMatrixError, dependent("SplitDZ")), 1: None,
        5: (SingularMatrixError, dependent("SplitZZ")), 6: unread,
        7: (SingularMatrixError, dependent("SplitZZ")),
        8: (SingularMatrixError, dependent("SplitZD")),
        9: unread,  # SplitZZ is dependent too: the columns are read first
        17: unread, 22: (SingularMatrixError, dependent("SplitZD")), 24: None,
    }
