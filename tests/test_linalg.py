import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

import oracle
from conftest import deadline, random_invertible, random_scalar, referents
from tdpair121 import (
    Field,
    Matrix,
    ParameterArray,
    QQ,
    SingularMatrixError,
    Subspace,
    charpoly,
    construct,
    eigen_data,
    linalg,
    poly_roots,
    primitive_idempotents,
    subspace_combine,
    subspace_intersection,
    subspace_sum,
    verify_td_system,
)


def p0_system():
    from tdpair121 import ParameterArray
    return construct(ParameterArray.make(QQ, (1, 0, -1), (1, 0, -1), 2, 1))


def test_matrix_product_and_identity():
    m = Matrix(QQ, [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert m * Matrix.identity(QQ, 4) == m
    mm = m * m
    assert mm.rows[0][1] == QQ(4)
    assert repr(mm) == "Matrix[1 4 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1]"


def test_invert_identity_and_diagonal():
    eye = Matrix.identity(QQ, 4)
    assert eye.invert() == eye
    d = Matrix.diagonal(QQ, [2, 1, 1, 3])
    assert d.invert() == Matrix.diagonal(QQ, [Fraction(1, 2), 1, 1, Fraction(1, 3)])


def test_invert_singular():
    m = Matrix(QQ, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        m.invert()


def test_invert_errors_iff_rank_deficient(rng):
    for field in (QQ, Field(5)):
        for _ in range(60):
            m = Matrix(field, [[random_scalar(rng, field, 3) for _ in range(4)]
                               for _ in range(4)])
            if m.rank() == 4:
                assert m.invert() * m == Matrix.identity(field, 4)
            else:
                with pytest.raises(SingularMatrixError):
                    m.invert()


def test_eigen_data_diagonal_matrix():
    ed = eigen_data(Matrix.diagonal(QQ, [1, 0, 0, -1]))
    assert [str(v) for v in ed.eigenvalues] == ["-1", "0", "1"]
    assert ed.multiplicities == (1, 2, 1)
    assert [s.dim for s in ed.eigenspaces] == [1, 2, 1]
    assert ed.diagonalizable


def test_eigen_data_nilpotent_jordan_block():
    m = Matrix(QQ, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    ed = eigen_data(m)
    assert [str(v) for v in ed.eigenvalues] == ["0"]
    assert ed.multiplicities == (4,)
    assert ed.eigenspaces[0].dim == 1
    assert not ed.diagonalizable


def test_eigen_data_no_rational_roots():
    # x^2 - 2 has no rational root; block diag with a 2x2 rotation-like part
    m = Matrix(QQ, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    ed = eigen_data(m)
    assert [str(v) for v in ed.eigenvalues] == ["3"]
    assert not ed.diagonalizable


def test_eigen_data_canonical_system_matches_row_reduction_oracle():
    tds = p0_system()
    ed = eigen_data(tds.A)
    got = {v.val: s.dim for v, s in zip(ed.eigenvalues, ed.eigenspaces)}
    assert got == oracle.P0_A_EIGEN_DIMS
    assert ed.diagonalizable
    for theta, expected_dim in oracle.P0_A_EIGEN_DIMS.items():
        assert oracle.eigenspace_dim_fraction(oracle.P0_A_ROWS, theta) == expected_dim


def test_charpoly_of_diagonal():
    cs = charpoly(Matrix.diagonal(QQ, [1, 0, 0, -1]))
    # x^4 - x^2  (roots 1, 0, 0, -1)
    assert [str(c) for c in cs] == ["0", "0", "-1", "0", "1"]
    assert poly_roots(QQ, cs) == [(QQ(-1), 1), (QQ(0), 2), (QQ(1), 1)]


def test_poly_roots_prime_field():
    f5 = Field(5)
    # x^2 + 1 over GF(5): roots 2 and 3
    roots = poly_roots(f5, [f5(1), f5(0), f5(1)])
    assert [(str(r), m) for r, m in roots] == [("2", 1), ("3", 1)]
    # a nonzero constant has no root; from p = 64 on, without trying residues
    assert poly_roots(Field(101), [5]) == []


def _int_poly_mul(a, b, p):
    """Product of coefficient lists, reduced mod p (p > 0) or exact (p == 0)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


def _random_split_poly(rng, p):
    """Int coefficients (low degree first) of a random polynomial of degree
    1 to 4 over GF(p): a nonzero scalar times linear factors, some of them
    repeated, and irreducible quadratics."""
    degree = rng.randint(1, 4)
    cs = [rng.randrange(1, p)]
    while len(cs) - 1 < degree:
        if degree - (len(cs) - 1) >= 2 and rng.random() < 0.3:
            factor = [rng.randrange(p), rng.randrange(p), 1]
            if oracle.roots_mod(factor, p):
                continue
        elif len(cs) > 1 and rng.random() < 0.4:
            factor = [-rng.choice(oracle.roots_mod(cs, p) or [(0, 1)])[0], 1]
        else:
            factor = [-rng.randrange(p), 1]
        cs = _int_poly_mul(cs, factor, p)
    return cs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 10007])
def test_poly_roots_prime_field_matches_bruteforce(p):
    import random
    rng = random.Random(f"poly_roots:{p}")
    field = Field(p)
    for _ in range(40 if p < 10007 else 15):
        cs = _random_split_poly(rng, p)
        got = [(r.val, m) for r, m in poly_roots(field, [field(c) for c in cs])]
        assert got == oracle.roots_mod(cs, p), cs


def test_poly_roots_large_prime():
    p = 2**31 - 1
    field = Field(p)
    # (x - 5)^2 (x + 1) (x^2 + 1); -1 is not a square because p = 3 mod 4
    cs = [1]
    for factor in ([-5, 1], [-5, 1], [1, 1], [1, 0, 1]):
        cs = _int_poly_mul(cs, factor, p)
    roots = poly_roots(field, [field(c) for c in cs])
    assert [(r.val, m) for r, m in roots] == [(5, 2), (p - 1, 1)]


def test_every_constructor_refuses_an_empty_or_ragged_grid():
    for field in (QQ, Field(7)):
        for build in (
            lambda: Matrix(field, []),
            lambda: Matrix(field, [[]]),
            lambda: Matrix(field, [[1, 2], [3]]),
            lambda: Matrix.identity(field, 0),
            lambda: Matrix.zeros(field, 0, 0),
            lambda: Matrix.zeros(field, 2, 0),
            lambda: Matrix.zeros(field, 0, 2),
            lambda: Matrix.diagonal(field, []),
            lambda: Matrix.from_columns(field, []),
            lambda: Matrix.from_columns(field, [[]]),
            lambda: Matrix.from_columns(field, [[1, 2], [3]]),
        ):
            with pytest.raises(ValueError, match="rectangular, nonempty"):
                build()


def test_shift_refuses_a_non_square_matrix():
    # shift used to subtract c on the diagonal of any rectangle
    for field in (QQ, Field(7)):
        for rows in ([[1, 2, 3]], [[1], [2]], [[1, 2, 3], [4, 5, 6]]):
            with pytest.raises(ValueError, match="non-square"):
                Matrix(field, rows).shift(field(1))


def test_matrix_add_sub_reject_shape_mismatch():
    big = Matrix.identity(QQ, 3)
    small = Matrix.identity(QQ, 2)
    wide = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    for x, y in ((big, small), (small, big), (small, wide)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y


# Products keep the grid they are built from, so the matrices below that
# come out of a product compare their grids in Matrix.__eq__.

@pytest.mark.parametrize("p", [0, 7])
def test_grid_equality_refuses_shape_mismatch(p):
    # a 4x3 or 3x4 cut of a 4x4 matrix agrees with it wherever zip would
    # pair entries up; equality must still be False, both ways round
    field = Field(p)
    rows = [[1, 2, 3, "1/2"], [0, 5, "2/3", 4], [6, 0, 1, 1], ["3/4", 2, 0, 5]]
    m = Matrix(field, rows) * Matrix.identity(field, 4)
    cut_cols = Matrix(field, [r[:3] for r in rows]) * Matrix.identity(field, 3)
    cut_rows = Matrix.identity(field, 3) * Matrix(field, rows[:3])
    for a, b in ((m, cut_cols), (m, cut_rows), (cut_cols, cut_rows)):
        assert a != b and b != a


def test_grid_equality_over_a_non_least_denominator():
    # every entry of J/2 times J/3 is 4/6 = 2/3: the product's grid holds 4
    # over 6, not 2 over 3; it equals the same matrix read from JSON, both
    # before and after that one has built a grid of its own
    half = Matrix(QQ, [["1/2"] * 4] * 4)
    third = Matrix(QQ, [["1/3"] * 4] * 4)
    prod = half * third * Matrix.identity(QQ, 4)
    read = Matrix.from_json(QQ, [["2/3"] * 4] * 4)
    assert prod == read and read == prod
    read * Matrix.identity(QQ, 4)
    assert prod == read and read == prod
    assert hash(prod) == hash(read)
    assert prod != read.scale(QQ(2))


def test_grid_equality_refuses_other_fields():
    rows = [[1, 2, 0, 3], [0, 1, 4, 0], [2, 0, 1, 1], [1, 1, 0, 2]]
    mats = [Matrix(f, rows) * Matrix.identity(f, 4) for f in (QQ, Field(5), Field(7))]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            assert (a == b) == (i == j)


def test_subspace_contains_rejects_length_mismatch():
    line = Subspace(QQ, 4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        line.contains((1,))
    with pytest.raises(ValueError):
        line.contains((1, 0, 0, 0, 0))
    assert line.contains((3, 0, 0, 0))


def test_primitive_idempotents_diagonal():
    m = Matrix.diagonal(QQ, [1, 0, 0, -1])
    e = primitive_idempotents(m, [QQ(1), QQ(0), QQ(-1)])
    assert e[0] == Matrix.diagonal(QQ, [1, 0, 0, 0])
    assert e[1] == Matrix.diagonal(QQ, [0, 1, 1, 0])
    assert e[2] == Matrix.diagonal(QQ, [0, 0, 0, 1])


def test_primitive_idempotents_canonical_system():
    tds = p0_system()
    e0 = tds.E[0]
    for j in range(4):
        expected = oracle.P0_E0_COLUMN if j == 0 else (0, 0, 0, 0)
        assert e0.col(j) == tuple(QQ(x) for x in expected)
    assert e0 * e0 == e0
    assert (tds.E[0] * tds.E[1]).is_zero


def test_primitive_idempotent_identities_random(rng):
    for field in (QQ, Field(13)):
        for _ in range(15):
            s = random_invertible(rng, field, Matrix)
            evs = []
            while len(evs) < 3:
                x = random_scalar(rng, field, 4)
                if x not in evs:
                    evs.append(x)
            d = Matrix.diagonal(field, [evs[0], evs[1], evs[1], evs[2]])
            m = s * d * s.invert()
            e = primitive_idempotents(m, evs)
            total = e[0] + e[1] + e[2]
            assert total == Matrix.identity(field, 4)
            recon = e[0].scale(evs[0]) + e[1].scale(evs[1]) + e[2].scale(evs[2])
            assert recon == m
            for i in range(3):
                for j in range(3):
                    prod = e[i] * e[j]
                    assert prod == (e[i] if i == j else Matrix.zeros(field, 4, 4))


def test_primitive_idempotents_rejects_bad_input():
    m = Matrix.diagonal(QQ, [1, 0, 0, -1])
    with pytest.raises(ValueError):
        primitive_idempotents(m, [QQ(1), QQ(1), QQ(0)])
    with pytest.raises(ValueError):
        primitive_idempotents(m, [QQ(1), QQ(0), QQ(5)])
    jordan = Matrix(QQ, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    with pytest.raises(ValueError):
        primitive_idempotents(jordan, [QQ(0), QQ(1), QQ(2)])


def test_primitive_idempotents_rejects_empty_list_and_lone_jordan_block():
    with pytest.raises(ValueError):
        primitive_idempotents(Matrix.diagonal(QQ, [1, 0, 0, -1]), [])
    jordan = Matrix(QQ, [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    with pytest.raises(ValueError):
        primitive_idempotents(jordan, [QQ(2)])
    scalar = Matrix.diagonal(QQ, [2, 2, 2, 2])
    assert primitive_idempotents(scalar, [QQ(2)]) == [Matrix.identity(QQ, 4)]


def test_primitive_idempotents_error_cases_gf3_and_non_square():
    f3 = Field(3)
    m = Matrix.diagonal(f3, [1, 0, 0, 2])
    for evs in ([1, 1, 0], [1, 0], []):
        with pytest.raises(ValueError):
            primitive_idempotents(m, [f3(e) for e in evs])
    assert primitive_idempotents(m, [f3(2), f3(0), f3(1)]) == [
        Matrix.diagonal(f3, d) for d in ([0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0])]
    jordan = Matrix(f3, [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    with pytest.raises(ValueError):
        primitive_idempotents(jordan, [f3(2)])
    scalar = Matrix.diagonal(f3, [2, 2, 2, 2])
    assert primitive_idempotents(scalar, [f3(2)]) == [Matrix.identity(f3, 4)]
    # a non-square matrix has no eigenspace decomposition
    with pytest.raises(ValueError):
        primitive_idempotents(Matrix(QQ, [[1, 0, 0], [0, 2, 0]]), [QQ(1), QQ(2)])


def test_primitive_idempotents_accepts_exactly_diagonalizable_gf3(rng):
    # accepted exactly when the nullities of M - e I over the supplied
    # eigenvalues are all positive and add up to 4 (rank by the oracle)
    p, field = 3, Field(3)
    dual = Matrix.diagonal(field, [0, 1, 1, 2])
    accepted = rejected = 0
    for trial in range(300):
        evs = rng.sample(range(p), rng.choice((2, 3)))
        if trial % 2:
            diag = [rng.choice(evs) for _ in range(4)]
            s = random_invertible(rng, field, Matrix)
            m = s * Matrix.diagonal(field, diag) * s.invert()
        else:
            m = Matrix(field, [[rng.randrange(p) for _ in range(4)] for _ in range(4)])
        rows = [[x.val for x in row] for row in m.rows]
        nullities = [4 - oracle.rank_mod([[r[c] - e * (i == c) for c in range(4)]
                                          for i, r in enumerate(rows)], p)
                     for e in evs]
        if all(nullities) and sum(nullities) == 4:
            accepted += 1
            assert len(primitive_idempotents(m, evs)) == len(evs)
        else:
            rejected += 1
            with pytest.raises(ValueError):
                primitive_idempotents(m, evs)
        # the same rule decides eigen_data's and verify's diagonalizability
        every = [4 - oracle.rank_mod([[r[c] - e * (i == c) for c in range(4)]
                                      for i, r in enumerate(rows)], p) for e in range(p)]
        assert eigen_data(m).diagonalizable == (sum(every) == 4)
        if len(evs) == 3:
            report = verify_td_system(m, dual, evs, (0, 1, 2))
            assert report.diagonalizable_a == (all(nullities) and sum(nullities) == 4)
            assert report.diagonalizable_astar
    assert accepted and rejected


def _unitriangular_product(rng, field, n):
    """A random invertible n x n matrix: unit lower times unit upper triangular."""
    low = Matrix(field, [[random_scalar(rng, field) if c < r else int(c == r) for c in range(n)]
                         for r in range(n)])
    up = Matrix(field, [[random_scalar(rng, field) if c > r else int(c == r) for c in range(n)]
                        for r in range(n)])
    return low * up


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("field", [QQ, Field(13)], ids=["QQ", "GF13"])
def test_primitive_idempotents_any_square_size(rng, field, n):
    for _ in range(6):
        k = rng.randint(1, n)
        evs = []
        while len(evs) < k:
            x = random_scalar(rng, field)
            if x not in evs:
                evs.append(x)
        diag = evs + [rng.choice(evs) for _ in range(n - k)]
        rng.shuffle(diag)
        s = _unitriangular_product(rng, field, n)
        m = s * Matrix.diagonal(field, diag) * s.invert()
        e = primitive_idempotents(m, evs)
        zero = Matrix.zeros(field, n, n)
        total, recon = zero, zero
        for ei, x in zip(e, evs):
            total, recon = total + ei, recon + ei.scale(x)
        assert total == Matrix.identity(field, n)
        assert recon == m
        for i in range(k):
            for j in range(k):
                assert e[i] * e[j] == (e[i] if i == j else zero)
    if n == 3:
        s = _unitriangular_product(rng, field, 3)
        jordan = s * Matrix(field, [[2, 1, 0], [0, 2, 1], [0, 0, 2]]) * s.invert()
        with pytest.raises(ValueError, match="^matrix is not diagonalizable"):
            primitive_idempotents(jordan, [field(2)])


def test_subspace_sum_and_intersection_basics():
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    u = Subspace(QQ, 4, [e1])
    v = Subspace(QQ, 4, [e2])
    both = subspace_combine([u, v], "sum")
    assert both.dim == 2
    assert both == Subspace(QQ, 4, [e1, e2])
    assert subspace_combine([both, both], "intersect") == both


def test_subspace_folds_refuse_an_empty_list():
    # with no subspace there is no ambient space to return a subspace of;
    # a generator that yields nothing is refused the same way
    for fold in (subspace_sum, subspace_intersection,
                 lambda parts: subspace_combine(parts, "sum"),
                 lambda parts: subspace_combine(parts, "intersect")):
        for parts in ([], (), iter([])):
            with pytest.raises(ValueError):
                fold(parts)
    with pytest.raises(ValueError):
        subspace_combine([], "union")
    u = Subspace(QQ, 4, [(1, 2, 0, 0)])
    assert subspace_sum([u]) is u and subspace_intersection(iter([u])) is u


@pytest.mark.parametrize("parts", [
    [5], [1, 2], ["a"], [None],
    [Subspace.full(QQ, 2), 1],
    [1, Subspace.full(QQ, 2)],
    [Matrix.identity(QQ, 2)],
])
def test_subspace_folds_refuse_parts_that_are_not_subspaces(parts):
    # reduce returned a lone part as it was and added two ints; every part,
    # a lone one included, is now checked as Subspace._compat checks one
    for fold in (subspace_sum, subspace_intersection,
                 lambda ps: subspace_combine(ps, "sum"),
                 lambda ps: subspace_combine(ps, "intersect")):
        with pytest.raises(TypeError, match="expected a Subspace"):
            fold(parts)


def test_subspace_intersection_with_full_space():
    tds = p0_system()
    estar0 = Subspace.column_space(tds.Estar[0])
    full = Subspace.full(QQ, 4)
    assert (estar0 & full) == estar0
    assert estar0.dim == 1


def test_subspace_canonical_equality():
    a = Subspace(QQ, 4, [(1, 1, 0, 0), (0, 2, 0, 0)])
    b = Subspace(QQ, 4, [(3, 0, 0, 0), (5, 7, 0, 0)])
    assert a == b
    assert a.basis == b.basis
    assert repr(a) == "Subspace(dim=2, basis=[('1', '0', '0', '0'), ('0', '1', '0', '0')])"
    with pytest.raises(AttributeError, match="^'Subspace' object has no attribute 'rows'$"):
        a.rows


def test_dimension_formula_random(rng):
    for field in (QQ, Field(5)):
        for _ in range(50):
            vs = [tuple(random_scalar(rng, field, 3) for _ in range(4))
                  for _ in range(rng.randint(1, 3))]
            ws = [tuple(random_scalar(rng, field, 3) for _ in range(4))
                  for _ in range(rng.randint(1, 3))]
            u = Subspace(field, 4, vs)
            w = Subspace(field, 4, ws)
            assert (u + w).dim + (u & w).dim == u.dim + w.dim


def test_kernel_vs_rank(rng):
    for _ in range(30):
        m = Matrix(QQ, [[random_scalar(rng, QQ, 3) for _ in range(4)]
                        for _ in range(4)])
        ker = m.kernel()
        assert len(ker) == 4 - m.rank()
        for v in ker:
            assert all(x.is_zero for x in m.apply(v))


def test_matrix_json_roundtrip():
    tds = p0_system()
    data = tds.A.to_json()
    assert data == [["1", "0", "0", "0"], ["1", "0", "0", "0"],
                    ["0", "0", "0", "0"], ["0", "1", "-5/4", "-1"]]
    assert Matrix.from_json(QQ, data) == tds.A


def test_transition_pair_mutual_inverse_at_p0():
    # the two tabulated neighbours are mutual inverses once instantiated
    from tdpair121 import BasisId, ParameterArray, transition_formula
    pa = ParameterArray.make(QQ, (1, 0, -1), (1, 0, -1), 2, 1)
    fwd = transition_formula(pa, BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ)
    back = transition_formula(pa, BasisId.SPLIT_ZZ, BasisId.SPLIT_ZD)
    assert fwd.invert() == back
    assert back.invert() == fwd


# -- the raw kernels against independent oracles -------------------------------

KERNEL_CHARACTERISTICS = [0, 2, 3, 101, 10007, 2**31 - 1]


def _raw_entry(rng, p):
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))


def _raw_mul(a, b, p):
    out = [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
           for i in range(len(a))]
    return [[x % p for x in r] for r in out] if p else out


def _raw_matrices(rng, p, count):
    """4x4 raw matrices of every rank 0..4, each a product of random 4xr
    and rx4 factors, interleaved with unconstrained ones."""
    zero = 0 if p else Fraction(0)
    out = []
    for i in range(count):
        r = i % 6
        if r == 0:
            out.append([[zero] * 4 for _ in range(4)])
        elif r == 5:
            out.append([[_raw_entry(rng, p) for _ in range(4)] for _ in range(4)])
        else:
            left = [[_raw_entry(rng, p) for _ in range(r)] for _ in range(4)]
            right = [[_raw_entry(rng, p) for _ in range(4)] for _ in range(r)]
            out.append(_raw_mul(left, right, p))
    return out


def _oracle_rank(rows, p):
    """Rank of at most four raw vectors of length 4."""
    if p:
        return oracle.rank_mod(rows, p)
    padded = list(rows) + [[Fraction(0)] * 4] * (4 - len(rows))
    return 4 - oracle.eigenspace_dim_fraction(padded, Fraction(0))


def _leibniz_det(rows, p):
    total = 0
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = -1 if inversions % 2 else 1
        for i in range(4):
            term *= rows[i][perm[i]]
        total += term
    return total % p if p else Fraction(total)


def _canonical(vals, p):
    """Raw values of boxed entries, each checked to be in canonical form."""
    vals = list(vals)
    for v in vals:
        assert (type(v) is int and 0 <= v < p) if p else type(v) is Fraction
    return vals


def _mat_vals(m):
    return [_canonical((x.val for x in r), m.field.p) for r in m.rows]


def _entrywise(f, p, *mats):
    """Raw rows of f applied entry by entry to raw matrices of one shape."""
    return [[f(*xs) % p if p else f(*xs) for xs in zip(*rs)] for rs in zip(*mats)]


@pytest.mark.parametrize("p", KERNEL_CHARACTERISTICS)
def test_matrix_kernels_match_raw_oracles(p):
    rng = random.Random(f"matrix-kernels:{p}")
    field = Field(p)
    mats = _raw_matrices(rng, p, 36)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    for a_rows, b_rows in zip(mats, mats[1:] + mats[:1]):
        a, b = Matrix(field, a_rows), Matrix(field, b_rows)
        assert _mat_vals(a * b) == _raw_mul(a_rows, b_rows, p)
        v = [_raw_entry(rng, p) for _ in range(4)]
        got = _canonical((x.val for x in a.apply(tuple(field(x) for x in v))), p)
        if p:
            assert tuple(got) == oracle.mat_vec_mod(a_rows, v, p)
        else:
            assert got == [r[0] for r in _raw_mul(a_rows, [[x] for x in v], 0)]
        rank = _oracle_rank(a_rows, p)
        assert a.rank() == rank
        assert a.det().val == _leibniz_det(a_rows, p)
        if rank == 4:
            assert _raw_mul(a_rows, _mat_vals(a.invert()), p) == eye
        else:
            with pytest.raises(SingularMatrixError):
                a.invert()
        kernel = a.kernel()
        assert len(kernel) == 4 - rank
        for k in kernel:
            col = [[x] for x in _canonical((x.val for x in k), p)]
            assert all(r[0] == 0 for r in _raw_mul(a_rows, col, p))
        # entrywise operations, each against raw values and, through
        # Matrix.__eq__, against the matrix read from those values
        c = _raw_entry(rng, p) if p else Fraction(rng.randint(1, 6), rng.choice((5, 7)))
        for got, want in (
            (a + b, _entrywise(lambda x, y: x + y, p, a_rows, b_rows)),
            (a - b, _entrywise(lambda x, y: x - y, p, a_rows, b_rows)),
            # over QQ scaling multiplies a grid's denominator by c's, so
            # these add grids whose denominators divide neither way
            (a.scale(field(c)) + b, _entrywise(lambda x, y: c * x + y, p, a_rows, b_rows)),
            (a + b.scale(field(c)), _entrywise(lambda x, y: x + c * y, p, a_rows, b_rows)),
            (-a, _entrywise(lambda x: -x, p, a_rows)),
            (a.scale(field(c)), _entrywise(lambda x: c * x, p, a_rows)),
            (a.scale(field.zero), _entrywise(lambda x: 0 * x, p, a_rows)),
            (a.shift(field(c)), _entrywise(lambda x, e: x - c * e, p, a_rows, eye)),
            (a.transpose(), [list(col) for col in zip(*a_rows)]),
            (Matrix.from_columns(field, a_rows), [list(col) for col in zip(*a_rows)]),
        ):
            assert _mat_vals(got) == want
            assert got == Matrix(field, want) and hash(got) == hash(Matrix(field, want))
            assert got.is_zero == (not any(map(any, want)))
        assert a.is_zero == (rank == 0) and (a - a).is_zero
    d = [_raw_entry(rng, p) for _ in range(4)]
    diag = Matrix.diagonal(field, [field(x) for x in d])
    assert _mat_vals(diag) == [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]
    assert _mat_vals(Matrix.identity(field, 4)) == eye
    assert _mat_vals(Matrix.zeros(field, 2, 3)) == [[0] * 3] * 2
    assert Matrix.zeros(field, 4, 4).is_zero and not Matrix.identity(field, 4).is_zero


@pytest.mark.parametrize("p", KERNEL_CHARACTERISTICS)
def test_subspace_kernels_match_raw_ranks(p):
    rng = random.Random(f"subspace-kernels:{p}")
    field = Field(p)
    for _ in range(40):
        us = [[_raw_entry(rng, p) for _ in range(4)] for _ in range(rng.randint(1, 2))]
        ws = [[_raw_entry(rng, p) for _ in range(4)] for _ in range(rng.randint(0, 1))]
        if rng.random() < 0.5:
            # a combination of the first generators, so that the two meet
            c = _raw_entry(rng, p)
            ws.append(_raw_mul([[1, c]], [us[0], us[-1]], p)[0])
        u, w = Subspace(field, 4, us), Subspace(field, 4, ws)
        total, meet = u + w, u & w
        assert u.dim == _oracle_rank(us, p)
        assert w.dim == _oracle_rank(ws, p)
        assert total.dim == _oracle_rank(us + ws, p)
        assert meet.dim == u.dim + w.dim - total.dim
        for vec in meet.basis:
            vals = _canonical((x.val for x in vec), p)
            assert _oracle_rank(us + [vals], p) == u.dim
            assert _oracle_rank(ws + [vals], p) == w.dim
            assert u.contains(vec) and w.contains(vec)
        for vec in total.basis:
            assert _oracle_rank(us + ws + [[x.val for x in vec]], p) == total.dim


def _span_cases(rng, p, n):
    """Pairs of raw generator lists in F^n: the zero subspace (no rows, or
    zero rows) and the full space on either side, one side inside the
    other, and spans of random ranks sharing a generator; every third
    case as tuple rows."""
    zero = 0 if p else Fraction(0)
    full = [[int(i == j) for j in range(n)] for i in range(n)]

    def spanning(rank, count):
        if rank == 0:
            return [[zero] * n for _ in range(count)]
        basis = [[_raw_entry(rng, p) for _ in range(n)] for _ in range(rank)]
        return _raw_mul([[_raw_entry(rng, p) for _ in range(rank)] for _ in range(count)],
                        basis, p)

    some = spanning(n // 2, n // 2 + 1)
    cases = [([], []), ([], some), (some, []), (full, some), (some, full), (full, []),
             ([], full), (full, full), (spanning(0, 2), some), (some, spanning(1, 3)[:1] + some)]
    for _ in range(24):
        us = spanning(rng.randint(0, n), rng.randint(1, n + 1))
        ws = spanning(rng.randint(0, n), rng.randint(1, n))
        if us and rng.random() < 0.5:
            ws.append(_raw_mul([[_raw_entry(rng, p) for _ in us]], us, p)[0])
        cases.append((us, ws))
    return [(tuple(map(tuple, us)), tuple(map(tuple, ws))) if i % 3 == 2 else (us, ws)
            for i, (us, ws) in enumerate(cases)]


def _assert_echelon_rows(rows, want, p):
    """Subspace._rows against the oracle's reduced echelon rows: over GF(p)
    those rows themselves; over QQ each row primitive, with a positive
    pivot, and equal to the oracle's row times that pivot."""
    if p:
        assert [_canonical(r, p) for r in rows] == want
        return
    assert len(rows) == len(want)
    for r, w in zip(rows, want):
        assert all(type(x) is int for x in r) and math.gcd(*r) == 1
        pivot = next(x for x in r if x)
        assert pivot > 0 and list(r) == [x * pivot for x in w]


def _scaled(rng, rows, p):
    """Each generator times a nonzero scalar: a residue over GF(p), over QQ
    a rational of either sign."""
    out = []
    for r in rows:
        c = rng.randrange(1, p) if p else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                   rng.randint(1, 9))
        out.append([c * x % p if p else c * x for x in r])
    return out


@pytest.mark.parametrize("p", KERNEL_CHARACTERISTICS)
def test_spans_and_meets_are_the_oracles_echelon_rows(p):
    # the canonical rows themselves, not only the dimensions: over GF(p)
    # oracle.rref_mod of the generators, and for the meet oracle.meet_mod
    # (Zassenhaus elimination, another method than the package's); over QQ
    # sympy's rref and the same Zassenhaus construction on it.  Generators
    # each scaled by a nonzero scalar span equal subspaces with equal
    # hashes, through the constructor, sums, meets and kernels.
    field = Field(p)
    if p:
        def rref(rows):
            return oracle.rref_mod(rows, p)

        def meet(us, ws, n):
            return oracle.meet_mod(us, ws, n, p)
    else:
        sympy = pytest.importorskip("sympy")

        def rref(rows):
            if not rows:
                return []
            m = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                               for x in r] for r in rows]).rref()[0]
            out = [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]
            return [r for r in out if any(r)]

        def meet(us, ws, n):
            work = [list(u) + list(u) for u in us] + [list(w) + [0] * n for w in ws]
            return rref([r[n:] for r in rref(work) if not any(r[:n])])

    for n in (4, 8):
        rng = random.Random(f"echelon-rows:{p}:{n}")
        for us, ws in _span_cases(rng, p, n):
            u, w = Subspace(field, n, us), Subspace(field, n, ws)
            for got, want in ((u, rref(us)), (w, rref(ws)), (u + w, rref(list(us) + list(ws))),
                              (u & w, meet(us, ws, n)), (w & u, meet(us, ws, n))):
                _assert_echelon_rows(got._rows, want, p)
                assert [[x.val for x in v] for v in got.basis] == want
            assert (u & w).dim == u.dim + w.dim - (u + w).dim
            su = Subspace(field, n, _scaled(rng, us, p))
            sw = Subspace(field, n, _scaled(rng, ws, p))
            for scaled, plain in ((su, u), (sw, w), (su + sw, u + w), (su & sw, u & w),
                                  (sw & su, w & u)):
                assert scaled == plain and hash(scaled) == hash(plain)
            if us:
                assert (Matrix(field, _scaled(rng, us, p)).kernel()
                        == Matrix(field, us).kernel())
            if us:
                # the null space comes in reduced echelon form as well
                kernel = [_canonical((x.val for x in k), p) for k in Matrix(field, us).kernel()]
                assert kernel == rref(kernel) and len(kernel) == n - u.dim
                for k in kernel:
                    assert all(r == [0] for r in _raw_mul(us, [[x] for x in k], p))


def test_subspace_operands_of_the_wrong_type_raise_type_error():
    # a subspace operand that is not a Subspace, or a matrix that is not a
    # Matrix, is refused with TypeError rather than an AttributeError
    s = Subspace.full(QQ, 2)
    for other in (None, 1, 1.5, True, [[1, 0]], Matrix.identity(QQ, 2)):
        for call in (s.__add__, s.__and__, s.contains_subspace):
            with pytest.raises(TypeError):
                call(other)
    for m in (None, 2, [[1, 0], [0, 1]], s):
        for call in (s.image, s.is_invariant):
            with pytest.raises(TypeError):
                call(m)


def test_kernels_reject_mixed_fields():
    f7, f11 = Field(7), Field(11)
    rows = [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 3], [0, 0, 0, 1]]
    m7, m11 = Matrix(f7, rows), Matrix(f11, rows)
    v11 = tuple(f11(x) for x in (1, 0, 0, 0))
    s7, s11 = Subspace(f7, 4, [(1, 0, 0, 0)]), Subspace(f11, 4, [(1, 0, 0, 0)])
    for attempt in (
        lambda: m7 * m11,
        lambda: m7 + m11,
        lambda: m7 - m11,
        lambda: m7.apply(v11),
        lambda: m7.shift(f11(1)),
        lambda: Subspace(f7, 4, [v11]),
        lambda: s7.contains(v11),
        lambda: s7 + s11,
        lambda: s7 & s11,
        lambda: s7.is_invariant(m11),
    ):
        with pytest.raises(ValueError):
            attempt()


@pytest.mark.parametrize("p", [0, 7])
def test_subspace_image_is_column_space_of_product(p):
    rng = random.Random(f"subspace-image:{p}")
    field = Field(p)
    for _ in range(40):
        s = Subspace(field, 4, [[random_scalar(rng, field, 3) for _ in range(4)]
                                for _ in range(rng.randint(0, 4))])
        rows = [[random_scalar(rng, field, 3) for _ in range(4)] for _ in range(4)]
        if rng.random() < 0.3:
            rows[rng.randrange(4)] = [0] * 4
        m = Matrix(field, rows)
        image = s.image(m)
        if s.is_zero:
            assert image == Subspace.zero(field, 4)
        else:
            assert image == Subspace.column_space(m * s.matrix())
        assert image.dim <= min(s.dim, m.rank())


@pytest.mark.parametrize("p", [0, 7])
def test_contains_subspace_matches_dimension_of_sum(p):
    rng = random.Random(f"contains-subspace:{p}")
    field = Field(p)
    inside = 0
    for _ in range(60):
        u = Subspace(field, 4, [[random_scalar(rng, field, 3) for _ in range(4)]
                                for _ in range(rng.randint(0, 3))])
        ws = [[random_scalar(rng, field, 3) for _ in range(4)]
              for _ in range(rng.randint(0, 2))]
        if u.basis and rng.random() < 0.5:
            # combinations of u's basis only, so w lies inside u
            ws = [[sum((random_scalar(rng, field, 3) * b[j] for b in u.basis), field.zero)
                   for j in range(4)] for _ in ws]
        w = Subspace(field, 4, ws)
        expected = (u + w).dim == u.dim
        inside += expected
        assert u.contains_subspace(w) == expected
        assert u.contains_subspace(u) and u.contains_subspace(Subspace.zero(field, 4))
    assert 0 < inside < 60


@pytest.mark.parametrize("p, bits", [(0, 3), (0, 100), (3, 0), (101, 0), (2**61 - 1, 0)])
def test_inv_grid_solves_a_right_hand_side_like_the_oracle(p, bits):
    # g^-1 rhs from one elimination of [g | rhs] equals the oracle's inverse
    # times rhs, block by block, for square and wider right-hand sides over
    # denominators of their own; over QQ the grid is over the least one
    rng = random.Random(f"inv-grid-rhs:{p}:{bits}")

    def entry():
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))

    checked = 0
    for width in (4, 12, 4, 12, 12, 4, 12, 12):
        g_rows = [[entry() for _ in range(4)] for _ in range(4)]
        s_rows = [[entry() for _ in range(width)] for _ in range(4)]
        g, rhs = linalg._grid_of(g_rows, p), linalg._grid_of(s_rows, p)
        if oracle.det(g_rows, p) == 0:
            with pytest.raises(SingularMatrixError):
                linalg._inv_grid(g, p, rhs)
            continue
        rows, den = linalg._inv_grid(g, p, rhs)
        got = [[x % p if p else Fraction(x, den) for x in r] for r in rows]
        inverse = oracle.mat_inverse(g_rows, p)
        for j in range(0, width, 4):
            block = [r[j:j + 4] for r in s_rows]
            assert [r[j:j + 4] for r in got] == oracle.mat_mul(inverse, block, p)
        if not p:
            assert math.gcd(den, *[x for r in rows for x in r]) == 1
        with pytest.raises(ValueError):  # a taller right-hand side is not cut short
            linalg._inv_grid(g, p, (rhs[0] + rhs[0][:1], rhs[1]))
        checked += 1
    assert checked >= 6
    # a singular g raises with a right-hand side too, rank 3 and rank 0
    for g_rows in (_raw_mul([[entry() for _ in range(3)] for _ in range(4)],
                            [[entry() for _ in range(4)] for _ in range(3)], p),
                   [[0] * 4 for _ in range(4)]):
        rhs = linalg._grid_of([[entry() for _ in range(12)] for _ in range(4)], p)
        with pytest.raises(SingularMatrixError):
            linalg._inv_grid(linalg._grid_of(g_rows, p), p, rhs)


@pytest.mark.parametrize("p, bits", [(0, 6), (0, 100), (2, 0), (5, 0), (2**61 - 1, 0)])
def test_small_determinants_match_the_oracle(p, bits):
    # the corner blocks of the shape rule are d x d with 2d <= 4; their
    # closed-form determinants (1, a, ad - bc) equal the oracle's elimination
    # on raw blocks: residues over GF(p), integer rows over QQ
    rng = random.Random(f"small-det:{p}:{bits}")

    def entry():
        return rng.randrange(p) if p else rng.randint(-2**bits, 2**bits)

    zeros = 0
    for d in (0, 1, 2):
        for k in range(60):
            rows = [[entry() for _ in range(d)] for _ in range(d)]
            if d == 2 and k % 4 == 0:  # a rank-1 block
                f = entry()
                rows[1] = [x * f % p if p else x * f for x in rows[0]]
            got = linalg._det_small(rows, p)
            assert got == oracle.det(rows, p), rows
            assert 0 <= got < p if p else isinstance(got, int)
            zeros += not got
    assert zeros >= 15
    with pytest.raises(ValueError):
        linalg._det_small([[entry() for _ in range(3)] for _ in range(3)], p)


def test_a_frame_holds_no_reference_to_its_matrix():
    # a matrix keeps its frame for as long as it lives, and a frame, once
    # filled, holds its spaces and P with its blocks only, no P^-1: it
    # neither keeps its matrix alive nor reaches any Matrix; a frame changes
    # no comparison
    import gc

    for field in (QQ, Field(101)):
        t = construct(ParameterArray.make(field, (1, 2, 3), (5, 7, 11), 13, 17))
        assert verify_td_system(t.A, t.Astar, t.theta, t.thetastar).overall
        frame = linalg._frame(t.A, t.theta)
        assert frame.ok and frame.basis == linalg._eigenbasis(frame.spaces, field.p)
        held = [x for x in gc.get_referents(frame) if x is not linalg._Frame]
        assert sorted(map(id, held)) == sorted(
            map(id, (frame.spaces, frame.ok, frame.p, frame.basis))), held
        assert not hasattr(frame, "inverse")
        assert linalg._frame(t.A, t.theta) is frame
        reached = referents(frame)
        assert any(isinstance(x, Subspace) for x in reached)
        assert not any(isinstance(x, Matrix) for x in reached)

        bare = Matrix.from_json(field, t.A.to_json())
        assert not hasattr(bare, "_spectrum") and hasattr(t.A, "_spectrum")
        assert bare == t.A and t.A == bare and hash(bare) == hash(t.A)
        assert bare.rows == t.A.rows

        def frames():
            return sum(isinstance(x, linalg._Frame) for x in gc.get_objects())

        a = Matrix.from_json(field, t.A.to_json())
        linalg._frame(a, t.theta)
        kept = frames()
        del a
        gc.collect()
        assert frames() == kept - 1


def _spy_roots(monkeypatch):
    """The list that _poly.charpoly and _poly.roots append their names to."""
    from tdpair121 import _poly

    calls = []
    for name in ("charpoly", "roots"):
        real = getattr(_poly, name)
        monkeypatch.setattr(_poly, name, lambda *args, _n=name, _f=real:
                            calls.append(_n) or _f(*args))
    return calls


def test_eigen_data_finds_the_roots_once_per_matrix(monkeypatch, rng):
    # eigen_data keeps the frame of the eigenvalues it found as the record of
    # the matrix's spectrum: a second call, and the ordering search and the
    # invariant search after it, find no characteristic polynomial and no
    # roots.  The record changes no comparison, hash or boxed value.
    from tdpair121 import common_invariant_subspace, find_td_orderings

    calls = _spy_roots(monkeypatch)
    for field in (QQ, Field(101), Field(10007)):
        t = construct(ParameterArray.make(field, (1, 2, 3), (5, 7, 11), 13, 17))
        q = random_invertible(rng, field, Matrix)
        qi = q.invert()
        a, astar = qi * t.A * q, qi * t.Astar * q
        calls.clear()
        first = eigen_data(a)
        assert calls == ["charpoly", "roots"]
        calls.clear()
        assert eigen_data(a) == first and calls == []
        eigen_data(astar)
        calls.clear()
        assert len(find_td_orderings(a, astar)) == 4
        assert common_invariant_subspace(a, astar) is None
        assert calls == []

        bare = Matrix.from_json(field, a.to_json())
        assert not hasattr(bare, "_spectrum") and hasattr(a, "_spectrum")
        assert bare == a and a == bare and hash(bare) == hash(a) and bare.rows == a.rows


def test_a_constructed_system_finds_no_roots(monkeypatch):
    # construct keeps the frames of theta and thetastar as the records of A
    # and A*: eigen_data reads the spectrum off them, ascending as the roots
    # would come, and the searches after it find no characteristic polynomial
    # and no roots, where each matrix once found both on its first eigen_data
    from tdpair121 import common_invariant_subspace, find_td_orderings

    calls = _spy_roots(monkeypatch)
    for field in (QQ, Field(101), Field(10007)):
        t = construct(ParameterArray.make(field, (3, 1, 2), (11, 5, 7), 13, 17))
        calls.clear()
        eda, eds = eigen_data(t.A), eigen_data(t.Astar)
        assert [x.val for x in eda.eigenvalues] == [1, 2, 3]
        assert [x.val for x in eds.eigenvalues] == [5, 7, 11]
        assert eda.multiplicities == eds.multiplicities == (2, 1, 1)  # theta_1 = 1, thetastar_1 = 5
        assert eda.diagonalizable and eds.diagonalizable
        assert len(find_td_orderings(t.A, t.Astar)) == 4
        assert common_invariant_subspace(t.A, t.Astar) is None
        assert calls == []
        bare = Matrix.from_json(field, t.A.to_json())
        assert eigen_data(bare) == eda and calls == ["charpoly", "roots"]


def test_eigen_data_of_a_jordan_block_builds_its_spaces_once(monkeypatch):
    # a matrix that is not diagonalizable keeps the frame of its roots as its
    # record too: three eigen_data calls build its three eigenspaces once,
    # where each call once built them again
    calls = []
    real = linalg._eigenspace
    monkeypatch.setattr(linalg, "_eigenspace", lambda m, e: calls.append(e) or real(m, e))
    field = Field(10007)
    m = Matrix(field, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    eds = [eigen_data(m) for _ in range(3)]
    assert eds[0] == eds[1] == eds[2]
    assert [x.val for x in eds[0].eigenvalues] == [1, 2, 3]
    assert eds[0].multiplicities == (2, 1, 1) and not eds[0].diagonalizable
    assert [s.dim for s in eds[0].eigenspaces] == [1, 1, 1]
    assert [x.val for x in calls] == [1, 2, 3]
    assert not verify_td_system(m, m, [field(2), field(1), field(3)], [1, 2, 3]).diagonalizable_a
    assert len(calls) == 3


# -- the null-space reader ------------------------------------------------------

def _leads(rows):
    """The first nonzero column of each raw row."""
    return tuple(next(j for j, x in enumerate(r) if x) for r in rows)


def _similar(rng, field, values):
    """S diag(values) S^-1 for a random invertible S of that order."""
    n = len(values)
    while True:
        s = Matrix(field, [[random_scalar(rng, field) for _ in range(n)] for _ in range(n)])
        if s.rank() == n:
            return s * Matrix.diagonal(field, values) * s.invert()


def _assert_echelon_kernel(rows, t, got, p):
    """got is the reduced echelon basis of ker(M - t) over GF(p), for raw
    rows of M of any order n: each row is killed, there are n - rank(M - t)
    of them (oracle.rank_mod), and oracle.rref_mod leaves them as they are.
    Those three pin the one reduced echelon basis of the kernel."""
    n = len(rows)
    shifted = [[(x - t * (i == j)) % p for j, x in enumerate(r)] for i, r in enumerate(rows)]
    for v in got:
        assert all(sum(map(lambda a, b: a * b, r, v)) % p == 0 for r in shifted)
    assert len(got) == n - oracle.rank_mod(shifted, p)
    assert oracle.rref_mod(got, p) == [list(v) for v in got]


@pytest.mark.parametrize("p", [2, 7, 2**61 - 1])
def test_eigenspaces_match_independent_oracles(p):
    # the eigenspace reader on matrices of eigenvalue pattern (x, y, y, z),
    # at each of their values and one more, against the enumeration oracle
    # eigenspace_basis_mod where p^4 vectors can be listed, and for every
    # p against the rank and echelon oracles
    rng = random.Random(f"eigenspace-reader:{p}")
    field = Field(p)
    dims = set()
    for _ in range(12):
        x, y, z = (rng.randrange(p) for _ in range(3))
        m = _similar(rng, field, [x, y, y, z])
        rows = [[e.val for e in r] for r in m.rows]
        for t in sorted({x, y, z, rng.randrange(p)}):
            s = linalg._eigenspace(m, field(t))
            got = [list(r) for r in s._rows]
            if p < 10:
                assert got == oracle.rref_mod(oracle.eigenspace_basis_mod(rows, t, p), p)
            _assert_echelon_kernel(rows, t, got, p)
            assert s._pivots == _leads(s._rows) and s.dim == len(got)
            dims.add(s.dim)
    assert {0, 1, 2} <= dims, dims
    # 2x2 and 5x5 matrices through eigen_data: the values, in ascending
    # order, their multiplicities and every eigenspace
    for values in ([3, 5], [1, 1, 4, 6, 6]):
        m = _similar(rng, field, [v % p for v in values])
        rows = [[e.val for e in r] for r in m.rows]
        ed = eigen_data(m)
        distinct = sorted({v % p for v in values})
        assert [e.val for e in ed.eigenvalues] == distinct and ed.diagonalizable
        assert list(ed.multiplicities) == [[v % p for v in values].count(v) for v in distinct]
        for e, s in zip(ed.eigenvalues, ed.eigenspaces):
            _assert_echelon_kernel(rows, e.val, [list(r) for r in s._rows], p)
            assert s._pivots == _leads(s._rows)


def test_qq_eigenspaces_match_sympy():
    # over QQ the shifted rows are scaled by an eigenvalue's denominator;
    # the boxed basis must be sympy's reduced echelon null space, for 2x2,
    # 4x4 and 5x5 matrices, eigenvalues with denominators 2 and 3, a plane
    # and a value that is no eigenvalue
    sympy = pytest.importorskip("sympy")
    rng = random.Random("eigenspace-reader:QQ")

    def null_rref(rows, t):
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
        ns = (sm - sympy.Rational(t.numerator, t.denominator) * sympy.eye(len(rows))).nullspace()
        if not ns:
            return []
        red = sympy.Matrix.hstack(*ns).T.rref()[0]
        return [[Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(len(ns))]

    h, third = Fraction(3, 2), Fraction(-1, 3)
    for values in ([h, -1], [h, third, third, 2], [h, h, third, 2, 2]):
        for _ in range(2):
            m = _similar(rng, QQ, values)
            rows = [[e.val for e in r] for r in m.rows]
            ed = eigen_data(m)
            assert [e.val for e in ed.eigenvalues] == sorted(set(values)) and ed.diagonalizable
            spaces = list(zip(ed.eigenvalues, ed.eigenspaces))
            spaces.append((QQ(Fraction(5, 7)), linalg._eigenspace(m, QQ(Fraction(5, 7)))))
            for e, s in spaces:
                assert [[x.val for x in v] for v in s.basis] == null_rref(rows, e.val)
                assert s._pivots == _leads(s._rows)
                assert all(r[j] > 0 and math.gcd(*r) == 1 for r, j in zip(s._rows, s._pivots))
            counts = [values.count(v) for v in sorted(set(values))]
            assert [s.dim for _, s in spaces] == counts + [0]


@pytest.mark.parametrize("p", KERNEL_CHARACTERISTICS)
def test_kernels_and_meets_carry_their_pivots(p):
    # Matrix.kernel and & read the null-space reader's rows and pivots as
    # they are: each pivot is its row's first nonzero column, and the
    # kernel is the boxed rows
    rng = random.Random(f"null-pivots:{p}")
    field = Field(p)
    mats = _raw_matrices(rng, p, 24)
    for a_rows, b_rows in zip(mats, mats[1:] + mats[:1]):
        a = Matrix(field, a_rows)
        rows, pivots = linalg._ann(a._grid[0], 4, p)
        assert pivots == _leads(rows)
        span = Subspace(field, 4, [[field(x) for x in r] for r in rows])
        assert [[x.val for x in v] for v in a.kernel()] == [[x.val for x in v] for v in span.basis]
        meet = Subspace(field, 4, a_rows[:2]) & Subspace(field, 4, b_rows[:3])
        assert meet._pivots == _leads(meet._rows)
        assert isinstance(meet._rows, tuple) and all(type(r) is tuple for r in meet._rows)


# -- QQ kernels at high bit length against sympy --------------------------------

def _big(rng, bits=100):
    """A Fraction with 100-bit numerator and denominator."""
    num = rng.getrandbits(bits) | 1 << (bits - 1)
    den = rng.getrandbits(bits) | 1 << (bits - 1)
    return Fraction(rng.choice((1, -1)) * num, den)


def _big_matrix(rng, ncols, rank):
    """A 4 x ncols Fraction matrix of the given rank, a product of random
    4 x rank and rank x ncols factors (the zero matrix at rank 0)."""
    if rank == 0:
        return [[Fraction(0)] * ncols for _ in range(4)]
    left = [[_big(rng) for _ in range(rank)] for _ in range(4)]
    right = [[_big(rng) for _ in range(ncols)] for _ in range(rank)]
    return _raw_mul(left, right, 0)


def _reduced_vals(vec):
    """Raw values of boxed QQ entries, each checked to be a reduced Fraction
    with a positive denominator."""
    vals = [x.val for x in vec]
    for v in vals:
        assert type(v) is Fraction and v.denominator > 0
        assert math.gcd(v.numerator, v.denominator) == 1
    return vals


def test_qq_kernels_match_sympy_at_100_bits():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                             for r in rows])

    def from_sympy(m):
        return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]

    rng = random.Random("qq-kernels-sympy")
    for rep in range(2):
        for rank in range(5):
            for ncols in (4, 8):
                rows = _big_matrix(rng, ncols, rank)
                if rank == 4 and ncols == 4 and rep == 0:
                    rows = [[_big(rng) for _ in range(4)] for _ in range(4)]
                a, sa = Matrix(QQ, rows), to_sympy(rows)
                left_rows = [[_big(rng) for _ in range(4)] for _ in range(4)]
                product = Matrix(QQ, left_rows) * a
                assert [_reduced_vals(r) for r in product.rows] == from_sympy(
                    to_sympy(left_rows) * sa)
                # entrywise operations on grids over unrelated 100-bit
                # denominators
                c = _big(rng)
                sc = sympy.Rational(c.numerator, c.denominator)
                sp = to_sympy(left_rows) * sa
                got = [(a + product, sa + sp), (product - a, sp - sa), (a.scale(QQ(c)), sc * sa)]
                if ncols == 4:
                    got.append((a.shift(QQ(c)), sa - sc * sympy.eye(4)))
                for m, want in got:
                    assert [_reduced_vals(r) for r in m.rows] == from_sympy(want)
                assert a.rank() == sa.rank() == rank
                kernel = a.kernel()
                assert len(kernel) == ncols - rank
                for k in kernel:
                    assert sa * to_sympy([[x] for x in _reduced_vals(k)]) == sympy.zeros(4, 1)
                if kernel:
                    assert to_sympy([[x.val for x in k] for k in kernel]).rank() == len(kernel)
                if ncols == 4:
                    det = sa.det()
                    assert _reduced_vals([a.det()]) == [Fraction(int(det.p), int(det.q))]
                    if rank == 4:
                        inv = a.invert()
                        assert [_reduced_vals(r) for r in inv.rows] == from_sympy(sa.inv())
                    else:
                        with pytest.raises(SingularMatrixError):
                            a.invert()
                # row spaces: the canonical basis is sympy's reduced echelon form
                others = _big_matrix(rng, ncols, rng.randint(0, 3))
                if rank and rng.random() < 0.7:
                    others[0] = _raw_mul([[1, 3]], [rows[0], rows[-1]], 0)[0]
                u, w = Subspace(QQ, ncols, rows), Subspace(QQ, ncols, others)
                echelon = sa.rref()[0]
                assert [_reduced_vals(b) for b in u.basis] == from_sympy(echelon)[:rank]
                stacked = to_sympy(rows + others)
                total, meet = u + w, u & w
                assert total.dim == stacked.rank()
                assert meet.dim == rank + to_sympy(others).rank() - stacked.rank()
                for b in total.basis + meet.basis:
                    _reduced_vals(b)

    # one matrix by five routes: the first two hold its grid over the least
    # denominator, the last three over 6 times it (scaling by 1/6 and then
    # by 6 multiplies the denominator by 6 and the integers by 6)
    rows = [[_big(rng) for _ in range(4)] for _ in range(4)]
    m = Matrix(QQ, rows).scale(QQ(Fraction(1, 6))).scale(QQ(6))
    routes = [Matrix(QQ, rows), Matrix.from_json(QQ, m.to_json()),
              Matrix.identity(QQ, 4) * m, m + Matrix.zeros(QQ, 4, 4),
              m.transpose().transpose()]
    for x in routes:
        for y in routes:
            assert x == y and hash(x) == hash(y)
        assert x != m.shift(QQ(1)) and x != m.transpose()


# -- charpoly and poly_roots against sympy ----------------------------------------

# 65537 - 1 = 2^16, the longest 2-power chain of a modular square root here
ORACLE_PRIMES = [2, 3, 5, 101, 10007, 65537, 2**61 - 1]


def _sympy_roots(sympy, cs, p):
    """[(root, mult)] ascending of the polynomial cs (low degree first) over
    QQ (p == 0) or GF(p), read off sympy's linear factors."""
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, cs)]
    poly = sympy.Poly(coeffs[::-1], x, modulus=p) if p else sympy.Poly(coeffs[::-1], x)
    out = []
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = (Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                      for c in factor.all_coeffs())
            out.append((-c0 * pow(int(c1), -1, p) % p if p else -c0 / c1, mult))
    return sorted(out)


@pytest.mark.parametrize("p", [0] + ORACLE_PRIMES)
def test_charpoly_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"charpoly-sympy:{p}")
    field = Field(p)
    for n in range(1, 7):
        for _ in range(2):
            rows = [[_big(rng) if p == 0 else rng.randrange(p) for _ in range(n)]
                    for _ in range(n)]
            if rng.random() < 0.3:  # a zero entry on the diagonal and below it
                rows[-1][0] = rows[0][0] = 0
            got = [c.val for c in charpoly(Matrix(field, rows))]
            sm = sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                                for v in r] for r in rows])
            want = [Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                    for c in sm.charpoly().all_coeffs()[::-1]]
            if p:
                want = [int(c) % p for c in want]
            assert got == want, (p, rows)


@pytest.mark.parametrize("p", [0] + ORACLE_PRIMES)
def test_poly_roots_match_sympy(p):
    # a nonzero scalar times (x - r)^m over a few known roots, times a
    # factor with no root in the field
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"poly-roots-sympy:{p}")
    field = Field(p)
    x = sympy.Symbol("x")
    for _ in range(12):
        if p:
            roots = {rng.randrange(p) for _ in range(rng.randint(1, min(3, p)))}
            while True:
                rootless = [rng.randrange(p), rng.randrange(p), 1]
                if sympy.Poly(rootless[::-1], x, modulus=p).is_irreducible:
                    break
            cs = [rng.randrange(1, p)]
        else:
            roots = {Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(rng.randint(1, 3))}
            rootless = [rng.randint(1, 9), rng.randint(-2, 2), rng.randint(1, 3)]
            cs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))]
        mults = {r: rng.randint(1, 3) for r in roots}
        for r, m in mults.items():
            for _ in range(m):
                cs = _int_poly_mul(cs, [-r, 1], p)
        if rng.random() < 0.7:
            cs = _int_poly_mul(cs, rootless, p)
        got = poly_roots(field, cs)
        assert [(r.val, m) for r, m in got] == sorted(mults.items()) == _sympy_roots(sympy, cs, p)
        assert [r.val for r, _ in got] == sorted(r.val for r, _ in got)


def test_rational_roots_of_huge_coefficients_are_fast():
    # trying every divisor of 10^40 + 7 would take about 10^20 steps
    c = 10**40 + 7
    with deadline(1.0):
        assert poly_roots(QQ, [QQ(-c), 0, 0, 0, QQ(1)]) == []
        assert poly_roots(QQ, [QQ(c), QQ(1)]) == [(QQ(-c), 1)]
        assert poly_roots(QQ, [QQ(-c), QQ(0), QQ(1)]) == []
        assert poly_roots(QQ, [QQ(-c * c), QQ(0), QQ(1)]) == [(QQ(-c), 1), (QQ(c), 1)]


def test_rational_roots_at_100_bits_match_sympy():
    # products of seeded linear factors q x - r with 100-bit r and q, some
    # repeated and some r = 0, times a 100-bit scalar and at times a
    # quadratic without rational roots
    sympy = pytest.importorskip("sympy")
    rng = random.Random("rational-roots-100-bits")
    with deadline(10.0):
        for _ in range(40):
            cs = [rng.choice((1, -1)) * (rng.getrandbits(100) | 1)]
            for _ in range(rng.randint(1, 3)):
                r = 0 if rng.random() < 0.15 else rng.choice((1, -1)) * rng.getrandbits(100)
                factor = [-r, rng.getrandbits(100) | 1 if r else 1]
                for _ in range(rng.randint(1, 2)):
                    cs = _int_poly_mul(cs, factor, 0)
            if rng.random() < 0.5:
                cs = _int_poly_mul(cs, [rng.getrandbits(100) | 1, 0, rng.getrandbits(100) | 1], 0)
            got = [(r.val, m) for r, m in poly_roots(QQ, cs)]
            assert got == _sympy_roots(sympy, cs, 0), cs


def test_rational_roots_come_from_the_prime_field_root_finder(monkeypatch):
    from tdpair121 import _poly
    primes = []
    gf_roots = _poly.gf_roots

    def spy(cs, p):
        primes.append(p)
        return gf_roots(cs, p)

    monkeypatch.setattr(_poly, "gf_roots", spy)
    # (2x - 3)(5x + 7)(x^2 + 1)
    cs = _int_poly_mul(_int_poly_mul([-3, 2], [7, 5], 0), [1, 0, 1], 0)
    assert poly_roots(QQ, cs) == [(QQ(Fraction(-7, 5)), 1), (QQ(Fraction(3, 2)), 1)]
    # odd primes that do not divide the leading coefficient 10
    assert primes and all(p % 2 and 10 % p for p in primes)


@pytest.mark.parametrize("cs, roots", [
    ([-6, 11, -6, 1], [1, 2, 3]),
    ([-21, -1, 10], [Fraction(-7, 5), Fraction(3, 2)]),  # (5x + 7)(2x - 3)
    ([3, 2], [Fraction(-3, 2)]),
])
def test_poly_roots_builds_one_fraction_per_rational_root(monkeypatch, cs, roots):
    # past coercing the coefficients, each root is built once, as the raw
    # scalar of _poly.roots: candidates are reduced as integer pairs, and
    # the root is wrapped as it is, not boxed again
    built = []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    got = poly_roots(QQ, cs)
    monkeypatch.undo()
    assert got == [(QQ(r), 1) for r in roots]
    assert len(built) == len(cs) + len(roots), built


@pytest.mark.parametrize("p", [0, 10007])
def test_charpoly_of_a_12x12_matrix_is_fast(p):
    # 12! = 479001600 permutation terms cannot meet the bound; the values
    # at a few points are checked against det(xI - M), by the oracle's
    # elimination, since Matrix.det itself reads charpoly
    import time
    rng = random.Random(f"charpoly-12:{p}")
    field = Field(p)
    m = Matrix(field, [[random_scalar(rng, field) for _ in range(12)] for _ in range(12)])
    start = time.perf_counter()
    cs = charpoly(m)
    assert time.perf_counter() - start < 1.0
    assert len(cs) == 13 and cs[-1] == field.one
    for t in (field(0), field(1), field(-2), random_scalar(rng, field)):
        value = field.zero
        for c in reversed(cs):
            value = value * t + c
        rows = [[t.val * (i == j) - x.val for j, x in enumerate(r)] for i, r in enumerate(m.rows)]
        assert value.val == oracle.det(rows, p)


@pytest.mark.parametrize("p", [0, 2, 3, 101])
def test_det_matches_elimination_at_odd_and_even_sizes(p):
    # the sign (-1)^n of det = (-1)^n charpoly(0) shows only at odd n
    rng = random.Random(f"det:{p}")
    field = Field(p)
    for n in (1, 2, 3, 4, 5):
        wants = []
        for k in range(16):
            rows = [[random_scalar(rng, field).val for _ in range(n)] for _ in range(n)]
            if k == 0 and n > 1:  # singular: a repeated row
                rows[-1] = list(rows[0])
            wants.append(oracle.det(rows, p))
            assert Matrix(field, rows).det().val == wants[-1], (p, rows)
        assert any(wants)
