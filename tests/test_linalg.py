import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

import oracle
from conftest import random_invertible, random_scalar
from tdpair121 import (
    Field,
    Matrix,
    QQ,
    SingularMatrixError,
    Subspace,
    charpoly,
    construct,
    eigen_data,
    poly_roots,
    primitive_idempotents,
    subspace_combine,
)


def p0_system():
    from tdpair121 import ParameterArray
    return construct(ParameterArray.make(QQ, (1, 0, -1), (1, 0, -1), 2, 1))


def test_matrix_product_and_identity():
    m = Matrix(QQ, [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert m * Matrix.identity(QQ, 4) == m
    mm = m * m
    assert mm.rows[0][1] == QQ(4)


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


def _int_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


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
    assert accepted and rejected


def test_subspace_sum_and_intersection_basics():
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    u = Subspace(QQ, 4, [e1])
    v = Subspace(QQ, 4, [e2])
    both = subspace_combine([u, v], "sum")
    assert both.dim == 2
    assert both == Subspace(QQ, 4, [e1, e2])
    assert subspace_combine([both, both], "intersect") == both


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
