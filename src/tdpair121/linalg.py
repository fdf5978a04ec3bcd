"""Dense exact linear algebra on the 4-dimensional column space.

Matrices are immutable grids of :class:`~tdpair121.fields.FieldElement`.
Over the rationals, products, row reduction and determinants run
fraction-free on integer rows with one denominator (Bareiss elimination
for determinants), and build a reduced Fraction only per output entry.
Subspaces are kept in a canonical echelon form so that equality of
subspaces is equality of representations.  Eigenvalues are the roots of
the characteristic polynomial in the base field.  Over GF(p) they are
found in time polynomial in log p: the product of the distinct linear
factors is gcd(f, x^p - x), which equal-degree splitting
(Cantor-Zassenhaus) breaks into single roots.  Over the rationals they
come from a rational-root search over divisors of the cleared
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, permutations, repeat
from operator import eq, mul

from .fields import Field, FieldElement


class SingularMatrixError(ValueError):
    pass


Vector = tuple  # tuple of FieldElement

# The kernels below work on raw values: ints over GF(p), Fractions over QQ.
# Entrywise operations may leave GF(p) ints unreduced: _box reduces once per
# entry, and _holds before its zero test.  Over GF(p), _rref and _det_rows
# take entries in [0, p) and keep them there.  Over QQ, _rref and _det_rows
# clear denominators once (_int_grid, _int_row), run on integers, and build
# one reduced Fraction per entry on the way out (_fracs), so no gcd is paid
# per scalar operation.
#
# Products, inverses and shifts run on raw grids (rows, den), rows being a
# list of row lists: over GF(p) residues in [0, p) with den 1, over QQ
# integer rows over one positive denominator (not necessarily the least).
# A matrix keeps its own grid (Matrix._grid), and a chain of grid
# operations ends in one matrix that keeps the last grid
# (Matrix._from_grid) and boxes it, once per entry, only when its rows are
# read.  Two matrices holding grids compare them (Matrix.__eq__).
# Matrix.rows and Subspace.basis stay tuples of FieldElements.

_new = object.__new__
_ZERO = Fraction(0)


def _unbox(field: Field, vec) -> list:
    """Raw values of a vector over field.

    Elements of field pass by an identity test; ints, Fractions and strings
    are coerced; an element of another field raises ValueError and any
    other value TypeError.
    """
    return [field(x).val for x in vec]


def _box(field: Field, vals) -> Vector:
    """Elements of field from raw values (any ints over GF(p), which are
    reduced here; Fractions over QQ)."""
    p = field.p
    out = []
    for v in vals:
        e = _new(FieldElement)
        e.field = field
        e.val = v % p if p else v
        out.append(e)
    return tuple(out)


def _mat_vec(rows, v) -> list:
    """Raw product of the rows with the vector, unreduced."""
    return [sum(map(mul, row, v)) for row in rows]


def _int_grid(rows):
    """Integer rows and one common denominator d of Fraction rows: each
    entry is its integer over d."""
    den = math.lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _int_row(row):
    """Integer row and denominator of one Fraction row, as _int_grid."""
    den = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _fracs(nums, den) -> list:
    """Reduced Fractions nums[i] / den."""
    return [Fraction(v, den) if v else _ZERO for v in nums]


def _grid_of(rows, p: int):
    """Raw grid of canonical raw rows."""
    return (rows, 1) if p else _int_grid(rows)


def _grid_rows(g, p: int) -> list:
    """Canonical raw rows of a raw grid."""
    rows, den = g
    return rows if p else [_fracs(r, den) for r in rows]


def _mul_grids(a, b, p: int):
    """Raw grid of the product of two raw grids of matching shapes."""
    (ra, da), (rb, db) = a, b
    cols = list(zip(*rb))
    if p:
        return [[sum(map(mul, row, c)) % p for c in cols] for row in ra], 1
    return [_mat_vec(cols, row) for row in ra], da * db


def _shift_grid(g, c, p: int):
    """Raw grid of M - c*I for the raw grid g of M and a raw scalar c."""
    rows, den = g
    if p:
        return [[(a - c) % p if i == j else a for j, a in enumerate(r)]
                for i, r in enumerate(rows)], 1
    cn, cd = c.numerator, c.denominator
    return [[a * cd - cn * den if i == j else a * cd for j, a in enumerate(r)]
            for i, r in enumerate(rows)], den * cd


def _scale_grid(g, c, p: int):
    """Raw grid of c*M for the raw grid g of M and a nonzero raw scalar c."""
    rows, den = g
    if p:
        return [[a * c % p for a in r] for r in rows], 1
    cn = c.numerator
    return [[a * cn for a in r] for r in rows], den * c.denominator


def _inv_grid(g, p: int):
    """Raw grid of the inverse of the square raw grid g; raises
    SingularMatrixError when g is singular.

    Over QQ, fraction-free Gauss-Jordan (_rref_int) on the integer rows R
    leaves row i of [R | I] as a_i times row i of [I | R^-1], so
    (R/den)^-1 = den * R^-1 is one grid over lcm(a_i), which is cut down to
    the least common denominator: the inverses of a system's bases are
    built once and enter many products, which is where their size costs."""
    rows, den = g
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SingularMatrixError("cannot invert a non-square matrix")
    work = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    if p:
        if _rref(work, p) != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return [r[n:] for r in work], 1
    if _rref_int(work) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    lcm = math.lcm(*[r[i] for i, r in enumerate(work)])
    rows = [[x * f for x in r[n:]] for r, f in
            ((r, den * (lcm // r[i])) for i, r in enumerate(work))]
    g = math.gcd(lcm, *[x for r in rows for x in r])
    return [[x // g for x in r] for r in rows], lcm // g


def _apply_raw(g, v, p: int, c=0) -> list:
    """Canonical raw (M - c*I)v for the raw grid g of M, a canonical raw
    vector v and a raw scalar c; Mv when c is left out."""
    rows, den = g
    if p:
        return [(x - c * y) % p for x, y in zip(_mat_vec(rows, v), v)]
    ints, dv = _int_row(v)
    cn, cd = c.numerator, c.denominator
    return _fracs([cd * x - cn * den * y for x, y in zip(_mat_vec(rows, ints), ints)],
                  den * dv * cd)


def _kernel_rows(work, p: int) -> list:
    """Raw basis of the null space of the raw rows work (over QQ, ints or
    Fractions), which _rref reduces in place: one vector per free column."""
    pivots = _rref(work, p)
    n = len(work[0])
    zero, one = (0, 1) if p else (_ZERO, Fraction(1))
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [zero] * n
        v[f] = one
        for i, pj in enumerate(pivots):
            v[pj] = -work[i][f] % p if p else -work[i][f]
        basis.append(v)
    return basis


def _row_sub(row, f, top, p: int) -> list:
    """row - f * top, reduced mod p."""
    return [(a - f * b) % p for a, b in zip(row, top)]


def _rref(work, p: int):
    """In-place reduced row echelon form of raw rows over GF(p) (p > 0) or
    QQ (p == 0, ints or Fractions); returns the pivot columns.  The first len(pivots) rows are
    then the reduced rows; over QQ the rows past them are left as they
    were.  Rows are replaced, never mutated, so they may be tuples."""
    if not p:
        ints = [_int_row(row)[0] for row in work]
        pivots = _rref_int(ints)
        work[:len(pivots)] = [_fracs(row, row[c]) for row, c in zip(ints, pivots)]
        return pivots
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p)
        top = work[r] = [x * inv % p for x in work[r]]
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                work[i] = _row_sub(work[i], f, top, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_int(work):
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the
    pivot columns.

    Each elimination cross-multiplies two rows and divides the result by
    its content, so entries stay as small as the row allows.  Row i (for i
    below the rank) ends as its reduced row times its pivot entry
    work[i][pivots[i]], nonzero in no other pivot column.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        a = top[c]
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                g = math.gcd(a, f)
                fa, ff = a // g, f // g
                row = [fa * x - ff * y for x, y in zip(work[i], top)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _meet_rows(x, y, n: int, p: int) -> list:
    """Raw rows of span(x) /\\ span(y) in F^n, in reduced echelon form.

    Zassenhaus elimination: in the reduced echelon form of the rows (u, u)
    for u in x and (v, 0) for v in y, the rows whose left half vanished
    carry a basis of the intersection in their right halves.
    """
    work = [(*u, *u) for u in x] + [(*v, *(0,) * n) for v in y]
    pivots = _rref(work, p)
    return [row[n:] for row in work[:len(pivots)] if not any(row[:n])]


def _det_rows(work, field: Field):
    """Raw determinant of square raw rows over field, by elimination;
    fraction-free (_det_int) over QQ."""
    p = field.p
    if not p:
        rows = [_int_row(row) for row in work]
        return Fraction(_det_int([r for r, _ in rows]), math.prod(d for _, d in rows))
    n = len(work)
    det = field.one.val
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return field.zero.val
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        top = work[c]
        det = det * top[c]
        inv = pow(top[c], -1, p)
        for i in range(c + 1, n):
            if work[i][c]:
                work[i] = _row_sub(work[i], work[i][c] * inv, top, p)
    return det % p


def _det_int(work) -> int:
    """Determinant of square integer rows by Bareiss elimination, in place.

    After the step on column c every entry right of it in the rows below is
    a minor of order c + 2 of the input (Sylvester's identity), so the
    division by the previous pivot is exact (Bareiss 1968).
    """
    n = len(work)
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        top = work[c]
        a = top[c]
        for i in range(c + 1, n):
            f = work[i][c]
            work[i] = [(a * x - f * y) // prev for x, y in zip(work[i], top)]
        prev = a
    return sign * work[-1][-1] if n else 1


def vec_is_zero(v) -> bool:
    return all(x.is_zero for x in v)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


class Matrix:
    """Immutable matrix over an exact field; rows of FieldElements.

    The raw grid of the matrix (:func:`_grid_of`) is kept in ``_raw_grid``
    once a product, inverse or ``apply`` has needed it.  A matrix built from
    a grid (:meth:`_from_grid`) keeps that grid and boxes its ``rows`` on
    first read; two matrices that both hold grids compare them.
    """

    __slots__ = ("field", "rows", "_raw_grid")

    def __getattr__(self, name):
        # reached only when a slot is unset: the rows of a matrix built
        # from a grid, before their first read
        if name != "rows":
            raise AttributeError(f"'Matrix' object has no attribute {name!r}")
        rows = self.rows = tuple(_box(self.field, r)
                                 for r in _grid_rows(self._raw_grid, self.field.p))
        return rows

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(field(x) for x in row) for row in rows)
        self._raw_grid = None
        ncols = {len(r) for r in self.rows}
        if len(self.rows) == 0 or len(ncols) != 1 or ncols == {0}:
            raise ValueError("matrix needs a rectangular, nonempty grid")

    @classmethod
    def _raw(cls, field, rows) -> Matrix:
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m._raw_grid = None
        return m

    @classmethod
    def _from_vals(cls, field, rows) -> Matrix:
        return cls._raw(field, tuple(_box(field, r) for r in rows))

    @classmethod
    def _from_grid(cls, field, g) -> Matrix:
        """The matrix of a raw grid, which it keeps; boxed once per entry
        when its rows are first read."""
        m = object.__new__(cls)
        m.field = field
        m._raw_grid = g
        return m

    def _vals(self) -> list:
        """Raw rows, as fresh lists."""
        g = self._raw_grid
        if g is not None and self.field.p:
            return [list(r) for r in g[0]]
        return [[x.val for x in r] for r in self.rows]

    def _grid(self):
        """The raw grid of the matrix, built on first use."""
        if self._raw_grid is None:
            self._raw_grid = _grid_of(self._vals(), self.field.p)
        return self._raw_grid

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        o, z = field.one, field.zero
        return cls._raw(field, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> Matrix:
        z = field.zero
        return cls._raw(field, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @classmethod
    def from_columns(cls, field: Field, columns) -> Matrix:
        cols = [tuple(field(x) for x in c) for c in columns]
        return cls._raw(field, tuple(zip(*cols)))

    @classmethod
    def diagonal(cls, field: Field, entries) -> Matrix:
        ds = [field(x) for x in entries]
        z = field.zero
        return cls._raw(field, tuple(
            tuple(ds[i] if i == j else z for j in range(len(ds))) for i in range(len(ds))))

    def _shape_rows(self):
        """The grid's rows when there is a grid, else the boxed rows."""
        g = self._raw_grid
        return self.rows if g is None else g[0]

    @property
    def nrows(self) -> int:
        return len(self._shape_rows())

    @property
    def ncols(self) -> int:
        return len(self._shape_rows()[0])

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> Matrix:
        return Matrix._raw(self.field, tuple(zip(*self.rows)))

    def __mul__(self, other: Matrix) -> Matrix:
        if self.field is not other.field:
            raise ValueError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        field = self.field
        return Matrix._from_grid(field, _mul_grids(self._grid(), other._grid(), field.p))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        field = self.field
        vals = _unbox(field, v)
        if len(vals) != self.ncols:
            raise ValueError("vector length does not match the matrix")
        return _box(field, _apply_raw(self._grid(), vals, field.p))

    def _check_compatible(self, other: Matrix) -> None:
        if self.field is not other.field:
            raise ValueError("field mismatch in entrywise operation")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_compatible(other)
        return Matrix._from_vals(self.field, [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._vals(), other._vals())])

    def __sub__(self, other: Matrix) -> Matrix:
        self._check_compatible(other)
        return Matrix._from_vals(self.field, [
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._vals(), other._vals())])

    def __neg__(self) -> Matrix:
        return Matrix._from_vals(self.field, [[-a for a in r] for r in self._vals()])

    def scale(self, c: FieldElement) -> Matrix:
        c = self.field(c).val
        return Matrix._from_vals(self.field, [[c * a for a in r] for r in self._vals()])

    def shift(self, c: FieldElement) -> Matrix:
        """self - c*I."""
        c = self.field(c).val
        return Matrix._from_vals(self.field, [
            [a - c if i == j else a for j, a in enumerate(r)] for i, r in enumerate(self._vals())])

    @property
    def is_zero(self) -> bool:
        return not any(x.val for r in self.rows for x in r)

    def __eq__(self, other):
        """Equal fields and shapes, and equal entries: when both matrices
        hold grids, equal residues over GF(p), or equal integers once each
        is multiplied by the other grid's denominator over QQ."""
        if not isinstance(other, Matrix) or self.field is not other.field:
            return False
        g, h = self._raw_grid, other._raw_grid
        if g is None or h is None:
            return self.rows == other.rows
        (ra, da), (rb, db) = g, h
        if da == db:  # always so over GF(p), where it is 1
            return ra == rb
        if list(map(len, ra)) != list(map(len, rb)):
            return False
        return all(map(eq, map(mul, chain.from_iterable(ra), repeat(db)),
                       map(mul, chain.from_iterable(rb), repeat(da))))

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    def rank(self) -> int:
        return len(_rref(self._vals(), self.field.p))

    def det(self) -> FieldElement:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _box(self.field, (_det_rows(self._vals(), self.field),))[0]

    def invert(self) -> Matrix:
        """Exact inverse; raises SingularMatrixError if rank < n."""
        return Matrix._from_grid(self.field, _inv_grid(self._grid(), self.field.p))

    def kernel(self):
        """Basis of the null space, as a list of vectors."""
        return [_box(self.field, v) for v in _kernel_rows(self._vals(), self.field.p)]

    def to_json(self):
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, field: Field, data) -> Matrix:
        return cls(field, [[field.parse(s) for s in row] for row in data])


class Subspace:
    """Subspace of F^n with a canonical echelon basis.

    The basis vectors are the rows of the reduced row echelon form of any
    generating set, so two equal subspaces have identical representations.
    """

    __slots__ = ("field", "ambient", "basis", "_rows", "_pivots")

    def __init__(self, field: Field, ambient: int, vectors=()):
        work = [_unbox(field, v) for v in vectors]
        for v in work:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        self._span(field, ambient, work)

    @classmethod
    def _from_vals(cls, field: Field, ambient: int, work) -> Subspace:
        """Span of raw vectors of length ambient, entries in canonical form."""
        s = object.__new__(cls)
        s._span(field, ambient, work)
        return s

    def _span(self, field, ambient, work) -> None:
        pivots = _rref(work, field.p)
        self.field = field
        self.ambient = ambient
        self._rows = tuple(tuple(r) for r in work[:len(pivots)])
        self._pivots = tuple(pivots)
        self.basis = tuple(_box(field, r) for r in self._rows)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> Subspace:
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> Subspace:
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @classmethod
    def column_space(cls, m: Matrix) -> Subspace:
        return cls(m.field, m.nrows, m.columns())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def matrix(self) -> Matrix:
        """Basis vectors as the columns of a matrix."""
        if not self.basis:
            raise ValueError("the zero subspace has no basis matrix")
        return Matrix.from_columns(self.field, self.basis)

    def _holds(self, v) -> bool:
        """Whether the raw vector v (over GF(p), any ints) lies in self.

        In reduced echelon form the coefficient of each basis row is the
        entry of v at that row's pivot."""
        for j, row in zip(self._pivots, self._rows):
            c = v[j]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        p = self.field.p
        return not any(x % p for x in v) if p else not any(v)

    def contains(self, v) -> bool:
        vals = _unbox(self.field, v)
        if len(vals) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return self._holds(vals)

    def contains_subspace(self, other: Subspace) -> bool:
        self._compat(other)
        return all(self._holds(v) for v in other._rows)

    def __add__(self, other: Subspace) -> Subspace:
        self._compat(other)
        return Subspace._from_vals(self.field, self.ambient, list(self._rows + other._rows))

    def __and__(self, other: Subspace) -> Subspace:
        """Intersection via Zassenhaus elimination (:func:`_meet_rows`)."""
        self._compat(other)
        n = self.ambient
        return Subspace._from_vals(self.field, n,
                                   _meet_rows(self._rows, other._rows, n, self.field.p))

    def _compat(self, other: Subspace) -> None:
        if self.field is not other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def image(self, m: Matrix) -> Subspace:
        """The subspace m(self)."""
        return Subspace(self.field, m.nrows, [m.apply(v) for v in self.basis])

    def is_invariant(self, m: Matrix) -> bool:
        if m.field is not self.field or (m.nrows, m.ncols) != (self.ambient, self.ambient):
            raise ValueError("matrix does not act on the ambient space")
        rows = m._vals()
        return all(self._holds(_mat_vec(rows, v)) for v in self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field is other.field
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self._rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, basis={[tuple(str(x) for x in v) for v in self.basis]})"

    def to_json(self):
        return [[str(x) for x in v] for v in self.basis]


def subspace_sum(parts) -> Subspace:
    parts = list(parts)
    acc = parts[0]
    for s in parts[1:]:
        acc = acc + s
    return acc


def subspace_intersection(parts) -> Subspace:
    parts = list(parts)
    acc = parts[0]
    for s in parts[1:]:
        acc = acc & s
    return acc


def subspace_combine(parts, op: str) -> Subspace:
    if op == "sum":
        return subspace_sum(parts)
    if op == "intersect":
        return subspace_intersection(parts)
    raise ValueError(f"unknown subspace operation {op!r}")


# -- polynomials (dense coefficient lists, low degree first) ----------------

def _p_trim(cs):
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs

def _p_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        if i < len(a) and i < len(b):
            out.append(a[i] + b[i])
        elif i < len(a):
            out.append(a[i])
        else:
            out.append(b[i])
    return _p_trim(out)


def _p_mul(field, a, b):
    if not a or not b:
        return []
    z = field.zero
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _p_trim(out)


def _p_eval(cs, x):
    acc = x.field.zero
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _p_div_linear(cs, r):
    """Divide by (x - r); returns (quotient, remainder)."""
    out = []
    acc = r.field.zero
    for c in reversed(cs):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return _p_trim(out), rem


def _p_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inverse()
    while len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i, x in enumerate(b):
            r[d + i] = r[d + i] - c * x
        _p_trim(r)
        if not r:
            break
    return _p_trim(q), r


def _p_gcd(field, a, b):
    a, b = list(a), list(b)
    while b:
        _, rem = _p_divmod(field, a, b)
        a, b = b, rem
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


_PARITY4 = {p: (1 if sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 == 0 else -1)
            for p in permutations(range(4))}


def charpoly(m: Matrix):
    """Coefficients of det(xI - M), low degree first, monic."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    field = m.field
    one, z = field.one, field.zero
    entries = [[[-m.rows[i][j], one] if i == j else ([] if m.rows[i][j].is_zero else [-m.rows[i][j]])
                for j in range(n)] for i in range(n)]
    acc = []
    for perm in permutations(range(n)):
        term = [one]
        for i in range(n):
            term = _p_mul(field, term, entries[i][perm[i]])
            if not term:
                break
        if not term:
            continue
        if n == 4:
            sign = _PARITY4[perm]
        else:
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            sign = 1 if inv % 2 == 0 else -1
        if sign < 0:
            term = [-c for c in term]
        acc = _p_add(acc, term)
    out = [z] * (n + 1)
    for i, c in enumerate(acc):
        out[i] = c
    return out


def _int_divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _p_mulmod(field, a, b, mod):
    return _p_divmod(field, _p_mul(field, a, b), mod)[1]


def _p_powmod(field, base, e: int, mod):
    """base**e reduced mod a polynomial of degree >= 1, by repeated squaring."""
    acc = [field.one]
    base = _p_divmod(field, base, mod)[1]
    while e:
        if e & 1:
            acc = _p_mulmod(field, acc, base, mod)
        e >>= 1
        if e:
            base = _p_mulmod(field, base, base, mod)
    return acc


def _gf_distinct_roots(field: Field, cs):
    """Distinct roots in GF(p) of the nonzero polynomial cs."""
    if field.p == 2:
        return [x for x in field.elements() if _p_eval(cs, x).is_zero]
    if len(cs) < 2:
        return []
    z, one = field.zero, field.one
    xp = _p_powmod(field, [z, one], field.p, cs)
    return _gf_split(field, _p_gcd(field, cs, _p_add(xp, [z, -one])))


def _gf_split(field: Field, h):
    """Roots of a monic h over GF(p), p odd, that is a product of distinct
    linear factors.

    A root r divides off into gcd(h, (x + a)^((p-1)/2) - 1) exactly when
    r + a is a nonzero square.  The shifts a = 0, 1, 2, ... are tried in
    turn; for roots r != s the ratio (r + a)/(s + a) takes every value but
    1 as a varies, a non-square among them, so some shift splits h.
    """
    if len(h) <= 2:
        return [-h[0]] if len(h) == 2 else []
    one = field.one
    for a in count():
        t = _p_powmod(field, [field(a), one], (field.p - 1) // 2, h)
        d = _p_gcd(field, h, _p_add(t, [-one]))
        if 1 < len(d) < len(h):
            return _gf_split(field, d) + _gf_split(field, _p_divmod(field, h, d)[0])


def poly_roots(field: Field, coeffs):
    """Roots in the field with multiplicities, as a list of (root, mult)."""
    cs = _p_trim([field(c) for c in coeffs])
    if not cs:
        raise ValueError("the zero polynomial has every element as a root")
    found = []
    if field.p:
        candidates = _gf_distinct_roots(field, cs)
    else:
        # rational root theorem on the integer-cleared polynomial
        lcm = 1
        for c in cs:
            lcm = lcm * c.val.denominator // math.gcd(lcm, c.val.denominator)
        ints = [int(c.val * lcm) for c in cs]
        k = 0
        while ints[k] == 0:
            k += 1
        candidates = [field.zero] if k else []
        a0, an = ints[k], ints[-1]
        seen = set()
        for pnum in _int_divisors(a0):
            for qden in _int_divisors(an):
                for s in (1, -1):
                    fr = Fraction(s * pnum, qden)
                    if fr not in seen:
                        seen.add(fr)
                        candidates.append(field(fr))
    for cand in candidates:
        if _p_eval(cs, cand).is_zero:
            mult = 0
            while True:
                q, rem = _p_div_linear(cs, cand)
                if not rem.is_zero:
                    break
                cs = q
                mult += 1
            found.append((cand, mult))
    found.sort(key=lambda t: t[0].val)
    return found


@dataclass(frozen=True)
class EigenData:
    eigenvalues: tuple
    multiplicities: tuple
    eigenspaces: tuple
    diagonalizable: bool


def eigen_data(m: Matrix) -> EigenData:
    """Eigenvalues in the base field, their eigenspaces, diagonalizability.

    The matrix is diagonalizable over its field exactly when the geometric
    dimensions add up to the size, which is also when the minimal
    polynomial splits into distinct linear factors.
    """
    roots = poly_roots(m.field, charpoly(m))
    values, mults, spaces = [], [], []
    for val, mult in roots:
        values.append(val)
        mults.append(mult)
        spaces.append(_eigenspace(m, val))
    diag = sum(s.dim for s in spaces) == m.nrows
    return EigenData(tuple(values), tuple(mults), tuple(spaces), diag)


def _eigenspace(m: Matrix, e: FieldElement) -> Subspace:
    """ker(m - e I) of a square matrix: the kernel of the rows of its raw
    grid, whose denominator does not change the kernel."""
    p = m.field.p
    rows, _ = _shift_grid(m._grid(), e.val, p)
    return Subspace._from_vals(m.field, m.ncols, _kernel_rows(rows, p))


def primitive_idempotents(m: Matrix, eigenvalues):
    """Projections onto the eigenspaces along each other.

    E_i is the product of (M - e_j I)/(e_i - e_j) over j != i.  Requires m
    diagonalizable with exactly the given distinct eigenvalues, which holds
    exactly when (M - e_0 I) E_0 = 0 and every E_i is nonzero.  Proof:
    (M - e_0 I) E_0 is a unit multiple of P = prod_j (M - e_j I).  If P = 0,
    the e_j being distinct, M is diagonalizable with its spectrum inside
    {e_j}; the E_i are then its spectral projectors, and E_i != 0 exactly
    when e_i is an eigenvalue.  Conversely, for such an M the minimal
    polynomial divides prod_j (x - e_j), so P = 0.
    """
    field = m.field
    if m.nrows != m.ncols:
        raise ValueError("idempotents of a non-square matrix")
    evs = [field(e) for e in eigenvalues]
    if not evs:
        raise ValueError("no eigenvalues supplied")
    if len(set(evs)) != len(evs):
        raise ValueError("repeated eigenvalue supplied")
    p, g = field.p, m._grid()
    out = []
    for i, ei in enumerate(evs):
        acc, scale = None, field.one
        for j, ej in enumerate(evs):
            if i != j:
                factor = _shift_grid(g, ej.val, p)
                acc = factor if acc is None else _mul_grids(acc, factor, p)
                scale = scale * (ei - ej)
        if acc is None:  # a lone eigenvalue: E_0 = I
            acc = [[int(r == c) for c in range(m.ncols)] for r in range(m.nrows)], 1
        else:
            acc = _scale_grid(acc, scale.inverse().val, p)
        out.append(acc)
    check = _mul_grids(_shift_grid(g, evs[0].val, p), out[0], p)
    if any(map(any, check[0])) or not all(any(map(any, e[0])) for e in out):
        raise ValueError("matrix is not diagonalizable with exactly these eigenvalues")
    return [Matrix._from_grid(field, e) for e in out]
