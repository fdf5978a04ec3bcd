"""Dense exact linear algebra on the 4-dimensional column space.

A matrix is its raw grid: over GF(p) rows of residues, over the rationals
integer rows over one denominator, and so are vectors and subspace rows.
Every kernel runs on them, so over the rationals it is fraction-free, and
a reduced Fraction is built only per entry read.  Subspaces are kept in a
canonical echelon form so that equality of subspaces is equality of
representations.  Eigenvalues are the roots of the characteristic
polynomial in the base field; both are computed on raw coefficients in
:mod:`tdpair121._poly`, and :func:`charpoly` and :func:`poly_roots` only
unbox and box at its edge.  A determinant is the constant term of the
characteristic polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from operator import add, and_, eq, mul

from . import _poly
from .fields import Field, FieldElement


class SingularMatrixError(ValueError):
    pass


Vector = tuple  # tuple of FieldElement

# One raw form per object; Fractions are built only where a public value
# leaves, by _box: Matrix.rows and Subspace.basis on first read, returned
# vectors and charpoly's coefficients.  poly_roots' roots are the raw
# scalars of _poly.roots, wrapped as they are.  Public input is unboxed
# (_unbox) and cleared of denominators (_grid_of) on the way in.
# - A raw grid is a pair (rows, den): over GF(p) residues in [0, p) over
#   den 1, over QQ integer rows over one positive denominator, not
#   necessarily the least.  Every Matrix holds one (Matrix._grid), and
#   every kernel and Matrix.__eq__ read it.
# - A raw vector is a pair (vals, den) of the same form, canonical so that
#   equal vectors are equal pairs: over QQ gcd(den, *vals) == 1.
# - Subspace._rows are the reduced echelon rows, over QQ each scaled to a
#   primitive integer row with a positive pivot: no rank, annihilator or
#   membership test sees the scale, and a row enters _apply_raw as (row, 1).
# _rref is the only elimination, for both fields: over GF(p) it scales
# pivots to 1, over QQ it is fraction-free.  Null spaces, eigenspaces and
# meets are annihilators (_ann), read off one elimination on as many
# columns as the space has, so only _inv_grid eliminates on 2n columns.

_new = object.__new__


def _unbox(field: Field, vec) -> list:
    """Raw values of a vector over field.

    Elements of field pass by an identity test; ints, Fractions and strings
    are coerced; an element of another field raises ValueError and any
    other value TypeError.
    """
    return [field(x).val for x in vec]


def _box(field: Field, vals, den=1) -> Vector:
    """Elements of field from raw values: any ints over GF(p), which are
    reduced here; over QQ rationals over den, each one reduced Fraction."""
    p = field.p
    out = []
    for v in vals:
        e = _new(FieldElement)
        e.field = field
        e.val = v % p if p else Fraction(v, den)
        out.append(e)
    return tuple(out)


def _mat_vec(rows, v) -> list:
    """Raw product of the rows with the vector, unreduced."""
    return [sum(map(mul, row, v)) for row in rows]


def _grid_of(rows, p: int):
    """Raw grid of rows of element values: residues over GF(p); over QQ
    the integer rows over the lcm of the Fractions' denominators."""
    if p:
        return rows, 1
    den = math.lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _vector_of(field: Field, vec) -> tuple:
    """The raw vector of a public vector over field (coerced as _unbox)."""
    rows, den = _grid_of([_unbox(field, vec)], field.p)
    return rows[0], den


def _primitive(row, lead) -> list:
    """An integer row over its content, negated if its entry lead is < 0."""
    g = math.gcd(*row)
    if lead < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


def _vector(vals, den) -> tuple:
    """The canonical raw vector vals/den over QQ, for a nonzero den."""
    *vals, den = _primitive([*vals, den], den)
    return vals, den


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


def _add_grids(a, b, p: int):
    """Raw grid of the sum of two raw grids of one shape; over QQ over the
    least common multiple of their denominators."""
    (ra, da), (rb, db) = a, b
    if p:
        return [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(ra, rb)], 1
    g = math.gcd(da, db)
    fa, fb = db // g, da // g
    return [[x * fa + y * fb for x, y in zip(r, s)] for r, s in zip(ra, rb)], da * fa


def _scale_grid(g, c, p: int):
    """Raw grid of c*M for the raw grid g of M and a raw scalar c (an int
    or, over QQ, a Fraction)."""
    rows, den = g
    if p:
        return [[a * c % p for a in r] for r in rows], 1
    cn = c.numerator
    return [[a * cn for a in r] for r in rows], den * c.denominator


def _inv_grid(g, p: int):
    """Raw grid of the inverse of the square raw grid g; raises
    SingularMatrixError when g is singular.

    _rref reduces [R | I] for the raw rows R.  Over QQ its fraction-free
    elimination leaves row i as a_i times row i of [I | R^-1], so
    (R/den)^-1 = den * R^-1 is one grid over lcm(a_i), which is cut down to
    the least common denominator: the inverses of a system's bases are
    built once and enter many products, which is where their size costs."""
    rows, den = g
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SingularMatrixError("cannot invert a non-square matrix")
    work = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    if _rref(work, p) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    if p:
        return [r[n:] for r in work], 1
    lcm = math.lcm(*[r[i] for i, r in enumerate(work)])
    rows = [[x * f for x in r[n:]] for r, f in
            ((r, den * (lcm // r[i])) for i, r in enumerate(work))]
    g = math.gcd(lcm, *[x for r in rows for x in r])
    return [[x // g for x in r] for r in rows], lcm // g


def _apply_raw(g, v, p: int, c=0) -> tuple:
    """The raw vector (M - c*I)v for the raw grid g of M, a raw vector v
    and a raw scalar c; Mv when c is left out."""
    (rows, den), (vals, dv) = g, v
    if p:
        return [(x - c * y) % p for x, y in zip(_mat_vec(rows, vals), vals)], 1
    cn, cd = c.numerator, c.denominator
    return _vector([cd * x - cn * den * y for x, y in zip(_mat_vec(rows, vals), vals)],
                   den * dv * cd)


def _rref(work, p: int):
    """In-place reduced row echelon form of raw rows, residues in [0, p)
    over GF(p) or integers over QQ (p = 0); returns the pivot columns.  The
    first len(pivots) rows are then the reduced rows.  Rows are replaced,
    never mutated, so they may be tuples.

    Over GF(p) the pivot row is scaled to 1.  When column c takes its
    pivot, every row from the pivot row down is zero left of c: a column
    without a pivot is zero from the pivot row down, and each earlier pivot
    column was cleared.  So the pivot row is zero left of c, and each
    update keeps row[:c] and rewrites the row from column c on only.

    Over QQ elimination is fraction-free: each update cross-multiplies two
    rows and divides the result by its content, so entries stay as small
    as the row allows.  Row i (for i below the rank) ends as its reduced
    row times its pivot entry work[i][pivots[i]], nonzero in no other
    pivot column.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue
        top = work[i]
        work[i] = work[r]
        a = top[c]
        if p and a != 1:
            inv = pow(a, -1, p)
            top = [x * inv % p for x in top]
        work[r] = top
        tail = top[c:]
        for i in range(nrows):
            row = work[i]
            f = row[c]
            if not f or i == r:
                continue
            if p:
                work[i] = [*row[:c], *[(x - f * y) % p for x, y in zip(row[c:], tail)]]
            else:
                g = math.gcd(a, f)
                fa, ff = a // g, f // g
                row = [fa * x - ff * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rank(rows, p: int) -> int:
    """Rank of raw rows: residues over GF(p), integers over QQ."""
    return len(_rref(list(rows), p))


def _ann(rows, n: int, p: int) -> list:
    """Canonical raw rows (as Subspace._rows) of the annihilator of the raw
    rows in F^n, the null space {v : r . v = 0 for r in rows}; all of F^n
    when there are no rows.

    The rows are reduced with their columns reversed.  The null-space
    vector of a free column f of that form is 1 at f, 0 at the other free
    columns and nonzero only left of f; read back in the original order,
    these vectors lead with 1 at their own columns and are 0 at each
    other's: the reduced echelon form, over QQ cleared and made primitive.
    """
    work = [r[::-1] for r in rows]
    pivots = _rref(work, p)
    out = []
    for f in range(n - 1, -1, -1):
        if f in pivots:
            continue
        lead = 1 if p else math.lcm(*[row[c] for row, c in zip(work, pivots) if row[f]])
        v = [0] * n
        v[n - 1 - f] = lead
        for row, c in zip(work, pivots):
            if row[f]:
                v[n - 1 - c] = -row[f] % p if p else -row[f] * lead // row[c]
        out.append(v if p else _primitive(v, lead))
    return out


def _meet_rows(x, y, n: int, p: int) -> list:
    """Raw rows of span(x) /\\ span(y) in F^n, in reduced echelon form: the
    annihilator of the sum of their annihilators."""
    return _ann(_ann(x, n, p) + _ann(y, n, p), n, p)


def _shaped(rows) -> list:
    """rows, checked to be a nonempty rectangular grid: the one shape rule
    of every public Matrix constructor."""
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix needs a rectangular, nonempty grid")
    return rows


def _require_matrix(m) -> None:
    if not isinstance(m, Matrix):
        raise TypeError(f"expected a Matrix, got {type(m).__name__}")


class Matrix:
    """Immutable matrix over an exact field.

    A matrix is its raw grid ``_grid`` = (rows, den), set when it is built:
    over GF(p) rows of residues in [0, p) over den 1, over QQ integer rows
    over one positive denominator.  ``rows``, a tuple of rows of
    FieldElements, is boxed from the grid on first read.
    """

    __slots__ = ("field", "rows", "_grid")

    def __getattr__(self, name):
        # reached only when a slot is unset: the rows, before their first read
        if name != "rows":
            raise AttributeError(f"'Matrix' object has no attribute {name!r}")
        rows, den = self._grid
        rows = self.rows = tuple(_box(self.field, r, den) for r in rows)
        return rows

    def __init__(self, field: Field, rows):
        self.field = field
        self._grid = _grid_of(_shaped([_unbox(field, r) for r in rows]), field.p)

    @classmethod
    def _from_grid(cls, field, g) -> Matrix:
        """The matrix of a raw grid."""
        m = _new(cls)
        m.field = field
        m._grid = g
        return m

    @classmethod
    def _from_rows(cls, field, rows) -> Matrix:
        """The matrix of rows of element values (FieldElement.val)."""
        return cls._from_grid(field, _grid_of(_shaped(rows), field.p))

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        return cls._from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> Matrix:
        return cls._from_rows(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, columns) -> Matrix:
        cols = _shaped([_unbox(field, c) for c in columns])
        return cls._from_rows(field, [list(r) for r in zip(*cols)])

    @classmethod
    def diagonal(cls, field: Field, entries) -> Matrix:
        ds = _unbox(field, entries)
        return cls._from_rows(field, [[d if i == j else 0 for j in range(len(ds))]
                                      for i, d in enumerate(ds)])

    @property
    def nrows(self) -> int:
        return len(self._grid[0])

    @property
    def ncols(self) -> int:
        return len(self._grid[0][0])

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> Matrix:
        rows, den = self._grid
        return Matrix._from_grid(self.field, ([list(c) for c in zip(*rows)], den))

    def __mul__(self, other: Matrix) -> Matrix:
        _require_matrix(other)
        if self.field is not other.field:
            raise ValueError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        field = self.field
        return Matrix._from_grid(field, _mul_grids(self._grid, other._grid, field.p))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        field = self.field
        vec = _vector_of(field, v)
        if len(vec[0]) != self.ncols:
            raise ValueError("vector length does not match the matrix")
        return _box(field, *_apply_raw(self._grid, vec, field.p))

    def _check_compatible(self, other: Matrix) -> None:
        _require_matrix(other)
        if self.field is not other.field:
            raise ValueError("field mismatch in entrywise operation")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_compatible(other)
        return Matrix._from_grid(self.field, _add_grids(self._grid, other._grid, self.field.p))

    def __sub__(self, other: Matrix) -> Matrix:
        return self + -other

    def __neg__(self) -> Matrix:
        return Matrix._from_grid(self.field, _scale_grid(self._grid, -1, self.field.p))

    def scale(self, c: FieldElement) -> Matrix:
        field = self.field
        return Matrix._from_grid(field, _scale_grid(self._grid, field(c).val, field.p))

    def shift(self, c: FieldElement) -> Matrix:
        """self - c*I."""
        if self.nrows != self.ncols:
            raise ValueError("shift of a non-square matrix")
        field = self.field
        return Matrix._from_grid(field, _shift_grid(self._grid, field(c).val, field.p))

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self._grid[0]))

    def __eq__(self, other):
        """Equal fields and equal grids: equal residues over GF(p), or equal
        shapes and equal integers once each is multiplied by the other
        grid's denominator over QQ."""
        if not isinstance(other, Matrix) or self.field is not other.field:
            return False
        (ra, da), (rb, db) = self._grid, other._grid
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
        return _rank(self._grid[0], self.field.p)

    def det(self) -> FieldElement:
        """(-1)^n times the constant term of the characteristic polynomial,
        which Berkowitz's method computes without division."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        c = charpoly(self)[0]
        return -c if self.nrows % 2 else c

    def invert(self) -> Matrix:
        """Exact inverse; raises SingularMatrixError if rank < n."""
        return Matrix._from_grid(self.field, _inv_grid(self._grid, self.field.p))

    def kernel(self):
        """Basis of the null space, as a list of vectors in reduced echelon
        form."""
        n = self.ncols
        return list(Subspace._from_echelon(self.field, n,
                                          _ann(self._grid[0], n, self.field.p)).basis)

    def to_json(self):
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, field: Field, data) -> Matrix:
        return cls(field, [[field.parse(s) for s in row] for row in data])


class Subspace:
    """Subspace of F^n with a canonical echelon basis.

    ``_rows`` are the reduced row echelon rows of any generating set, over
    QQ each made primitive with a positive pivot, so two equal subspaces
    have identical representations.  ``basis``, the reduced echelon rows
    as tuples of FieldElements, is boxed from them on first read.
    """

    __slots__ = ("field", "ambient", "basis", "_rows", "_pivots")

    def __getattr__(self, name):
        # reached only when a slot is unset: the basis, before its first read
        if name != "basis":
            raise AttributeError(f"'Subspace' object has no attribute {name!r}")
        basis = self.basis = tuple(_box(self.field, r, r[j])
                                   for r, j in zip(self._rows, self._pivots))
        return basis

    def __init__(self, field: Field, ambient: int, vectors=()):
        work = [_unbox(field, v) for v in vectors]
        for v in work:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        self._span(field, ambient, _grid_of(work, field.p)[0])

    @classmethod
    def _from_vals(cls, field: Field, ambient: int, work) -> Subspace:
        """Span of raw rows (residues over GF(p), integers over QQ)."""
        s = object.__new__(cls)
        s._span(field, ambient, work)
        return s

    @classmethod
    def _from_echelon(cls, field: Field, ambient: int, rows) -> Subspace:
        """Span of canonical raw rows already in reduced echelon form, such
        as those of :func:`_ann`, taken as they are."""
        s = object.__new__(cls)
        s._set(field, ambient, rows, [next(j for j, x in enumerate(r) if x) for r in rows])
        return s

    def _span(self, field, ambient, work) -> None:
        p = field.p
        pivots = _rref(work, p)
        self._set(field, ambient, [r if p else _primitive(r, r[c])
                                   for r, c in zip(work, pivots)], pivots)

    def _set(self, field, ambient, rows, pivots) -> None:
        self.field = field
        self.ambient = ambient
        self._rows = tuple(tuple(r) for r in rows)
        self._pivots = tuple(pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> Subspace:
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> Subspace:
        return cls(field, ambient, [[int(i == j) for j in range(ambient)]
                                    for i in range(ambient)])

    @classmethod
    def column_space(cls, m: Matrix) -> Subspace:
        return cls(m.field, m.nrows, m.columns())

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def matrix(self) -> Matrix:
        """Basis vectors as the columns of a matrix."""
        if not self._rows:
            raise ValueError("the zero subspace has no basis matrix")
        return Matrix.from_columns(self.field, self.basis)

    def _holds(self, v) -> bool:
        """Whether the raw values v (any ints over GF(p)) lie in self.

        In reduced echelon form the coefficient of each row is the entry c
        of v at the row's pivot d, over d; v becomes d*v - c*row."""
        for j, row in zip(self._pivots, self._rows):
            c = v[j]
            if c:
                d = row[j]
                v = [a * d - c * b for a, b in zip(v, row)]
        p = self.field.p
        return not any(x % p for x in v) if p else not any(v)

    def contains(self, v) -> bool:
        vals = _unbox(self.field, v)
        if len(vals) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return self._holds(_grid_of([vals], self.field.p)[0][0])

    def contains_subspace(self, other: Subspace) -> bool:
        self._compat(other)
        return all(self._holds(v) for v in other._rows)

    def __add__(self, other: Subspace) -> Subspace:
        self._compat(other)
        return Subspace._from_vals(self.field, self.ambient, list(self._rows + other._rows))

    def __and__(self, other: Subspace) -> Subspace:
        """Intersection, the annihilator of the sum of the two annihilators
        (:func:`_meet_rows`)."""
        self._compat(other)
        n = self.ambient
        return Subspace._from_echelon(self.field, n,
                                      _meet_rows(self._rows, other._rows, n, self.field.p))

    def _compat(self, other: Subspace) -> None:
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {type(other).__name__}")
        if self.field is not other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def image(self, m: Matrix) -> Subspace:
        """The subspace m(self), spanned by the images of the raw rows."""
        p = self.field.p
        _require_matrix(m)
        if m.field is not self.field or m.ncols != self.ambient:
            raise ValueError("matrix does not act on the ambient space")
        return Subspace._from_vals(self.field, m.nrows,
                                   [_apply_raw(m._grid, (r, 1), p)[0] for r in self._rows])

    def is_invariant(self, m: Matrix) -> bool:
        _require_matrix(m)
        if m.field is not self.field or (m.nrows, m.ncols) != (self.ambient, self.ambient):
            raise ValueError("matrix does not act on the ambient space")
        rows = m._grid[0]
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
    """Sum of one or more subspaces of one space; raises ValueError when
    there are none, as no ambient space is known then."""
    return subspace_combine(parts, "sum")


def subspace_intersection(parts) -> Subspace:
    """Intersection of one or more subspaces of one space; raises
    ValueError when there are none, as subspace_sum does."""
    return subspace_combine(parts, "intersect")


def subspace_combine(parts, op: str) -> Subspace:
    """The sum (op "sum") or intersection (op "intersect") of one or more
    subspaces; raises ValueError for another op or no subspaces."""
    if op not in ("sum", "intersect"):
        raise ValueError(f"unknown subspace operation {op!r}")
    parts = list(parts)
    if not parts:
        raise ValueError(f"no subspaces to {op}: the ambient space is unknown")
    return reduce(add if op == "sum" else and_, parts)


# -- polynomial edges: the work is done on raw coefficients in _poly -----------

def charpoly(m: Matrix):
    """Coefficients of det(xI - M), low degree first, monic; over QQ those of
    the grid's integer rows, coefficient k over den^(n-k), boxed over den^n."""
    (rows, den), p, n = m._grid, m.field.p, m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    cs = _poly.charpoly(rows, p)
    return list(_box(m.field, [c * den ** k for k, c in enumerate(cs)], den ** n))


def poly_roots(field: Field, coeffs):
    """Roots in the field with multiplicities, as a list of (root, mult)
    ascending by value; over QQ found on the integer-cleared polynomial."""
    cs = _poly.trim(_grid_of([_unbox(field, coeffs)], field.p)[0][0])
    if not cs:
        raise ValueError("the zero polynomial has every element as a root")
    return [(FieldElement._raw(field, r), m) for r, m in _poly.roots(cs, field.p)]


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
    """ker(m - e I) of a square matrix: the annihilator of the rows of its
    raw grid, whose denominator does not change it."""
    p, n = m.field.p, m.ncols
    rows, _ = _shift_grid(m._grid, e.val, p)
    return Subspace._from_echelon(m.field, n, _ann(rows, n, p))


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
    p, g = field.p, m._grid
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
