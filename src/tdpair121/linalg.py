"""Dense exact linear algebra on the 4-dimensional column space.

A matrix is its raw grid: over GF(p) rows of residues, over the rationals
integer rows over one denominator, and so are vectors and subspace rows.
Every kernel runs on them, so over the rationals it is fraction-free, and
a reduced Fraction is built only per entry read.  The raw forms are
private to this module: each rule on raw values is implemented once, here
(such as :func:`_columns`, :func:`_scale_raw` and :meth:`Subspace._maps`)
or in :mod:`tdpair121._poly`, and other modules only hand raw values to
it.  Subspaces are kept in a canonical echelon form, so that equal
subspaces have equal representations.  Characteristic polynomials, their
roots and determinants are computed on raw coefficients in ``_poly``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, repeat
from operator import add, and_, eq, mul

from . import _poly
from ._poly import _primitive
from .fields import Field, FieldElement, _require


class SingularMatrixError(ValueError):
    pass


Vector = tuple  # tuple of FieldElement

# Fractions are built only where a public value leaves, by _box: Matrix.rows
# and Subspace.basis on first read, returned vectors and charpoly's
# coefficients; poly_roots wraps _poly.roots' raw scalars.  Public input is
# unboxed (_unbox) and cleared of denominators (_grid_of) on the way in.
# The raw forms, one per object:
# - A raw grid is a pair (rows, den): over GF(p) residues in [0, p) over
#   den 1, over QQ integer rows over one positive denominator, not
#   necessarily the least.  Every Matrix holds one (Matrix._grid), and
#   every kernel and Matrix.__eq__ read it.
# - A raw vector is a pair (vals, den) of the same form, canonical so that
#   equal vectors are equal pairs: over QQ gcd(den, *vals) == 1.
# - Subspace._rows are the reduced echelon rows, over QQ each scaled to a
#   primitive integer row with a positive pivot: no rank, annihilator or
#   membership test sees the scale, and a row enters _apply_raw as (row, 1).
# - A frame (_Frame) is a matrix's spectral data for one ordered tuple of raw
#   eigenvalues: the eigenspaces, whether they diagonalize it, P of
#   _eigenbasis with its column blocks and P^-1.  A matrix keeps one record of
#   its spectrum, Matrix._spectrum, for as long as it lives: one frame, the
#   raw values in its order and their multiplicities.  Any other ordering of
#   those values is that frame relabelled (_Frame._relabel), its spaces and
#   blocks permuted and P and P^-1 shared, so nothing is eliminated again;
#   idempotents, eigen_data, verification, a system's eigenspaces and its
#   transition and the invariant search all read it, so each is built once
#   per matrix.  Values are compared with ==, never hashed.
# _rref is the only elimination, for both fields: over GF(p) it scales
# pivots to 1, over QQ it is fraction-free.  Null spaces, eigenspaces and
# meets are read by one null-space reader (_null) off one elimination on as
# many columns as the space has, of rows given with their columns reversed:
# _ann reverses the rows it is given, and _eigenspace builds the shifted
# rows of M - e I reversed in one pass.  The reader returns the canonical
# rows with their pivots, the free columns the elimination found.  Only
# _inv_grid eliminates on [g | I] or [g | rhs].

_new = object.__new__


def _unbox(field: Field, vec) -> list:
    """Raw values of a vector over field.

    Elements of field pass by an identity test; ints, Fractions and strings
    are coerced; an element of another field raises ValueError and any
    other value TypeError.  A string is no vector, though it is a sequence,
    so vec itself being one raises TypeError too.
    """
    if isinstance(vec, str):
        raise TypeError(f"expected a vector, got {type(vec).__name__}")
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


def _vector(vals, den) -> tuple:
    """The canonical raw vector vals/den over QQ, for a nonzero den."""
    *vals, den = _primitive([*vals, den], den)
    return vals, den


def _columns(vectors):
    """Raw grid with the raw vectors as columns, over their denominators' lcm."""
    den = math.lcm(*[d for _, d in vectors])
    return [list(r) for r in zip(*[v if d == den else [x * (den // d) for x in v]
                                   for v, d in vectors])], den


def _hstack(grids):
    """Raw grid of raw grids of as many rows side by side, over their denominators' lcm."""
    den = math.lcm(*[d for _, d in grids])
    parts = [rows if d == den else [[x * (den // d) for x in r] for r in rows] for rows, d in grids]
    return [list(chain.from_iterable(rs)) for rs in zip(*parts)], den


def _cut(g, at: int):
    """Raw grid of the four columns at to at + 3 of the raw grid g."""
    return [r[at:at + 4] for r in g[0]], g[1]


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


def _scale_columns(g, cs, p: int):
    """Raw grid of M diag(cs) for the raw grid g of M and raw scalars cs (ints
    or, over QQ, Fractions); over QQ over den times their denominators' lcm."""
    rows, den = g
    if p:
        return [[x * c % p for x, c in zip(r, cs)] for r in rows], 1
    lcm = math.lcm(*[c.denominator for c in cs])
    fs = [c.numerator * (lcm // c.denominator) for c in cs]
    return [list(map(mul, r, fs)) for r in rows], den * lcm


def _scale_raw(c, v, p: int) -> tuple:
    """The raw vector c*v for a raw scalar c and a raw vector v."""
    vals, den = v
    if p:
        return [c * x % p for x in vals], 1
    return _vector([c.numerator * x for x in vals], c.denominator * den)


def _inv_grid(g, p: int, rhs=None):
    """Raw grid of g^-1 rhs for a square raw grid g and a raw grid rhs of as
    many rows, g^-1 without rhs; raises SingularMatrixError for a singular g.

    _rref reduces [R | S] for the raw rows R of g and S of rhs (I over 1
    without rhs).  Over QQ its fraction-free elimination leaves row i as a_i
    times row i of [I | R^-1 S], so (R/den)^-1 (S/sden) = den R^-1 S / sden
    is one grid over lcm(a_i) sden, cut down to the least common denominator."""
    rows, den = g
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SingularMatrixError("cannot invert a non-square matrix")
    srows, sden = rhs or ([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1)
    work = [[*r, *s] for r, s in zip(rows, srows, strict=True)]
    if _rref(work, p) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    if p:
        return [r[n:] for r in work], 1
    lcm = math.lcm(*[r[i] for i, r in enumerate(work)])
    rows = [[x * f for x in r[n:]] for r, f in
            ((r, den * (lcm // r[i])) for i, r in enumerate(work))]
    g = math.gcd(lcm * sden, *[x for r in rows for x in r])
    return [[x // g for x in r] for r in rows], lcm * sden // g


def _image(g, vals, c) -> list:
    """(M - c*I)vals for the raw grid g of M and a raw scalar c, unreduced;
    over QQ times the denominators of g and c."""
    (rows, den), cn, cd = g, c.numerator, c.denominator
    return [cd * x - cn * den * y for x, y in zip(_mat_vec(rows, vals), vals)]


def _apply_raw(g, v, p: int, c=0) -> tuple:
    """The raw vector (M - c*I)v for the raw grid g of M, a raw vector v
    and a raw scalar c; Mv when c is left out."""
    w = _image(g, v[0], c)
    return ([x % p for x in w], 1) if p else _vector(w, g[1] * v[1] * c.denominator)


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


def _det_small(rows, p: int):
    """Determinant of a square raw grid of order 0, 1 or 2 in closed form, 1,
    a or ad - bc: over GF(p) a residue, over QQ that of the integer rows."""
    if len(rows) < 2:
        det = rows[0][0] if rows else 1
    else:
        (a, b), (c, d) = rows
        det = a * d - b * c
    return det % p if p else det


def _null(work, n: int, p: int) -> tuple:
    """Canonical raw rows (as Subspace._rows, tuples) of the null space in
    F^n of raw rows whose n columns work holds reversed, with their pivots:
    all of F^n when there are no rows.  work is reduced in place.

    The null-space vector of a free column f of the reversed form is 1 at f,
    0 at the other free columns and nonzero only left of f; read back in the
    original order, these vectors lead with 1 at their own columns n - 1 - f
    and are 0 at each other's: the reduced echelon form, over QQ cleared and
    made primitive with a positive pivot, and those columns its pivots."""
    pivots = _rref(work, p)
    rows, leads = [], []
    for f in range(n - 1, -1, -1):
        if f in pivots:
            continue
        lead = 1 if p else math.lcm(*[row[c] for row, c in zip(work, pivots) if row[f]])
        v = [0] * n
        v[n - 1 - f] = lead
        for row, c in zip(work, pivots):
            if row[f]:
                v[n - 1 - c] = -row[f] % p if p else -row[f] * lead // row[c]
        rows.append(tuple(v) if p else tuple(_primitive(v, lead)))
        leads.append(n - 1 - f)
    return tuple(rows), tuple(leads)


def _ann(rows, n: int, p: int) -> tuple:
    """Canonical raw rows and pivots, as :func:`_null` gives them, of the
    annihilator of the raw rows in F^n, {v : r . v = 0 for r in rows}."""
    return _null([r[::-1] for r in rows], n, p)


def _shaped(rows) -> list:
    """rows, checked to be a nonempty rectangular grid: the one shape rule
    of every public Matrix constructor."""
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix needs a rectangular, nonempty grid")
    return rows


class Matrix:
    """Immutable matrix over an exact field.

    A matrix is its raw grid ``_grid`` = (rows, den), set when it is built:
    over GF(p) rows of residues in [0, p) over den 1, over QQ integer rows
    over one positive denominator.  ``rows``, a tuple of rows of
    FieldElements, is boxed from the grid on first read.  ``_spectrum``, the
    record of its spectrum (a :class:`_Frame`, the raw values in its order and
    their multiplicities), is set by the first :func:`_frame` that finds the
    matrix diagonalizable, or else by the first :func:`eigen_data`, with the
    frame of the roots it found.  No comparison, hash or boxed value reads it.
    """

    __slots__ = ("field", "rows", "_grid", "_spectrum")

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
        _require(field, Field)
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
        _require(other, Matrix)
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
        _require(other, Matrix)
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
        return self.scale(-1)

    def scale(self, c: FieldElement) -> Matrix:
        field, cs = self.field, [self.field(c).val] * self.ncols
        return Matrix._from_grid(field, _scale_columns(self._grid, cs, field.p))

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
        n, p = self.ncols, self.field.p
        return list(Subspace._from_echelon(self.field, n, _ann(self._grid[0], n, p)).basis)

    def to_json(self):
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, field: Field, data) -> Matrix:
        _require(field, Field)
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
        _require(field, Field)
        _require(ambient, int)
        if ambient < 0:
            raise ValueError("ambient dimension must not be negative")
        work = [_unbox(field, v) for v in vectors]
        if any(len(v) != ambient for v in work):
            raise ValueError("vector length does not match ambient dimension")
        self._span(field, ambient, _grid_of(work, field.p)[0])

    @classmethod
    def _from_vals(cls, field: Field, ambient: int, work) -> Subspace:
        """Span of raw rows (residues over GF(p), integers over QQ)."""
        s = object.__new__(cls)
        s._span(field, ambient, work)
        return s

    @classmethod
    def _from_echelon(cls, field: Field, ambient: int, null) -> Subspace:
        """The subspace of canonical raw rows with their pivots, both tuples,
        as :func:`_null` returns them, taken as they are."""
        s = object.__new__(cls)
        s._set(field, ambient, *null)
        return s

    def _span(self, field, ambient, work) -> None:
        p = field.p
        pivots = _rref(work, p)
        self._set(field, ambient, tuple(tuple(r) if p else tuple(_primitive(r, r[c]))
                                        for r, c in zip(work, pivots)), tuple(pivots))

    def _set(self, field, ambient, rows, pivots) -> None:
        self.field = field
        self.ambient = ambient
        self._rows = rows
        self._pivots = pivots

    @classmethod
    def zero(cls, field: Field, ambient: int) -> Subspace:
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> Subspace:
        return cls(field, ambient, [[int(i == j) for j in range(ambient)]
                                    for i in range(ambient)])

    @classmethod
    def column_space(cls, m: Matrix) -> Subspace:
        _require(m, Matrix)
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
        """Intersection, the annihilator of the sum of the two annihilators."""
        self._compat(other)
        n, p = self.ambient, self.field.p
        return Subspace._from_echelon(
            self.field, n, _ann(_ann(self._rows, n, p)[0] + _ann(other._rows, n, p)[0], n, p))

    def _compat(self, other: Subspace) -> None:
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {type(other).__name__}")
        if self.field is not other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def image(self, m: Matrix) -> Subspace:
        """The subspace m(self), spanned by the images of the raw rows."""
        p = self.field.p
        _require(m, Matrix)
        if m.field is not self.field or m.ncols != self.ambient:
            raise ValueError("matrix does not act on the ambient space")
        return Subspace._from_vals(self.field, m.nrows,
                                   [_apply_raw(m._grid, (r, 1), p)[0] for r in self._rows])

    def is_invariant(self, m: Matrix) -> bool:
        _require(m, Matrix)
        if m.field is not self.field or (m.nrows, m.ncols) != (self.ambient, self.ambient):
            raise ValueError("matrix does not act on the ambient space")
        return self._maps(m._grid, 0, self)

    def _maps(self, g, c, dst: Subspace) -> bool:
        """Whether M - c*I maps self into dst, for the raw grid g of M and a raw
        scalar c; the images are left as _image gives them, as _holds ignores scale."""
        return all(dst._holds(_image(g, v, c)) for v in self._rows)

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
    subspaces; raises ValueError for another op or no subspaces, and
    TypeError for a part that is not a Subspace, a lone part included."""
    if op not in ("sum", "intersect"):
        raise ValueError(f"unknown subspace operation {op!r}")
    parts = list(parts)
    if not parts:
        raise ValueError(f"no subspaces to {op}: the ambient space is unknown")
    for s in parts:
        if not isinstance(s, Subspace):
            raise TypeError(f"expected a Subspace, got {type(s).__name__}")
    return reduce(add if op == "sum" else and_, parts)


# -- polynomial edges: the work is done on raw coefficients in _poly -----------

def charpoly(m: Matrix):
    """Coefficients of det(xI - M), low degree first, monic; over QQ those of
    the grid's integer rows, coefficient k over den^(n-k), boxed over den^n."""
    _require(m, Matrix)
    (rows, den), p, n = m._grid, m.field.p, m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    cs = _poly.charpoly(rows, p)
    return list(_box(m.field, [c * den ** k for k, c in enumerate(cs)], den ** n))


def poly_roots(field: Field, coeffs):
    """Roots in the field with multiplicities, as a list of (root, mult)
    ascending by value; over QQ found on the integer-cleared polynomial."""
    _require(field, Field)
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
    """Eigenvalues in the base field, ascending as :func:`poly_roots` gives
    them, with their multiplicities and eigenspaces, and whether the matrix is
    diagonalizable over its field, read off the record of its spectrum.  Only
    a matrix with no record finds the roots of its characteristic polynomial;
    it then keeps their frame, so a later call finds no root again."""
    _require(m, Matrix)
    try:
        frame, vals, mults = m._spectrum
    except AttributeError:  # the roots' frame is kept even if it fails the one rule
        values, mults = tuple(zip(*poly_roots(m.field, charpoly(m)))) or ((), ())
        frame, vals = _frame(m, values), tuple(e.val for e in values)
        m._spectrum = frame, vals, mults
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return EigenData(tuple(FieldElement._raw(m.field, vals[i]) for i in order),
                     tuple(mults[i] for i in order),
                     tuple(frame.spaces[i] for i in order), frame.ok)


def _eigenspace(m: Matrix, e: FieldElement) -> Subspace:
    """ker(m - e I) of a square matrix, read by :func:`_null` off the rows of
    M - e I, built with their columns reversed in one pass (a grid's rows are
    lists, so a reversed copy takes the shift in place).  Over QQ, for the
    raw grid rows/den of M and e = cn/cd, they are the rows of cd*rows -
    cn*den*I, a scale of M - e I that does not change its kernel."""
    (rows, den), p, c, n = m._grid, m.field.p, e.val, m.ncols
    cn, cd = (c, 1) if p else (c.numerator * den, c.denominator)
    work = []
    for i, r in enumerate(rows):
        w = r[::-1] if cd == 1 else [x * cd for x in reversed(r)]
        k = n - 1 - i
        w[k] = (w[k] - cn) % p if p else w[k] - cn
        work.append(w)
    return Subspace._from_echelon(m.field, n, _null(work, n, p))


def _eigenbasis(spaces, p: int) -> tuple:
    """P, the raw grid with the raw rows of independent spaces side by side
    as columns, a repeated one once, then the unit vectors off their pivots
    that complete a basis of F^n; and the column indices of each space.  A
    relabelled frame permutes the blocks, so they may come in any column
    order.  Both are tuples of ints and ranges, which the cyclic garbage
    collector stops tracking, as a frame keeps them for the life of its matrix."""
    cols, at = [], {}
    for s in spaces:
        if s._rows not in at:
            at[s._rows] = range(len(cols), len(cols) + s.dim)
            cols += s._rows
    if len(cols) < (n := spaces[0].ambient):
        pivots = _rref(list(cols), p)
        cols += [[int(i == k) for i in range(n)] for k in range(n) if k not in pivots]
    return (tuple(zip(*cols)), 1), tuple(at[s._rows] for s in spaces)


class _Frame:
    """The spectral data of a square matrix M for one ordered tuple of values:
    ``spaces``, the eigenspaces ker(M - e I); ``ok``, whether M is
    diagonalizable with exactly these values, as :func:`_frame` decides;
    ``basis``, P and the column blocks of each space, as :func:`_eigenbasis`
    gives them; and ``inverse``, P^-1: built on first read, or shared with
    the frame that :meth:`_relabel` permuted, so the blocks may come in any
    column order.  A frame holds subspaces and raw grids only, never its matrix."""

    __slots__ = ("spaces", "ok", "p", "_basis", "_inverse")

    def __init__(self, spaces, ok: bool, p: int):
        self.spaces, self.ok, self.p = spaces, ok, p
        self._basis = self._inverse = None

    def _relabel(self, order) -> _Frame:
        """The frame of these values reordered by the indices order: spaces
        and column blocks permuted, P and P^-1 shared (built here if not yet)."""
        frame = _Frame(tuple(self.spaces[i] for i in order), self.ok, self.p)
        (b, idx), frame._inverse = self.basis, self.inverse
        frame._basis = b, tuple(idx[i] for i in order)
        return frame

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            self._basis = _eigenbasis(self.spaces, self.p)
        return self._basis

    @property
    def inverse(self) -> tuple:
        if self._inverse is None:  # kept as tuples, as P is
            rows, den = _inv_grid(self.basis[0], self.p)
            self._inverse = tuple(map(tuple, rows)), den
        return self._inverse


def _frame(m: Matrix, evs) -> _Frame:
    """The frame of the square m for the values evs, elements of its field.
    An ordering of the values of m's record is its frame, relabelled unless in
    the record's order.  Any other tuple gets a frame built for it, kept as
    the record of a matrix with none only if m is diagonalizable with exactly
    those values (the one rule: distinct values, nonzero spaces adding up to n)."""
    raw = [e.val for e in evs]
    kept, vals, _ = getattr(m, "_spectrum", (None, None, None))
    if kept is not None and len(raw) == len(vals) and all(v in raw for v in vals):
        order = tuple(map(vals.index, raw))
        return kept if order == tuple(range(len(raw))) else kept._relabel(order)
    spaces = tuple(_eigenspace(m, e) for e in evs)
    ok = (all(s._rows for s in spaces) and sum(s.dim for s in spaces) == m.nrows
          and all(x != y for x, y in combinations(raw, 2)))
    frame = _Frame(spaces, ok, m.field.p)
    if ok and kept is None:  # the spectrum's one frame; any other is answered, not kept
        m._spectrum = frame, tuple(raw), tuple(s.dim for s in spaces)
    return frame


def _spectral(m: Matrix, evs) -> tuple:
    """The primitive idempotents of the square m for the values evs, raising
    ValueError as :func:`primitive_idempotents`: E_i is the thin product
    P[:, I_i] P^-1[I_i, :] of its :func:`_frame`."""
    if not evs:
        raise ValueError("no eigenvalues supplied")
    frame = _frame(m, evs)
    if not frame.ok:
        raise ValueError("repeated eigenvalue supplied" if len(set(evs)) != len(evs)
                         else "matrix is not diagonalizable with exactly these eigenvalues")
    ((b, _), idx), (q, den), p = frame.basis, frame.inverse, m.field.p
    return tuple(Matrix._from_grid(m.field, _mul_grids(
        ([[r[k] for k in ks] for r in b], 1), ([q[k] for k in ks], den), p)) for ks in idx)


def primitive_idempotents(m: Matrix, eigenvalues):
    """Projections onto the eigenspaces along each other, read off them; [I] for a lone
    eigenvalue.  ValueError unless m is square and diagonalizable with exactly these values."""
    _require(m, Matrix)
    if m.nrows != m.ncols:
        raise ValueError("idempotents of a non-square matrix")
    return list(_spectral(m, [m.field(e) for e in eigenvalues]))
