"""The six bases, representation matrices, and all 30 transition matrices.

From a seed vector in the first dual eigenspace, four chain vectors are
built; they generate four split bases plus one eigenbasis for each of the
two transformations.  Representation and transition matrices come in two
independent flavors: closed formulas in the parameter array, and numeric
slices of one elimination per basis B, B^-1 [all six bases | A B | A* B].
The two must agree exactly; the formula tables below are transcriptions,
never compositions, so that the cross-check is meaningful.  Both flavors
run on raw values and return matrices that keep their raw grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .fields import _require
from .linalg import (
    Matrix,
    SingularMatrixError,
    _apply_raw,
    _box,
    _columns,
    _cut,
    _grid_of,
    _hstack,
    _inv_grid,
    _mul_grids,
    _scale_raw,
    _vector,
    _vector_of,
)
from .params import ParameterArray, _require_admissible, extract_parameter_array
from .tdsystem import TDSystem


class BasisId(Enum):
    SPLIT_ZD = "SplitZD"
    SPLIT_ZZ = "SplitZZ"
    SPLIT_DZ = "SplitDZ"
    SPLIT_DD = "SplitDD"
    EIG_A = "EigA"
    EIG_ASTAR = "EigAstar"

    # members are singletons that compare by identity, so they hash by it:
    # Enum.__hash__ is Python code, and every table and basis lookup pays it
    __hash__ = object.__hash__


def _known(basis) -> BasisId:
    """basis, checked to be a BasisId, for the numeric and the formula side."""
    if not isinstance(basis, BasisId):
        raise ValueError(f"unknown basis {basis!r}")
    return basis


@dataclass(frozen=True)
class EtaVectors:
    eta0star: tuple
    eta0: tuple
    eta2: tuple
    eta2star: tuple


def _require_idempotents(tds) -> None:
    """_require(tds, TDSystem); ValueError for a system without E and Estar."""
    _require(tds, TDSystem)
    if len(tds.E) != 3 or len(tds.Estar) != 3:
        raise ValueError("the system holds no idempotents; build it with TDSystem.from_matrices")


def canonical_seed(tds: TDSystem):
    """First dual eigenspace image of the earliest standard vector,
    rescaled so its first nonzero coordinate is 1."""
    _require_idempotents(tds)
    return _box(tds.field, *_canonical_seed(tds))


def _canonical_seed(tds: TDSystem) -> tuple:
    """The raw vector of :func:`canonical_seed`, read off a column of the
    grid of E*_0; over QQ the grid's denominator cancels in the rescaling."""
    p = tds.field.p
    for v in zip(*tds.Estar[0]._grid[0]):
        lead = next((x for x in v if x), None)
        if lead is not None:
            return _scale_raw(pow(lead, -1, p), (v, 1), p) if p else _vector(v, lead)
    raise ValueError("zero projector")


def eta_vectors(tds: TDSystem, seed=None) -> EtaVectors:
    """The chain vectors grown from a seed of the first dual eigenspace;
    without a seed, the system's own, grown once from :func:`canonical_seed`.
    The record grown from a seed is kept as the system's _eta_bases."""
    _require_idempotents(tds)
    if seed is None:
        return tds._bases.eta
    rec = _SystemBases(tds, _vector_of(tds.field, seed))
    object.__setattr__(tds, "_eta_bases", rec)  # the system is frozen
    return rec.eta


def _chain(tds: TDSystem, seed: tuple) -> tuple:
    """Raw vectors (eta0*, eta0, eta2, eta2*) grown from the raw seed eta0*,
    and the first factor of three of the products, ((A - t0)eta0*,
    (A - t2)eta0*, (A* - s0)eta2), which are columns of split bases too."""
    p = tds.field.p
    if len(seed[0]) != 4:
        raise ValueError("seed vector must have 4 coordinates")
    if not any(seed[0]):
        raise ValueError("seed vector is zero")
    if _apply_raw(tds.Estar[0]._grid, seed, p) != seed:
        raise ValueError("seed vector is outside the first dual eigenspace")
    t0, t1, t2 = (x.val for x in tds.theta)
    s0, s1 = tds.thetastar[0].val, tds.thetastar[1].val
    a, astar = tds.A._grid, tds.Astar._grid
    zd, zz = _apply_raw(a, seed, p, t0), _apply_raw(a, seed, p, t2)
    eta0, eta2 = _apply_raw(a, zz, p, t1), _apply_raw(a, zd, p, t1)
    dd = _apply_raw(astar, eta2, p, s0)
    eta2star = _apply_raw(astar, dd, p, s1)
    for name, v in (("eta0", eta0), ("eta2", eta2), ("eta2star", eta2star)):
        if not any(v[0]):
            raise ValueError(f"chain vector {name} vanished; "
                             "input is not a shape-(1,2,1) system")
    return (seed, eta0, eta2, eta2star), (zd, zz, dd)


def _boxed_eta(field, chain) -> EtaVectors:
    return EtaVectors(*(_box(field, *v) for v in chain))


_AT = {b: 4 * k for k, b in enumerate(BasisId)}  # column offsets in the grid of the six


class _SystemBases:
    """One system's chain vectors grown from one raw seed, boxed (eta) and
    raw, and its six bases.  ``steps`` are the three partial products of
    :func:`_chain`, kept from the growth of the chain."""

    def __init__(self, tds: TDSystem, seed: tuple):
        self.chain, self.steps = _chain(tds, seed)
        self.eta = _boxed_eta(tds.field, self.chain)
        self._solved = None

    def solved(self, tds: TDSystem) -> dict:
        """The raw grid of the six bases side by side, keyed None, and for each
        basis B that of B^-1 [B_SplitZD | ... | B_EigAstar | A B | A* B], keyed B.
        Until all six are solved each call raises the first failure: ValueError
        for unreadable split scalars, else SingularMatrixError for a dependent basis."""
        if self._solved is None:
            p = tds.field.p
            eta0star, eta0, eta2, eta2star = self.chain
            (t0, _, t2), (s0, _, s2) = ([x.val for x in v] for v in (tds.theta, tds.thetastar))
            a, astar, e1, estar1 = (m._grid for m in (tds.A, tds.Astar, tds.E[1], tds.Estar[1]))
            pa = extract_parameter_array(tds)
            vp, ph = pa.varphi.val, pa.phi.val
            zd, zz, dd = self.steps
            # the columns of the six bases in BasisId order; (M - c I)v is Mv - cv
            bases = _columns([
                eta0star, zd, _apply_raw(astar, eta2, p, s2), eta2,
                eta0star, zz, _apply_raw(astar, eta0, p, s2), eta0,
                eta2star, _apply_raw(a, eta2star, p, t2),
                _scale_raw(vp, _apply_raw(astar, eta0, p, s0), p), _scale_raw(vp, eta0, p),
                eta2star, _apply_raw(a, eta2star, p, t0),
                _scale_raw(ph, dd, p), _scale_raw(ph, eta2, p),
                eta0, _apply_raw(e1, eta0star, p), _apply_raw(e1, eta2star, p), eta2,
                eta0star, _apply_raw(estar1, eta0, p), _apply_raw(estar1, eta2, p), eta2star])
            ab, asb = (_mul_grids(m, bases, p) for m in (a, astar))
            solved = {None: bases}
            for b, at in _AT.items():
                try:
                    solved[b] = _inv_grid(_cut(bases, at), p,
                                          _hstack([bases, _cut(ab, at), _cut(asb, at)]))
                except SingularMatrixError:
                    raise SingularMatrixError(f"{b.value} columns are dependent; "
                                              "input is not shape (1,2,1)") from None
            self._solved = solved
        return self._solved


def _numeric(tds: TDSystem, eta: EtaVectors | None, basis, at: int) -> Matrix:
    """Columns at to at + 3 of _SystemBases.solved()[basis], for the record of
    eta.  Beside the record of its canonical chain (_bases) the system keeps
    that of the last other eta grown or asked about (_eta_bases), so calls
    with one seed solve its six bases once, and no more than two records are
    kept.  Any other eta is grown again from its eta0*; ValueError unless
    that gives eta back."""
    _require_idempotents(tds)
    rec = tds._bases
    if eta is not None and eta != rec.eta:
        rec = getattr(tds, "_eta_bases", None)
        if rec is None or eta != rec.eta:
            _require(eta, EtaVectors)
            rec = _SystemBases(tds, _vector_of(tds.field, eta.eta0star))
            if rec.eta != eta:
                raise ValueError("eta is not the chain grown from its eta0*")
            object.__setattr__(tds, "_eta_bases", rec)  # the system is frozen
    return Matrix._from_grid(tds.field, _cut(rec.solved(tds)[basis], at))


def basis_matrix(tds: TDSystem, basis: BasisId, eta: EtaVectors | None = None) -> Matrix:
    """4x4 matrix whose columns are the requested basis, in order."""
    return _numeric(tds, eta, None, _AT[_known(basis)])


def represent(tds: TDSystem, which: str, basis: BasisId,
              eta: EtaVectors | None = None) -> Matrix:
    """Matrix B^-1 (M B) of the chosen transformation M in the basis B."""
    if which not in ("A", "Astar"):
        raise ValueError("operator must be 'A' or 'Astar'")
    return _numeric(tds, eta, _known(basis), 24 if which == "A" else 28)


def transition_numeric(tds: TDSystem, frm: BasisId, to: BasisId,
                       eta: EtaVectors | None = None) -> Matrix:
    """Transition matrix (from basis)^-1 (to basis)."""
    return _numeric(tds, eta, _known(frm), _AT[_known(to)])


# -- closed-form tables -------------------------------------------------------

class _Q:
    """A rational with a positive denominator, as the QQ tables compute with
    it: +, - and * cross-multiply and never reduce, so no gcd is paid per
    scalar operation.  Its fields have a Fraction's names, as an int's do,
    so linalg._grid_of puts a table of ints and _Qs over one denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator

    def __add__(self, other):
        return _Q(self.numerator * other.denominator + other.numerator * self.denominator,
                  self.denominator * other.denominator)

    def __sub__(self, other):
        return _Q(self.numerator * other.denominator - other.numerator * self.denominator,
                  self.denominator * other.denominator)

    def __mul__(self, other):
        return _Q(self.numerator * other.numerator, self.denominator * other.denominator)

    def __neg__(self):
        return _Q(-self.numerator, self.denominator)


def _inverses(vals, p: int) -> list:
    """Inverses of nonzero raw scalars: over GF(p) residues, over QQ (_Q
    values) numerator and denominator swapped, the denominator kept
    positive."""
    if p:
        return [pow(v, -1, p) for v in vals]
    return [_Q(v.denominator, v.numerator) if v.numerator > 0
            else _Q(-v.denominator, -v.numerator) for v in vals]


def _ctx(pa: ParameterArray) -> dict:
    """The raw values the tables read, as one dict by name: theta t0, t1,
    t2, thetastar s0, s1, s2, varphi vp, phi ph, the derived scalars vp1,
    vp2, ph1, ph2, the inverses T[i][j] = 1/(t_i - t_j) and S[i][j] =
    1/(s_i - s_j) (i != j), iv = 1/varphi and ip = 1/phi; the six
    differences in both signs, tij = t_i - t_j and sij = s_i - s_j; and the
    inverse products the tables repeat, iv_ip = iv ip, T10_12 = T[1][0]
    T[1][2], S10_12, T01_02, S01_02, T02_12 and S02_12.  Each table names
    what it reads as its parameters.

    Raises ValueError for an inadmissible array; conditions (i) and (ii)
    make the eight inverted values nonzero.  Kept as ParameterArray._table_ctx."""
    _require_admissible(pa)
    p, dp = pa.field.p, pa._derived
    vals = [x.val for x in (*pa.theta, *pa.thetastar, pa.varphi, pa.phi,
                            dp.varphi1, dp.varphi2, dp.phi1, dp.phi2)]
    if not p:
        vals = [_Q(v.numerator, v.denominator) for v in vals]
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2 = vals
    t01, t02, t12, s01, s02, s12 = diffs = (t0 - t1, t0 - t2, t1 - t2, s0 - s1, s0 - s2, s1 - s2)
    i01, i02, i12, j01, j02, j12, iv, ip = _inverses((*diffs, vp, ph), p)
    T = ((0, i01, i02), (-i01, 0, i12), (-i02, -i12, 0))
    S = ((0, j01, j02), (-j01, 0, j12), (-j02, -j12, 0))
    prods = [iv * ip, T[1][0] * i12, S[1][0] * j12, i01 * i02, j01 * j02, i02 * i12, j02 * j12]
    if p:
        prods = [x % p for x in prods]
    iv_ip, T10_12, S10_12, T01_02, S01_02, T02_12, S02_12 = prods
    return dict(t0=t0, t1=t1, t2=t2, s0=s0, s1=s1, s2=s2, vp=vp, ph=ph,
                vp1=vp1, vp2=vp2, ph1=ph1, ph2=ph2, T=T, S=S, iv=iv, ip=ip,
                t01=t01, t10=-t01, t02=t02, t20=-t02, t12=t12, t21=-t12,
                s01=s01, s10=-s01, s02=s02, s20=-s02, s12=s12, s21=-s12,
                iv_ip=iv_ip, T10_12=T10_12, S10_12=S10_12, T01_02=T01_02,
                S01_02=S01_02, T02_12=T02_12, S02_12=S02_12)


def _tabulate(pa: ParameterArray, key) -> Matrix:
    """The matrix of the table _TABLES keeps under key, at the array's raw
    values, keeping its grid: residues over GF(p); over QQ, where the
    entries are ints and _Qs, the grid of :func:`linalg._grid_of`."""
    _require(pa, ParameterArray)
    table, reads = _TABLES[key]
    rows = table(*reads(pa._table_ctx))
    p = pa.field.p
    if p:
        return Matrix._from_grid(pa.field, ([[a % p, b % p, c % p, d % p]
                                             for a, b, c, d in rows], 1))
    return Matrix._from_grid(pa.field, _grid_of(rows, 0))


def represent_formula(pa: ParameterArray, which: str, basis: BasisId) -> Matrix:
    """The tabulated representation matrix with parameters substituted;
    raises ValueError for an unknown operator or basis, or an inadmissible array."""
    if which not in ("A", "Astar"):
        raise ValueError("operator must be 'A' or 'Astar'")
    return _tabulate(pa, (which, _known(basis)))


def transition_formula(pa: ParameterArray, frm: BasisId, to: BasisId) -> Matrix:
    """The tabulated transition matrix with parameters substituted; raises
    ValueError for an unknown basis or an inadmissible array.

    Every ordered pair of distinct bases has its own tabulated matrix;
    nothing here is composed from other pairs, so agreement with
    transition_numeric is an actual check.
    """
    if _known(frm) is _known(to):
        _require_admissible(pa)  # the gate of the tables
        return Matrix.identity(pa.field, 4)
    return _tabulate(pa, (frm, to))


# Each table below transcribes one closed form of the paper.  Its name,
# _rep_<which>_<code> or _t_<frm>_<to>, gives its key in the registry
# _TABLES at the end, and its parameters, the names of _ctx it reads, are
# exactly what _tabulate passes it.  It divides nowhere: a quotient
# a / ((t_i - t_j) (s_k - s_l) varphi) is written a * T[i][j] * S[k][l] * iv,
# with the inverses _ctx took once per array, and it subtracts nowhere:
# t_i - t_j is tij, s_i - s_j sij, as _ctx formed them.  A product of
# inverses that many tables share, such as T[1][0] * T[1][2], is read as
# one name, T10_12.  Over GF(p) the entries come out as unreduced ints,
# over QQ as ints and _Qs; _tabulate turns either into a grid.

def _rep_a_zd(t0, t1, t2, vp2):
    return [[t0, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, vp2, t2]]

def _rep_astar_zd(s0, s1, s2, vp, vp1):
    return [[s0, vp1, vp, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s2]]

def _rep_a_zz(t0, t1, t2, ph2):
    return [[t2, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, ph2, t0]]

def _rep_astar_zz(s0, s1, s2, ph, ph1):
    return [[s0, ph1, ph, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s2]]

def _rep_a_dz(t0, t1, t2, vp1):
    return [[t2, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, vp1, t0]]

def _rep_astar_dz(s0, s1, s2, vp, vp2):
    return [[s2, vp2, vp, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s0]]

def _rep_a_dd(t0, t1, t2, ph1):
    return [[t0, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, ph1, t2]]

def _rep_astar_dd(s0, s1, s2, ph, ph2):
    return [[s2, ph2, ph, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s0]]

def _rep_a_eiga(t0, t1, t2):
    return [[t0, 0, 0, 0],
            [0, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 0, 0, t2]]

def _rep_astar_eiga(s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S,
                    t10, t12, s02, s20, T10_12, T02_12):
    return [
        [s0 + vp1 * T[0][1],
         vp1 * T[0][1] * T[0][1] * T[2][0],
         vp * ph2 * T[0][1] * T[0][1] * T[2][0],
         0],
        [ph * S[0][2],
         s1 + (vp + vp1 * t12 * s02) * T10_12 * S[0][2],
         vp * ph * T10_12 * S[0][2],
         vp * S[0][2]],
        [S[2][0],
         T10_12 * S[2][0],
         s1 + (vp + vp2 * t10 * s20) * T10_12 * S[2][0],
         S[2][0]],
        [0,
         ph1 * T[1][2] * T02_12,
         ph * vp2 * T[1][2] * T02_12,
         s2 + vp2 * T[2][1]],
    ]

def _rep_a_eigastar(t0, t1, t2, vp, ph, vp1, vp2, ph1, ph2, T, S,
                    t02, s01, s12, S10_12, S02_12):
    return [
        [t0 + vp1 * S[0][1],
         ph * vp1 * S[0][1] * S[0][1] * S[2][0],
         vp * ph1 * S[0][1] * S[0][1] * S[2][0],
         0],
        [T[0][2],
         t1 + (vp + vp1 * t02 * s12) * T[0][2] * S10_12,
         vp * T[0][2] * S10_12,
         vp * T[0][2]],
        [T[2][0],
         ph * T[2][0] * S10_12,
         t1 + (vp + vp2 * t02 * s01) * T[2][0] * S10_12,
         ph * T[2][0]],
        [0,
         ph2 * S[1][2] * S02_12,
         vp2 * S[1][2] * S02_12,
         t2 + vp2 * S[2][1]],
    ]

def _rep_astar_eigastar(s0, s1, s2):
    return [[s0, 0, 0, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 0],
            [0, 0, 0, s2]]


# transitions among the four split bases (ring neighbours)

def _t_zd_zz(ph2, t01, t02, s12):
    return [[1, t02, t02 * ph2, t02 * t01],
            [0, 1, t02 * s12, t02],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_zz_zd(vp2, t20, t21, s12):
    return [[1, t20, t20 * vp2, t20 * t21],
            [0, 1, t20 * s12, t20],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_zz_dz(vp, ph, vp2, t12, s20, s21):
    return [[ph, 0, 0, 0],
            [0, ph, 0, 0],
            [s20, s20 * t12, vp, 0],
            [s20 * s21, s20 * vp2, s20 * vp, vp]]

def _t_dz_zz(ph1, iv, ip, t12, s01, s02, iv_ip):
    return [[ip, 0, 0, 0],
            [0, ip, 0, 0],
            [s02 * iv_ip, s02 * t12 * iv_ip, iv, 0],
            [s02 * s01 * iv_ip, s02 * ph1 * iv_ip, s02 * iv, iv]]

def _t_dz_dd(ph1, t20, t21, s10):
    return [[1, t20, t20 * ph1, t20 * t21],
            [0, 1, t20 * s10, t20],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_dd_dz(vp1, t01, t02, s10):
    return [[1, t02, t02 * vp1, t02 * t01],
            [0, 1, t02 * s10, t02],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_dd_zd(vp1, iv, ip, t10, s01, s02, iv_ip):
    return [[iv, 0, 0, 0],
            [0, iv, 0, 0],
            [s02 * iv_ip, s02 * t10 * iv_ip, ip, 0],
            [s02 * s01 * iv_ip, s02 * vp1 * iv_ip, s02 * ip, ip]]

def _t_zd_dd(vp, ph, ph2, t10, s20, s21):
    return [[vp, 0, 0, 0],
            [0, vp, 0, 0],
            [s20, s20 * t10, ph, 0],
            [s20 * s21, s20 * ph2, s20 * ph, ph]]


# transitions among the four split bases (diagonals)

def _t_zd_dz(vp, vp1, vp2, t01, t02, t12, s10, s20, s21):
    return [[vp, t02 * vp, t02 * vp * vp1, t02 * t01 * vp],
            [0, vp, t02 * s10 * vp, t02 * vp],
            [s20, s20 * t12, vp, 0],
            [s20 * s21, s20 * vp2, s20 * vp, vp]]

def _t_dz_zd(vp1, vp2, ip, t10, t20, t21, s01, s02, s12, iv_ip):
    return [[ip, t20 * ip, t20 * vp2 * ip, t20 * t21 * ip],
            [0, ip, t20 * s12 * ip, t20 * ip],
            [s02 * iv_ip, s02 * t10 * iv_ip, ip, 0],
            [s02 * s01 * iv_ip, s02 * vp1 * iv_ip, s02 * ip, ip]]

def _t_zz_dd(ph, ph1, ph2, t10, t20, t21, s10, s20, s21):
    return [[ph, t20 * ph, t20 * ph * ph1, t20 * t21 * ph],
            [0, ph, t20 * s10 * ph, t20 * ph],
            [s20, s20 * t10, ph, 0],
            [s20 * s21, s20 * ph2, s20 * ph, ph]]

def _t_dd_zz(ph1, ph2, iv, t01, t02, t12, s01, s02, s12, iv_ip):
    return [[iv, t02 * iv, t02 * ph2 * iv, t02 * t01 * iv],
            [0, iv, t02 * s12 * iv, t02 * iv],
            [s02 * iv_ip, s02 * t12 * iv_ip, iv, 0],
            [s02 * s01 * iv_ip, s02 * ph1 * iv_ip, s02 * iv, iv]]


# transitions between a split basis and the first eigenbasis

def _t_zd_eiga(vp, vp2, T, t01, t10, t02, s20, T10_12):
    return [
        [t01 * t02, 0, 0, 0],
        [t02, T[1][0], vp * T[1][0], 0],
        [0, 0, s20, 0],
        [1, T10_12, (vp + vp2 * t10 * s20) * T10_12, 1],
    ]

def _t_eiga_zd(vp, vp2, T, S, t10, T01_02):
    return [[T01_02, 0, 0, 0],
            [1, t10, vp * S[0][2], 0],
            [0, 0, S[2][0], 0],
            [T[2][0] * T[2][1], T[2][1], vp2 * T[2][1], 1]]

def _t_zz_eiga(ph, ph2, T, t20, t12, t21, s20, T10_12):
    return [
        [0, 0, 0, t20 * t21],
        [0, T[1][2], ph * T[1][2], t20],
        [0, 0, s20, 0],
        [1, T10_12, (ph + ph2 * t12 * s20) * T10_12, 1],
    ]

def _t_eiga_zz(ph, ph2, T, S, t12, T01_02):
    return [[T01_02, T[0][1], ph2 * T[0][1], 1],
            [1, t12, ph * S[0][2], 0],
            [0, 0, S[2][0], 0],
            [T[2][0] * T[2][1], 0, 0, 0]]

def _t_dz_eiga(ph, ph1, T, iv, ip, t10, t20, t21, s02, iv_ip, T10_12):
    return [
        [0, 0, 0, t20 * t21 * ip],
        [0, ip * T[1][2], T[1][2], t20 * ip],
        [0, s02 * iv_ip, 0, 0],
        [iv,
         (ph + ph1 * t10 * s02) * T10_12 * iv_ip,
         T10_12,
         ip],
    ]

def _t_eiga_dz(vp, ph, vp1, T, S, t12, T01_02, T02_12):
    return [[vp * T01_02, vp * T[0][1], vp * vp1 * T[0][1], vp],
            [0, 0, vp * ph * S[0][2], 0],
            [1, t12, vp * S[2][0], 0],
            [ph * T02_12, 0, 0, 0]]

def _t_dd_eiga(vp, vp1, T, iv, ip, t01, t02, t12, s02, iv_ip, T10_12):
    return [
        [t01 * t02 * iv, 0, 0, 0],
        [t02 * iv, iv * T[1][0], T[1][0], 0],
        [0, s02 * iv_ip, 0, 0],
        [iv,
         (vp + vp1 * t12 * s02) * T10_12 * iv_ip,
         T10_12,
         ip],
    ]

def _t_eiga_dd(vp, ph, ph1, T, S, t10, T01_02, T02_12):
    return [[vp * T01_02, 0, 0, 0],
            [0, 0, vp * ph * S[0][2], 0],
            [1, t10, ph * S[2][0], 0],
            [ph * T02_12, ph * T[2][1], ph * ph1 * T[2][1], ph]]


# transitions between a split basis and the second eigenbasis

def _t_zd_eigastar(vp, ph, ph2, S, t02, s10, s20, s21, S10_12):
    return [
        [1,
         (ph + ph2 * t02 * s10) * S10_12,
         vp * S10_12,
         vp],
        [0, t02, 0, 0],
        [0, S[1][2], S[1][2], s20],
        [0, 0, 0, s20 * s21],
    ]

def _t_eigastar_zd(vp, vp1, T, S, s12, S01_02, S02_12):
    return [[1, vp1 * S[0][1], vp * S[0][1], vp * S01_02],
            [0, T[0][2], 0, 0],
            [0, T[2][0], s12, 1],
            [0, 0, 0, S02_12]]

def _t_zz_eigastar(vp, ph, vp2, S, t02, t20, s01, s20, s21, S10_12):
    return [
        [1,
         ph * S10_12,
         (vp + vp2 * t02 * s01) * S10_12,
         ph],
        [0, 0, t20, 0],
        [0, S[1][2], S[1][2], s20],
        [0, 0, 0, s20 * s21],
    ]

def _t_eigastar_zz(ph, ph1, T, S, s12, S01_02, S02_12):
    return [[1, ph1 * S[0][1], ph * S[0][1], ph * S01_02],
            [0, T[0][2], s12, 1],
            [0, T[2][0], 0, 0],
            [0, 0, 0, S02_12]]

def _t_dz_eigastar(vp, vp2, S, iv, ip, t02, t20, s01, s02, iv_ip, S10_12):
    return [
        [ip,
         S10_12,
         (vp + vp2 * t02 * s01) * S10_12 * ip,
         1],
        [0, 0, t20 * ip, 0],
        [s02 * iv_ip, iv * S[1][0], ip * S[1][0], 0],
        [s02 * s01 * iv_ip, 0, 0, 0],
    ]

def _t_eigastar_dz(vp, ph, vp2, T, S, s10, S01_02):
    return [[0, 0, 0, vp * ph * S01_02],
            [0, vp * T[0][2], s10 * vp, vp],
            [0, ph * T[2][0], 0, 0],
            [1, vp2 * S[2][1], vp * S[2][1], vp * S[2][1] * S[2][0]]]

def _t_dd_eigastar(vp, vp1, S, iv, ip, t02, s01, s02, s12, iv_ip, S10_12):
    return [
        [iv,
         (vp + vp1 * t02 * s12) * S10_12 * iv,
         S10_12,
         1],
        [0, t02 * iv, 0, 0],
        [s02 * iv_ip, iv * S[1][0], ip * S[1][0], 0],
        [s02 * s01 * iv_ip, 0, 0, 0],
    ]

def _t_eigastar_dd(vp, ph, ph2, T, S, s10):
    return [[0, 0, 0, vp * ph * S[1][0] * S[2][0]],
            [0, vp * T[0][2], 0, 0],
            [0, ph * T[2][0], s10 * ph, ph],
            [1, ph2 * S[2][1], ph * S[2][1], ph * S[2][1] * S[2][0]]]


# transitions between the two eigenbases

def _t_eiga_eigastar(vp, ph, vp2, ph2, S, t02, s01, s10, S10_12, T01_02, T02_12):
    return [
        [T01_02,
         (ph + ph2 * t02 * s10) * T01_02 * S10_12,
         vp * T01_02 * S10_12,
         vp * T01_02],
        [1, ph * S[0][2] * S[1][0], vp * S[0][2] * S[1][0], 0],
        [0, S[2][1] * S[0][2], S[2][1] * S[0][2], 1],
        [T02_12,
         ph * T02_12 * S10_12,
         (vp + vp2 * t02 * s01) * T02_12 * S10_12,
         ph * T02_12],
    ]

def _t_eigastar_eiga(vp, ph, vp1, vp2, T, t10, t12, s02, s20, T10_12, S01_02, S02_12):
    return [
        [ph * S01_02,
         (vp + vp1 * t12 * s02) * T10_12 * S01_02,
         vp * ph * T10_12 * S01_02,
         vp * S01_02],
        [1, T[1][0] * T[0][2], vp * T[1][0] * T[0][2], 0],
        [0, T[2][1] * T[0][2], ph * T[2][1] * T[0][2], 1],
        [S02_12,
         T10_12 * S02_12,
         (vp + vp2 * t10 * s20) * T10_12 * S02_12,
         S02_12],
    ]


def _entry(name: str) -> tuple:
    """The table of that name, KeyError if none, and the itemgetter of the
    context values it reads, in the order of its parameters."""
    table = globals()[name]
    return table, itemgetter(*table.__code__.co_varnames[:table.__code__.co_argcount])


# (which, basis) and (frm, to) -> (table, getter), keyed by the tables' names
_CODE = dict(zip(BasisId, ("zd", "zz", "dz", "dd", "eiga", "eigastar")))
_TABLES = {**{(w, b): _entry(f"_rep_{w.lower()}_{c}") for w in ("A", "Astar")
              for b, c in _CODE.items()},
           **{(f, t): _entry(f"_t_{_CODE[f]}_{_CODE[t]}") for f in BasisId for t in BasisId
              if f is not t}}
