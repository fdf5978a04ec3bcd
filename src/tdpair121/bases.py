"""The six bases, representation matrices, and all 30 transition matrices.

From a seed vector in the first dual eigenspace, four chain vectors are
built; they generate four split bases plus one eigenbasis for each of the
two transformations.  Representation and transition matrices come in two
independent flavors: closed formulas in the parameter array, and numeric
computation from the basis matrices.  The two must agree exactly; the
formula tables below are transcriptions, never compositions, so that the
cross-check is meaningful.  Both flavors run on raw values and return
matrices that keep their raw grids, so the cross-check compares grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .linalg import (
    Matrix,
    SingularMatrixError,
    _apply_raw,
    _box,
    _fracs,
    _grid_of,
    _int_grid,
    _inv_grid,
    _mul_grids,
    _unbox,
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


@dataclass(frozen=True)
class EtaVectors:
    eta0star: tuple
    eta0: tuple
    eta2: tuple
    eta2star: tuple


def canonical_seed(tds: TDSystem):
    """First dual eigenspace image of the earliest standard vector,
    rescaled so its first nonzero coordinate is 1."""
    return _box(tds.field, _canonical_seed(tds))


def _canonical_seed(tds: TDSystem) -> list:
    """Raw values of :func:`canonical_seed`, read off a column of the grid
    of E*_0; over QQ the grid's denominator cancels in the rescaling."""
    p = tds.field.p
    for v in zip(*tds.Estar[0]._grid[0]):
        lead = next((x for x in v if x), None)
        if lead is not None:
            return _scale_raw(pow(lead, -1, p), v, p) if p else _fracs(v, lead)
    raise ValueError("zero projector")


def eta_vectors(tds: TDSystem, seed=None) -> EtaVectors:
    """The chain vectors grown from a seed of the first dual eigenspace;
    without a seed, the system's own, grown once from :func:`canonical_seed`."""
    if seed is None:
        return tds._bases.eta
    return _boxed_eta(tds.field, _chain(tds, _unbox(tds.field, seed)))


def _chain(tds: TDSystem, seed: list) -> tuple:
    """Raw (eta0*, eta0, eta2, eta2*) grown from the raw seed eta0*."""
    p = tds.field.p
    if len(seed) != 4:
        raise ValueError("seed vector must have 4 coordinates")
    if not any(seed):
        raise ValueError("seed vector is zero")
    if _apply_raw(tds.Estar[0]._grid, seed, p) != seed:
        raise ValueError("seed vector is outside the first dual eigenspace")
    t0, t1, t2 = (x.val for x in tds.theta)
    s0, s1 = tds.thetastar[0].val, tds.thetastar[1].val
    a, astar = tds.A._grid, tds.Astar._grid
    eta0 = _apply_raw(a, _apply_raw(a, seed, p, t2), p, t1)
    eta2 = _apply_raw(a, _apply_raw(a, seed, p, t0), p, t1)
    eta2star = _apply_raw(astar, _apply_raw(astar, eta2, p, s0), p, s1)
    for name, v in (("eta0", eta0), ("eta2", eta2), ("eta2star", eta2star)):
        if not any(v):
            raise ValueError(f"chain vector {name} vanished; "
                             "input is not a shape-(1,2,1) system")
    return seed, eta0, eta2, eta2star


def _boxed_eta(field, chain) -> EtaVectors:
    return EtaVectors(*(_box(field, v) for v in chain))


class _SystemBases:
    """One system's chain vectors for one seed, boxed (eta) and raw, and
    its six bases with their inverses as raw grids, each built on first
    use."""

    def __init__(self, tds: TDSystem, eta: EtaVectors | None = None):
        field = tds.field
        if eta is None:
            self.chain = _chain(tds, _canonical_seed(tds))
            self.eta = _boxed_eta(field, self.chain)
        else:
            self.chain = tuple(_unbox(field, v) for v in
                               (eta.eta0star, eta.eta0, eta.eta2, eta.eta2star))
            self.eta = eta
        self._pairs = {}

    def pair(self, tds: TDSystem, basis: BasisId):
        """The raw grids of the basis matrix and of its inverse."""
        got = self._pairs.get(basis)
        if got is None:
            p = tds.field.p
            m = _grid_of([list(r) for r in zip(*_basis_columns(tds, basis, self.chain))], p)
            try:
                got = self._pairs[basis] = m, _inv_grid(m, p)
            except SingularMatrixError:
                raise SingularMatrixError(
                    f"{basis.value} columns are dependent; input is not shape (1,2,1)"
                ) from None
        return got


def _bases_for(tds: TDSystem, eta: EtaVectors | None) -> _SystemBases:
    """The system's own record for the canonical seed, else a fresh one."""
    own = tds._bases
    return own if eta is None or eta == own.eta else _SystemBases(tds, eta)


def basis_matrix(tds: TDSystem, basis: BasisId, eta: EtaVectors | None = None) -> Matrix:
    """4x4 matrix whose columns are the requested basis, in order."""
    return Matrix._from_grid(tds.field, _bases_for(tds, eta).pair(tds, basis)[0])


def _basis_columns(tds: TDSystem, basis: BasisId, chain) -> list:
    """Raw columns of the basis, from the raw chain vectors; (M - c I)v is
    taken as Mv - cv."""
    p = tds.field.p
    eta0star, eta0, eta2, eta2star = chain
    t0, _, t2 = (x.val for x in tds.theta)
    s0, _, s2 = (x.val for x in tds.thetastar)
    a, astar = tds.A._grid, tds.Astar._grid
    if basis is BasisId.SPLIT_ZD:
        return [eta0star, _apply_raw(a, eta0star, p, t0), _apply_raw(astar, eta2, p, s2), eta2]
    if basis is BasisId.SPLIT_ZZ:
        return [eta0star, _apply_raw(a, eta0star, p, t2), _apply_raw(astar, eta0, p, s2), eta0]
    if basis is BasisId.SPLIT_DZ:
        vp = extract_parameter_array(tds).varphi.val
        return [eta2star, _apply_raw(a, eta2star, p, t2),
                _scale_raw(vp, _apply_raw(astar, eta0, p, s0), p), _scale_raw(vp, eta0, p)]
    if basis is BasisId.SPLIT_DD:
        ph = extract_parameter_array(tds).phi.val
        return [eta2star, _apply_raw(a, eta2star, p, t0),
                _scale_raw(ph, _apply_raw(astar, eta2, p, s0), p), _scale_raw(ph, eta2, p)]
    if basis is BasisId.EIG_A:
        e1 = tds.E[1]._grid
        return [eta0, _apply_raw(e1, eta0star, p), _apply_raw(e1, eta2star, p), eta2]
    if basis is BasisId.EIG_ASTAR:
        estar1 = tds.Estar[1]._grid
        return [eta0star, _apply_raw(estar1, eta0, p), _apply_raw(estar1, eta2, p), eta2star]
    raise ValueError(f"unknown basis {basis!r}")


def _scale_raw(c, v, p: int) -> list:
    return [c * x % p for x in v] if p else [c * x for x in v]


def represent(tds: TDSystem, which: str, basis: BasisId,
              eta: EtaVectors | None = None) -> Matrix:
    """Matrix of the chosen transformation with respect to the basis:
    B^-1 (M B) on raw grids; the matrix keeps the grid."""
    if which == "A":
        m = tds.A
    elif which == "Astar":
        m = tds.Astar
    else:
        raise ValueError("operator must be 'A' or 'Astar'")
    b, b_inv = _bases_for(tds, eta).pair(tds, basis)
    p = tds.field.p
    return Matrix._from_grid(tds.field, _mul_grids(b_inv, _mul_grids(m._grid, b, p), p))


def transition_numeric(tds: TDSystem, frm: BasisId, to: BasisId,
                       eta: EtaVectors | None = None) -> Matrix:
    """Transition matrix computed as (from basis)^-1 (to basis), on raw
    grids; the matrix keeps the grid."""
    rec = _bases_for(tds, eta)
    return Matrix._from_grid(tds.field, _mul_grids(rec.pair(tds, frm)[1], rec.pair(tds, to)[0],
                                                   tds.field.p))


# -- closed-form tables -------------------------------------------------------

def _inverses(vals, p: int) -> list:
    """Inverses of nonzero raw scalars.  Over GF(p) one modular inversion
    serves them all (Montgomery's trick): going down from k = n, the
    inverse of v_0 ... v_k times v_0 ... v_(k-1) is 1/v_k, and times v_k
    it is the inverse of v_0 ... v_(k-1).  Over QQ an inverse swaps
    numerator and denominator."""
    if not p:
        return [Fraction(v.denominator, v.numerator) for v in vals]
    prefix, acc = [], 1
    for v in vals:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(vals)
    for k in range(len(vals) - 1, -1, -1):
        out[k] = inv * prefix[k] % p
        inv = inv * vals[k] % p
    return out


def _ctx(pa: ParameterArray) -> tuple:
    """The raw values the tables read: theta, thetastar, varphi, phi, the
    four derived scalars, the inverses T[i][j] = 1/(t_i - t_j) and
    S[i][j] = 1/(s_i - s_j) (i != j), iv = 1/varphi and ip = 1/phi.

    Raises ValueError for an inadmissible array; conditions (i) and (ii)
    are what make the eight inverted values nonzero.  Kept in the array's
    __dict__, as ParameterArray._derived is, where _tabulate reads it.
    """
    _require_admissible(pa)
    t0, t1, t2 = (x.val for x in pa.theta)
    s0, s1, s2 = (x.val for x in pa.thetastar)
    vp, ph = pa.varphi.val, pa.phi.val
    dp = pa._derived
    i01, i02, i12, j01, j02, j12, iv, ip = _inverses(
        (t0 - t1, t0 - t2, t1 - t2, s0 - s1, s0 - s2, s1 - s2, vp, ph), pa.field.p)
    T = ((0, i01, i02), (-i01, 0, i12), (-i02, -i12, 0))
    S = ((0, j01, j02), (-j01, 0, j12), (-j02, -j12, 0))
    ctx = pa.__dict__["_table_ctx"] = (
        t0, t1, t2, s0, s1, s2, vp, ph,
        dp.varphi1.val, dp.varphi2.val, dp.phi1.val, dp.phi2.val, T, S, iv, ip)
    return ctx


def _tabulate(pa: ParameterArray, table) -> Matrix:
    """The matrix of one table at the array's raw values, keeping its grid:
    residues over GF(p), integer rows over one denominator over QQ."""
    rows = table(pa.__dict__.get("_table_ctx") or _ctx(pa))
    p = pa.field.p
    return Matrix._from_grid(pa.field, (
        [[a % p, b % p, c % p, d % p] for a, b, c, d in rows], 1) if p else _int_grid(rows))


def represent_formula(pa: ParameterArray, which: str, basis: BasisId) -> Matrix:
    """The tabulated representation matrix with parameters substituted;
    raises ValueError for an inadmissible array."""
    if which not in ("A", "Astar"):
        raise ValueError("operator must be 'A' or 'Astar'")
    return _tabulate(pa, _REPRESENT_TABLE[(which, basis)])


def transition_formula(pa: ParameterArray, frm: BasisId, to: BasisId) -> Matrix:
    """The tabulated transition matrix with parameters substituted; raises
    ValueError for an inadmissible array.

    Every ordered pair of distinct bases has its own tabulated matrix;
    nothing here is composed from other pairs, so agreement with
    transition_numeric is an actual check.
    """
    if frm is to:
        _ctx(pa)  # the same admissibility gate
        return Matrix.identity(pa.field, 4)
    return _tabulate(pa, _TRANSITION_TABLE[(frm, to)])


# Each table below transcribes one closed form of the paper.  It divides
# nowhere: a quotient a / ((t_i - t_j) (s_k - s_l) varphi) is written
# a * T[i][j] * S[k][l] * iv, with the inverses _ctx took once per array.
# Over GF(p) the entries come out as unreduced ints, over QQ as Fractions;
# _tabulate turns either into a grid.

def _rep_a_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[t0, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, vp2, t2]]

def _rep_astar_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[s0, vp1, vp, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s2]]

def _rep_a_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[t2, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, ph2, t0]]

def _rep_astar_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[s0, ph1, ph, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s2]]

def _rep_a_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[t2, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, vp1, t0]]

def _rep_astar_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[s2, vp2, vp, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s0]]

def _rep_a_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[t0, 0, 0, 0],
            [1, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 1, ph1, t2]]

def _rep_astar_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[s2, ph2, ph, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 1],
            [0, 0, 0, s0]]

def _rep_a_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[t0, 0, 0, 0],
            [0, t1, 0, 0],
            [0, 0, t1, 0],
            [0, 0, 0, t2]]

def _rep_astar_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [s0 + vp1 * T[0][1],
         vp1 * T[0][1] * T[0][1] * T[2][0],
         vp * ph2 * T[0][1] * T[0][1] * T[2][0],
         0],
        [ph * S[0][2],
         s1 + (vp + vp1 * (t1 - t2) * (s0 - s2)) * T[1][0] * T[1][2] * S[0][2],
         vp * ph * T[1][0] * T[1][2] * S[0][2],
         vp * S[0][2]],
        [S[2][0],
         T[1][0] * T[1][2] * S[2][0],
         s1 + (vp + vp2 * (t1 - t0) * (s2 - s0)) * T[1][0] * T[1][2] * S[2][0],
         S[2][0]],
        [0,
         ph1 * T[1][2] * T[1][2] * T[0][2],
         ph * vp2 * T[1][2] * T[1][2] * T[0][2],
         s2 + vp2 * T[2][1]],
    ]

def _rep_a_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [t0 + vp1 * S[0][1],
         ph * vp1 * S[0][1] * S[0][1] * S[2][0],
         vp * ph1 * S[0][1] * S[0][1] * S[2][0],
         0],
        [T[0][2],
         t1 + (vp + vp1 * (t0 - t2) * (s1 - s2)) * T[0][2] * S[1][0] * S[1][2],
         vp * T[0][2] * S[1][0] * S[1][2],
         vp * T[0][2]],
        [T[2][0],
         ph * T[2][0] * S[1][0] * S[1][2],
         t1 + (vp + vp2 * (t0 - t2) * (s0 - s1)) * T[2][0] * S[1][0] * S[1][2],
         ph * T[2][0]],
        [0,
         ph2 * S[1][2] * S[1][2] * S[0][2],
         vp2 * S[1][2] * S[1][2] * S[0][2],
         t2 + vp2 * S[2][1]],
    ]

def _rep_astar_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[s0, 0, 0, 0],
            [0, s1, 0, 0],
            [0, 0, s1, 0],
            [0, 0, 0, s2]]


_REPRESENT_TABLE = {
    ("A", BasisId.SPLIT_ZD): _rep_a_zd,
    ("Astar", BasisId.SPLIT_ZD): _rep_astar_zd,
    ("A", BasisId.SPLIT_ZZ): _rep_a_zz,
    ("Astar", BasisId.SPLIT_ZZ): _rep_astar_zz,
    ("A", BasisId.SPLIT_DZ): _rep_a_dz,
    ("Astar", BasisId.SPLIT_DZ): _rep_astar_dz,
    ("A", BasisId.SPLIT_DD): _rep_a_dd,
    ("Astar", BasisId.SPLIT_DD): _rep_astar_dd,
    ("A", BasisId.EIG_A): _rep_a_eiga,
    ("Astar", BasisId.EIG_A): _rep_astar_eiga,
    ("A", BasisId.EIG_ASTAR): _rep_a_eigastar,
    ("Astar", BasisId.EIG_ASTAR): _rep_astar_eigastar,
}


# transitions among the four split bases (ring neighbours)

def _t_zd_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[1, t0 - t2, (t0 - t2) * ph2, (t0 - t2) * (t0 - t1)],
            [0, 1, (t0 - t2) * (s1 - s2), t0 - t2],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_zz_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[1, t2 - t0, (t2 - t0) * vp2, (t2 - t0) * (t2 - t1)],
            [0, 1, (t2 - t0) * (s1 - s2), t2 - t0],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_zz_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[ph, 0, 0, 0],
            [0, ph, 0, 0],
            [s2 - s0, (s2 - s0) * (t1 - t2), vp, 0],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * vp2, (s2 - s0) * vp, vp]]

def _t_dz_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[ip, 0, 0, 0],
            [0, ip, 0, 0],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t2) * iv * ip, iv, 0],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * ph1 * iv * ip, (s0 - s2) * iv, iv]]

def _t_dz_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[1, t2 - t0, (t2 - t0) * ph1, (t2 - t0) * (t2 - t1)],
            [0, 1, (t2 - t0) * (s1 - s0), t2 - t0],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_dd_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[1, t0 - t2, (t0 - t2) * vp1, (t0 - t2) * (t0 - t1)],
            [0, 1, (t0 - t2) * (s1 - s0), t0 - t2],
            [0, 0, 1, 0],
            [0, 0, 0, 1]]

def _t_dd_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[iv, 0, 0, 0],
            [0, iv, 0, 0],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t0) * iv * ip, ip, 0],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * vp1 * iv * ip, (s0 - s2) * ip, ip]]

def _t_zd_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[vp, 0, 0, 0],
            [0, vp, 0, 0],
            [s2 - s0, (s2 - s0) * (t1 - t0), ph, 0],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * ph2, (s2 - s0) * ph, ph]]


# transitions among the four split bases (diagonals)

def _t_zd_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[vp, (t0 - t2) * vp, (t0 - t2) * vp * vp1, (t0 - t2) * (t0 - t1) * vp],
            [0, vp, (t0 - t2) * (s1 - s0) * vp, (t0 - t2) * vp],
            [s2 - s0, (s2 - s0) * (t1 - t2), vp, 0],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * vp2, (s2 - s0) * vp, vp]]

def _t_dz_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[ip, (t2 - t0) * ip, (t2 - t0) * vp2 * ip, (t2 - t0) * (t2 - t1) * ip],
            [0, ip, (t2 - t0) * (s1 - s2) * ip, (t2 - t0) * ip],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t0) * iv * ip, ip, 0],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * vp1 * iv * ip, (s0 - s2) * ip, ip]]

def _t_zz_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[ph, (t2 - t0) * ph, (t2 - t0) * ph * ph1, (t2 - t0) * (t2 - t1) * ph],
            [0, ph, (t2 - t0) * (s1 - s0) * ph, (t2 - t0) * ph],
            [s2 - s0, (s2 - s0) * (t1 - t0), ph, 0],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * ph2, (s2 - s0) * ph, ph]]

def _t_dd_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[iv, (t0 - t2) * iv, (t0 - t2) * ph2 * iv, (t0 - t2) * (t0 - t1) * iv],
            [0, iv, (t0 - t2) * (s1 - s2) * iv, (t0 - t2) * iv],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t2) * iv * ip, iv, 0],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * ph1 * iv * ip, (s0 - s2) * iv, iv]]


# transitions between a split basis and the first eigenbasis

def _t_zd_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [(t0 - t1) * (t0 - t2), 0, 0, 0],
        [t0 - t2, T[1][0], vp * T[1][0], 0],
        [0, 0, s2 - s0, 0],
        [1, T[1][0] * T[1][2], (vp + vp2 * (t1 - t0) * (s2 - s0)) * T[1][0] * T[1][2], 1],
    ]

def _t_eiga_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[T[0][1] * T[0][2], 0, 0, 0],
            [1, t1 - t0, vp * S[0][2], 0],
            [0, 0, S[2][0], 0],
            [T[2][0] * T[2][1], T[2][1], vp2 * T[2][1], 1]]

def _t_zz_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [0, 0, 0, (t2 - t0) * (t2 - t1)],
        [0, T[1][2], ph * T[1][2], t2 - t0],
        [0, 0, s2 - s0, 0],
        [1, T[1][0] * T[1][2], (ph + ph2 * (t1 - t2) * (s2 - s0)) * T[1][0] * T[1][2], 1],
    ]

def _t_eiga_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[T[0][1] * T[0][2], T[0][1], ph2 * T[0][1], 1],
            [1, t1 - t2, ph * S[0][2], 0],
            [0, 0, S[2][0], 0],
            [T[2][0] * T[2][1], 0, 0, 0]]

def _t_dz_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [0, 0, 0, (t2 - t0) * (t2 - t1) * ip],
        [0, ip * T[1][2], T[1][2], (t2 - t0) * ip],
        [0, (s0 - s2) * iv * ip, 0, 0],
        [iv,
         (ph + ph1 * (t1 - t0) * (s0 - s2)) * T[1][0] * T[1][2] * iv * ip,
         T[1][0] * T[1][2],
         ip],
    ]

def _t_eiga_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[vp * T[0][1] * T[0][2], vp * T[0][1], vp * vp1 * T[0][1], vp],
            [0, 0, vp * ph * S[0][2], 0],
            [1, t1 - t2, vp * S[2][0], 0],
            [ph * T[0][2] * T[1][2], 0, 0, 0]]

def _t_dd_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [(t0 - t1) * (t0 - t2) * iv, 0, 0, 0],
        [(t0 - t2) * iv, iv * T[1][0], T[1][0], 0],
        [0, (s0 - s2) * iv * ip, 0, 0],
        [iv,
         (vp + vp1 * (t1 - t2) * (s0 - s2)) * T[1][0] * T[1][2] * iv * ip,
         T[1][0] * T[1][2],
         ip],
    ]

def _t_eiga_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[vp * T[0][1] * T[0][2], 0, 0, 0],
            [0, 0, vp * ph * S[0][2], 0],
            [1, t1 - t0, ph * S[2][0], 0],
            [ph * T[0][2] * T[1][2], ph * T[2][1], ph * ph1 * T[2][1], ph]]


# transitions between a split basis and the second eigenbasis

def _t_zd_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [1,
         (ph + ph2 * (t0 - t2) * (s1 - s0)) * S[1][0] * S[1][2],
         vp * S[1][0] * S[1][2],
         vp],
        [0, t0 - t2, 0, 0],
        [0, S[1][2], S[1][2], s2 - s0],
        [0, 0, 0, (s2 - s0) * (s2 - s1)],
    ]

def _t_eigastar_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[1, vp1 * S[0][1], vp * S[0][1], vp * S[0][1] * S[0][2]],
            [0, T[0][2], 0, 0],
            [0, T[2][0], s1 - s2, 1],
            [0, 0, 0, S[0][2] * S[1][2]]]

def _t_zz_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [1,
         ph * S[1][0] * S[1][2],
         (vp + vp2 * (t0 - t2) * (s0 - s1)) * S[1][0] * S[1][2],
         ph],
        [0, 0, t2 - t0, 0],
        [0, S[1][2], S[1][2], s2 - s0],
        [0, 0, 0, (s2 - s0) * (s2 - s1)],
    ]

def _t_eigastar_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[1, ph1 * S[0][1], ph * S[0][1], ph * S[0][1] * S[0][2]],
            [0, T[0][2], s1 - s2, 1],
            [0, T[2][0], 0, 0],
            [0, 0, 0, S[0][2] * S[1][2]]]

def _t_dz_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [ip,
         S[1][0] * S[1][2],
         (vp + vp2 * (t0 - t2) * (s0 - s1)) * S[1][0] * S[1][2] * ip,
         1],
        [0, 0, (t2 - t0) * ip, 0],
        [(s0 - s2) * iv * ip, iv * S[1][0], ip * S[1][0], 0],
        [(s0 - s2) * (s0 - s1) * iv * ip, 0, 0, 0],
    ]

def _t_eigastar_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[0, 0, 0, vp * ph * S[0][1] * S[0][2]],
            [0, vp * T[0][2], (s1 - s0) * vp, vp],
            [0, ph * T[2][0], 0, 0],
            [1, vp2 * S[2][1], vp * S[2][1], vp * S[2][1] * S[2][0]]]

def _t_dd_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [iv,
         (vp + vp1 * (t0 - t2) * (s1 - s2)) * S[1][0] * S[1][2] * iv,
         S[1][0] * S[1][2],
         1],
        [0, (t0 - t2) * iv, 0, 0],
        [(s0 - s2) * iv * ip, iv * S[1][0], ip * S[1][0], 0],
        [(s0 - s2) * (s0 - s1) * iv * ip, 0, 0, 0],
    ]

def _t_eigastar_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [[0, 0, 0, vp * ph * S[1][0] * S[2][0]],
            [0, vp * T[0][2], 0, 0],
            [0, ph * T[2][0], (s1 - s0) * ph, ph],
            [1, ph2 * S[2][1], ph * S[2][1], ph * S[2][1] * S[2][0]]]


# transitions between the two eigenbases

def _t_eiga_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [T[0][1] * T[0][2],
         (ph + ph2 * (t0 - t2) * (s1 - s0)) * T[0][1] * T[0][2] * S[1][0] * S[1][2],
         vp * T[0][1] * T[0][2] * S[1][0] * S[1][2],
         vp * T[0][1] * T[0][2]],
        [1, ph * S[0][2] * S[1][0], vp * S[0][2] * S[1][0], 0],
        [0, S[2][1] * S[0][2], S[2][1] * S[0][2], 1],
        [T[0][2] * T[1][2],
         ph * T[0][2] * T[1][2] * S[1][0] * S[1][2],
         (vp + vp2 * (t0 - t2) * (s0 - s1)) * T[0][2] * T[1][2] * S[1][0] * S[1][2],
         ph * T[0][2] * T[1][2]],
    ]

def _t_eigastar_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, T, S, iv, ip = c
    return [
        [ph * S[0][1] * S[0][2],
         (vp + vp1 * (t1 - t2) * (s0 - s2)) * T[1][0] * T[1][2] * S[0][1] * S[0][2],
         vp * ph * T[1][0] * T[1][2] * S[0][1] * S[0][2],
         vp * S[0][1] * S[0][2]],
        [1, T[1][0] * T[0][2], vp * T[1][0] * T[0][2], 0],
        [0, T[2][1] * T[0][2], ph * T[2][1] * T[0][2], 1],
        [S[1][2] * S[0][2],
         T[1][0] * T[1][2] * S[0][2] * S[1][2],
         (vp + vp2 * (t1 - t0) * (s2 - s0)) * T[1][0] * T[1][2] * S[0][2] * S[1][2],
         S[0][2] * S[1][2]],
    ]


_TRANSITION_TABLE = {
    (BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ): _t_zd_zz,
    (BasisId.SPLIT_ZZ, BasisId.SPLIT_ZD): _t_zz_zd,
    (BasisId.SPLIT_ZZ, BasisId.SPLIT_DZ): _t_zz_dz,
    (BasisId.SPLIT_DZ, BasisId.SPLIT_ZZ): _t_dz_zz,
    (BasisId.SPLIT_DZ, BasisId.SPLIT_DD): _t_dz_dd,
    (BasisId.SPLIT_DD, BasisId.SPLIT_DZ): _t_dd_dz,
    (BasisId.SPLIT_DD, BasisId.SPLIT_ZD): _t_dd_zd,
    (BasisId.SPLIT_ZD, BasisId.SPLIT_DD): _t_zd_dd,
    (BasisId.SPLIT_ZD, BasisId.SPLIT_DZ): _t_zd_dz,
    (BasisId.SPLIT_DZ, BasisId.SPLIT_ZD): _t_dz_zd,
    (BasisId.SPLIT_ZZ, BasisId.SPLIT_DD): _t_zz_dd,
    (BasisId.SPLIT_DD, BasisId.SPLIT_ZZ): _t_dd_zz,
    (BasisId.SPLIT_ZD, BasisId.EIG_A): _t_zd_eiga,
    (BasisId.EIG_A, BasisId.SPLIT_ZD): _t_eiga_zd,
    (BasisId.SPLIT_ZZ, BasisId.EIG_A): _t_zz_eiga,
    (BasisId.EIG_A, BasisId.SPLIT_ZZ): _t_eiga_zz,
    (BasisId.SPLIT_DZ, BasisId.EIG_A): _t_dz_eiga,
    (BasisId.EIG_A, BasisId.SPLIT_DZ): _t_eiga_dz,
    (BasisId.SPLIT_DD, BasisId.EIG_A): _t_dd_eiga,
    (BasisId.EIG_A, BasisId.SPLIT_DD): _t_eiga_dd,
    (BasisId.SPLIT_ZD, BasisId.EIG_ASTAR): _t_zd_eigastar,
    (BasisId.EIG_ASTAR, BasisId.SPLIT_ZD): _t_eigastar_zd,
    (BasisId.SPLIT_ZZ, BasisId.EIG_ASTAR): _t_zz_eigastar,
    (BasisId.EIG_ASTAR, BasisId.SPLIT_ZZ): _t_eigastar_zz,
    (BasisId.SPLIT_DZ, BasisId.EIG_ASTAR): _t_dz_eigastar,
    (BasisId.EIG_ASTAR, BasisId.SPLIT_DZ): _t_eigastar_dz,
    (BasisId.SPLIT_DD, BasisId.EIG_ASTAR): _t_dd_eigastar,
    (BasisId.EIG_ASTAR, BasisId.SPLIT_DD): _t_eigastar_dd,
    (BasisId.EIG_A, BasisId.EIG_ASTAR): _t_eiga_eigastar,
    (BasisId.EIG_ASTAR, BasisId.EIG_A): _t_eigastar_eiga,
}

