"""The six bases, representation matrices, and all 30 transition matrices.

From a seed vector in the first dual eigenspace, four chain vectors are
built; they generate four split bases plus one eigenbasis for each of the
two transformations.  Representation and transition matrices come in two
independent flavors: closed formulas in the parameter array, and numeric
computation from the basis matrices.  The two must agree exactly; the
formula tables below are transcriptions, never compositions, so that the
cross-check is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .linalg import (
    Matrix,
    SingularMatrixError,
    _apply_raw,
    _box,
    _grid_of,
    _inv_grid,
    _mul_grids,
    _unbox,
)
from .params import ParameterArray, extract_parameter_array
from .tdsystem import TDSystem


class BasisId(Enum):
    SPLIT_ZD = "SplitZD"
    SPLIT_ZZ = "SplitZZ"
    SPLIT_DZ = "SplitDZ"
    SPLIT_DD = "SplitDD"
    EIG_A = "EigA"
    EIG_ASTAR = "EigAstar"


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
    """Raw values of :func:`canonical_seed`."""
    p = tds.field.p
    for v in zip(*tds.Estar[0]._vals()):
        lead = next((x for x in v if x), None)
        if lead is not None:
            return _scale_raw(pow(lead, -1, p) if p else 1 / lead, v, p)
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
    if _apply_raw(tds.Estar[0]._grid(), seed, p) != seed:
        raise ValueError("seed vector is outside the first dual eigenspace")
    t0, t1, t2 = (x.val for x in tds.theta)
    s0, s1 = tds.thetastar[0].val, tds.thetastar[1].val
    a, astar = tds.A._grid(), tds.Astar._grid()
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
    a, astar = tds.A._grid(), tds.Astar._grid()
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
        e1 = tds.E[1]._grid()
        return [eta0, _apply_raw(e1, eta0star, p), _apply_raw(e1, eta2star, p), eta2]
    if basis is BasisId.EIG_ASTAR:
        estar1 = tds.Estar[1]._grid()
        return [eta0star, _apply_raw(estar1, eta0, p), _apply_raw(estar1, eta2, p), eta2star]
    raise ValueError(f"unknown basis {basis!r}")


def _scale_raw(c, v, p: int) -> list:
    return [c * x % p for x in v] if p else [c * x for x in v]


def represent(tds: TDSystem, which: str, basis: BasisId,
              eta: EtaVectors | None = None) -> Matrix:
    """Matrix of the chosen transformation with respect to the basis:
    B^-1 (M B) on raw grids, boxed once."""
    if which == "A":
        m = tds.A
    elif which == "Astar":
        m = tds.Astar
    else:
        raise ValueError("operator must be 'A' or 'Astar'")
    b, b_inv = _bases_for(tds, eta).pair(tds, basis)
    p = tds.field.p
    return Matrix._from_grid(tds.field, _mul_grids(b_inv, _mul_grids(m._grid(), b, p), p))


def transition_numeric(tds: TDSystem, frm: BasisId, to: BasisId,
                       eta: EtaVectors | None = None) -> Matrix:
    """Transition matrix computed as (from basis)^-1 (to basis), on raw
    grids, boxed once."""
    rec = _bases_for(tds, eta)
    return Matrix._from_grid(tds.field, _mul_grids(rec.pair(tds, frm)[1], rec.pair(tds, to)[0],
                                                   tds.field.p))


# -- closed-form tables -------------------------------------------------------

def _ctx(pa: ParameterArray):
    dp = pa._derived
    f = pa.field
    return (*pa.theta, *pa.thetastar, pa.varphi, pa.phi,
            dp.varphi1, dp.varphi2, dp.phi1, dp.phi2, f.one, f.zero)


def represent_formula(pa: ParameterArray, which: str, basis: BasisId) -> Matrix:
    """The tabulated representation matrix with parameters substituted."""
    if which not in ("A", "Astar"):
        raise ValueError("operator must be 'A' or 'Astar'")
    rows = _REPRESENT_TABLE[(which, basis)](_ctx(pa))
    return Matrix._raw(pa.field, tuple(tuple(r) for r in rows))


def transition_formula(pa: ParameterArray, frm: BasisId, to: BasisId) -> Matrix:
    """The tabulated transition matrix with parameters substituted.

    Every ordered pair of distinct bases has its own tabulated matrix;
    nothing here is composed from other pairs, so agreement with
    transition_numeric is an actual check.
    """
    report = pa._admissibility
    if not report.ok:
        raise ValueError(f"inadmissible parameter array, failed {list(report.failed)}")
    if frm is to:
        return Matrix.identity(pa.field, 4)
    rows = _TRANSITION_TABLE[(frm, to)](_ctx(pa))
    return Matrix._raw(pa.field, tuple(tuple(r) for r in rows))


def _rep_a_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[t0, z, z, z], [o, t1, z, z], [z, z, t1, z], [z, o, vp2, t2]]

def _rep_astar_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[s0, vp1, vp, z], [z, s1, z, z], [z, z, s1, o], [z, z, z, s2]]

def _rep_a_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[t2, z, z, z], [o, t1, z, z], [z, z, t1, z], [z, o, ph2, t0]]

def _rep_astar_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[s0, ph1, ph, z], [z, s1, z, z], [z, z, s1, o], [z, z, z, s2]]

def _rep_a_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[t2, z, z, z], [o, t1, z, z], [z, z, t1, z], [z, o, vp1, t0]]

def _rep_astar_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[s2, vp2, vp, z], [z, s1, z, z], [z, z, s1, o], [z, z, z, s0]]

def _rep_a_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[t0, z, z, z], [o, t1, z, z], [z, z, t1, z], [z, o, ph1, t2]]

def _rep_astar_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[s2, ph2, ph, z], [z, s1, z, z], [z, z, s1, o], [z, z, z, s0]]

def _rep_a_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[t0, z, z, z], [z, t1, z, z], [z, z, t1, z], [z, z, z, t2]]

def _rep_astar_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [
        [s0 + vp1 / (t0 - t1),
         vp1 / ((t0 - t1) * (t0 - t1) * (t2 - t0)),
         vp * ph2 / ((t0 - t1) * (t0 - t1) * (t2 - t0)),
         z],
        [ph / (s0 - s2),
         s1 + (vp + vp1 * (t1 - t2) * (s0 - s2)) / ((t1 - t0) * (t1 - t2) * (s0 - s2)),
         vp * ph / ((t1 - t0) * (t1 - t2) * (s0 - s2)),
         vp / (s0 - s2)],
        [o / (s2 - s0),
         o / ((t1 - t0) * (t1 - t2) * (s2 - s0)),
         s1 + (vp + vp2 * (t1 - t0) * (s2 - s0)) / ((t1 - t0) * (t1 - t2) * (s2 - s0)),
         o / (s2 - s0)],
        [z,
         ph1 / ((t1 - t2) * (t1 - t2) * (t0 - t2)),
         ph * vp2 / ((t1 - t2) * (t1 - t2) * (t0 - t2)),
         s2 + vp2 / (t2 - t1)],
    ]

def _rep_a_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [
        [t0 + vp1 / (s0 - s1),
         ph * vp1 / ((s0 - s1) * (s0 - s1) * (s2 - s0)),
         vp * ph1 / ((s0 - s1) * (s0 - s1) * (s2 - s0)),
         z],
        [o / (t0 - t2),
         t1 + (vp + vp1 * (t0 - t2) * (s1 - s2)) / ((t0 - t2) * (s1 - s0) * (s1 - s2)),
         vp / ((t0 - t2) * (s1 - s0) * (s1 - s2)),
         vp / (t0 - t2)],
        [o / (t2 - t0),
         ph / ((t2 - t0) * (s1 - s0) * (s1 - s2)),
         t1 + (vp + vp2 * (t0 - t2) * (s0 - s1)) / ((t2 - t0) * (s1 - s0) * (s1 - s2)),
         ph / (t2 - t0)],
        [z,
         ph2 / ((s1 - s2) * (s1 - s2) * (s0 - s2)),
         vp2 / ((s1 - s2) * (s1 - s2) * (s0 - s2)),
         t2 + vp2 / (s2 - s1)],
    ]

def _rep_astar_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[s0, z, z, z], [z, s1, z, z], [z, z, s1, z], [z, z, z, s2]]


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
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, t0 - t2, (t0 - t2) * ph2, (t0 - t2) * (t0 - t1)],
            [z, o, (t0 - t2) * (s1 - s2), t0 - t2],
            [z, z, o, z],
            [z, z, z, o]]

def _t_zz_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, t2 - t0, (t2 - t0) * vp2, (t2 - t0) * (t2 - t1)],
            [z, o, (t2 - t0) * (s1 - s2), t2 - t0],
            [z, z, o, z],
            [z, z, z, o]]

def _t_zz_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[ph, z, z, z],
            [z, ph, z, z],
            [s2 - s0, (s2 - s0) * (t1 - t2), vp, z],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * vp2, (s2 - s0) * vp, vp]]

def _t_dz_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[ip, z, z, z],
            [z, ip, z, z],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t2) * iv * ip, iv, z],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * ph1 * iv * ip,
             (s0 - s2) * iv, iv]]

def _t_dz_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, t2 - t0, (t2 - t0) * ph1, (t2 - t0) * (t2 - t1)],
            [z, o, (t2 - t0) * (s1 - s0), t2 - t0],
            [z, z, o, z],
            [z, z, z, o]]

def _t_dd_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, t0 - t2, (t0 - t2) * vp1, (t0 - t2) * (t0 - t1)],
            [z, o, (t0 - t2) * (s1 - s0), t0 - t2],
            [z, z, o, z],
            [z, z, z, o]]

def _t_dd_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[iv, z, z, z],
            [z, iv, z, z],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t0) * iv * ip, ip, z],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * vp1 * iv * ip,
             (s0 - s2) * ip, ip]]

def _t_zd_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[vp, z, z, z],
            [z, vp, z, z],
            [s2 - s0, (s2 - s0) * (t1 - t0), ph, z],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * ph2, (s2 - s0) * ph, ph]]


# transitions among the four split bases (diagonals)

def _t_zd_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[vp, (t0 - t2) * vp, (t0 - t2) * vp * vp1, (t0 - t2) * (t0 - t1) * vp],
            [z, vp, (t0 - t2) * (s1 - s0) * vp, (t0 - t2) * vp],
            [s2 - s0, (s2 - s0) * (t1 - t2), vp, z],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * vp2, (s2 - s0) * vp, vp]]

def _t_dz_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[ip, (t2 - t0) * ip, (t2 - t0) * vp2 * ip, (t2 - t0) * (t2 - t1) * ip],
            [z, ip, (t2 - t0) * (s1 - s2) * ip, (t2 - t0) * ip],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t0) * iv * ip, ip, z],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * vp1 * iv * ip,
             (s0 - s2) * ip, ip]]

def _t_zz_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[ph, (t2 - t0) * ph, (t2 - t0) * ph * ph1, (t2 - t0) * (t2 - t1) * ph],
            [z, ph, (t2 - t0) * (s1 - s0) * ph, (t2 - t0) * ph],
            [s2 - s0, (s2 - s0) * (t1 - t0), ph, z],
            [(s2 - s0) * (s2 - s1), (s2 - s0) * ph2, (s2 - s0) * ph, ph]]

def _t_dd_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[iv, (t0 - t2) * iv, (t0 - t2) * ph2 * iv, (t0 - t2) * (t0 - t1) * iv],
            [z, iv, (t0 - t2) * (s1 - s2) * iv, (t0 - t2) * iv],
            [(s0 - s2) * iv * ip, (s0 - s2) * (t1 - t2) * iv * ip, iv, z],
            [(s0 - s2) * (s0 - s1) * iv * ip, (s0 - s2) * ph1 * iv * ip,
             (s0 - s2) * iv, iv]]


# transitions between a split basis and the first eigenbasis

def _t_zd_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[(t0 - t1) * (t0 - t2), z, z, z],
            [t0 - t2, o / (t1 - t0), vp / (t1 - t0), z],
            [z, z, s2 - s0, z],
            [o, o / ((t1 - t0) * (t1 - t2)),
             (vp + vp2 * (t1 - t0) * (s2 - s0)) / ((t1 - t0) * (t1 - t2)), o]]

def _t_eiga_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o / ((t0 - t1) * (t0 - t2)), z, z, z],
            [o, t1 - t0, vp / (s0 - s2), z],
            [z, z, o / (s2 - s0), z],
            [o / ((t2 - t0) * (t2 - t1)), o / (t2 - t1), vp2 / (t2 - t1), o]]

def _t_zz_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[z, z, z, (t2 - t0) * (t2 - t1)],
            [z, o / (t1 - t2), ph / (t1 - t2), t2 - t0],
            [z, z, s2 - s0, z],
            [o, o / ((t1 - t0) * (t1 - t2)),
             (ph + ph2 * (t1 - t2) * (s2 - s0)) / ((t1 - t0) * (t1 - t2)), o]]

def _t_eiga_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o / ((t0 - t1) * (t0 - t2)), o / (t0 - t1), ph2 / (t0 - t1), o],
            [o, t1 - t2, ph / (s0 - s2), z],
            [z, z, o / (s2 - s0), z],
            [o / ((t2 - t0) * (t2 - t1)), z, z, z]]

def _t_dz_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[z, z, z, (t2 - t0) * (t2 - t1) * ip],
            [z, ip / (t1 - t2), o / (t1 - t2), (t2 - t0) * ip],
            [z, (s0 - s2) * iv * ip, z, z],
            [iv, (ph + ph1 * (t1 - t0) * (s0 - s2)) / ((t1 - t0) * (t1 - t2) * vp * ph),
             o / ((t1 - t0) * (t1 - t2)), ip]]

def _t_eiga_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[vp / ((t0 - t1) * (t0 - t2)), vp / (t0 - t1), vp * vp1 / (t0 - t1), vp],
            [z, z, vp * ph / (s0 - s2), z],
            [o, t1 - t2, vp / (s2 - s0), z],
            [ph / ((t0 - t2) * (t1 - t2)), z, z, z]]

def _t_dd_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[(t0 - t1) * (t0 - t2) * iv, z, z, z],
            [(t0 - t2) * iv, iv / (t1 - t0), o / (t1 - t0), z],
            [z, (s0 - s2) * iv * ip, z, z],
            [iv, (vp + vp1 * (t1 - t2) * (s0 - s2)) / ((t1 - t0) * (t1 - t2) * vp * ph),
             o / ((t1 - t0) * (t1 - t2)), ip]]

def _t_eiga_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[vp / ((t0 - t1) * (t0 - t2)), z, z, z],
            [z, z, vp * ph / (s0 - s2), z],
            [o, t1 - t0, ph / (s2 - s0), z],
            [ph / ((t0 - t2) * (t1 - t2)), ph / (t2 - t1), ph * ph1 / (t2 - t1), ph]]


# transitions between a split basis and the second eigenbasis

def _t_zd_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, (ph + ph2 * (t0 - t2) * (s1 - s0)) / ((s1 - s0) * (s1 - s2)),
             vp / ((s1 - s0) * (s1 - s2)), vp],
            [z, t0 - t2, z, z],
            [z, o / (s1 - s2), o / (s1 - s2), s2 - s0],
            [z, z, z, (s2 - s0) * (s2 - s1)]]

def _t_eigastar_zd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, vp1 / (s0 - s1), vp / (s0 - s1), vp / ((s0 - s1) * (s0 - s2))],
            [z, o / (t0 - t2), z, z],
            [z, o / (t2 - t0), s1 - s2, o],
            [z, z, z, o / ((s0 - s2) * (s1 - s2))]]

def _t_zz_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, ph / ((s1 - s0) * (s1 - s2)),
             (vp + vp2 * (t0 - t2) * (s0 - s1)) / ((s1 - s0) * (s1 - s2)), ph],
            [z, z, t2 - t0, z],
            [z, o / (s1 - s2), o / (s1 - s2), s2 - s0],
            [z, z, z, (s2 - s0) * (s2 - s1)]]

def _t_eigastar_zz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[o, ph1 / (s0 - s1), ph / (s0 - s1), ph / ((s0 - s1) * (s0 - s2))],
            [z, o / (t0 - t2), s1 - s2, o],
            [z, o / (t2 - t0), z, z],
            [z, z, z, o / ((s0 - s2) * (s1 - s2))]]

def _t_dz_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[ip, o / ((s1 - s0) * (s1 - s2)),
             (vp + vp2 * (t0 - t2) * (s0 - s1)) / ((s1 - s0) * (s1 - s2) * ph), o],
            [z, z, (t2 - t0) * ip, z],
            [(s0 - s2) * iv * ip, iv / (s1 - s0), ip / (s1 - s0), z],
            [(s0 - s2) * (s0 - s1) * iv * ip, z, z, z]]

def _t_eigastar_dz(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[z, z, z, vp * ph / ((s0 - s1) * (s0 - s2))],
            [z, vp / (t0 - t2), (s1 - s0) * vp, vp],
            [z, ph / (t2 - t0), z, z],
            [o, vp2 / (s2 - s1), vp / (s2 - s1), vp / ((s2 - s1) * (s2 - s0))]]

def _t_dd_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    iv, ip = o / vp, o / ph
    return [[iv, (vp + vp1 * (t0 - t2) * (s1 - s2)) / ((s1 - s0) * (s1 - s2) * vp),
             o / ((s1 - s0) * (s1 - s2)), o],
            [z, (t0 - t2) * iv, z, z],
            [(s0 - s2) * iv * ip, iv / (s1 - s0), ip / (s1 - s0), z],
            [(s0 - s2) * (s0 - s1) * iv * ip, z, z, z]]

def _t_eigastar_dd(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [[z, z, z, vp * ph / ((s1 - s0) * (s2 - s0))],
            [z, vp / (t0 - t2), z, z],
            [z, ph / (t2 - t0), (s1 - s0) * ph, ph],
            [o, ph2 / (s2 - s1), ph / (s2 - s1), ph / ((s2 - s1) * (s2 - s0))]]


# transitions between the two eigenbases

def _t_eiga_eigastar(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [
        [o / ((t0 - t1) * (t0 - t2)),
         (ph + ph2 * (t0 - t2) * (s1 - s0)) / ((t0 - t1) * (t0 - t2) * (s1 - s0) * (s1 - s2)),
         vp / ((t0 - t1) * (t0 - t2) * (s1 - s0) * (s1 - s2)),
         vp / ((t0 - t1) * (t0 - t2))],
        [o, ph / ((s0 - s2) * (s1 - s0)), vp / ((s0 - s2) * (s1 - s0)), z],
        [z, o / ((s2 - s1) * (s0 - s2)), o / ((s2 - s1) * (s0 - s2)), o],
        [o / ((t0 - t2) * (t1 - t2)),
         ph / ((t0 - t2) * (t1 - t2) * (s1 - s0) * (s1 - s2)),
         (vp + vp2 * (t0 - t2) * (s0 - s1)) / ((t0 - t2) * (t1 - t2) * (s1 - s0) * (s1 - s2)),
         ph / ((t0 - t2) * (t1 - t2))],
    ]

def _t_eigastar_eiga(c):
    t0, t1, t2, s0, s1, s2, vp, ph, vp1, vp2, ph1, ph2, o, z = c
    return [
        [ph / ((s0 - s1) * (s0 - s2)),
         (vp + vp1 * (t1 - t2) * (s0 - s2)) / ((t1 - t0) * (t1 - t2) * (s0 - s1) * (s0 - s2)),
         vp * ph / ((t1 - t0) * (t1 - t2) * (s0 - s1) * (s0 - s2)),
         vp / ((s0 - s1) * (s0 - s2))],
        [o, o / ((t1 - t0) * (t0 - t2)), vp / ((t1 - t0) * (t0 - t2)), z],
        [z, o / ((t2 - t1) * (t0 - t2)), ph / ((t2 - t1) * (t0 - t2)), o],
        [o / ((s1 - s2) * (s0 - s2)),
         o / ((t1 - t0) * (t1 - t2) * (s0 - s2) * (s1 - s2)),
         (vp + vp2 * (t1 - t0) * (s2 - s0)) / ((t1 - t0) * (t1 - t2) * (s0 - s2) * (s1 - s2)),
         o / ((s0 - s2) * (s1 - s2))],
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
