"""Axiom-level verification of tridiagonal systems on a 4-dimensional space.

A tridiagonal system is a matrix pair together with orderings of both
spectra such that each matrix acts block-tridiagonally on the other's
eigenspace chain and the pair admits no common proper nonzero invariant
subspace.  This module verifies the axioms one by one, searches for valid
orderings, builds the six eigenspace-chain decompositions, and computes
the shape.  Tridiagonality, the ordering search and the invariant-subspace
search read one view of the pair, built once per verification: A* in a
basis of A's eigenspaces, whose block (i, j) is E_i A* E_j, and which
blocks of it, and of A in A*'s eigenspaces, are zero; an ordering is an
index permutation of the view.  The decompositions and the shape run on
raw rows: of the twelve meets of chain members only the four middle
components are real, each the annihilator of two side-sum annihilators,
and the shape is their dimensions plus one rank per decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, permutations, product
from operator import mul

from . import _poly
from .fields import Field
from .linalg import (
    Matrix,
    Subspace,
    _ann,
    _apply_raw,
    _eigenspace,
    _inv_grid,
    _meet_rows,
    _mul_grids,
    _rank,
    eigen_data,
    primitive_idempotents,
    subspace_sum,
)


@dataclass(frozen=True)
class TDSystem:
    """Matrix pair with ordered eigenvalues and ordered idempotents."""

    A: Matrix
    Astar: Matrix
    theta: tuple
    thetastar: tuple
    E: tuple
    Estar: tuple

    @classmethod
    def from_matrices(cls, a: Matrix, astar: Matrix, theta, thetastar) -> TDSystem:
        """Raises ValueError on malformed input, as verify_td_system does,
        or when a matrix is not diagonalizable with exactly its eigenvalues."""
        theta, thetastar = _check_system(a, astar, theta, thetastar)
        e = tuple(primitive_idempotents(a, theta))
        estar = tuple(primitive_idempotents(astar, thetastar))
        return cls(a, astar, theta, thetastar, e, estar)

    @property
    def field(self) -> Field:
        return self.A.field

    @cached_property
    def _decomps(self):
        """The six decompositions of the eigenspaces, built on first use."""
        field = self.field
        spaces = [_eigenspace(self.A, t) for t in self.theta]
        duals = [_eigenspace(self.Astar, t) for t in self.thetastar]
        return {dec: tuple(Subspace._from_echelon(field, 4, c) for c in comps)
                for dec, comps in _decompositions(spaces, duals).items()}

    @cached_property
    def _bases(self):
        """Chain vectors and bases of the canonical seed."""
        from .bases import _SystemBases

        return _SystemBases(self)

    @cached_property
    def _params(self):
        """The parameter array read off the system, on first use.  A system
        it cannot be read off raises ValueError on every use, as
        cached_property stores no exception."""
        from .params import _read_parameter_array

        return _read_parameter_array(self)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "A": self.A.to_json(),
            "Astar": self.Astar.to_json(),
            "theta": [str(x) for x in self.theta],
            "thetastar": [str(x) for x in self.thetastar],
        }


class Decomposition(Enum):
    """The six eigenspace-chain decompositions of the space."""

    ZSTAR_D = "[0*D]"
    ZSTAR_Z = "[0*0]"
    DSTAR_Z = "[D*0]"
    DSTAR_D = "[D*D]"
    Z_D = "[0D]"
    ZSTAR_DSTAR = "[0*D*]"


@dataclass(frozen=True)
class VerificationReport:
    diagonalizable_a: bool
    diagonalizable_astar: bool
    tridiagonal_astar_e: bool
    tridiagonal_a_estar: bool
    irreducible: bool
    shape: tuple | None
    witness: Subspace | None
    skipped: tuple

    @property
    def overall(self) -> bool:
        return (self.diagonalizable_a and self.diagonalizable_astar and self.tridiagonal_astar_e
                and self.tridiagonal_a_estar and self.irreducible)

    def to_json(self) -> dict:
        doc = {
            "diagonalizable_A": self.diagonalizable_a,
            "diagonalizable_Astar": self.diagonalizable_astar,
            "tridiagonal_AstarE": self.tridiagonal_astar_e,
            "tridiagonal_AEstar": self.tridiagonal_a_estar,
            "irreducible": self.irreducible,
            "shape": list(self.shape) if self.shape is not None else None,
            "overall": self.overall,
        }
        if self.skipped:
            doc["skipped"] = list(self.skipped)
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


def _check_pair(a: Matrix, astar: Matrix) -> None:
    if a.nrows != 4 or a.ncols != 4 or astar.nrows != 4 or astar.ncols != 4:
        raise ValueError("both matrices must be 4x4")
    if a.field != astar.field:
        raise ValueError("matrices live over different fields")


def _check_system(a: Matrix, astar: Matrix, theta, thetastar) -> tuple:
    """theta and thetastar as tuples of elements of a's field; raises
    ValueError unless a and astar are 4x4 over one field and both lists
    have length 3."""
    field = a.field
    theta = tuple(field(x) for x in theta)
    thetastar = tuple(field(x) for x in thetastar)
    _check_pair(a, astar)
    if len(theta) != 3 or len(thetastar) != 3:
        raise ValueError("eigenvalue lists must have length 3")
    return theta, thetastar


def _diag_with_spectrum(m: Matrix, evs):
    """Eigenspaces of m in the order of evs, or None unless m is
    diagonalizable with exactly evs."""
    if len(set(evs)) != len(evs):
        return None
    spaces = [_eigenspace(m, e) for e in evs]
    ok = all(s.dim >= 1 for s in spaces) and sum(s.dim for s in spaces) == 4
    return spaces if ok else None


def verify_td_system(a: Matrix, astar: Matrix, theta, thetastar) -> VerificationReport:
    """Check all six axioms for the given matrices and orderings.

    Axiom failures are reported, never raised; only malformed input
    (wrong sizes, mixed fields, wrong list lengths) raises.
    """
    theta, thetastar = _check_system(a, astar, theta, thetastar)
    spaces, duals = _diag_with_spectrum(a, theta), _diag_with_spectrum(astar, thetastar)
    if spaces is None or duals is None:
        return _undiagonalizable(spaces is not None, duals is not None)
    same = (0, 1, 2)
    return _verify_on_spaces(a, astar, _view(a, astar, theta, spaces, duals), same, same)


def _undiagonalizable(diag_a, diag_s) -> VerificationReport:
    """The report when a matrix is not diagonalizable with its eigenvalues."""
    return VerificationReport(diag_a, diag_s, False, False, False, None, None,
                              ("tridiagonal_AstarE", "tridiagonal_AEstar", "irreducible"))


def _view(a, astar, theta, spaces, duals):
    """What the checks and the ordering search read: a's eigenvalues theta
    and eigenspaces, astar's eigenspaces duals, astar in the coordinates of
    spaces, and the zero-block tables of astar on spaces and a on duals."""
    coords = _coordinates(astar, spaces)
    far_s = _zero_blocks(*_coordinates(a, duals))
    return theta, spaces, duals, coords, _zero_blocks(*coords), far_s


def _verify_on_spaces(a, astar, view, pa, ps):
    """The checks of :func:`verify_td_system` on the view of :func:`_view`,
    with the eigenvalues of a and astar ordered by the index permutations
    pa and ps of the view's order."""
    theta, spaces, duals, coords, far_a, far_s = view
    tri_astar, tri_a = far_a[pa[0]][pa[2]], far_s[ps[0]][ps[2]]
    if not (tri_astar and tri_a):
        return VerificationReport(True, True, tri_astar, tri_a, False, None, None, ("irreducible",))
    witness = _invariant_search(a.field, theta, spaces, astar, coords)
    decomps = _decompositions([spaces[i] for i in pa], [duals[i] for i in ps])
    return VerificationReport(True, True, True, True, witness is None,
                              _consistent_shape(decomps, a.field.p), witness, ())


def find_td_orderings(a: Matrix, astar: Matrix):
    """All ordering pairs of both spectra passing the tridiagonal axioms.

    Requires both matrices diagonalizable with exactly 3 eigenvalues;
    returns a lexicographically ordered list of (theta, thetastar) pairs.
    """
    _check_pair(a, astar)
    eda, eds = eigen_data(a), eigen_data(astar)
    return [(tuple(eda.eigenvalues[i] for i in pa), tuple(eds.eigenvalues[i] for i in ps))
            for pa, ps in _ordering_perms(a, astar, eda, eds)[1]]


def _ordering_perms(a, astar, eda, eds):
    """The view of a and astar on the eigen data eda of a and eds of
    astar, and the orderings of :func:`find_td_orderings` as index
    permutations of those eigenvalues."""
    if not eda.diagonalizable or len(eda.eigenvalues) != 3:
        raise ValueError("first matrix is not diagonalizable with 3 eigenvalues")
    if not eds.diagonalizable or len(eds.eigenvalues) != 3:
        raise ValueError("second matrix is not diagonalizable with 3 eigenvalues")
    view = _view(a, astar, eda.eigenvalues, eda.eigenspaces, eds.eigenspaces)
    *_, far_a, far_s = view
    return view, [(pa, ps) for pa in permutations(range(3)) if far_a[pa[0]][pa[2]]
                  for ps in permutations(range(3)) if far_s[ps[0]][ps[2]]]


def _verify_unordered(a: Matrix, astar: Matrix):
    """Verify on the first ordering pair of :func:`find_td_orderings`, or
    on the eigenvalues in :func:`eigen_data` order when none passes, on
    one view of the pair.  Returns (number of orderings, theta, thetastar,
    report); raises ValueError as find_td_orderings."""
    eda, eds = eigen_data(a), eigen_data(astar)
    view, perms = _ordering_perms(a, astar, eda, eds)
    pa, ps = perms[0] if perms else ((0, 1, 2), (0, 1, 2))
    theta = tuple(eda.eigenvalues[i] for i in pa)
    thetastar = tuple(eds.eigenvalues[i] for i in ps)
    return len(perms), theta, thetastar, _verify_on_spaces(a, astar, view, pa, ps)


def _coordinates(m: Matrix, spaces):
    """m in a basis adapted to the direct sum V = spaces[0] + spaces[1] + ...:
    the rows of the grid of P^-1 M P, den dropped, for P the spaces' raw
    rows side by side, and the coordinate indices of each space.  Every use
    is homogeneous in the rows and in each coordinate's positive scale."""
    p = m.field.p
    basis = [list(r) for r in zip(*(v for s in spaces for v in s._rows))], 1
    idx, k = [], 0
    for s in spaces:
        idx.append(range(k, k + s.dim))
        k += s.dim
    return _mul_grids(_inv_grid(basis, p), _mul_grids(m._grid, basis, p), p)[0], idx


def _zero_blocks(grid, idx):
    """Entry [i][j] tells whether E_i M E_j = 0 = E_j M E_i, blocks (i, j)
    and (j, i) of the grid of :func:`_coordinates`, for the projectors E_i
    of the spaces; M is tridiagonal on them in an order iff [first][last]."""
    return [[not any(grid[r][c] or grid[c][r] for r in ri for c in cj) for cj in idx]
            for ri in idx]


def _decompositions(spaces, duals):
    """All six decompositions, as raw rows in reduced echelon form, from the
    eigenspaces ker(A - theta_i) and ker(A* - thetastar_i).

    For the chains pa[i] = spaces[0] + ... + spaces[i], sa[i] = spaces[i] +
    ... + spaces[2], and pd, sd of the duals, [0*D] is (pd[i] /\\ sa[i]),
    [0*0] (pd[i] /\\ pa[2-i]), [D*0] (sd[2-i] /\\ pa[2-i]) and [D*D]
    (sd[2-i] /\\ sa[i]).  Only the middle components are real meets.  X /\\ Y
    is the annihilator of ann(X) + ann(Y), so the annihilators of the four
    side sums pd[1], sd[1], pa[1] and sa[1] (each from the spaces' rows side
    by side, no chain sum built) are taken once, and each middle is the
    annihilator of two of them.  The other eight meet a space with a side's
    sum pa[2] = sa[0] (pd[2] = sd[0]): V, a trivial meet, when the side's
    spaces are pairwise distinct with dims adding up to 4, as distinct
    eigenspaces of one matrix are independent; else (a TDSystem built with
    a repeated theta) a meet taken in full.
    """
    p = spaces[0].field.p
    a, d = [s._rows for s in spaces], [s._rows for s in duals]

    def cut(side, x):
        spans = sum(map(len, side)) == 4 and len(set(side)) == 3
        return x if spans else _meet_rows(x, [r for s in side for r in s], 4, p)

    d0, d2, a0, a2 = cut(a, d[0]), cut(a, d[2]), cut(d, a[0]), cut(d, a[2])
    # the annihilators of pd[1], sd[1], pa[1] and sa[1]
    npd, nsd, npa, nsa = (_ann(x + y, 4, p) for x, y in
                          ((d[0], d[1]), (d[1], d[2]), (a[0], a[1]), (a[1], a[2])))
    return {
        Decomposition.ZSTAR_D: (d0, _ann(npd + nsa, 4, p), a2),
        Decomposition.ZSTAR_Z: (d0, _ann(npd + npa, 4, p), a0),
        Decomposition.DSTAR_Z: (d2, _ann(nsd + npa, 4, p), a0),
        Decomposition.DSTAR_D: (d2, _ann(nsd + nsa, 4, p), a2),
        Decomposition.Z_D: tuple(a),
        Decomposition.ZSTAR_DSTAR: tuple(d),
    }


def split_decomposition(tds: TDSystem, dec: Decomposition):
    """The three components of the named decomposition."""
    if not isinstance(dec, Decomposition):
        raise ValueError(f"unknown decomposition {dec!r}")
    return list(tds._decomps[dec])


def _consistent_shape(decomps, p):
    """Dims of the six decompositions of :func:`_decompositions`, or None if
    they disagree or fail to be direct (dims adding up to 4, and rank 4 of
    the stacked rows over GF(p), or QQ for p = 0)."""
    dims = {tuple(map(len, comps)) for comps in decomps.values()}
    these = dims.pop() if len(dims) == 1 else None
    if these is None or sum(these) != 4 or any(
            _rank([r for c in comps for r in c], p) != 4 for comps in decomps.values()):
        return None
    return these


def shape(tds: TDSystem):
    """Component dimensions, cross-checked over all six decompositions."""
    dims = _consistent_shape({dec: [c._rows for c in comps] for dec, comps in tds._decomps.items()},
                             tds.field.p)
    if dims is None:
        raise ValueError("decomposition dimensions are inconsistent; "
                         "not a verified tridiagonal system")
    return dims


_SPLIT_ACTION = {
    Decomposition.ZSTAR_D: (lambda i: i, lambda i: i),
    Decomposition.ZSTAR_Z: (lambda i: 2 - i, lambda i: i),
    Decomposition.DSTAR_Z: (lambda i: 2 - i, lambda i: 2 - i),
    Decomposition.DSTAR_D: (lambda i: i, lambda i: 2 - i),
}


def _maps_into(g, c, src: Subspace, dst: Subspace | None, p: int) -> bool:
    """Whether M - c*I, for the raw grid g of M and a raw scalar c, maps
    src into dst, or to zero when dst is None."""
    images = (_apply_raw(g, (v, 1), p, c)[0] for v in src._rows)
    return all(not any(w) if dst is None else dst._holds(w) for w in images)


def verify_split_actions(tds: TDSystem) -> bool:
    """Check the raising/lowering action table on all six decompositions."""
    p = tds.field.p
    a, astar = tds.A._grid, tds.Astar._grid
    theta = [x.val for x in tds.theta]
    thetastar = [x.val for x in tds.thetastar]
    for dec, (a_idx, s_idx) in _SPLIT_ACTION.items():
        comps = tds._decomps[dec]
        for i in range(3):
            up = comps[i + 1] if i + 1 < 3 else None
            down = comps[i - 1] if i - 1 >= 0 else None
            if not _maps_into(a, theta[a_idx(i)], comps[i], up, p):
                return False
            if not _maps_into(astar, thetastar[s_idx(i)], comps[i], down, p):
                return False
    # [0D] and [0*D*] are the eigenspaces themselves: only the window is checked
    for dec, other in ((Decomposition.Z_D, astar), (Decomposition.ZSTAR_DSTAR, a)):
        comps = tds._decomps[dec]
        for i in range(3):
            window = subspace_sum(comps[max(i - 1, 0):i + 2])
            if not _maps_into(other, 0, comps[i], window, p):
                return False
    return True


# -- common invariant subspace search ----------------------------------------

def common_invariant_subspace(a: Matrix, astar: Matrix) -> Subspace | None:
    """A subspace W with 0 != W != V invariant under both, or None.

    Requires two 4x4 matrices over one field, the first diagonalizable
    over it; its eigenspaces come from :func:`eigen_data`.  Any invariant W
    is then the direct sum of its slices W /\\ (eigenspace), so the search
    runs over eigenspace slices: whole-or-nothing pieces for 1-dimensional
    eigenspaces, and a projective line of candidate slices inside a
    2-dimensional eigenspace.  Both are read off B, the second matrix in
    a basis of the first one's eigenspaces: a sum of eigenspaces is
    invariant when B's columns at its coordinates vanish in every other
    row, and a line family is invariant exactly at the common roots of
    linear and quadratic forms in B's entries, found through their gcd.
    Other eigenspace profiles are searched by enumeration, over prime
    fields only.
    """
    _check_pair(a, astar)
    ed = eigen_data(a)
    if not ed.diagonalizable:
        raise ValueError("first matrix is not diagonalizable over its field")
    return _invariant_search(a.field, ed.eigenvalues, ed.eigenspaces, astar,
                             _coordinates(astar, ed.eigenspaces))


def _invariant_search(field, eigenvalues, eigenspaces, astar, coords):
    """The search behind :func:`common_invariant_subspace`, on eigenspaces
    the caller already has and astar in their coordinates (coords, from
    :func:`_coordinates`).  Slices are taken by dimension, ties by
    eigenvalue, so the first witness found does not depend on the order
    in which the caller lists the eigenvalues."""
    order = sorted(range(len(eigenspaces)),
                   key=lambda i: (eigenspaces[i].dim, eigenvalues[i].val))
    spaces = [eigenspaces[i] for i in order]
    dims = [s.dim for s in spaces]
    if dims[-1] == 1 or dims == [1, 1, 2]:
        grid, idx = coords
        perm = [k for i in order for k in idx[i]]
        b = [[grid[r][c] for c in perm] for r in perm]
        return _search_profile_211(field, spaces, astar, b)
    if field.is_prime_field:
        return _search_enumerate(field, spaces, astar)
    raise ValueError(
        f"eigenspace dimension profile {dims} is only searchable over prime fields")


def _search_profile_211(field, spaces, astar, b):
    """Search when every eigenspace is a line except at most one plane, on
    b, the raw rows of astar in the coordinates of spaces: line i has
    coordinate i, and the plane's basis u1, u2 the last two."""
    n = len(spaces)
    plane = spaces[-1] if spaces[-1].dim == 2 else None
    sums = [(chosen, [k for i in chosen for k in range(i, i + spaces[i].dim)])
            for r in range(1, n + 1) for chosen in combinations(range(n), r)]
    # candidates by dimension d: sums of whole eigenspaces, then a family of
    # d - 1 eigenlines plus a variable line of the plane
    for d in (1, 2, 3):
        for chosen, inside in sums:
            if len(inside) == d and not any(
                    b[r][c] for c in inside for r in range(4) if r not in inside):
                return subspace_sum(spaces[i] for i in chosen)
        if plane is None:
            continue
        for chosen in combinations(range(n - 1), d - 1):
            sol = _solve_line_family(field.p, b, chosen)
            if sol is not None:
                (x, y), p = sol, field.p
                vec = [(x * u + y * v) % p if p else x * u + y * v
                       for u, v in zip(*plane._rows)]
                w = Subspace._from_vals(field, 4, [spaces[i]._rows[0] for i in chosen] + [vec])
                if not w.is_invariant(astar):
                    raise RuntimeError("projective-line solver produced a bad witness")
                return w
    return None


def _solve_line_family(p, b, gens):
    """A projective point (x : y) of ints at which span(gens, x*u1 + y*u2)
    is invariant, or None; b is as in :func:`_search_profile_211`, gens the
    chosen eigenline coordinates, and u1, u2 sit at coordinates 2 and 3.
    The conditions are linear forms (alpha, beta), meaning alpha*x + beta*y,
    and one quadratic (alpha, beta, gamma), alpha*x^2 + beta*xy + gamma*y^2.
    (1 : 0) is returned when every condition vanishes there; else the
    smallest root x = r/q of the gcd of the dehomogenized conditions, found
    by :func:`_poly.roots` on both fields, as (r : q)."""
    k1, k2 = 2, 3
    outside = [r for r in (0, 1) if r not in gens]
    if any(b[r][j] for j in gens for r in outside):
        return None
    lin = [(-b[k2][j], b[k1][j]) for j in gens] + [(b[r][k1], b[r][k2]) for r in outside]
    quad = (b[k2][k1], b[k2][k2] - b[k1][k1], -b[k1][k2])
    if not any(a for a, _ in lin) and not quad[0]:
        return 1, 0
    # residues over GF(p) and integers over QQ; the gcd has degree <= 2
    polys = [[c, a] for a, c in lin] + [list(quad[::-1])]
    polys = [[x % p for x in q] for q in polys] if p else polys
    polys = [q for q in map(_poly.trim, polys) if q]
    g = polys[0]
    for q in polys[1:]:
        if len(g) <= 1:
            break
        g = _poly.gcd(g, q, p)
    if len(g) <= 1:
        return None
    roots = _poly.roots(g, p)
    return (roots[0][0].numerator, roots[0][0].denominator) if roots else None


def _search_enumerate(field, spaces, astar):
    """Finite-field fallback for eigenspace profiles with a slice of
    dimension 3 or more, or several planes: enumerate every subspace of
    each eigenspace directly."""
    p = field.p
    per_space = []
    for s in spaces:
        subs = [Subspace.zero(field, 4)]
        for coords in _coordinate_subspaces(p, s.dim):
            vecs = [[sum(map(mul, coeffs, col)) % p for col in zip(*s._rows)]
                    for coeffs in coords]
            subs.append(Subspace._from_vals(field, 4, vecs))
        per_space.append(subs)
    found = []
    for combo in product(*per_space):
        w = subspace_sum(combo)
        if 0 < w.dim < 4 and w.is_invariant(astar):
            found.append(w)
    if not found:
        return None
    return min(found, key=lambda s: (s.dim, s.to_json()))


def _coordinate_subspaces(p, m):
    """Raw echelon bases of all nonzero subspaces of GF(p)^m."""
    for k in range(1, m + 1):
        for pivots in combinations(range(m), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, m)
                if j not in pivots
            ]
            for values in product(range(p), repeat=len(free_pos)):
                rows = [[0] * m for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                yield rows
