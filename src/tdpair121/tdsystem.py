"""Axiom-level verification of tridiagonal systems on a 4-dimensional space.

A tridiagonal system is a matrix pair together with orderings of both
spectra such that each matrix acts block-tridiagonally on the other's
eigenspace chain and the pair admits no common proper nonzero invariant
subspace.  This module verifies the axioms one by one, searches for valid
orderings, builds the six eigenspace-chain decompositions, and computes
the shape, all on one matrix: C = P^-1 P*, the transition EigA -> EigA*
from A's eigenbasis P to A*'s, P*.  In A's eigen-coordinates V_i is spanned
by unit vectors I_i and V*_j by the columns J_j of C; A* there is C D* C^-1
and A in A*'s C^-1 D C, whose far blocks decide tridiagonality; a meet is
C[:, J] ker(C[I^c, J]); and the shape reads corners of C and C^-1.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, cached_property
from itertools import chain, combinations, permutations, product
from operator import mul

from . import _poly
from .fields import Field, FieldElement, _frozen, _require
from .linalg import (
    Matrix,
    Subspace,
    _ann,
    _det_small,
    _elements,
    _frame,
    _inv_grid,
    _mul_grids,
    _scale_columns,
    _spectral,
    eigen_data,
    subspace_sum,
)


@_frozen
class TDSystem:
    """Matrix pair with ordered eigenvalues and ordered idempotents.  Its
    eigenspaces are those of the frames of A for theta and of A* for
    thetastar, kept on the system: from_matrices reads the idempotents off
    them, and a system built field by field builds them on first use.  For
    an ordering of a matrix's spectrum the frame relabels the matrix's own,
    so its blocks may come in any column order."""

    A: Matrix
    Astar: Matrix
    theta: tuple
    thetastar: tuple
    E: tuple
    Estar: tuple

    def __post_init__(self):
        """TypeError and ValueError as :func:`verify_td_system` raises them
        for malformed input, where theta and thetastar must be tuples of
        elements of A's field; E and Estar are () or three 4x4 matrices
        over that field."""
        for t in (self.theta, self.thetastar):
            _require(t, tuple)
            for x in t:
                _require(x, FieldElement)
        _check_system(self.A, self.Astar, self.theta, self.thetastar)
        for es in (self.E, self.Estar):
            _require(es, tuple)
            for e in es:
                _require(e, Matrix)
            if es and (len(es) != 3 or any(e.field is not self.field or e.nrows != 4
                                           or e.ncols != 4 for e in es)):
                raise ValueError("E and Estar must each be () or three 4x4 matrices "
                                 "over the field of A")

    @classmethod
    def from_matrices(cls, a: Matrix, astar: Matrix, theta, thetastar) -> TDSystem:
        """Raises ValueError on malformed input, as verify_td_system does,
        or when a matrix is not diagonalizable with exactly its eigenvalues."""
        theta, thetastar = _check_system(a, astar, theta, thetastar)
        return cls(a, astar, theta, thetastar, _spectral(a, theta), _spectral(astar, thetastar))

    @property
    def field(self) -> Field:
        return self.A.field

    @cached_property
    def _frames(self):
        """The frames of A for theta and of A* for thetastar, built once."""
        return _frame(self.A, self.theta), _frame(self.Astar, self.thetastar)

    @property
    def _spaces(self):
        """The eigenspaces of A for theta and of A* for thetastar."""
        return tuple(f.spaces for f in self._frames)

    @cached_property
    def _transition(self):
        """:func:`_transition` of the frames, built on first use."""
        return _transition(*self._frames, self.field.p)

    @cached_property
    def _decomps(self):
        """The six decompositions of the eigenspaces, built on first use."""
        return _decompositions(self.field, *self._spaces, *self._transition)

    @cached_property
    def _bases(self):
        """Chain vectors and bases of the canonical seed; beside them,
        bases keeps those of the last other seed as _eta_bases."""
        from .bases import _SystemBases, _canonical_seed

        return _SystemBases(self, _canonical_seed(self))

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


# The split decompositions by the orders ao, so in which they run A's and
# A*'s eigenvalues: component i meets the sums of the duals so[:i + 1] and the
# spaces ao[i:].  Once both tridiagonality windows hold, A - theta[ao[i]] maps
# it into i + 1, A* - thetastar[so[i]] into i - 1 (Ito, Tanabe, Terwilliger 2001).
_SPLIT_ORDERS = {
    Decomposition.ZSTAR_D: ((0, 1, 2), (0, 1, 2)),
    Decomposition.ZSTAR_Z: ((2, 1, 0), (0, 1, 2)),
    Decomposition.DSTAR_Z: ((2, 1, 0), (2, 1, 0)),
    Decomposition.DSTAR_D: ((0, 1, 2), (2, 1, 0)),
}


@_frozen
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
    _require(a, Matrix)
    _require(astar, Matrix)
    if a.nrows != 4 or a.ncols != 4 or astar.nrows != 4 or astar.ncols != 4:
        raise ValueError("both matrices must be 4x4")
    if a.field != astar.field:
        raise ValueError("matrices live over different fields")


def _check_system(a: Matrix, astar: Matrix, theta, thetastar) -> tuple:
    """theta and thetastar as tuples of elements of a's field; raises
    TypeError unless a and astar are matrices or when a list is a str, and
    ValueError unless they are 4x4 over one field and both lists have
    length 3."""
    _check_pair(a, astar)
    theta, thetastar = (_elements(a.field, t) for t in (theta, thetastar))
    if len(theta) != 3 or len(thetastar) != 3:
        raise ValueError("eigenvalue lists must have length 3")
    return theta, thetastar


def verify_td_system(a: Matrix, astar: Matrix, theta, thetastar) -> VerificationReport:
    """Check all six axioms for the given matrices and orderings.

    Axiom failures are reported, never raised; only malformed input
    (wrong sizes, mixed fields, wrong list lengths) raises.
    """
    theta, thetastar = _check_system(a, astar, theta, thetastar)
    fa, fs = _frame(a, theta), _frame(astar, thetastar)
    if not (fa.ok and fs.ok):
        return _undiagonalizable(fa.ok, fs.ok)
    p = a.field.p
    coords, dual, (c, inv, idx, jdx) = _view(p, theta, thetastar, fa, fs)
    tri_astar, tri_a = _apart(p, idx[0], idx[2], coords[0]), _apart(p, jdx[0], jdx[2], *dual)
    if not (tri_astar and tri_a):
        return VerificationReport(True, True, tri_astar, tri_a, False, None, None, ("irreducible",))
    witness = _invariant_search(a.field, theta, fa.spaces, astar, coords)
    dims = _shape(c, inv, idx, jdx, p)
    return VerificationReport(True, True, True, True, witness is None, dims, witness, ())


def _undiagonalizable(diag_a, diag_s) -> VerificationReport:
    """The report when a matrix is not diagonalizable with its eigenvalues."""
    return VerificationReport(diag_a, diag_s, False, False, False, None, None,
                              ("tridiagonal_AstarE", "tridiagonal_AEstar", "irreducible"))


def _view(p, theta, thetastar, fa, fs):
    """What the checks read, for frames fa of A and fs of A* whose
    eigenspaces each span the space: B = C D* C^-1 = P^-1 A* P whole, as the
    invariant search reads all of it, with the blocks of A's eigenspaces;
    C^-1 D C = P*^-1 A P* as its two factors, the raw rows of C^-1 D and the
    columns of C, which :func:`_apart` reads only at the blocks it is asked
    about, never forming the product; and C, C^-1 and the blocks.  C and
    C^-1 are :func:`_transition`'s two solves, so B is the one grid product
    here and no P^-1 is read.  The blocks may come in any column order, so
    D and D* place each eigenvalue at its block's columns."""
    c, inv, idx, jdx = frame = _transition(fa, fs, p)[1:]
    diag = lambda evs, bs: [*map({k: t.val for t, ks in zip(evs, bs) for k in ks}.get, range(4))]
    b = _mul_grids(_scale_columns(c, diag(thetastar, jdx), p), inv, p)[0]
    dual = _scale_columns(inv, diag(theta, idx), p)[0], [*zip(*c[0])]
    return (b, idx), dual, frame


def _apart(p, ri, cj, rows, cols=None) -> bool:
    """Whether blocks (ri, cj) and (cj, ri) of a matrix M in eigen-coordinates
    vanish, E_i M E_j = 0 = E_j M E_i for the projectors E_i onto the spaces
    of the coordinate blocks: M is tridiagonal on the blocks in an order iff
    its first and last blocks are apart.  M is the raw rows, read as they
    are, or with cols the product of the raw rows and the raw columns cols,
    of which only the entries at the two blocks are dotted out.  Entries are
    read up to scale."""
    def at(r, k):
        if cols is None:
            return rows[r][k]
        x = sum(map(mul, rows[r], cols[k]))
        return x % p if p else x

    return not any(at(r, k) or at(k, r) for r in ri for k in cj)


def find_td_orderings(a: Matrix, astar: Matrix):
    """All ordering pairs of both spectra passing the tridiagonal axioms.

    Requires both matrices diagonalizable with exactly 3 eigenvalues;
    returns a lexicographically ordered list of (theta, thetastar) pairs.
    The 36 pairs are read off one view in the :func:`eigen_data` order: an
    ordering passes iff its first and last eigenspaces are :func:`_apart`,
    which is asked of the three pairs of blocks of each matrix.  The ends
    of an ordering of 0, 1, 2 are the two indices other than its middle
    one, so each pair's answer is kept at the index of the third block.
    """
    _check_pair(a, astar)
    eda, eds = eigen_data(a), eigen_data(astar)
    if not eda.diagonalizable or len(eda.eigenvalues) != 3:
        raise ValueError("first matrix is not diagonalizable with 3 eigenvalues")
    if not eds.diagonalizable or len(eds.eigenvalues) != 3:
        raise ValueError("second matrix is not diagonalizable with 3 eigenvalues")
    ta, ts, p = eda.eigenvalues, eds.eigenvalues, a.field.p
    (b, idx), dual, (*_, jdx) = _view(p, ta, ts, _frame(a, ta), _frame(astar, ts))
    ends = ((1, 2), (0, 2), (0, 1))
    mid_a = [_apart(p, idx[i], idx[j], b) for i, j in ends]
    mid_s = [_apart(p, jdx[i], jdx[j], *dual) for i, j in ends]
    return [(tuple(ta[i] for i in pa), tuple(ts[i] for i in ps))
            for pa in permutations(range(3)) if mid_a[pa[1]]
            for ps in permutations(range(3)) if mid_s[ps[1]]]


def _transition(fa, fs, p):
    """P*, C = P^-1 P* and C^-1 = P*^-1 P as raw grids, for the eigenbases P
    of the frame fa and P* of fs, and the column blocks of each in P and P*:
    C solves P C = P* and C^-1 solves P* C^-1 = P, one elimination each, so
    neither P, P* nor C is inverted."""
    (basis, idx), (dual, jdx) = fa.basis, fs.basis
    return dual, _inv_grid(basis, p, dual), _inv_grid(dual, p, basis), idx, jdx


def _decompositions(field, spaces, duals, dual, c, _, idx, jdx):
    """The six decompositions as canonical subspaces, from the eigenspaces
    and their :func:`_transition`.  The twelve meets of :data:`_SPLIT_ORDERS`
    follow one rule: in A's eigen-coordinates a sum of spaces is span(e_I)
    and a sum of duals span(C[:, J]) for the unions I, J of their blocks (a
    repeated space has one block, a zero space none; completing unit vectors
    are in no chain member), so the meet is C[:, J] ker(C[I^c, J]), in the
    original coordinates P*[:, J] ker(C[I^c, J])."""
    p, vecs = field.p, list(zip(*dual[0]))

    @cache  # each side component is shared by two decompositions
    def meet(ds, ss):
        js, inside = sorted({j for d in ds for j in jdx[d]}), {i for s in ss for i in idx[s]}
        rows = [[c[0][r][j] for j in js] for r in range(4) if r not in inside]
        kernel, _ = _ann(rows, len(js), p)
        vals = _mul_grids((kernel, 1), ([vecs[j] for j in js], 1), p)[0]
        return Subspace._from_vals(field, 4, vals)

    return {**{dec: tuple(meet(frozenset(so[:i + 1]), frozenset(ao[i:])) for i in range(3))
               for dec, (ao, so) in _SPLIT_ORDERS.items()},
            Decomposition.Z_D: tuple(spaces), Decomposition.ZSTAR_DSTAR: tuple(duals)}


def split_decomposition(tds: TDSystem, dec: Decomposition):
    """The three components of the named decomposition."""
    _require(tds, TDSystem)
    if not isinstance(dec, Decomposition):
        raise ValueError(f"unknown decomposition {dec!r}")
    return list(tds._decomps[dec])


def _shape(c, inv, idx, jdx, p):
    """The dims of all six decompositions if they agree and each is direct,
    else None, for C, C^-1 of :func:`_transition` and blocks in chain order.
    [0D] and [0*D*] are direct iff each side's blocks partition the space,
    and all dims agree only if both sides have dims (d, e, d).  [0*D] is then
    direct iff V*_0 /\\ sa[1] = 0 = pd[1] /\\ V_2, iff C[I_0, J_0] and C[I_0 +
    I_1, J_0 + J_1] are nonsingular; by complementary minors the latter is iff
    C^-1[J_2, I_2] is.  The others reverse a chain or two, so all six are
    direct iff corners C[I_a, J_b], C^-1[J_b, I_a], a, b in {0, 2}, are: d x d
    blocks with 2d <= 4, whose determinants :func:`_det_small` reads in closed form."""
    dims = tuple(map(len, idx))
    if dims != tuple(map(len, jdx)) or dims[0] != dims[2] or any(
            sorted(chain(*blocks)) != [0, 1, 2, 3] for blocks in (idx, jdx)):
        return None
    corners = [(m[0], rs, ks) for i in (idx[0], idx[2]) for j in (jdx[0], jdx[2])
               for m, rs, ks in ((c, i, j), (inv, j, i))]
    ok = all(_det_small([[m[r][k] for k in ks] for r in rs], p) for m, rs, ks in corners)
    return dims if ok else None


def shape(tds: TDSystem):
    """Component dimensions, cross-checked over all six decompositions."""
    _require(tds, TDSystem)
    dims = _shape(*tds._transition[1:], tds.field.p)
    if dims is None:
        raise ValueError("decomposition dimensions are inconsistent; "
                         "not a verified tridiagonal system")
    return dims


def verify_split_actions(tds: TDSystem) -> bool:
    """Check the raising/lowering table on all six decompositions: for the
    orders ao, so of :data:`_SPLIT_ORDERS`, (A - theta_ao[i]) U_i in U_{i+1}
    and (A* - thetastar_so[i]) U_i in U_{i-1} (U_3 = U_-1 = 0), and the windows
    A* V_i in V_{i-1} + V_i + V_{i+1} and A V*_i in V*_{i-1} + V*_i + V*_{i+1}.

    Only the windows are checked, on the kept eigenspaces, as they imply the
    rest for any theta, repeated or no eigenvalue.  U_i = (V*_so[0] + ... +
    V*_so[i]) /\\ (V_ao[i] + ... + V_ao[2]) for V_k = ker(A - theta_k), V*_k
    likewise.  A - theta_ao[i] kills V_ao[i] and keeps each V_k, so it maps the
    right-hand sum into V_ao[i+1] + ... (0 for i = 2), and by its window, in
    either order of the duals, the left-hand one into V*_so[0] + ... + V*_so[i+1]:
    U_i into U_{i+1}.  A* - thetastar_so[i] maps U_i into U_{i-1} likewise."""
    _require(tds, TDSystem)
    return all(comps[i]._maps(other._grid, 0, subspace_sum(comps[max(i - 1, 0):i + 2]))
               for comps, other in zip(tds._spaces, (tds.Astar, tds.A)) for i in range(3))


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
    row, and a line family is invariant exactly at the common zeros of
    linear and quadratic forms in B's entries: the one point of a nonzero
    linear form, checked exactly, or else the quadratic's roots.
    Other eigenspace profiles are searched by enumeration, over prime
    fields only.
    """
    _check_pair(a, astar)
    ed = eigen_data(a)
    if not ed.diagonalizable:
        raise ValueError("first matrix is not diagonalizable over its field")
    p, frame = a.field.p, _frame(a, ed.eigenvalues)
    basis, idx = frame.basis
    b = _inv_grid(basis, p, _mul_grids(astar._grid, basis, p))[0]
    return _invariant_search(a.field, ed.eigenvalues, ed.eigenspaces, astar, (b, idx))


def _invariant_search(field, eigenvalues, eigenspaces, astar, coords):
    """The search behind :func:`common_invariant_subspace`, on eigenspaces
    the caller already has and coords: the rows of P^-1 astar P, up to a
    positive scale, and the blocks of P of :func:`_eigenbasis`.  Slices are
    taken by dimension, ties by eigenvalue, so the first witness found does
    not depend on the order in which the caller lists the eigenvalues."""
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


@cache
def _sum_candidates(n):
    """The proper sums of whole eigenspaces that _search_profile_211 tries,
    for its n eigenspaces (four lines, or two lines and the plane at
    coordinates 2 and 3 when n = 3): one list per dimension 1, 2 and 3, each
    in the order combinations(range(n), r) gives them for r = 1, 2, ..., as
    (chosen eigenspaces, their coordinates, the bit mask of the others)."""
    dims = (1, 1, 2) if n == 3 else (1,) * n
    out = ([], [], [])
    for r in range(1, n):
        for chosen in combinations(range(n), r):
            inside = tuple(k for i in chosen for k in range(i, i + dims[i]))
            if len(inside) < 4:
                out[len(inside) - 1].append((chosen, inside, 15 - sum(1 << k for k in inside)))
    return tuple(map(tuple, out))


def _search_profile_211(field, spaces, astar, b):
    """Search when every eigenspace is a line except at most one plane, on
    b, the raw rows of astar in the coordinates of spaces: line i has
    coordinate i, and the plane's basis u1, u2 the last two.

    b is read once, into one bit mask per column of the rows where that
    column is nonzero: a sum of whole eigenspaces is invariant when no
    column inside it reaches a row outside it."""
    n = len(spaces)
    plane = spaces[-1] if n == 3 else None
    reach = [bool(w) | bool(x) << 1 | bool(y) << 2 | bool(z) << 3 for w, x, y, z in zip(*b)]
    # candidates by dimension d: sums of whole eigenspaces, then a family of
    # d - 1 eigenlines plus a variable line of the plane
    for d, sums in zip((1, 2, 3), _sum_candidates(n)):
        for chosen, inside, outside in sums:
            hit = 0
            for c in inside:
                hit |= reach[c]
            if not hit & outside:
                return subspace_sum(spaces[i] for i in chosen)
        if plane is None:
            continue
        for chosen in combinations(range(n - 1), d - 1):
            sol = _solve_line_family(field.p, b, reach, chosen)
            if sol is not None:
                vec = _mul_grids(([list(sol)], 1), (plane._rows, 1), field.p)[0][0]
                w = Subspace._from_vals(field, 4, [spaces[i]._rows[0] for i in chosen] + [vec])
                if not w.is_invariant(astar):
                    raise RuntimeError("projective-line solver produced a bad witness")
                return w
    return None


def _solve_line_family(p, b, reach, gens):
    """A projective point (x : y) of ints at which span(gens, x*u1 + y*u2)
    is invariant, or None; b and its column masks reach are as in
    :func:`_search_profile_211`, gens the chosen eigenline coordinates,
    and u1, u2 sit at coordinates 2 and 3.  One mask test rejects the
    family when a chosen column reaches an eigenline outside it.  The
    other conditions are linear forms alpha*x + beta*y and one quadratic
    alpha*x^2 + beta*xy + gamma*y^2, coefficients low degree first.  A
    nonzero linear form vanishes only at (-beta : alpha), returned if
    :func:`_poly.value` finds every condition zero there.  With no such
    form the quadratic decides: (1 : 0) if its x^2 term vanishes, else
    its smallest root x = r/q by :func:`_poly.roots`, as (r : q)."""
    k1, k2 = 2, 3
    outside = [r for r in (0, 1) if r not in gens]
    hit = 0
    for j in gens:
        hit |= reach[j]
    if hit & sum(1 << r for r in outside):
        return None
    conds = [[b[k1][j], -b[k2][j]] for j in gens] + [[b[r][k2], b[r][k1]] for r in outside]
    quad = [-b[k1][k2], b[k2][k2] - b[k1][k1], b[k2][k1]]
    form = next((c for c in conds if any(c)), None)
    if form is not None:
        x, y = -form[0], form[1]
        return None if any(_poly.value(c, x, y, p) for c in conds + [quad]) else (x, y)
    if not quad[2]:
        return 1, 0
    roots = _poly.roots(quad, p)
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
            vecs = _mul_grids((coords, 1), (s._rows, 1), p)[0]
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
