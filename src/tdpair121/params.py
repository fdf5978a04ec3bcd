"""Parameter arrays and the classification of shape-(1,2,1) systems.

A parameter array bundles the two eigenvalue sequences with the two split
scalars (varphi, phi).  Admissibility is the exact three-part criterion
under which a tridiagonal system with these parameters exists; the
canonical construction realizes it and extraction inverts it.  The three
involutions swap / flip-dual / flip-primary generate a dihedral group of
order 8 acting on arrays.  Over GF(p) the admissible arrays and their
orbits are counted by polynomials in p, in a fixed number of integer
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import Field, FieldElement, _require
from .linalg import Matrix, _apply_raw, _columns, _rank
from .tdsystem import TDSystem


@dataclass(frozen=True)
class ParameterArray:
    field: Field
    theta: tuple
    thetastar: tuple
    varphi: FieldElement
    phi: FieldElement

    @classmethod
    def make(cls, field: Field, theta, thetastar, varphi, phi) -> ParameterArray:
        return cls(
            field,
            tuple(field(x) for x in theta),
            tuple(field(x) for x in thetastar),
            field(varphi),
            field(phi),
        )

    def __post_init__(self):
        _require(self.field, Field)
        if len(self.theta) != 3 or len(self.thetastar) != 3:
            raise ValueError("eigenvalue sequences must have length 3")
        for x in (*self.theta, *self.thetastar, self.varphi, self.phi):
            _require(x, FieldElement)
            if x.field is not self.field:
                raise TypeError(f"expected an element of {self.field}, got one of {x.field}")

    # computed once per array; cached_property stores into the instance
    # __dict__, which the dataclass's eq, hash and repr never read
    @cached_property
    def _derived(self) -> DerivedParams:
        return derived_params(self)

    @cached_property
    def _admissibility(self) -> AdmissibilityReport:
        return admissible(self)

    @cached_property
    def _table_ctx(self) -> dict:
        """The raw values the formula tables read, by name (bases._ctx)."""
        from .bases import _ctx

        return _ctx(self)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "theta": [str(x) for x in self.theta],
            "thetastar": [str(x) for x in self.thetastar],
            "varphi": str(self.varphi),
            "phi": str(self.phi),
        }

    @classmethod
    def from_json(cls, data: dict) -> ParameterArray:
        if not isinstance(data, dict):
            raise ValueError("a parameter array is a JSON object")
        field = Field.from_json(data["field"])
        for key in ("theta", "thetastar"):
            if not isinstance(data[key], list):
                raise ValueError(f"{key} must be a list of 3 field elements")
        theta, thetastar = (tuple(map(field.parse, data[key])) for key in ("theta", "thetastar"))
        return cls(field, theta, thetastar, field.parse(data["varphi"]), field.parse(data["phi"]))


@dataclass(frozen=True)
class DerivedParams:
    varphi1: FieldElement
    varphi2: FieldElement
    phi1: FieldElement
    phi2: FieldElement

    def to_json(self) -> dict:
        return {
            "varphi1": str(self.varphi1),
            "varphi2": str(self.varphi2),
            "phi1": str(self.phi1),
            "phi2": str(self.phi2),
        }


def derived_params(pa: ParameterArray) -> DerivedParams:
    """The four scalars by which the quadratic products act on the end
    eigenspaces, as closed formulas in the array.  All four share one
    term d = (phi - varphi)/((t0 - t2)(s0 - s2)), the one division:

        varphi1 = d - (t0 - t1)(s0 - s1),  varphi2 = d - (t1 - t2)(s1 - s2),
        phi1    = d + (t1 - t2)(s0 - s1),  phi2    = d + (t0 - t1)(s1 - s2),

    where the paper's phi1 and phi2 divide varphi - phi by (t2 - t0)(s0 - s2),
    which gives d again."""
    _require(pa, ParameterArray)
    t0, t1, t2 = pa.theta
    s0, s1, s2 = pa.thetastar
    if t0 == t2:
        raise ValueError("derived parameters undefined: theta[0] == theta[2]")
    if s0 == s2:
        raise ValueError("derived parameters undefined: thetastar[0] == thetastar[2]")
    a, b, astar, bstar = t0 - t1, t1 - t2, s0 - s1, s1 - s2
    d = (pa.phi - pa.varphi) / ((a + b) * (astar + bstar))
    return DerivedParams(d - a * astar, d - b * bstar, d + b * astar, d + a * bstar)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    failed: tuple

    def to_json(self) -> dict:
        return {"ok": self.ok, "failed": list(self.failed)}


def admissible(pa: ParameterArray) -> AdmissibilityReport:
    """Check the classification criterion: (i) distinct eigenvalue
    sequences, (ii) nonzero split scalars, (iii) varphi != varphi1*varphi2."""
    _require(pa, ParameterArray)
    failed = []
    t, s = pa.theta, pa.thetastar
    if t[0] == t[1] or t[0] == t[2] or t[1] == t[2] or s[0] == s[1] or s[0] == s[2] or s[1] == s[2]:
        failed.append("(i)")
    if pa.varphi.is_zero or pa.phi.is_zero:
        failed.append("(ii)")
    if t[0] != t[2] and s[0] != s[2]:
        dp = pa._derived
        if pa.varphi == dp.varphi1 * dp.varphi2:
            failed.append("(iii)")
    return AdmissibilityReport(not failed, tuple(failed))


def _require_admissible(pa: ParameterArray) -> None:
    """Raise ValueError naming the failed conditions unless pa is
    admissible; decided once per array."""
    _require(pa, ParameterArray)
    report = pa._admissibility
    if not report.ok:
        raise ValueError(f"inadmissible parameter array, failed {list(report.failed)}")


def canonical_matrices(pa: ParameterArray):
    """The lower/upper-triangular matrix pair of the canonical construction.

    Available for any array with defined derived parameters, admissible or
    not, so that boundary arrays can be probed.
    """
    _require(pa, ParameterArray)
    dp = pa._derived
    f = pa.field
    t0, t1, t2 = (x.val for x in pa.theta)
    s0, s1, s2 = (x.val for x in pa.thetastar)
    a = Matrix._from_rows(f, [
        [t0, 0, 0, 0],
        [1, t1, 0, 0],
        [0, 0, t1, 0],
        [0, 1, dp.varphi2.val, t2],
    ])
    astar = Matrix._from_rows(f, [
        [s0, dp.varphi1.val, pa.varphi.val, 0],
        [0, s1, 0, 0],
        [0, 0, s1, 1],
        [0, 0, 0, s2],
    ])
    return a, astar


def construct(pa: ParameterArray) -> TDSystem:
    """Build the tridiagonal system with this parameter array."""
    _require_admissible(pa)
    a, astar = canonical_matrices(pa)
    return TDSystem.from_matrices(a, astar, pa.theta, pa.thetastar)


def _scalar_action(image, projector, field: Field) -> FieldElement:
    """The scalar by which a product acts on the image of a projector, from
    the raw grids of product * projector and of projector: checked on whole
    matrices, so on every vector of the image at once, as rank at most 1
    of the two flattened grids, and read off at the projector's first
    nonzero entry."""
    (img, di), (proj, dp) = image, projector
    img, proj = [x for r in img for x in r], [y for r in proj for y in r]
    j = next(j for j, y in enumerate(proj) if y)
    if _rank([img, proj], field.p) > 1:
        raise ValueError("product does not act as a scalar on the eigenspace; "
                         "input is not a shape-(1,2,1) system")
    return field(img[j] * dp) / field(proj[j] * di)


def _read_parameter_array(tds: TDSystem) -> ParameterArray:
    """The body of :func:`extract_parameter_array`, which TDSystem._params
    runs once per system: raw products on V*_0's rows, boxing the two scalars."""
    field = tds.field
    p = field.p
    a, astar = tds.A._grid, tds.Astar._grid
    t0, t1, t2 = (t.val for t in tds.theta)
    s1, s2 = tds.thetastar[1].val, tds.thetastar[2].val
    basis = [(r, 1) for r in tds._spaces[1][0]._rows]
    if not basis:
        raise ValueError("thetastar[0] is not an eigenvalue of A*: its eigenspace V*_0 is zero")

    def split_scalar(t):
        """The scalar of (A* - s1)(A* - s2)(A - t1)(A - t) on V*_0."""
        images = [_apply_raw(astar, _apply_raw(astar, _apply_raw(a, _apply_raw(a, v, p, t), p, t1),
                                               p, s2), p, s1) for v in basis]
        return _scalar_action(_columns(images), _columns(basis), field)

    varphi, phi = split_scalar(t0), split_scalar(t2)
    if varphi.is_zero or phi.is_zero:
        raise ValueError("split scalars vanish; input is not a shape-(1,2,1) system")
    return ParameterArray(field, tds.theta, tds.thetastar, varphi, phi)


def extract_parameter_array(tds: TDSystem) -> ParameterArray:
    """Read the parameter array off a verified shape-(1,2,1) system; read
    once per system and kept on it."""
    _require(tds, TDSystem)
    return tds._params


# -- the dihedral action -----------------------------------------------------

SWAP = "*"          # exchange the roles of the two transformations
FLIP_DUAL = "d"     # reverse the dual eigenvalue sequence
FLIP_PRIMARY = "D"  # reverse the primary eigenvalue sequence

_GENERATORS = (SWAP, FLIP_DUAL, FLIP_PRIMARY)


class D4Word:
    """Word over {*, d, D}, reduced to one of 8 canonical forms.

    The relations are *^2 = d^2 = D^2 = 1, D* = *d, d* = *D, dD = Dd, so
    every word reduces to d^a D^b *^c with a, b, c in {0, 1}.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, letters=""):
        a = b = c = 0
        for letter in letters:
            if letter == FLIP_DUAL:
                if c:
                    b ^= 1
                else:
                    a ^= 1
            elif letter == FLIP_PRIMARY:
                if c:
                    a ^= 1
                else:
                    b ^= 1
            elif letter == SWAP:
                c ^= 1
            else:
                raise ValueError(f"unknown generator {letter!r}")
        self.a, self.b, self.c = a, b, c

    @property
    def letters(self) -> str:
        return FLIP_DUAL * self.a + FLIP_PRIMARY * self.b + SWAP * self.c

    def __mul__(self, other: D4Word) -> D4Word:
        _require(other, D4Word)
        return D4Word(self.letters + other.letters)

    def __eq__(self, other):
        return (
            isinstance(other, D4Word)
            and (self.a, self.b, self.c) == (other.a, other.b, other.c)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return f"D4Word({self.letters!r})" if self.letters else "D4Word(identity)"

    @classmethod
    def all_elements(cls):
        return [cls(FLIP_DUAL * a + FLIP_PRIMARY * b + SWAP * c)
                for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _apply_generator(pa: ParameterArray, letter: str) -> ParameterArray:
    if letter == SWAP:
        return ParameterArray(pa.field, pa.thetastar, pa.theta, pa.varphi, pa.phi)
    if letter == FLIP_DUAL:
        return ParameterArray(pa.field, pa.theta, pa.thetastar[::-1], pa.phi, pa.varphi)
    # FLIP_PRIMARY, the one other letter of a D4Word
    return ParameterArray(pa.field, pa.theta[::-1], pa.thetastar, pa.phi, pa.varphi)


def relative(pa: ParameterArray, word) -> ParameterArray:
    """Parameter array of the relative system for a str or D4Word word (else
    TypeError); letters apply left to right."""
    _require(pa, ParameterArray)
    if isinstance(word, str):
        word = D4Word(word)
    elif not isinstance(word, D4Word):
        raise TypeError(f"expected a str or a D4Word, got {type(word).__name__}")
    out = pa
    for letter in word.letters:
        out = _apply_generator(out, letter)
    return out


# how each generator permutes (varphi1, varphi2, phi1, phi2)
_DERIVED_SWAP = {
    SWAP: (0, 1, 3, 2),
    FLIP_DUAL: (3, 2, 1, 0),
    FLIP_PRIMARY: (2, 3, 0, 1),
}


def derived_of_relative_consistency(pa: ParameterArray) -> bool:
    """Check that derived parameters transform along the dihedral action
    exactly as the closed formulas predict, for all 8 group elements."""
    dp = derived_params(pa)
    base = (dp.varphi1, dp.varphi2, dp.phi1, dp.phi2)
    for word in D4Word.all_elements():
        expected = base
        for letter in word.letters:
            perm = _DERIVED_SWAP[letter]
            expected = tuple(expected[i] for i in perm)
        got = derived_params(relative(pa, word))
        if (got.varphi1, got.varphi2, got.phi1, got.phi2) != expected:
            return False
    return True


def _enumerate_counts(p: int, orbits: bool) -> dict:
    """Counts over GF(p), p prime, of the arrays passing (i), (i) and (ii),
    and all three conditions; with `orbits`, the admissible ones' orbits.

    Admissible count.  A triple passing (i) is t1 + (a, 0, -b) with
    a = t0-t1, b = t1-t2 and a, b, a+b nonzero: n = p(p-1)(p-2) triples.
    For theta, thetastar passing (i), `derived_params` gives varphi1 =
    d - aa* and varphi2 = d - bb*, with d = (phi - varphi)/den and
    den = (a+b)(a*+b*).  So a nonzero (varphi, phi) fails (iii) exactly
    when varphi = (d - aa*)(d - bb*).  Each d gives one such pair, with
    phi = varphi + d*den = (d + ab*)(d + a*b), and it is nonzero unless d
    is one of aa*, bb*, -ab*, -a*b.  As a, b, a+b and the starred values
    are nonzero, these four can coincide only as aa* = bb* or ab* = a*b.
    Given (a, b), each equation fixes a* for every b* != 0, with a* and
    a*+b* nonzero: (p-1)^2 (p-2) solutions (a, b, a*, b*), times p^2
    translations.  Each of the n^2 pairs of triples thus has
    (p-1)^2 - p + 4 - [aa* = bb*] - [ab* = a*b] admissible (varphi, phi):

        N = p^2 (p-1)^2 (p-2) (p^3 - 5p^2 + 11p - 12).

    Orbits.  The admissible arrays form a union of orbits: (i) and (ii)
    are plainly invariant, `*` fixes varphi, varphi1 and varphi2, and `d`,
    `D` exchange varphi - varphi1*varphi2 with phi - phi1*phi2, which are
    equal (expand with phi1 = d + (t1-t2)(s0-s1), phi2 = d + (t0-t1)(s1-s2)
    and phi - varphi = d*den).  Write the eight group elements as
    d^a D^b *^c.  Those with c = 0 reverse theta, thetastar or both, and a
    triple of distinct values is never its own reverse, so none but the
    identity fixes an array.  Of those with c = 1, `*` fixes exactly the
    arrays with thetastar = theta, and `dD*` those with thetastar = theta
    reversed, whatever (varphi, phi); `d*` and `D*` square to dD, so a
    fixed point of theirs would be one of dD.  A stabilizer holding both
    `*` and `dD*` would hold their product dD.  So every stabilizer has
    order 1 or 2, every orbit has 8 or 4 arrays, and the arrays in orbits
    of size 4 are exactly the N4 admissible arrays with thetastar equal to
    theta or to theta reversed.  Of the N admissible arrays, N4/4 orbits
    have size 4 and (N - N4)/8 have size 8.  thetastar = theta gives
    (a*, b*) = (a, b), so ab* = a*b, and aa* = bb* iff a = b; theta
    reversed gives (a*, b*) = (-b, -a), the same the other way round.  For
    odd p, a = b on p(p-1) triples, so N4 = 2(n(p^2 - 3p + 4) - p(p-1)) =
    2p(p-1)((p-2)(p^2 - 3p + 4) - 1); for p = 2 no triple passes (i).
    """
    n = p * (p - 1) * (p - 2)
    total = p * p * (p - 1) ** 2 * (p - 2) * (p ** 3 - 5 * p * p + 11 * p - 12)
    result = {"p": p, "pass_i": n * n * p * p, "pass_i_ii": n * n * (p - 1) ** 2,
              "admissible": total}
    if orbits:
        fixed = 2 * p * (p - 1) * ((p - 2) * (p * p - 3 * p + 4) - 1) if p > 2 else 0
        sizes = {4: fixed // 4, 8: (total - fixed) // 8}
        result["orbits"] = {"count": sum(sizes.values()),
                            "sizes": {str(k): v for k, v in sizes.items() if v}}
    return result
