"""Independent oracle: brute-force and formula-direct computations.

Everything here is plain Fractions and ints on purpose; nothing imports
the package under test, so agreement between the two is a real check.
The frozen constants were produced by this module before the package was
written.
"""

from fractions import Fraction as F
from itertools import combinations, product

# the worked instance
P0_THETA = (F(1), F(0), F(-1))
P0_THETASTAR = (F(1), F(0), F(-1))
P0_VARPHI = F(2)
P0_PHI = F(1)

# (varphi1, varphi2, phi1, phi2) and the two sides of the product identity
P0_DERIVED = (F(-5, 4), F(-5, 4), F(3, 4), F(3, 4))
P0_IDENTITY_SIDES = F(7, 16)
P0_VARPHI1_VARPHI2 = F(25, 16)

P0_A_ROWS = [
    [F(1), F(0), F(0), F(0)],
    [F(1), F(0), F(0), F(0)],
    [F(0), F(0), F(0), F(0)],
    [F(0), F(1), F(-5, 4), F(-1)],
]
P0_ASTAR_ROWS = [
    [F(1), F(-5, 4), F(2), F(0)],
    [F(0), F(0), F(0), F(0)],
    [F(0), F(0), F(0), F(1)],
    [F(0), F(0), F(0), F(-1)],
]
# idempotent for the first eigenvalue: single nonzero column
P0_E0_COLUMN = (F(1), F(1), F(0), F(1, 2))
# idempotent for the last dual eigenvalue: single nonzero column (column 3)
P0_ESTAR2_COLUMN = (F(1), F(0), F(-1), F(1))
# chain vectors grown from the seed (1,0,0,0)
P0_ETA0 = (F(2), F(2), F(0), F(1))
P0_ETA2 = (F(0), F(0), F(0), F(1))
P0_ETA2STAR = (F(2), F(0), F(-2), F(2))
# eigenspace dimensions of the canonical first matrix, by row reduction
P0_A_EIGEN_DIMS = {F(1): 1, F(0): 2, F(-1): 1}
P0_ORDERING_PAIR_COUNT = 4

# full enumeration over GF(3): all 6561 arrays
GF3_PASS_I = 324
GF3_PASS_I_II = 144
GF3_ADMISSIBLE = 108
GF3_ORBIT_COUNT = 18
GF3_ORBIT_SIZES = {4: 9, 8: 9}


def derived_formulas(theta, thetastar, varphi, phi):
    """Evaluate the four closed formulas directly over the rationals."""
    t0, t1, t2 = theta
    s0, s1, s2 = thetastar
    d1 = (phi - varphi) / ((t0 - t2) * (s0 - s2))
    d2 = (varphi - phi) / ((t2 - t0) * (s0 - s2))
    varphi1 = d1 - (t0 - t1) * (s0 - s1)
    phi1 = d2 - (t2 - t1) * (s0 - s1)
    phi2 = d2 - (t1 - t0) * (s1 - s2)
    varphi2 = d1 - (t1 - t2) * (s1 - s2)
    return varphi1, varphi2, phi1, phi2


def derived_formulas_mod(p, theta, thetastar, varphi, phi):
    """Same four formulas in GF(p), on plain int residues."""
    t0, t1, t2 = theta
    s0, s1, s2 = thetastar
    d1 = (phi - varphi) * inverse_mod((t0 - t2) * (s0 - s2), p) % p
    d2 = (varphi - phi) * inverse_mod((t2 - t0) * (s0 - s2), p) % p
    varphi1 = (d1 - (t0 - t1) * (s0 - s1)) % p
    phi1 = (d2 - (t2 - t1) * (s0 - s1)) % p
    phi2 = (d2 - (t1 - t0) * (s1 - s2)) % p
    varphi2 = (d1 - (t1 - t2) * (s1 - s2)) % p
    return varphi1, varphi2, phi1, phi2


def inverse_mod(a, p):
    """Multiplicative inverse by exhaustive search."""
    a %= p
    for x in range(1, p):
        if a * x % p == 1:
            return x
    raise ZeroDivisionError(f"{a} has no inverse mod {p}")


def divide_mod(a, b, p):
    """a/b in GF(p) by exhaustive search for x with b*x = a."""
    sols = [x for x in range(p) if b * x % p == a % p]
    if len(sols) != 1:
        raise ZeroDivisionError(f"{a}/{b} mod {p} has {len(sols)} solutions")
    return sols[0]


def enumerate_arrays_mod(p):
    """Counts over all p^8 arrays of those passing (i), (i)+(ii), all
    three conditions; also returns the admissible arrays themselves."""
    count_i = count_i_ii = 0
    admissible = []
    rng = range(p)
    for arr in product(rng, repeat=8):
        t0, t1, t2, s0, s1, s2, f, g = arr
        if t0 == t1 or t0 == t2 or t1 == t2:
            continue
        if s0 == s1 or s0 == s2 or s1 == s2:
            continue
        count_i += 1
        if f == 0 or g == 0:
            continue
        count_i_ii += 1
        v1, v2, _, _ = derived_formulas_mod(p, (t0, t1, t2), (s0, s1, s2), f, g)
        if v1 * v2 % p != f:
            admissible.append(arr)
    return count_i, count_i_ii, admissible


def d4_orbit(arr):
    seen = {arr}
    frontier = [arr]
    while frontier:
        t0, t1, t2, s0, s1, s2, f, g = frontier.pop()
        for nxt in (
            (s0, s1, s2, t0, t1, t2, f, g),
            (t0, t1, t2, s2, s1, s0, g, f),
            (t2, t1, t0, s0, s1, s2, g, f),
        ):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def d4_orbit_stats(arrays):
    orbits = {d4_orbit(a) for a in arrays}
    sizes = {}
    for o in orbits:
        sizes[len(o)] = sizes.get(len(o), 0) + 1
    return len(orbits), sizes


def mat_vec_mod(rows, v, p):
    return tuple(sum(r[j] * v[j] for j in range(4)) % p for r in rows)


def all_subspaces_mod(p):
    """Every proper nonzero subspace of GF(p)^4, as (dim, span set, basis).

    Subspaces are enumerated through reduced echelon bases: one basis per
    subspace, so the count is exact.
    """
    out = []
    for k in (1, 2, 3):
        for pivots in combinations(range(4), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, 4)
                if j not in pivots
            ]
            for values in product(range(p), repeat=len(free_pos)):
                rows = [[0] * 4 for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                span = set()
                for coeffs in product(range(p), repeat=k):
                    vec = tuple(
                        sum(coeffs[i] * rows[i][j] for i in range(k)) % p
                        for j in range(4))
                    span.add(vec)
                out.append((k, span, [tuple(r) for r in rows]))
    return out


def gaussian_binomial_total(p):
    """Number of proper nonzero subspaces of a 4-dimensional space."""
    def gb(n, k):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        return num // den
    return gb(4, 1) + gb(4, 2) + gb(4, 3)


def brute_force_common_invariant(a_rows, astar_rows, p, subspaces=None):
    """First proper nonzero subspace invariant under both, or None."""
    if subspaces is None:
        subspaces = all_subspaces_mod(p)
    for _, span, basis in subspaces:
        ok = all(
            mat_vec_mod(a_rows, v, p) in span
            and mat_vec_mod(astar_rows, v, p) in span
            for v in basis)
        if ok:
            return basis
    return None


def eigenspace_dim_fraction(rows, theta):
    """dim ker(M - theta I) by independent row reduction over Fractions."""
    work = [[rows[i][j] - (theta if i == j else 0) for j in range(4)]
            for i in range(4)]
    rank = 0
    for c in range(4):
        pivot = next((i for i in range(rank, 4) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][c]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(4):
            if i != rank and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return 4 - rank


def rank_mod(rows, p):
    """Rank of a list of int vectors over GF(p), by row reduction."""
    work = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def rref_mod(rows, p):
    """Nonzero rows of the reduced row echelon form of int vectors over a
    prime p: each leads with 1, which is 0 in every other row.  Rows not
    yet used as a pivot wait in a pool; each pivot (inverted as
    pivot^(p-2), Fermat) clears its column in the pool and in the rows
    already taken."""
    pool = [[x % p for x in r] for r in rows]
    out = []
    for c in range(len(pool[0]) if pool else 0):
        pick = next((r for r in pool if r[c]), None)
        if pick is None:
            continue
        pool.remove(pick)
        top = [x * pow(pick[c], p - 2, p) % p for x in pick]
        out = [[(x - r[c] * y) % p for x, y in zip(r, top)] for r in out] + [top]
        pool = [[(x - r[c] * y) % p for x, y in zip(r, top)] for r in pool]
    return out


def meet_mod(x, y, n, p):
    """Reduced echelon rows of span(x) /\\ span(y) in GF(p)^n, by Zassenhaus
    elimination: in rref_mod of the rows (u, u) for u in x and (v, 0) for v
    in y, the rows whose left half vanished carry the meet in their right
    halves."""
    work = [list(u) + list(u) for u in x] + [list(v) + [0] * n for v in y]
    return rref_mod([r[n:] for r in rref_mod(work, p) if not any(r[:n])], p)


def roots_mod(coeffs, p):
    """[(root, multiplicity)] of an int polynomial (low degree first) over
    GF(p), by evaluation at every residue and repeated synthetic division."""
    out = []
    for r in range(p):
        cs, mult = [c % p for c in coeffs], 0
        while len(cs) > 1:
            quot, acc = [], 0
            for c in reversed(cs):
                acc = (acc * r + c) % p
                quot.append(acc)
            if quot.pop():
                break
            cs, mult = quot[::-1], mult + 1
        if mult:
            out.append((r, mult))
    return out


def eigenspace_basis_mod(rows, t, p):
    """A basis of ker(M - t) over GF(p), picked greedily from all p^4
    vectors in lexicographic order."""
    basis = []
    for v in product(range(p), repeat=4):
        if (mat_vec_mod(rows, v, p) == tuple(t * x % p for x in v)
                and rank_mod(basis + [v], p) > len(basis)):
            basis.append(v)
    return basis


def decompositions_mod(a_rows, astar_rows, theta, thetastar, p):
    """The six eigenspace-chain decompositions over GF(p), by name, each
    as (dims, direct).

    Every component X /\\ Y of chain members is the set of all p^dim
    vectors of the member of smaller rank (combinations of its rref_mod
    basis) that lie in the other, each membership decided by rank_mod; a
    decomposition is direct when its dims add up to 4 and its components
    together have rank 4.  The chains are pa[i] = V_0 + ... + V_i,
    sa[i] = V_i + ... + V_2 for the eigenspaces V_i = ker(A - theta_i), and
    pd, sd for A*.
    """
    spaces = [eigenspace_basis_mod(a_rows, t, p) for t in theta]
    duals = [eigenspace_basis_mod(astar_rows, t, p) for t in thetastar]

    def chains(side):
        pre = [[v for s in side[:i + 1] for v in s] for i in range(3)]
        suf = [[v for s in side[i:] for v in s] for i in range(3)]
        return pre, suf

    def meet(x, y):
        if rank_mod(x, p) > rank_mod(y, p):
            x, y = y, x
        basis, ry = rref_mod(x, p), rank_mod(y, p)
        span = (tuple(sum(c * b[k] for c, b in zip(cs, basis)) % p for k in range(4))
                for cs in product(range(p), repeat=len(basis)))
        return [v for v in span if rank_mod(y + [v], p) == ry]

    pa, sa = chains(spaces)
    pd, sd = chains(duals)
    comps = {
        "[0*D]": [meet(pd[i], sa[i]) for i in range(3)],
        "[0*0]": [meet(pd[i], pa[2 - i]) for i in range(3)],
        "[D*0]": [meet(sd[2 - i], pa[2 - i]) for i in range(3)],
        "[D*D]": [meet(sd[2 - i], sa[i]) for i in range(3)],
        "[0D]": spaces,
        "[0*D*]": duals,
    }
    out = {}
    for name, cs in comps.items():
        dims = tuple(rank_mod(c, p) for c in cs)
        out[name] = (dims, sum(dims) == 4 and rank_mod([v for c in cs for v in c], p) == 4)
    return out


def shape_mod(a_rows, astar_rows, theta, thetastar, p):
    """The common dims of the six decompositions of decompositions_mod, or
    None if they differ or one is not direct."""
    decomps = decompositions_mod(a_rows, astar_rows, theta, thetastar, p)
    dims = {d for d, _ in decomps.values()}
    if len(dims) == 1 and all(direct for _, direct in decomps.values()):
        return dims.pop()
    return None


def mat_mul(a, b, p=0):
    """Product of two square matrices of Fractions (p = 0) or ints, reduced
    mod p when p is a prime, by the schoolbook triple sum."""
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[x % p for x in r] for r in out] if p else out


def mat_inverse(rows, p=0):
    """Inverse of a square matrix of Fractions (p = 0) or ints mod a prime
    p, by Gauss-Jordan on [M | I]; mod p a pivot is inverted as
    pivot^(p-2) (Fermat)."""
    n = len(rows)
    work = [[F(x) for x in r] + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    if p:
        work = [[int(x) % p for x in r] for r in work]
    for c in range(n):
        pivot = next(i for i in range(c, n) if work[i][c])
        work[c], work[pivot] = work[pivot], work[c]
        inv = pow(work[c][c], p - 2, p) if p else 1 / work[c][c]
        work[c] = [x * inv % p if p else x * inv for x in work[c]]
        for i in range(n):
            f = work[i][c]
            if i != c and f:
                work[i] = [(x - f * y) % p if p else x - f * y
                           for x, y in zip(work[i], work[c])]
    return [r[n:] for r in work]


def det(rows, p=0):
    """Determinant of a square matrix of Fractions (p = 0) or ints mod a
    prime p, by Gaussian elimination with row swaps; mod p a pivot is
    inverted as pivot^(p-2) (Fermat)."""
    n = len(rows)
    work = [[F(x) for x in r] for r in rows]
    if p:
        work = [[int(x) % p for x in r] for r in work]
    total = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            total = -total
        total *= work[c][c]
        inv = pow(work[c][c], p - 2, p) if p else 1 / work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] * inv
            work[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(work[i], work[c])]
    return total % p if p else total
