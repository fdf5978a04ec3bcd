"""Dense polynomials on raw coefficient lists, low degree first: residues
over GF(p) (p > 0), and integers over the rationals (p == 0) once the
caller has cleared denominators; linalg unboxes at the edge.

charpoly is Berkowitz's division-free method (Inf. Process. Lett. 18,
1984), O(n^4) ring operations against the n! terms of Leibniz; its
constant term gives Matrix.det.  Roots over GF(p) take time polynomial
in log p: gcd(f, x^p - x) is the product of the distinct linear factors,
which equal-degree splitting (Cantor-Zassenhaus) breaks up, down to
quadratics solved by a modular square root.  Roots over the rationals
come from the same code (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 15): the roots of the squarefree part mod a small prime,
lifted by Newton's iteration and read back as fractions by extended
Euclid.  Either way each candidate r/q is tested exactly as q^n f(r/q),
and its multiplicity found by exact division by qx - r.  A linear
polynomial has its root in closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import mul as _mul

from .fields import _is_prime


def trim(cs: list) -> list:
    """cs without its trailing zero coefficients, in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def mul(a, b, p: int) -> list:
    """Product of two raw polynomials, reduced mod p over GF(p)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return [c % p for c in out] if p else out


def divmod_(a, b, p: int):
    """Quotient and trimmed remainder of a by the trimmed nonzero b.  Over
    the integers every division by b's leading coefficient must be exact:
    b a primitive factor of a, or a scaled for pseudo-division."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - n)
    lead, inv = b[-1], pow(b[-1], -1, p) if p else 0
    for d in range(len(q) - 1, -1, -1):
        c = q[d] = r[d + n] * inv % p if p else r[d + n] // lead
        if c:
            for i, y in enumerate(b, d):
                r[i] -= c * y
    return q, trim([x % p for x in r[:n]] if p else r[:n])


def _primitive(row, lead) -> list:
    """An integer row over its content, negated if its entry lead is < 0;
    also linalg's normalisation of integer rows and vectors over QQ."""
    g = -math.gcd(*row) if lead < 0 else math.gcd(*row)
    return [x // g for x in row] if g != 1 else row


def gcd(a, b, p: int) -> list:
    """Greatest common divisor of two raw polynomials: monic over GF(p),
    and over the integers primitive with a positive leading coefficient,
    through pseudo-remainders each made primitive, in either sign."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        if p:
            r = divmod_(a, b, p)[1]
        else:
            scale = b[-1] ** max(len(a) - len(b) + 1, 0)
            r = _primitive(divmod_([x * scale for x in a], b, 0)[1], 1)
        a, b = b, r
    return [x * pow(a[-1], -1, p) % p for x in a] if p else _primitive(a, a[-1])


def powmod(base, e: int, mod, p: int) -> list:
    """base^e, e >= 1, mod a polynomial of degree >= 1 over GF(p), by
    squaring from the top bit down, so the multiplications are by base."""
    acc = base = divmod_(base, mod, p)[1]
    for bit in bin(e)[3:]:
        acc = divmod_(mul(acc, acc, p), mod, p)[1]
        if bit == "1":
            acc = divmod_(mul(acc, base, p), mod, p)[1]
    return acc


def value(cs, r: int, q: int, p: int) -> int:
    """q^n f(r/q) for the polynomial f = cs of degree n, that is the sum of
    a_i r^i q^(n-i), by Horner's rule; reduced mod p over GF(p)."""
    acc = 0
    for i, c in enumerate(reversed(cs)):
        acc = acc * r + c * q ** i
    return acc % p if p else acc


def charpoly(rows, p: int) -> list:
    """Coefficients of det(xI - M), low degree first, for the square raw
    rows of M.  For M = [[a, R], [C, N]], M's coefficients (high degree
    first) are T times N's, T lower-triangular Toeplitz with first column
    (1, -a, -RC, -RNC, -RN^2C, ...); T times a vector is the head of the
    convolution of that column with it.  N grows from the empty matrix,
    whose polynomial is 1, by one row and column per step."""
    n = len(rows)
    vec = [1]
    for k in range(n - 1, -1, -1):
        below = [row[k + 1:] for row in rows[k + 1:]]
        r, c = rows[k][k + 1:], [row[k] for row in rows[k + 1:]]
        col = [1, -rows[k][k]]
        for j in range(n - k - 1):
            if j:
                c = [sum(map(_mul, row, c)) for row in below]
                if p:
                    c = [x % p for x in c]
            col.append(-sum(map(_mul, r, c)))
        vec = mul(col, vec, p)[:n - k + 1]
    return vec[::-1]


def gf_roots(cs, p: int) -> list:
    """Distinct roots in GF(p) of the trimmed nonzero raw polynomial cs.
    Below p = 64 every residue is tried, which is faster there (about 2x at
    p = 31 on quadratics and quartics), and which p = 2 needs."""
    if p < 64:
        return [x for x in range(p) if not value(cs, x, 1, p)]
    if len(cs) < 2:
        return []
    xp = powmod([0, 1], p, cs, p) + [0, 0]
    xp[1] -= 1
    return _split(gcd(cs, [x % p for x in xp], p), p)


def _split(h, p: int) -> list:
    """Roots of a monic h over GF(p), p odd, that is a product of distinct
    linear factors.  A quadratic x^2 + bx + c has the roots (-b +- sqrt(b^2
    - 4c)) / 2.  Else a root r divides off into gcd(h, (x + a)^((p-1)/2) - 1)
    exactly when r + a is a nonzero square.  The shifts a = 0, 1, 2, ... are
    tried in turn; for roots r != s the ratio (r + a)/(s + a) takes every
    value but 1 as a varies, a non-square among them, so some shift splits h."""
    if len(h) == 3:
        s, half = _sqrt((h[1] * h[1] - 4 * h[0]) % p, p), (p + 1) // 2
        return [(s - h[1]) * half % p, (-s - h[1]) * half % p]
    if len(h) <= 2:
        return [-h[0] % p] if len(h) == 2 else []
    for a in count():
        t = powmod([a % p, 1], (p - 1) // 2, h, p) or [0]
        t[0] -= 1
        d = gcd(h, [x % p for x in t], p)
        if 1 < len(d) < len(h):
            return _split(d, p) + _split(divmod_(h, d, p)[0], p)


def _sqrt(a: int, p: int) -> int:
    """A square root of the square a mod the odd prime p, by Tonelli-Shanks:
    p - 1 = q 2^s with q odd, and z the least non-square."""
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    c = pow(next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1), q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, u = 1, t * t % p
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _rational_candidates(cs) -> list:
    """Pairs (r, q), q > 0, among which are all the roots r/q in lowest
    terms of the integer polynomial cs of degree >= 2.

    0 is a candidate when cs[0] is 0.  The rest are the roots of s, the
    squarefree part of cs without its factors x, integral by Gauss's
    lemma.  Take the least odd prime p that does not divide s's leading
    coefficient and at which every root of s mod p is simple; every p that
    divides neither that coefficient nor the discriminant qualifies.  A
    root r/q of s is then the simple root r q^-1 mod p, which Newton's
    iteration lifts to the root mod some m > 2 |s_0| |s_n|.  As |r| <= |s_0|
    and q <= |s_n|, extended Euclid on (m, root) reads r/q back at its first
    remainder of at most |s_0| (MCA Theorem 5.26).
    """
    k = next(i for i, c in enumerate(cs) if c)
    cands = [(0, 1)] if k else []
    f = cs[k:]
    if len(f) < 2:
        return cands
    s = divmod_(f, gcd(f, [i * c for i, c in enumerate(f)][1:], 0), 0)[0]
    ds = [i * c for i, c in enumerate(s)][1:]
    for p in count(3, 2):
        if s[-1] % p and _is_prime(p):
            lifted = gf_roots([c % p for c in s], p)
            if all(value(ds, a, 1, p) for a in lifted):
                break
    top = abs(s[0])
    m, bound = p, 2 * top * abs(s[-1])
    while m <= bound:
        m *= m
        lifted = [(a - value(s, a, 1, m) * pow(value(ds, a, 1, m), -1, m)) % m for a in lifted]
    for a in lifted:
        r0, r1, t0, t1 = m, a, 0, 1
        while r1 > top:
            quo = r0 // r1
            r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
        g = math.gcd(r1, t1) if t1 > 0 else -math.gcd(r1, t1)
        cands.append((r1 // g, t1 // g))
    return cands


def roots(cs, p: int) -> list:
    """Roots with multiplicities of the raw polynomial cs, trimmed and nonzero
    once reduced mod p, which is done here over GF(p) (as value does): (root,
    mult) pairs ascending by root, residues over GF(p), Fractions over QQ."""
    cs = [c % p for c in cs] if p else cs
    if len(cs) == 2:
        return [(-cs[0] * pow(cs[1], -1, p) % p if p else Fraction(-cs[0], cs[1]), 1)]
    cands = [(r, 1) for r in gf_roots(cs, p)] if p else _rational_candidates(cs)
    found = []
    for r, q in cands:
        mult = 0
        while not value(cs, r, q, p):
            cs = divmod_(cs, [-r % p if p else -r, q], p)[0]
            mult += 1
        if mult:
            found.append((r if p else Fraction(r, q), mult))
    return sorted(found)
