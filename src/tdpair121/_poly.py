"""Dense polynomials on raw coefficient lists, low degree first: residues
over GF(p) (p > 0), and integers over the rationals (p == 0) once the
caller has cleared denominators; linalg unboxes at the edge.

charpoly is Berkowitz's division-free method (Inf. Process. Lett. 18,
1984), O(n^4) ring operations against the n! terms of Leibniz.  Roots
over GF(p) take time polynomial in log p: gcd(f, x^p - x) is the product
of the distinct linear factors, which equal-degree splitting
(Cantor-Zassenhaus) breaks up, down to quadratics solved by a modular
square root.  Over the rationals each candidate r/q, from the divisors of
the lowest nonzero and the leading coefficient, is tested on integers as
q^n f(r/q), and its multiplicity found by exact division by qx - r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import mul as _mul


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


def _primitive(cs: list) -> list:
    """cs over its content, with a positive leading coefficient."""
    g = math.gcd(*cs)
    return [x // g for x in cs] if not cs or cs[-1] > 0 else [-x // g for x in cs]


def gcd(a, b, p: int) -> list:
    """Greatest common divisor of two raw polynomials: monic over GF(p),
    and over the integers primitive with a positive leading coefficient,
    through pseudo-remainders that are each made primitive."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        if p:
            r = divmod_(a, b, p)[1]
        else:
            scale = b[-1] ** max(len(a) - len(b) + 1, 0)
            r = _primitive(divmod_([x * scale for x in a], b, 0)[1])
        a, b = b, r
    return [x * pow(a[-1], -1, p) % p for x in a] if p else _primitive(a)


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
    """Distinct roots in GF(p) of the trimmed nonzero raw polynomial cs."""
    if p == 2:
        return [x for x in (0, 1) if not value(cs, x, 1, 2)]
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


def _int_divisors(n: int) -> list:
    """Positive divisors of n != 0, ascending, by trial division."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def roots(cs, p: int) -> list:
    """Roots with multiplicities of the trimmed nonzero raw polynomial cs,
    as (root, mult) pairs ascending by root: residues over GF(p), and over
    the rationals Fractions, from integer coefficients."""
    if p:
        cands = [(r, 1) for r in gf_roots(cs, p)]
    else:
        k = next(i for i, c in enumerate(cs) if c)
        cands = [(0, 1)] if k else []
        cands += [(s * r, q) for r in _int_divisors(cs[k]) for q in _int_divisors(cs[-1])
                  if math.gcd(r, q) == 1 for s in (1, -1)]
    found = []
    for r, q in cands:
        mult = 0
        while not value(cs, r, q, p):
            cs = divmod_(cs, [-r % p if p else -r, q], p)[0]
            mult += 1
        if mult:
            found.append((r if p else Fraction(r, q), mult))
    return sorted(found)
