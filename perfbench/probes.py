"""Scaling probes along the input-size axes: the prime p and bit length.

Each probe runs in its own child process, which prints the seconds spent
in the probed call (interpreter start and import excluded).  The caller
kills a probe at the cap and reports it as capped; a probe is never
shrunk to stay under the cap.

    python3 perfbench/probes.py verify_gf 10007
"""

from __future__ import annotations

import sys
from time import perf_counter

CAP_S = 10.0
VERIFY_QQ_PAIRS = 16
PROBES = (
    ("verify_gf.p101", "verify_gf", 101),
    ("verify_gf.p10007", "verify_gf", 10007),
    ("verify_gf.p100003", "verify_gf", 100003),
    ("verify_qq.n1000", "verify_qq", 1000),
    ("poly_roots.c1e6", "poly_roots", 6),
    ("poly_roots.c1e10", "poly_roots", 10),
    ("poly_roots.c1e14", "poly_roots", 14),
    ("field_prime.d12", "field_prime", 12),
    ("field_prime.d15", "field_prime", 15),
    ("field_prime.d17", "field_prime", 17),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_with_digits(digits: int) -> int:
    n = 10 ** (digits - 1) + 1
    while not is_prime(n):
        n += 2
    return n


def run_probe(kind: str, arg: int) -> float:
    import tdpair121 as api

    if kind == "verify_gf":
        field = api.Field(arg)
        pa = api.ParameterArray.make(field, (1, 2, 3), (4, 5, 7), 2, 3)
        a, astar = api.canonical_matrices(pa)
        t0 = perf_counter()
        report = api.verify_td_system(a, astar, pa.theta, pa.thetastar)
        elapsed = perf_counter() - t0
        if not report.overall:
            raise SystemExit(f"verify over GF({arg}) did not verify")
        return elapsed
    if kind == "verify_qq":
        # admissible pairs with numerators in [-arg, arg] and denominators
        # in {1, 7, 11, 13}: the bit-length axis of root finding
        import random
        from fractions import Fraction

        rng = random.Random(f"verify_qq:{arg}")
        pairs = []
        while len(pairs) < VERIFY_QQ_PAIRS:
            v = [Fraction(rng.randint(-arg, arg), rng.choice((1, 7, 11, 13))) for _ in range(8)]
            pa = api.ParameterArray.make(api.QQ, v[0:3], v[3:6], v[6], v[7])
            if api.admissible(pa).ok:
                pairs.append((*api.canonical_matrices(pa), pa.theta, pa.thetastar))
        t0 = perf_counter()
        reports = [api.verify_td_system(*pair) for pair in pairs]
        elapsed = perf_counter() - t0
        if not all(r.overall for r in reports):
            raise SystemExit("an admissible QQ pair did not verify")
        return elapsed
    if kind == "poly_roots":
        c = 10 ** arg + 7  # x^4 - c has no rational root; every divisor candidate is tried
        t0 = perf_counter()
        roots = api.poly_roots(api.QQ, [-c, 0, 0, 0, 1])
        elapsed = perf_counter() - t0
        if roots:
            raise SystemExit(f"x^4 - {c} reported rational roots {roots}")
        return elapsed
    if kind == "field_prime":
        p = smallest_prime_with_digits(arg)
        t0 = perf_counter()
        api.Field(p)
        return perf_counter() - t0
    raise SystemExit(f"unknown probe {kind!r}")


if __name__ == "__main__":
    print(repr(run_probe(sys.argv[1], int(sys.argv[2]))))
