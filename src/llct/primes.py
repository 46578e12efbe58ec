"""Integer factorization for rational-root candidates.

Trial division handles the smooth numbers that dominate in practice;
Miller-Rabin and Pollard rho split what is left, within a step budget,
using only the standard library.
"""

from __future__ import annotations

import math


# Rho finds a factor p after about sqrt(p) steps, while trial division
# pays one step per odd number below p, so trial division stops early.
_TRIAL_BOUND = 1 << 10


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1: trial division below 2^10, then
    Miller-Rabin and Pollard rho on the cofactor.  A composite that rho
    does not split within its step budget is kept as one factor; its
    prime factors are then missing from the divisors, so a caller testing
    candidates exactly can miss a root but never accepts a wrong one."""
    fs: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            fs[p] = fs.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        _split_cofactor(n, fs)
    return fs


def _split_cofactor(n: int, fs: dict[int, int]):
    """Add the prime factors of n > 1, which has no factor below 17."""
    f = None if _is_prime(n) else _pollard_rho(n)
    if f is None:
        fs[n] = fs.get(n, 0) + 1
        return
    _split_cofactor(f, fs)
    _split_cofactor(n // f, fs)


# Miller-Rabin with these bases is exact below 3.3 * 10^24 (Sorenson and
# Webster 2017); above that a composite passing all of them is accepted
# as prime, with the consequence stated in factorize.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin test of n > 1."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_STEPS = 1 << 14


def _pollard_rho(n: int):
    """A proper factor of the odd composite n, by Pollard rho with Brent's
    cycle detection and batched gcds; None if no start finds one within
    _RHO_STEPS steps."""
    for c in (1, 2, 3):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1 and r <= _RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None
