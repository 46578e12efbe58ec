"""Session-level configuration: the residue cardinality q.

q is part of the local field, not of any expression, so it is fixed once
per session (CLI flag --q, default 3).  Scalars fold integer powers of q
into their rational coefficients, so all arithmetic depends on it.
"""

import math
from fractions import Fraction

_DEFAULT_Q = 3
_q = _DEFAULT_Q


def set_q(q: int) -> None:
    """Fix q for the session; it must be a prime power below 2**32."""
    global _q
    # the bound keeps the trial division in is_prime_power under 2**16 steps
    if not (isinstance(q, int) and q < 2 ** 32 and is_prime_power(q)):
        from .exact import DomainError  # exact imports this module
        raise DomainError(f"q must be a prime power below 2**32, got {q!r}")
    _q = q


def is_prime_power(n: int) -> bool:
    """True for p^k with p prime and k >= 1 (a possible residue cardinality)."""
    if n < 2:
        return False
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


def get_q() -> int:
    return _q


def q_pow(e: int) -> Fraction:
    """q**e as an exact rational (e may be negative)."""
    if e >= 0:
        return Fraction(_q ** e)
    return Fraction(1, _q ** (-e))


def q_is_square() -> bool:
    return math.isqrt(_q) ** 2 == _q
