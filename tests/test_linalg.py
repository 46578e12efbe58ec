"""Characteristic polynomials, rational roots and polynomial division
against independent checks."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unramified_rep, seeded
from llct.dsl import parse_wd
from llct.exact import PolyT, Scalar, det_char
from llct.linalg import (FE, FieldFE, FieldQ, QPoly, RatX, charpoly,
                         poly_divmod_f, poly_gcd_f, poly_quot_f, rational_roots,
                         scalar_to_fe)
from llct.oracle import realize


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------

def _poly_mul(F, a, b):
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def leibniz_charpoly(F, M):
    """det(X*I - M) as a coefficient list, summed over all permutations."""
    n = len(M)
    total = [F.zero] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [F.one]
        for i, j in enumerate(perm):
            term = _poly_mul(F, term, [F.neg(M[i][j])] + ([F.one] if i == j else []))
        for d, c in enumerate(term):
            total[d] = F.sub(total[d], c) if inversions % 2 else F.add(total[d], c)
    return total


def assert_charpoly(F, M):
    got, want = charpoly(F, M), leibniz_charpoly(F, M)
    assert len(got) == len(want)
    assert all(F.eq(g, w) for g, w in zip(got, want))


def _conjugated(m, rng):
    n = m.size
    while True:
        p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            return m.conjugate(p)
        except ZeroDivisionError:
            continue


def test_charpoly_of_conjugated_realizations_over_q():
    rng = seeded(211)
    for _ in range(12):
        m = _conjugated(realize(random_unramified_rep(rng, max_rank=5)), rng)
        assert m.field == "Q"
        assert_charpoly(FieldQ, [list(r) for r in m.phi])


def test_charpoly_matches_det_char_reversed():
    rng = seeded(223)
    for _ in range(6):
        m = _conjugated(realize(random_unramified_rep(rng, max_rank=5)), rng)
        phi = [list(r) for r in m.phi]
        cp = charpoly(FieldQ, phi)
        n = len(phi)
        entries = [[Scalar.from_rational(e) for e in row] for row in phi]
        # det(1 - M*T) = T^n det(T^-1 - M): the coefficients reversed
        assert det_char(entries) == PolyT({n - d: c for d, c in enumerate(cp)})


def test_charpoly_of_conjugated_realizations_over_fe():
    rng = seeded(227)
    for expr in ("Sp(unr(x),2)+Sp(unr(5/7*q^(1/2)),1)",
                 "Sp(unr(x^-1*q^(1/2)),3)",
                 "Sp(unr(x),1)+Sp(unr(q^(1/2)),1)+Sp(unr(2),1)"):
        m = _conjugated(realize(parse_wd(expr)), rng)
        assert m.field == "FE"
        assert_charpoly(FieldFE, [list(r) for r in m.phi])


def test_charpoly_pivot_swap_and_zero_subdiagonal():
    q = Fraction
    swap = [[q(1), q(2), q(3)], [q(0), q(4), q(5)], [q(6), q(7), q(8)]]
    zero_column = [[q(1), q(2), q(0)], [q(0), q(3), q(0)], [q(0), q(0), q(5)]]
    split = [[q(1), q(2), q(3), q(4)], [q(5), q(6), q(7), q(8)],
             [q(0), q(0), q(9), q(1)], [q(0), q(0), q(2), q(3)]]
    late_swap = [[q(2), q(1), q(0), q(0)], [q(1), q(0), q(0), q(0)],
                 [q(0), q(0), q(1), q(1)], [q(0), q(3), q(1), q(0)]]
    for M in (swap, zero_column, split, late_swap, [[q(7)]], []):
        assert_charpoly(FieldQ, M)
    x = scalar_to_fe(Scalar.x_power(1))
    sq = scalar_to_fe(Scalar.make(1, qexp2=1))
    for M in (swap, split, late_swap):
        fe = [[FE.const(e) for e in row] for row in M]
        fe[0][1] = x
        fe[-1][-1] = fe[-1][-1] + sq
        assert_charpoly(FieldFE, fe)


# ---------------------------------------------------------------------------
# rational_roots
# ---------------------------------------------------------------------------

def _expand(roots, scale=Fraction(1), extra=(1,)):
    """scale * extra(X) * prod (X - r), coefficients low degree first."""
    out = [Fraction(c) * scale for c in extra]
    for r in roots:
        out = [(out[i - 1] if i else 0) - r * (out[i] if i < len(out) else 0)
               for i in range(len(out) + 1)]
    return out


def brute_force_roots(coeffs):
    """Every p/b with |p| <= |c_low| and 1 <= b <= |lead| of the primitive
    integer polynomial, with multiplicity by repeated synthetic division."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    f = [int(Fraction(c) * den) for c in coeffs]
    g = math.gcd(*f) or 1
    f = [Fraction(c // g) for c in f]
    while f and f[-1] == 0:
        f.pop()
    roots = []
    while len(f) > 1 and f[0] == 0:
        roots.append(Fraction(0))
        f = f[1:]
    if len(f) <= 1:
        return roots
    low, lead = abs(int(f[0])), abs(int(f[-1]))
    for b in range(1, lead + 1):
        for p in range(-low, low + 1):
            r = Fraction(p, b)
            if r == 0 or r.denominator != b:
                continue
            while len(f) > 1:
                quo, acc = [], Fraction(0)
                for c in reversed(f):
                    acc = acc * r + c
                    quo.append(acc)
                if acc != 0:
                    break
                roots.append(r)
                f = list(reversed(quo[:-1]))
    return roots


def test_rational_roots_examples_against_brute_force():
    cases = [
        _expand([2, 2, 2, Fraction(-1, 3), Fraction(-1, 3), 0, 0]),  # repeated, zero, negative
        _expand([Fraction(1, 2), Fraction(1, 3)], scale=Fraction(42)),  # non-monic
        _expand([Fraction(5, 3)], extra=(-2, 0, 1)),        # (X^2 - 2)(X - 5/3)
        [10, -6, -5, 3],                                     # (X^2 - 2)(3X - 5)
        _expand([-4, Fraction(7, 2)], extra=(1, 0, 1)),      # times X^2 + 1
        _expand([Fraction(-2, 5)] * 4, scale=Fraction(-3, 7)),
        [1, 0, 1],                                           # X^2 + 1
        [0, 0, 0, 5],                                        # 5 X^3
        [7], [0], [],
    ]
    for coeffs in cases:
        assert sorted(rational_roots(coeffs)) == sorted(brute_force_roots(coeffs))


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, max_size=7),
       st.builds(Fraction, st.integers(1, 30).map(lambda v: v * (-1) ** v),
                 st.integers(1, 30)),
       st.sampled_from([(1,), (2, 0, 1), (-3, 0, 1), (1, 1, 1), (-5, 0, 0, 2)]))
def test_rational_roots_recovers_random_rational_roots(roots, scale, extra):
    coeffs = _expand(roots, scale, extra)
    assert sorted(rational_roots(coeffs)) == sorted(roots)


# ---------------------------------------------------------------------------
# rational_roots: large prime factors and many divisors
# ---------------------------------------------------------------------------

def test_rational_roots_with_two_large_primes():
    p, q = 100003, 100019
    # (X - p)(X - q)(3X + p*q)
    f = [Fraction(p * q * p * q), Fraction(-(p + q) * p * q + 3 * p * q),
         Fraction(p * q - 3 * (p + q)), Fraction(3)]
    assert sorted(rational_roots(f)) == sorted(
        [Fraction(p), Fraction(q), Fraction(-p * q, 3)])


def test_rational_roots_cost_does_not_follow_the_divisor_count():
    # the constant coefficient of (X^2 - 2*7^9*3^20) * prod (X - eig) has
    # 64,260 divisors
    phi = realize(parse_wd("Sp(unr(10/7),16)")).phi
    eig = [phi[i][i] for i in range(16)]
    coeffs = _expand(eig, extra=(-2 * 7 ** 9 * 3 ** 20, 0, 1))
    t0 = time.time()
    got = rational_roots(coeffs)
    elapsed = time.time() - t0
    assert sorted(got) == sorted(eig)
    assert elapsed < 0.5, f"too slow: {elapsed:.2f}s"


def test_rational_roots_with_a_product_of_two_48_bit_primes():
    p, q = 281474976710677, 281474977710673
    roots = [Fraction(p, 5), Fraction(3 * q)]
    assert sorted(rational_roots(_expand(roots))) == roots


def test_rational_roots_multiplicities_beside_a_repeated_irrational_factor():
    # (X - 2)^4 (X + 1/3)^2 (X^2 - 2)^2
    coeffs = _expand([2, 2, 2, 2, Fraction(-1, 3), Fraction(-1, 3)],
                     extra=(4, 0, -4, 0, 1))
    assert rational_roots(coeffs) == [2, 2, 2, 2, Fraction(-1, 3), Fraction(-1, 3)]


# the six smallest primes above 2^40
_PRIMES_ABOVE_2_40 = [2 ** 40 + d for d in (15, 27, 55, 97, 115, 141)]
_big_parts = st.lists(st.sampled_from(_PRIMES_ABOVE_2_40), max_size=2).map(math.prod)
_big_roots = st.builds(lambda a, sign, b: Fraction(sign * a, b),
                       _big_parts, st.sampled_from([1, -1]), _big_parts)


@settings(max_examples=40, deadline=None)
@given(st.lists(_big_roots, min_size=1, max_size=4),
       st.sampled_from([(1, 0, 1), (-2, 0, 1), (1, 1, 1), (-5, 0, 3),
                        (-2 * 7 ** 9 * 3 ** 20, 0, 1)]))
def test_rational_roots_with_primes_above_2_40(roots, quadratic):
    coeffs = _expand(roots, extra=quadratic)
    assert sorted(rational_roots(coeffs)) == sorted(roots)


def test_scalar_to_fe_values_and_rejections():
    # 3/5 * q^(3/2) * x^-2 = 9/5 * sqrt(q) / x^2 at q = 3
    got = scalar_to_fe(Scalar.make(Fraction(3, 5), qexp2=3, xexp=-2))
    assert got == FE(RatX.const(0), RatX(QPoly({0: Fraction(9, 5)}), QPoly({2: 1})))
    assert scalar_to_fe(Scalar.from_xpoly({-1: 1, 2: 4})) == FE(
        RatX(QPoly({0: 1, 3: 4}), QPoly({1: 1})))
    assert scalar_to_fe(Scalar.zero()) == FE.const(0)
    for bad in (Scalar.make(1, root=(1, 3)), Scalar.make(1, opaques=(("eps_a", 1),))):
        with pytest.raises(ValueError, match="scalar outside"):
            scalar_to_fe(bad)


# ---------------------------------------------------------------------------
# polynomial division and gcd over a field (poly_divmod_f)
# ---------------------------------------------------------------------------

def _fe_x(c=1, k=1):
    return scalar_to_fe(Scalar.make(c, xexp=k))


def _fe_sqrt_q(c=1):
    return scalar_to_fe(Scalar.make(c, qexp2=1))


def _poly_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [F.zero] * (n - len(a)), b + [F.zero] * (n - len(b))
    return [F.add(x, y) for x, y in zip(a, b)]


def _trimmed(F, a):
    a = list(a)
    while a and F.is_zero(a[-1]):
        a.pop()
    return a


def _same_poly(F, a, b):
    a, b = _trimmed(F, a), _trimmed(F, b)
    return len(a) == len(b) and all(F.eq(x, y) for x, y in zip(a, b))


def _gcd_cases():
    g = [Fraction(2), FieldQ.one]                        # X + 2
    u = [Fraction(-3), Fraction(1, 2), FieldQ.one]       # X^2 + X/2 - 3
    v = [Fraction(5), FieldQ.one]                        # X + 5
    yield FieldQ, g, u, v
    one = FieldFE.one
    g = [_fe_x(), _fe_sqrt_q(2), one]                  # X^2 + 2 sqrt(q) X + x
    u = [FE.const(3), _fe_x(1, -1)]                    # x^-1 X + 3
    v = [_fe_sqrt_q(), one, FE.const(Fraction(1, 2))]  # X^2/2 + X + sqrt(q)
    yield FieldFE, g, u, v


def test_poly_gcd_f_recovers_common_factor():
    for F, g, u, v in _gcd_cases():
        a, b = _poly_mul(F, g, u), _poly_mul(F, g, v)
        got = poly_gcd_f(F, a + [F.zero], b)
        assert F.eq(got[-1], F.one)
        inv = F.inv(g[-1])
        assert _same_poly(F, got, [F.mul(c, inv) for c in g])
        for p in (a, b):
            assert _same_poly(F, _poly_mul(F, poly_quot_f(F, p, got), got), p)
        assert poly_gcd_f(F, [F.zero, F.zero], [F.zero]) == []
        assert _same_poly(F, poly_gcd_f(F, [], b), poly_gcd_f(F, b, []))


def test_poly_divmod_f_division_identity():
    for F, g, u, v in _gcd_cases():
        a = _poly_add(F, _poly_mul(F, g, u), v) + [F.zero, F.zero]
        for b in (g, u, v, g + [F.zero]):
            quo, rem = poly_divmod_f(F, a, b)
            assert len(_trimmed(F, b)) > len(rem)
            assert quo == _trimmed(F, quo) and rem == _trimmed(F, rem)
            assert _same_poly(F, _poly_add(F, _poly_mul(F, quo, b), rem), a)
            assert poly_quot_f(F, a, b) == quo
        assert poly_divmod_f(F, v, _poly_mul(F, g, u)) == ([], _trimmed(F, v))
        for div in (poly_divmod_f, poly_quot_f):
            with pytest.raises(ZeroDivisionError):
                div(F, a, [F.zero])
