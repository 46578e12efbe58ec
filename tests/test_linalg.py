"""Characteristic polynomials, rational roots and polynomial division
against independent checks."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unramified_rep, seeded
from llct import session
from llct.dsl import parse_wd
from llct.exact import Coef, DomainError, PolyT, Scalar, det_char
from llct.linalg import (FE, FieldFE, FieldK, FieldQ, QPoly, RatX, RingZ, charpoly,
                         identity, integer_multiple, kernel, mat_inverse,
                         mat_mul, mat_vec, monomial_roots_fe, poly_divmod_f,
                         poly_gcd_f, poly_quot_f, rank, rational_roots,
                         row_echelon, scalar_to_fe, subspace_dim)
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


def _coef_to_fe(c):
    """A plain Coef as an element of Q(x)(sqrt q), one term at a time."""
    out = FieldFE.zero
    for (r, o, h, x), v in c.terms.items():
        out = out + scalar_to_fe(Scalar(r, o, h, {x: v}))
    return out


def _matrices(root):
    entry = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                      st.integers(-2, 2), st.sampled_from([-1, 0, 1]), root)
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def _det_char_against_leibniz(q, rows):
    """det(1 - M*T) for entries c * zeta(a,N) * q^(h/2) * x^k, against the
    reversed Leibniz sum over Coef; returns M and det(1 - M*T)."""
    session.set_q(q)
    M = [[Scalar.make(c, qexp2=h, xexp=k, root=root) for c, h, k, root in row]
         for row in rows]
    n = len(M)
    dc = det_char(M)
    assert max(dc.coeffs, default=0) <= n
    want = leibniz_charpoly(FieldK, [[Coef.from_scalar(s) for s in row] for row in M])
    for d in range(n + 1):
        assert dc.coeffs.get(d, Coef.zero()) == want[n - d], (q, rows, d)
    return M, dc


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]), _matrices(st.just((0, 1))))
def test_det_char_matches_charpoly_over_fe(q, rows):
    """det(1 - M*T) against the Leibniz sum and against the reversed
    charpoly over Q(x)(sqrt q), entries c * q^(h/2) * x^k."""
    M, dc = _det_char_against_leibniz(q, rows)
    n = len(M)
    cp = charpoly(FieldFE, [[scalar_to_fe(s) for s in row] for row in M])
    for d in range(n + 1):
        assert _coef_to_fe(dc.coeffs.get(d, Coef.zero())) == cp[n - d], (q, rows, d)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]),
       _matrices(st.tuples(st.integers(0, 11), st.sampled_from([2, 3, 4, 6, 12]))))
def test_det_char_with_roots_of_unity_matches_leibniz(q, rows):
    """Entries c * zeta(a,N) * q^(h/2) * x^k, which Q(x)(sqrt q) cannot hold."""
    _det_char_against_leibniz(q, rows)


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
# monomial roots over Q(x)(sqrt q) (monomial_roots_fe)
# ---------------------------------------------------------------------------

_monomials = st.tuples(st.sampled_from([Fraction(2), Fraction(-2), Fraction(1),
                                        Fraction(5, 7), Fraction(-1, 3)]),
                       st.integers(0, 3), st.integers(-2, 2))
# factors with a root outside the monomial class, as x-polynomial
# coefficients: X^2 - x (slope 1/2), X - (1 + x), X^2 - 7 x^2 (c = sqrt 7)
_SPOILERS = {"slope": ({1: -1}, {}, {0: 1}),
             "not a monomial": ({0: -1, 1: -1}, {0: 1}),
             "irrational c": ({2: -7}, {}, {0: 1})}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]), st.lists(_monomials, min_size=1, max_size=5),
       st.sampled_from([None, *_SPOILERS]))
def test_monomial_roots_fe_of_a_product_of_linear_factors(q, monos, spoiler):
    session.set_q(q)
    scalars = [Scalar.make(c, qexp2=h2, xexp=k) for c, h2, k in monos]
    p = [FieldFE.one]
    for s in scalars:
        p = _poly_mul(FieldFE, p, [-scalar_to_fe(s), FieldFE.one])
    if spoiler is not None:
        factor = [scalar_to_fe(Scalar.from_xpoly(c)) for c in _SPOILERS[spoiler]]
        with pytest.raises(DomainError, match="outside the monomial class"):
            monomial_roots_fe(_poly_mul(FieldFE, p, factor))
        return
    # each root once per factor, keyed (c, d, k), in order of (k, d, c)
    keys = [(c, s.qh, k) for s in scalars for k, c in s.xpoly.items()]
    got = monomial_roots_fe(p)
    assert [key for key, _ in got] == sorted(keys, key=lambda t: (t[2], t[1], t[0]))
    for (c, d, k), lam in got:
        assert lam == scalar_to_fe(Scalar.make(c, qexp2=d, xexp=k))


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


# ---------------------------------------------------------------------------
# QPoly division, gcd and the RatX normal form against a reference
# ---------------------------------------------------------------------------

def _ref_divmod(a, b):
    """Schoolbook long division of trimmed coefficient lists over Q."""
    a, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift, f = len(a) - len(b), a[-1] / b[-1]
        quo[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return quo, a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _qpoly(coeffs):
    return QPoly(dict(enumerate(coeffs)))


def _coeff_list(p):
    return [p.c.get(d, Fraction(0)) for d in range(p.degree() + 1)]


_q_coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                     max_size=5).map(lambda c: _trimmed(FieldQ, c))


@settings(max_examples=200, deadline=None)
@given(_q_coeffs, _q_coeffs, _q_coeffs)
def test_qpoly_divmod_gcd_and_ratx_against_reference(a, b, g):
    if g:  # a common factor in most examples
        a, b = (_trimmed(FieldQ, _poly_mul(FieldQ, p, g)) for p in (a, b))
    A, B = _qpoly(a), _qpoly(b)
    gcd = A.gcd(B)
    assert _coeff_list(gcd) == _ref_gcd(a, b)
    assert _coeff_list(B.gcd(A)) == _coeff_list(gcd)
    if not a and not b:
        assert gcd.is_zero()
    else:
        assert gcd.c[gcd.degree()] == 1
        assert A.divmod(gcd)[1].is_zero() and B.divmod(gcd)[1].is_zero()
    if not b:
        with pytest.raises(ZeroDivisionError):
            A.divmod(B)
        with pytest.raises(ZeroDivisionError):
            RatX(A, B)
        return
    quo, rem = A.divmod(B)
    assert (_coeff_list(quo), _coeff_list(rem)) == _ref_divmod(a, b)
    assert rem.degree() < B.degree()
    assert quo * B + rem == A
    x = RatX(A, B)
    assert x.den.c[x.den.degree()] == 1
    assert _ref_gcd(_coeff_list(x.num), _coeff_list(x.den)) == [1]
    assert x.num * B == A * x.den
    if not a:
        assert x.num.is_zero() and x.den == QPoly.const(1)
    if g:
        assert RatX(A * _qpoly(g), B * _qpoly(g)) == x


# ---------------------------------------------------------------------------
# matrix kernels against a dense reference
# ---------------------------------------------------------------------------

def dense_mul(F, A, B):
    p = len(B[0]) if B else 0
    out = []
    for row in A:
        c = []
        for j in range(p):
            acc = F.zero
            for k, a in enumerate(row):
                acc = F.add(acc, F.mul(a, B[k][j]))
            c.append(acc)
        out.append(c)
    return out


def dense_rref(F, M):
    """Reduced row echelon form by textbook Gauss-Jordan on every entry:
    (nonzero rows, pivot columns)."""
    rows = [list(r) for r in M]
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows))
                    if not F.eq(rows[i][c], F.zero)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, e) for e in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def dense_kernel(F, M):
    ech, pivots = dense_rref(F, M)
    ncols = len(M[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(ech[r][fc])
        basis.append(v)
    return basis


def same(F, a, b):
    """Equal nested lists of field elements (0 and Fraction(0) are equal)."""
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same(F, x, y) for x, y in zip(a, b)))
    return F.eq(a, b)


def assert_kernels_match_dense(F, M, other, vec):
    """mat_mul, mat_vec, row_echelon, kernel, rank and mat_inverse
    on M against the dense reference; `other` has len(M[0]) rows and `vec`
    len(M[0]) entries."""
    before = [list(r) for r in M]
    image = [r[0] for r in dense_mul(F, M, [[e] for e in vec])]
    assert same(F, mat_mul(F, M, other), dense_mul(F, M, other))
    assert same(F, mat_vec(F, M, vec), image)
    ech, pivots = row_echelon(F, M)
    want_ech, want_pivots = dense_rref(F, M)
    assert pivots == want_pivots and same(F, ech, want_ech)
    assert same(F, kernel(F, M), dense_kernel(F, M))
    assert rank(F, M) == len(want_pivots)
    if len(M) == len(M[0]):
        if len(want_pivots) == len(M):
            inv = mat_inverse(F, M)
            assert same(F, inv, [r[len(M):] for r in dense_rref(
                F, [list(r) + [F.one if i == j else F.zero for j in range(len(M))]
                    for i, r in enumerate(M)])[0]])
            assert same(F, mat_mul(F, M, inv), identity(F, len(M)))
        else:
            with pytest.raises(ZeroDivisionError):
                mat_inverse(F, M)
    assert M == before  # inputs are not modified


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    """Rational matrices of density 0-40 %, with whole rows and columns
    forced to zero, and zeros drawn as both int 0 and Fraction(0)."""
    n = rows or draw(st.integers(1, 7))
    m = cols or draw(st.integers(1, 7))
    density = draw(st.floats(0, 0.4))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2))
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
    zero = st.sampled_from([0, Fraction(0)])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            live = i not in zero_rows and j not in zero_cols
            row.append(draw(nonzero if live and draw(st.floats(0, 1)) < density
                            else zero))
        out.append(row)
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_matrix_kernels_match_dense_reference_over_q(data):
    M = data.draw(sparse_matrices())
    other = data.draw(sparse_matrices(rows=len(M[0])))
    vec = data.draw(sparse_matrices(rows=1, cols=len(M[0])))[0]
    assert_kernels_match_dense(FieldQ, M, other, vec)


def test_matrix_kernels_on_square_sparse_matrices_over_q():
    # invertible permutation-like and singular square cases, fixed
    q = Fraction
    cases = [
        [[0, q(2), 0], [0, 0, q(-1, 3)], [q(5), 0, 0]],
        [[q(1), 0, 0, 0], [0, 0, 0, 0], [q(3), 0, q(2), 0], [0, q(7), 0, 0]],
        [[0, 0], [0, 0]],
        [[q(4)]],
    ]
    for M in cases:
        n = len(M)
        assert_kernels_match_dense(FieldQ, M, [list(r) for r in M], [q(1)] * n)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 12 x 12 of a drawn rank bound: the first rows
    are drawn with entries up to 10^6 and density 20-100 %, the others are
    small integer combinations of them, and whole rows and columns are
    then zeroed and the rows shuffled."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(0, min(n, m)))
    density = draw(st.floats(0.2, 1))
    big = st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3)
    rows = [[draw(big) if draw(st.floats(0, 1)) < density else 0 for _ in range(m)]
            for _ in range(k)]
    for _ in range(n - k):
        cs = [draw(st.integers(-3, 3)) for _ in rows]
        rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(m)])
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        rows[i] = [0] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=3)):
        for r in rows:
            r[j] = 0
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_integer_elimination_matches_field_q(M):
    """RingZ against FieldQ: the same rank and pivots, each Z row a multiple
    of the reduced row over Q, and each Z kernel vector a primitive integer
    vector that is a positive multiple of the matching Q kernel vector, so
    the two kernels span the same space."""
    before = [list(r) for r in M]
    Mq = [[Fraction(e) for e in r] for r in M]
    ech, pivots = RingZ.echelon(M)
    want, want_pivots = row_echelon(FieldQ, Mq)
    assert pivots == want_pivots
    assert rank(RingZ, M) == subspace_dim(RingZ, M) == rank(FieldQ, Mq) == len(pivots)
    for row, reduced, pc in zip(ech, want, pivots):
        assert [Fraction(e, row[pc]) for e in row] == reduced
    kz, kq = kernel(RingZ, M), kernel(FieldQ, Mq)
    assert len(kz) == len(kq) == len(M[0]) - len(pivots)
    for vz, vq in zip(kz, kq):
        assert all(type(e) is int for e in vz) and math.gcd(*vz) == 1
        scale = next(e for e in vz if e) / next(e for e in vq if e)
        assert scale > 0 and [scale * e for e in vq] == vz
        assert not any(mat_vec(RingZ, M, vz))
    assert M == before  # inputs are not modified


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_charpoly_of_the_integer_multiple_is_monic_and_scaled(n, data):
    """charpoly(d*M) over Z has coefficients d^(n-i) c_i, with c_i those of
    charpoly(M) over Q: the oracle's eigenvalues of d*Phi are d times
    those of Phi."""
    entry = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    M = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    d, Mz = integer_multiple(M)
    assert d == math.lcm(*(e.denominator for r in M for e in r))
    assert all(type(e) is int for r in Mz for e in r)
    cz, cq = charpoly(RingZ, Mz), charpoly(FieldQ, M)
    assert cz[-1] == 1 and all(type(c) is int for c in cz)
    assert cz == [d ** (n - i) * c for i, c in enumerate(cq)]


def test_mat_inverse_over_q_and_fe(monkeypatch):
    """M * M^-1 = I over Q and over Q(x)(sqrt q), a singular M raises, and
    the identity block of the augmented matrix is built once."""
    x = scalar_to_fe(Scalar.make(1, xexp=1))
    sq = scalar_to_fe(Scalar.make(1, qexp2=1))
    one, zero = FieldFE.one, FieldFE.zero
    cases = [
        (FieldQ, [[Fraction(0), Fraction(2), Fraction(1)],
                  [Fraction(1, 3), Fraction(0), Fraction(0)],
                  [Fraction(5), Fraction(-1), Fraction(7)]]),
        (FieldFE, [[x, sq, zero], [one, x, sq], [zero, one, FieldFE.add(x, sq)]]),
    ]
    built = []
    monkeypatch.setattr("llct.linalg.identity",
                        lambda F, n: built.append(n) or identity(F, n))
    for F, M in cases:
        before = [list(r) for r in M]
        inv = mat_inverse(F, M)
        assert same(F, mat_mul(F, M, inv), identity(F, len(M)))
        assert same(F, mat_mul(F, inv, M), identity(F, len(M)))
        assert M == before
    assert built == [3, 3]
    singular = [
        (FieldQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]),
        (FieldFE, [[x, sq], [FieldFE.mul(x, x), FieldFE.mul(x, sq)]]),
    ]
    for F, M in singular:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(F, M)


@pytest.mark.parametrize("expr", ["Sp(unr(x),2)+Sp(unr(5/7*q^(1/2)),1)",
                                  "Sp(unr(x^-1*q^(1/2)),3)",
                                  "Sp(unr(x),1)+Sp(unr(q^(1/2)),1)+Sp(unr(2),1)"])
def test_matrix_kernels_match_dense_reference_over_fe(expr):
    rng = seeded(229)
    m = _conjugated(realize(parse_wd(expr)), rng)
    assert m.field == "FE"
    phi, nn = [list(r) for r in m.phi], [list(r) for r in m.n]
    vec = [FE.const(1)] + [FieldFE.zero] * (m.size - 1)
    lam = phi[0][0]
    shifted = [[FieldFE.sub(e, lam) if i == j else e for j, e in enumerate(r)]
               for i, r in enumerate(phi)]
    for M, other in ((phi, nn), (shifted, phi), (nn[1:], phi)):
        assert_kernels_match_dense(FieldFE, M, other, vec)
