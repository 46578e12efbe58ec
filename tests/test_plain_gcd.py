"""T-polynomials with plain coefficients: exact division, divisibility and
the RatFuncT normal form in R[T], R = Q(sqrt q)[x, 1/x]."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from llct import session
from llct.exact import (Coef, DomainError, PolyT, RatFuncT, Scalar, _coef_div,
                        poly_divides)
from llct.linalg import (FE, FieldFE, poly_divmod_f, poly_gcd_plain, poly_prem,
                         scalar_to_fe)

# Size caps: T-degree <= 2 for each factor, <= 3 terms per coefficient,
# x-exponents in [-1, 1], at most one q^(1/2), numerators in [-5, 5] and
# denominators in [1, 3].
TERM = st.tuples(st.integers(-5, 5), st.integers(1, 3), st.integers(0, 1),
                 st.integers(-1, 1))
COEF = st.lists(TERM, max_size=3)
POLY = st.lists(COEF, min_size=1, max_size=3)
QS = st.sampled_from([2, 3, 4, 5, 9])


def coef(spec):
    out = Coef.zero()
    for n, d, qe, xe in spec:
        out = out + Coef.from_scalar(Scalar.make(Fraction(n, d), qexp2=qe, xexp=xe))
    return out


def poly(spec):
    return PolyT(dict(enumerate(coef(c) for c in spec)))


def fe(c: Coef) -> FE:
    """The reference image of a plain Coef in Q(x)(sqrt q)."""
    out = FE.const(0)
    for (r, o, h, x), v in c.terms.items():
        out = out + scalar_to_fe(Scalar(r, o, h, {x: v}))
    return out


def fe_list(p: PolyT):
    return [fe(p.coeffs.get(d, Coef.zero())) for d in range(max(p.coeffs, default=-1) + 1)]


def is_laurent(v: FE) -> bool:
    return all(len(r.den.c) == 1 for r in (v.a, v.b))


@settings(max_examples=60, deadline=None)
@given(QS, POLY, POLY, POLY)
def test_ratfunc_normal_form_cancels_common_factor(q, sa, sb, sg):
    session.set_q(q)
    a, b, g = poly(sa), poly(sb), poly(sg)
    if b.is_zero() or g.is_zero():
        return
    r1, r2 = RatFuncT(a, b), RatFuncT(a * g, b * g)
    assert r2.render() == r1.render()
    assert r1.num == r2.num and r1.den == r2.den


@settings(max_examples=60, deadline=None)
@given(QS, COEF, COEF, st.booleans())
def test_coef_div_against_field_reference(q, sa, sb, multiple):
    session.set_q(q)
    a, b = coef(sa), coef(sb)
    if multiple:
        a = a * b
    got = _coef_div(a, b)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod_f(FieldFE, [fe(a)], [fe(b)])
        assert got is None
        return
    quo, _rem = poly_divmod_f(FieldFE, [fe(a)], [fe(b)])
    want = quo[0] if quo else FE.const(0)
    if is_laurent(want):
        assert got is not None and fe(got) == want
    else:
        assert got is None


@settings(max_examples=60, deadline=None)
@given(QS, POLY, POLY, POLY, st.booleans())
def test_poly_divides_against_field_reference(q, sa, sc, sd, multiple):
    session.set_q(q)
    a, b = poly(sa), poly(sc)
    if multiple:
        b = a * b + a * poly(sd)
    if a.is_zero():
        with pytest.raises(DomainError):
            poly_divides(a, b)
        return
    _quo, rem = poly_divmod_f(FieldFE, fe_list(b), fe_list(a))
    assert poly_divides(a, b) == (not rem)


# A leading coefficient x^e (u + v sqrt q) with one x-term: a unit of R,
# by which poly_divides scales the divisor to make it monic.
UNIT_LEAD = st.tuples(st.integers(-1, 1), st.lists(
    st.tuples(st.integers(-5, 5), st.integers(1, 3), st.integers(0, 1)),
    min_size=1, max_size=2))


@settings(max_examples=60, deadline=None)
@given(QS, POLY, UNIT_LEAD, POLY, POLY, st.booleans())
def test_poly_divides_with_unit_lead_matches_unscaled_prem(q, sa, lead, sc, sd,
                                                          multiple):
    session.set_q(q)
    xe, terms = lead
    a = poly(sa + [[(n, d, qe, xe) for n, d, qe in terms]])
    if a.is_zero():
        return
    b = poly(sc)
    if multiple:
        b = a * b + a * poly(sd)
    assert poly_divides(a, b) == (not poly_prem(b, a))


def test_coef_div_by_zero_is_none():
    assert _coef_div(Coef.one(), Coef.zero()) is None
    assert _coef_div(Coef.zero(), Coef.zero()) is None


def test_gcd_of_swelling_pair_is_a_unit_and_fast():
    # q = 3; Euclid over Q(x)(sqrt q) took seconds on this coprime pair
    x = lambda k=1, c=1: Coef.from_scalar(Scalar.make(c, xexp=k))
    sq = lambda c, k=0: Coef.from_scalar(Scalar.make(c, qexp2=1, xexp=k))
    r = Coef.from_rational
    a = PolyT({0: 1, 1: r(3) + sq(3) - x(), 2: sq(9) - sq(3, 1)})
    b = PolyT({0: 1, 1: r(Fraction(-7, 3)) - x(1, 2),
               2: r(-4) + x(1, Fraction(14, 3)) + x(2),
               3: r(Fraction(28, 3)) - x(2, Fraction(7, 3))})
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        g = poly_gcd_plain(a, b)
        best = min(best, time.perf_counter() - t)
    assert best < 0.05
    assert g.degree() == 0
    assert _coef_div(Coef.one(), g.leading()) is not None  # a unit of R
