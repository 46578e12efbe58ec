"""Exact-arithmetic layer: scalars, polynomials, rational functions, series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from llct import session
from llct.exact import (Coef, DomainError, NEG_INF, PolyT, RatFuncT, Scalar,
                        TruncSeriesT, det_char, poly_divides)


def rat(v):
    return Scalar.from_rational(Fraction(v))


# ---------------------------------------------------------------------------
# Scalar normal forms
# ---------------------------------------------------------------------------

def test_q_integer_powers_fold_into_rationals():
    assert Scalar.make(1, qexp2=-2) == rat(Fraction(1, 3))
    assert Scalar.make(2, qexp2=4) == rat(18)
    # odd exponents keep a single formal sqrt(q)
    s = Scalar.make(1, qexp2=3)
    assert s.qh == 1 and s.xpoly == {0: Fraction(3)}


def test_root_of_unity_canonical_section():
    # zeta_3^2 = -zeta_6, zeta_2 = -1, zeta_4^3 = -zeta_4
    assert Scalar.root_of_unity(2, 3) == -Scalar.root_of_unity(1, 6)
    assert Scalar.root_of_unity(1, 2) == rat(-1)
    assert Scalar.root_of_unity(3, 4) == -Scalar.root_of_unity(1, 4)
    z = Scalar.root_of_unity(1, 5)
    assert (z ** 5).is_one()
    assert (z * z.inverse()).is_one()


def test_scalar_inverse_and_halfpowers():
    s = Scalar.make(Fraction(2, 3), qexp2=-1, xexp=2)
    assert (s * s.inverse()).is_one()
    assert (Scalar.qpow(1) * Scalar.qpow(1)) == rat(3)


def test_opaque_units_form_a_group_but_do_not_evaluate():
    u = Scalar.opaque("eps_a")
    assert (u * u.inverse()).is_one()
    with pytest.raises(DomainError):
        (u * rat(2)).rational_value()


def test_scalar_addition_not_closed_but_coef_is():
    a = Coef.from_scalar(Scalar.qpow(1))
    b = Coef.from_scalar(rat(1))
    s = a + b
    assert not s.is_zero() and s.as_scalar() is None
    assert (s - a) == b


def test_specialize_x():
    s = Scalar.from_xpoly({1: Fraction(2), 0: Fraction(1)})
    assert s.specialize_x(Fraction(3)) == rat(7)
    with pytest.raises(DomainError):
        Scalar.x_power(-1).specialize_x(0)


def test_q_weight():
    assert rat(3).q_weight() == 2
    assert Scalar.make(1, qexp2=-1).q_weight() == -1
    assert rat(-9).q_weight() == 4
    assert rat(2).q_weight() is None
    assert Scalar.x_power(1).q_weight() is None


@pytest.mark.parametrize("q", [4, 9, 25])
def test_square_q_folds_its_root_and_weighs_by_it(q):
    session.set_q(q)
    r = math.isqrt(q)
    assert Scalar.make(1, qexp2=1) == rat(r)
    assert (Scalar.make(Fraction(1, 2), qexp2=-3, xexp=1)
            == Scalar.x_power(1, Fraction(1, 2 * r ** 3)))
    assert rat(r ** 3).q_weight() == 3
    assert rat(Fraction(-1, r)).q_weight() == -1
    assert rat(7 * r).q_weight() is None


# ---------------------------------------------------------------------------
# poly_divides: spec examples
# ---------------------------------------------------------------------------

def test_poly_divides_examples():
    one_minus_t = PolyT.from_roots([rat(1)])
    one_minus_t2 = PolyT.from_roots([rat(1), rat(-1)])
    assert poly_divides(one_minus_t, one_minus_t2)

    one_minus_qt = PolyT.from_roots([rat(3)])
    assert not poly_divides(one_minus_qt, one_minus_t)

    a = PolyT.from_roots([Scalar.make(1, qexp2=-2)])
    b = PolyT.from_roots([Scalar.make(1, qexp2=-2), rat(Fraction(2, 3))])
    assert poly_divides(a, b)


def _coef(*scalars):
    out = Coef.zero()
    for s in scalars:
        out = out + Coef.from_scalar(s)
    return out


def test_poly_divides_with_non_monomial_leading_coefficient():
    one_plus_x = _coef(rat(1), Scalar.make(1, xexp=1))
    sqrt_q = Scalar.make(1, qexp2=1)
    factor = PolyT({0: 1, 1: sqrt_q})                       # 1 + q^(1/2) T
    a = PolyT({1: one_plus_x}) * factor                     # (1 + x) T (1 + q^(1/2) T)
    # the cofactor needs 1/(1 + x): divisible over Q(x)(sqrt q), not in the ring
    assert poly_divides(a, PolyT({1: 1}) * factor * PolyT({0: 2, 1: -1}))
    assert not poly_divides(a, PolyT({2: 1}) * PolyT({0: 1, 1: 1}))
    assert not poly_divides(a, PolyT({1: 1}) * factor + PolyT.one())


def test_poly_divides_zero_divisor_error():
    with pytest.raises(DomainError):
        poly_divides(PolyT.zero(), PolyT.one())


def test_zero_poly_degree_sentinel():
    assert PolyT.zero().degree() is NEG_INF
    assert NEG_INF < -10 ** 9
    assert not (NEG_INF > 0)


# ---------------------------------------------------------------------------
# det_char: spec examples
# ---------------------------------------------------------------------------

def test_det_char_examples():
    alpha = rat(5)
    assert det_char([[alpha]]) == PolyT.from_roots([alpha])
    beta = rat(7)
    d = det_char([[alpha, Scalar.zero()], [Scalar.zero(), beta]])
    assert d == PolyT.from_roots([alpha, beta])
    nilp = det_char([[Scalar.zero(), rat(1)], [Scalar.zero(), Scalar.zero()]])
    assert nilp == PolyT.one()


def test_det_char_rejects_opaque():
    with pytest.raises(DomainError):
        det_char([[Scalar.opaque("u")]])


def test_det_char_off_diagonal():
    # [[0, 1], [6, 1]] has char poly X^2 - X - 6 -> det(1 - MT) = 1 - T - 6T^2
    m = [[Scalar.zero(), rat(1)], [rat(6), rat(1)]]
    got = det_char(m)
    want = PolyT({0: 1, 1: -1, 2: -6})
    assert got == want


# ---------------------------------------------------------------------------
# Ring axioms (randomized, exact equality of normal forms)
# ---------------------------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def coefs(draw):
    n = draw(st.integers(0, 3))
    out = Coef.zero()
    for _ in range(n):
        c = draw(small_fracs)
        qe = draw(st.integers(-2, 2))
        xe = draw(st.integers(-2, 2))
        root = draw(st.sampled_from([(0, 1), (0, 1), (1, 3), (1, 4)]))
        out = out + Coef.from_scalar(Scalar.make(c, qexp2=qe, xexp=xe, root=root))
    return out


@st.composite
def polys(draw):
    degs = draw(st.lists(st.integers(0, 4), max_size=3))
    p = PolyT.zero()
    for d in degs:
        p = p + PolyT({d: draw(coefs())})
    return p


@settings(max_examples=60, deadline=None)
@given(coefs(), coefs(), coefs())
def test_coef_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(coefs(), coefs(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_specialize_is_ring_homomorphism(a, b, v):
    if v == 0:
        v = Fraction(1)
    assert (a * b).specialize_x(v) == a.specialize_x(v) * b.specialize_x(v)
    assert (a + b).specialize_x(v) == a.specialize_x(v) + b.specialize_x(v)


# ---------------------------------------------------------------------------
# RatFuncT normal form
# ---------------------------------------------------------------------------

def test_ratfunc_normal_form_unique():
    num = PolyT({0: 1, 1: -2})
    den = PolyT({0: 1, 1: 1})
    scale = PolyT({0: 3, 1: 5, 2: 1})
    r1 = RatFuncT(num, den)
    r2 = RatFuncT(num * scale, den * scale)
    assert r1.num == r2.num and r1.den == r2.den
    assert r1 == r2


def test_ratfunc_normal_form_cancels_sqrt_q_factor():
    x = Scalar.make(1, xexp=1)
    num = PolyT({0: 1, 1: rat(-2)})
    den = PolyT({0: 1, 1: x})
    g = PolyT({0: _coef(rat(1), x), 1: Scalar.make(1, qexp2=1)})  # 1 + x + q^(1/2) T
    r1 = RatFuncT(num, den)
    r2 = RatFuncT(num * g, den * g)
    assert r2.render() == r1.render()
    assert r1.num == r2.num and r1.den == r2.den


def test_ratfunc_root_list_cancellation():
    r = RatFuncT.from_root_lists([rat(2), rat(5)], [rat(5), rat(7)])
    assert r.num == PolyT.from_roots([rat(2)])
    assert r.den == PolyT.from_roots([rat(7)])


def test_ratfunc_zero_denominator():
    with pytest.raises(DomainError):
        RatFuncT(PolyT.one(), PolyT.zero())


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------

def test_series_multiplication_matches_poly():
    p = PolyT({0: 1, 1: 2, 3: -1})
    q = PolyT({0: 1, 2: 5})
    sp_ = TruncSeriesT.from_poly(p, 10)
    sq = TruncSeriesT.from_poly(q, 10)
    prod_series = sp_ * sq
    prod_poly = p * q
    for d in range(prod_series.low, prod_series.bound + 1):
        want = prod_poly.coeffs.get(d, Coef.zero())
        assert prod_series.coeff(d) == want


def test_series_window_tracking():
    s = TruncSeriesT(0, 5, {i: 1 for i in range(6)})
    t = TruncSeriesT(0, 3, {i: 1 for i in range(4)})
    u = s * t
    assert u.bound == 3
    with pytest.raises(DomainError):
        u.coeff(4)


def test_geometric_series_times_inverse_is_one():
    alpha = Fraction(2)
    s = TruncSeriesT(0, 30, {i: alpha ** i for i in range(31)})
    prod = s.mul_poly(PolyT.from_roots([rat(alpha)]))
    assert prod.coeff(0).is_one()
    assert all(prod.coeff(i).is_zero() for i in range(1, prod.bound + 1))


# ---------------------------------------------------------------------------
# Coef products against term-by-term Scalar products
# ---------------------------------------------------------------------------

@st.composite
def unit_scalars(draw):
    """Monomial scalars mixing roots of unity, opaque symbols and q^(1/2)."""
    c = draw(small_fracs.filter(lambda v: v != 0))
    root = draw(st.sampled_from([(0, 1), (0, 1), (1, 3), (1, 4), (2, 5), (1, 6)]))
    syms = draw(st.dictionaries(st.sampled_from(["eps_a", "eps_b"]),
                                st.integers(-2, 2).filter(bool), max_size=2))
    return Scalar.make(c, qexp2=draw(st.integers(-3, 3)),
                       xexp=draw(st.integers(-1, 1)), root=root,
                       opaques=tuple(syms.items()))


@settings(max_examples=80, deadline=None)
@given(st.lists(unit_scalars(), max_size=4), st.lists(unit_scalars(), max_size=4))
def test_coef_product_is_sum_of_scalar_products(xs, ys):
    a = Coef.zero()
    for s in xs:
        a = a + Coef.from_scalar(s)
    b = Coef.zero()
    for t in ys:
        b = b + Coef.from_scalar(t)
    want = Coef.zero()
    for s in xs:
        for t in ys:
            want = want + Coef.from_scalar(s * t)
    assert a * b == want
    assert b * a == want


@settings(max_examples=40, deadline=None)
@given(coefs(), small_fracs, st.integers(-4, 4))
def test_mul_scalar_by_rational_matches_coef_product(a, c, qe):
    s = Scalar.make(c, qexp2=2 * qe)
    assert s.is_rational()
    assert a.mul_scalar(s) == a * Coef.from_scalar(s)


def test_negative_unit_renders_without_one():
    assert Scalar.make(-1, qexp2=1).render() == "-q^(1/2)"
    assert Scalar.root_of_unity(2, 3).render() == "-zeta(1,6)"
    assert Scalar.make(-1, root=(1, 3)).render() == "-zeta(1,3)"
    assert Scalar.opaque("eps_a", -1).render() == "eps_a^-1"
    assert Scalar.make(-2, qexp2=1).render() == "-2*q^(1/2)"
    assert rat(-1).render() == "-1"


# ---------------------------------------------------------------------------
# Pinned T-side output: renders, cancelling sums, evaluation, substitution
# ---------------------------------------------------------------------------

def _x(k=1, c=1, **kw):
    return Scalar.make(c, xexp=k, **kw)


def _sq(qexp2=1, c=1):
    return Scalar.make(c, qexp2=qexp2)


def _render_or_error(make):
    try:
        return make().render()
    except DomainError:
        return "DomainError"


T_SIDE = [
    ("scalar zero", lambda: Scalar.zero(), "0"),
    ("scalar constant", lambda: rat(Fraction(-2, 3)), "-2/3"),
    ("scalar -1", lambda: rat(-1), "-1"),
    ("scalar x-poly q^(1/2) root",
     lambda: Scalar((1, 3), (), 1, {0: Fraction(1), 1: Fraction(-2), 2: Fraction(1, 2)}),
     "(1-2*x+1/2*x^2)*zeta(1,3)*q^(1/2)"),
    ("scalar -x^2 root", lambda: _x(2, -1, root=(1, 5)), "-x^2*zeta(1,5)"),
    ("coef zero", lambda: Coef.zero(), "0"),
    ("coef constant", lambda: Coef.from_rational(7), "7"),
    ("coef multi", lambda: _coef(_sq(), _x(), _x(2, Fraction(-3, 2))),
     "q^(1/2)+x-3/2*x^2"),
    ("coef negative first", lambda: _coef(_sq(1, -1), _x()), "-q^(1/2)+x"),
    ("coef root and q^(1/2)", lambda: _coef(_x(1, 2, root=(1, 3)), _sq(3)),
     "3*q^(1/2)+2*x*zeta(1,3)"),
    ("poly zero", lambda: PolyT.zero(), "0"),
    ("poly constant", lambda: PolyT({0: -5}), "-5"),
    ("poly 1 at T", lambda: PolyT({0: 2, 1: 1}), "2 + T"),
    ("poly 1 at T^d", lambda: PolyT({3: 1}), "T^3"),
    ("poly -1 at T", lambda: PolyT({0: 1, 1: -1}), "1 - T"),
    ("poly -1 at T^d", lambda: PolyT({0: 1, 4: -1}), "1 - T^4"),
    ("poly -1 first", lambda: PolyT({1: -1, 2: 1}), "-T + T^2"),
    ("poly multi-term coef", lambda: PolyT({0: 1, 1: _coef(_sq(), _x())}),
     "1 + (q^(1/2)+x)*T"),
    ("poly negative multi-term coef",
     lambda: PolyT({0: 1, 2: _coef(_sq(1, -1), _x(1, -1))}), "1 + (-q^(1/2)-x)*T^2"),
    ("poly negative first term", lambda: PolyT({0: Fraction(-1, 2), 2: 3}), "-1/2 + 3*T^2"),
    ("poly q^(1/2) and root",
     lambda: PolyT({1: _x(1, -1, qexp2=1, root=(1, 4)),
                    2: _coef(_sq(), _x(0, root=(1, 3)))}),
     "-x*zeta(1,4)*q^(1/2)*T + (zeta(1,3)+q^(1/2))*T^2"),
    ("ratfunc", lambda: RatFuncT(PolyT({0: 1, 1: -2}), PolyT({0: 1, 1: _sq()})),
     "(1/3*q^(1/2) - 2/3*q^(1/2)*T) / (1/3*q^(1/2) + T)"),
    ("series zero", lambda: TruncSeriesT(0, 3), "O(T^4)"),
    ("series constant", lambda: TruncSeriesT(0, 3, {0: 1}), "1 + O(T^4)"),
    ("series 1 at T and T^d", lambda: TruncSeriesT(0, 3, {0: 1, 1: 1, 3: 1}),
     "1 + T + T^3 + O(T^4)"),
    ("series -1 at T and T^d", lambda: TruncSeriesT(0, 4, {1: -1, 2: -1}),
     "-T - T^2 + O(T^5)"),
    ("series Laurent", lambda: TruncSeriesT(-2, 1, {-2: 3, -1: _coef(_sq(), _x(-2))}),
     "3*T^-2 + (x^-2+q^(1/2))*T^-1 + O(T^2)"),
    ("series multi-term", lambda: TruncSeriesT(0, 2, {0: 1, 2: _coef(_sq(1, -1), _x())}),
     "1 + (-q^(1/2)+x)*T^2 + O(T^3)"),
    ("coef sum cancels", lambda: _coef(_sq(), _x()) + _coef(_sq(1, -1), _x(1, -1)), "0"),
    ("coef sum cancels in part", lambda: _coef(_sq(), _x()) + _coef(_sq(1, -1), _x(2)),
     "x+x^2"),
    ("poly sum cancels",
     lambda: PolyT({0: 1, 1: _sq()}) + PolyT({0: -1, 1: _sq(1, -1)}), "0"),
    ("poly sum cancels in part",
     lambda: PolyT({0: 1, 1: _sq()}) - PolyT({1: _sq(), 2: _x()}), "1 - x*T^2"),
    ("eval at T = 0", lambda: PolyT({0: _sq(), 2: 5}).eval_coef(Coef.zero()), "q^(1/2)"),
    ("eval zero poly", lambda: PolyT.zero().eval_coef(Coef.one()), "0"),
    ("eval at T = 1", lambda: PolyT({0: 1, 1: _sq(), 3: _x()}).eval_coef(Coef.one()),
     "1+q^(1/2)+x"),
    ("eval at a coef",
     lambda: PolyT({1: 1, 2: _x(-1), 4: 2}).eval_coef(_coef(_sq(), _x())),
     "3*x^-1+18+3*q^(1/2)+2*x+24*x*q^(1/2)+36*x^2+8*x^3*q^(1/2)+2*x^4"),
    ("subst T by q^(1/2)",
     lambda: PolyT({0: 1, 1: _x(), 2: 1, 5: _sq()}).subst_T_scale(_sq()),
     "1 + x*q^(1/2)*T + 3*T^2 + 27*T^5"),
    ("subst T by q^(-1/2)", lambda: PolyT({0: 1, 1: _x(), 3: _sq()}).subst_T_scale(_sq(-1)),
     "1 + 1/3*x*q^(1/2)*T + 1/3*T^3"),
    ("specialize x at 0", lambda: _coef(_sq(), _x(), _x(2)).specialize_x(0), "q^(1/2)"),
    ("specialize x at 0, pole", lambda: _coef(_sq(), _x(-1)).specialize_x(0), "DomainError"),
    ("specialize x without pole",
     lambda: _coef(_sq(), _x(-1, 2), _x(2), _x(0, root=(1, 3))).specialize_x(Fraction(-1, 2)),
     "-15/4+zeta(1,3)+q^(1/2)"),
    ("specialize x cancels", lambda: _coef(_x(), _x(2)).specialize_x(-1), "0"),
]


@pytest.mark.parametrize("make, want", [case[1:] for case in T_SIDE],
                         ids=[case[0] for case in T_SIDE])
def test_t_side_output_pinned(make, want):
    assert _render_or_error(make) == want
