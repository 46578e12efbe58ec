"""The integer multiply-accumulate kernel behind Coef products, series
products and homogeneous tables, against naive per-term Fraction loops.

Size caps on the strategies: at most 4 terms per Coef, numerators within
+-40 and denominators up to 12, x-exponents in [-2, 2], at most 3 series
or polynomial coefficients, at most 3 table parameters and tables of
degree up to 6.  q is drawn from {3, 4, 8, 9}, so square q folds q^(1/2)
into the rationals.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from llct import session
from llct.exact import (Coef, PolyT, Scalar, TruncSeriesT, _acc_coef,
                        _mul_acc)
from llct.zeta import homogeneous_table

ONE_KEY = ((0, 1), (), 0, 0)
HALF = Fraction(1, 2)

qs = st.sampled_from([3, 4, 8, 9])
fracs = st.fractions(min_value=-40, max_value=40, max_denominator=12)

# raw monomials (coeff, doubled q-exponent, x-exponent, root, opaques);
# Scalar.make brings them to normal form once q is fixed
monomials = st.tuples(
    fracs.filter(bool),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.sampled_from([(0, 1), (0, 1), (1, 3), (1, 4), (2, 5), (1, 6), (3, 8)]),
    st.dictionaries(st.sampled_from(["eps_a", "eps_b"]),
                    st.integers(-2, 2).filter(bool), max_size=2).map(
                        lambda d: tuple(d.items())))
raw_coefs = st.lists(monomials, max_size=4)


def make_coef(raw) -> Coef:
    out = Coef.zero()
    for c, qe, xe, root, opa in raw:
        out = out + Coef.from_scalar(
            Scalar.make(c, qexp2=qe, xexp=xe, root=root, opaques=opa))
    return out


def ref_add(acc: dict, terms: dict, sign=1):
    for k, c in terms.items():
        v = acc.get(k, Fraction(0)) + sign * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def ref_mul(t1: dict, t2: dict, q: int) -> dict:
    """Term by term: the angles of the roots add mod 1, and an angle past
    1/2 flips the sign; two q^(1/2) make a q; opaque exponents add."""
    out = {}
    for (r1, o1, h1, x1), c1 in t1.items():
        for (r2, o2, h2, x2), c2 in t2.items():
            c = c1 * c2
            t = (Fraction(*r1) + Fraction(*r2)) % 1
            if t >= HALF:
                t, c = t - HALF, -c
            h = h1 + h2
            if h == 2:
                h, c = 0, c * q
            o = Counter(dict(o1))
            o.update(dict(o2))
            o = tuple(sorted((s, e) for s, e in o.items() if e))
            ref_add(out, {((t.numerator, t.denominator), o, h, x1 + x2): c})
    return out


@settings(max_examples=150, deadline=None)
@given(qs, raw_coefs, raw_coefs)
def test_coef_product_matches_term_by_term_fractions(q, ra, rb):
    session.set_q(q)
    a, b = make_coef(ra), make_coef(rb)
    want = ref_mul(a.terms, b.terms, q)
    assert (a * b).terms == want
    assert (b * a).terms == want


@settings(max_examples=100, deadline=None)
@given(qs, st.lists(st.tuples(raw_coefs, raw_coefs, st.sampled_from([1, -1])),
                    max_size=4),
       st.booleans())
def test_signed_sum_of_products_matches_fractions(q, raw_pairs, cancel):
    session.set_q(q)
    pairs = [(make_coef(ra), make_coef(rb), s) for ra, rb, s in raw_pairs]
    if cancel:  # every product also enters with the other sign
        pairs += [(a, b, -s) for a, b, s in pairs]
    acc, want = {}, {}
    for a, b, s in pairs:
        _mul_acc(acc, a.terms, b.terms, s)
        ref_add(want, ref_mul(a.terms, b.terms, q), s)
    got = _acc_coef(acc)
    assert got.terms == want
    assert all(type(c) is Fraction for c in got.terms.values())
    if cancel:
        assert got == Coef.zero()


@settings(max_examples=100, deadline=None)
@given(qs, raw_coefs, raw_coefs)
def test_coef_sum_matches_fractions(q, ra, rb):
    session.set_q(q)
    a, b = make_coef(ra), make_coef(rb)
    want = dict(a.terms)
    ref_add(want, b.terms)
    assert (a + b).terms == want
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(qs, st.integers(-2, 2), st.integers(0, 5),
       st.lists(raw_coefs, min_size=1, max_size=3),
       st.dictionaries(st.integers(0, 3), raw_coefs, max_size=3))
def test_series_times_poly_matches_reference_loop(q, low, width, rs, rp):
    session.set_q(q)
    s = TruncSeriesT(low, low + width,
                     {low + i: make_coef(r) for i, r in enumerate(rs)})
    p = PolyT({d: make_coef(r) for d, r in rp.items()})
    got = s.mul_poly(p)
    if p.is_zero():
        assert (got.low, got.bound, got.coeffs) == (s.low, s.bound, {})
        return
    v = min(p.coeffs)
    assert (got.low, got.bound) == (s.low + v, s.bound + v)
    for d in range(got.low, got.bound + 1):
        want = {}
        for d1, c1 in s.coeffs.items():
            c2 = p.coeffs.get(d - d1)
            if c2 is not None:
                ref_add(want, ref_mul(c1.terms, c2.terms, q))
        assert got.coeff(d).terms == want


@settings(max_examples=60, deadline=None)
@given(qs, st.lists(monomials, max_size=3), st.integers(0, 6))
def test_homogeneous_table_matches_reference_loop(q, raw_params, maxdeg):
    session.set_q(q)
    params = [Scalar.make(c, qexp2=qe, xexp=xe, root=root, opaques=opa)
              for c, qe, xe, root, opa in raw_params]
    # h_j(p_1..p_i) = sum_k p_i^k h_{j-k}(p_1..p_{i-1})
    h = [{ONE_KEY: Fraction(1)}] + [{}] * maxdeg
    for p in params:
        pt = Coef.from_scalar(p).terms
        powers = [{ONE_KEY: Fraction(1)}]
        for _ in range(maxdeg):
            powers.append(ref_mul(powers[-1], pt, q))
        new = []
        for j in range(maxdeg + 1):
            acc = {}
            for k in range(j + 1):
                ref_add(acc, ref_mul(h[j - k], powers[k], q))
            new.append(acc)
        h = new
    assert [c.terms for c in homogeneous_table(params, maxdeg)] == h
