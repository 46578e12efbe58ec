"""Truncated unramified Rankin-Selberg zeta integrals.

The non-compact integrals reduce, by the Iwasawa decomposition and the
standard measure choices, to sums over dominant cocharacter lattices of
unramified Whittaker values; those are Schur polynomials in the Satake
parameters times an explicit q-power (the half-density factor).

Normalization: Satake parameters are the Frobenius eigenvalues of the
N = 0 representation in the rational normalization; the honest Whittaker
function of the corresponding representation therefore carries the extra
twist q^{-(n-1)/2} on each parameter.  The measure constant per n is
calibrated once against the elementary n = 1 computation (where the
maximal compact has volume one) and frozen: with these choices the
certified product L^{-1} * I is identically 1 for unramified-normalized
data, which the tests then verify at many parameters.

Sum shifts are indexed by m in (1 - n1*n2)/2 + Z as in the defining
integrals; the matching inverse L-factor is the tensor one with
T -> q^{-(m + (n1+n2)/2 - 1)} T, the chi_T-twist at which the rational
tensor factor sits for the honest integral.

Three classical identities (Macdonald, Symmetric Functions and Hall
Polynomials, I.2-I.3) keep the exact arithmetic small:

- h_k, the complete homogeneous polynomials, are the coefficients of
  prod_i 1/(1 - p_i T), built one geometric factor at a time.
- s_lam is homogeneous of degree |lam|, and the q-power of the coefficient
  of T^j is q^{-jm} in both integrals, so q^{-m} is folded into the
  parameters (all of them for GLn x GL1, those of the first datum for
  GLn x GLn) before any table is built; no degree is rescaled afterwards.
- s_{lam + (1^n)} = e_n * s_lam, so the GLn x GLn sum runs only over the
  dominant lam with lam_n = 0, and the central shifts are added degree by
  degree with the factor e_n(t1) e_n(t2), the product of all 2n
  parameters.

Schur values come from the Jacobi-Trudi determinant det(h_{lam_i - i + j})
over the table of h_k, expanded along the first row.  A minor of the lower
rows depends only on the suffix of lam on those rows and on its column
set, so the GLn x GLn sum keeps one table of minors per homogeneous table
and shares it across every lam of the call.  The tables are dropped when
the call returns.  No cache outlives a call because Scalar normal forms
fold integer powers of q into the rationals, and q is a session global
that can change between calls.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (Scalar, Coef, PolyT, TruncSeriesT, DomainError, Record,
                    _coef_div, _acc_coef, _acc_of, _mul_acc)
from .factors import l_inverse, gamma
from .wd import WDRep, sp, tensor


class SatakeData(Record):
    """Frobenius eigenvalues of the unramified (N = 0) representation."""

    __slots__ = ("params",)

    def __init__(self, params: tuple[Scalar, ...]):
        ps = tuple(p if isinstance(p, Scalar) else Scalar.from_rational(p)
                   for p in params)
        for p in ps:
            if p.is_zero() or p.has_opaque():
                raise ValueError("Satake parameters must be invertible and "
                                 "opaque-free")
        self.params = ps

    @property
    def n(self) -> int:
        return len(self.params)

    def rep(self) -> WDRep:
        return WDRep([sp(p, 1) for p in self.params])

    def dual(self) -> "SatakeData":
        """Parameters of the contragredient pi(r^*(1-n))."""
        n = self.n
        return SatakeData(tuple(p.inverse() * Scalar.qpow(2 * (n - 1))
                                for p in self.params))

    def unitary_twisted(self) -> "SatakeData":
        """Parameters alpha * q^{-(n-1)/2} of the honest Whittaker model."""
        tw = Scalar.qpow(-(self.n - 1))
        return SatakeData(tuple(p * tw for p in self.params))


def _delta_half_qexp2(lam, n) -> int:
    """Doubled exponent of the half-density delta_B^{1/2} at the
    cocharacter lam: q^{-(1/2) sum_i lam_i (n + 1 - 2i)}."""
    return -sum(l * (n + 1 - 2 * (i + 1)) for i, l in enumerate(lam))


def homogeneous_table(params, maxdeg: int) -> list[Coef]:
    """h_0..h_maxdeg of the complete homogeneous symmetric polynomials,
    the coefficients of prod_i 1/(1 - p_i T), multiplied in one geometric
    factor at a time."""
    h = [Coef.one()] + [Coef.zero()] * maxdeg
    for p in params:
        _add_geometric(h, 1, Coef.from_scalar(p))
    return h


def _add_geometric(h: list[Coef], step: int, p: Coef):
    """h[j] += p * h[j - step] for j = step, ..., in place: the table
    becomes the coefficients of its series times 1/(1 - p T^step)."""
    pt = p.terms
    for j in range(step, len(h)):
        acc = _acc_of(h[j])
        _mul_acc(acc, h[j - step].terms, pt)
        h[j] = _acc_coef(acc)


def schur_from_table(h: list[Coef], lam, n: int, minors=None) -> Coef:
    """Jacobi-Trudi determinant det(h_{lam_i - i + j})_{1<=i,j<=n}.

    Laplace expansion along the first row, recursing on the minors of the
    lower rows.  A proper minor is fixed by the suffix of lam on its rows
    and its column set, so several lam can share it: pass the same dict as
    `minors` to every call on one table h and one n to reuse them.
    """
    lam = (tuple(lam) + (0,) * n)[:n]
    if n == 0:
        return Coef.one()
    return _jt_minor(h, lam, 0, (1 << n) - 1, {} if minors is None else minors)


def _jt_minor(h, lam, k, cols, minors) -> Coef:
    """Determinant of rows k..n-1 of the Jacobi-Trudi matrix of lam on the
    columns in the bitmask cols.  Minors of two or more rows below the top
    row are memoised in `minors` under (lam[k:], cols); the full n x n
    determinant is used once and not stored."""
    n = len(lam)
    base = lam[k] - k
    if k == n - 1:
        return _h_entry(h, base + cols.bit_length() - 1)
    if k:
        key = (lam[k:], cols)
        got = minors.get(key)
        if got is not None:
            return got
    acc = {}
    sign = 1
    for c in range(n):
        bit = 1 << c
        if not cols & bit:
            continue
        entry = _h_entry(h, base + c)
        if not entry.is_zero():
            sub = _jt_minor(h, lam, k + 1, cols ^ bit, minors)
            _mul_acc(acc, entry.terms, sub.terms, sign)
        sign = -sign
    out = _acc_coef(acc)
    if k:
        minors[key] = out
    return out


def _h_entry(h, k) -> Coef:
    if k < 0:
        return Coef.zero()
    if k >= len(h):
        raise IndexError("homogeneous table too short")
    return h[k]


def whittaker_value(d: SatakeData, lam) -> Coef:
    """Value of the normalized unramified Whittaker function at the torus
    cocharacter lam: delta_B^{1/2} times the Schur polynomial s_lam of the
    given parameters; zero off the dominant cone."""
    lam = tuple(lam)
    if len(lam) != d.n:
        raise ValueError("cocharacter length must equal n")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return Coef.zero()
    shift = lam[-1] if lam and lam[-1] < 0 else 0
    base = tuple(l - shift for l in lam)
    h = homogeneous_table(d.params, (base[0] if base else 0) + d.n)
    s = schur_from_table(h, base, d.n)
    if shift:
        det = Coef.one()
        for p in d.params:
            det = det * Coef.from_scalar(p)
        for _ in range(-shift):
            s = _coef_div_exact(s, det)
    delta = Scalar.qpow(_delta_half_qexp2(lam, d.n))
    return s.mul_scalar(delta)


def _coef_div_exact(a: Coef, b: Coef) -> Coef:
    out = _coef_div(a, b)
    if out is None:
        raise DomainError("inexact coefficient division")
    return out


class ZetaResult(Record):
    __slots__ = ("series", "l_inv", "product", "certified_degree", "certified")

    def __init__(self, series: TruncSeriesT, l_inv: PolyT, product: TruncSeriesT,
                 certified_degree: int, certified: bool):
        self.series = series
        self.l_inv = l_inv
        self.product = product
        self.certified_degree = certified_degree
        self.certified = certified

    def product_is_one(self) -> bool:
        if not self.certified:
            return False
        if not self.product.coeff(0).is_one():
            return False
        return all(self.product.coeff(j).is_zero()
                   for j in range(1, self.product.bound + 1))

    def render(self):
        return {"series": self.series.render(),
                "L_inverse": self.l_inv.render(),
                "product": self.product.render(),
                "certified_degree": self.certified_degree,
                "certified": self.certified}


class UncertifiedTruncation(ValueError):
    """The truncation bound is too small to certify polynomiality."""


def _finish(series: TruncSeriesT, l_inv_poly: PolyT, strict: bool) -> ZetaResult:
    product = series.mul_poly(l_inv_poly)
    deg = max(l_inv_poly.degree(), 0)
    certified = product.bound > deg and all(
        product.coeff(j).is_zero() for j in range(deg + 1, product.bound + 1))
    if strict and not certified:
        raise UncertifiedTruncation(
            f"nonzero product tail beyond degree {deg} within the window")
    return ZetaResult(series, l_inv_poly, product, product.bound, certified)


def _check_lattice(m: Fraction, n1: int, n2: int):
    m = Fraction(m)
    if (m - Fraction(1 - n1 * n2, 2)).denominator not in (1, 2):
        raise ValueError("shift m must be a half-integer")
    return m


def zeta_gl_n_gl1(d: SatakeData, m, bound: int, strict: bool = False) -> ZetaResult:
    """Sum over the valuation-j cosets of the embedded GL1 torus against
    the trivial GL1 datum: the j-th coefficient is the Whittaker value at
    (j, 0, ..., 0) times q^{-j(m + (1-n)/2)}."""
    m = _check_lattice(m, d.n, 1)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = d.n
    # delta^{1/2} at (j, 0, ..., 0) times the shift is q^{-jm}, and h_j is
    # homogeneous of degree j, so q^{-m} goes into the parameters
    qm = Scalar.qpow(-int(2 * m))
    h = homogeneous_table([p * qm for p in d.unitary_twisted().params], bound)
    series = TruncSeriesT(0, bound, dict(enumerate(h)))
    shift2 = int(2 * m + n - 1)
    l_inv = l_inverse(d.rep()).shift(-shift2)
    return _finish(series, l_inv.poly, strict)


def zeta_gl_n_gl_n(d1: SatakeData, d2: SatakeData, m, bound: int,
                   strict: bool = False) -> ZetaResult:
    """GLn x GLn integral with the standard Schwartz function 1_{O^n}
    (which truncates the last torus coordinate to be >= 0): torus sum of
    products of Whittaker values against the inverse measure density."""
    if d1.n != d2.n:
        raise ValueError("equal ranks required")
    m = _check_lattice(m, d1.n, d2.n)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = d1.n
    # s_lam is homogeneous of degree |lam|, so q^{-m|lam|} goes into t1
    qm = Scalar.qpow(-int(2 * m))
    t1 = [p * qm for p in d1.unitary_twisted().params]
    t2 = d2.unitary_twisted().params
    h1 = homogeneous_table(t1, bound + n - 1)
    h2 = homogeneous_table(t2, bound + n - 1)
    minors1, minors2 = {}, {}
    accs = [{} for _ in range(bound + 1)]
    for mu in _dominant_nonneg(n - 1, bound):
        lam = mu + (0,)
        s1 = schur_from_table(h1, lam, n, minors1)
        if s1.is_zero():
            continue
        s2 = schur_from_table(h2, lam, n, minors2)
        if s2.is_zero():
            continue
        # W1 * W2 * delta^{-1} = s_lam(t1) * s_lam(t2): half-densities cancel
        _mul_acc(accs[sum(lam)], s1.terms, s2.terms)
    sums = [_acc_coef(acc) for acc in accs]
    # lam + (1^n) contributes e_n(t1) e_n(t2) s_lam(t1) s_lam(t2) in degree
    # |lam| + n, so the central shifts are added degree by degree
    e = Scalar.one()
    for p in (*t1, *t2):
        e = e * p
    _add_geometric(sums, n, Coef.from_scalar(e))
    series = TruncSeriesT(0, bound, dict(enumerate(sums)))
    shift2 = int(2 * m + 2 * n - 2)
    l_inv = l_inverse(tensor(d1.rep(), d2.rep())).shift(-shift2)
    return _finish(series, l_inv.poly, strict)


def _dominant_nonneg(n: int, total_bound: int):
    """Dominant lam in Z^n with lam_n >= 0 and |lam| <= total_bound."""

    def rec(prefix, remaining, cap):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(min(remaining, cap), -1, -1):
            yield from rec(prefix + [v], remaining - v, v)

    yield from rec([], total_bound, total_bound)


def invariant_pairing_check(d: SatakeData, bound: int) -> bool:
    """vol(K_n)^{-1} L^{-1}(1, V x V-dual) I(W, W-dual, Phi, 1) = 1 for
    normalized unramified data, with any Phi of unit mass (1_{O^n} here);
    verified as the certified product being identically 1."""
    if bound < 20:
        raise ValueError("bound >= 20 required for a meaningful certificate")
    res = zeta_gl_n_gl_n(d, d.dual(), Fraction(1), bound, strict=True)
    return res.product_is_one()


def gl2_gamma_functional_equation_check(d: SatakeData, bound: int) -> bool:
    """Functional equation against the GL1 trivial datum: the dual-side
    integral at the shifted lattice point equals gamma times the primal
    integral, coefficientwise through the certified window.

    The two lattice points are (1-n)/2 and (1-n)/2 + n: the rational
    normalization's translation of the defining equation's 0 and 1.
    """
    n = d.n
    m0 = Fraction(1 - n, 2)
    m1 = m0 + n
    s0 = zeta_gl_n_gl1(d, m0, bound)
    s1 = zeta_gl_n_gl1(d.dual(), m1, bound)
    rf, unit = gamma(d.rep())
    if not unit.is_one():
        raise DomainError("unramified gamma must have trivial unit")
    lhs = s1.series.mul_poly(rf.den)
    rhs = s0.series.mul_poly(rf.num)
    return lhs.eq_window(rhs)
