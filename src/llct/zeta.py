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
and shares it across every lam.

A caller who needs a certificate raises the bound until one holds, so each
integral keeps one growable state per ladder: L^{-1}, a series source, the
nonzero series and product coefficients by degree, and the lowest nonzero
product degree above deg L^{-1}, each extended only by the degrees a larger
bound adds.  The source's grow(bound) returns the series coefficients
through at least degree bound.  For GLn x GL1 the source is the table of
h_k itself.  For GLn x GLn it holds both tables, their Jacobi-Trudi minors
and e_n(t1) e_n(t2), and sums the Schur products degree by degree.  A
rung's certificate is one comparison with that lowest degree, and its
result copies a prefix of each dict, so no later rung changes it.
The key is (q, kind, Satake parameters, m): Scalar normal forms fold
integer powers of q into the rationals, and q is a session global that can
change between calls.  At most _LADDERS states are kept, the least
recently used dropped first.

The functional-equation check keeps gamma as one more state, keyed
(q, "feq", Satake parameters).  With S_i the two series, L_i^{-1} their
inverse L-factors and P_i = L_i^{-1} S_i the products, S_1 den = S_0 num
mod T^(bound+1) holds iff P_1 den L_0^{-1} = P_0 num L_1^{-1} does, since
L_0^{-1} L_1^{-1} is a unit of the series ring.  P_i is the product's
window [0, bound], so the check multiplies two polynomials and compares
them through degree bound, certified or not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (Scalar, Coef, PolyT, TruncSeriesT, DomainError, Record,
                    _coef_div, _acc_coef, _acc_of, _mul_acc)
from .factors import l_inverse, gamma
from .session import get_q
from .wd import WDRep, sp, tensor


class SatakeData(Record):
    """Frobenius eigenvalues of the unramified (N = 0) representation."""

    __slots__ = ("params",)

    def __init__(self, params: tuple[Scalar, ...]):
        ps = tuple(p if isinstance(p, Scalar) else Scalar.from_rational(p)
                   for p in params)
        for p in ps:
            if p.is_zero() or p.has_opaque():
                raise DomainError("Satake parameters must be invertible and "
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


class _Table:
    """h_0, h_1, ... of prod_i 1/(1 - p_i T), grown one degree at a time:
    row[i] is the top coefficient so far of prod_{k<=i} 1/(1 - p_k T)."""

    __slots__ = ("ps", "row", "h")

    def __init__(self, params):
        self.ps = [Coef.from_scalar(p).terms for p in params]
        self.row = [Coef.one()] * len(self.ps)
        self.h = [Coef.one()]

    def grow(self, maxdeg: int) -> list[Coef]:
        h = self.h
        while len(h) <= maxdeg:
            c, row = Coef.zero(), []
            for prev, pt in zip(self.row, self.ps):
                acc = _acc_of(c)
                _mul_acc(acc, prev.terms, pt)
                c = _acc_coef(acc)
                row.append(c)
            self.row = row
            h.append(c)
        return h


def homogeneous_table(params, maxdeg: int) -> list[Coef]:
    """h_0..h_maxdeg of the complete homogeneous symmetric polynomials,
    the coefficients of prod_i 1/(1 - p_i T)."""
    return _Table(params).grow(maxdeg)


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
        raise DomainError("cocharacter length must equal n")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return Coef.zero()
    shift = lam[-1] if lam and lam[-1] < 0 else 0
    base = tuple(l - shift for l in lam)
    h = homogeneous_table(d.params, (base[0] if base else 0) + d.n)
    s = schur_from_table(h, base, d.n)
    if shift:
        det = math.prod(map(Coef.from_scalar, d.params))
        for _ in range(-shift):
            s = _coef_div(s, det)
            if s is None:
                raise DomainError("inexact coefficient division")
    delta = Scalar.qpow(_delta_half_qexp2(lam, d.n))
    return s.mul_scalar(delta)


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
        cs = self.product.coeffs  # nonzero coefficients only
        return self.certified and list(cs) == [0] and cs[0].is_one()

    def render(self):
        return {"series": self.series.render(),
                "L_inverse": self.l_inv.render(),
                "product": self.product.render(),
                "certified_degree": self.certified_degree,
                "certified": self.certified}


class UncertifiedTruncation(ValueError):
    """The truncation bound is too small to certify polynomiality."""


class _Ladder:
    """One ladder's state: L^{-1}, the series source, and the nonzero series
    and product coefficients by degree, each computed once."""

    __slots__ = ("l_inv", "deg", "source", "done", "series", "product", "tail")

    def __init__(self, l_inv: PolyT, source):
        self.l_inv = l_inv
        self.deg = max(l_inv.degree(), 0)
        self.source = source
        self.done = 0  # degrees computed
        self.series = {}
        self.product = {}
        self.tail = math.inf  # lowest nonzero product degree above self.deg

    def result(self, bound: int, strict: bool) -> ZetaResult:
        if bound >= self.done:
            src = self.source.grow(bound)
            # L^{-1} = prod (1 - r T) has constant term 1, so the product's
            # window is [0, bound] like the series'
            for d in range(self.done, bound + 1):
                if src[d].terms:
                    self.series[d] = src[d]
                acc = {}
                for d2, c2 in self.l_inv.coeffs.items():
                    if d2 <= d:
                        _mul_acc(acc, src[d - d2].terms, c2.terms)
                c = _acc_coef(acc)
                if c.terms:
                    self.product[d] = c
                    if d > self.deg:
                        self.tail = min(self.tail, d)
            self.done = bound + 1
        certified = self.deg < bound < self.tail
        if strict and not certified:
            raise UncertifiedTruncation(
                f"nonzero product tail beyond degree {self.deg} within the window")
        return ZetaResult(TruncSeriesT.window(self.series, bound), self.l_inv,
                          TruncSeriesT.window(self.product, bound), bound, certified)


class _SchurPairSums:
    """The GLn x GLn series: its degree-d coefficient sums s_lam(t1) s_lam(t2)
    over the dominant lam with |lam| = d, from the tables of h_k of t1 and
    t2 and their Jacobi-Trudi minors."""

    __slots__ = ("tables", "minors", "e", "sums")

    def __init__(self, t1, t2):
        self.tables = (_Table(t1), _Table(t2))
        self.minors = ({}, {})
        self.e = Coef.from_scalar(math.prod((*t1, *t2)))  # e_n(t1) e_n(t2)
        self.sums = []

    def grow(self, bound: int) -> list[Coef]:
        n = len(self.tables[0].ps)
        h1, h2 = (t.grow(bound + n - 1) for t in self.tables)
        minors1, minors2 = self.minors
        sums = self.sums
        for d in range(len(sums), bound + 1):
            acc = {}
            for mu in _partitions(d, n - 1, d):
                lam = mu + (0,)
                s1 = schur_from_table(h1, lam, n, minors1)
                if s1.is_zero():
                    continue
                s2 = schur_from_table(h2, lam, n, minors2)
                if s2.is_zero():
                    continue
                # W1 * W2 * delta^{-1} = s_lam(t1) * s_lam(t2): half-densities cancel
                _mul_acc(acc, s1.terms, s2.terms)
            c = _acc_coef(acc)
            if d >= n:
                # lam + (1^n) contributes e * s_lam(t1) s_lam(t2) in degree |lam| + n
                acc = _acc_of(c)
                _mul_acc(acc, sums[d - n].terms, self.e.terms)
                c = _acc_coef(acc)
            sums.append(c)
        return sums


# states kept; the functional-equation check holds three: its two ladders
# and its gamma, keyed (q, "feq", params)
_LADDERS = 8
_states: dict = {}


def _ladder(key, make):
    """The state under key, made by make() if absent, as most recently used."""
    st = _states.pop(key, None)
    if st is None:
        st = make()
    _states[key] = st
    if len(_states) > _LADDERS:
        del _states[next(iter(_states))]
    return st


def _check_lattice(m: Fraction, n1: int, n2: int, bound: int):
    m = Fraction(m)
    if (m - Fraction(1 - n1 * n2, 2)).denominator not in (1, 2):
        raise DomainError("shift m must be a half-integer")
    if bound < 1:
        raise DomainError("bound must be >= 1")
    return m


def zeta_gl_n_gl1(d: SatakeData, m, bound: int, strict: bool = False) -> ZetaResult:
    """Sum over the valuation-j cosets of the embedded GL1 torus against
    the trivial GL1 datum: the j-th coefficient is the Whittaker value at
    (j, 0, ..., 0) times q^{-j(m + (1-n)/2)}."""
    m = _check_lattice(m, d.n, 1, bound)

    def make():
        # delta^{1/2} at (j, 0, ..., 0) times the shift is q^{-jm}, and h_j
        # is homogeneous of degree j, so q^{-m} goes into the parameters
        qm = Scalar.qpow(-int(2 * m))
        l_inv = l_inverse(d.rep()).shift(-int(2 * m + d.n - 1))
        return _Ladder(l_inv.poly, _Table([p * qm for p in d.unitary_twisted().params]))

    return _ladder((get_q(), "gl1", d.params, m), make).result(bound, strict)


def zeta_gl_n_gl_n(d1: SatakeData, d2: SatakeData, m, bound: int,
                   strict: bool = False) -> ZetaResult:
    """GLn x GLn integral with the standard Schwartz function 1_{O^n}
    (which truncates the last torus coordinate to be >= 0): torus sum of
    products of Whittaker values against the inverse measure density."""
    if d1.n != d2.n:
        raise DomainError("equal ranks required")
    m = _check_lattice(m, d1.n, d2.n, bound)

    def make():
        # s_lam is homogeneous of degree |lam|, so q^{-m|lam|} goes into t1
        qm = Scalar.qpow(-int(2 * m))
        t1 = [p * qm for p in d1.unitary_twisted().params]
        t2 = d2.unitary_twisted().params
        l_inv = l_inverse(tensor(d1.rep(), d2.rep())).shift(-int(2 * m + 2 * d1.n - 2))
        return _Ladder(l_inv.poly, _SchurPairSums(t1, t2))

    key = (get_q(), "glnn", d1.params, d2.params, m)
    return _ladder(key, make).result(bound, strict)


def _partitions(total: int, parts: int, cap: int):
    """Nonincreasing tuples of `parts` integers in [0, cap] with sum total,
    in decreasing lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for v in range(min(total, cap), -(-total // parts) - 1, -1):
        for rest in _partitions(total - v, parts - 1, v):
            yield (v,) + rest


def invariant_pairing_check(d: SatakeData, bound: int) -> bool:
    """vol(K_n)^{-1} L^{-1}(1, V x V-dual) I(W, W-dual, Phi, 1) = 1 for
    normalized unramified data, with any Phi of unit mass (1_{O^n} here);
    verified as the certified product being identically 1."""
    if bound < 20:
        raise DomainError("bound >= 20 required for a meaningful certificate")
    res = zeta_gl_n_gl_n(d, d.dual(), Fraction(1), bound, strict=True)
    return res.product_is_one()


def gl2_gamma_functional_equation_check(d: SatakeData, bound: int) -> bool:
    """Functional equation against the GL1 trivial datum: the dual-side
    integral at the shifted lattice point equals gamma times the primal
    integral, coefficientwise through the window [0, bound], compared
    through the products as the module docstring shows.

    The two lattice points are (1-n)/2 and (1-n)/2 + n: the rational
    normalization's translation of the defining equation's 0 and 1.
    """
    n = d.n
    m0 = Fraction(1 - n, 2)
    m1 = m0 + n
    s0 = zeta_gl_n_gl1(d, m0, bound)
    s1 = zeta_gl_n_gl1(d.dual(), m1, bound)

    def make():
        rf, unit = gamma(d.rep())
        if not unit.is_one():
            raise DomainError("unramified gamma must have trivial unit")
        return rf

    rf = _ladder((get_q(), "feq", d.params), make)
    lhs = PolyT(s1.product.coeffs) * rf.den * s0.l_inv
    rhs = PolyT(s0.product.coeffs) * rf.num * s1.l_inv
    return ({k: c for k, c in lhs.coeffs.items() if k <= bound}
            == {k: c for k, c in rhs.coeffs.items() if k <= bound})
