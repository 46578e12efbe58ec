"""Exact coefficient arithmetic.

Values live in the ring generated over Q by

  * roots of unity zeta(a,N)  (kept formal: the unit group, not the
    cyclotomic field -- equality is equality of reduced labels),
  * user-declared opaque unit symbols (a free abelian group),
  * a formal square root q^(1/2) of the residue cardinality q,
  * the family parameter x (Laurent polynomials).

Integer powers of q and the sign zeta(1,2) = -1 are folded into the
rational coefficients, so every element has a unique normal form.

Five layers:
  Scalar       -- a single unit times q^(h/2) times a Laurent poly in x;
                  closed under multiplication, inverted when the x-part
                  is a monomial.
  Coef         -- finite Q-linear combinations of unit monomials; the
                  coefficient ring for polynomials in T.
  PolyT        -- polynomials in the zeta variable T over Coef.
  RatFuncT     -- normalized fractions of PolyT.
  TruncSeriesT -- Laurent series in T truncated at a tracked bound.

Plain coefficients (no roots of unity, no opaques) form the ring
R = Q(sqrt q)[x, 1/x], where they divide exactly and have gcds
(linalg.py).  The RatFuncT normal form: when num and den are plain,
their gcd in R[T] is cancelled; then both are divided by the lowest
x-term of den's leading T-coefficient, when that term is a unit.  Over R
this makes num/den unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .session import get_q, q_pow, q_is_square

Q0 = Fraction(0)
Q1 = Fraction(1)

TRIVIAL_ROOT = (0, 1)


class DomainError(ValueError):
    """Operation left the supported domain (opaque unit, non-invertible...)."""


class Record:
    """Base of the value records: a subclass names its fields in __slots__
    and sets them in __init__.  Records of one class are equal when their
    fields are, and hash by them; a mutable record sets __hash__ = None.
    Records are immutable by convention, like Scalar."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


def _norm_root(a: int, n: int) -> tuple[tuple[int, int], int]:
    """Reduce zeta_n^a to the canonical section a'/n' in [0, 1/2) of the
    root-of-unity group, with the -1 component returned as a sign."""
    if n <= 0:
        raise DomainError("root-of-unity order must be positive")
    a %= n
    g = gcd(a, n)
    if g:
        a, n = a // g, n // g
    if a == 0:
        return TRIVIAL_ROOT, 1
    if 2 * a >= n:
        # zeta_n^a = -zeta of (a/n - 1/2)
        r, s = _norm_root(2 * a - n, 2 * n)
        return r, -s
    return (a, n), 1


def _mul_roots(r1, r2) -> tuple[tuple[int, int], int]:
    (a1, n1), (a2, n2) = r1, r2
    n = n1 * n2 // gcd(n1, n2)
    return _norm_root(a1 * (n // n1) + a2 * (n // n2), n)


def _mul_opaques(o1, o2):
    return tuple(sorted(_merge(dict(o1), o2).items()))


class Scalar:
    """unit * q^(qh/2) * (Laurent polynomial in x), in normal form.

    qh is 0 or 1: even powers of q are folded into the coefficients, and
    when q is a square, so is q^(1/2) = isqrt(q), leaving qh = 0.
    The zero scalar is the one with empty xpoly.
    """

    __slots__ = ("root", "opaques", "qh", "xpoly")

    def __init__(self, root=TRIVIAL_ROOT, opaques=(), qh=0, xpoly=None):
        self.root = root
        self.opaques = opaques
        self.qh = qh
        self.xpoly = {} if xpoly is None else xpoly

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(coeff=1, qexp2: int = 0, xexp: int = 0, root=TRIVIAL_ROOT, opaques=()):
        """coeff * zeta(root) * q^(qexp2/2) * x^xexp, normalized."""
        c = Fraction(coeff)
        root, sign = _norm_root(*root)
        c *= sign
        if c == 0:
            return Scalar()
        c *= q_pow(qexp2 // 2)  # qexp2 = 2*(qexp2//2) + (qexp2 % 2)
        qh = qexp2 % 2
        if qh and q_is_square():
            c, qh = c * isqrt(get_q()), 0
        return Scalar(root, tuple(sorted(opaques)), qh, {xexp: c})

    @staticmethod
    def zero():
        return Scalar()

    @staticmethod
    def one():
        return Scalar.make(1)

    @staticmethod
    def from_rational(c):
        return Scalar.make(Fraction(c))

    @staticmethod
    def qpow(qexp2: int):
        """q^(qexp2/2)."""
        return Scalar.make(1, qexp2=qexp2)

    @staticmethod
    def x_power(k: int = 1, coeff=1):
        return Scalar.make(coeff, xexp=k)

    @staticmethod
    def from_xpoly(xpoly: dict):
        xp = {k: Fraction(c) for k, c in xpoly.items() if c != 0}
        return Scalar(TRIVIAL_ROOT, (), 0, xp)

    @staticmethod
    def opaque(symbol: str, exp: int = 1):
        return Scalar.make(1, opaques=((symbol, exp),))

    @staticmethod
    def root_of_unity(a: int, n: int):
        return Scalar.make(1, root=(a, n))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.xpoly

    def is_one(self) -> bool:
        return (self.root == TRIVIAL_ROOT and not self.opaques and self.qh == 0
                and self.xpoly == {0: Q1})

    def is_monomial(self) -> bool:
        return len(self.xpoly) == 1

    def has_opaque(self) -> bool:
        return bool(self.opaques)

    def is_rational(self) -> bool:
        """A plain rational number (no unit, no q^(1/2), no x)."""
        return (self.root == TRIVIAL_ROOT and not self.opaques and self.qh == 0
                and (not self.xpoly or set(self.xpoly) == {0}))

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"not a rational scalar: {self}")
        return self.xpoly.get(0, Q0)

    # -- normal form / ordering ---------------------------------------------

    def key(self):
        return (self.root, self.opaques, self.qh,
                tuple(sorted(self.xpoly.items())))

    def sort_key(self):
        r = (Fraction(self.root[0], self.root[1]), self.opaques, self.qh,
             tuple(sorted(self.xpoly.items())))
        return r

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        acc = {}  # every key shares one unit: read back one x-polynomial
        _mul_acc(acc, Coef.from_scalar(self).terms, Coef.from_scalar(other).terms)
        xp = {k[3]: Fraction(n, d) for k, (n, d) in acc.items() if n}
        if not xp:
            return Scalar()
        root, opaques, qh, _x = next(iter(acc))
        return Scalar(root, opaques, qh, xp)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.root, self.opaques, self.qh,
                      {k: -c for k, c in self.xpoly.items()})

    def inverse(self):
        if self.is_zero():
            raise DomainError("inverse of zero scalar")
        if not self.is_monomial():
            raise DomainError("scalar inverse needs a monomial x-part")
        (k, c), = self.xpoly.items()
        a, n = self.root
        root, sign = _norm_root(-a, n)
        opa = tuple(sorted((s, -e) for s, e in self.opaques))
        inv = Fraction(1) / c * sign
        if self.qh:
            # 1/q^(1/2) = q^(1/2)/q
            inv /= q_pow(1)
        return Scalar(root, opa, self.qh, {-k: inv})

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r, b = None, self  # r starts at the first set bit of e
        while e:
            if e & 1:
                r = b if r is None else r * b
            e >>= 1
            if e:
                b = b * b
        return Scalar.one() if r is None else r

    def specialize_x(self, a) -> "Scalar":
        """Substitute x -> a (a rational)."""
        return Coef.from_scalar(self).specialize_x(a).as_scalar()

    def involves_x(self) -> bool:
        return any(k != 0 for k in self.xpoly)

    def q_weight(self):
        """w with |self| = q^(w/2), if the scalar is +-q^(e/2); else None."""
        if self.has_opaque() or self.involves_x() or self.is_zero():
            return None
        c = abs(self.xpoly[0])
        q, step = get_q(), 2
        if q_is_square():  # count powers of q^(1/2), an integer
            q, step = isqrt(q), 1
        e = 0
        num, den = c.numerator, c.denominator
        while num % q == 0 and den == 1:
            num //= q
            e += 1
        while den % q == 0 and num == 1:
            den //= q
            e -= 1
        if num == 1 and den == 1:
            return step * e + self.qh
        return None

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        a, n = self.root
        if n != 1:
            parts.append(f"zeta({a},{n})")
        for sym, e in self.opaques:
            parts.append(sym if e == 1 else f"{sym}^{e}")
        if self.qh:
            parts.append("q^(1/2)")
        xp = _render_xpoly(self.xpoly)
        if not parts:
            return xp
        if xp == "1":
            return "*".join(parts)
        if xp == "-1":
            return "-" + "*".join(parts)
        return "*".join([xp] + parts)

    def __repr__(self):
        return f"Scalar({self.render()})"


def _render_xterm(k: int, c: Fraction) -> str:
    if k == 0:
        return str(c)
    xs = "x" if k == 1 else f"x^{k}"
    if c == 1:
        return xs
    if c == -1:
        return f"-{xs}"
    return f"{c}*{xs}"


def _render_xpoly(xp: dict) -> str:
    if not xp:
        return "0"
    terms = [_render_xterm(k, c) for k, c in sorted(xp.items())]
    out = _join_signed(terms, "")
    return f"({out})" if len(terms) > 1 else out


def _join_signed(parts, space=" "):
    """parts joined by '+', or by '-' in place of a part's leading '-',
    with `space` on both sides of the sign."""
    out = parts[0]
    for p in parts[1:]:
        out += f"{space}-{space}{p[1:]}" if p.startswith("-") else f"{space}+{space}{p}"
    return out


def _merge(d, items):
    """Add the (key, value) pairs into the term dict d, dropping zero sums."""
    for k, c in items:
        v = d.get(k, 0) + c
        if v:
            d[k] = v
        else:
            d.pop(k, None)
    return d


# ---------------------------------------------------------------------------
# Coef: linear combinations of unit monomials (coefficient ring for PolyT)
# ---------------------------------------------------------------------------

UnitKey = tuple  # (root, opaques, qh, xexp)


class Coef:
    """Finite Q-linear combination of unit monomials.

    Products accumulate in integers (_mul_acc) and are normalised once per
    output term, after every contribution to it: one Fraction per term of
    a Coef, series, polynomial or table product."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[UnitKey, Fraction] = terms or {}

    @staticmethod
    def zero():
        return Coef()

    @staticmethod
    def one():
        return Coef({(TRIVIAL_ROOT, (), 0, 0): Q1})

    @staticmethod
    def from_rational(c):
        c = Fraction(c)
        return Coef({(TRIVIAL_ROOT, (), 0, 0): c} if c else {})

    @staticmethod
    def from_scalar(s: Scalar):
        return Coef({(s.root, s.opaques, s.qh, k): c for k, c in s.xpoly.items()})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(TRIVIAL_ROOT, (), 0, 0): Q1}

    def __eq__(self, other):
        return isinstance(other, Coef) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        return Coef(_merge(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Coef({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        _mul_acc(acc, self.terms, _as_coef(other).terms)
        return _acc_coef(acc)

    __rmul__ = __mul__

    def mul_scalar(self, s: Scalar):
        return self * Coef.from_scalar(s)

    def is_plain(self):
        """No roots of unity, no opaques: lives in Q(q^(1/2))[x^{±}]."""
        return all(r == TRIVIAL_ROOT and not o for r, o, _h, _x in self.terms)

    def as_scalar(self):
        """Convert back to a Scalar if all terms share unit, q-half parts."""
        if self.is_zero():
            return Scalar()
        heads = {(r, o, h) for (r, o, h, _x) in self.terms}
        if len(heads) != 1:
            return None
        (r, o, h), = heads
        return Scalar(r, o, h, {x: c for (_r, _o, _h, x), c in self.terms.items()})

    def monomial_scalar(self):
        """The Scalar if this is a single monomial, else None."""
        if len(self.terms) != 1:
            return None
        return self.as_scalar()

    def specialize_x(self, a):
        a = Fraction(a)
        if a == 0 and any(k[3] < 0 for k in self.terms):
            raise DomainError("specializing x -> 0 in a Laurent pole")
        terms = (((r, o, h, 0), c * a ** x) for (r, o, h, x), c in self.terms.items())
        return Coef(_merge({}, terms))

    def render(self):
        if self.is_zero():
            return "0"
        parts = [Scalar(r, o, h, {x: self.terms[r, o, h, x]}).render()
                 for r, o, h, x in sorted(self.terms, key=_unitkey_sort)]
        return _join_signed(parts, "")

    def __repr__(self):
        return f"Coef({self.render()})"


def _as_coef(c) -> Coef:
    """A rational, Scalar or Coef as a Coef."""
    if isinstance(c, Scalar):
        return Coef.from_scalar(c)
    return Coef.from_rational(c) if isinstance(c, (int, Fraction)) else c


def _unitkey_sort(key):
    r, o, h, x = key
    return (x, h, Fraction(r[0], r[1]), o)


def _mul_acc(acc, t1, t2, sign=1):
    """acc += sign * t1 * t2 for the term dicts t1, t2 of two Coefs.

    acc maps unit keys to unnormalised pairs [num, den], den > 0: products
    multiply numerators and denominators, and a sum reuses an equal
    denominator or else takes one gcd."""
    q = None  # fetched only when two q^(1/2) meet
    for (r1, o1, h1, x1), c1 in t1.items():
        n1, d1 = sign * c1.numerator, c1.denominator
        for (r2, o2, h2, x2), c2 in t2.items():
            n = n1 * c2.numerator
            d = d1 * c2.denominator
            # keys hold canonical roots, so a trivial factor leaves the
            # other root and the sign unchanged
            if r2 == TRIVIAL_ROOT:
                root = r1
            elif r1 == TRIVIAL_ROOT:
                root = r2
            else:
                root, s = _mul_roots(r1, r2)
                if s < 0:
                    n = -n
            h = h1 + h2
            if h >= 2:
                if q is None:
                    q = get_q()
                h -= 2
                n *= q
            o = _mul_opaques(o1, o2) if o1 and o2 else o1 or o2
            k = (root, o, h, x1 + x2)
            v = acc.get(k)
            if v is None:
                acc[k] = [n, d]
            elif v[1] == d:
                v[0] += n
            else:
                b = v[1]
                g = gcd(b, d)
                v[0] = v[0] * (d // g) + n * (b // g)
                v[1] = b // g * d


def _acc_of(c: Coef) -> dict:
    """An accumulator holding c, for _mul_acc to add products to."""
    return {k: [v.numerator, v.denominator] for k, v in c.terms.items()}


def _acc_coef(acc) -> Coef:
    """The Coef of an accumulator: one Fraction per nonzero term."""
    return Coef({k: Fraction(n, d) for k, (n, d) in acc.items() if n})


# ---------------------------------------------------------------------------
# PolyT
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")  # degree of the zero polynomial


class PolyT:
    """Polynomial in T with Coef coefficients, zero coefficients stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cs = ((d, _as_coef(c)) for d, c in (coeffs or {}).items())
        self.coeffs = {d: c for d, c in cs if not c.is_zero()}

    @staticmethod
    def zero():
        return PolyT()

    @staticmethod
    def one():
        return PolyT({0: Coef.one()})

    @staticmethod
    def from_roots(roots):
        """prod (1 - lam*T) over the given Scalars."""
        p = PolyT.one()
        for lam in roots:
            p = p * PolyT({0: Coef.one(), 1: -Coef.from_scalar(lam)})
        return p

    def degree(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_plain(self):
        return all(c.is_plain() for c in self.coeffs.values())

    def leading(self):
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[self.degree()]

    def __eq__(self, other):
        return isinstance(other, PolyT) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted((d, hash(c)) for d, c in self.coeffs.items())))

    def __add__(self, other):
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            d[k] = d[k] + c if k in d else c
        return PolyT(d)

    def __neg__(self):
        return PolyT({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyT):
            other = _as_coef(other)
            return PolyT({d: c * other for d, c in self.coeffs.items()})
        out: dict[int, dict] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                _mul_acc(out.setdefault(d1 + d2, {}), c1.terms, c2.terms)
        return PolyT({d: _acc_coef(acc) for d, acc in out.items()})

    __rmul__ = __mul__

    def subst_T_scale(self, s: Scalar):
        """T -> s*T (degrees are >= 0 by construction)."""
        return PolyT({d: c.mul_scalar(s ** d) for d, c in self.coeffs.items()})

    def eval_coef(self, t: Coef) -> Coef:
        """Evaluate at T = t by Horner's rule (degrees are >= 0 by construction)."""
        out = Coef.zero()
        for d in range(max(self.coeffs, default=0), -1, -1):
            out = out * t + self.coeffs.get(d, Coef.zero())
        return out

    def specialize_x(self, a):
        return PolyT({d: c.specialize_x(a) for d, c in self.coeffs.items()})

    def divmod(self, other: "PolyT"):
        """Exact-ring division; DomainError if a needed coefficient quotient
        does not exist in the coefficient ring."""
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        rem = PolyT(dict(self.coeffs))
        quo: dict[int, Coef] = {}
        dB = other.degree()
        lead = other.coeffs[dB]
        while not rem.is_zero() and rem.degree() >= dB:
            dR = rem.degree()
            c = _coef_div(rem.coeffs[dR], lead)
            if c is None:
                return None, None
            quo[dR - dB] = c
            rem = rem - PolyT({dR - dB: c}) * other
        return PolyT(quo), rem

    def render(self):
        return _render_t_sum(self.coeffs) if self.coeffs else "0"

    def __repr__(self):
        return f"PolyT({self.render()})"


def _render_t_sum(coeffs) -> str:
    """The nonempty sum of c_d * T^d: a coefficient of more than one term
    in parentheses, a coefficient +-1 as its bare sign."""
    parts = []
    for d in sorted(coeffs):
        c = coeffs[d].render()
        if len(coeffs[d].terms) > 1:
            c = f"({c})"
        if d == 0:
            parts.append(c)
        else:
            ts = "T" if d == 1 else f"T^{d}"
            parts.append(c[:-1] + ts if c in ("1", "-1") else f"{c}*{ts}")
    return _join_signed(parts)


def _coef_div(a: Coef, b: Coef):
    """a / b in the coefficient ring, or None if it is not there: a monomial
    b is inverted, and plain a, b divide exactly in Q(sqrt q)[x, 1/x]."""
    mono = b.monomial_scalar()
    if mono is not None:
        return a.mul_scalar(mono.inverse())
    if a.is_plain() and b.is_plain():
        from .linalg import coef_div_plain
        return coef_div_plain(a, b)
    return None


def poly_divides(a: PolyT, b: PolyT) -> bool:
    """True iff b = a*c with c over the fraction field of the coefficient
    ring: a zero pseudo-remainder for plain coefficients, otherwise exact
    ring division, with DomainError when that is inconclusive."""
    if a.is_zero():
        raise DomainError("division by zero polynomial")
    if a.is_plain() and b.is_plain():
        from .linalg import poly_prem
        lead = a.leading()
        if len({k[3] for k in lead.terms}) == 1:
            # lead is x^e (u + v sqrt q), a unit of R: a monic divisor keeps
            # the pseudo-remainder from growing
            a = a * _low_unit(lead)
        return not poly_prem(b, a)
    quo, rem = b.divmod(a)
    if quo is None:
        raise DomainError("poly_divides needs opaque/root-free coefficients")
    return rem.is_zero()


def det_char(matrix) -> PolyT:
    """det(1 - M*T) for a square matrix of Scalars: T^n det(X - M) at
    X = 1/T, from the division-free `linalg.charpoly` over Coef, so it
    works over the full coefficient ring; opaque units are rejected since
    they preclude later evaluation.
    """
    from .linalg import FieldK, charpoly
    if any(s.has_opaque() for row in matrix for s in row):
        raise DomainError("det_char: opaque unit entries unsupported")
    cp = charpoly(FieldK, [[Coef.from_scalar(s) for s in row] for row in matrix])
    return PolyT(dict(enumerate(reversed(cp))))


# ---------------------------------------------------------------------------
# RatFuncT
# ---------------------------------------------------------------------------

class RatFuncT:
    """num/den in normal form: for plain coefficients the gcd in R[T] is
    cancelled, and num, den are divided by the lowest x-term u of den's
    leading coefficient when u is a unit (so a monomial lead becomes 1)."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyT, den: PolyT, reduce=True):
        if den.is_zero():
            raise DomainError("zero denominator")
        if reduce:
            num, den = _ratfunc_reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def from_root_lists(num_roots, den_roots):
        """prod(1-aT)/prod(1-bT) with common roots cancelled exactly."""
        nr = list(num_roots)
        dr = list(den_roots)
        out_d = []
        for b in dr:
            if b in nr:
                nr.remove(b)
            else:
                out_d.append(b)
        return RatFuncT(PolyT.from_roots(nr), PolyT.from_roots(out_d), reduce=False)

    def __eq__(self, other):
        return (isinstance(other, RatFuncT)
                and (self.num * other.den) == (self.den * other.num))

    def __mul__(self, other):
        return RatFuncT(self.num * other.num, self.den * other.den)

    def render(self):
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFuncT({self.render()})"


def _ratfunc_reduce(num: PolyT, den: PolyT):
    if num.is_zero():
        return PolyT.zero(), PolyT.one()
    if num.is_plain() and den.is_plain():
        from .linalg import poly_gcd_plain
        g = poly_gcd_plain(num, den)
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    u = _low_unit(den.leading())
    if u is not None:
        num, den = num * u, den * u
    return num, den


def _low_unit(c: Coef):
    """1 / (the lowest x-term of c), or None when that term is no unit."""
    low = min(k[3] for k in c.terms)
    u = Coef({k: v for k, v in c.terms.items() if k[3] == low})
    return _coef_div(Coef.one(), u)


# ---------------------------------------------------------------------------
# TruncSeriesT
# ---------------------------------------------------------------------------

class TruncSeriesT:
    """Laurent series in T, exact on the window [low, bound]."""

    __slots__ = ("low", "bound", "coeffs")

    def __init__(self, low: int, bound: int, coeffs=None):
        if bound < low:
            raise DomainError("empty series window")
        self.low = low
        self.bound = bound
        cs = ((d, _as_coef(c)) for d, c in (coeffs or {}).items()
              if low <= d <= bound)
        self.coeffs = {d: c for d, c in cs if not c.is_zero()}

    @staticmethod
    def window(coeffs: dict, bound: int):
        """The window [0, bound] of a dict of nonzero Coefs at degrees >= 0,
        copied without coercing or testing each entry."""
        s = object.__new__(TruncSeriesT)
        s.low, s.bound = 0, bound
        s.coeffs = {d: c for d, c in coeffs.items() if d <= bound}
        return s

    def coeff(self, d: int) -> Coef:
        if d < self.low or d > self.bound:
            raise DomainError(f"coefficient at degree {d} outside valid window")
        return self.coeffs.get(d, Coef.zero())

    def __mul__(self, other):
        if isinstance(other, PolyT):
            return self.mul_poly(other)
        low = self.low + other.low
        bound = min(self.bound + other.low, other.bound + self.low)
        out = {}
        for d in range(low, bound + 1):  # one accumulator alive at a time
            acc = {}
            for d2, c2 in other.coeffs.items():
                c1 = self.coeffs.get(d - d2)
                if c1 is not None:
                    _mul_acc(acc, c1.terms, c2.terms)
            out[d] = _acc_coef(acc)
        return TruncSeriesT(low, bound, out)

    def mul_poly(self, p: PolyT):
        """Series times exact polynomial: valid window [low+v, bound+v] with
        v the valuation of p."""
        if p.is_zero():
            return TruncSeriesT(self.low, self.bound, {})
        v = min(p.coeffs)
        ps = TruncSeriesT(v, self.bound - self.low + p.degree(), dict(p.coeffs))
        return self * ps

    def specialize_x(self, a):
        return TruncSeriesT(self.low, self.bound,
                            {d: c.specialize_x(a) for d, c in self.coeffs.items()})

    def render(self):
        tail = f"O(T^{self.bound + 1})"
        return f"{_render_t_sum(self.coeffs)} + {tail}" if self.coeffs else tail

    def __repr__(self):
        return f"TruncSeriesT({self.render()})"
