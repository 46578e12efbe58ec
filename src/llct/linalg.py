"""Exact linear algebra for the matrix oracle.

Matrices live over one of two explicit rings:

  * Z            -- a matrix over Q times the lcm of its denominators,
  * Q(x)(sqrt q) -- elements a + b*sqrt(q) with a, b rational functions of x.

Everything is generic over one protocol, the `Field` class.  Each of its
instances `FieldQ`, `FieldFE`, `FieldK` and `RingZ` brings the
elimination that `rank`, `kernel` and `subspace_dim` (the rank of a list
of vectors, which the oracle's rank table reads) run: the field loop
`row_echelon`, which `mat_inverse` runs too, or over Z a fraction-free
Gauss-Jordan pass.  Berkowitz's division-free `charpoly` serves every
instance and exact.det_char.  Euclid, `poly_divmod_f` / `poly_gcd_f`,
divides over a field, and `QPoly` (the x-polynomials inside Q(x))
divides with it over `FieldQ`.

Roots: `rational_roots` over Q (Loos's p-adic method), and over
Q(x)(sqrt q) `monomial_roots_fe`, from the Newton polygon in x.

For exact.py, T-polynomials with plain coefficients are divided and
reduced in their own ring R[T], R = Q(sqrt q)[x, 1/x], by pseudo-
remainders and a primitive remainder sequence; coefficient gcds and
quotients run the same Euclid over a third field, `FieldK` = Q(sqrt q).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import TRIVIAL_ROOT, Coef, DomainError, PolyT, Scalar, _low_unit
from .session import get_q, q_pow, q_is_square

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# Q[x] and Q(x)
# ---------------------------------------------------------------------------

class QPoly:
    """Polynomial over Q in one variable, dense-free dict representation."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {d: Fraction(v) for d, v in (c or {}).items() if v != 0}

    @staticmethod
    def const(v):
        v = Fraction(v)
        return QPoly({0: v} if v else {})

    def degree(self):
        return max(self.c) if self.c else -1

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __add__(self, other):
        d = dict(self.c)
        for k, v in other.c.items():
            w = d.get(k, Q0) + v
            if w == 0:
                d.pop(k, None)
            else:
                d[k] = w
        return QPoly(d)

    def __neg__(self):
        return QPoly({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Fraction) or isinstance(other, int):
            v = Fraction(other)
            return QPoly({k: w * v for k, w in self.c.items()}) if v else QPoly()
        out: dict[int, Fraction] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                w = out.get(k, Q0) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        return QPoly(out)

    def coeffs(self):
        return [self.c.get(d, Q0) for d in range(self.degree() + 1)]

    def divmod(self, other):
        quo, rem = poly_divmod_f(FieldQ, self.coeffs(), other.coeffs())
        return QPoly(dict(enumerate(quo))), QPoly(dict(enumerate(rem)))

    def gcd(self, other):
        return QPoly(dict(enumerate(poly_gcd_f(FieldQ, self.coeffs(), other.coeffs()))))

    def __repr__(self):
        return f"QPoly({self.c})"


class RatX:
    """Rational function in x over Q, normalized (monic denominator, coprime)."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly = None, reduce=True):
        den = QPoly.const(1) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("RatX zero denominator")
        if reduce:
            g = num.gcd(den)
            if not g.is_zero() and g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.c[den.degree()]
            if lead != 1:
                num = num * (Q1 / lead)
                den = den * (Q1 / lead)
        self.num = num
        self.den = den

    @staticmethod
    def const(v):
        return RatX(QPoly.const(v), reduce=False)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatX(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __neg__(self):
        return RatX(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatX(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("RatX inverse of zero")
        return RatX(self.den, self.num)

    def is_const(self):
        return self.num.degree() <= 0 and self.den.degree() == 0

    def const_value(self):
        return self.num.c.get(0, Q0) / self.den.c[0]

    def lowest(self):
        """(ord_x, lowest Laurent coefficient); (inf, 0) for zero."""
        if self.is_zero():
            return math.inf, Q0
        dn, dd = min(self.num.c), min(self.den.c)
        return dn - dd, self.num.c[dn] / self.den.c[dd]

    def __repr__(self):
        return f"RatX({self.num.c}/{self.den.c})"


# ---------------------------------------------------------------------------
# Field protocol
# ---------------------------------------------------------------------------

class Field:
    """A field for the generic routines: add, sub, mul, neg and eq are the
    operators, so only zero, one, inv, is_zero and from_int are given."""

    add, sub, mul, neg, eq = (operator.add, operator.sub, operator.mul,
                              operator.neg, operator.eq)

    def __init__(self, zero, one, inv, is_zero, from_int):
        self.zero, self.one, self.inv = zero, one, inv
        self.is_zero, self.from_int = is_zero, from_int

    def echelon(self, M):
        return row_echelon(self, M)

    def null_vector(self, ech, pivots, fc, ncols):
        v = [self.one if j == fc else self.zero for j in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = self.neg(ech[r][fc])
        return v


class _Integers(Field):
    """Z: fraction-free Gauss-Jordan, each new row a*row - b*(pivot row)
    over the gcd of its entries, so no larger than Bareiss's exact division
    by the previous pivot leaves it (Math. Comp. 22, 1968)."""

    def echelon(self, M):
        """(rows, pivot columns) as row_echelon gives them, except that row r
        is primitive and has the integer pivot rows[r][pivots[r]], not 1."""
        rows, pivots = [_primitive_z(row) for row in M], []
        for c in range(len(rows[0]) if rows else 0):
            r = len(pivots)
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            prow, p = rows[r], rows[r][c]
            for i, row in enumerate(rows):
                if row[c] and i != r:
                    g = math.gcd(p, row[c])
                    a, b = p // g, row[c] // g
                    rows[i] = _primitive_z([a * x - b * y for x, y in zip(row, prow)])
            pivots.append(c)
        return rows[:len(pivots)], pivots

    def null_vector(self, ech, pivots, fc, ncols):
        """Primitive, positive at fc and zero at the other free columns."""
        lcm = math.lcm(*(ech[r][pc] for r, pc in enumerate(pivots) if ech[r][fc]))
        v = [lcm if j == fc else 0 for j in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc] * lcm // ech[r][pc]
        return _primitive_z(v)


def _primitive_z(v):
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


FieldQ = Field(Q0, Q1, lambda a: Q1 / a, operator.not_, Fraction)
RingZ = _Integers(0, 1, None, operator.not_, int)


def integer_multiple(M):
    """(d, d*M) for the least d > 0 that makes the rational matrix M integral."""
    d = math.lcm(*{e.denominator for row in M for e in row})
    return d, [[e.numerator * (d // e.denominator) if e else 0 for e in row] for row in M]


class FE:
    """Element a + b*sqrt(q) of Q(x)(sqrt q); b forced 0 when q is square."""

    __slots__ = ("a", "b")

    def __init__(self, a: RatX, b: RatX = None):
        b = RatX.const(0) if b is None else b
        if not b.is_zero() and q_is_square():
            raise DomainError("formal sqrt(q) with square q would be degenerate")
        self.a = a
        self.b = b

    @staticmethod
    def const(v):
        return FE(RatX.const(v))

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __add__(self, other):
        return FE(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return FE(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        q = RatX.const(get_q())
        return FE(self.a * other.a + q * (self.b * other.b),
                  self.a * other.b + self.b * other.a)

    def inv(self):
        q = RatX.const(get_q())
        nrm = self.a * self.a - q * (self.b * self.b)
        if nrm.is_zero():
            raise ZeroDivisionError("FE inverse of zero (or zero-norm) element")
        ninv = nrm.inv()
        return FE(self.a * ninv, -(self.b * ninv))

    def __repr__(self):
        return f"FE({self.a!r} + {self.b!r}*sqrt(q))"


FieldFE = Field(FE.const(0), FE.const(1), FE.inv, FE.is_zero, FE.const)

_K1, _KQ = (TRIVIAL_ROOT, (), 0, 0), (TRIVIAL_ROOT, (), 1, 0)


def _k_inv(c):
    """(a + b sqrt q)^-1 = (a - b sqrt q) / (a^2 - q b^2)."""
    a, b = c.terms.get(_K1, Q0), c.terms.get(_KQ, Q0)
    n = a * a - get_q() * b * b
    return Coef({k: v for k, v in ((_K1, a / n), (_KQ, -b / n)) if v})


# K = Q(sqrt q), its elements the x-free plain Coefs: the coefficient field
# of the x-polynomials inside T-polynomials (exact.py).  Its operators are
# Coef's own, and charpoly never inverts, so exact.det_char runs charpoly
# over FieldK on any Coef, roots of unity included.
FieldK = Field(Coef.zero(), Coef.one(), _k_inv, Coef.is_zero, Coef.from_rational)


# ---------------------------------------------------------------------------
# Generic matrix routines
# ---------------------------------------------------------------------------

def mat_mul(F, A, B):
    """Row by row (Gustavson, ACM TOMS 4, 1978): C[i] accumulates a * B[k]
    over the nonzero a = A[i][k] and the nonzeros of B[k] only."""
    rows = [_support(F, row) for row in B]
    out = [[F.zero] * (len(B[0]) if B else 0) for _ in A]
    for c, row in zip(out, A):
        for a, brow in zip(row, rows):
            if brow and not F.is_zero(a):
                for j, b in brow:
                    c[j] = F.add(c[j], F.mul(a, b))
    return out


def _support(F, row):
    return [(j, e) for j, e in enumerate(row) if not F.is_zero(e)]


def mat_vec(F, A, v):
    nz = _support(F, v)
    return [sum((F.mul(row[k], b) for k, b in nz if not F.is_zero(row[k])), F.zero)
            for row in A]


def identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def mat_is_zero(F, A):
    return all(F.is_zero(e) for row in A for e in row)


def row_echelon(F, M):
    """Return (echelon rows, pivot column list); M is not modified."""
    rows = [list(r) for r in M]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, inv = rows[r], F.inv(rows[r][c])
        # only the pivot row's nonzero columns (none left of c) change
        support = [j for j in range(c, ncols) if not F.is_zero(prow[j])]
        for j in support:
            prow[j] = F.mul(inv, prow[j])
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and not F.is_zero(f):
                for j in support:
                    row[j] = F.sub(row[j], F.mul(f, prow[j]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(F, M):
    return len(F.echelon(M)[0])


def kernel(F, M):
    """Basis of {v : M v = 0} (column kernel), one vector per free column."""
    if not M:
        return []
    ncols = len(M[0])
    ech, pivots = F.echelon(M)
    return [F.null_vector(ech, pivots, fc, ncols)
            for fc in range(ncols) if fc not in pivots]


def mat_inverse(F, M):
    n = len(M)
    aug = [list(row) + e for row, e in zip(M, identity(F, n))]
    ech, pivots = row_echelon(F, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in ech]


def charpoly(F, M):
    """Coefficients [c_0, ..., c_n] of det(X*I - M); M is not modified.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984):
    with A the leading k x k block, R and S the rest of row and column k,
    p_{k+1} = (X - M[k][k]) p_k - sum_{i>=1} (R A^(i-1) S) [X^-i p_k]_+,
    a Toeplitz sum.  It never calls F.inv, so it serves any commutative
    ring, in O(n^4) ring operations, and a diagonal M in O(n^2).
    """
    n = len(M)
    p = [F.one]  # p_k, highest degree first
    for k in range(n):
        row = M[k]
        cs = [row[k]]  # c_0, then c_i = R A^(i-1) S until R or A^(i-1) S is 0
        R = [j for j in range(k) if not F.is_zero(row[j])]
        v = [M[i][k] for i in range(k)] if R else []
        while len(cs) <= k:
            nz = [j for j, e in enumerate(v) if not F.is_zero(e)]
            if not nz:
                break
            cs.append(_dot(F, row, v, nz))
            if len(cs) <= k:
                v = [_dot(F, M[i], v, nz) for i in range(k)]
        nxt = p + [F.zero]
        for i, c in enumerate(cs):
            if not F.is_zero(c):
                for j in range(k + 1 - i):
                    if not F.is_zero(p[j]):
                        nxt[i + j + 1] = F.sub(nxt[i + j + 1], F.mul(c, p[j]))
        p = nxt
    return p[::-1]


def _dot(F, row, v, idx):
    """sum of row[j] * v[j] over the indices idx where row[j] is nonzero."""
    out = None
    for j in idx:
        if not F.is_zero(row[j]):
            t = F.mul(row[j], v[j])
            out = t if out is None else F.add(out, t)
    return F.zero if out is None else out


def subspace_dim(F, vectors):
    """Dimension of the span of the vectors (rows)."""
    return rank(F, vectors)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def rational_roots(coeffs: list[Fraction]):
    """All rational roots (with multiplicity) of sum coeffs[i] X^i.

    Loos's p-adic method (SIAM J. Comput. 12, 1983), in integers and
    without factoring any.  A root a/b in lowest terms of the square-free
    part s of the primitive integer multiple f has a | s(0) and b | lead(s)
    (Gauss's lemma).  For a prime p not dividing lead(s), a/b is a root r
    of s mod p; when s'(r) is a unit mod p, Newton steps lift r to the
    p-adic root, and rational reconstruction modulo p^k > 2 |s(0) lead(s)|
    returns a/b.  Candidates are tested exactly, then divided out of s once
    and out of f in Z[X] as often as they divide.  A pass in which no root
    of s mod p is a root of s' mod p has seen every rational root;
    otherwise the next prime is tried.  Only the primes dividing
    lead(s) * disc(s) fail so, hence the loop ends.  Roots come out in
    order of denominator, then of absolute numerator, positive first.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    f = [c.numerator * (den // c.denominator) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if len(f) <= 1:
        return []
    zeros = next(i for i, c in enumerate(f) if c)
    roots = [Q0] * zeros
    f = f[zeros:]
    g = math.gcd(*f)
    f = [c // g for c in f]
    s = _squarefree_int(f)
    found, p = [], 1
    while len(s) > 1:
        p += 1
        if s[-1] % p == 0 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        bound, collided, cands = 2 * abs(s[0] * s[-1]), False, []
        for r in range(p):
            v, d = _eval_mod(s, r, p)
            if v:
                continue
            if d == 0:
                collided = True
                continue
            m = p
            while m <= bound:
                m *= m
                v, d = _eval_mod(s, r, m)
                r = (r - v * pow(d, -1, m)) % m
            c = _rational_reconstruction(r, m, abs(s[0]))
            if _eval_int_poly(s, c.numerator, c.denominator) == 0:
                cands.append(c)
        for c in cands:
            s = _deflate_int(s, c.numerator, c.denominator)
            while _eval_int_poly(f, c.numerator, c.denominator) == 0:
                found.append(c)
                f = _deflate_int(f, c.numerator, c.denominator)
        if not collided:
            break
    return roots + sorted(found, key=lambda c: (c.denominator, abs(c), c < 0))


def _squarefree_int(f):
    """f / gcd(f, f') in Z[X] for primitive f: the gcd by primitive
    pseudo-remainders, then an exact quotient (Gauss's lemma)."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        g = math.gcd(*b)
        b = [c // g for c in b]
        a, b = b, _prem(a, b)
    if len(a) == 1:
        return f
    q, r, n = [0] * (len(f) - len(a) + 1), list(f), len(a) - 1
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + n] // a[-1]
        for i in range(n):
            r[k + i] -= q[k] * a[i]
    return q


def _prem(a, b, R=RingZ):
    """Pseudo-remainder lead(b)^k a - q b of a by b, for the least k that
    leaves it of lower degree than b, over RingZ or (its zero test and one
    only) FieldK for R[T]; trailing zeros trimmed, a lead of one not applied."""
    r, n = list(a), len(b) - 1
    while len(r) > n:
        lead = r.pop()
        if b[-1] != R.one:
            r = [b[-1] * c for c in r]
        for i in range(n):
            r[len(r) - n + i] -= lead * b[i]
        while r and R.is_zero(r[-1]):
            r.pop()
    return r


def _eval_mod(f, r: int, m: int):
    """(f(r), f'(r)) mod m, by one Horner pass."""
    v = d = 0
    for c in reversed(f):
        d = (d * r + v) % m
        v = (v * r + c) % m
    return v, d


def _rational_reconstruction(u: int, m: int, bound: int):
    """The fraction a/b with |a| <= bound and a = u b mod m, by the
    half-extended Euclid on (m, u) (von zur Gathen and Gerhard, Modern
    Computer Algebra, 5.10).  It is found whenever one exists with
    (bound + 1) b <= m; otherwise the result is a fraction that the
    caller's exact test rejects."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def _eval_int_poly(f, a: int, b: int) -> int:
    """b^deg * f(a/b) as an exact integer (zero iff a/b is a root)."""
    out = 0
    bp = 1
    for c in reversed(f):
        out = out * a + c * bp
        bp *= b
    return out


def _deflate_int(f, a: int, b: int):
    """f / (bX - a) in Z[X]; exact when f(a/b) = 0 and gcd(a, b) = 1."""
    n = len(f) - 1
    out = [0] * n
    acc = f[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc // b
        acc = f[i] + a * out[i]
    return out


def poly_divmod_f(F, a, b):
    """(quotient, remainder) of coefficient-list polynomials over the field
    F, both with trailing zeros trimmed."""
    b = _trim(F, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, inv = len(b) - 1, F.inv(b[-1])
    rem = _trim(F, a)
    quo = [F.zero] * max(len(rem) - db, 0)
    while len(rem) > db:
        f = F.mul(rem[-1], inv)
        shift = len(rem) - 1 - db
        quo[shift] = f
        rem.pop()
        for i in range(db):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(f, b[i]))
        while rem and F.is_zero(rem[-1]):
            rem.pop()
    return quo, rem


def _trim(F, a):
    a = list(a)
    while a and F.is_zero(a[-1]):
        a.pop()
    return a


def poly_gcd_f(F, a, b):
    """Monic gcd of coefficient-list polynomials over the field F."""
    a, b = _trim(F, a), _trim(F, b)
    while b:
        a, b = b, poly_divmod_f(F, a, b)[1]
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(c, inv) for c in a]
    return a


def poly_quot_f(F, a, b):
    """Quotient a // b (remainder discarded) over the field F."""
    return poly_divmod_f(F, a, b)[0]


_NOT_MONOMIAL = ("semisimplification not supported: eigenvalue outside "
                 "the monomial class c*q^(h/2)*x^k")


def monomial_roots_fe(coeffs: list[FE]):
    """Roots, with multiplicity, of p = sum a_j X^j over Q(x)(sqrt q), all
    of which must be monomials c * sqrt(q)^d * x^k; each comes as
    ((c, d, k), root), in order of (k, d, c).  Raises DomainError otherwise.

    A root of x-valuation k lies on the edge of slope -k of the lower
    Newton polygon of the points (j, ord_x a_j), which has as many roots
    as it is long, and its c is a root of the edge polynomial: the sum of
    e_j (c sqrt(q)^d)^j over the edge's points, e_j = r_j + s_j sqrt q the
    lowest Laurent coefficient of a_j (Walker, Algebraic Curves, 1950,
    IV.3; Duval, Compositio Math. 70, 1989).
    """
    work = _trim(FieldFE, coeffs)
    low = {}
    for j, a in enumerate(work):
        (oa, r), (ob, s) = a.a.lowest(), a.b.lowest()
        o = min(oa, ob)
        if o < math.inf:
            low[j] = (o, r if oa == o else Q0, s if ob == o else Q0)
    if 0 not in low:
        raise DomainError(_NOT_MONOMIAL)
    roots, j2 = [], len(work) - 1
    while j2:
        # right to left: the edge ending at j2 has the least k
        ks = {j: Fraction(low[j][0] - low[j2][0], j2 - j) for j in low if j < j2}
        k = min(ks.values())
        if k.denominator != 1:
            raise DomainError(_NOT_MONOMIAL)
        on = [j for j in ks if ks[j] == k] + [j2]
        j1, k = on[0], k.numerator
        for d in (0,) if q_is_square() else (0, 1):
            if len(work) - 1 == j1:  # the edge has all its roots
                break
            # the edge polynomial's rational and sqrt(q) parts, divided by c^j1
            parts = [[Q0] * (j2 - j1 + 1) for _ in range(2)]
            for j in on:
                _o, r, s = low[j]
                if d * j % 2:  # (r + s sqrt q) sqrt q = s q + r sqrt q
                    r, s = s * get_q(), r
                t = q_pow(d * j // 2)
                parts[0][j - j1], parts[1][j - j1] = r * t, s * t
            main, other = parts if any(parts[0]) else parts[::-1]
            cands = rational_roots(main)
            for c in sorted(set(cands) - {Q0}):
                if sum(v * c ** i for i, v in enumerate(other)):
                    continue
                lam = scalar_to_fe(Scalar.make(c, qexp2=d, xexp=k))
                for _ in range(cands.count(c)):
                    quo, rem = poly_divmod_f(FieldFE, work, [-lam, FieldFE.one])
                    if rem:
                        break
                    work = quo
                    roots.append(((c, d, k), lam))
        if len(work) - 1 > j1:
            raise DomainError(_NOT_MONOMIAL)
        j2 = j1
    return roots


# ---------------------------------------------------------------------------
# Scalar <-> field element conversions
# ---------------------------------------------------------------------------

def scalar_to_fe(s) -> FE:
    """Plain Scalar (no roots of unity, no opaques) to a + b*sqrt(q)."""
    if s.root != TRIVIAL_ROOT or s.opaques:
        raise DomainError("scalar outside Q(x)(sqrt q): " + s.render())
    shift = min(list(s.xpoly) + [0])
    v = RatX(QPoly({k - shift: c for k, c in s.xpoly.items()}), QPoly({-shift: Q1}))
    return FE(RatX.const(0), v) if s.qh else FE(v)


# ---------------------------------------------------------------------------
# T-polynomials with plain coefficients, over R = Q(sqrt q)[x, 1/x]
# ---------------------------------------------------------------------------

def _xlist(c):
    """(e, [c_0, ..., c_n]) with c = x^e (c_0 + ... + c_n x^n), the c_i in K
    and c_0 nonzero, for a plain Coef c; (0, []) for zero."""
    e = min((k[3] for k in c.terms), default=0)
    out = [{} for _ in range(max((k[3] for k in c.terms), default=-1) - e + 1)]
    for (r, o, h, x), v in c.terms.items():
        out[x - e][(r, o, h, 0)] = v
    return e, [Coef(t) for t in out]


def _xcoef(e, cs):
    """x^e (c_0 + c_1 x + ...) as a Coef, the c_i in K."""
    return Coef({(r, o, h, e + i): v for i, c in enumerate(cs)
                 for (r, o, h, _x), v in c.terms.items()})


def coef_div_plain(a, b):
    """a / b in R for plain Coefs, or None when b is zero or does not divide
    a.  A unit x^e times a polynomial in x with nonzero constant term
    divides exactly when that polynomial does, in K[x]."""
    if b.is_zero():
        return None
    (ea, fa), (eb, fb) = _xlist(a), _xlist(b)
    quo, rem = poly_divmod_f(FieldK, fa, fb)
    return None if rem else _xcoef(ea - eb, quo)


def _tlist(p):
    return [p.coeffs.get(d, Coef.zero()) for d in range(max(p.coeffs, default=-1) + 1)]


def poly_prem(a, b):
    """Pseudo-remainder of the PolyT a by the nonzero PolyT b, both with
    plain coefficients, as a coefficient list; empty iff b divides a over
    the fraction field of R."""
    return _prem(_tlist(a), _tlist(b), FieldK)


def _content(cs):
    """gcd in R of the plain Coefs cs, as a monic polynomial in x over K
    with nonzero constant term (zero when every c is zero)."""
    g = []
    for c in cs:
        if len(g) != 1:
            g = poly_gcd_f(FieldK, g, _xlist(c)[1])
    return _xcoef(0, g)


def _primitive(p):
    """The coefficient list p over its content, scaled by the inverse of
    the lowest x-term of its leading coefficient; [] stays []."""
    if not p:
        return p
    c = _content(p)
    if not c.is_one():
        p = [coef_div_plain(a, c) for a in p]
    u = _low_unit(p[-1])
    return [a * u for a in p]


def poly_gcd_plain(a, b):
    """gcd in R[T] of two PolyTs with plain coefficients, by a primitive
    remainder sequence (Collins, JACM 14, 1967; Knuth, TAOCP 2, 4.6.1):
    the content gcd of all coefficients times the last nonzero primitive
    pseudo-remainder.  R is a principal ideal domain, so the gcd divides a
    and b in R[T] (Gauss's lemma); it is unique up to a unit c x^k of R."""
    a, b = _tlist(a), _tlist(b)
    c = _content(a + b)
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b, FieldK))
    return PolyT({d: c * v for d, v in enumerate(a)})
