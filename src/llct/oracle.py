"""Brute-force matrix realization of unramified-atom Weil-Deligne reps.

A MatrixWD is an explicit pair (Phi, N) with N Phi = q Phi N and N
nilpotent.  realize/classify are mutually inverse, and classify is the
oracle for every structured rule (tensor, dual, twist, filtration,
purity): it never looks at block data, only at the matrices.  It is the
one reader of Jordan structure: it finds the Jordan strings of N along
the eigenvalues of Phi from a rank table, and monodromy_filtration puts
the level-j eigenvalue of a string of length L in degree L - 1 - 2j.

Matrices are stored over Q when possible and over Q(x)(sqrt q)
otherwise.  One rule lifts the entries of every matrix that make,
conjugate and tensor_matrix see, jointly: if each entry is rational (an
int, a Fraction, a rational Scalar or a constant FE) the field is Q and
every entry becomes a Fraction; otherwise it is Q(x)(sqrt q), where
Fractions become constant FE and Scalars go through scalar_to_fe, which
rejects roots of unity and opaque units.  realize picks its field per
representation instead: Q(x)(sqrt q) once some alpha involves q^(1/2) or
x.  Eigenvalues of Phi must be monomials c * q^(h/2) * x^k; general
characteristic-polynomial factorization is out of scope.

A pair over Q is checked and classified in Z, on d*Phi and e*N with d, e
the lcms of their denominators, which keeps every check, eigenspace and
rank.  Eigenvalues come from the characteristic polynomial (Berkowitz,
division-free, O(n^4) ring operations), with multiplicity: over Q that of
d*Phi, monic in Z[X], whose roots are integers mu = d*lambda, found by
Loos's p-adic search (Hensel lifting and rational reconstruction, no
integer factoring); over Q(x)(sqrt q) by one pass over the edges of its
Newton polygon in x, whose edge polynomials go to the same search.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Scalar, DomainError, Record
from .linalg import (FE, FieldFE, FieldQ, RingZ, charpoly, integer_multiple,
                     kernel, mat_mul, mat_vec, mat_is_zero, mat_inverse,
                     monomial_roots_fe, rank, rational_roots,
                     subspace_dim, scalar_to_fe)
from .session import get_q, q_pow
from .wd import UNR, SpehBlock, WDRep


class MatrixWD(Record):
    """Explicit (Phi, N) over the tagged field ("Q" or "FE")."""

    __slots__ = ("phi", "n", "size", "field")

    def __init__(self, phi: tuple, n: tuple, size: int, field: str):
        self.phi = phi
        self.n = n
        self.size = size
        self.field = field

    @staticmethod
    def make(phi_rows, n_rows) -> "MatrixWD":
        """Entries may be Fractions, ints, FE, or plain Scalars."""
        tag, (phi, nn) = _lift(phi_rows, n_rows)
        m = MatrixWD(tuple(map(tuple, phi)), tuple(map(tuple, nn)), len(phi), tag)
        m.check()
        return m

    def _scaled(self):
        """(RingZ, d*Phi, e*N, d) as in the module docstring over Q, and
        (FieldFE, Phi, N, 1) over Q(x)(sqrt q)."""
        if self.field == "FE":
            return FieldFE, self.phi, self.n, 1
        d, phi = integer_multiple(self.phi)
        return RingZ, phi, integer_multiple(self.n)[1], d

    def check(self):
        F, phi, nn, _d = self._scaled()
        q = F.from_int(get_q())
        q_phi = [[e if F.is_zero(e) else F.mul(q, e) for e in row] for row in phi]
        if mat_mul(F, nn, phi) != mat_mul(F, q_phi, nn):
            raise DomainError("N*Phi = q*Phi*N fails")
        power, steps = nn, 1  # N^(2^k) >= N^size by repeated squaring
        while steps < self.size and not mat_is_zero(F, power):
            power = mat_mul(F, power, power)
            steps *= 2
        if not mat_is_zero(F, power):
            raise DomainError("N is not nilpotent")
        if rank(F, phi) < self.size:
            raise DomainError("Phi is singular")

    def conjugate(self, p_rows) -> "MatrixWD":
        """P (Phi, N) P^{-1}."""
        tag, (phi, nn, p) = _lift(self.phi, self.n, p_rows)
        F = _FIELDS[tag]
        pinv = mat_inverse(F, p)
        return MatrixWD.make(mat_mul(F, mat_mul(F, p, phi), pinv),
                             mat_mul(F, mat_mul(F, p, nn), pinv))


_FIELDS = {"Q": FieldQ, "FE": FieldFE}


def _lift(*matrices):
    """(tag, matrices as lists of rows) with every entry in the one field
    that holds them all; the rule is in the module docstring."""
    if all(isinstance(e, (int, Fraction))
           or isinstance(e, Scalar) and e.is_rational()
           or isinstance(e, FE) and e.b.is_zero() and e.a.is_const()
           for m in matrices for row in m for e in row):
        tag, entry = "Q", _q_entry
    else:
        tag, entry = "FE", _fe_entry
    return tag, [[[entry(e) for e in row] for row in m] for m in matrices]


def _q_entry(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, Scalar):
        return e.rational_value()
    return e.a.const_value() if isinstance(e, FE) else Fraction(e)


def _fe_entry(e):
    if isinstance(e, (int, Fraction)):
        return FE.const(e)
    return scalar_to_fe(e) if isinstance(e, Scalar) else e


# ---------------------------------------------------------------------------
# realize / classify
# ---------------------------------------------------------------------------

def realize(r: WDRep) -> MatrixWD:
    """Block diagonal: Sp(unr(alpha), m) becomes Phi = diag(alpha, ...,
    alpha q^{-(m-1)}) with N shifting each twist level onto the next."""
    if not r.is_unramified():
        raise DomainError("realize needs unramified (dim-1) atoms only")
    size = r.rank
    if any(b.alpha.qh or b.alpha.involves_x() for b in r.blocks):
        F, entry = FieldFE, scalar_to_fe
    else:
        F, entry = FieldQ, Scalar.rational_value
    phi = [[F.zero] * size for _ in range(size)]
    nn = [[F.zero] * size for _ in range(size)]
    off = 0
    for b in r.blocks:
        a = entry(b.alpha)
        for j in range(b.m):
            phi[off + j][off + j] = F.mul(a, F.from_int(q_pow(-j)))
            if j + 1 < b.m:
                nn[off + j + 1][off + j] = F.one
        off += b.m
    return MatrixWD.make(phi, nn)


def _eigen_setup(m: MatrixWD):
    """(ring, N, eigendata) from m._scaled(), where eigendata maps a
    hashable key (c, qh, xdeg) to an eigenspace basis.

    Both root finders return the roots of the characteristic polynomial
    with multiplicity: over Q they must number `size`, over Q(x)(sqrt q)
    a root outside the monomial class raises.  The eigenspaces of the
    distinct roots must have dimensions summing to `size`.
    """
    F, phi, nn, d = m._scaled()
    cp = charpoly(F, phi)
    if m.field == "Q":
        roots = rational_roots(cp)  # integers: the eigenvalues of d*Phi
        if len(roots) < m.size:
            raise DomainError("semisimplification not supported: eigenvalue "
                              "outside the monomial class")
        keyed = [((mu / d, 0, 0), mu.numerator) for mu in dict.fromkeys(roots)]
    else:
        keyed = dict(monomial_roots_fe(cp)).items()
    spaces = {}
    for key, lam in keyed:
        shifted = [[F.sub(e, lam) if i == j else e for j, e in enumerate(row)]
                   for i, row in enumerate(phi)]
        spaces[key] = kernel(F, shifted)
    if sum(map(len, spaces.values())) != m.size:
        raise DomainError("semisimplification not supported for this "
                          "eigenstructure (Phi not diagonalizable)")
    return F, nn, spaces


def _key_ratio(k1, k2):
    """j with k1 = k2 * q^{-j}, or None."""
    (c1, p1, x1), (c2, p2, x2) = k1, k2
    ratio = c1 / c2
    if p1 != p2 or x1 != x2 or ratio < 0:
        return None
    w = Scalar.make(ratio).q_weight()
    return None if w is None or w % 2 else -w // 2


def _key_to_scalar(key) -> Scalar:
    c, par, xd = key
    return Scalar.make(c, qexp2=par, xexp=xd)


def classify(m: MatrixWD) -> WDRep:
    """Inverse of realize: recover the Speh blocks from the eigenspace
    chains of Phi and the rank profile of N along them."""
    F, nn, spaces = _eigen_setup(m)
    chains: list[dict[int, tuple]] = []
    for key, basis in spaces.items():
        for chain in chains:
            base_level, (_basis, base_key) = next(iter(chain.items()))
            j = _key_ratio(key, base_key)
            if j is not None:
                chain[base_level + j] = (basis, key)
                break
        else:
            chains.append({0: (basis, key)})
    blocks = []
    for chain in chains:
        blocks.extend(_classify_chain(F, nn, chain))
    rep = WDRep(blocks)
    assert rep.rank == m.size
    return rep


def _classify_chain(F, nmat, chain):
    runs = []  # maximal runs of consecutive levels
    for lv in sorted(chain):
        if runs and lv == runs[-1][-1] + 1:
            runs[-1].append(lv)
        else:
            runs.append([lv])
    out = []
    for run in runs:
        bases, keys = zip(*(chain[lv] for lv in run))
        L = len(run)
        # r[a][b] = rank of N^(b-a) restricted to the level-a eigenspace
        r = [[0] * L for _ in range(L)]
        for a in range(L):
            vecs = bases[a]
            r[a][a] = len(vecs)
            for b in range(a + 1, L):
                vecs = [mat_vec(F, nmat, v) for v in vecs]
                r[a][b] = subspace_dim(F, [v for v in vecs
                                           if any(not F.is_zero(e) for e in v)])
        for a in range(L):
            for b in range(a, L):
                cnt = (r[a][b]
                       - (r[a - 1][b] if a > 0 else 0)
                       - (r[a][b + 1] if b + 1 < L else 0)
                       + (r[a - 1][b + 1] if a > 0 and b + 1 < L else 0))
                if cnt < 0:
                    raise DomainError("inconsistent rank profile")
                alpha = _key_to_scalar(keys[a])
                out.extend(SpehBlock(UNR, alpha, b - a + 1) for _ in range(cnt))
    return out


def tensor_matrix(m1: MatrixWD, m2: MatrixWD) -> MatrixWD:
    """Kronecker realization of the tensor product:
    Phi = Phi1 (x) Phi2, N = N1 (x) 1 + 1 (x) N2."""
    tag, (a_phi, b_phi, a_n, b_n) = _lift(m1.phi, m2.phi, m1.n, m2.n)
    F = _FIELDS[tag]
    n1, n2 = m1.size, m2.size
    phi = [[F.zero if F.is_zero(a) or F.is_zero(b) else F.mul(a, b)
            for a in ra for b in rb] for ra in a_phi for rb in b_phi]
    nn = [[F.add(a_n[i1][j1] if i2 == j2 else F.zero,
                 b_n[i2][j2] if i1 == j1 else F.zero)
           for j1 in range(n1) for j2 in range(n2)]
          for i1 in range(n1) for i2 in range(n2)]
    return MatrixWD.make(phi, nn)


def dual_matrix(m: MatrixWD) -> MatrixWD:
    """Dual realization: Phi^* = (Phi^{-1})^t, N^* = -N^t."""
    F = _FIELDS[m.field]
    phi = mat_inverse(F, [list(r) for r in m.phi])
    n = m.size
    phi_t = [[phi[j][i] for j in range(n)] for i in range(n)]
    n_t = [[F.neg(m.n[j][i]) for j in range(n)] for i in range(n)]
    return MatrixWD.make(phi_t, n_t)


def twist_matrix(m: MatrixWD, i: int) -> MatrixWD:
    F = _FIELDS[m.field]
    s = F.from_int(q_pow(-i))
    phi = [[F.mul(s, e) for e in row] for row in m.phi]
    return MatrixWD.make(phi, [list(r) for r in m.n])


# ---------------------------------------------------------------------------
# Monodromy filtration
# ---------------------------------------------------------------------------

def monodromy_filtration(m: MatrixWD):
    """Graded pieces of the unique filtration with N W_i <= W_{i-2} and
    N^i : Gr_i ~ Gr_{-i}; returns {degree: sorted Phi-eigenvalue list},
    nonempty degrees only, in ascending order.

    The filtration is a function of the Jordan structure of N along the
    eigenvalues of Phi (Deligne, Publ. Math. IHES 52, 1980, 1.6), read off
    classify's Jordan strings: on a string Sp(alpha, L) the level-j
    eigenvalue alpha * q^(-j) lies in degree L - 1 - 2j.
    """
    degrees: dict[int, list] = {}
    for b in classify(m).blocks:
        for j in range(b.m):
            degrees.setdefault(b.m - 1 - 2 * j, []).append(
                b.alpha * Scalar.qpow(-2 * j))
    return {k: sorted(degrees[k], key=Scalar.sort_key) for k in sorted(degrees)}
