"""Structured Weil-Deligne representations as multisets of Speh blocks.

An inertial atom is abstract: only its invariants (dim, unramified-twist
stabilizer order f, conductor, epsilon unit, weight) enter any computation.
A block Sp(atom (x) unr(alpha), m) is the indecomposable with Frobenius
eigenvalue ladder alpha, alpha/q, ..., alpha/q^(m-1) on the atom's line(s)
and monodromy shifting each level onto the next.

Twist conventions (where q-powers sit in dual and tensor) are frozen by
exact agreement with the matrix oracle; see tests.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .exact import Scalar, DomainError, Record
from .partitions import Partition, MultiPartition, jordan_type_matrix, dominance_leq
from .linalg import FieldQ, FieldFE, scalar_to_fe

UNRAMIFIED_LABEL = "1"


class InertialAtom(Record):
    """Invariants of an irreducible inertial type / supercuspidal atom."""

    __slots__ = ("label", "dim", "f", "cond", "weight", "eps_unit", "dual_label")

    def __init__(self, label: str, dim: int = 1, f: int = 1, cond: int = 0,
                 weight: Fraction = Fraction(0), eps_unit: Scalar = None,
                 dual_label: str = None):
        if dim <= 0 or f <= 0 or cond < 0:
            raise DomainError("invalid atom invariants")
        self.label = label
        self.dim = dim
        self.f = f
        self.cond = cond
        self.weight = Fraction(weight)
        if eps_unit is None:
            eps_unit = (Scalar.one() if self.unramified
                        else Scalar.opaque(f"eps_{label}"))
        self.eps_unit = eps_unit
        self.dual_label = label if dual_label is None else dual_label
        if self.unramified:
            if self.dim != 1 or self.f != 1 or self.cond != 0:
                raise ValueError("unramified atom must have dim=1, f=1, cond=0")
            if not self.eps_unit.is_one() or self.weight != 0:
                raise ValueError("unramified atom must have eps=1, weight=0")
        elif self.cond == 0:
            raise DomainError("ramified atom must have positive conductor")

    @property
    def unramified(self) -> bool:
        return self.label == UNRAMIFIED_LABEL

    def key(self):
        return (self.label, self.dim, self.f, self.cond, self.weight,
                self.eps_unit.key(), self.dual_label)


UNR = InertialAtom(UNRAMIFIED_LABEL)


class SpehBlock(Record):
    __slots__ = ("atom", "alpha", "m")

    def __init__(self, atom: InertialAtom, alpha: Scalar, m: int):
        if m < 1:
            raise ValueError("Speh length must be >= 1")
        if alpha.is_zero():
            raise ValueError("block twist parameter must be invertible")
        self.atom = atom
        self.alpha = alpha
        self.m = m

    @property
    def rank(self) -> int:
        return self.atom.dim * self.m

    def key(self):
        return (self.atom.label, self.m, self.alpha.sort_key(), self.atom.key())


def sp(alpha, m: int = 1, atom: InertialAtom = UNR) -> SpehBlock:
    """Sp(atom (x) unr(alpha), m); alpha coerced to a Scalar."""
    if isinstance(alpha, (int, Fraction)):
        alpha = Scalar.from_rational(alpha)
    return SpehBlock(atom, alpha, m)


class WDRep:
    """Canonical multiset of Speh blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = sorted(blocks, key=lambda b: b.key())
        atoms: dict[str, InertialAtom] = {}
        for b in blocks:
            prev = atoms.setdefault(b.atom.label, b.atom)
            if prev != b.atom:
                raise ValueError(f"inconsistent redeclaration of atom {b.atom.label!r}")
        self.blocks = tuple(blocks)

    @property
    def rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    def key(self):
        return tuple(b.key() for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, WDRep) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        return WDRep(self.blocks + other.blocks)

    def atoms(self) -> dict[str, InertialAtom]:
        return {b.atom.label: b.atom for b in self.blocks}

    def is_unramified(self) -> bool:
        return all(b.atom.unramified for b in self.blocks)

    def involves_x(self) -> bool:
        return any(b.alpha.involves_x() for b in self.blocks)

    def render(self) -> str:
        if not self.blocks:
            return "0"
        return "+".join(_render_block(b) for b in self.blocks)

    def __repr__(self):
        return f"WDRep({self.render()})"


def _render_block(b: SpehBlock) -> str:
    if b.atom.unramified:
        inner = f"unr({b.alpha.render()})"
    else:
        a = b.atom
        kvs = [f"dim={a.dim}", f"f={a.f}", f"cond={a.cond}", f"w={a.weight}"]
        if not a.eps_unit.has_opaque():
            kvs.append(f"eps={a.eps_unit.render()}")
        if a.dual_label != a.label:
            kvs.append(f"dual={a.dual_label}")
        inner = f"tau({a.label},{','.join(kvs)})"
        if not b.alpha.is_one():
            inner += f"*unr({b.alpha.render()})"
    return f"Sp({inner},{b.m})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def twist(r: WDRep, i: int) -> WDRep:
    """Tensor with | . |^i: every alpha is multiplied by q^(-i)."""
    sc = Scalar.qpow(-2 * i)
    return WDRep([SpehBlock(b.atom, b.alpha * sc, b.m) for b in r.blocks])


def _dual_atom(atom: InertialAtom, pool: dict[str, InertialAtom]) -> InertialAtom:
    if atom.dual_label == atom.label:
        return atom
    if atom.dual_label in pool:
        return pool[atom.dual_label]
    raise DomainError(f"atom {atom.label!r} has undeclared dual {atom.dual_label!r}")


def dual(r: WDRep) -> WDRep:
    """Sp(atom (x) unr(alpha), m)^* = Sp(atom^* (x) unr(alpha^{-1} q^{m-1}), m).

    The q^(m-1) places the dual ladder's top eigenvalue correctly; the
    convention is pinned by the matrix oracle.
    """
    pool = r.atoms()
    out = []
    for b in r.blocks:
        alpha = b.alpha.inverse() * Scalar.qpow(2 * (b.m - 1))
        out.append(SpehBlock(_dual_atom(b.atom, pool), alpha, b.m))
    return WDRep(out)


def tensor(r1: WDRep, r2: WDRep) -> WDRep:
    """Clebsch-Gordan on Speh lengths; each block pair needs a dim-1
    unramified side so the atom-level product stays irreducible."""
    out = []
    for b1 in r1.blocks:
        for b2 in r2.blocks:
            if b1.atom.unramified:
                atom = b2.atom
            elif b2.atom.unramified:
                atom = b1.atom
            else:
                raise DomainError(
                    "tensor not computable for ramified x ramified atoms")
            alpha = b1.alpha * b2.alpha
            m, n = b1.m, b2.m
            for k in range(min(m, n)):
                out.append(SpehBlock(atom, alpha * Scalar.qpow(-2 * k),
                                     m + n - 1 - 2 * k))
    return WDRep(out)


def inertia_invariants(r: WDRep):
    """Diagonal matrices of Frobenius on r^{I_F} and on Ker(N)^{I_F}.

    Only unramified atoms contribute; the kernel of N on a Speh block is
    its last twist line.
    """
    full, ker = [], []
    for b in r.blocks:
        if not b.atom.unramified:
            continue
        for j in range(b.m):
            full.append(b.alpha * Scalar.qpow(-2 * j))
        ker.append(b.alpha * Scalar.qpow(-2 * (b.m - 1)))
    full.sort(key=Scalar.sort_key)
    ker.sort(key=Scalar.sort_key)
    return _diag(full), _diag(ker)


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else Scalar.zero() for j in range(n)]
            for i in range(n)]


def diag_entries(matrix) -> list[Scalar]:
    return [matrix[i][i] for i in range(len(matrix))]


def jordan_data(r: WDRep) -> MultiPartition:
    """Per atom label, the partition of Speh lengths (alpha is ignored:
    the strata are per inertial type)."""
    groups: dict[str, list[int]] = {}
    for b in r.blocks:
        groups.setdefault(b.atom.label, []).append(b.m)
    return MultiPartition.of({lbl: Partition(tuple(ms)) for lbl, ms in groups.items()})


def _block_weight(b: SpehBlock):
    wa = b.alpha.q_weight()
    if wa is None:
        raise DomainError(f"weight undefined for alpha = {b.alpha.render()}")
    return b.atom.weight + wa - (b.m - 1)


def is_pure(r: WDRep, w) -> bool:
    """Purity of weight w: every block satisfies
    weight(atom) + weight(alpha) - (m - 1) = w.

    The blockwise form is validated against the oracle's monodromy
    filtration in the test-suite.
    """
    w = Fraction(w)
    return all(_block_weight(b) == w for b in r.blocks)


def pure_weight(r: WDRep):
    """The unique purity weight, or None if the rep is not pure."""
    weights = {_block_weight(b) for b in r.blocks}
    return weights.pop() if len(weights) == 1 else None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

class InterpolationResult(enum.Enum):
    ISOMORPHISM = "Isomorphism"
    PROPER_SURJECTION = "ProperSurjection"


class WDFamily(Record):
    """One-parameter family over the x-line minus declared bad points.

    Structured mode (rep): monodromy is constant by construction.
    Matrix mode (matrix_n): an identically nilpotent matrix over Q[x]
    (one unramified inertial component), where monodromy may jump.
    """

    __slots__ = ("rep", "matrix_n", "bad_points")

    def __init__(self, rep: WDRep = None, matrix_n: tuple = None,
                 bad_points: tuple = ()):
        if (rep is None) == (matrix_n is None):
            raise ValueError("family needs exactly one of rep / matrix_n")
        if matrix_n is not None:
            matrix_n = tuple(tuple(e for e in row) for row in matrix_n)
        self.rep = rep
        self.matrix_n = matrix_n
        self.bad_points = bad_points


def specialize(fam: WDFamily, a) -> WDRep:
    """Substitute x -> a; error when a twist parameter degenerates."""
    a = Fraction(a)
    if a in [Fraction(b) for b in fam.bad_points]:
        raise DomainError(f"x = {a} is a declared bad point")
    if fam.rep is not None:
        out = []
        for b in fam.rep.blocks:
            alpha = b.alpha.specialize_x(a)
            if alpha.is_zero():
                raise DomainError(f"alpha vanishes at x = {a}")
            out.append(SpehBlock(b.atom, alpha, b.m))
        return WDRep(out)
    raise DomainError("matrix-mode families specialize through the oracle")


def family_jordan_generic(fam: WDFamily) -> MultiPartition:
    if fam.rep is not None:
        return jordan_data(fam.rep)
    mat = [[scalar_to_fe(e) for e in row] for row in fam.matrix_n]
    t = jordan_type_matrix(mat, FieldFE)
    return MultiPartition.of({UNRAMIFIED_LABEL: t})


def family_jordan_at(fam: WDFamily, a) -> MultiPartition:
    a = Fraction(a)
    if fam.rep is not None:
        return jordan_data(specialize(fam, a))
    mat = [[e.specialize_x(a).rational_value() for e in row] for row in fam.matrix_n]
    t = jordan_type_matrix(mat, FieldQ)
    return MultiPartition.of({UNRAMIFIED_LABEL: t})


def check_interpolation(fam: WDFamily, a) -> InterpolationResult:
    """Compare monodromy at the generic point and at x = a.

    The specialization map pi_gen(generic) -> fiber is an isomorphism
    exactly when the Jordan data agree; the drop direction is asserted.
    """
    generic = family_jordan_generic(fam)
    special = family_jordan_at(fam, a)
    gd, sd = generic.as_dict(), special.as_dict()
    assert set(gd) == set(sd)
    for lbl in gd:
        if not dominance_leq(sd[lbl], gd[lbl]):
            raise AssertionError("special monodromy exceeds generic monodromy")
    if gd == sd:
        return InterpolationResult.ISOMORPHISM
    return InterpolationResult.PROPER_SURJECTION
