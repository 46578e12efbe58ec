"""Segments, multisegments, and the generic Langlands map, combinatorially.

A segment Delta(sigma, m) is determined by (atom, alpha, m): its members
are the twists alpha, alpha/q, ..., alpha/q^(m-1) of the supercuspidal
attached to the atom.  Twist comparisons are up to the atom's mu_f orbit.

"pi(s)" is never built as a representation space: the artifact exposes
only its combinatorial shadows (genericity flag, surjection criterion).
"""

from __future__ import annotations

import enum
from .exact import DomainError, Record, Scalar
from .partitions import dominance_leq
from .wd import WDRep, InertialAtom, SpehBlock, jordan_data, _render_block


class OrderingMode(enum.Enum):
    GEN_QUOTIENT = "GenQuotient"  # for i < j, segment j does not precede segment i
    GEN_SUB = "GenSub"            # for i < j, segment i does not precede segment j
    UNORDERED = "Unordered"


class Segment(Record):
    __slots__ = ("sc_atom", "alpha", "m")

    def __init__(self, sc_atom: InertialAtom, alpha: Scalar, m: int):
        if m < 1:
            raise DomainError("segment length must be >= 1")
        self.sc_atom = sc_atom
        self.alpha = alpha
        self.m = m

    def key(self):
        return (self.sc_atom.label, -self.m, self.alpha.sort_key())

    def render(self) -> str:
        inner = _render_block(SpehBlock(self.sc_atom, self.alpha, self.m))
        return "Delta" + inner[2:]


class Multisegment(Record):
    __slots__ = ("segments", "ordering_mode")

    def __init__(self, segments: tuple[Segment, ...],
                 ordering_mode: OrderingMode = OrderingMode.UNORDERED):
        self.segments = segments
        self.ordering_mode = ordering_mode
        mode = self.ordering_mode
        if mode not in (OrderingMode.GEN_QUOTIENT, OrderingMode.GEN_SUB):
            return
        segs = self.segments
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                early, late = segs[i], segs[j]
                if mode == OrderingMode.GEN_QUOTIENT:
                    early, late = late, early
                if precedes(early, late):
                    raise DomainError(f"ordering violates the {mode.value} condition")

    def render(self) -> str:
        return "[" + "; ".join(s.render() for s in self.segments) + "]"


def _twist_equal(a1: Scalar, t: int, a2: Scalar, f: int) -> bool:
    """a2 == a1 * q^{-t} * zeta_f^k for some k?"""
    shifted = a1 * Scalar.qpow(-2 * t)
    if f == 1:
        return shifted == a2
    for k in range(f):
        if shifted * Scalar.root_of_unity(k, f) == a2:
            return True
    return False


def _contains(d1: Segment, d2: Segment) -> bool:
    """d1 contains d2 as sets of supercuspidals."""
    if d1.sc_atom.label != d2.sc_atom.label:
        return False
    f = d1.sc_atom.f
    for s in range(0, d1.m - d2.m + 1):
        if _twist_equal(d1.alpha, s, d2.alpha, f):
            return True
    return False


def precedes(d1: Segment, d2: Segment) -> bool:
    """d1 precedes d2: neither contains the other and d2 starts t+1 twist
    steps after d1 for some 0 <= t <= m1 - 1."""
    if d1.sc_atom.label != d2.sc_atom.label:
        return False
    if _contains(d1, d2) or _contains(d2, d1):
        return False
    f = d1.sc_atom.f
    return any(_twist_equal(d1.alpha, t + 1, d2.alpha, f) for t in range(d1.m))


def llc_gen(r: WDRep) -> Multisegment:
    """Inducing data of the generic correspondent: one segment per Speh
    block, arranged in the canonical GenQuotient-valid order.

    The order is built by a topological sort along `precedes` (which is
    acyclic: a preceding segment starts strictly earlier), breaking ties
    by (atom label, -m, alpha).
    """
    segs = [Segment(b.atom, b.alpha, b.m) for b in r.blocks]
    placed: list[Segment] = []
    remaining = list(segs)
    while remaining:
        available = [s for s in remaining
                     if not any(precedes(o, s) for o in remaining if o is not s)]
        if not available:
            raise AssertionError("precedes relation has a cycle")  # impossible
        nxt = min(available, key=Segment.key)
        placed.append(nxt)
        remaining.remove(nxt)
    return Multisegment(tuple(placed), OrderingMode.GEN_QUOTIENT)


def all_valid_orderings(segs) -> list[tuple]:
    """Every GenQuotient-valid ordering (test helper for canonicity)."""
    out = []

    def rec(prefix, remaining):
        if not remaining:
            out.append(tuple(prefix))
            return
        for i, s in enumerate(remaining):
            rest = remaining[:i] + remaining[i + 1:]
            if any(precedes(o, s) for o in rest):
                continue
            rec(prefix + [s], rest)

    rec([], list(segs))
    return out


def supercuspidal_support(s: Multisegment):
    """Multiset of (atom, alpha * q^{-j}) pairs, canonically sorted."""
    out = []
    for seg in s.segments:
        for j in range(seg.m):
            out.append((seg.sc_atom, seg.alpha * Scalar.qpow(-2 * j)))
    out.sort(key=lambda p: (p[0].label, p[1].sort_key()))
    return out


def support_key(s: Multisegment):
    """Hashable support with alphas reduced to canonical mu_f orbit reps."""
    from .points import mu_f_orbit_rep
    return tuple(sorted((atom.label, mu_f_orbit_rep(alpha, atom.f).key())
                        for atom, alpha in supercuspidal_support(s)))


def is_generic_irreducible(s: Multisegment) -> bool:
    """pi(s) = pi_gen(s) iff the segments are pairwise unlinked."""
    segs = s.segments
    for i in range(len(segs)):
        for j in range(len(segs)):
            if i != j and precedes(segs[i], segs[j]):
                return False
    return True


class SurjectionKind(enum.Enum):
    ISO = "Iso"
    SURJECTION = "Surjection"
    NONE = "None"


def surjection_exists(r1: WDRep, r2: WDRep) -> SurjectionKind:
    """Classify Hom(pi_gen(r1), pi_gen(r2)): nonzero (a surjection) when
    the W_F-restrictions agree and the monodromy of r1 is dominated by
    that of r2; an isomorphism when the Jordan data coincide."""
    if support_key(llc_gen(r1)) != support_key(llc_gen(r2)):
        return SurjectionKind.NONE
    t1, t2 = jordan_data(r1).as_dict(), jordan_data(r2).as_dict()
    if set(t1) != set(t2):
        return SurjectionKind.NONE
    if t1 == t2:
        return SurjectionKind.ISO
    if all(dominance_leq(t1[lbl], t2[lbl]) for lbl in t1):
        return SurjectionKind.SURJECTION
    return SurjectionKind.NONE
