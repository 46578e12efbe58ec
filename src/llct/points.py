"""Point-level coarse moduli: coordinates on the Bernstein variety and its
monodromy-stratified extension.

A point packages an inertial class (atoms with multiplicities), a stratum
(multipartition of Speh lengths, extended variety only), and per-atom
coordinate multisets.  Coordinates are reduced modulo the atom's mu_f
orbit and sorted, realizing the quotient by S_m x mu_f^m.

Distinct atom labels are treated as non-conjugate (user contract): the
product group then exhausts the relevant symmetries.
"""

from __future__ import annotations

from .exact import DomainError, Record, Scalar
from .partitions import MultiPartition
from .segments import llc_gen, supercuspidal_support
from .wd import WDRep, InertialAtom, SpehBlock, jordan_data, tensor


def mu_f_orbit_rep(alpha: Scalar, f: int) -> Scalar:
    """Canonical representative of {alpha * zeta_f^k}: minimal sort key."""
    if f == 1:
        return alpha
    orbit = [alpha * Scalar.root_of_unity(k, f) for k in range(f)]
    return min(orbit, key=Scalar.sort_key)


class InertialClass(Record):
    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[tuple[InertialAtom, int], ...]):
        """atoms: (atom, multiplicity m_i) pairs with distinct labels."""
        labels = [a.label for a, _ in atoms]
        if len(set(labels)) != len(labels):
            raise DomainError("inertial class atoms must have distinct labels")
        self.atoms = tuple(sorted(atoms, key=lambda am: am[0].label))

    @property
    def n(self) -> int:
        return sum(a.dim * m for a, m in self.atoms)

    def key(self):
        return tuple((a.label, a.dim, m) for a, m in self.atoms)

    def render(self):
        return [{"label": a.label, "dim": a.dim, "multiplicity": m}
                for a, m in self.atoms]


class BernsteinPoint(Record):
    __slots__ = ("cls", "coords")

    def __init__(self, cls: InertialClass,
                 coords: tuple[tuple[str, tuple[Scalar, ...]], ...]):
        """coords: label -> sorted multiset."""
        self.cls = cls
        self.coords = coords

    def key(self):
        return (self.cls.key(),
                tuple((lbl, tuple(s.key() for s in cs)) for lbl, cs in self.coords))

    def __eq__(self, other):
        return isinstance(other, BernsteinPoint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def render(self):
        return {"class": self.cls.render(),
                "coords": {lbl: [s.render() for s in cs]
                           for lbl, cs in self.coords}}


class ExtendedPoint(Record):
    __slots__ = ("cls", "stratum", "coords")

    def __init__(self, cls: InertialClass, stratum: MultiPartition,
                 coords: tuple[tuple[str, tuple[Scalar, ...]], ...]):
        """coords: label -> one coordinate per part of the stratum."""
        strata = stratum.as_dict()
        for lbl, cs in coords:
            if len(cs) != len(strata[lbl].parts):
                raise DomainError("coordinate count must match stratum parts")
        self.cls = cls
        self.stratum = stratum
        self.coords = coords

    def key(self):
        return (self.cls.key(),
                tuple((lbl, p.parts) for lbl, p in self.stratum.components),
                tuple((lbl, tuple(s.key() for s in cs)) for lbl, cs in self.coords))

    def __eq__(self, other):
        return isinstance(other, ExtendedPoint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def render(self):
        return {"class": self.cls.render(),
                "stratum": self.stratum.render(),
                "coords": {lbl: [s.render() for s in cs]
                           for lbl, cs in self.coords}}


def _class_of(r: WDRep) -> InertialClass:
    mult: dict[str, int] = {}
    atoms: dict[str, InertialAtom] = {}
    for b in r.blocks:
        atoms[b.atom.label] = b.atom
        mult[b.atom.label] = mult.get(b.atom.label, 0) + b.m
    return InertialClass(tuple((atoms[lbl], m) for lbl, m in mult.items()))


def point_of(r: WDRep) -> BernsteinPoint:
    """Coordinates of the supercuspidal support: monodromy forgotten."""
    support = supercuspidal_support(llc_gen(r))
    by_label: dict[str, list[Scalar]] = {}
    for atom, alpha in support:
        by_label.setdefault(atom.label, []).append(
            mu_f_orbit_rep(alpha, atom.f))
    coords = tuple(sorted(
        (lbl, tuple(sorted(cs, key=Scalar.sort_key)))
        for lbl, cs in by_label.items()))
    return BernsteinPoint(_class_of(r), coords)


def extended_point_of(r: WDRep) -> ExtendedPoint:
    """Stratum = Jordan data; one coordinate per Speh block, listed in the
    order of the stratum's decreasing parts (ties sorted by coordinate)."""
    stratum = jordan_data(r)
    by_label: dict[str, list[tuple[int, Scalar]]] = {}
    for b in r.blocks:
        by_label.setdefault(b.atom.label, []).append(
            (b.m, mu_f_orbit_rep(b.alpha, b.atom.f)))
    coords = []
    for lbl, pairs in sorted(by_label.items()):
        pairs.sort(key=lambda p: (-p[0], p[1].sort_key()))
        coords.append((lbl, tuple(a for _m, a in pairs)))
    return ExtendedPoint(_class_of(r), stratum, tuple(coords))


def forget_monodromy(e: ExtendedPoint) -> BernsteinPoint:
    """Expand each block coordinate along its part: the diagram over the
    plain Bernstein variety commutes with point_of."""
    strata = e.stratum.as_dict()
    by_label = {}
    for lbl, cs in e.coords:
        parts = strata[lbl].parts
        atom = _atom_in_class(e.cls, lbl)
        out = []
        for part, alpha in zip(parts, cs):
            for j in range(part):
                out.append(mu_f_orbit_rep(alpha * Scalar.qpow(-2 * j), atom.f))
        by_label[lbl] = tuple(sorted(out, key=Scalar.sort_key))
    return BernsteinPoint(e.cls, tuple(sorted(by_label.items())))


def _atom_in_class(cls: InertialClass, label: str) -> InertialAtom:
    for a, _m in cls.atoms:
        if a.label == label:
            return a
    raise KeyError(label)


def rep_of_extended(e: ExtendedPoint) -> WDRep:
    """One representative Weil-Deligne representation of the point."""
    strata = e.stratum.as_dict()
    blocks = []
    for lbl, cs in e.coords:
        atom = _atom_in_class(e.cls, lbl)
        for part, alpha in zip(strata[lbl].parts, cs):
            blocks.append(SpehBlock(atom, alpha, part))
    return WDRep(blocks)


def rs_point(e1: ExtendedPoint, e2: ExtendedPoint) -> ExtendedPoint:
    """The Rankin-Selberg map on points: tensor any representatives and
    take the extended point of the product."""
    r1, r2 = rep_of_extended(e1), rep_of_extended(e2)
    return extended_point_of(tensor(r1, r2))
