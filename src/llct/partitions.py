"""Partitions, multipartitions, Jordan types, and the dominance order.

A nilpotent operator is compared through its Jordan type; the dominance
order on decreasing partitions is equivalent to comparing rk N^i for all
i, which is how monodromy degenerations are detected.
"""

from __future__ import annotations

from .exact import DomainError, Record
from .linalg import RingZ, integer_multiple, mat_mul


class Partition(Record):
    """Decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(p <= 0 for p in parts):
            raise DomainError("partition parts must be positive")
        if list(parts) != sorted(parts, reverse=True):
            parts = tuple(sorted(parts, reverse=True))
        self.parts = parts

    @staticmethod
    def of(*parts: int) -> "Partition":
        return Partition(tuple(parts))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        out = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                out[i] += 1
        return Partition(tuple(out))

    def rank_sequence(self) -> list[int]:
        """rk N^i for i = 0..total, for N of this Jordan type."""
        m = self.total
        return [sum(max(p - i, 0) for p in self.parts) for i in range(m + 1)]

    @staticmethod
    def from_rank_sequence(ranks) -> "Partition":
        """Inverse of rank_sequence: the conjugate parts are rk N^(i-1) - rk N^i."""
        conj = [a - b for a, b in zip(ranks, ranks[1:]) if a > b]
        return Partition(tuple(conj)).conjugate()

    def render(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"

    def __repr__(self):
        return f"Partition{self.parts}"


class MultiPartition(Record):
    """Partitions indexed by atom label."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[str, Partition], ...]):
        self.components = tuple(sorted(components, key=lambda kv: kv[0]))

    @staticmethod
    def of(mapping: dict[str, Partition]) -> "MultiPartition":
        return MultiPartition(tuple(mapping.items()))

    def as_dict(self) -> dict[str, Partition]:
        return dict(self.components)

    def labels(self):
        return [lbl for lbl, _ in self.components]

    def render(self) -> dict:
        return {lbl: list(p.parts) for lbl, p in self.components}


def dominance_leq(t: Partition, u: Partition) -> bool:
    """t <= u: partial sums of decreasing parts never exceed."""
    if t.total != u.total:
        raise DomainError("dominance comparison needs equal totals")
    acc_t = acc_u = 0
    for i in range(max(len(t), len(u))):
        acc_t += t.parts[i] if i < len(t) else 0
        acc_u += u.parts[i] if i < len(u) else 0
        if acc_t > acc_u:
            return False
    return True


def dominance_leq_multi(t: MultiPartition, u: MultiPartition) -> bool:
    dt, du = t.as_dict(), u.as_dict()
    if set(dt) != set(du):
        raise DomainError("multipartition index sets differ")
    return all(dominance_leq(dt[lbl], du[lbl]) for lbl in dt)


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of m, sorted lexicographically by decreasing parts."""
    if m < 0:
        raise DomainError("m must be nonnegative")

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return sorted((Partition(p) for p in gen(m, m)), key=lambda p: p.parts)


def jordan_type_matrix(N) -> Partition:
    """Jordan type of a nilpotent N over Q from the ranks of (dN)^k, d*N
    integral: each row space is an echelon basis of the last one, times dN."""
    N = integer_multiple(N)[1]
    basis, ranks = N, [len(N)]
    for _ in range(len(N)):
        basis = RingZ.echelon(basis)[0]
        ranks.append(len(basis))
        if not basis:
            break
        basis = mat_mul(RingZ, basis, N)
    if ranks[-1] != 0:
        raise DomainError("matrix is not nilpotent")
    return Partition.from_rank_sequence(ranks)
