"""Partitions, dominance order, Jordan types."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from llct.linalg import FieldQ
from llct.partitions import (MultiPartition, Partition, dominance_leq,
                             dominance_leq_multi, enumerate_partitions,
                             jordan_type_matrix)


def jordan_block_matrix(parts):
    """Nilpotent block matrix with the given Jordan type, over Q."""
    n = sum(parts)
    m = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for p in parts:
        for j in range(p - 1):
            m[off + j + 1][off + j] = Fraction(1)
        off += p
    return m


# -- examples ----------------------------------------------------------------

def test_jordan_type_examples():
    zero3 = [[Fraction(0)] * 3 for _ in range(3)]
    assert jordan_type_matrix(zero3) == Partition.of(1, 1, 1)
    assert jordan_type_matrix(jordan_block_matrix((3,))) == Partition.of(3)
    assert jordan_type_matrix(jordan_block_matrix((2, 1))) == Partition.of(2, 1)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        jordan_type_matrix([[Fraction(1)]])


def test_dominance_examples():
    assert dominance_leq(Partition.of(1, 1, 1), Partition.of(3))
    assert not dominance_leq(Partition.of(3), Partition.of(1, 1, 1))
    assert dominance_leq(Partition.of(2, 2), Partition.of(3, 1))


def test_dominance_total_mismatch():
    with pytest.raises(ValueError):
        dominance_leq(Partition.of(2), Partition.of(2, 1))


def test_multipartition_dominance():
    t = MultiPartition.of({"a": Partition.of(2, 1), "b": Partition.of(1, 1)})
    assert dominance_leq_multi(t, t)
    u = MultiPartition.of({"a": Partition.of(2, 1), "b": Partition.of(2)})
    assert dominance_leq_multi(t, u)
    # incomparable componentwise
    v = MultiPartition.of({"a": Partition.of(3), "b": Partition.of(1, 1)})
    w = MultiPartition.of({"a": Partition.of(2, 1), "b": Partition.of(2)})
    assert not dominance_leq_multi(v, w) or not dominance_leq_multi(w, v)
    with pytest.raises(ValueError):
        dominance_leq_multi(t, MultiPartition.of({"a": Partition.of(3)}))


def test_enumerate_partitions():
    assert enumerate_partitions(0) == [Partition(())]
    assert [p.parts for p in enumerate_partitions(3)] == [(1, 1, 1), (2, 1), (3,)]
    assert len(enumerate_partitions(6)) == 11


# -- order axioms, exhaustively for small totals ------------------------------

def test_dominance_is_partial_order_up_to_8():
    for m in range(1, 9):
        parts = enumerate_partitions(m)
        for t in parts:
            assert dominance_leq(t, t)
        for t, u in itertools.permutations(parts, 2):
            if dominance_leq(t, u) and dominance_leq(u, t):
                assert t == u
        for t, u, v in itertools.product(parts, repeat=3):
            if dominance_leq(t, u) and dominance_leq(u, v):
                assert dominance_leq(t, v)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=0, max_size=6))
def test_conjugate_is_an_involution(parts):
    p = Partition(tuple(parts))
    assert p.conjugate().conjugate() == p
    assert p.conjugate().total == p.total


def test_dominance_equals_rank_comparison():
    # t <= u in dominance iff rk N_t^i <= rk N_u^i for all i
    for m in range(1, 7):
        for t in enumerate_partitions(m):
            for u in enumerate_partitions(m):
                mt = jordan_block_matrix(t.parts)
                mu = jordan_block_matrix(u.parts)
                rt = jordan_type_matrix(mt).rank_sequence()
                ru = jordan_type_matrix(mu).rank_sequence()
                rank_leq = all(a <= b for a, b in zip(rt, ru))
                assert rank_leq == dominance_leq(t, u)


def test_rank_sequence_round_trips():
    for m in range(7):
        for t in enumerate_partitions(m):
            assert Partition.from_rank_sequence(t.rank_sequence()) == t


def test_jordan_type_conjugation_invariance():
    import random
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(2, 5)
        parts = rng.choice(enumerate_partitions(m)).parts
        mat = jordan_block_matrix(parts)
        n = len(mat)
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            from llct.linalg import mat_inverse
            try:
                pinv = mat_inverse(FieldQ, p)
                break
            except ZeroDivisionError:
                continue
        from llct.linalg import mat_mul
        conj = mat_mul(FieldQ, mat_mul(FieldQ, p, mat), pinv)
        assert jordan_type_matrix(conj) == Partition(parts)
