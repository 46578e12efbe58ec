"""Structured Weil-Deligne operations, pinned against the matrix oracle."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unramified_rep, seeded, RAMIFIED_ATOMS
from llct.dsl import parse_matrix
from llct.exact import DomainError, Scalar
from llct.linalg import FieldFE, mat_mul, rank, scalar_to_fe
from llct.oracle import (classify, dual_matrix, monodromy_filtration, realize,
                         tensor_matrix, twist_matrix)
from llct.partitions import MultiPartition, Partition, dominance_leq_multi
from llct.wd import (FIBRE_BUDGET, InterpolationResult, SpehBlock, WDFamily, WDRep,
                     check_interpolation, dual, family_jordan_at,
                     family_jordan_generic, inertia_eigenvalues, is_pure, jordan_data,
                     pure_weight, sp, specialize, tensor, twist, UNR)


def rat(v):
    return Scalar.from_rational(Fraction(v))


# -- twist ---------------------------------------------------------------------

def test_twist_examples():
    r = WDRep([sp(1, 1)])
    assert twist(r, 1) == WDRep([sp(Fraction(1, 3), 1)])
    assert twist(r, 0) == r
    rng = seeded(3)
    r2 = random_unramified_rep(rng)
    assert twist(twist(r2, 1), -1) == r2


# -- dual -----------------------------------------------------------------------

def test_dual_examples():
    assert dual(WDRep([sp(5, 1)])) == WDRep([sp(Fraction(1, 5), 1)])
    # the exact twist on a length-2 block is fixed by the oracle
    st = WDRep([sp(1, 2)])
    assert dual(st) == classify(dual_matrix(realize(st)))
    rng = seeded(5)
    for _ in range(20):
        r = random_unramified_rep(rng)
        assert dual(dual(r)) == r


def test_dual_needs_declared_atom_dual():
    from llct.wd import InertialAtom
    lone = InertialAtom("p", dim=2, f=1, cond=1, dual_label="p_star")
    with pytest.raises(DomainError):
        dual(WDRep([SpehBlock(lone, rat(1), 1)]))
    pair = InertialAtom("p_star", dim=2, f=1, cond=1, dual_label="p")
    r = WDRep([SpehBlock(lone, rat(2), 1), SpehBlock(pair, rat(5), 1)])
    assert dual(dual(r)) == r


# -- tensor -----------------------------------------------------------------------

def test_tensor_rank_one():
    a, b = rat(2), rat(5)
    assert tensor(WDRep([sp(a, 1)]), WDRep([sp(b, 1)])) == WDRep([sp(10, 1)])


def test_tensor_clebsch_gordan_examples():
    st = WDRep([sp(1, 2)])
    assert tensor(st, st) == WDRep([sp(1, 3), sp(Fraction(1, 3), 1)])
    t23 = tensor(WDRep([sp(2, 2)]), WDRep([sp(5, 3)]))
    assert sorted(b.m for b in t23.blocks) == [2, 4]
    assert t23.rank == 6


def test_tensor_matches_oracle_on_length_pairs():
    rng = seeded(9)
    for m in range(1, 5):
        for n in range(1, 5):
            a = rat(rng.choice([2, 5, 7, Fraction(1, 2)]))
            b = rat(rng.choice([2, 5, 11, Fraction(1, 7)]))
            r1, r2 = WDRep([SpehBlock(UNR, a, m)]), WDRep([SpehBlock(UNR, b, n)])
            assert tensor(r1, r2) == classify(tensor_matrix(realize(r1), realize(r2)))


def test_tensor_commutative_and_ramified_passthrough():
    rng = seeded(21)
    for _ in range(10):
        r1 = random_unramified_rep(rng, max_rank=3)
        r2 = random_unramified_rep(rng, max_rank=2)
        assert tensor(r1, r2) == tensor(r2, r1)
    tau = RAMIFIED_ATOMS[0]
    ram = WDRep([SpehBlock(tau, rat(2), 2)])
    unr_rep = WDRep([sp(5, 1)])
    out = tensor(ram, unr_rep)
    assert all(b.atom.label == tau.label for b in out.blocks)
    with pytest.raises(DomainError):
        tensor(ram, ram)


def test_structured_ops_commute_with_oracle():
    rng = seeded(33)
    for _ in range(10):
        r1 = random_unramified_rep(rng, max_rank=3)
        r2 = random_unramified_rep(rng, max_rank=2)
        assert classify(tensor_matrix(realize(r1), realize(r2))) == tensor(r1, r2)
        assert classify(dual_matrix(realize(r1))) == dual(r1)
        assert classify(twist_matrix(realize(r1), 2)) == twist(r1, 2)


# -- inertia invariants -------------------------------------------------------------

def test_inertia_invariants_examples():
    full, ker = inertia_eigenvalues(WDRep([sp(5, 1)]))
    assert full == [rat(5)] and ker == [rat(5)]

    full, ker = inertia_eigenvalues(WDRep([sp(5, 3)]))
    assert sorted(s.render() for s in full) == ["5", "5/3", "5/9"]
    assert [s.render() for s in ker] == ["5/9"]

    ram = WDRep([SpehBlock(RAMIFIED_ATOMS[0], rat(2), 2)])
    full, ker = inertia_eigenvalues(ram)
    assert full == [] and ker == []


# -- jordan data ---------------------------------------------------------------------

def test_jordan_data_examples():
    tau = RAMIFIED_ATOMS[0]
    r = WDRep([SpehBlock(tau, rat(2), 2), SpehBlock(tau, rat(5), 1)])
    assert jordan_data(r) == MultiPartition.of({tau.label: Partition.of(2, 1)})

    flat = WDRep([sp(2, 1), sp(5, 1), sp(7, 1)])
    assert jordan_data(flat) == MultiPartition.of({"1": Partition.of(1, 1, 1)})

    mixed = WDRep([sp(2, 2), SpehBlock(tau, rat(5), 1)])
    assert jordan_data(mixed) == MultiPartition.of(
        {"1": Partition.of(2), tau.label: Partition.of(1)})


# -- purity -------------------------------------------------------------------------

def test_is_pure_examples():
    assert is_pure(WDRep([sp(1, 1)]), 0)
    halfst = WDRep([sp(Scalar.make(1, qexp2=-1), 2)])
    assert pure_weight(halfst) == -2
    mixed = WDRep([sp(1, 1), sp(Fraction(1, 3), 1)])
    assert not is_pure(mixed, 0) and pure_weight(mixed) is None
    with pytest.raises(DomainError):
        is_pure(WDRep([sp(2, 1)]), 0)


def test_is_pure_stops_at_first_mismatching_block():
    x = Scalar.make(1, xexp=1)
    r = WDRep([sp(x, 2), sp(1, 1)])
    assert r.blocks[0].m == 1              # the rational block sorts first
    assert not is_pure(r, 5)
    with pytest.raises(DomainError):
        is_pure(r, 0)
    with pytest.raises(DomainError):
        pure_weight(r)


def test_purity_agrees_with_oracle_filtration():
    # blockwise rule vs weights read off the monodromy filtration
    cases = [WDRep([sp(1, 2)]),
             WDRep([sp(Scalar.make(1, qexp2=-1), 2)]),
             WDRep([sp(Scalar.make(1, qexp2=1), 3)]),
             WDRep([sp(1, 1), sp(Fraction(1, 3), 1)]),
             WDRep([sp(1, 2), sp(Fraction(1, 3), 1)])]
    for r in cases:
        degs = monodromy_filtration(realize(r))
        weights = set()
        for i, eigs in degs.items():
            for lam in eigs:
                weights.add(Fraction(lam.q_weight()) - i)
        oracle_pure = len(weights) == 1
        w = pure_weight(r)
        assert (w is not None) == oracle_pure
        if oracle_pure:
            assert w == weights.pop()


# -- families ---------------------------------------------------------------------

def test_specialize_examples():
    x = Scalar.x_power(1)
    fam = WDFamily(rep=WDRep([sp(x, 1)]))
    assert specialize(fam, 2) == WDRep([sp(2, 1)])
    with pytest.raises(DomainError):
        specialize(fam, 0)
    fam_bad = WDFamily(rep=WDRep([sp(x, 1)]), bad_points=(5,))
    with pytest.raises(DomainError):
        specialize(fam_bad, 5)


def test_check_interpolation_examples():
    z = Scalar.zero()
    x = Scalar.x_power(1)
    const = WDFamily(matrix_n=((z, rat(1)), (z, z)))
    assert check_interpolation(const, 0) == InterpolationResult.ISOMORPHISM

    fam = WDFamily(matrix_n=((z, x), (z, z)))
    assert check_interpolation(fam, 0) == InterpolationResult.PROPER_SURJECTION
    assert check_interpolation(fam, 1) == InterpolationResult.ISOMORPHISM

    structured = WDFamily(rep=WDRep([sp(x, 2)]), bad_points=(0,))
    assert check_interpolation(structured, 4) == InterpolationResult.ISOMORPHISM


def test_matrix_family_specialize_example():
    z = Scalar.zero()
    x = Scalar.x_power(1)
    fam = WDFamily(matrix_n=((z, x), (z, z)))
    from llct.wd import family_jordan_at
    assert family_jordan_at(fam, 0).as_dict()["1"] == Partition.of(1, 1)


def test_semicontinuity_random_families():
    # special Jordan type <= generic at sampled points; drop locus is finite
    rng = seeded(41)
    samples = [Fraction(k, 3) for k in range(-10, 11)]
    for _ in range(12):
        size = rng.randint(2, 5)
        rows = [[Scalar.zero()] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                deg = rng.randint(0, 3)
                xp = {d: Fraction(rng.randint(-2, 2)) for d in range(deg + 1)}
                rows[i][j] = Scalar.from_xpoly(xp)
        fam = WDFamily(matrix_n=tuple(tuple(r) for r in rows))
        from llct.wd import family_jordan_at, family_jordan_generic
        gen = family_jordan_generic(fam)
        drops = 0
        for a in samples:
            spc = family_jordan_at(fam, a)
            assert dominance_leq_multi(spc, gen)
            if spc != gen:
                drops += 1
        assert drops <= 3 * size  # minor degree bound


# -- generic fibre of a matrix family --------------------------------------------

def _ranks_over_fe(rows):
    """rk N^k for k = 0..n over Q(x)(sqrt q), the field the generic type was
    once computed in."""
    mat = [[scalar_to_fe(e) for e in row] for row in rows]
    ranks, power = [len(mat)], mat
    for _ in mat:
        ranks.append(rank(FieldFE, power))
        power = mat_mul(FieldFE, power, mat)
    return ranks


_laurent = st.dictionaries(st.integers(-2, 3), st.integers(-3, 3), max_size=3)


@st.composite
def _families(draw):
    """Strictly upper triangular, maybe given a diagonal entry (then it is
    nilpotent only when that entry is 0), maybe conjugated by a constant
    unimodular matrix (elementary row and column operations)."""
    n = draw(st.integers(1, 4))
    rows = [[draw(_laurent) if j > i else {} for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i][i] = draw(_laurent)
    if draw(st.booleans()):
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
        for i, j, c in draw(st.lists(ops, min_size=1, max_size=2 * n)):
            if i == j:
                continue
            # N -> E N E^-1 with E = 1 + c e_ij: row i += c row j, column j -= c column i
            for k in range(n):
                for d, v in rows[j][k].items():
                    rows[i][k][d] = rows[i][k].get(d, 0) + c * v
            for k in range(n):
                for d, v in rows[k][i].items():
                    rows[k][j][d] = rows[k][j].get(d, 0) - c * v
    return tuple(tuple(Scalar.from_xpoly(e) for e in row) for row in rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_families())
def test_generic_type_matches_ranks_over_q_x_sqrt_q(rows):
    fam = WDFamily(matrix_n=rows)
    want = _ranks_over_fe(rows)
    if want[-1]:
        with pytest.raises(DomainError, match="matrix is not nilpotent"):
            family_jordan_generic(fam)
    else:
        assert family_jordan_generic(fam).as_dict()["1"].rank_sequence() == want


def test_non_nilpotent_dense_family_fails_fast():
    # a dense 3 x 3 Laurent matrix whose rank over Q(x)(sqrt q) took seconds
    fam = WDFamily(matrix_n=tuple(tuple(r) for r in parse_matrix(
        "[[-x^2,1/2,-x^2],[1/2,x^-1,3],[2*x,3,1/2]]")))
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="matrix is not nilpotent"):
        family_jordan_generic(fam)
    assert time.perf_counter() - t0 < 0.1


def test_family_with_exponent_spread_12_is_certified_quickly():
    rng = seeded(22)
    n = 8
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo = rng.randint(-4, 8)
            hi = rng.randint(lo, 8)
            rows[i][j] = {d: rng.randint(-3, 3) for d in range(lo, hi + 1)}
    rows[0][n - 1] = {-4: 1, 8: 1}  # the exponent spread is exactly 12
    fam = WDFamily(matrix_n=tuple(tuple(Scalar.from_xpoly(e) for e in r) for r in rows))
    t0 = time.perf_counter()
    generic = family_jordan_generic(fam)  # from 193 special fibres
    assert time.perf_counter() - t0 < 5
    assert generic.as_dict()["1"] == Partition.of(8)
    for a in (-1, 1, 2, Fraction(1, 2)):
        assert dominance_leq_multi(family_jordan_at(fam, a), generic)


def test_family_beyond_the_fibre_budget_is_a_fast_domain_error():
    entry = Scalar.from_xpoly({0: 1, 200: 1})  # spread 200: M = 2 * 200 + 1
    fam = WDFamily(matrix_n=((Scalar.zero(), entry), (Scalar.zero(), Scalar.zero())))
    t0 = time.perf_counter()
    want = f"needs 401 special fibres, budget {FIBRE_BUDGET}"
    with pytest.raises(DomainError, match=want):
        family_jordan_generic(fam)
    assert time.perf_counter() - t0 < 0.1
