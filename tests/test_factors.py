"""Local factors: inverse L, gamma, epsilon, and their identities."""

import itertools
from fractions import Fraction

import pytest

from conftest import (RAMIFIED_ATOMS, random_mixed_rep, random_unramified_rep,
                      seeded)
from llct.exact import PolyT, Scalar
from llct.factors import (epsilon, epsilon_ratio_check, gamma, l_inverse,
                          l_ss_inverse, monodromy_divisibility, rs_l_inverse,
                          sign_constancy_check)
from llct.exact import det_char, poly_divides
from llct.partitions import enumerate_partitions
from llct.wd import (SpehBlock, WDFamily, WDRep, dual,
                     inertia_eigenvalues, sp, specialize, twist, UNR)


def rat(v):
    return Scalar.from_rational(Fraction(v))


# -- inverse L-factors -----------------------------------------------------------

def test_l_factors_examples():
    r1 = WDRep([sp(5, 1)])
    assert l_inverse(r1).poly == PolyT.from_roots([rat(5)])

    st = WDRep([sp(1, 2)])
    assert l_inverse(st).poly == PolyT.from_roots([rat(Fraction(1, 3))])
    assert l_ss_inverse(st).poly == PolyT.from_roots([rat(1), rat(Fraction(1, 3))])

    r2 = WDRep([sp(5, 2)])
    assert l_ss_inverse(r2).poly == PolyT.from_roots([rat(5), rat(Fraction(5, 3))])

    ram = WDRep([SpehBlock(RAMIFIED_ATOMS[0], rat(2), 1)])
    assert l_inverse(ram).poly == PolyT.one()
    assert l_ss_inverse(ram).poly == PolyT.one()


def diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else Scalar.zero() for j in range(n)]
            for i in range(n)]


def test_l_inverse_equals_oracle_det_char():
    rng = seeded(67)
    for _ in range(40):
        r = random_unramified_rep(rng, max_rank=6)
        full, ker = inertia_eigenvalues(r)
        assert l_inverse(r).poly == det_char(diagonal(ker))
        assert l_ss_inverse(r).poly == det_char(diagonal(full))


def test_l_factors_multiplicative_over_sums():
    rng = seeded(71)
    for _ in range(20):
        r1 = random_mixed_rep(rng, max_rank=4)
        r2 = random_mixed_rep(rng, max_rank=4)
        s = r1 + r2
        assert l_inverse(s).poly == l_inverse(r1).poly * l_inverse(r2).poly
        assert l_ss_inverse(s).poly == l_ss_inverse(r1).poly * l_ss_inverse(r2).poly
        e1, e2, es = epsilon(r1), epsilon(r2), epsilon(s)
        assert es.unit == e1.unit * e2.unit
        assert es.cond == e1.cond + e2.cond


def test_rs_l_inverse_examples():
    a, b = WDRep([sp(2, 1)]), WDRep([sp(5, 1)])
    assert rs_l_inverse(a, b).poly == PolyT.from_roots([rat(10)])

    st = WDRep([sp(1, 2)])
    got = rs_l_inverse(st, st)
    # tensor = Sp(1,3) + Sp(q^{-1},1): kernel lines q^{-2}, q^{-1}
    assert got.poly == PolyT.from_roots([rat(Fraction(1, 9)), rat(Fraction(1, 3))])

    ram = WDRep([SpehBlock(RAMIFIED_ATOMS[0], rat(2), 1)])
    assert rs_l_inverse(ram, WDRep([sp(5, 1)])).poly == PolyT.one()

    shifted = rs_l_inverse(a, b, shift_qexp2=2)
    assert shifted.poly == PolyT.from_roots([rat(Fraction(10, 3))])


def test_family_interpolation_of_l_inverse():
    x = Scalar.x_power(1)
    fam_rep = WDRep([sp(x, 2), sp(5, 1)])
    fam = WDFamily(rep=fam_rep, bad_points=(0,))
    lfam = l_inverse(fam_rep).poly
    for a in (1, 2, Fraction(1, 2), -3, 7, Fraction(5, 3)):
        left = lfam.specialize_x(a)
        right = l_inverse(specialize(fam, a)).poly
        assert left == right


# -- divisibility ----------------------------------------------------------------

def compositions(p):
    if p == 0:
        yield ()
        return
    for first in range(1, p + 1):
        for rest in compositions(p - first):
            yield (first,) + rest


def monodromy_degenerations(stratum, alphas):
    """All smaller monodromies realizable on the support of the generic
    [stratum]-representation: chainwise subdivisions (arrows dropped)."""
    per_part = [list(compositions(p)) for p in stratum.parts]
    for combo in itertools.product(*per_part):
        blocks = []
        for alpha, comp in zip(alphas, combo):
            level = 0
            for run in comp:
                blocks.append(SpehBlock(UNR, alpha * Scalar.qpow(-2 * level), run))
                level += run
        yield WDRep(blocks)


def test_divisibility_exhaustive_small_strata():
    # On the generic support of each stratum N', every monodromy N it can
    # degenerate to satisfies N <= N' and L^{-1}(N') | L^{-1}(N).
    from llct.partitions import dominance_leq
    from llct.wd import jordan_data
    pool = [Fraction(2), Fraction(5), Fraction(7), Fraction(11), Fraction(13)]
    for m in range(1, 6):
        for tprime in enumerate_partitions(m):
            alphas = [rat(pool[i]) for i in range(len(tprime.parts))]
            big = WDRep([SpehBlock(UNR, a, p)
                         for a, p in zip(alphas, tprime.parts)])
            for small in monodromy_degenerations(tprime, alphas):
                t_small = jordan_data(small).as_dict()["1"]
                assert dominance_leq(t_small, tprime)
                assert poly_divides(l_inverse(big).poly, l_inverse(small).poly)


def test_divisibility_needs_degeneration_not_bare_dominance():
    # (2,2) <= (3,1) on a single 4-chain is dominance-comparable but is not
    # a degeneration; the kernel eigenvalues are not nested and divisibility
    # genuinely fails.  Documents the boundary of the divisibility statement.
    a = rat(2)

    def chain_rep(tiling):
        return WDRep([SpehBlock(UNR, a * Scalar.qpow(-2 * s), L)
                      for s, L in tiling])

    r22 = chain_rep([(0, 2), (2, 2)])
    for arrangement in ([(0, 3), (3, 1)], [(0, 1), (1, 3)]):
        r31 = chain_rep(arrangement)
        assert not poly_divides(l_inverse(r31).poly, l_inverse(r22).poly)


def test_divisibility_via_api():
    st = WDRep([sp(1, 2)])
    flat = WDRep([sp(1, 1), sp(Fraction(1, 3), 1)])
    assert monodromy_divisibility(flat, st)


# -- gamma ------------------------------------------------------------------------

def test_gamma_rank_one_example():
    rf, unit = gamma(WDRep([sp(2, 1)]))
    assert unit.is_one()
    assert rf.num == PolyT.from_roots([rat(2)])
    assert rf.den == PolyT.from_roots([rat(Fraction(1, 6))])


def test_gamma_ramified_rank_one_is_unit():
    ram = WDRep([SpehBlock(RAMIFIED_ATOMS[0], rat(2), 1)])
    rf, unit = gamma(ram)
    assert rf.num == PolyT.one() and rf.den == PolyT.one()
    assert unit == RAMIFIED_ATOMS[0].eps_unit


def test_gamma_multiplicative_and_monodromy_invariant():
    rng = seeded(73)
    for _ in range(25):
        r1 = random_unramified_rep(rng, max_rank=4)
        r2 = random_unramified_rep(rng, max_rank=3)
        g1, u1 = gamma(r1)
        g2, u2 = gamma(r2)
        gs, us = gamma(r1 + r2)
        assert us == u1 * u2
        assert gs == g1 * g2
    # collapsing all monodromy leaves gamma unchanged
    for _ in range(15):
        r = random_unramified_rep(rng, max_rank=5)
        flat_blocks = []
        for b in r.blocks:
            for j in range(b.m):
                flat_blocks.append(SpehBlock(b.atom, b.alpha * Scalar.qpow(-2 * j), 1))
        flat = WDRep(flat_blocks)
        assert gamma(r) == gamma(flat)


def test_gamma_divisor_form():
    rng = seeded(79)
    for _ in range(25):
        r = random_unramified_rep(rng, max_rank=5)
        rf, _u = gamma(r)
        num_l = l_ss_inverse(r).poly
        den_l = l_ss_inverse(twist(dual(r), 1)).poly
        # up-to-unit comparison by cross multiplication
        assert rf.num * den_l == rf.den * num_l


# -- epsilon ----------------------------------------------------------------------

def test_epsilon_examples():
    assert epsilon(WDRep([sp(2, 1)])) .unit.is_one()
    assert epsilon(WDRep([sp(2, 1)])).cond == 0

    e = epsilon(WDRep([sp(5, 2)]))
    assert e.unit == rat(-5)
    assert e.cond == 1

    tau = RAMIFIED_ATOMS[0]
    er = epsilon(WDRep([SpehBlock(tau, rat(2), 2)]))
    assert er.unit == tau.eps_unit * tau.eps_unit
    assert er.cond == 2 * tau.cond


def test_epsilon_ratio_check_examples():
    assert epsilon_ratio_check(WDRep([sp(2, 1), sp(5, 1)]))  # N = 0
    assert epsilon_ratio_check(WDRep([sp(5, 2)]))
    assert epsilon_ratio_check(WDRep([sp(1, 2)]))  # degenerate at T = 1
    rng = seeded(83)
    for _ in range(30):
        assert epsilon_ratio_check(random_mixed_rep(rng))


# -- sign constancy ----------------------------------------------------------------

def test_sign_constancy_constant_families():
    rep = sign_constancy_check(WDFamily(rep=WDRep([sp(1, 2)])))
    assert rep.ok and set(rep.signs.values()) == {-1}

    rep2 = sign_constancy_check(WDFamily(rep=WDRep([sp(-1, 2)])))
    assert rep2.ok and set(rep2.signs.values()) == {1}

    st3 = WDFamily(rep=WDRep([sp(Scalar.make(1, qexp2=1), 3)]))
    rep3 = sign_constancy_check(st3)
    assert rep3.ok and set(rep3.signs.values()) == {1}


def test_sign_constancy_x_family():
    x = Scalar.x_power(1)
    fam = WDFamily(rep=WDRep([sp(x, 2), sp(x.inverse(), 2)]), bad_points=(0,))
    rep = sign_constancy_check(fam)
    assert rep.ok
    assert rep.signs  # at least the points x = 1, -1 are pure
    assert len(rep.skipped) > 0  # generic points are not pure


def test_sign_constancy_rejects_non_self_dual():
    from llct.exact import DomainError
    fam = WDFamily(rep=WDRep([sp(2, 2)]))
    with pytest.raises(DomainError):
        sign_constancy_check(fam)
