"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line (visible with -s or in the runner
script); time budgets from the criteria are asserted where stated.
"""

import itertools
import time
from fractions import Fraction

from conftest import (random_alpha, random_mixed_rep,
                      random_unramified_rep, seeded)
from llct.exact import PolyT, Scalar, det_char, poly_divides
from llct.factors import (epsilon_ratio_check, gamma, l_inverse, l_ss_inverse,
                          sign_constancy_check)
from llct.linalg import FieldQ, kernel, mat_vec, row_echelon
from llct.oracle import classify, realize, tensor_matrix
from llct.partitions import dominance_leq, dominance_leq_multi, enumerate_partitions
from llct.points import extended_point_of, forget_monodromy, point_of
from llct.wd import (SpehBlock, UNR, WDFamily, WDRep, InterpolationResult,
                     check_interpolation, dual, family_jordan_at,
                     family_jordan_generic, jordan_data, sp, tensor, twist)
from llct.zeta import (SatakeData, gl2_gamma_functional_equation_check,
                       invariant_pairing_check, zeta_gl_n_gl1, zeta_gl_n_gl_n)


def _report(num, label, detail=""):
    print(f"ACCEPTANCE {num:>2} [{label}]: PASS {detail}")


def rat(v):
    return Scalar.from_rational(Fraction(v))


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_oracle_roundtrip():
    rng = seeded(1001)
    t0 = time.time()
    for _ in range(500):
        r = random_unramified_rep(rng, max_rank=8)
        assert classify(realize(r)) == r
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"too slow: {elapsed:.1f}s"
    _report(1, "oracle round-trip", f"(500 reps, {elapsed:.1f}s)")


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_tensor_clebsch_gordan():
    rng = seeded(1002)
    t0 = time.time()
    for m in range(1, 5):
        for n in range(1, 5):
            r1 = WDRep([SpehBlock(UNR, random_alpha(rng), m)])
            r2 = WDRep([SpehBlock(UNR, random_alpha(rng), n)])
            structured = tensor(r1, r2)
            oracle = classify(tensor_matrix(realize(r1), realize(r2)))
            assert structured == oracle, (m, n)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"too slow: {elapsed:.1f}s"
    _report(2, "tensor Clebsch-Gordan", f"(all m,n <= 4, {elapsed:.1f}s)")


# -- 3 -----------------------------------------------------------------------

def _coords(basis, v):
    """Coordinates of v in the independent vectors of basis, by reducing
    [basis^t | v] to reduced echelon form."""
    ech, pivots = row_echelon(FieldQ, [[b[i] for b in basis] + [e]
                                       for i, e in enumerate(v)])
    assert pivots == list(range(len(basis))), "v is not in the span"
    return [row[-1] for row in ech]


def _oracle_kernel_frobenius_poly(r: WDRep) -> PolyT:
    """det(1 - Frob*T on Ker(N)) read directly off the realized matrices."""
    m = realize(r)
    assert m.field == "Q"
    nmat = [list(row) for row in m.n]
    phi = [list(row) for row in m.phi]
    basis = kernel(FieldQ, nmat)
    if not basis:
        return PolyT.one()
    rows = [_coords(basis, mat_vec(FieldQ, phi, v)) for v in basis]
    entries = [[rat(rows[j][i]) for j in range(len(basis))]
               for i in range(len(basis))]
    return det_char(entries)


def test_criterion_03_l_factor_against_oracle():
    assert l_inverse(WDRep([sp(1, 2)])).poly == \
        PolyT({0: 1, 1: Fraction(-1, 3)})
    rng = seeded(1003)
    for _ in range(500):
        r = random_unramified_rep(rng, max_rank=6)
        assert l_inverse(r).poly == _oracle_kernel_frobenius_poly(r)
    _report(3, "L-factor vs oracle", "(500 reps)")


# -- 4 -----------------------------------------------------------------------

def _compositions(p):
    if p == 0:
        yield ()
        return
    for first in range(1, p + 1):
        for rest in _compositions(p - first):
            yield (first,) + rest


def test_criterion_04_monodromy_divisibility():
    t0 = time.time()
    pool = [Fraction(2), Fraction(5), Fraction(7), Fraction(11), Fraction(13)]
    for m in range(1, 6):
        for tprime in enumerate_partitions(m):
            alphas = [rat(pool[i]) for i in range(len(tprime.parts))]
            big = WDRep([SpehBlock(UNR, a, p)
                         for a, p in zip(alphas, tprime.parts)])
            for combo in itertools.product(
                    *[list(_compositions(p)) for p in tprime.parts]):
                blocks = []
                for alpha, comp in zip(alphas, combo):
                    level = 0
                    for run in comp:
                        blocks.append(SpehBlock(
                            UNR, alpha * Scalar.qpow(-2 * level), run))
                        level += run
                small = WDRep(blocks)
                t_small = jordan_data(small).as_dict()["1"]
                assert dominance_leq(t_small, tprime)
                assert poly_divides(l_inverse(big).poly, l_inverse(small).poly)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"too slow: {elapsed:.1f}s"
    _report(4, "monodromy divisibility", f"(strata m <= 5, {elapsed:.1f}s)")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_gamma_divisor_and_monodromy_independence():
    rng = seeded(1005)
    for _ in range(200):
        r = random_unramified_rep(rng, max_rank=5)
        rf, _unit = gamma(r)
        num_l = l_ss_inverse(r).poly
        den_l = l_ss_inverse(twist(dual(r), 1)).poly
        assert rf.num * den_l == rf.den * num_l
        # strip all monodromy at fixed semisimplification
        flat = WDRep([SpehBlock(b.atom, b.alpha * Scalar.qpow(-2 * j), 1)
                      for b in r.blocks for j in range(b.m)])
        assert gamma(flat) == gamma(r)
    # regroupings along a chain support also leave gamma unchanged
    alphas = [rat(2)]
    big = WDRep([SpehBlock(UNR, alphas[0], 4)])
    for combo in _compositions(4):
        blocks = []
        level = 0
        for run in combo:
            blocks.append(SpehBlock(UNR, alphas[0] * Scalar.qpow(-2 * level), run))
            level += run
        assert gamma(WDRep(blocks)) == gamma(big)
    _report(5, "gamma divisor form", "(200 reps + regroupings)")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_epsilon_ratio():
    rng = seeded(1006)
    for _ in range(200):
        r = random_mixed_rep(rng, max_rank=7)
        assert epsilon_ratio_check(r)
    _report(6, "epsilon ratio identity", "(200 mixed reps)")


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_semicontinuity():
    rng = seeded(1007)
    check_points = [Fraction(rng.randint(-40, 40), rng.randint(1, 7))
                    for _ in range(20)]
    for fam_idx in range(100):
        size = rng.randint(2, 5)
        max_deg = 3
        rows = [[Scalar.zero()] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.75:
                    deg = rng.randint(0, max_deg)
                    xp = {d: Fraction(rng.randint(-2, 2)) for d in range(deg + 1)}
                    rows[i][j] = Scalar.from_xpoly(xp)
        fam = WDFamily(matrix_n=tuple(tuple(r) for r in rows))
        gen = family_jordan_generic(fam)
        for a in check_points:
            assert dominance_leq_multi(family_jordan_at(fam, a), gen)
        samples = {Fraction(rng.randint(-100, 100), rng.randint(1, 9))
                   for _ in range(200)}
        drops = {a for a in samples if family_jordan_at(fam, a) != gen}
        assert len(drops) <= size * max_deg, (fam_idx, sorted(drops))
    _report(7, "semicontinuity", "(100 families x 220 samples)")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_interpolation():
    z = Scalar.zero()
    x = Scalar.x_power(1)
    fam0 = WDFamily(matrix_n=((z, x), (z, z)))
    assert check_interpolation(fam0, 0) == InterpolationResult.PROPER_SURJECTION
    assert check_interpolation(fam0, 1) == InterpolationResult.ISOMORPHISM

    rng = seeded(1008)
    points = [Fraction(k, 2) for k in range(-6, 7)]
    for _ in range(20):
        size = rng.randint(2, 4)
        rows = [[Scalar.zero()] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.7:
                    deg = rng.randint(0, 2)
                    xp = {d: Fraction(rng.randint(-2, 2)) for d in range(deg + 1)}
                    rows[i][j] = Scalar.from_xpoly(xp)
        fam = WDFamily(matrix_n=tuple(tuple(r) for r in rows))
        gen = family_jordan_generic(fam)
        for a in points:
            want = (InterpolationResult.ISOMORPHISM
                    if family_jordan_at(fam, a) == gen
                    else InterpolationResult.PROPER_SURJECTION)
            assert check_interpolation(fam, a) == want
    _report(8, "interpolation classification", "(21 families x 13 points)")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_coarse_moduli_diagram():
    rng = seeded(1009)
    for _ in range(500):
        r = random_unramified_rep(rng, max_rank=8)
        assert forget_monodromy(extended_point_of(r)) == point_of(r)
    for _ in range(40):
        r = random_unramified_rep(rng, max_rank=5)
        m = realize(r)
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(m.size)]
                 for _ in range(m.size)]
            try:
                conj = m.conjugate(p)
                break
            except ZeroDivisionError:
                continue
        assert point_of(classify(conj)) == point_of(r)
    _report(9, "coarse-moduli diagram", "(500 reps + 40 conjugations)")


# -- 10 ----------------------------------------------------------------------

def _random_satake(rng, n):
    pool = [Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11),
            Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), Fraction(5, 2)]
    vals = rng.sample(pool, n)
    return SatakeData(tuple(rat(v) for v in vals))


def test_criterion_10_zeta_polynomiality():
    rng = seeded(1010)
    t0 = time.time()
    for _ in range(20):
        d = _random_satake(rng, 2)
        m = Fraction(-1, 2) + rng.randint(-1, 2)
        assert zeta_gl_n_gl1(d, m, 40, strict=True).product_is_one()
    for _ in range(20):
        d = _random_satake(rng, 3)
        m = Fraction(-1) + rng.randint(-1, 2)
        assert zeta_gl_n_gl1(d, m, 40, strict=True).product_is_one()
    for _ in range(20):
        d1, d2 = _random_satake(rng, 2), _random_satake(rng, 2)
        m = Fraction(-3, 2) + rng.randint(0, 3)
        assert zeta_gl_n_gl_n(d1, d2, m, 40, strict=True).product_is_one()
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"too slow: {elapsed:.1f}s"
    _report(10, "zeta polynomiality", f"(60 tuples, bound 40, {elapsed:.1f}s)")


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_invariant_pairing():
    rng = seeded(1011)
    assert invariant_pairing_check(_random_satake(rng, 1), 40)
    assert invariant_pairing_check(_random_satake(rng, 2), 40)
    assert invariant_pairing_check(_random_satake(rng, 3), 30)
    _report(11, "invariant pairing", "(n = 1, 2 at 40; n = 3 at 30)")


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_gl2_functional_equation():
    rng = seeded(1012)
    for _ in range(20):
        d = _random_satake(rng, 2)
        assert gl2_gamma_functional_equation_check(d, 40)
    _report(12, "GL2 functional equation", "(20 pairs, bound 40)")


# -- 13 ----------------------------------------------------------------------

def test_criterion_13_sign_constancy():
    x = Scalar.x_power(1)
    families = [
        WDFamily(rep=WDRep([sp(1, 2)])),
        WDFamily(rep=WDRep([sp(-1, 2)])),
        WDFamily(rep=WDRep([sp(Scalar.make(1, qexp2=1), 3)])),
        WDFamily(rep=WDRep([sp(x, 2), sp(x.inverse(), 2)]), bad_points=(0,)),
        WDFamily(rep=WDRep([sp(1, 2), sp(x, 2), sp(x.inverse(), 2)]),
                 bad_points=(0,)),
    ]
    for fam in families:
        rep = sign_constancy_check(fam)
        assert rep.ok and rep.signs, rep
    _report(13, "sign constancy", "(5 self-dual families)")


# -- 14 ----------------------------------------------------------------------

def test_criterion_14_cli_determinism_and_roundtrip():
    import json
    import pathlib
    from test_cli import run
    from llct.dsl import parse_wd

    golden = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))
    assert len(golden) >= 15
    for path in golden:
        record = json.loads(path.read_text())
        code, out = run(record["argv"])
        assert (code, out) == (record["exit"], record["stdout"]), path.name
    rng = seeded(1014)
    for _ in range(500):
        r = random_unramified_rep(rng) if rng.random() < 0.7 else random_mixed_rep(rng)
        assert parse_wd(r.render()) == r
    _report(14, "CLI golden + round-trip", "(16 commands, 500 reps)")
