"""Matrix oracle: realization, classification, filtration, rank profiles."""

import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_unramified_rep, seeded
from llct import session
from llct.dsl import parse_matrix, parse_wd
from llct.exact import DomainError, Scalar
from llct.linalg import (FE, FieldQ, charpoly, identity, kernel, mat_mul,
                         mat_vec, rational_roots, row_echelon, scalar_to_fe)
from llct.oracle import (MatrixWD, classify, dual_matrix, monodromy_filtration,
                         realize, tensor_matrix, twist_matrix)
from llct.partitions import Partition
from llct.wd import (UNRAMIFIED_LABEL, WDFamily, WDRep, family_jordan_at,
                     family_jordan_generic, sp)


def rat(v):
    return Scalar.from_rational(Fraction(v))


def test_realize_examples():
    m = realize(WDRep([sp(5, 1)]))
    assert m.phi == ((Fraction(5),),) and m.n == ((Fraction(0),),)

    m2 = realize(WDRep([sp(1, 2)]))
    assert m2.phi == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 3)))
    assert m2.n == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))

    m3 = realize(WDRep([sp(5, 1), sp(1, 2)]))
    assert m3.size == 3  # block diagonal


def test_defining_relation_enforced():
    # Phi = diag(1, 1) with N = shift violates N Phi = q Phi N
    with pytest.raises(DomainError):
        MatrixWD.make([[1, 0], [0, 1]], [[0, 0], [1, 0]])
    with pytest.raises(DomainError):
        MatrixWD.make([[1]], [[1]])  # N not nilpotent


def test_classify_identity_matrix():
    m = MatrixWD.make([[1, 0], [0, 1]], [[0, 0], [0, 0]])
    assert classify(m) == WDRep([sp(1, 1), sp(1, 1)])


def test_classify_realize_roundtrip_randomized():
    rng = seeded(11)
    for _ in range(60):
        r = random_unramified_rep(rng)
        assert classify(realize(r)) == r


def test_classify_conjugation_invariance():
    rng = seeded(13)
    for _ in range(15):
        r = random_unramified_rep(rng, max_rank=5)
        m = realize(r)
        n = m.size
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            try:
                conj = m.conjugate(p)
                break
            except ZeroDivisionError:
                continue
        assert classify(conj) == r


def test_tensor_oracle_steinberg_squared():
    st = realize(WDRep([sp(1, 2)]))
    got = classify(tensor_matrix(st, st))
    assert got == WDRep([sp(1, 3), sp(Fraction(1, 3), 1)])


def test_dual_and_twist_matrices():
    r = WDRep([sp(2, 2), sp(5, 1)])
    m = realize(r)
    from llct.wd import dual, twist
    assert classify(dual_matrix(m)) == dual(r)
    assert classify(twist_matrix(m, 1)) == twist(r, 1)
    assert classify(twist_matrix(m, -2)) == twist(r, -2)


def test_monodromy_filtration_examples():
    flat = monodromy_filtration(realize(WDRep([sp(2, 1), sp(5, 1)])))
    assert set(flat) == {0} and sorted(s.render() for s in flat[0]) == ["2", "5"]

    st = monodromy_filtration(realize(WDRep([sp(1, 2)])))
    assert {k: [s.render() for s in v] for k, v in st.items()} == \
        {1: ["1"], -1: ["1/3"]}

    st3 = monodromy_filtration(realize(WDRep([sp(1, 3)])))
    assert {k: [s.render() for s in v] for k, v in st3.items()} == \
        {2: ["1"], 0: ["1/3"], -2: ["1/9"]}


def test_monodromy_filtration_symmetry_on_sums():
    rng = seeded(17)
    for _ in range(8):
        r = random_unramified_rep(rng, max_rank=6)
        degs = monodromy_filtration(realize(r))
        for k, eigs in degs.items():
            assert len(degs[-k]) == len(eigs)


# -- Deligne's convolution: the filtration's reference over Q -------------------

def _row_space(vectors):
    return row_echelon(FieldQ, vectors)[0]


def _dim(vectors):
    return len(_row_space(vectors))


def _intersect(U, V):
    """Basis of the intersection of the row spaces of two bases."""
    if not U or not V:
        return []
    stacked = U + [[-e for e in v] for v in V]
    deps = kernel(FieldQ, [list(col) for col in zip(*stacked)])
    return _row_space([[sum(c[i] * u[j] for i, u in enumerate(U))
                        for j in range(len(U[0]))] for c in deps])


def deligne_filtration(m):
    """{degree: sorted Phi-eigenvalues} of the filtration
    W_k = sum over i - j = k of (Ker N^(i+1) cap Im N^j)
    (Deligne, Publ. Math. IHES 52, 1980, 1.6.13) for a MatrixWD over Q,
    after checking N W_k <= W_{k-2} and N^k : Gr_k ~ Gr_{-k}."""
    n = m.size
    phi, nn = [list(r) for r in m.phi], [list(r) for r in m.n]
    powers = [identity(FieldQ, n)]
    for _ in range(n):
        powers.append(mat_mul(FieldQ, powers[-1], nn))
    kers = [kernel(FieldQ, p) for p in powers]
    ims = [_row_space([list(col) for col in zip(*p)]) for p in powers]
    W = {k: [] for k in range(-n - 2, n + 1)}
    for k in range(-n, n + 1):
        for j in range(max(-k, 0), n):  # i = j + k; Im N^n = 0 and Ker N^n = Q^n
            W[k] = _row_space(W[k] + _intersect(kers[min(j + k + 1, n)], ims[j]))

    def image(k, vectors):
        return [mat_vec(FieldQ, powers[k], v) for v in vectors]

    spaces = {}
    for lam in dict.fromkeys(rational_roots(charpoly(FieldQ, phi))):
        shifted = [[e - lam if i == j else e for j, e in enumerate(row)]
                   for i, row in enumerate(phi)]
        spaces[lam] = kernel(FieldQ, shifted)
    out = {}
    for k in range(-n, n + 1):
        assert _dim(W[k - 2] + image(1, W[k])) == _dim(W[k - 2])
        gr = _dim(W[k]) - _dim(W[k - 1])
        if k > 0:
            assert _dim(W[-k - 1] + image(k, W[k])) - _dim(W[-k - 1]) == gr
        if gr:
            out[k] = sorted((Scalar.make(lam) for lam, e in spaces.items()
                             for _ in range(_dim(_intersect(e, W[k]))
                                            - _dim(_intersect(e, W[k - 1])))),
                            key=Scalar.sort_key)
    return out


def unimodular(rng, n):
    """L * U with unit diagonals and off-diagonal entries in [-2, 2]."""
    L = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
         for i in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_filtration_matches_deligne_convolution(q):
    """48 seeded matrices per q of rank up to 6, every other one conjugated
    by a unimodular L*U; 10 s per q."""
    session.set_q(q)
    rng = seeded(2800 + q)
    t0 = time.time()
    for i in range(48):
        m = realize(random_unramified_rep(rng, max_rank=6))
        if i % 2:
            m = m.conjugate(unimodular(rng, m.size))
        assert list(monodromy_filtration(m).items()) == list(deligne_filtration(m).items())
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"too slow: {elapsed:.1f}s"


def test_classify_with_x_and_halfpowers():
    x = Scalar.x_power(1)
    r = WDRep([sp(x, 2), sp(Scalar.make(2, qexp2=1), 1)])
    assert classify(realize(r)) == r


# Shapes that took a minute or more while the eigen pipeline went through a
# square-free gcd and Fraction root candidates: long Speh blocks carry q^120
# in the characteristic polynomial, and mixed x / q^(1/2) / rational
# eigenvalues blew up the rational-function gcd.
@pytest.mark.parametrize("expr", [
    "Sp(unr(10/7),16)",
    "Sp(unr(2),8)+Sp(unr(5/7),8)+Sp(unr(11),8)",
    "Sp(unr(x),3)+Sp(unr(5/7*q^(1/2)),2)",
    "Sp(unr(x),1)+Sp(unr(q^(1/2)),1)+Sp(unr(2),2)",
])
def test_former_cliff_shapes_round_trip_within_budget(expr):
    r = parse_wd(expr)
    t0 = time.time()
    assert classify(realize(r)) == r
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"too slow: {elapsed:.1f}s"


def _too_slow(signum, frame):
    raise AssertionError("classify of the conjugate took over 20 s")


def test_dense_conjugate_over_fe_within_budget():
    """A 5 x 5 mixing x-, q^(1/2)- and rational eigenvalues, conjugated by
    a unimodular L*U: classify took over a minute while the characteristic
    polynomial over Q(x)(sqrt q) divided by pivots."""
    m = realize(parse_wd("Sp(unr(x),2)+Sp(unr(q^(1/2)),1)+Sp(unr(2),2)"))
    P = unimodular(random.Random(2), m.size)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(20)
    try:
        assert classify(m.conjugate(P)) == classify(m)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dense_conjugate_over_q_within_budget():
    """A 16 x 16 with four rational Speh ladders, conjugated by a unimodular
    L*U so that Phi and N are dense: classify runs on the integer multiples
    of Phi and N and returns the input in under 1 s."""
    r = parse_wd("Sp(unr(2),4)+Sp(unr(5/7),4)+Sp(unr(11),4)+Sp(unr(13),4)")
    m = realize(r).conjugate(unimodular(random.Random(16), 16))
    assert m.field == "Q" and sum(1 for row in m.phi for e in row if e) > 128
    t0 = time.time()
    assert classify(m) == r
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"too slow: {elapsed:.2f}s"


def test_long_block_tensor_within_budget():
    t0 = time.time()
    got = classify(tensor_matrix(realize(WDRep([sp(2, 1)])),
                                 realize(WDRep([sp(Fraction(5, 7), 16)]))))
    elapsed = time.time() - t0
    assert got == WDRep([sp(Fraction(10, 7), 16)])  # Sp(a,1) x Sp(b,n) = Sp(ab,n)
    assert elapsed < 5.0, f"too slow: {elapsed:.1f}s"


def test_classify_rejects_non_monomial_eigenvalues():
    # Phi with eigenvalues 1 +- sqrt(2): outside the supported class
    phi = [[1, 1], [1, -1]]
    with pytest.raises(DomainError):
        classify(MatrixWD.make(phi, [[0, 0], [0, 0]]))


NOT_MONOMIAL = ("semisimplification not supported: eigenvalue outside the "
                "monomial class c*q^(h/2)*x^k")


@pytest.mark.parametrize("q, phi, expected", [
    (3, "[[0,x],[1,0]]", None),                 # Newton slope 1/2
    (3, "[[(1+x)]]", None),                     # not a monomial
    (3, "[[x,0],[0,(x+x^2)]]", None),           # shares the leading term x
    (3, "[[0,2*x^2],[1,0]]", None),             # edge roots c = +-sqrt(2)
    (3, "[[2*x,0],[0,3*q^(1/2)*x]]", "Sp(unr(2*x),1)+Sp(unr(3*x*q^(1/2)),1)"),
    (5, "[[0,5*x^2],[1,0]]", "Sp(unr(-x*q^(1/2)),1)+Sp(unr(x*q^(1/2)),1)"),
])
def test_classify_over_fe_accepts_monomial_eigenvalues_only(q, phi, expected):
    session.set_q(q)
    rows = parse_matrix(phi)
    m = MatrixWD.make(rows, [[0] * len(rows) for _ in rows])
    assert m.field == "FE"
    if expected is None:
        with pytest.raises(DomainError) as exc:
            classify(m)
        assert str(exc.value) == NOT_MONOMIAL
    else:
        assert classify(m).render() == expected


def generic_rank_profile(n_rows, sample_points):
    """Jordan type over Q(x), and at each rational sample point."""
    fam = WDFamily(matrix_n=n_rows)
    generic = family_jordan_generic(fam).as_dict()[UNRAMIFIED_LABEL]
    special = {Fraction(a): family_jordan_at(fam, a).as_dict()[UNRAMIFIED_LABEL]
               for a in sample_points}
    return generic, special


def test_generic_rank_profile_examples():
    x = Scalar.x_power(1)
    z = Scalar.zero()
    gen, spec = generic_rank_profile([[z, x], [z, z]], [0, 1])
    assert gen == Partition.of(2)
    assert spec[Fraction(0)] == Partition.of(1, 1)
    assert spec[Fraction(1)] == Partition.of(2)

    c = rat(4)
    gen2, spec2 = generic_rank_profile([[z, c], [z, z]], [0, 5])
    assert gen2 == Partition.of(2)
    assert all(p == gen2 for p in spec2.values())

    xm1 = Scalar.from_xpoly({1: Fraction(1), 0: Fraction(-1)})
    gen3, spec3 = generic_rank_profile(
        [[z, x, z], [z, z, xm1], [z, z, z]], [0, 1, 2])
    assert gen3 == Partition.of(3)
    assert spec3[Fraction(0)] == Partition.of(2, 1)
    assert spec3[Fraction(1)] == Partition.of(2, 1)
    assert spec3[Fraction(2)] == Partition.of(3)


@pytest.mark.parametrize("text", ["Sp(unr(100003),2)",
                                  "Sp(unr(100003),1)+Sp(unr(100019),1)"])
def test_classify_eigenvalues_with_large_prime_factors(text):
    r = parse_wd(text)
    assert classify(realize(r)) == r


def test_classify_rejects_irrational_pair_beside_long_block_quickly():
    # Phi = diag(Sp(unr(10/7),16), companion of X^2 - 2*7^9*3^20): the
    # constant coefficient of its characteristic polynomial has 64,260
    # divisors, and the pair of eigenvalues is irrational
    m = realize(parse_wd("Sp(unr(10/7),16)"))
    pad = [0] * 16
    phi = [list(r) + [0, 0] for r in m.phi]
    phi += [pad + [0, 2 * 7 ** 9 * 3 ** 20], pad + [1, 0]]
    nn = [list(r) + [0, 0] for r in m.n] + [[0] * 18, [0] * 18]
    mat = MatrixWD.make(phi, nn)
    t0 = time.time()
    with pytest.raises(DomainError):
        classify(mat)
    elapsed = time.time() - t0
    assert elapsed < 0.5, f"too slow: {elapsed:.2f}s"


def test_defining_relation_check_sees_every_entry_of_a_tensor_n():
    # Phi is diagonal, so perturbing N at (i, j) keeps N Phi = q Phi N
    # exactly when phi_j = q phi_i; every other single-entry change fails
    m = tensor_matrix(realize(WDRep([sp(2, 4)])), realize(WDRep([sp(Fraction(5, 7), 4)])))
    assert m.size == 16
    phi = [list(r) for r in m.phi]
    q = Fraction(3)
    failing = 0
    for i in range(16):
        for j in range(16):
            nn = [list(r) for r in m.n]
            nn[i][j] += Fraction(1, 2)
            if phi[j][j] == q * phi[i][i]:
                MatrixWD.make(phi, nn)
                continue
            failing += 1
            with pytest.raises(DomainError, match=r"N\*Phi = q\*Phi\*N fails"):
                MatrixWD.make(phi, nn)
    assert failing > 200


@pytest.mark.parametrize("size", [2, 5, 16])
def test_nilpotency_check_sees_far_corners(size):
    # N = E_{0,n-1} + E_{n-1,0} commutes with Phi = 0, and N^2 is not 0
    nn = [[0] * size for _ in range(size)]
    nn[0][-1] = nn[-1][0] = 1
    with pytest.raises(DomainError, match="N is not nilpotent"):
        MatrixWD.make([[0] * size for _ in range(size)], nn)


# Frobenius acts invertibly, so a singular Phi is rejected where the pair is
# made, before classify or dual_matrix would divide by zero
@pytest.mark.parametrize("phi, nn", [
    ([[0]], [[0]]),
    ([[0, 0], [0, 1]], [[0, 0], [0, 0]]),
])
def test_singular_phi_is_a_domain_error(phi, nn):
    with pytest.raises(DomainError, match="Phi is singular"):
        MatrixWD.make(phi, nn)
    for use in (classify, dual_matrix):
        with pytest.raises(DomainError, match="Phi is singular"):
            use(MatrixWD.make(phi, nn))


# The five domain errors of a pair over Q, each raised from the integer
# multiples of Phi and N; Fraction entries make the scaling nontrivial.
@pytest.mark.parametrize("phi, nn, step, message", [
    ([[1, 0], [0, Fraction(1, 2)]], [[0, 0], [1, 0]], "make",
     "N*Phi = q*Phi*N fails"),
    ([[0, 0], [0, 0]], [[0, Fraction(2, 3)], [5, 0]], "make", "N is not nilpotent"),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], [[0, 0], [0, 0]], "make",
     "Phi is singular"),
    ([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]],
     [[0, 0], [0, 0]], "classify",
     "semisimplification not supported: eigenvalue outside the monomial class"),
    ([[Fraction(2, 3), Fraction(1, 5)], [0, Fraction(2, 3)]], [[0, 0], [0, 0]], "classify",
     "semisimplification not supported for this eigenstructure (Phi not diagonalizable)"),
])
def test_q_path_domain_errors_have_exact_messages(phi, nn, step, message):
    with pytest.raises(DomainError) as exc:
        m = MatrixWD.make(phi, nn)
        assert step == "classify" and m.field == "Q"
        classify(m)
    assert type(exc.value) is DomainError and str(exc.value) == message


_BLOCKS = st.tuples(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(5, 7)]),
                    st.integers(-3, 3), st.integers(-1, 1), st.integers(1, 2))


# alpha = c * q^(h/2) * x^k; for a square q the q^(1/2) folds into c,
# and eigenvalues q^(1/2) apart lie on different chains
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 5, 9, 25]), st.lists(_BLOCKS, min_size=1, max_size=3))
@example(4, [(1, 0, 0, 1), (1, 1, 0, 1), (1, 2, 0, 1)])
@example(9, [(1, 1, 0, 2), (1, 0, 0, 2)])
def test_roundtrip_over_q_with_half_powers_and_x(q, blocks):
    session.set_q(q)
    r = WDRep([sp(Scalar.make(c, qexp2=h, xexp=k), m) for c, h, k, m in blocks])
    assert classify(realize(r)) == r


# One lift for every matrix entry: Q when all entries are rational (ints,
# Fractions, rational Scalars, constant FE), with Fraction entries; else
# Q(x)(sqrt q), with rational entries as constant FE.
_X, _SQ = Scalar.x_power(1), Scalar.qpow(1)


def _zero(n):
    return [[0] * n for _ in range(n)]


@pytest.mark.parametrize("entry", [2, Fraction(2), rat(2), FE.const(Fraction(2))])
def test_lift_picks_q_for_rational_entries(entry):
    m = MatrixWD.make([[entry, 0], [0, Fraction(5, 7)]], _zero(2))
    assert m.field == "Q"
    assert all(type(e) is Fraction for row in m.phi + m.n for e in row)
    assert m.phi == ((2, 0), (0, Fraction(5, 7)))


@pytest.mark.parametrize("entry", [_X, _SQ, Scalar.make(3, qexp2=1, xexp=-2)])
def test_lift_one_x_or_root_q_entry_gives_fe(entry):
    m = MatrixWD.make([[entry, 0], [0, rat(5)]], _zero(2))
    assert m.field == "FE"
    assert all(type(e) is FE for row in m.phi + m.n for e in row)
    assert m.phi[1][1] == FE.const(Fraction(5)) and m.n[0][0] == FE.const(0)
    assert m.phi[0][0] == scalar_to_fe(entry)


def test_lift_conjugate_and_tensor_fields():
    mq = MatrixWD.make([[2, 0], [0, 5]], _zero(2))
    mfe = MatrixWD.make([[_X, 0], [0, 5]], _zero(2))
    by_q = mq.conjugate([[1, 1], [0, 1]])
    assert by_q.field == "Q" and by_q.phi == ((2, 3), (0, 5))
    by_x = mq.conjugate([[1, _X], [0, 1]])
    assert by_x.field == "FE"
    assert by_x.phi[0][1] == scalar_to_fe(Scalar.x_power(1, 3))
    assert mfe.conjugate([[1, 1], [0, 1]]).field == "FE"
    assert mfe.conjugate([[1, rat(1)], [0, 1]]).field == "FE"
    assert tensor_matrix(mq, mq).field == "Q"
    assert tensor_matrix(mq, mfe).field == "FE"
    assert tensor_matrix(mfe, mq).field == "FE"
    assert classify(tensor_matrix(mq, mfe)) == classify(tensor_matrix(mfe, mq))


def test_lift_rejects_root_of_unity_entries():
    z = Scalar.root_of_unity(1, 3)
    message = "scalar outside Q(x)(sqrt q): zeta(1,3)"
    for phi in ([[z]], [[z, 0], [0, _X]], [[_X, 0], [0, z]]):
        with pytest.raises(ValueError) as ei:
            MatrixWD.make(phi, _zero(len(phi)))
        assert type(ei.value) is DomainError and str(ei.value) == message
    mq = MatrixWD.make([[2, 0], [0, 5]], _zero(2))
    with pytest.raises(ValueError) as ei:
        mq.conjugate([[1, z], [0, 1]])
    assert str(ei.value) == message
