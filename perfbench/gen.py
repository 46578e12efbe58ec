"""Seeded input generators for the four workloads.

Everything here is plain data built from the standard library alone, so
the same inputs can be handed to llct and to the independent checkers.

A monomial is a tuple (c, h2, k) standing for c * q^(h2/2) * x^k with c a
Fraction; a block is (monomial, m) for Sp(unr(monomial), m); a
representation is a tuple of blocks.  `rounds(workload, seed)` yields
the rounds of a run in order; round i is a fixed list of operations drawn
from random.Random(f"{workload}:{seed}:{i}").  An operation whose input an
earlier draw of the run already made is drawn again (on zeta-cert the
unit is a ladder, whose rungs share their parameters), so no input is
repeated in a run and the same seed gives the same rounds.
"""

import itertools
import random
from fractions import Fraction

IN_PROCESS_Q = 3
CLI_QS = (3, 5, 7, 8)

# Coefficients: primes other than 3 (the in-process q) and their inverses.
# 16 coefficients and 5 exponents give 80 inputs for each single-block
# shape, the narrowest part of the input space (see MAX_REDRAWS).
PRIMES = (2, 5, 7, 11, 13, 17, 19, 23)
POOL = tuple(Fraction(p) for p in PRIMES) + tuple(Fraction(1, p) for p in PRIMES)
# Redraws allowed for one operation before a run counts its input space as
# used up.  A single-block oracle-fe template has 80 inputs, so an oracle-fe
# run can make at most 80 rounds (about 80 s on the reference machine).
MAX_REDRAWS = 1000

# oracle-q: round-trip ranks (each rank's block lengths are drawn) and the
# Speh-length pairs of the tensor operations (matrices up to 16 x 16).
Q_ROUNDTRIP_RANKS = (2, 3, 4, 5, 6, 7, 8, 8) * 6
Q_TENSOR_PAIRS = tuple((m, n) for m in range(1, 5) for n in range(m, 5)) * 2

# oracle-fe: block templates (h2 parity, x-degree, m) over Q(x)(sqrt q).
# Each of these rank-2..4 shapes classifies in 20-250 ms; shapes mixing
# x, q^(1/2) and rational eigenvalues take minutes and are left out
# (see README.md).
FE_TEMPLATES = (
    ((1, 1, 2),),
    ((1, 1, 3),),
    ((1, 1, 4),),
    ((1, 1, 2), (1, 1, 1)),
    ((1, 1, 2), (1, 1, 2)),
    ((0, 1, 2), (0, 1, 2)),
    ((0, 1, 3), (0, 1, 1)),
    ((1, 1, 2), (0, 1, 1)),
    ((1, 0, 2), (1, 0, 2)),
    ((1, 0, 2), (0, 0, 2)),
    ((0, 1, 1), (1, 0, 1)),
    ((0, -1, 2), (0, 1, 1)),
    ((0, 1, 2), (1, 0, 1)),
)

# zeta-cert: (kind, n, ladder of rising truncation bounds, shifts m).
ZETA_LADDERS = (
    ("gl1", 2, (20, 40, 80, 160), (Fraction(-1, 2), Fraction(1, 2))),
    ("gl1", 3, (20, 40, 80, 160), (Fraction(-1), Fraction(0), Fraction(1))),
    ("glnn", 2, (8, 16, 24), (Fraction(-1, 2), Fraction(1, 2))),
    ("glnn", 3, (10, 13, 16), (Fraction(0), Fraction(1))),
    ("pairing", 2, (20, 30), ()),
    ("feq", 2, (20, 40, 80), ()),
)

# cli-calls: one call per verb in every round.
CLI_VERBS = ("classify", "llc", "L", "Lss", "rsL", "gamma", "eps",
             "eps-ratio", "sign", "family", "zeta")

# Entries of family-check matrices: DSL text -> {x-degree: coefficient}.
MATRIX_ENTRIES = (("0", {}), ("0", {}), ("1", {0: 1}), ("x", {1: 1}),
                  ("-x", {1: -1}), ("2*x", {1: 2}), ("(x-1)", {0: -1, 1: 1}),
                  ("(1+x)", {0: 1, 1: 1}), ("x^2", {2: 1}))


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


class Fresh:
    """Draws operations whose input no earlier draw of the run made."""

    def __init__(self):
        self.seen = set()

    def __call__(self, draw, key=lambda op: op):
        for _ in range(MAX_REDRAWS):
            op = draw()
            if key(op) not in self.seen:
                self.seen.add(key(op))
                return op
        raise RuntimeError(f"no unused input left after {len(self.seen)} draws")


class Deck:
    """Coefficients dealt from a shuffled POOL, reshuffled when used up, so
    that every coefficient comes up equally often within a round."""

    def __init__(self, rng):
        self.rng, self.cards = rng, []

    def deal(self) -> Fraction:
        if not self.cards:
            self.cards = list(POOL)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def rational_mono(rng, deck) -> tuple:
    return (deck.deal(), 2 * rng.randint(-2, 2), 0)


def composition(rng, rank: int, max_m: int = 4) -> list:
    parts = []
    while rank:
        m = rng.randint(1, min(max_m, rank))
        parts.append(m)
        rank -= m
    return parts


def oracle_q_round(rng, fresh) -> list:
    deck = Deck(rng)
    ops = [fresh(lambda: ("roundtrip", tuple((rational_mono(rng, deck), m)
                                             for m in composition(rng, rank))))
           for rank in Q_ROUNDTRIP_RANKS]
    ops += [fresh(lambda: ("tensor", ((rational_mono(rng, deck), m),),
                           ((rational_mono(rng, deck), n),)))
            for m, n in Q_TENSOR_PAIRS]
    return ops


def oracle_fe_round(rng, fresh) -> list:
    deck = Deck(rng)
    return [fresh(lambda: ("roundtrip", tuple(
                ((deck.deal(), h + 2 * rng.randint(-2, 2), k), m)
                for h, k, m in template)))
            for template in FE_TEMPLATES]


def satake(rng, deck, n: int) -> tuple:
    return tuple(c * Fraction(IN_PROCESS_Q) ** (h2 // 2)
                 for c, h2, _k in (rational_mono(rng, deck) for _ in range(n)))


def ladder_head(rng, deck, kind: str, n: int, shifts) -> tuple:
    """The parameters that every rung of a ladder shares."""
    params = satake(rng, deck, n)
    if kind == "glnn":
        return (kind, params, satake(rng, deck, n), rng.choice(shifts))
    if kind == "gl1":
        return (kind, params, rng.choice(shifts))
    return (kind, params)


def zeta_round(rng, fresh) -> list:
    deck, ops = Deck(rng), []
    for kind, n, ladder, shifts in ZETA_LADDERS * 2:
        head = fresh(lambda: ladder_head(rng, deck, kind, n, shifts))
        ops += [head + (b,) for b in ladder]
    return ops


# -- cli-calls ---------------------------------------------------------------

def render_mono(mono) -> str:
    """DSL text of c * q^(h2/2) * x^k."""
    c, h2, k = mono
    parts = [str(c)]
    if h2:
        parts.append(f"q^({Fraction(h2, 2)})")
    if k:
        parts.append("x" if k == 1 else f"x^{k}")
    return "*".join(parts)


def render_rep(rep) -> str:
    return "+".join(f"Sp(unr({render_mono(a)}),{m})" for a, m in rep)


def small_rep(rng, max_rank: int = 4) -> tuple:
    rank, deck = rng.randint(1, max_rank), Deck(rng)
    return tuple((rational_mono(rng, deck), m) for m in composition(rng, rank, 3))


def self_dual_family(rng) -> tuple:
    """Sp(unr(a), m) + Sp(unr(a^-1 q^(m-2)), m), which is r^*(1) = r."""
    m = rng.randint(1, 3)
    c, h2 = rng.choice(POOL), 2 * rng.randint(-1, 1)
    k = rng.choice((1, -1, 2))
    return (((c, h2, k), m), ((1 / c, 2 * (m - 2) - h2, -k), m))


def nilpotent_matrix(rng) -> tuple:
    """Strictly upper-triangular matrix over Q[x]: (DSL text, entries)."""
    n = rng.randint(3, 4)
    cells = [[("0", {}) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cells[i][j] = rng.choice(MATRIX_ENTRIES)
    text = "[" + ",".join("[" + ",".join(t for t, _ in row) + "]"
                          for row in cells) + "]"
    return text, tuple(tuple(p for _, p in row) for row in cells)


def cli_call(rng, verb: str) -> tuple:
    """(q, argv, expectation) for one `python -m llct.cli` call."""
    q = rng.choice(CLI_QS)
    if verb in ("classify", "llc", "L", "Lss", "gamma", "eps"):
        rep = small_rep(rng)
        return q, [verb, render_rep(rep)], (verb, rep)
    if verb == "rsL":
        r1, r2 = small_rep(rng, 2), small_rep(rng, 2)
        shift = rng.choice((-1, 0, 1))
        return (q, ["rsL", render_rep(r1), render_rep(r2), "--shift", str(shift)],
                ("rsL", (r1, r2, shift)))
    if verb == "eps-ratio":
        rep = small_rep(rng)
        return q, ["check", "eps-ratio", render_rep(rep)], ("ok", None)
    if verb == "sign":
        rep = self_dual_family(rng)
        return q, ["check", "sign", render_rep(rep), "--bad", "0"], ("ok", None)
    if verb == "family":
        text, entries = nilpotent_matrix(rng)
        at = rng.choice((0, 1, -1, 2))
        return (q, ["family-check", "--matrix", text, "--at", str(at)],
                ("family", (entries, Fraction(at))))
    if verb == "zeta":
        params = tuple(rng.choice(POOL) for _ in range(2))
        m = rng.choice((Fraction(-1, 2), Fraction(1, 2)))
        bound = rng.choice((10, 20, 30))
        argv = ["zeta", "--n1", "2", "--n2", "1",
                "--params", ",".join(str(p) for p in params),
                "--m", str(m), "--bound", str(bound)]
        return q, argv, ("zeta", (params, m, bound))
    raise ValueError(f"unknown verb {verb!r}")


def cli_round(rng, fresh) -> list:
    return [fresh(lambda: cli_call(rng, verb), key=lambda op: (op[0], tuple(op[1])))
            for verb in CLI_VERBS]


ROUNDS = {
    "oracle-q": oracle_q_round,
    "oracle-fe": oracle_fe_round,
    "zeta-cert": zeta_round,
    "cli-calls": cli_round,
}


def rounds(workload: str, seed: int):
    """Rounds 0, 1, 2, ... of a run, no input repeated among them."""
    fresh = Fresh()
    for index in itertools.count():
        yield ROUNDS[workload](rng_for(workload, seed, index), fresh)
