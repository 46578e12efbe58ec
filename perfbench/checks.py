"""Independent output checks, built from the standard library alone.

Each checker takes plain data (see gen.py for the input forms; workloads.py
turns llct's outputs into the forms below) and returns None when the
output is right, or a one-line description of what is wrong.  The
expected values are computed here from the inputs, from the defining
formulas (Clebsch-Gordan, the ladder of a Speh block, complete
homogeneous symmetric polynomials, ranks of N^k by exact elimination),
never by calling llct.

A normalised monomial is (c, h, k) with h in {0, 1}: c * q^(h/2) * x^k,
integer powers of q folded into c, as in llct's normal form.
"""

import json
import re
from fractions import Fraction


def norm(mono, q: int) -> tuple:
    c, h2, k = mono
    return (Fraction(c) * Fraction(q) ** (h2 // 2), h2 % 2, k)


def mono_mul(a, b) -> tuple:
    return (a[0] * b[0], a[1] + b[1], a[2] + b[2])


def rational(mono, q: int) -> Fraction:
    c, h, k = norm(mono, q)
    if h or k:
        raise ValueError("monomial is not rational")
    return c


def blocks(rep, q: int) -> list:
    return sorted((norm(a, q), m) for a, m in rep)


def ladder(rep, q: int) -> list:
    """Diagonal of Phi: alpha, alpha/q, ..., alpha/q^(m-1) for each block."""
    return sorted(norm((a[0], a[1] - 2 * j, a[2]), q)
                  for a, m in rep for j in range(m))


def clebsch_gordan(rep1, rep2) -> tuple:
    """Sp(a,m) x Sp(b,n) = sum_k Sp(ab q^-k, m+n-1-2k), k < min(m, n)."""
    return tuple((mono_mul(a, (b[0], b[1] - 2 * k, b[2])), m + n - 1 - 2 * k)
                 for a, m in rep1 for b, n in rep2 for k in range(min(m, n)))


# -- exact linear algebra over Q -----------------------------------------------

def rank(rows) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][c]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / p
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def mat_mul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def rank_sequence(n_rows) -> list:
    """rank N^0, rank N^1, ... down to 0 (N must be nilpotent)."""
    size = len(n_rows)
    ranks, power = [size], n_rows
    for _ in range(size):
        ranks.append(rank(power))
        if ranks[-1] == 0:
            return ranks
        power = mat_mul(power, n_rows)
    raise ValueError("N is not nilpotent")


def jordan_lengths(n_rows) -> list:
    """Sorted Jordan block lengths of a nilpotent N from ranks of N^k."""
    r = rank_sequence(n_rows) + [0]
    out = []
    for k in range(1, len(r) - 1):
        out += [k] * ((r[k - 1] - r[k]) - (r[k] - r[k + 1]))
    return sorted(out)


# -- oracle-q / oracle-fe -------------------------------------------------------

def check_oracle(op, out_blocks, n_rows, q: int):
    """out_blocks: [(normalised alpha, m)] read off classify's result;
    n_rows: the monodromy matrix classify was given, as rationals."""
    if op[0] == "roundtrip":
        expected = op[1]
    else:
        expected = clebsch_gordan(op[1], op[2])
    if ladder(out_blocks, q) != ladder(expected, q):
        return "classified blocks do not reproduce the diagonal of Phi"
    if sorted(m for _a, m in out_blocks) != jordan_lengths(n_rows):
        return "block lengths disagree with the ranks of N^k"
    if sorted(out_blocks) != blocks(expected, q):
        return f"{op[0]}: blocks {sorted(out_blocks)} != {blocks(expected, q)}"
    return None


# -- zeta-cert ----------------------------------------------------------------

def homogeneous(values, deg: int) -> list:
    """h_0..h_deg of the values: coefficients of prod 1/(1 - v T)."""
    h = [Fraction(1)] + [Fraction(0)] * deg
    for v in values:
        for j in range(1, deg + 1):
            h[j] += v * h[j - 1]
    return h


def elementary_poly(values) -> list:
    """Coefficients of prod (1 - v T)."""
    p = [Fraction(1)]
    for v in values:
        p = [a - v * b for a, b in zip(p + [Fraction(0)], [Fraction(0)] + p)]
    return p


def half_power_coef(value: Fraction, exp2: int, q: int) -> dict:
    """value * q^(exp2/2) as a coefficient {(h, x-degree): rational}."""
    if not value:
        return {}
    h = exp2 % 2
    return {(h, 0): value * Fraction(q) ** ((exp2 - h) // 2)}


def zeta_expectation(op, q: int):
    """(base values, doubled q-exponent per degree): every coefficient of
    T^j is (rational from the base values) * q^(j * exp2 / 2)."""
    kind = op[0]
    if kind == "gl1":
        _k, params, m, _b = op
        n = len(params)
        return list(params), -int(2 * m + n - 1)
    _k, p1, p2, m, _b = op
    n = len(p1)
    return [a * b for a in p1 for b in p2], -int(2 * (m + n - 1))


def check_zeta(op, result, q: int):
    """result: True for the pairing and functional-equation checks; for
    the integrals a dict with certified, series, l_inv and product, each
    coefficient given as {(h, x-degree): rational} and series/product as
    {degree: coefficient} over the window 0..bound."""
    if op[0] in ("pairing", "feq"):
        return None if result is True else f"{op[0]} check returned {result!r}"
    if result["certified"] is not True:
        return "zeta integral is not certified"
    bound = op[-1]
    base, exp2 = zeta_expectation(op, q)
    h = homogeneous(base, bound)
    for j in range(bound + 1):
        want = half_power_coef(h[j], j * exp2, q)
        if result["series"].get(j, {}) != want:
            return f"series coefficient of T^{j} is not h_{j} of the parameters"
    for j, e in enumerate(elementary_poly(base)):
        if result["l_inv"].get(j, {}) != half_power_coef(e, j * exp2, q):
            return f"inverse L-factor coefficient of T^{j} is wrong"
    one = {0: {(0, 0): Fraction(1)}}
    if {d: c for d, c in result["product"].items() if c} != one:
        return "certified product is not identically 1"
    return None


# -- cli-calls ----------------------------------------------------------------

_TERM = re.compile(r"(-?)(\d+(?:/\d+)?)?(?:\*?(T)(?:\^(\d+))?)?")


def parse_poly(text: str) -> dict:
    """'1 - 23/9*T + 10/9*T^2' -> {0: 1, 1: -23/9, 2: 10/9}."""
    out = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        mt = _TERM.fullmatch(term)
        if not mt or not (mt.group(2) or mt.group(3)):
            raise ValueError(f"unexpected polynomial term {term!r}")
        sign, coef, t, exp = mt.groups()
        c = Fraction(coef) if coef else Fraction(1)
        deg = (int(exp) if exp else 1) if t else 0
        if deg in out:
            raise ValueError(f"repeated degree in {text!r}")
        out[deg] = -c if sign else c
    return out


def poly_from_roots(roots) -> dict:
    return {d: c for d, c in enumerate(elementary_poly(roots)) if c}


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return {d: c for d, c in out.items() if c}


def _l_roots(rep, q):
    """Frobenius on Ker N: alpha * q^(1-m) per block."""
    return [rational((a[0], a[1] - 2 * (m - 1), a[2]), q) for a, m in rep]


def _lss_roots(rep, q):
    return [rational(n, q) for n in ladder(rep, q)]


def _segment(text):
    mt = re.fullmatch(r"Delta\(unr\(([^()]*)\),(\d+)\)", text)
    if not mt:
        raise ValueError(f"unexpected segment {text!r}")
    return Fraction(mt.group(1)), int(mt.group(2))


def _generic_and_special_ranks(entries, at: Fraction):
    """Ranks of N^k over Q(x) and at x = at.  Q(x)-ranks are read at a
    point beyond every root of the minors: N is at most 4 x 4 with entries
    whose coefficients have absolute sum <= 2, so every minor of N^k has
    integer coefficients below 2^33 and, by Cauchy's bound, roots below
    2^34."""
    def at_point(v):
        return [[sum(Fraction(c) * v ** d for d, c in cell.items()) for cell in row]
                for row in entries]
    return rank_sequence(at_point(Fraction(2) ** 61 - 1)), rank_sequence(at_point(at))


def check_cli(expect, q: int, returncode: int, stdout: str):
    """One CLI call: exit code 0, one JSON line, and the verb's identity."""
    if returncode != 0:
        return f"exit code {returncode}: {stdout.strip()[:200]}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}"
    try:
        out = json.loads(lines[0])
        return _check_cli_output(expect, q, out)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output {lines[0][:200]!r}: {e}"


def _check_cli_output(expect, q, out):
    kind, data = expect
    if kind == "classify":
        want_coords = sorted(str(rational(a, q)) for a, _m in data)
        if sorted(out["coords"]["1"]) != want_coords:
            return "classify coordinates differ from the block parameters"
        if out["stratum"]["1"] != sorted((m for _a, m in data), reverse=True):
            return "classify stratum differs from the block lengths"
        return None
    if kind == "llc":
        got = sorted(_segment(s) for s in out["segments"])
        if got != sorted((rational(a, q), m) for a, m in data):
            return "llc segments differ from the blocks"
        return None
    if kind == "L":
        ok = parse_poly(out["L_inverse"]) == poly_from_roots(_l_roots(data, q))
        return None if ok else "L differs from prod (1 - alpha q^(1-m) T)"
    if kind == "Lss":
        ok = parse_poly(out["Lss_inverse"]) == poly_from_roots(_lss_roots(data, q))
        return None if ok else "Lss differs from the product over the ladder"
    if kind == "gamma":
        if out["unit"] != "1":
            return "unramified gamma has a non-trivial unit"
        num, _, den = out["gamma"].partition(" / ")
        num = parse_poly(num.strip("()"))
        den = parse_poly(den.strip("()")) if den else {0: Fraction(1)}
        dual1 = tuple(((1 / a[0], 2 * (m - 2) - a[1], -a[2]), m) for a, m in data)
        lhs = poly_mul(num, poly_from_roots(_lss_roots(dual1, q)))
        rhs = poly_mul(den, poly_from_roots(_lss_roots(data, q)))
        return None if lhs == rhs else "gamma != Lss(r) / Lss(r^*(1))"
    if kind == "eps":
        unit = Fraction(1)
        for a, m in data:
            for j in range(m - 1):
                unit *= -rational((a[0], a[1] - 2 * j, a[2]), q)
        if out["cond"] != sum(m - 1 for _a, m in data):
            return "epsilon conductor differs from sum (m - 1)"
        return None if Fraction(out["unit"]) == unit else "epsilon unit is wrong"
    if kind == "rsL":
        r1, r2, shift = data
        roots = [x * Fraction(q) ** -shift for x in _l_roots(clebsch_gordan(r1, r2), q)]
        ok = parse_poly(out["RS_L_inverse"]) == poly_from_roots(roots)
        return None if ok else "Rankin-Selberg L differs from the Clebsch-Gordan blocks"
    if kind == "ok":
        return None if out["ok"] is True else "check reported ok = false"
    if kind == "family":
        entries, at = data
        generic, special = _generic_and_special_ranks(entries, at)
        want = "Isomorphism" if generic == special else "ProperSurjection"
        return None if out["result"] == want else f"family-check gave {out['result']}"
    if kind == "zeta":
        params, m, bound = data
        base = [p * Fraction(q) ** -int((2 * m + 1) / 2) for p in params]
        if out["certified"] is not True:
            return "zeta integral is not certified"
        if out["product"] != f"1 + O(T^{bound + 1})":
            return "certified product is not identically 1"
        series, tail = out["series"].rsplit(" + O(", 1)
        h = homogeneous(base, bound)
        if tail != f"T^{bound + 1})" or parse_poly(series) != {
                j: c for j, c in enumerate(h) if c}:
            return "zeta series differs from h_j of the twisted parameters"
        if parse_poly(out["L_inverse"]) != poly_from_roots(base):
            return "zeta inverse L-factor is wrong"
        return None
    raise ValueError(f"unknown expectation {kind!r}")
