"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each checker accepts llct's real output and rejects a corrupted copy; the
reference kernel, the generators and the checkers import nothing from
llct.
"""

import ast
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import gen
import refkernel
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LLCT = workloads.import_llct(ROOT / "src")


def _imports(path):
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def test_reference_kernel_generators_and_checkers_import_only_stdlib():
    for name in ("refkernel.py", "gen.py", "checks.py"):
        mods = _imports(HERE / name) - {"checks"}
        assert mods <= set(sys.stdlib_module_names), (name, mods)


def test_reference_kernel_loads_no_llct_module():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import refkernel; "
            "refkernel.run(6); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'llct'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_reference_kernel_solves_hilbert_system():
    assert sum(refkernel.hilbert_solve(5)) == 25


# -- oracle -----------------------------------------------------------------

def _oracle_result(op):
    wl = workloads.Oracle(LLCT, "oracle-q")
    return wl, wl.call(wl.prepare(op))


def test_oracle_checker_accepts_roundtrip_and_tensor():
    for op in (("roundtrip", (((Fraction(2), 2, 0), 3), ((Fraction(5), 0, 0), 1))),
               ("tensor", (((Fraction(2), 0, 0), 2),), (((Fraction(1, 7), -2, 0), 3),)),
               ("roundtrip", (((Fraction(5), 1, 1), 2), ((Fraction(2), 1, 1), 1)))):
        wl, result = _oracle_result(op)
        assert wl.check(op, result) is None


def test_oracle_checker_rejects_changed_block_length_and_parameter():
    op = ("tensor", (((Fraction(2), 0, 0), 2),), (((Fraction(1, 7), -2, 0), 3),))
    _wl, (mat, rep) = _oracle_result(op)
    n_rows = [[workloads.plain_entry(e) for e in row] for row in mat.n]
    out = [(workloads.plain_scalar(b.alpha), b.m) for b in rep.blocks]
    assert checks.check_oracle(op, out, n_rows, 3) is None
    longer = [(out[0][0], out[0][1] + 1)] + out[1:]
    assert checks.check_oracle(op, longer, n_rows, 3)
    (c, h, k), m = out[0]
    moved = [((c * 5, h, k), m)] + out[1:]
    assert checks.check_oracle(op, moved, n_rows, 3)
    # the same blocks against a monodromy with a different Jordan type
    zero_n = [[0] * len(n_rows) for _ in n_rows]
    assert checks.check_oracle(op, out, zero_n, 3)


# -- zeta -------------------------------------------------------------------

def test_zeta_checker_accepts_real_output_and_rejects_changed_coefficient():
    wl = workloads.Zeta(LLCT, "zeta-cert")
    for op in (("gl1", (Fraction(2), Fraction(5, 7)), Fraction(-1, 2), 12),
               ("gl1", (Fraction(2), Fraction(5), Fraction(1, 3)), Fraction(1), 12),
               ("glnn", (Fraction(2), Fraction(5)), (Fraction(7), Fraction(1, 2)),
                Fraction(1, 2), 8)):
        res = wl.call(wl.prepare(op))
        assert wl.check(op, res) is None
        plain = {"certified": True,
                 "series": {d: workloads.plain_coef(res.series.coeff(d))
                            for d in range(op[-1] + 1)},
                 "l_inv": {d: workloads.plain_coef(c)
                           for d, c in res.l_inv.coeffs.items()},
                 "product": {0: {(0, 0): Fraction(1)}}}
        assert checks.check_zeta(op, plain, 3) is None
        key, = plain["series"][3]
        plain["series"][3] = {key: plain["series"][3][key] + 1}
        assert checks.check_zeta(op, plain, 3)
        plain["series"][3] = {key: plain["series"][3][key] - 1}
        plain["product"][2] = {(0, 0): Fraction(1)}
        assert checks.check_zeta(op, plain, 3)
        plain["product"] = {0: {(0, 0): Fraction(1)}}
        plain["certified"] = False
        assert checks.check_zeta(op, plain, 3)
    assert checks.check_zeta(("pairing", (2, 3), 20), False, 3)


# -- cli --------------------------------------------------------------------

def _cli(q, argv):
    return workloads.Cli(LLCT, "cli-calls").call_in_process(["--q", str(q)] + argv)


def _render_poly(coeffs):
    parts = []
    for d, c in sorted(coeffs.items()):
        t = "" if d == 0 else ("T" if d == 1 else f"T^{d}")
        body = str(abs(c)) if not t else (t if abs(c) == 1 else f"{abs(c)}*{t}")
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


def test_cli_checker_accepts_every_verb_of_a_round():
    for seed in (1, 2):
        for q, argv, expect in next(gen.rounds("cli-calls", seed)):
            assert checks.check_cli(expect, q, *_cli(q, argv)) is None, argv


def test_cli_checker_rejects_l_factor_with_one_root_changed():
    rep = (((Fraction(2), 0, 0), 1), ((Fraction(5), 2, 0), 3))
    q, argv = 5, ["L", gen.render_rep(rep)]
    code, out = _cli(q, argv)
    assert checks.check_cli(("L", rep), q, code, out) is None
    roots = [Fraction(2), Fraction(5 * 5, 5 ** 2)]
    assert json.loads(out)["L_inverse"] == _render_poly(checks.poly_from_roots(roots))
    roots[1] += 1
    bad = json.dumps({"L_inverse": _render_poly(checks.poly_from_roots(roots))})
    assert checks.check_cli(("L", rep), q, 0, bad + "\n")


def test_cli_checker_rejects_bad_exit_lines_flags_and_family_result():
    expect = ("ok", None)
    assert checks.check_cli(expect, 3, 0, '{"ok": true}\n') is None
    assert checks.check_cli(expect, 3, 0, '{"ok": false}\n')
    assert checks.check_cli(expect, 3, 3, '{"ok": true}\n')
    assert checks.check_cli(expect, 3, 0, '{"ok": true}\n{"ok": true}\n')
    entries = (({}, {1: 1}), ({}, {}))
    fam = ("family", (entries, Fraction(0)))
    code, out = _cli(3, ["family-check", "--matrix", "[[0,x],[0,0]]", "--at", "0"])
    assert checks.check_cli(fam, 3, code, out) is None
    flipped = out.replace("ProperSurjection", "Isomorphism")
    assert flipped != out and checks.check_cli(fam, 3, 0, flipped)


def test_cli_checker_rejects_wrong_block_length_in_classify():
    rep = (((Fraction(2), 0, 0), 2), ((Fraction(7), 0, 0), 1))
    code, out = _cli(7, ["classify", gen.render_rep(rep)])
    assert checks.check_cli(("classify", rep), 7, code, out) is None
    other = (((Fraction(2), 0, 0), 3), ((Fraction(7), 0, 0), 1))
    assert checks.check_cli(("classify", other), 7, code, out)


def _first_rounds(name, seed, n):
    return list(itertools.islice(gen.rounds(name, seed), n))


def test_rounds_repeat_for_a_seed_and_differ_between_rounds():
    for name in gen.ROUNDS:
        assert _first_rounds(name, 4, 3) == _first_rounds(name, 4, 3)
        assert _first_rounds(name, 4, 3)[1] != _first_rounds(name, 4, 3)[2]
        assert _first_rounds(name, 4, 1) != _first_rounds(name, 5, 1)


def _input(name, op):
    """What a cache keyed on the operation's input would see: the argv on
    cli-calls, and a ladder's shared parameters (all but the bound) on
    zeta-cert."""
    if name == "cli-calls":
        return op[0], tuple(op[1])
    return op[:-1] if name == "zeta-cert" else op


def test_thirty_rounds_repeat_no_input():
    for name in gen.ROUNDS:
        for seed in (1, 2):
            inputs = [_input(name, op) for r in _first_rounds(name, seed, 30)
                      for op in r]
            if name == "zeta-cert":  # one input per ladder, shared by its rungs
                per_set = sum(len(ladder) for _k, _n, ladder, _s in gen.ZETA_LADDERS)
                ladders = len(inputs) // per_set * len(gen.ZETA_LADDERS)
                assert len(set(inputs)) == ladders
            else:
                assert len(set(inputs)) == len(inputs), name


def test_an_exhausted_input_space_is_an_error_not_a_hang():
    fresh = gen.Fresh()
    assert fresh(lambda: 1) == 1
    with pytest.raises(RuntimeError):
        fresh(lambda: 1)
