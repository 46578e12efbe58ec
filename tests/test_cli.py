"""CLI: golden-file equality, determinism, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import random_unramified_rep, random_mixed_rep, seeded
import llct
from llct import cli, session
from llct.cli import main
from llct.dsl import parse_wd

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_golden_files():
    files = sorted(GOLDEN.glob("*.json"))
    assert len(files) >= 15
    for path in files:
        record = json.loads(path.read_text())
        code, out = run(record["argv"])
        assert code == record["exit"], path.name
        assert out == record["stdout"], path.name


def test_output_is_deterministic():
    for argv in (["classify", "Sp(unr(2),2)+Sp(unr(5),1)"],
                 ["gamma", "Sp(unr(7),3)"],
                 ["zeta", "--n1", "2", "--n2", "1", "--params", "2,5",
                  "--m", "-1/2", "--bound", "8"]):
        first = run(argv)
        second = run(argv)
        assert first == second


@pytest.mark.parametrize("argv, key, want", [
    (["L", "Sp(unr(x^-1),1)"], "L_inverse", "1 - x^-1*T"),
    (["L", "Sp(unr(1),1)"], "L_inverse", "1 - T"),
    (["zeta", "--n1", "1", "--n2", "1", "--params", "1", "--m", "0", "--bound", "3"],
     "series", "1 + T + T^2 + T^3 + O(T^4)"),
    (["gamma", "Sp(unr(-x^-1*q^(1/2)),2)"], "gamma",
     "(1 + 4/3*x^-1*q^(1/2)*T + x^-2*T^2) / (1 + 4/9*x*q^(1/2)*T + 1/9*x^2*T^2)"),
])
def test_t_sum_parenthesises_only_sums_and_writes_unit_as_sign(argv, key, want):
    code, out = run(argv)
    assert code == 0
    assert json.loads(out)[key] == want


def test_exit_codes():
    assert run(["L", "Sp(unr(1)"])[0] == 2          # parse error
    assert run(["L", "Sp(unr(0),1)"])[0] == 3        # domain error
    assert run(["zeta", "--n1", "2", "--n2", "2", "--params", "2,3",
                "--params2", "5,7", "--m", "-3/2", "--bound", "2"])[0] == 4
    assert run(["L", "Sp(unr(1),2)"])[0] == 0


@pytest.mark.parametrize("argv, col", [
    (["eps", "Sp(unr(1/0),1)"], 8),
    (["eps", "Sp(unr(-7/0),1)"], 9),
    (["eps", "Sp(unr(q^(1/0)),1)"], 11),
    (["eps", "Sp(unr((x+3/0*x^2)),1)"], 11),
    (["eps", "Sp(tau(A, w=1/0, dim=1, cond=1),1)"], 13),
    (["family-check", "--matrix", "[[0,1/0],[0,0]]", "--at", "1"], 5),
])
def test_zero_denominator_is_a_parse_error(argv, col):
    code, out = run(argv)
    assert code == 2
    assert json.loads(out) == {
        "error": "parse",
        "message": f"zero denominator at line 1, column {col} (expected rational)"}


def test_q_flag_changes_session():
    code, out = run(["--q", "5", "L", "Sp(unr(1),2)"])
    assert code == 0
    assert json.loads(out) == {"L_inverse": "1 - 1/5*T"}
    # default q = 3 restored by the session fixture for other tests


@pytest.mark.parametrize("q", ["1", "6", "0", "-4", "abc"])
def test_q_flag_rejects_non_prime_powers(q):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        run(["--q", q, "L", "Sp(unr(2),1)"])
    assert exc.value.code == 2
    assert "q must be a prime power" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_q_flag_accepts_prime_power():
    code, out = run(["--q", "8", "L", "Sp(unr(1),2)"])
    assert code == 0
    assert json.loads(out) == {"L_inverse": "1 - 1/8*T"}


@pytest.mark.parametrize("q", [6, 1, 0, -4, 2 ** 32 + 15, 3.0, True])
def test_set_q_rejects_what_the_cli_rejects(q):
    # 2**32 + 15 is prime, but above the bound
    with pytest.raises(ValueError, match="q must be a prime power"):
        session.set_q(q)
    assert session.get_q() == 3


def test_set_q_accepts_prime_powers_below_bound():
    for q in (2, 4, 8, 9, 25, 2 ** 31, 2 ** 32 - 5):
        session.set_q(q)
        assert session.get_q() == q


def test_parse_render_roundtrip_on_random_reps():
    rng = seeded(103)
    for _ in range(120):
        r = random_unramified_rep(rng)
        assert parse_wd(r.render()) == r
    for _ in range(60):
        r = random_mixed_rep(rng)
        assert parse_wd(r.render()) == r


def test_gamma_renders_negative_unit_coefficient():
    code, out = run(["gamma", "Sp(unr(q^(1/2)),1)"])
    assert code == 0
    assert json.loads(out)["gamma"] == "(1 - q^(1/2)*T) / (1 - 1/9*q^(1/2)*T)"


def test_pairing_verb():
    assert run(["pairing", "--params", "2,5", "--bound", "20"]) == (0, '{"ok": true}\n')
    code, out = run(["pairing", "--params", "2,5", "--bound", "10"])
    assert code == 3
    assert json.loads(out) == {"error": "domain", "message":
                               "bound >= 20 required for a meaningful certificate"}
    code, out = run(["pairing", "--params", "0,1", "--bound", "20"])
    assert code == 3 and json.loads(out)["error"] == "domain"


def test_oracle_roundtrip_with_a_product_of_two_48_bit_primes():
    # the constant coefficient of the characteristic polynomial carries
    # 281474976710677 * 281474977710673, a 97-bit product of two primes
    code, out = run(["oracle", "roundtrip",
                     "Sp(unr(281474976710677/5),1)+Sp(unr(844424933132019),1)"])
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv, message", [
    (["oracle", "roundtrip", "Sp(unr(2),2)", "garbage((("],
     "oracle roundtrip takes 1 expression, got 2"),
    (["oracle", "tensor", "Sp(unr(2),2)"],
     "oracle tensor takes 2 expressions, got 1"),
    (["oracle", "tensor", "Sp(unr(2),1)", "Sp(unr(5),1)", "Sp(unr(7),1)"],
     "oracle tensor takes 2 expressions, got 3"),
])
def test_oracle_modes_check_their_arity(argv, message):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        run(argv)
    assert exc.value.code == 2
    assert message in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_oracle_modes_with_their_arity():
    code, out = run(["oracle", "roundtrip", "Sp(unr(2),2)"])
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(["oracle", "tensor", "Sp(unr(2),2)", "Sp(unr(5),1)"])
    assert code == 0 and json.loads(out)["agree"] is True


# for a square q, q^(1/2) is an integer and folds into the coefficient
@pytest.mark.parametrize("argv, expected", [
    (["--q", "4", "classify", "Sp(unr(q^(1/2)),1)+Sp(unr(2),1)"],
     {"class": [{"dim": 1, "label": "1", "multiplicity": 2}],
      "coords": {"1": ["2", "2"]}, "stratum": {"1": [1, 1]}}),
    (["--q", "4", "oracle", "roundtrip", "Sp(unr(q^(1/2)),2)"],
     {"classified": "Sp(unr(2),2)", "input": "Sp(unr(2),2)", "ok": True}),
    (["--q", "9", "L", "Sp(unr(q^(1/2)),2)"], {"L_inverse": "1 - 1/3*T"}),
])
def test_square_q_folds_its_root(argv, expected):
    code, out = run(argv)
    assert code == 0
    assert json.loads(out) == expected


# the CLI's own rational options are checked by argparse: usage line, exit 2
@pytest.mark.parametrize("argv, option", [
    (["zeta", "--n1", "2", "--n2", "1", "--params", "2,5", "--m", "1/0",
      "--bound", "8"], "--m"),
    (["zeta", "--n1", "2", "--n2", "1", "--params", "2,5", "--m", "abc",
      "--bound", "8"], "--m"),
    (["rsL", "Sp(unr(2),1)", "Sp(unr(3),1)", "--shift", "1/0"], "--shift"),
    (["family-check", "--matrix", "[[0,x],[0,0]]", "--at", "1/0"], "--at"),
    (["check", "sign", "Sp(unr(2),1)", "--bad", "2,1/0"], "--bad"),
])
def test_rational_options_are_usage_errors(argv, option):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        run(argv)
    assert exc.value.code == 2
    assert err.getvalue().startswith("usage: llct")
    assert f"argument {option}: not a rational number" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv, expected", [
    (["zeta", "--n1", "1", "--n2", "1", "--params", "2", "--params2", "5",
      "--m", "-1/2", "--bound", "4"], None),
    (["rsL", "Sp(unr(2),1)", "Sp(unr(3),1)", "--shift", "-1/2"],
     {"RS_L_inverse": "1 - 6*q^(1/2)*T"}),
    (["family-check", "--matrix", "[[0,x],[0,0]]", "--at", "-1/2"],
     {"at": "-1/2", "result": "Isomorphism"}),
    (["check", "sign", "Sp(unr(x),2)+Sp(unr(x^-1),2)", "--bad", "-1,2"], None),
])
def test_rational_options_accept_negative_values(argv, expected):
    code, out = run(argv)
    assert code == 0
    if expected is not None:
        assert json.loads(out) == expected


@pytest.mark.parametrize("n1, params, params2", [
    ("1", "-2*x", "1"), ("1", "1", "-2*x"), ("2", "-3,2", ""), ("2", "-3,2", "-1,5"),
])
def test_params_values_may_begin_with_a_minus_sign(n1, params, params2):
    argv = ["zeta", "--n1", n1, "--n2", n1 if params2 else "1", "--m", "0",
            "--bound", "6"]
    joined = argv + [f"--params={params}"] + ([f"--params2={params2}"] if params2 else [])
    spaced = argv + ["--params", params] + (["--params2", params2] if params2 else [])
    code, out = run(joined)
    assert code == 0, out
    assert run(spaced) == (code, out)


def test_m_must_still_be_a_half_integer():
    code, out = run(["zeta", "--n1", "2", "--n2", "1", "--params", "2,5",
                     "--m", "1/3", "--bound", "8"])
    assert code == 3
    assert json.loads(out) == {"error": "domain",
                               "message": "m must be a half-integer, got 1/3"}


@pytest.mark.parametrize("expr, col", [
    ("Sp(unr(zeta(1,0)),1)", 15),
    ("Sp(unr(zeta(1,-2)),1)", 15),
    ("Sp(unr(2*zeta( 3 , -1 )),1)", 20),
])
def test_root_of_unity_order_is_a_parse_error(expr, col):
    code, out = run(["L", expr])
    assert code == 2
    assert json.loads(out) == {
        "error": "parse",
        "message": f"root-of-unity order must be positive at line 1, column {col}"
                   " (expected positive integer)"}


# the CLI's integer options are checked by argparse: usage line, exit 2
@pytest.mark.parametrize("argv, option", [
    (["zeta", "--n1", "2", "--n2", "1", "--params", "2,5", "--m", "-1/2",
      "--bound", "-1"], "--bound"),
    (["zeta", "--n1", "0", "--n2", "1", "--params", "2,5", "--m", "-1/2"], "--n1"),
    (["zeta", "--n1", "2", "--n2", "x", "--params", "2,5", "--m", "-1/2"], "--n2"),
    (["pairing", "--params", "2,5", "--bound", "0"], "--bound"),
    (["check", "feq", "--params", "2,5", "--bound", "1.5"], "--bound"),
])
def test_integer_options_are_usage_errors(argv, option):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        run(argv)
    assert exc.value.code == 2
    assert err.getvalue().startswith("usage: llct")
    assert f"argument {option}: not a positive integer" in err.getvalue()
    assert "Traceback" not in err.getvalue()


LLCT_MODULES = ["cli", "dsl", "exact", "factors", "linalg", "oracle",
                "partitions", "points", "segments", "session", "wd", "zeta"]


def test_cli_import_loads_every_module_and_no_dataclasses():
    """A fresh `import llct.cli` loads all 12 llct modules (perfbench's
    in-process workloads read them from sys.modules) and neither
    `dataclasses` nor `inspect`, which would add to every CLI call."""
    src = str(pathlib.Path(llct.__file__).resolve().parents[1])
    code = ("import json, sys, llct.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('llct.') or m in ('dataclasses', 'inspect'))))")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = json.loads(out)
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert loaded == ["llct." + m for m in LLCT_MODULES]


@pytest.mark.parametrize("expr", ["Sp(unr(1),2)", "Sp(unr(2),1000)"])
def test_closed_stdout_exits_5_without_a_traceback(expr):
    """The CLI's stdout is a pipe whose reader is gone before it starts, so
    its answer cannot be written: exit code 5, which the README's table and
    the cli docstring name, and nothing on stderr. The second answer is
    larger than a pipe buffer."""
    src = str(pathlib.Path(llct.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "llct.cli", "L", expr],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_CLOSED_PIPE == 5
