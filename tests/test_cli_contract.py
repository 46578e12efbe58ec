"""The CLI contract: every call prints one JSON line and exits 0, 2, 3 or 4,
and a fault of the program itself is reported as "internal" with exit 1."""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import given, settings, strategies as st

from llct import cli, session
from llct.dsl import ParseError, parse_scalars
from llct.exact import DomainError, Scalar
from llct.linalg import FE, RatX
from llct.partitions import (MultiPartition, Partition, dominance_leq,
                             dominance_leq_multi, enumerate_partitions)
from llct.points import ExtendedPoint, InertialClass
from llct.segments import Multisegment, OrderingMode, Segment
from llct.wd import UNR


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# -- scalar lists --------------------------------------------------------------

@pytest.mark.parametrize("argv, want", [
    (["zeta", "--n1", "1", "--n2", "1", "--params", "zeta(1,3)", "--params2", "1",
      "--m", "0", "--bound", "3"],
     {"series": "1 + zeta(1,3)*T - zeta(1,6)*T^2 + T^3 + O(T^4)"}),
    (["zeta", "--n1", "2", "--n2", "1", "--params", "zeta(1,3),x", "--m", "-1/2",
      "--bound", "4"],
     {"L_inverse": "1 + (-zeta(1,3)-x)*T + x*zeta(1,3)*T^2", "certified": True}),
    (["zeta", "--n1", "2", "--n2", "2", "--params", "2,3", "--params2", "5,zeta(1,4)",
      "--m", "1/2", "--bound", "6"],
     {"certified": True, "product": "1 + O(T^7)",
      "L_inverse": "1 + (-25/9*q^(1/2)-5/9*zeta(1,4)*q^(1/2))*T"
                   " + (16/3+125/27*zeta(1,4))*T^2"
                   " + (50/81*q^(1/2)-250/81*zeta(1,4)*q^(1/2))*T^3 - 100/81*T^4"}),
    (["pairing", "--params", "zeta(1,3),2", "--bound", "20"], {"ok": True}),
    (["check", "feq", "--params", "zeta(1,4),3", "--bound", "20"], {"ok": True}),
])
def test_params_take_roots_of_unity(argv, want):
    code, out = run(argv)
    assert code == 0, out
    got = json.loads(out)
    assert {k: got[k] for k in want} == want


def test_params_ignore_blanks_around_commas():
    argv = ["zeta", "--n1", "2", "--n2", "1", "--m", "-1/2", "--bound", "6"]
    assert run(argv + ["--params", " 2 , x "]) == run(argv + ["--params", "2,x"])


@pytest.mark.parametrize("src, col", [
    ("2,,3", 3), (",2", 1), ("2,", 3), ("2,3 5", 5), ("2,zeta(1,0)", 10),
])
def test_malformed_scalar_list_is_a_parse_error_with_a_column(src, col):
    with pytest.raises(ParseError) as ei:
        parse_scalars(src)
    assert (ei.value.line, ei.value.col) == (1, col)


def test_malformed_params_exit_2_with_the_column():
    code, out = run(["zeta", "--n1", "3", "--n2", "1", "--params", "2,,3",
                     "--m", "0", "--bound", "3"])
    assert code == 2
    assert json.loads(out) == {
        "error": "parse",
        "message": "unexpected ',' at line 1, column 3 (expected rational, x, "
                   "q^(p/2), zeta(a,N), symbol, ()"}


# -- internal faults -----------------------------------------------------------

@pytest.mark.parametrize("exc, message", [
    (ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
    (KeyError("k"), "KeyError: 'k'"),
])
def test_internal_fault_is_reported_as_internal(monkeypatch, capsys, exc, message):
    def broken(args):
        raise exc
    monkeypatch.setitem(cli.EXPR_VERBS, "L", ("inverse L-factor", broken))
    assert cli.main(["L", "Sp(unr(1),2)"]) == 1
    out, err = capsys.readouterr()
    assert out == json.dumps({"error": "internal", "message": message},
                             sort_keys=True) + "\n"
    assert "Traceback" not in err


# -- input errors raised by the library -----------------------------------------
#
# main reports a DomainError with exit 3 and a bare ValueError as an
# internal fault, so every check on the arguments of a public function or
# constructor raises DomainError (a ValueError subclass).

def _root_q_at_square_q():
    session.set_q(4)
    return FE(RatX.const(0), RatX.const(1))


_ONE, _ONE_OVER_Q = Scalar.one(), Scalar.qpow(-2)


@pytest.mark.parametrize("call, message", [
    (lambda: Partition((2, 0)), "partition parts must be positive"),
    (lambda: dominance_leq(Partition.of(2), Partition.of(2, 1)),
     "dominance comparison needs equal totals"),
    (lambda: dominance_leq_multi(MultiPartition.of({"a": Partition.of(1)}),
                                 MultiPartition.of({"b": Partition.of(1)})),
     "multipartition index sets differ"),
    (lambda: enumerate_partitions(-1), "m must be nonnegative"),
    (lambda: InertialClass(((UNR, 1), (UNR, 2))),
     "inertial class atoms must have distinct labels"),
    (lambda: ExtendedPoint(InertialClass(((UNR, 3),)),
                           MultiPartition.of({"1": Partition.of(2, 1)}),
                           (("1", (_ONE,)),)),
     "coordinate count must match stratum parts"),
    (lambda: Segment(UNR, _ONE, 0), "segment length must be >= 1"),
    (lambda: Multisegment((Segment(UNR, _ONE, 1), Segment(UNR, _ONE_OVER_Q, 1)),
                          OrderingMode.GEN_SUB),
     "ordering violates the GenSub condition"),
    (lambda: session.set_q(6), "q must be a prime power below 2"),
    (_root_q_at_square_q, r"formal sqrt\(q\) with square q"),
])
def test_input_errors_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# -- a property over the grammar -----------------------------------------------
#
# Size caps: an expression has at most 3 blocks of Speh length at most 2
# (at most 2 blocks for `oracle roundtrip`, 1 per side for `oracle
# tensor`); atoms have dim <= 2; matrices are at most 3x3, and only 2x2
# over Q(x)(sqrt q); Satake tuples have at most 3 entries, 2 for
# `pairing` and `check feq`; zeta bounds are at most 8, or 20 where a
# check asks for it.  300 examples, q in {2, 3, 4, 5, 9}, each call under a 3 s
# alarm.

GOOD_SCALARS = ["1", "2", "-3", "5/7", "x", "x^-1", "-2*x", "q^(1/2)",
                "3*q^(-1/2)", "zeta(1,3)", "zeta(1,4)", "u", "(1-2*x)"]
# a zero, zero denominators, roots of unity times x, broken syntax
BAD_SCALARS = ["0", "(x-x)", "1/0", "(x+1/0)", "q^(1/0)", "zeta(1,0)",
               "q^(1/3)", "zeta(1,3)*x", "x*zeta(2,5)", "(x+)", "", "2 3", "@"]

scalars = st.one_of(
    st.sampled_from(GOOD_SCALARS), st.sampled_from(BAD_SCALARS),
    st.builds("{}*{}".format, st.sampled_from(GOOD_SCALARS),
              st.sampled_from(GOOD_SCALARS)))

tau_atoms = st.builds(
    "tau({},dim={},f={},cond={})".format, st.sampled_from(["a", "b", "1"]),
    st.integers(0, 2), st.integers(1, 2), st.integers(0, 2))
atoms = st.one_of(
    st.builds("unr({})".format, scalars), tau_atoms,
    st.builds("{}*unr({})".format, tau_atoms, scalars))
terms = st.builds("Sp({},{})".format, atoms, st.sampled_from([1, 1, 2, 2, 0, -1]))
# most expressions are whole; a dropped last character leaves a block
# unclosed, and a trailing '+' a term missing
ENDINGS = {"whole": lambda e: e, "cut": lambda e: e[:-1], "plus": lambda e: e + "+"}


def exprs(max_blocks):
    return st.builds(lambda blocks, end: ENDINGS[end]("+".join(blocks)),
                     st.lists(terms, min_size=1, max_size=max_blocks),
                     st.sampled_from(["whole"] * 4 + ["cut", "plus"]))


def scalar_lists(max_len=3):
    return st.lists(scalars, min_size=1, max_size=max_len).map(",".join)


# Laurent and q^(1/2) entries at every size up to 4x4
ENTRIES = ["0", "1", "x", "2*x", "-x^2", "1/2", "1/0", "x^-1", "q^(1/2)"]
matrices = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(ENTRIES),
             min_size=n, max_size=n + 1),  # a longer row: not square
    min_size=n, max_size=n)).map(
        lambda rows: "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]")

rationals = st.sampled_from(["0", "1", "2", "-1/2", "1/2", "-3/2", "1/3"])
bounds = st.integers(1, 8).map(str)


def verb(name, *parts):
    return st.tuples(st.just([name]), *parts).map(
        lambda t: [a for part in t for a in (part if isinstance(part, list) else [part])])


def opt(flag, values):
    return values.map(lambda v: [flag, v])


zeta_calls = st.integers(1, 3).flatmap(lambda n: verb(
    "zeta", opt("--n1", st.just(str(n))), opt("--n2", st.sampled_from(["1", str(n), "2"])),
    opt("--params", scalar_lists()), opt("--params2", scalar_lists()),
    opt("--m", rationals), opt("--bound", bounds)))

calls = st.one_of(
    *[verb(name, exprs(3)) for name in cli.EXPR_VERBS],
    verb("rsL", exprs(2), exprs(2), opt("--shift", rationals)),
    zeta_calls,
    verb("pairing", opt("--params", scalar_lists(2)),
         opt("--bound", st.sampled_from(["5", "20"]))),
    verb("family-check", st.one_of(exprs(2), opt("--matrix", matrices)),
         opt("--at", rationals)),
    verb("oracle", st.just("roundtrip"), exprs(2)),
    verb("oracle", st.just("tensor"), exprs(1), exprs(1)),
    verb("check", st.just("eps-ratio"), exprs(3)),
    verb("check", st.just("sign"), exprs(2),
         opt("--bad", st.sampled_from(["0", "-1,2", "1/2"]))),
    verb("check", st.just("feq"), opt("--params", scalar_lists(2)),
         opt("--bound", st.sampled_from(["5", "20"]))),
)


class CallTimeout(BaseException):
    """Raised by the alarm; a BaseException, so that main cannot catch it."""


def _on_alarm(signum, frame):
    raise CallTimeout


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=st.sampled_from(["2", "3", "4", "5", "9"]), argv=calls)
def test_every_call_keeps_the_contract(q, argv):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(3)
    try:
        code, out = run(["--q", q] + argv)
    except SystemExit as e:  # a usage error: exit 2, nothing on stdout
        assert e.code == 2
        return
    except CallTimeout:
        raise AssertionError(f"over 3 s: llct --q {q} {argv}") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4), out
    assert out.endswith("\n") and out.count("\n") == 1
    result = json.loads(out)
    assert result.get("error") != "internal", result
