"""DSL grammar: parsing, rendering, round-trips, error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from llct.dsl import ParseError, SemanticError, parse_matrix, parse_scalar, parse_wd
from llct.exact import Scalar
from llct.wd import InertialAtom, SpehBlock, UNR, WDRep, sp


def test_parse_examples():
    r = parse_wd("Sp(unr(1),2)")
    assert r == WDRep([sp(1, 2)])

    fam = parse_wd("Sp(unr(x),1)+Sp(unr(2/3),1)")
    assert fam.rank == 2
    assert fam.involves_x()

    tau = parse_wd("Sp(tau(a,dim=2,f=2,cond=1,w=0)*unr(x),1)")
    atom = tau.blocks[0].atom
    assert (atom.dim, atom.f, atom.cond) == (2, 2, 1)
    assert atom.eps_unit == Scalar.opaque("eps_a")


def test_parse_semantic_errors():
    with pytest.raises(SemanticError):
        parse_wd("Sp(unr(0),1)")
    with pytest.raises(SemanticError):
        parse_wd("Sp(unr(1),0)")
    with pytest.raises(SemanticError):
        parse_wd("Sp(tau(a,dim=2,cond=1),1)+Sp(tau(a,dim=3,cond=1),1)")


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_wd("Sp(unr(1)")
    assert ei.value.line == 1 and ei.value.col == 10

    with pytest.raises(ParseError) as ei2:
        parse_wd("Sp(foo(1),2)")
    assert ei2.value.expected == ("unr", "tau")

    with pytest.raises(ParseError):
        parse_wd("Sp(unr(1),2)garbage")


def test_scalar_roundtrip_special_forms():
    cases = ["1", "-1", "2/3", "q^(1/2)", "x", "x^-2", "3*x^2",
             "zeta(1,5)", "(1+2*x)", "(-1/2*x^-1+1)", "5/3*q^(1/2)",
             "eps_a", "2*zeta(1,4)*q^(1/2)*x"]
    for text in cases:
        s = parse_scalar(text)
        again = parse_scalar(s.render())
        assert again == s, (text, s.render())


def test_matrix_parsing():
    m = parse_matrix("[[0,x],[0,0]]")
    assert m[0][1] == Scalar.x_power(1)
    with pytest.raises(SemanticError):
        parse_matrix("[[0,x],[0,0],[0,0]]")


# -- round-trip property -------------------------------------------------------

alphas = st.builds(
    lambda c, e, k: Scalar.make(c, qexp2=e, xexp=k),
    st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                 max_denominator=6).filter(lambda v: v != 0),
    st.integers(-3, 3),
    st.integers(-2, 2),
)

atoms = st.sampled_from([
    UNR,
    InertialAtom("a", dim=2, f=2, cond=1, weight=0),
    InertialAtom("b", dim=1, f=3, cond=2, weight=1),
    InertialAtom("c", dim=3, f=1, cond=1, weight=Fraction(1, 2),
                 eps_unit=Scalar.from_rational(-1)),
])

blocks = st.builds(lambda atom, a, m: SpehBlock(atom, a, m),
                   atoms, alphas, st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(st.lists(blocks, min_size=1, max_size=4))
def test_parse_render_roundtrip(block_list):
    r = WDRep(block_list)
    assert parse_wd(r.render()) == r


def test_negative_unit_alpha_roundtrip():
    for text in ["Sp(unr(-q^(1/2)),1)", "Sp(unr(-zeta(1,3)),2)"]:
        r = parse_wd(text)
        assert r.render() == text
        assert parse_wd(r.render()) == r


# -- one parser per construct: every path pinned ----------------------------------

_PARSERS = {"wd": parse_wd, "scalar": parse_scalar, "matrix": parse_matrix}
_ANY_SFACTOR = ("rational", "x", "q^(p/2)", "zeta(a,N)", "symbol", "(")

# (parser, input, render or (error class, message, line, col, expected)).
# Signed matrix entries and bare scalars, x^k after x, 2*x and a lone x, and
# the signs of integers and rationals each go through one parser.
_PINNED = [
    ("matrix", "[[-x,-2*x],[0,--x]]", [["-x", "-2*x"], ["0", "x"]]),
    ("matrix", "[[-2*q^(1/2)*x,1],[-(x+1)*x,-zeta(1,3)]]",
     [["-2*x*q^(1/2)", "1"], ["(-x-x^2)", "-zeta(1,3)"]]),
    ("matrix", "[[1,-]]",
     (ParseError, "unexpected ']' at line 1, column 6 (expected rational, x, "
      "q^(p/2), zeta(a,N), symbol, ()", 1, 6, _ANY_SFACTOR)),
    ("scalar", "-",
     (ParseError, "unexpected 'end of input' at line 1, column 2 (expected "
      "rational, x, q^(p/2), zeta(a,N), symbol, ()", 1, 2, _ANY_SFACTOR)),
    ("scalar", "--3", "3"),
    ("scalar", "-2*x*q^(1/2)", "-2*x*q^(1/2)"),
    ("scalar", "x^",
     (ParseError, "unexpected 'end of input' at line 1, column 3 (expected "
      "integer)", 1, 3, ("integer",))),
    ("scalar", "x^-2", "x^-2"),
    ("scalar", "u^-3*x", "x*u^-3"),
    ("scalar", "(2*q)",
     (ParseError, "unexpected 'q' at line 1, column 4 (expected x)", 1, 4, ("x",))),
    ("scalar", "(x^-1+x-x)", "x^-1"),
    ("scalar", "(-x+2*x^2-3)", "(-3-x+2*x^2)"),
    ("scalar", "(x-x)", "0"),
    ("scalar", "(+x)",
     (ParseError, "unexpected '+' at line 1, column 2 (expected term)", 1, 2, ("term",))),
    ("scalar", "(x-)",
     (ParseError, "unexpected ')' at line 1, column 4 (expected rational, x)",
      1, 4, ("rational", "x"))),
    ("scalar", "(x+-2)",
     (ParseError, "unexpected '-' at line 1, column 4 (expected rational, x)",
      1, 4, ("rational", "x"))),
    ("scalar", "(2*x^)",
     (ParseError, "unexpected ')' at line 1, column 6 (expected integer)",
      1, 6, ("integer",))),
    ("scalar", "1/0",
     (ParseError, "zero denominator at line 1, column 1 (expected rational)",
      1, 1, ("rational",))),
    ("scalar", "zeta(1,-3)",
     (ParseError, "root-of-unity order must be positive at line 1, column 8 "
      "(expected positive integer)", 1, 8, ("positive integer",))),
    ("scalar", "zeta(1/2,3)",
     (ParseError, "integer expected at line 1, column 6 (expected integer)",
      1, 6, ("integer",))),
    ("wd", "Sp(unr(x),1/2)",
     (ParseError, "integer expected at line 1, column 11 (expected integer)",
      1, 11, ("integer",))),
    ("wd", "Sp(unr(-x),-1)",
     (SemanticError, "Speh length must be positive, got -1", None, None, None)),
    ("wd", "Sq(unr(1),1)",
     (ParseError, "Sp(..) expected at line 1, column 1 (expected Sp)", 1, 1, ("Sp",))),
    ("wd", "Sp(tau(a,dim=2)*foo(1),1)",
     (ParseError, "unr(..) expected at line 1, column 17 (expected unr)",
      1, 17, ("unr",))),
    ("wd", "Sp(tau(a,dim=2,w=-1/2)*unr(-(x-1)),1)",
     "Sp(tau(a,dim=2,f=1,cond=1,w=-1/2)*unr((1-x)),1)"),
]


@pytest.mark.parametrize("kind, src, want", _PINNED, ids=[c[1] for c in _PINNED])
def test_parse_paths_pinned(kind, src, want):
    parse = _PARSERS[kind]
    if isinstance(want, tuple):
        cls, message, line, col, expected = want
        with pytest.raises(cls) as ei:
            parse(src)
        e = ei.value
        assert type(e) is cls and str(e) == message
        assert (getattr(e, "line", None), getattr(e, "col", None),
                getattr(e, "expected", None)) == (line, col, expected)
        return
    got = parse(src)
    if kind == "matrix":
        got = [[s.render() for s in row] for row in got]
    else:
        got = got.render()
    assert got == want
