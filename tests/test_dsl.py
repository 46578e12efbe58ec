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
