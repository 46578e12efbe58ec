"""Value semantics of llct's record classes: field equality within one
class, hashing of the immutable ones, keyword construction with defaults,
and the normalisations and rejections their constructors apply."""

from fractions import Fraction

import pytest

from llct.dsl import Token
from llct.exact import PolyT, Scalar, TruncSeriesT
from llct.factors import EpsFactor, LInverse, SignConstancyReport
from llct.oracle import MatrixWD
from llct.partitions import MultiPartition, Partition
from llct.points import BernsteinPoint, ExtendedPoint, InertialClass
from llct.segments import Multisegment, OrderingMode, Segment
from llct.wd import UNR, InertialAtom, SpehBlock, WDFamily, WDRep, sp
from llct.zeta import SatakeData, ZetaResult


def s(c, qexp2=0, xexp=0):
    return Scalar.make(Fraction(c), qexp2=qexp2, xexp=xexp)


def atom_s(**kw):
    return InertialAtom("s", dim=2, cond=1, **kw)


def extended(coord):
    cls = InertialClass(((UNR, 3),))
    stratum = MultiPartition.of({"1": Partition.of(2, 1)})
    return ExtendedPoint(cls, stratum, (("1", (s(2), s(coord))),))


_SERIES = TruncSeriesT(0, 4, dict(PolyT.from_roots([s(2)]).coeffs))
_PRODUCT = TruncSeriesT(0, 4, dict(PolyT.one().coeffs))

# name -> (build a fresh instance, build one with a changed field).  Each
# builder makes new objects, so equality is never identity.
CASES = {
    "Partition": (lambda: Partition((1, 3)), lambda: Partition((2, 2))),
    "MultiPartition": (
        lambda: MultiPartition((("b", Partition((1,))), ("a", Partition((2,))))),
        lambda: MultiPartition((("b", Partition((1,))), ("a", Partition((1, 1)))))),
    "Token": (lambda: Token("num", "2", 1, 5), lambda: Token("num", "2", 1, 6)),
    "LInverse": (
        lambda: LInverse(PolyT.from_roots([s(2), s(5)]), (s(2), s(5))),
        lambda: LInverse(PolyT.from_roots([s(2), s(7)]), (s(2), s(7)))),
    "EpsFactor": (lambda: EpsFactor(s(-1), 2), lambda: EpsFactor(s(-1), 3)),
    "SignConstancyReport": (
        lambda: SignConstancyReport(True, {Fraction(1): 1}, [(Fraction(2), "not pure")]),
        lambda: SignConstancyReport(False, {Fraction(1): 1}, [(Fraction(2), "not pure")])),
    "InertialAtom": (lambda: atom_s(), lambda: atom_s(f=2)),
    "SpehBlock": (lambda: SpehBlock(atom_s(), s(2, 1), 2),
                  lambda: SpehBlock(atom_s(), s(2, 1), 3)),
    "WDFamily": (lambda: WDFamily(rep=WDRep([sp(s(2, xexp=1), 2)]), bad_points=(0,)),
                 lambda: WDFamily(rep=WDRep([sp(s(2, xexp=1), 2)]), bad_points=(1,))),
    "Segment": (lambda: Segment(UNR, s(2), 2), lambda: Segment(UNR, s(3), 2)),
    "Multisegment": (
        lambda: Multisegment((Segment(UNR, s(2), 2), Segment(UNR, s(5), 1))),
        lambda: Multisegment((Segment(UNR, s(2), 2), Segment(UNR, s(5), 1)),
                             OrderingMode.GEN_SUB)),
    "InertialClass": (lambda: InertialClass(((atom_s(), 1), (UNR, 2))),
                      lambda: InertialClass(((atom_s(), 2), (UNR, 2)))),
    "BernsteinPoint": (
        lambda: BernsteinPoint(InertialClass(((UNR, 2),)), (("1", (s(2), s(5))),)),
        lambda: BernsteinPoint(InertialClass(((UNR, 2),)), (("1", (s(2), s(7))),))),
    "ExtendedPoint": (lambda: extended(5), lambda: extended(7)),
    "MatrixWD": (lambda: MatrixWD.make([[6, 0], [0, 2]], [[0, 0], [1, 0]]),
                 lambda: MatrixWD.make([[6, 0], [0, 2]], [[0, 0], [0, 0]])),
    "SatakeData": (lambda: SatakeData((2, Fraction(1, 5))),
                   lambda: SatakeData((2, Fraction(1, 7)))),
    "ZetaResult": (lambda: ZetaResult(_SERIES, PolyT.from_roots([s(2)]), _PRODUCT, 4, True),
                   lambda: ZetaResult(_SERIES, PolyT.from_roots([s(2)]), _PRODUCT, 3, True)),
}

UNHASHABLE = {"Token", "SignConstancyReport"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_compare_equal(name):
    make, _changed = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_changed_field_compares_unequal(name):
    make, changed = CASES[name]
    assert make() != changed()
    assert not make() == changed()


@pytest.mark.parametrize("name", sorted(CASES))
def test_other_classes_are_never_equal(name):
    a = CASES[name][0]()
    for other, (make, _changed) in CASES.items():
        if other != name:
            assert a != make() and not a == make(), other
    assert a != None  # noqa: E711
    assert a != ()


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(CASES[name][0]())


def test_keyword_construction_with_defaults():
    a = InertialAtom("s", dim=2, cond=1)
    assert (a.label, a.dim, a.f, a.cond, a.weight) == ("s", 2, 1, 1, 0)
    assert isinstance(a.weight, Fraction)
    assert a.eps_unit == Scalar.opaque("eps_s")
    assert a.dual_label == "s"
    assert InertialAtom("s", 2, 1, 1, 0, Scalar.opaque("eps_s"), "s") == a
    assert InertialAtom(label="t", weight=1, cond=2, dual_label="u").weight == Fraction(1)
    assert UNR == InertialAtom("1") and UNR.eps_unit.is_one()

    segs = (Segment(UNR, s(2), 1), Segment(UNR, s(2), 1))
    m = Multisegment(segs)
    assert m.ordering_mode is OrderingMode.UNORDERED
    assert Multisegment(segments=segs, ordering_mode=OrderingMode.UNORDERED) == m

    fam = WDFamily(matrix_n=[[s(0), s(0)], [s(1, xexp=1), s(0)]])
    assert fam.rep is None and fam.bad_points == ()
    assert fam.matrix_n == ((s(0), s(0)), (s(1, xexp=1), s(0)))
    assert isinstance(fam.matrix_n[0], tuple)

    t = Token(kind="eof", text="", line=2, col=1)
    t.col = 3
    assert t == Token("eof", "", 2, 3)
    report = SignConstancyReport(ok=True, signs={}, skipped=[])
    report.ok = False
    assert report == SignConstancyReport(False, {}, [])

    assert EpsFactor(unit=s(1), cond=0).cond == 0
    assert SpehBlock(atom=UNR, alpha=s(2), m=1).rank == 1
    assert Segment(sc_atom=UNR, alpha=s(2), m=3).m == 3


def test_partitions_sort_their_parts():
    assert Partition((1, 3, 2)).parts == (3, 2, 1)
    assert Partition((1, 3, 2)) == Partition.of(3, 2, 1)
    mp = MultiPartition((("b", Partition((1,))), ("a", Partition((2,)))))
    assert mp.labels() == ["a", "b"]
    assert mp == MultiPartition.of({"a": Partition((2,)), "b": Partition((1,))})
    with pytest.raises(ValueError, match="partition parts must be positive"):
        Partition((2, 0))


def test_satake_data_coerces_rationals_and_rejects_zero():
    d = SatakeData((2, Fraction(1, 5)))
    assert d.params == (Scalar.from_rational(2), Scalar.from_rational(Fraction(1, 5)))
    assert all(isinstance(p, Scalar) for p in d.params)
    assert SatakeData((s(2), s(Fraction(1, 5)))) == d
    with pytest.raises(ValueError, match="Satake parameters must be invertible"):
        SatakeData((2, 0))
    with pytest.raises(ValueError, match="Satake parameters must be invertible"):
        SatakeData((Scalar.opaque("u"),))


@pytest.mark.parametrize("build, message", [
    (lambda: InertialAtom("s", dim=0, cond=1), "invalid atom invariants"),
    (lambda: InertialAtom("s", f=0, cond=1), "invalid atom invariants"),
    (lambda: InertialAtom("s", cond=-1), "invalid atom invariants"),
    (lambda: InertialAtom("s", dim=2), "ramified atom must have positive conductor"),
    (lambda: InertialAtom("1", dim=2), "unramified atom must have dim=1, f=1, cond=0"),
    (lambda: InertialAtom("1", weight=1), "unramified atom must have eps=1, weight=0"),
    (lambda: SpehBlock(UNR, s(2), 0), "Speh length must be >= 1"),
    (lambda: SpehBlock(UNR, Scalar.from_rational(0), 1),
     "block twist parameter must be invertible"),
    (lambda: Segment(UNR, s(2), 0), "segment length must be >= 1"),
    (lambda: InertialClass(((atom_s(), 1), (atom_s(f=2), 1))),
     "inertial class atoms must have distinct labels"),
    (lambda: ExtendedPoint(InertialClass(((UNR, 3),)),
                           MultiPartition.of({"1": Partition.of(2, 1)}),
                           (("1", (s(2),)),)),
     "coordinate count must match stratum parts"),
    (lambda: WDFamily(), "family needs exactly one of rep / matrix_n"),
    (lambda: WDFamily(rep=WDRep([sp(2)]), matrix_n=((s(0),),)),
     "family needs exactly one of rep / matrix_n"),
    (lambda: Multisegment((Segment(UNR, s(1), 1), Segment(UNR, s(1, -2), 1)),
                          OrderingMode.GEN_SUB),
     "ordering violates the GenSub condition"),
    (lambda: Multisegment((Segment(UNR, s(1, -2), 1), Segment(UNR, s(1), 1)),
                          OrderingMode.GEN_QUOTIENT),
     "ordering violates the GenQuotient condition"),
])
def test_constructors_reject_invalid_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_inertial_class_sorts_its_atoms():
    b = InertialAtom("b", cond=1)
    cls = InertialClass(((b, 1), (UNR, 2)))
    assert [a.label for a, _m in cls.atoms] == ["1", "b"]
    assert cls == InertialClass(((UNR, 2), (b, 1)))
    assert cls.n == 3
