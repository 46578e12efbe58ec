"""Inverse L-factors, epsilon factors, and gamma factors.

Everything is a function of T (the unramified-twist variable): the
inverse L-factor of r is det(1 - Frobenius*T on Ker(N)^{I_F}), so only
unramified atoms contribute.  gamma is a pure ratio of semisimple inverse
L-factors times a unit, independent of the monodromy; epsilon is the
semisimple unit times det(-Frobenius on r^{I_F}/Ker(N)^{I_F}).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Scalar, PolyT, RatFuncT, Coef, DomainError, Record, poly_divides
from .wd import (WDRep, WDFamily, dual, twist, inertia_eigenvalues,
                 specialize, pure_weight, tensor)


class LInverse(Record):
    """Inverse L-factor with its factored form (the Frobenius eigenvalue
    multiset on the relevant invariant space)."""

    __slots__ = ("poly", "roots")

    def __init__(self, poly: PolyT, roots: tuple[Scalar, ...]):
        self.poly = poly
        self.roots = roots

    def render(self) -> str:
        return self.poly.render()

    def degree(self):
        return len(self.roots)

    def shift(self, qexp2: int) -> "LInverse":
        """Substitute T -> q^(qexp2/2) * T (the chi_T twist bookkeeping)."""
        s = Scalar.qpow(qexp2)
        return LInverse(self.poly.subst_T_scale(s),
                        tuple(sorted((r * s for r in self.roots),
                                     key=Scalar.sort_key)))


class EpsFactor(Record):
    __slots__ = ("unit", "cond")

    def __init__(self, unit: Scalar, cond: int):
        self.unit = unit
        self.cond = cond

    def render(self):
        return {"unit": self.unit.render(), "cond": self.cond}


def _l_from_roots(roots) -> LInverse:
    roots = tuple(sorted(roots, key=Scalar.sort_key))
    return LInverse(PolyT.from_roots(roots), roots)


def l_ss_inverse(r: WDRep) -> LInverse:
    """det(1 - Frobenius*T on r^{I_F}): every twist level of every
    unramified block contributes one eigenvalue."""
    return _l_from_roots(inertia_eigenvalues(r)[0])


def l_inverse(r: WDRep) -> LInverse:
    """det(1 - Frobenius*T on Ker(N)^{I_F}): one eigenvalue per unramified
    block, at its last twist level."""
    return _l_from_roots(inertia_eigenvalues(r)[1])


def rs_l_inverse(r1: WDRep, r2: WDRep, shift_qexp2: int = 0) -> LInverse:
    """Rankin-Selberg inverse L-factor via the tensor representation;
    the optional shift substitutes T -> q^(shift_qexp2/2)*T."""
    out = l_inverse(tensor(r1, r2))
    return out.shift(-shift_qexp2) if shift_qexp2 else out


def _eps_ss(r: WDRep) -> tuple[Scalar, int]:
    """Semisimple epsilon data: product of atom units (one per twist
    level) and the conductor of the semisimplification."""
    unit = math.prod((b.atom.eps_unit ** b.m for b in r.blocks), start=Scalar.one())
    return unit, sum(b.m * b.atom.cond for b in r.blocks)


def _quotient_eigenvalues(r: WDRep) -> list[Scalar]:
    """Frobenius eigenvalues on r^{I_F} / Ker(N)^{I_F} (multiset difference
    of the two sorted eigenvalue lists, so still sorted)."""
    out, ker = inertia_eigenvalues(r)
    for s in ker:
        out.remove(s)
    return out


def _det_neg(eigenvalues) -> Scalar:
    """det(-Frobenius) on a space with the given Frobenius eigenvalues."""
    return math.prod((-lam for lam in eigenvalues), start=Scalar.one())


def gamma(r: WDRep) -> tuple[RatFuncT, Scalar]:
    """gamma = eps_ss(r) * L_ss^{-1}(r) / L_ss^{-1}(r^*(1)), in normal form.

    Independence of the monodromy is structural (both L_ss and eps_ss see
    only the semisimplification); the rational function is returned with
    common linear factors cancelled exactly.
    """
    num = l_ss_inverse(r)
    den = l_ss_inverse(twist(dual(r), 1))
    unit, _cond = _eps_ss(r)
    rf = RatFuncT.from_root_lists(num.roots, den.roots)
    return rf, unit


def epsilon(r: WDRep) -> EpsFactor:
    """eps(r) = eps_ss(r) * det(-Frobenius | r^{I_F}/Ker(N)^{I_F});
    conductor a(r) = a(r_ss) + dim r^{I_F} - dim Ker(N)^{I_F}."""
    unit, cond = _eps_ss(r)
    quot = _quotient_eigenvalues(r)
    return EpsFactor(unit * _det_neg(quot), cond + len(quot))


def epsilon_ratio_check(r: WDRep) -> bool:
    """Check [L(r')/L(r'^*(1))] * [L_ss(r^*(1))/L_ss(r)] =
    det(-Frobenius | r^{I_F}/Ker(N)^{I_F}).

    Both sides are assembled independently: the left from four L-factors
    through dual/twist, the right from the inertia-invariant quotient.
    The comparison is at T = 1 where defined; at degenerate points the
    exact rational-function identity (per-eigenvalue factor pairing) is
    verified instead.
    """
    dual_twisted = twist(dual(r), 1)
    num_roots = list(l_inverse(dual_twisted).roots) + list(l_ss_inverse(r).roots)
    den_roots = list(l_inverse(r).roots) + list(l_ss_inverse(dual_twisted).roots)
    lhs = RatFuncT.from_root_lists(num_roots, den_roots)
    quot = _quotient_eigenvalues(r)
    rhs = RatFuncT.from_root_lists([lam for lam in quot],
                                   [lam.inverse() for lam in quot])
    if lhs != rhs:
        return False
    one = Scalar.one()
    if any(root == one for root in num_roots + den_roots):
        # 0/0 at T = 1: the exact factor-paired identity is the content
        return True
    num1 = lhs.num.eval_coef(Coef.one())
    den1 = lhs.den.eval_coef(Coef.one())
    return num1 == den1 * Coef.from_scalar(_det_neg(quot))


def monodromy_divisibility(r_small: WDRep, r_big: WDRep) -> bool:
    """For N (small) dominated by N' (big) on the same support,
    L^{-1}(N'-rep) divides L^{-1}(N-rep)."""
    return poly_divides(l_inverse(r_big).poly, l_inverse(r_small).poly)


# ---------------------------------------------------------------------------
# Sign constancy along self-dual families
# ---------------------------------------------------------------------------

DEFAULT_SAMPLES = tuple(Fraction(v) for v in
                        (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2),
                         4, -4, 5, -5, Fraction(1, 3), Fraction(-1, 3),
                         6, -6, 7, -7, Fraction(2, 3), Fraction(-2, 3)))


class SignConstancyReport(Record):
    __slots__ = ("ok", "signs", "skipped")
    __hash__ = None

    def __init__(self, ok: bool, signs: dict, skipped: list):
        self.ok = ok
        self.signs = signs
        self.skipped = skipped


def sign_constancy_check(fam: WDFamily, samples=DEFAULT_SAMPLES) -> SignConstancyReport:
    """Evaluate eps at pure sample points of a self-dual family and test
    that the sign is constant.

    Self-duality (rep isomorphic to its twisted dual) is verified
    structurally first; sample points where purity fails are skipped and
    reported.
    """
    if fam.rep is None:
        raise DomainError("sign constancy needs a structured family")
    r = fam.rep
    for b in r.blocks:
        if not b.atom.unramified:
            u = b.atom.eps_unit
            if u.has_opaque() or not (u.is_one() or (-u).is_one()):
                raise DomainError("atoms must be unramified or carry a real "
                                  "epsilon unit +-1")
    if twist(dual(r), 1) != r:
        raise DomainError("family is not self-dual: r is not r^*(1)")
    signs = {}
    skipped = []
    for a in samples:
        try:
            ra = specialize(fam, a)
        except DomainError:
            skipped.append((a, "specialization"))
            continue
        try:
            w = pure_weight(ra)
        except DomainError:
            w = None
        if w is None:
            skipped.append((a, "not pure"))
            continue
        eps = epsilon(ra)
        u = eps.unit
        if u.is_one():
            signs[a] = 1
        elif (-u).is_one():
            signs[a] = -1
        else:
            raise DomainError(f"epsilon unit {u.render()} is not a sign")
    ok = len(set(signs.values())) <= 1
    return SignConstancyReport(ok, signs, skipped)
