"""Command-line interface: `llct VERB ...` with one line of JSON output.

Exit codes: 0 ok, 1 internal fault (`"error": "internal"`, no traceback),
2 parse error, 3 math-domain error, 4 uncertified truncation, 5 stdout
closed before the answer was written (a reader such as `head` quit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# Every llct module is imported here, eagerly: after `import llct.cli`,
# perfbench's in-process workloads read them all from sys.modules.
from . import session
from .dsl import ParseError, SemanticError, parse_wd, parse_scalars, parse_matrix
from .exact import DomainError
from .factors import (epsilon, epsilon_ratio_check, gamma, l_inverse,
                      l_ss_inverse, rs_l_inverse, sign_constancy_check)
from .oracle import classify, realize, tensor_matrix
from .points import extended_point_of
from .segments import is_generic_irreducible, llc_gen
from .wd import FIBRE_BUDGET, WDFamily, check_interpolation, tensor
from .zeta import (SatakeData, UncertifiedTruncation, invariant_pairing_check,
                   gl2_gamma_functional_equation_check, zeta_gl_n_gl1,
                   zeta_gl_n_gl_n)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_UNCERTIFIED = 4
EXIT_CLOSED_PIPE = 5

ORACLE_ARITY = {"roundtrip": 1, "tensor": 2}


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def _parse_params(text: str) -> SatakeData:
    return SatakeData(parse_scalars(text))


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _rationals(text: str) -> tuple[Fraction, ...]:
    """A comma-separated list of rationals; empty text is the empty list."""
    return tuple(_rational(t) for t in text.split(",")) if text else ()


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _half(v: Fraction) -> Fraction:
    if (2 * v).denominator != 1:
        raise SemanticError(f"m must be a half-integer, got {v}")
    return v


def _parse_q(text: str) -> int:
    q = int(text) if text.isdigit() else 0
    try:
        session.set_q(q)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"q must be a prime power below 2**32, got {text!r}") from None
    return q


def cmd_classify(args):
    return extended_point_of(parse_wd(args.expr)).render()


def cmd_llc(args):
    ms = llc_gen(parse_wd(args.expr))
    return {"segments": [s.render() for s in ms.segments],
            "ordering_mode": ms.ordering_mode.value,
            "generic_irreducible": is_generic_irreducible(ms)}


def cmd_L(args):
    return {"L_inverse": l_inverse(parse_wd(args.expr)).render()}


def cmd_Lss(args):
    return {"Lss_inverse": l_ss_inverse(parse_wd(args.expr)).render()}


def cmd_gamma(args):
    rf, unit = gamma(parse_wd(args.expr))
    return {"gamma": rf.render(), "unit": unit.render()}


def cmd_eps(args):
    return epsilon(parse_wd(args.expr)).render()


# The verbs that read one expression: name -> (help, handler).
EXPR_VERBS = {
    "classify": ("extended Bernstein point of a rep", cmd_classify),
    "llc": ("generic Langlands multisegment", cmd_llc),
    "L": ("inverse L-factor", cmd_L),
    "Lss": ("semisimple inverse L-factor", cmd_Lss),
    "gamma": ("gamma factor (ratio of Lss, unit)", cmd_gamma),
    "eps": ("epsilon factor (unit, conductor)", cmd_eps),
}


def cmd_rsL(args):
    r1, r2 = parse_wd(args.expr1), parse_wd(args.expr2)
    shift2 = int(2 * _half(args.shift))
    return {"RS_L_inverse": rs_l_inverse(r1, r2, shift2).render()}


def cmd_zeta(args):
    m = _half(args.m)
    d1 = _parse_params(args.params)
    if args.n1 != d1.n:
        raise SemanticError(f"--n1 {args.n1} does not match {d1.n} parameters")
    if args.n2 == 1:
        return zeta_gl_n_gl1(d1, m, args.bound, strict=True).render()
    if args.n2 != args.n1:
        raise SemanticError("supported ranks: n2 = 1 or n2 = n1")
    if not args.params2:
        raise SemanticError("--params2 required for the equal-rank integral")
    d2 = _parse_params(args.params2)
    return zeta_gl_n_gl_n(d1, d2, m, args.bound, strict=True).render()


def cmd_pairing(args):
    d = _parse_params(args.params)
    return {"ok": invariant_pairing_check(d, args.bound)}


def cmd_family_check(args):
    if args.matrix:
        rows = parse_matrix(args.matrix)
        fam = WDFamily(matrix_n=tuple(tuple(r) for r in rows))
    else:
        fam = WDFamily(rep=parse_wd(args.expr))
    res = check_interpolation(fam, args.at)
    return {"at": str(args.at), "result": res.value}


def cmd_oracle(args):
    reps = [parse_wd(e) for e in args.exprs]
    if args.mode == "roundtrip":
        back = classify(realize(reps[0]))
        return {"input": reps[0].render(), "classified": back.render(),
                "ok": back == reps[0]}
    structured = tensor(*reps)
    oracle_side = classify(tensor_matrix(*map(realize, reps)))
    return {"structured": structured.render(),
            "oracle": oracle_side.render(),
            "agree": structured == oracle_side}


class _OracleExprs(argparse.Action):
    """Checks the number of expressions against the mode parsed before."""

    def __call__(self, parser, ns, values, option_string=None):
        want = ORACLE_ARITY[ns.mode]
        if len(values) != want:
            noun = "expression" if want == 1 else "expressions"
            parser.error(f"oracle {ns.mode} takes {want} {noun}, got {len(values)}")
        ns.exprs = values


def cmd_check(args):
    if args.what == "eps-ratio":
        return {"ok": epsilon_ratio_check(parse_wd(args.expr))}
    if args.what == "sign":
        fam = WDFamily(rep=parse_wd(args.expr), bad_points=args.bad)
        rep = sign_constancy_check(fam)
        return {"ok": rep.ok,
                "signs": {str(a): s for a, s in rep.signs.items()},
                "skipped": len(rep.skipped)}
    d = _parse_params(args.params)  # "feq", the last of the choices
    return {"ok": gl2_gamma_functional_equation_check(d, args.bound)}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="llct",
        description="exact local Langlands / Weil-Deligne computations")
    ap.add_argument("--q", type=_parse_q, default=3,
                    help="residue cardinality (fixed per session, default 3)")
    sub = ap.add_subparsers(dest="verb", required=True)

    for name, (help_, fn) in EXPR_VERBS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("expr")
        p.set_defaults(fn=fn)

    p = sub.add_parser("rsL", help="Rankin-Selberg inverse L-factor")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--shift", type=_rational, default="0",
                   help="substitute T -> q^{-shift} T")
    p.set_defaults(fn=cmd_rsL)

    p = sub.add_parser("zeta", help="truncated unramified zeta integral")
    p.add_argument("--n1", type=_positive, required=True)
    p.add_argument("--n2", type=_positive, required=True)
    p.add_argument("--params", required=True, help="comma-separated DSL scalars")
    p.add_argument("--params2", default="", help="second Satake tuple (n2=n1)")
    p.add_argument("--m", type=_rational, required=True,
                   help="half-integer shift")
    p.add_argument("--bound", type=_positive, default=40)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("pairing", help="invariant-pairing normalization check")
    p.add_argument("--params", required=True)
    p.add_argument("--bound", type=_positive, default=40)
    p.set_defaults(fn=cmd_pairing)

    p = sub.add_parser("family-check", help="monodromy interpolation at a point")
    p.add_argument("expr", nargs="?", default="")
    p.add_argument("--matrix", default="", help="nilpotent matrix over Q[x, 1/x]; its "
                   f"generic type is certified on at most {FIBRE_BUDGET} special fibres")
    p.add_argument("--at", type=_rational, required=True,
                   help="rational specialization point")
    p.set_defaults(fn=cmd_family_check)

    p = sub.add_parser("oracle", help="matrix-oracle debugging commands")
    p.add_argument("mode", choices=ORACLE_ARITY,
                   help="roundtrip takes 1 expression, tensor takes 2")
    p.add_argument("exprs", nargs="+", metavar="expr", action=_OracleExprs)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("check", help="identity checks (eps-ratio, sign, feq)")
    p.add_argument("what", choices=["eps-ratio", "sign", "feq"])
    p.add_argument("expr", nargs="?", default="")
    p.add_argument("--params", default="")
    p.add_argument("--bound", type=_positive, default=40)
    p.add_argument("--bad", type=_rationals, default="",
                   help="bad points of the family, comma-separated")
    p.set_defaults(fn=cmd_check)

    return ap


def _join_negative_values(ap, argv):
    """Let `--m -1/2` and `--params -2*x` parse: argparse reads a value that
    begins with '-' as a flag, unless it is joined to its one-value option."""
    verbs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for p in (ap, *verbs.choices.values()) for a in p._actions
               if a.nargs is None for s in a.option_strings}
    out = []
    for tok in argv:
        if out and out[-1] in options and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_negative_values(
        ap, list(sys.argv[1:] if argv is None else argv)))
    session.set_q(args.q)
    try:
        out, code = args.fn(args), EXIT_OK
    except ParseError as e:
        out, code = {"error": "parse", "message": str(e)}, EXIT_PARSE
    except UncertifiedTruncation as e:
        out, code = {"error": "uncertified", "message": str(e)}, EXIT_UNCERTIFIED
    except (SemanticError, DomainError) as e:
        out, code = {"error": "domain", "message": str(e)}, EXIT_DOMAIN
    except Exception as e:  # an internal fault, not a property of the input
        out = {"error": "internal", "message": f"{type(e).__name__}: {e}"}
        code = EXIT_INTERNAL
    try:
        _emit(out)
    except BrokenPipeError:  # the reader quit: keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
