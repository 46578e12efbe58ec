"""The four workloads: how each operation is handed to llct and read back.

Each workload turns a generated operation (gen.py) into llct inputs
outside the timed region (`prepare`), makes the timed call through
llct's public functions, looked up on their modules at call time so
that a traced run sees them (`call`), turns the result into plain data
and checks it (`check`, via checks.py).
"""

import contextlib
import importlib
import io
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 20.0  # per operation, in process and per CLI call


def import_llct(src_dir):
    """Import llct afresh from src_dir (dropping any earlier import) and
    return its modules.  `llct.cli` pulls in every module of the package."""
    for name in [n for n in sys.modules if n == "llct" or n.startswith("llct.")]:
        del sys.modules[name]
    if sys.path[0] != str(src_dir):
        sys.path.insert(0, str(src_dir))
    importlib.import_module("llct.cli")
    mods = {name[len("llct."):]: m for name, m in sys.modules.items()
            if name.startswith("llct.")}
    if not os.path.realpath(mods["cli"].__file__).startswith(
            os.path.realpath(src_dir)):
        raise ImportError(f"llct was not imported from {src_dir}")
    return types.SimpleNamespace(**mods)


# -- reading llct objects back as plain data ----------------------------------

def plain_scalar(s):
    """A monomial Scalar as (c, h, k); anything else as an unmatched tag."""
    if s.root == (0, 1) and not s.opaques and len(s.xpoly) == 1:
        (k, c), = s.xpoly.items()
        return (c, s.qh, k)
    return ("unexpected", s.render())


def plain_coef(c) -> dict:
    out = {}
    for (root, opaques, qh, x), v in c.terms.items():
        out[(qh, x) if root == (0, 1) and not opaques else ("other", x)] = v
    return out


def plain_entry(e):
    """A monodromy entry (a Fraction, or an FE over Q(x)(sqrt q)) as a
    Fraction."""
    if isinstance(e, Fraction):
        return e
    if e.b.is_zero() and e.a.is_const():
        return e.a.const_value()
    raise ValueError("monodromy entry is not rational")


class Oracle:
    """oracle-q and oracle-fe: classify(realize(r)) and tensor matrices."""

    def __init__(self, llct, name):
        self.llct, self.name, self.q = llct, name, gen.IN_PROCESS_Q
        llct.session.set_q(self.q)

    def _rep(self, rep):
        L = self.llct
        return L.wd.WDRep([L.wd.sp(L.exact.Scalar.make(c, qexp2=h2, xexp=k), m)
                           for (c, h2, k), m in rep])

    def prepare(self, op):
        return (op[0],) + tuple(self._rep(r) for r in op[1:])

    def call(self, args):
        oracle = self.llct.oracle
        if args[0] == "roundtrip":
            mat = oracle.realize(args[1])
        else:
            mat = oracle.tensor_matrix(oracle.realize(args[1]),
                                       oracle.realize(args[2]))
        return mat, oracle.classify(mat)

    def check(self, op, result):
        mat, rep = result
        try:
            n_rows = [[plain_entry(e) for e in row] for row in mat.n]
        except ValueError as e:
            return str(e)
        out = [(plain_scalar(b.alpha), b.m) for b in rep.blocks]
        if any(a[0] == "unexpected" for a, _m in out):
            return f"non-monomial block parameter in {rep.render()}"
        return checks.check_oracle(op, out, n_rows, self.q)

    def warm_up_op(self):
        """Fixed input outside the generators' range (29 and 31 are not
        in gen.POOL)."""
        if self.name == "oracle-fe":
            return ("roundtrip", (((29, 1, 1), 2),))
        return ("tensor", (((29, 0, 0), 2),), (((31, 2, 0), 2),))


class Zeta:
    """zeta-cert: certified integrals on ladders of rising bounds."""

    def __init__(self, llct, name):
        self.llct, self.name, self.q = llct, name, gen.IN_PROCESS_Q
        llct.session.set_q(self.q)

    def prepare(self, op):
        sd = self.llct.zeta.SatakeData
        if op[0] == "glnn":
            return (op[0], sd(op[1]), sd(op[2])) + op[3:]
        return (op[0], sd(op[1])) + op[2:]

    def call(self, args):
        zeta = self.llct.zeta
        kind = args[0]
        if kind == "gl1":
            return zeta.zeta_gl_n_gl1(args[1], args[2], args[3], strict=True)
        if kind == "glnn":
            return zeta.zeta_gl_n_gl_n(args[1], args[2], args[3], args[4],
                                       strict=True)
        if kind == "pairing":
            return zeta.invariant_pairing_check(args[1], args[2])
        return zeta.gl2_gamma_functional_equation_check(args[1], args[2])

    def check(self, op, res):
        if op[0] in ("pairing", "feq"):
            return checks.check_zeta(op, res, self.q)
        bound = op[-1]
        try:
            plain = {
                "certified": res.certified,
                "series": {d: plain_coef(res.series.coeff(d)) for d in range(bound + 1)},
                "l_inv": {d: plain_coef(c) for d, c in res.l_inv.coeffs.items()},
                "product": {d: plain_coef(res.product.coeff(d))
                            for d in range(bound + 1)},
            }
        except ValueError as e:
            return f"result window too short: {e}"
        return checks.check_zeta(op, plain, self.q)

    def warm_up_op(self):
        return ("gl1", (29, 31), gen.ZETA_LADDERS[0][3][0], 10)


class Cli:
    """cli-calls: one fresh `python -m llct.cli` process per call.

    In a traced run the same argv is also replayed in-process through
    llct.cli.main, so that the layers under the CLI can be timed."""

    def __init__(self, llct, name):
        self.llct, self.name = llct, name
        self.root = str(ROOT)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def prepare(self, op):
        q, argv, _expect = op
        return ["--q", str(q)] + argv

    def call(self, argv):
        proc = subprocess.run([sys.executable, "-m", "llct.cli"] + argv,
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def call_in_process(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.llct.cli.main(argv)
        return code, buf.getvalue()

    def check(self, op, result):
        q, _argv, expect = op
        return checks.check_cli(expect, q, *result)

    def warm_up_op(self):
        return (3, ["L", "Sp(unr(29),2)"], ("L", (((29, 0, 0), 2),)))


WORKLOADS = {"oracle-q": Oracle, "oracle-fe": Oracle, "zeta-cert": Zeta,
             "cli-calls": Cli}
