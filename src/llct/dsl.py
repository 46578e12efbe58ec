"""Text DSL for representation expressions.

Grammar (documented in docs/dsl.md):

    expr     := term ('+' term)*
    term     := 'Sp(' atomexpr ',' INT ')'
    atomexpr := 'unr(' scalar ')'
              | 'tau(' LABEL ',' kvpairs ')' ['*' 'unr(' scalar ')']
    scalar   := sfactor ('*' sfactor)*
    sfactor  := RATIONAL | XPOW | 'q^(' HALFINT ')'
              | 'zeta(' INT ',' INT ')' | IDENT | '(' xsum ')'
    xsum     := xterm (('+'|'-') xterm)*
    xterm    := [RATIONAL '*'] XPOW | RATIONAL
    XPOW     := 'x' ['^' INT]

Parse errors carry line/column and the expected-token set.  Rendering is
canonical, and parse(render(r)) == r on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exact import Record, Scalar
from .wd import WDRep, SpehBlock, InertialAtom, UNR, UNRAMIFIED_LABEL


class ParseError(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{detail}")


class SemanticError(ValueError):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\^|\*|\+|-|,|\(|\)|=|\[|\])
  | (?P<ws>\s+)
""", re.VERBOSE)


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")
    __hash__ = None

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def tokenize(src: str) -> list[Token]:
    out = []
    line, col, i = 1, 1, 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "op" else text
            out.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    out.append(Token("eof", "", line, col))
    return out


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what=None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {t.text or 'end of input'!r}",
                             t.line, t.col, (what or kind,))
        return self.advance()

    def error(self, expected):
        t = self.peek()
        raise ParseError(f"unexpected {t.text or 'end of input'!r}",
                         t.line, t.col, expected)

    # -- numbers -----------------------------------------------------------

    def parse_int(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        t = self.expect("num", "integer")
        if "/" in t.text:
            raise ParseError("integer expected", t.line, t.col, ("integer",))
        v = int(t.text)
        return -v if neg else v

    def parse_rational(self) -> Fraction:
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        t = self.expect("num", "rational")
        try:
            v = Fraction(t.text)
        except ZeroDivisionError:
            raise ParseError("zero denominator", t.line, t.col, ("rational",)) from None
        return -v if neg else v

    # -- scalars -------------------------------------------------------------

    def parse_scalar(self) -> Scalar:
        out = self.parse_sfactor()
        while self.peek().kind == "*":
            self.advance()
            out = out * self.parse_sfactor()
        return out

    def parse_sfactor(self) -> Scalar:
        t = self.peek()
        if t.kind == "-":
            self.advance()
            return -self.parse_sfactor()
        if t.kind == "num":
            c = self.parse_rational()
            return Scalar.from_rational(c)
        if t.kind == "(":
            self.advance()
            s = self.parse_xsum()
            self.expect(")")
            return s
        if t.kind == "ident":
            if t.text == "x":
                return self.parse_xpow()
            if t.text == "q":
                self.advance()
                self.expect("^")
                self.expect("(")
                v = self.parse_rational()
                self.expect(")")
                two = 2 * v
                if two.denominator != 1:
                    raise ParseError("q-exponent must be a half-integer",
                                     t.line, t.col, ("p/2",))
                return Scalar.qpow(int(two))
            if t.text == "zeta":
                self.advance()
                self.expect("(")
                a = self.parse_int()
                self.expect(",")
                nt = self.peek()
                n = self.parse_int()
                if n <= 0:
                    raise ParseError("root-of-unity order must be positive",
                                     nt.line, nt.col, ("positive integer",))
                self.expect(")")
                return Scalar.root_of_unity(a, n)
            # opaque unit symbol
            self.advance()
            exp = 1
            if self.peek().kind == "^":
                self.advance()
                exp = self.parse_int()
            return Scalar.opaque(t.text, exp)
        self.error(("rational", "x", "q^(p/2)", "zeta(a,N)", "symbol", "("))

    def parse_xpow(self) -> Scalar:
        self.expect("ident")
        k = 1
        if self.peek().kind == "^":
            self.advance()
            k = self.parse_int()
        return Scalar.x_power(k)

    def parse_xsum(self) -> Scalar:
        xp: dict[int, Fraction] = {}

        def add(k, c):
            xp[k] = xp.get(k, Fraction(0)) + c
            if xp[k] == 0:
                del xp[k]

        first = True
        while True:
            sign = 1
            t = self.peek()
            if t.kind == "-":
                self.advance()
                sign = -1
            elif t.kind == "+":
                if first:
                    self.error(("term",))
                self.advance()
            elif not first:
                break
            c, k = self.parse_xterm()
            add(k, sign * c)
            first = False
            if self.peek().kind not in ("+", "-"):
                break
        return Scalar.from_xpoly(xp)

    def parse_xterm(self) -> tuple[Fraction, int]:
        t = self.peek()
        if t.kind == "num":
            c = self.parse_rational()
            if self.peek().kind == "*":
                self.advance()
                xt = self.peek()
                if not (xt.kind == "ident" and xt.text == "x"):
                    self.error(("x",))
                self.advance()
                k = 1
                if self.peek().kind == "^":
                    self.advance()
                    k = self.parse_int()
                return c, k
            return c, 0
        if t.kind == "ident" and t.text == "x":
            self.advance()
            k = 1
            if self.peek().kind == "^":
                self.advance()
                k = self.parse_int()
            return Fraction(1), k
        self.error(("rational", "x"))

    # -- atoms and blocks ----------------------------------------------------

    def parse_atomexpr(self) -> tuple[InertialAtom, Scalar]:
        t = self.peek()
        if t.kind == "ident" and t.text == "unr":
            self.advance()
            self.expect("(")
            alpha = self.parse_scalar()
            self.expect(")")
            return UNR, alpha
        if t.kind == "ident" and t.text == "tau":
            self.advance()
            self.expect("(")
            label_tok = self.expect("ident", "atom label")
            label = label_tok.text
            kvs: dict[str, object] = {}
            while self.peek().kind == ",":
                self.advance()
                key = self.expect("ident", "kv key").text
                self.expect("=")
                if key in ("dim", "f", "cond"):
                    kvs[key] = self.parse_int()
                elif key == "w":
                    kvs[key] = self.parse_rational()
                elif key == "eps":
                    kvs[key] = self.parse_scalar()
                elif key == "dual":
                    kvs[key] = self.expect("ident", "dual label").text
                else:
                    raise ParseError(f"unknown atom key {key!r}",
                                     label_tok.line, label_tok.col,
                                     ("dim", "f", "cond", "w", "eps", "dual"))
            self.expect(")")
            alpha = Scalar.one()
            if self.peek().kind == "*":
                self.advance()
                nxt = self.expect("ident", "unr")
                if nxt.text != "unr":
                    raise ParseError("unr(..) expected", nxt.line, nxt.col, ("unr",))
                self.expect("(")
                alpha = self.parse_scalar()
                self.expect(")")
            if label == UNRAMIFIED_LABEL:
                raise SemanticError("label '1' is reserved for the unramified atom")
            atom = InertialAtom(label,
                                dim=kvs.get("dim", 1),
                                f=kvs.get("f", 1),
                                cond=kvs.get("cond", 1),
                                weight=kvs.get("w", Fraction(0)),
                                eps_unit=kvs.get("eps"),
                                dual_label=kvs.get("dual"))
            return atom, alpha
        self.error(("unr", "tau"))

    def parse_term(self) -> SpehBlock:
        t = self.expect("ident", "Sp")
        if t.text != "Sp":
            raise ParseError("Sp(..) expected", t.line, t.col, ("Sp",))
        self.expect("(")
        atom, alpha = self.parse_atomexpr()
        self.expect(",")
        m = self.parse_int()
        self.expect(")")
        if m <= 0:
            raise SemanticError(f"Speh length must be positive, got {m}")
        if alpha.is_zero():
            raise SemanticError("non-invertible twist parameter unr(0)")
        return SpehBlock(atom, alpha, m)

    def parse_expr(self) -> WDRep:
        blocks = [self.parse_term()]
        while self.peek().kind == "+":
            self.advance()
            blocks.append(self.parse_term())
        try:
            return WDRep(blocks)
        except ValueError as e:
            raise SemanticError(str(e)) from e

    def parse_matrix(self) -> list[list[Scalar]]:
        self.expect("[")
        rows = []
        while True:
            self.expect("[")
            row = [self.parse_signed_scalar()]
            while self.peek().kind == ",":
                self.advance()
                row.append(self.parse_signed_scalar())
            self.expect("]")
            rows.append(row)
            if self.peek().kind == ",":
                self.advance()
                continue
            break
        self.expect("]")
        if any(len(row) != len(rows) for row in rows):
            raise SemanticError("matrix must be square")
        return rows

    def parse_signed_scalar(self) -> Scalar:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_scalar()
        return self.parse_scalar()

    def finish(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col, ("end",))


def parse_wd(src: str) -> WDRep:
    p = Parser(src)
    r = p.parse_expr()
    p.finish()
    return r


def parse_scalar(src: str) -> Scalar:
    p = Parser(src)
    s = p.parse_signed_scalar()
    p.finish()
    return s


def parse_matrix(src: str) -> list[list[Scalar]]:
    p = Parser(src)
    m = p.parse_matrix()
    p.finish()
    return m
