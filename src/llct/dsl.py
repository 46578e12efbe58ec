"""Text DSL for representation expressions.

Grammar (documented in docs/dsl.md):

    expr     := term ('+' term)*
    term     := 'Sp(' atomexpr ',' INT ')'
    atomexpr := 'unr(' scalar ')'
              | 'tau(' LABEL ',' kvpairs ')' ['*' 'unr(' scalar ')']
    scalar   := sfactor ('*' sfactor)*
    sfactor  := RATIONAL | XPOW | 'q^(' HALFINT ')'
              | 'zeta(' INT ',' INT ')' | IDENT | '(' xsum ')' | '-' sfactor
    xsum     := ['-'] xterm (('+'|'-') xterm)*
    xterm    := [UNSIGNED '*'] XPOW | UNSIGNED
    XPOW     := 'x' ['^' INT]
    UNSIGNED := DIGITS ['/' DIGITS]    -- a term's sign belongs to xsum

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
        if self.peek().kind != kind:
            self.error((what or kind,))
        return self.advance()

    def expect_word(self, word) -> Token:
        """The identifier `word`, which opens a `word(..)` construct."""
        t = self.expect("ident", word)
        if t.text != word:
            raise ParseError(f"{word}(..) expected", t.line, t.col, (word,))
        return t

    def error(self, expected):
        t = self.peek()
        raise ParseError(f"unexpected {t.text or 'end of input'!r}",
                         t.line, t.col, expected)

    # -- numbers -----------------------------------------------------------

    def parse_sign(self) -> int:
        """-1 after an optional '-' is consumed, else 1."""
        if self.peek().kind != "-":
            return 1
        self.advance()
        return -1

    def parse_int(self) -> int:
        sign = self.parse_sign()
        t = self.expect("num", "integer")
        if "/" in t.text:
            raise ParseError("integer expected", t.line, t.col, ("integer",))
        return sign * int(t.text)

    def parse_rational(self) -> Fraction:
        sign = self.parse_sign()
        t = self.expect("num", "rational")
        try:
            return sign * Fraction(t.text)
        except ZeroDivisionError:
            raise ParseError("zero denominator", t.line, t.col, ("rational",)) from None

    def parse_exponent(self) -> int:
        """The optional '^' INT after x or a unit symbol; 1 when absent."""
        if self.peek().kind != "^":
            return 1
        self.advance()
        return self.parse_int()

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
            return Scalar.from_rational(self.parse_rational())
        if t.kind == "(":
            self.advance()
            s = self.parse_xsum()
            self.expect(")")
            return s
        if t.kind == "ident":
            if t.text == "x":
                self.advance()
                return Scalar.x_power(self.parse_exponent())
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
            return Scalar.opaque(t.text, self.parse_exponent())
        self.error(("rational", "x", "q^(p/2)", "zeta(a,N)", "symbol", "("))

    def parse_xsum(self) -> Scalar:
        if self.peek().kind == "+":
            self.error(("term",))
        xp: dict[int, Fraction] = {}
        sign = self.parse_sign()
        while True:
            c, k = self.parse_xterm()
            xp[k] = xp.get(k, 0) + sign * c
            t = self.peek()
            if t.kind not in ("+", "-"):
                return Scalar.from_xpoly(xp)
            self.advance()
            sign = -1 if t.kind == "-" else 1

    def parse_xterm(self) -> tuple[Fraction, int]:
        """[UNSIGNED '*'] XPOW, or UNSIGNED alone (k = 0)."""
        t = self.peek()
        c = Fraction(1)
        if t.kind == "num":
            c = self.parse_rational()
            if self.peek().kind != "*":
                return c, 0
            self.advance()
        xt = self.peek()
        if not (xt.kind == "ident" and xt.text == "x"):
            self.error(("x",) if t.kind == "num" else ("rational", "x"))
        self.advance()
        return c, self.parse_exponent()

    # -- atoms and blocks ----------------------------------------------------

    def parse_atomexpr(self) -> tuple[InertialAtom, Scalar]:
        t = self.peek()
        if t.kind == "ident" and t.text == "unr":
            self.advance()
            return UNR, self.parse_paren_scalar()
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
                self.expect_word("unr")
                alpha = self.parse_paren_scalar()
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

    def parse_paren_scalar(self) -> Scalar:
        self.expect("(")
        s = self.parse_scalar()
        self.expect(")")
        return s

    def parse_term(self) -> SpehBlock:
        self.expect_word("Sp")
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
            row = [self.parse_scalar()]
            while self.peek().kind == ",":
                self.advance()
                row.append(self.parse_scalar())
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
    s = p.parse_scalar()
    p.finish()
    return s


def parse_matrix(src: str) -> list[list[Scalar]]:
    p = Parser(src)
    m = p.parse_matrix()
    p.finish()
    return m
