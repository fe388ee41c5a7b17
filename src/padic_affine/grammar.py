"""Literal grammar for every object the CLI exchanges, with printers whose
output parses back bit-exactly.

    rational   -12/35 | 7
    ball       B(<rational>;<int>)
    clopen     {B(...), B(...)} | {}
    stepfn     {B(0;0): 1/2, B(1/3;-1): 2 | tail 0}
    affine     aff(a = <stepfn>, b = <stepfn>)
    cylinder   exp{<stepfn>} | poly{<stepfn>^2 * <stepfn>^1}
               | event{N(B(0;0)) = 2 & N(...) >= 1}

Rationals print as num/den with the denominator omitted when 1; there are
no floating literals.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .affine import AffineElement
from .errors import ParseError
from .padic import Ball, ClopenSet, Padic, PadicContext, first_overlap
from .poisson import EQ, GE, LE, CountEvent, CylinderFunction, Exponential, Polynomial
from .stepfn import PADIC, REAL, StepFunction

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|[{}();:,|<>=&^*/])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class Parser:
    """Recursive-descent parser over the literal grammar for a fixed prime."""

    def __init__(self, text: str, ctx: PadicContext):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text != text:
            raise ParseError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return tok

    def _error(self, message: str, tok=None):
        tok = tok or self._peek()
        raise ParseError(message, tok.line, tok.column)

    def finish(self, value):
        tok = self._peek()
        if tok.kind != "eof":
            self._error(f"trailing input starting at {tok.text!r}")
        return value

    # -- grammar ------------------------------------------------------------

    def rational(self) -> Fraction:
        tok = self._next()
        if tok.kind != "int":
            self._error("expected a rational literal", tok)
        num = int(tok.text)
        if self._peek().text == "/":
            self._next()
            den_tok = self._next()
            if den_tok.kind != "int" or int(den_tok.text) <= 0:
                self._error("expected a positive denominator", den_tok)
            return Fraction(num, int(den_tok.text))
        return Fraction(num)

    def integer(self) -> int:
        tok = self._next()
        if tok.kind != "int":
            self._error("expected an integer", tok)
        return int(tok.text)

    def ball(self) -> Ball:
        tok = self._expect("B")
        self._expect("(")
        center = self.rational()
        self._expect(";")
        radius = self.integer()
        self._expect(")")
        return Ball.from_center(Padic(self.ctx, center), radius)

    def clopen(self) -> ClopenSet:
        self._expect("{")
        balls = []
        if self._peek().text != "}":
            balls.append(self.ball())
            while self._peek().text == ",":
                self._next()
                balls.append(self.ball())
        self._expect("}")
        # ClopenSet.of accepts nested balls; a literal may not hold any
        clash = first_overlap(balls)
        if clash is not None:
            i, j = (balls[k] for k in clash)
            self._error(f"balls {i} and {j} overlap")
        return ClopenSet.of(self.ctx, balls)

    def step(self, kind: str = REAL) -> StepFunction:
        open_tok = self._expect("{")
        parts = []
        while self._peek().text == "B":
            b = self.ball()
            self._expect(":")
            parts.append((b, self.rational()))
            if self._peek().text == ",":
                self._next()
        self._expect("|")
        tail_tok = self._next()
        if tail_tok.text != "tail":
            self._error("expected 'tail'", tail_tok)
        tail = self.rational()
        self._expect("}")
        try:
            return StepFunction.make(self.ctx, kind, parts, tail)
        except Exception as exc:
            raise ParseError(str(exc), open_tok.line, open_tok.column) from exc

    def affine(self) -> AffineElement:
        head = self._expect("aff")
        self._expect("(")
        name = self._next()
        if name.text != "a":
            self._error("expected 'a ='", name)
        self._expect("=")
        a = self.step(PADIC)
        self._expect(",")
        name = self._next()
        if name.text != "b":
            self._error("expected 'b ='", name)
        self._expect("=")
        b = self.step(PADIC)
        self._expect(")")
        try:
            return AffineElement(a, b)
        except Exception as exc:
            raise ParseError(str(exc), head.line, head.column) from exc

    def cylinder(self) -> CylinderFunction:
        tok = self._next()
        if tok.text == "exp":
            self._expect("{")
            self._expect("<")
            f = self.step(REAL)
            self._expect(">")
            self._expect("}")
            return Exponential(f)
        if tok.text == "poly":
            self._expect("{")
            factors = [self._poly_factor()]
            while self._peek().text == "*":
                self._next()
                factors.append(self._poly_factor())
            self._expect("}")
            return Polynomial(tuple(factors))
        if tok.text == "event":
            self._expect("{")
            conditions = [self._condition()]
            while self._peek().text == "&":
                self._next()
                conditions.append(self._condition())
            self._expect("}")
            return CountEvent(tuple(conditions))
        self._error("expected exp, poly or event", tok)

    def _poly_factor(self):
        self._expect("<")
        f = self.step(REAL)
        self._expect(">")
        self._expect("^")
        power = self.integer()
        if power < 1:
            self._error("powers must be positive")
        return (f, power)

    def _condition(self):
        self._expect("N")
        self._expect("(")
        if self._peek().text == "B":
            sets = ClopenSet.of(self.ctx, [self.ball()])
        else:
            sets = self.clopen()
        self._expect(")")
        op_tok = self._next()
        if op_tok.text not in (EQ, LE, GE):
            self._error("expected =, <= or >=", op_tok)
        count = self.integer()
        if count < 0:
            self._error("counts are nonnegative")
        return (sets, op_tok.text, count)

    def value(self):
        """Dispatch on the leading token, reading a step function as real;
        called by parse_value."""
        tok = self._peek()
        if tok.text == "aff":
            return self.affine()
        if tok.text in ("exp", "poly", "event"):
            return self.cylinder()
        if tok.text == "B":
            return self.ball()
        if tok.text == "{":
            # distinguish clopen from step function by lookahead
            i = self.pos + 1
            if self.tokens[i].text == "}":
                return self.clopen()
            if self.tokens[i].text == "|":
                return self.step()
            depth = 0
            while self.tokens[i].kind != "eof":
                t = self.tokens[i].text
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                elif depth == 0 and t == ":":
                    return self.step()
                elif depth == 0 and t in (",", "}"):
                    return self.clopen()
                i += 1
            return self.clopen()
        if tok.kind == "int":
            return Padic(self.ctx, self.rational())
        self._error(f"cannot parse a value starting at {tok.text!r}")


# -- entry points -----------------------------------------------------------


def parse_clopen(text: str, ctx: PadicContext) -> ClopenSet:
    p = Parser(text, ctx)
    return p.finish(p.clopen())


def parse_step(text: str, ctx: PadicContext) -> StepFunction:
    """A real step function."""
    p = Parser(text, ctx)
    return p.finish(p.step())


def parse_affine(text: str, ctx: PadicContext) -> AffineElement:
    p = Parser(text, ctx)
    return p.finish(p.affine())


def parse_value(text: str, ctx: PadicContext):
    p = Parser(text, ctx)
    return p.finish(p.value())


# -- printers ---------------------------------------------------------------


def format_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_clopen(s: ClopenSet) -> str:
    return "{" + ", ".join(map(str, s.balls)) + "}"


def format_step(f: StepFunction) -> str:
    body = ", ".join(f"{b}: {format_rational(v)}" for b, v in f.parts)
    sep = " " if body else ""
    return "{" + body + sep + "| tail " + format_rational(f.tail) + "}"


def format_affine(g: AffineElement) -> str:
    return f"aff(a = {format_step(g.a)}, b = {format_step(g.b)})"


def format_cylinder(f: CylinderFunction) -> str:
    if isinstance(f, Exponential):
        return "exp{<" + format_step(f.f) + ">}"
    if isinstance(f, Polynomial):
        return "poly{" + " * ".join(
            f"<{format_step(fn)}>^{e}" for fn, e in f.factors
        ) + "}"
    if isinstance(f, CountEvent):
        return "event{" + " & ".join(
            f"N({format_clopen(s)}) {op} {k}" for s, op, k in f.conditions
        ) + "}"
    raise TypeError(f"cannot format {type(f).__name__}")


def format_value(x) -> str:
    if isinstance(x, Ball):
        return str(x)
    if isinstance(x, ClopenSet):
        return format_clopen(x)
    if isinstance(x, StepFunction):
        return format_step(x)
    if isinstance(x, AffineElement):
        return format_affine(x)
    if isinstance(x, CylinderFunction):
        return format_cylinder(x)
    if isinstance(x, Padic):
        return format_rational(x.frac)
    return format_rational(x)
