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
from .padic import Ball, ClopenSet, Padic, PadicContext, ball_key, first_overlap
from .poisson import EQ, GE, LE, CountEvent, CylinderFunction, Exponential, Polynomial
from .stepfn import PADIC, REAL, StepFunction

# whitespace matches no group and is skipped; any other character is `bad`
_TOKEN_RE = re.compile(
    r"""
    (?P<int>-?\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|[{}();:,|<>=&^*/])
  | (?P<bad>\S)
    """,
    re.VERBOSE,
)


def _position(text: str, off: int) -> tuple:
    """(line, column) of offset `off`, counted only when an error is raised."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _tokenize(text: str) -> list:
    """(kind, text, offset) tuples from one regex pass, ending in eof."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, chunk, off in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", *_position(text, off))
    tokens.append(("eof", "", len(text)))
    return tokens


class Parser:
    """Recursive-descent parser over the literal grammar for a fixed prime.
    A token is a (kind, text, offset) tuple."""

    def __init__(self, text: str, ctx: PadicContext):
        self.text = text
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> tuple:
        return self.tokens[self.pos]

    def _next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str) -> tuple:
        tok = self._next()
        if tok[1] != text:
            found = tok[1] or "end of input"
            raise self._error(f"expected {text!r}, found {found!r}", tok)
        return tok

    def _error(self, message: str, tok=None) -> ParseError:
        """The error at `tok`, by default the next token."""
        return ParseError(message, *_position(self.text, (tok or self._peek())[2]))

    def _made(self, tok, make, *args):
        """make(*args), its refusal raised as the error at `tok`."""
        try:
            return make(*args)
        except Exception as exc:
            raise self._error(str(exc), tok) from exc

    def finish(self, value):
        tok = self._peek()
        if tok[0] != "eof":
            raise self._error(f"trailing input starting at {tok[1]!r}")
        return value

    # -- grammar ------------------------------------------------------------

    def _ratio(self) -> tuple:
        """(numerator, denominator) of a rational literal; the denominator
        is positive and 1 when omitted."""
        tok = self._next()
        if tok[0] != "int":
            raise self._error("expected a rational literal", tok)
        if self._peek()[1] != "/":
            return int(tok[1]), 1
        self.pos += 1
        den = self._next()
        if den[0] != "int" or int(den[1]) <= 0:
            raise self._error("expected a positive denominator", den)
        return int(tok[1]), int(den[1])

    def rational(self) -> Fraction:
        return Fraction(*self._ratio())

    def integer(self) -> int:
        tok = self._next()
        if tok[0] != "int":
            raise self._error("expected an integer", tok)
        return int(tok[1])

    def ball(self) -> Ball:
        # the key comes from the literal's integers: no Fraction, no Padic
        self._expect("B")
        self._expect("(")
        n, d = self._ratio()
        self._expect(";")
        radius = self.integer()
        self._expect(")")
        return Ball(self.ctx, radius, ball_key(self.ctx.p, n, d, radius))

    def _list(self, item, sep: str) -> tuple:
        """item (sep item)*"""
        items = [item()]
        while self._peek()[1] == sep:
            self.pos += 1
            items.append(item())
        return tuple(items)

    def clopen(self) -> ClopenSet:
        self._expect("{")
        balls = () if self._peek()[1] == "}" else self._list(self.ball, ",")
        self._expect("}")
        # ClopenSet.of accepts nested balls; a literal may not hold any
        clash = first_overlap(balls)
        if clash is not None:
            i, j = (balls[k] for k in clash)
            raise self._error(f"balls {i} and {j} overlap")
        return ClopenSet.of(self.ctx, balls)

    def step(self, kind: str = REAL) -> StepFunction:
        open_tok = self._expect("{")
        parts = []
        while self._peek()[1] != "|":
            if parts:
                self._expect(",")
            b = self.ball()
            self._expect(":")
            parts.append((b, self.rational()))
        self._expect("|")
        tail_tok = self._next()
        if tail_tok[1] != "tail":
            raise self._error("expected 'tail'", tail_tok)
        tail = self.rational()
        self._expect("}")
        return self._made(open_tok, StepFunction.make, self.ctx, kind, parts, tail)

    def affine(self) -> AffineElement:
        head = self._expect("aff")
        coefficients = []
        for sep, name in (("(", "a"), (",", "b")):
            self._expect(sep)
            tok = self._next()
            if tok[1] != name:
                raise self._error(f"expected '{name} ='", tok)
            self._expect("=")
            coefficients.append(self.step(PADIC))
        self._expect(")")
        return self._made(head, AffineElement, *coefficients)

    def cylinder(self) -> CylinderFunction:
        tok = self._next()
        if tok[1] == "exp":
            make, body = Exponential, self._bracketed
        elif tok[1] == "poly":
            make, body = Polynomial, lambda: self._list(self._poly_factor, "*")
        elif tok[1] == "event":
            make, body = CountEvent, lambda: self._list(self._condition, "&")
        else:
            raise self._error("expected exp, poly or event", tok)
        self._expect("{")
        arg = body()
        self._expect("}")
        return self._made(tok, make, arg)

    def _bracketed(self) -> StepFunction:
        """<f> for a real step function f."""
        self._expect("<")
        f = self.step(REAL)
        self._expect(">")
        return f

    def _poly_factor(self):
        f = self._bracketed()
        self._expect("^")
        power = self.integer()
        if power < 1:
            raise self._error("powers must be positive")
        return (f, power)

    def _condition(self):
        self._expect("N")
        self._expect("(")
        if self._peek()[1] == "B":
            sets = ClopenSet.of(self.ctx, [self.ball()])
        else:
            sets = self.clopen()
        self._expect(")")
        op_tok = self._next()
        if op_tok[1] not in (EQ, LE, GE):
            raise self._error("expected =, <= or >=", op_tok)
        count = self.integer()
        if count < 0:
            raise self._error("counts are nonnegative")
        return (sets, op_tok[1], count)

    def value(self):
        """Dispatch on the leading token, reading a step function as real;
        called by parse_value."""
        tok = self._peek()
        if tok[1] == "aff":
            return self.affine()
        if tok[1] in ("exp", "poly", "event"):
            return self.cylinder()
        if tok[1] == "B":
            return self.ball()
        if tok[1] == "{":
            return self.step() if self._opens_step() else self.clopen()
        if tok[0] == "int":
            return Padic(self.ctx, self.rational())
        raise self._error(f"cannot parse a value starting at {tok[1]!r}")

    def _opens_step(self) -> bool:
        """Whether the '{' at the cursor opens a step function: '|' or a
        first ball followed by ':' comes next. Anything else is read as a
        clopen set, whose reader fails on a bad first ball as step's would."""
        start = self.pos
        self.pos += 1
        try:
            if self._peek()[1] == "|":
                return True
            self.ball()
            return self._peek()[1] == ":"
        except ParseError:
            return False
        finally:
            self.pos = start


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
