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

_KINDS = {"int": r"-?\d+", "name": r"[A-Za-z_]\w*", "op": r"<=|>=|[{}();:,|<>=&^*/]"}
# the token texts, in one findall: whitespace and any other character match
# nothing and are skipped
_WORD_RE = re.compile("|".join(_KINDS.values()))
# the same alternatives as named groups; any other non-space character is `bad`
_TOKEN_RE = re.compile(
    "|".join(f"(?P<{kind}>{alt})" for kind, alt in _KINDS.items()) + r"|(?P<bad>\S)"
)

MAX_INT_DIGITS = 4300
"""Most digits an integer token may have: CPython's default cap on int()
of a string from 3.11 on, refused as a ParseError on every version."""


def _position(text: str, off: int) -> tuple:
    """(line, column) of offset `off`, counted only when an error is raised."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _tokenize(text: str) -> list:
    """(kind, text, offset) tuples from one regex pass, ending in eof; the
    first `bad` character raises. Called only for an error's offset."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, chunk, off in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", *_position(text, off))
    tokens.append(("eof", "", len(text)))
    return tokens


def _is_int(tok: str) -> bool:
    # an int token is an optional '-' and decimal digits; no other token is
    return tok.lstrip("-").isdecimal()


class Parser:
    """Recursive-descent parser over the literal grammar for a fixed prime.

    The tokens are the texts of one `_WORD_RE.findall` pass, ending in "" for
    the end of input. They cover every non-space character exactly when
    their lengths add up to the text's non-space length; otherwise
    `_tokenize` raises at the first character they skip. No token may be
    an integer of more than MAX_INT_DIGITS digits; only a token longer than
    that sends the list through a search for one. A token's offset is
    looked up, through `_tokenize`, only when an error is raised."""

    def __init__(self, text: str, ctx: PadicContext):
        tokens = _WORD_RE.findall(text)
        if sum(map(len, tokens)) != sum(map(len, text.split())):
            _tokenize(text)
        tokens.append("")
        self.text = text
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0
        if max(map(len, tokens)) > MAX_INT_DIGITS:
            for at, tok in enumerate(tokens):
                digits = len(tok.lstrip("-"))
                if digits > MAX_INT_DIGITS and _is_int(tok):
                    raise self._error(
                        f"an integer of {digits} digits exceeds the cap of "
                        f"{MAX_INT_DIGITS}", at,
                    )

    # -- token plumbing -----------------------------------------------------

    def _next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str) -> None:
        tok = self._next()
        if tok != text:
            found = tok or "end of input"
            raise self._error(f"expected {text!r}, found {found!r}", self.pos - 1)

    def _error(self, message: str, at=None) -> ParseError:
        """The error at token `at`, by default the next token."""
        off = _tokenize(self.text)[self.pos if at is None else at][2]
        return ParseError(message, *_position(self.text, off))

    def _made(self, at: int, make, *args):
        """make(*args), its refusal raised as the error at token `at`."""
        try:
            return make(*args)
        except Exception as exc:
            raise self._error(str(exc), at) from exc

    def finish(self, value):
        tok = self.tokens[self.pos]
        if tok:
            raise self._error(f"trailing input starting at {tok!r}")
        return value

    # -- grammar ------------------------------------------------------------

    def _ratio(self) -> tuple:
        """(numerator, denominator) of a rational literal; the denominator
        is positive and 1 when omitted."""
        tok = self._next()
        if not _is_int(tok):
            raise self._error("expected a rational literal", self.pos - 1)
        if self.tokens[self.pos] != "/":
            return int(tok), 1
        self.pos += 1
        den = self._next()
        if not _is_int(den) or int(den) <= 0:
            raise self._error("expected a positive denominator", self.pos - 1)
        return int(tok), int(den)

    def rational(self) -> Fraction:
        return Fraction(*self._ratio())

    def integer(self) -> int:
        tok = self._next()
        if not _is_int(tok):
            raise self._error("expected an integer", self.pos - 1)
        return int(tok)

    def ball(self) -> Ball:
        # the key comes from the literal's integers: no Fraction, no Padic
        self._expect("B")
        self._expect("(")
        n, d = self._ratio()
        self._expect(";")
        radius = self.integer()
        self._expect(")")
        return Ball(self.ctx, radius, ball_key(self.ctx.p, n, d, radius))

    def _part(self) -> tuple:
        """(ball, value) of a step function's part `B(n[/d];k): v[/w]`, read
        by indexing the tokens. A part of any other shape, with a
        denominator that is not positive, or with an integer that int()
        refuses, is read again token by token, which raises its error."""
        t, i = self.tokens, self.pos
        try:
            if t[i] == "B" and t[i + 1] == "(":
                n, d = int(t[i + 2]), 1
                if t[i + 3] == "/":
                    d = int(t[i + 4])
                    i += 2
                if t[i + 3] == ";" and t[i + 5] == ")" and t[i + 6] == ":":
                    k, v, w = int(t[i + 4]), int(t[i + 7]), 1
                    if t[i + 8] == "/":
                        w = int(t[i + 9])
                        i += 2
                    if d > 0 and w > 0:
                        self.pos = i + 8
                        ball = Ball(self.ctx, k, ball_key(self.ctx.p, n, d, k))
                        return ball, Fraction(v, w)
        except (IndexError, ValueError):
            pass
        b = self.ball()
        self._expect(":")
        return b, self.rational()

    def _list(self, item, sep: str) -> tuple:
        """item (sep item)*"""
        items = [item()]
        while self.tokens[self.pos] == sep:
            self.pos += 1
            items.append(item())
        return tuple(items)

    def clopen(self) -> ClopenSet:
        self._expect("{")
        balls = () if self.tokens[self.pos] == "}" else self._list(self.ball, ",")
        self._expect("}")
        # ClopenSet.of accepts nested balls; a literal may not hold any
        clash = first_overlap(balls)
        if clash is not None:
            i, j = (balls[k] for k in clash)
            raise self._error(f"balls {i} and {j} overlap")
        return ClopenSet.of(self.ctx, balls)

    def step(self, kind: str = REAL) -> StepFunction:
        start = self.pos
        self._expect("{")
        tokens = self.tokens
        parts = []
        while tokens[self.pos] != "|":
            if parts:
                self._expect(",")
            parts.append(self._part())
        self._expect("|")
        if self._next() != "tail":
            raise self._error("expected 'tail'", self.pos - 1)
        tail = self.rational()
        self._expect("}")
        return self._made(start, StepFunction.make, self.ctx, kind, parts, tail)

    def affine(self) -> AffineElement:
        start = self.pos
        self._expect("aff")
        coefficients = []
        for sep, name in (("(", "a"), (",", "b")):
            self._expect(sep)
            if self._next() != name:
                raise self._error(f"expected '{name} ='", self.pos - 1)
            self._expect("=")
            coefficients.append(self.step(PADIC))
        self._expect(")")
        return self._made(start, AffineElement, *coefficients)

    def cylinder(self) -> CylinderFunction:
        start = self.pos
        tok = self._next()
        if tok == "exp":
            make, body = Exponential, self._bracketed
        elif tok == "poly":
            make, body = Polynomial, lambda: self._list(self._poly_factor, "*")
        elif tok == "event":
            make, body = CountEvent, lambda: self._list(self._condition, "&")
        else:
            raise self._error("expected exp, poly or event", start)
        self._expect("{")
        arg = body()
        self._expect("}")
        return self._made(start, make, arg)

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
        if self.tokens[self.pos] == "B":
            sets = ClopenSet.of(self.ctx, [self.ball()])
        else:
            sets = self.clopen()
        self._expect(")")
        op = self._next()
        if op not in (EQ, LE, GE):
            raise self._error("expected =, <= or >=", self.pos - 1)
        count = self.integer()
        if count < 0:
            raise self._error("counts are nonnegative")
        return (sets, op, count)

    def value(self):
        """Dispatch on the leading token, reading a step function as real;
        called by parse_value."""
        tok = self.tokens[self.pos]
        if tok == "aff":
            return self.affine()
        if tok in ("exp", "poly", "event"):
            return self.cylinder()
        if tok == "B":
            return self.ball()
        if tok == "{":
            return self.step() if self._opens_step() else self.clopen()
        if _is_int(tok):
            return Padic(self.ctx, self.rational())
        raise self._error(f"cannot parse a value starting at {tok!r}")

    def _opens_step(self) -> bool:
        """Whether the '{' at the cursor opens a step function: '|' or a
        first ball followed by ':' comes next. Anything else is read as a
        clopen set, whose reader fails on a bad first ball as step's would."""
        start = self.pos
        self.pos += 1
        try:
            tok = self.tokens[self.pos]
            if tok != "B":  # decided without a ParseError, so no offset lookup
                return tok == "|"
            self.ball()
            return self.tokens[self.pos] == ":"
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
    if not isinstance(x, Fraction):
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
