"""The literal reader and printers against the ones they replaced.

`RefParser` and the `ref_format_*` printers below are the grammar as it was
when a parser read (kind, text, offset) tuples token by token and a ball
printed its center through `Ball.center`. The package's parser reads the
token texts of one findall, a step function's parts by index, and asks for
offsets only for an error; its ball printer reads `Ball._frame()`'s integers.
On printed literals and on mutations of them (tokens deleted, duplicated or
swapped, bad characters inserted, whitespace varied) every entry point must
return an equal value or raise the same error at the same line and column,
and every printer must give the same bytes.

One rule was added to both since: an integer token of more than 4300
digits is refused with a ParseError at that token, before int() sees it.
"""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import grammar, randgen
from padic_affine.affine import AffineElement
from padic_affine.errors import ParseError
from padic_affine.padic import Ball, ClopenSet, Padic, PadicContext, ball_key, first_overlap
from padic_affine.poisson import EQ, GE, LE, CountEvent, CylinderFunction, Exponential, Polynomial
from padic_affine.stepfn import PADIC, REAL, StepFunction

PRIMES = [2, 3, 5, 7]


# -- the reference grammar ------------------------------------------------------

# whitespace matches no group and is skipped; any other character is `bad`
REF_TOKEN_RE = re.compile(
    r"""
    (?P<int>-?\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|[{}();:,|<>=&^*/])
  | (?P<bad>\S)
    """,
    re.VERBOSE,
)


def ref_position(text: str, off: int) -> tuple:
    """(line, column) of offset `off`, counted only when an error is raised."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def ref_tokenize(text: str) -> list:
    """(kind, text, offset) tuples from one regex pass, ending in eof."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in REF_TOKEN_RE.finditer(text)]
    for kind, chunk, off in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", *ref_position(text, off))
    tokens.append(("eof", "", len(text)))
    return tokens


class RefParser:
    """Recursive-descent parser over the literal grammar for a fixed prime.
    A token is a (kind, text, offset) tuple."""

    def __init__(self, text: str, ctx: PadicContext):
        self.text = text
        self.tokens = ref_tokenize(text)
        self.ctx = ctx
        self.pos = 0
        for tok in self.tokens:
            digits = len(tok[1].lstrip("-"))
            if tok[0] == "int" and digits > 4300:
                raise self._error(f"an integer of {digits} digits exceeds the cap of 4300", tok)

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
        return ParseError(message, *ref_position(self.text, (tok or self._peek())[2]))

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


def ref_parse_clopen(text: str, ctx: PadicContext) -> ClopenSet:
    p = RefParser(text, ctx)
    return p.finish(p.clopen())


def ref_parse_step(text: str, ctx: PadicContext) -> StepFunction:
    """A real step function."""
    p = RefParser(text, ctx)
    return p.finish(p.step())


def ref_parse_affine(text: str, ctx: PadicContext) -> AffineElement:
    p = RefParser(text, ctx)
    return p.finish(p.affine())


def ref_parse_value(text: str, ctx: PadicContext):
    p = RefParser(text, ctx)
    return p.finish(p.value())


# -- printers ---------------------------------------------------------------


def ref_ball(b: Ball) -> str:
    return f"B({b.center.frac};{b.radius_exp})"


def ref_format_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def ref_format_clopen(s: ClopenSet) -> str:
    return "{" + ", ".join(map(ref_ball, s.balls)) + "}"


def ref_format_step(f: StepFunction) -> str:
    body = ", ".join(f"{ref_ball(b)}: {ref_format_rational(v)}" for b, v in f.parts)
    sep = " " if body else ""
    return "{" + body + sep + "| tail " + ref_format_rational(f.tail) + "}"


def ref_format_affine(g: AffineElement) -> str:
    return f"aff(a = {ref_format_step(g.a)}, b = {ref_format_step(g.b)})"


def ref_format_cylinder(f: CylinderFunction) -> str:
    if isinstance(f, Exponential):
        return "exp{<" + ref_format_step(f.f) + ">}"
    if isinstance(f, Polynomial):
        return "poly{" + " * ".join(
            f"<{ref_format_step(fn)}>^{e}" for fn, e in f.factors
        ) + "}"
    if isinstance(f, CountEvent):
        return "event{" + " & ".join(
            f"N({ref_format_clopen(s)}) {op} {k}" for s, op, k in f.conditions
        ) + "}"
    raise TypeError(f"cannot format {type(f).__name__}")


def ref_format_value(x) -> str:
    if isinstance(x, Ball):
        return ref_ball(x)
    if isinstance(x, ClopenSet):
        return ref_format_clopen(x)
    if isinstance(x, StepFunction):
        return ref_format_step(x)
    if isinstance(x, AffineElement):
        return ref_format_affine(x)
    if isinstance(x, CylinderFunction):
        return ref_format_cylinder(x)
    if isinstance(x, Padic):
        return ref_format_rational(x.frac)
    return ref_format_rational(x)


def ref_parse_ball(text, ctx):
    p = RefParser(text, ctx)
    return p.finish(p.ball())


def ref_parse_cylinder(text, ctx):
    p = RefParser(text, ctx)
    return p.finish(p.cylinder())


def ref_parse_rational(text, ctx):
    p = RefParser(text, ctx)
    return p.finish(p.rational())


def parse_ball(text, ctx):
    p = grammar.Parser(text, ctx)
    return p.finish(p.ball())


def parse_cylinder(text, ctx):
    p = grammar.Parser(text, ctx)
    return p.finish(p.cylinder())


def parse_rational(text, ctx):
    p = grammar.Parser(text, ctx)
    return p.finish(p.rational())


# (entry point, its reference) for every way a literal is read
ENTRY_POINTS = [
    (grammar.parse_value, ref_parse_value),
    (grammar.parse_step, ref_parse_step),
    (grammar.parse_affine, ref_parse_affine),
    (grammar.parse_clopen, ref_parse_clopen),
    (parse_cylinder, ref_parse_cylinder),
    (parse_ball, ref_parse_ball),
    (parse_rational, ref_parse_rational),
]


def outcome(parse, text, ctx):
    """What reading `text` gives: the value's type, kind and reference
    print, or the error's type and message, with a ParseError's line and
    column."""
    try:
        value = parse(text, ctx)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.column, str(exc))
    except Exception as exc:  # the same refusal on both sides
        return (type(exc).__name__, str(exc))
    kind = getattr(value, "kind", None)
    return ("value", type(value).__name__, kind, ref_format_value(value))


def assert_reads_alike(text, p):
    ctx = PadicContext(p)
    for parse, ref in ENTRY_POINTS:
        assert outcome(parse, text, ctx) == outcome(ref, text, ctx), (parse.__name__, text)


# -- printed literals -------------------------------------------------------------


def random_values(ctx, rng):
    """Every printable shape from randgen, with balls of negative radius and
    integer centers and images with fractional ones."""
    p = ctx.p
    g = randgen.random_element(ctx, rng, max_parts=4)
    h = randgen.random_measure_preserving(ctx, rng)
    f = randgen.random_test_function(ctx, rng)
    q = randgen.random_test_function(ctx, rng)
    window = randgen.random_clopen(ctx, rng)
    low = randgen.random_disjoint_balls(ctx, rng, 4, root_exp=-rng.randint(1, 4), splits=3)
    images = [
        b.image(randgen.random_unit(ctx, rng) * Fraction(p) ** rng.randint(-2, 2),
                randgen.random_rational(rng))
        for b in low
    ]
    centers = [
        Ball.from_center(randgen.random_point(ctx, rng), rng.randint(-4, 4))
        for _ in range(3)
    ]
    step = StepFunction.make(
        ctx, REAL, [(b, randgen.random_rational(rng)) for b in low], randgen.random_rational(rng)
    )
    return [
        g, h, f, q, g.a, h.b, window, step, *low, *images, *centers,
        ClopenSet.of(ctx, low), ClopenSet.of(ctx, []),
        Exponential(f),
        Polynomial(((f, 1), (q, 2))),
        CountEvent(((window, EQ, 2), (randgen.random_clopen(ctx, rng), GE, 1), (window, LE, 0))),
        randgen.random_point(ctx, rng),
        randgen.random_rational(rng),
        rng.randint(-50, 50),
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_printers_match_the_reference(p):
    ctx = PadicContext(p)
    printers = [
        (grammar.format_value, ref_format_value),
        (str, lambda x: ref_ball(x) if isinstance(x, Ball) else None),
    ]
    seen_negative_integer_center = False
    for seed in range(40):
        rng = random.Random(f"printers:{p}:{seed}")
        for x in random_values(ctx, rng):
            assert grammar.format_value(x) == ref_format_value(x)
            if isinstance(x, Ball):
                assert str(x) == ref_ball(x)
                seen_negative_integer_center |= x.radius_exp < 0 and x.center.frac.denominator == 1
            if isinstance(x, StepFunction):
                assert grammar.format_step(x) == ref_format_step(x)
            if isinstance(x, AffineElement):
                assert grammar.format_affine(x) == ref_format_affine(x)
            if isinstance(x, ClopenSet):
                assert grammar.format_clopen(x) == ref_format_clopen(x)
            if isinstance(x, CylinderFunction):
                assert grammar.format_cylinder(x) == ref_format_cylinder(x)
            if isinstance(x, (Fraction, int)):
                assert grammar.format_rational(x) == ref_format_rational(x)
    assert seen_negative_integer_center


def printed_literal(ctx, rng):
    return ref_format_value(rng.choice(random_values(ctx, rng)))


@pytest.mark.parametrize("p", PRIMES)
def test_printed_literals_read_alike(p):
    ctx = PadicContext(p)
    for seed in range(15):
        rng = random.Random(f"read:{p}:{seed}")
        for x in random_values(ctx, rng):
            assert_reads_alike(ref_format_value(x), p)


@pytest.mark.parametrize("p", PRIMES)
def test_valid_literals_never_tokenize(p, monkeypatch):
    """Offsets are looked up only for an error: reading a printed literal,
    the empty clopen set and the constant step function included, never
    calls _tokenize."""

    def refused(text):
        raise AssertionError(f"_tokenize called on {text!r}")

    ctx = PadicContext(p)
    literals = ["{}", "{| tail 3}"]
    for seed in range(5):
        rng = random.Random(f"valid:{p}:{seed}")
        literals += [ref_format_value(x) for x in random_values(ctx, rng)]
    monkeypatch.setattr(grammar, "_tokenize", refused)
    for text in literals:
        grammar.parse_value(text, ctx)


# -- mutated literals --------------------------------------------------------------

BAD = ["é", "?", "α", "$", "٣", "#", "-", "+", ".", "\x0b", "\xa0", "_", "x"]
SPACES = ["", " ", "  ", "\n", "\r\n", "\t", "\n\n  ", " \r\n\t"]


@st.composite
def mutated_literals(draw):
    """(p, text): a printed literal with up to four token-level mutations,
    joined again with varied whitespace."""
    p = draw(st.sampled_from(PRIMES))
    rng = random.Random(draw(st.integers(0, 10**9)))
    tokens = [chunk for _, chunk, _ in ref_tokenize(printed_literal(PadicContext(p), rng))]
    tokens.pop()  # eof
    for _ in range(draw(st.integers(0, 4))):
        how = draw(st.sampled_from(["delete", "duplicate", "swap", "insert", "split"]))
        if not tokens:
            tokens.append(draw(st.sampled_from(BAD)))
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        if how == "delete":
            del tokens[i]
        elif how == "duplicate":
            tokens.insert(i, tokens[i])
        elif how == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif how == "insert":
            tokens.insert(i, draw(st.sampled_from(BAD)))
        else:  # a bad character inside a token
            cut = draw(st.integers(0, len(tokens[i])))
            tokens[i] = tokens[i][:cut] + draw(st.sampled_from(BAD)) + tokens[i][cut:]
    space = st.sampled_from(SPACES)
    text = draw(space)
    for tok in tokens:
        text += tok + draw(space)
    return p, text


@given(mutated_literals())
@settings(max_examples=400, deadline=None)
def test_mutated_literals_read_alike(case):
    p, text = case
    assert_reads_alike(text, p)


# every error the grammar reports, and a few values read by the same paths
HAND_WRITTEN = [
    "", "  \n ", "x", "3/4", "-0", "B(0;0) x", "{}", "{B(0;0)}", "{| tail 0}",
    "{B(0;0): 1 | tail 0}", "{B(0;0) : | tail 0}", "{B(0;0), B(1;0)}",
    "{x: 1 | tail 0}", "{B(x;0): 1 | tail 0}", "{B(1/0;0): 1 | tail 0}",
    "{B(1/-3;0): 1 | tail 0}", "{B(0;0): 1/0 | tail 0}", "{B(0;0): 1/x | tail 0}",
    "{B(0;0): 1/-2 | tail 0}", "{B(0;0): 1/ | tail 0}", "{B(0;x): 1 | tail 0}",
    "{B(0,0): 1 | tail 0}", "{B(0;0) 1 | tail 0}", "{B(0;0): 1 B(1;0): 2 | tail 0}",
    "{B(0;0): 1, | tail 0}", "{B(0;0): 1 | tial 0}", "{| tail 0", "{| tail}",
    "{B(0;0): 1, B(0;-1): 2 | tail 0}", "{B(0;0), B(0;-1)}", "{B(0;0): 1",
    "{B(0;0): 1/", "{B(0;0", "{B(", "{B", "{B(0;0):", "{B(1/3;-1): -5/7 | tail 2}",
    "{B(1/3;-1): -5/7, B(2/9;-3): 1 | tail 2}", "{B(0;0) 1: | tail 0}",
    "{B(0;0)): 1 | tail 0}", "{B((0;0): 1 | tail 0}", "{B(0;;0): 1 | tail 0}",
    "{B(0/1/2;0): 1 | tail 0}", "{B(0;0): 1/2/3 | tail 0}", "{B(0;0/2): 1 | tail 0}",
    "{B(0;0)::1 | tail 0}", "{B(0;0), 1 | tail 0}", "{B(0;0) = 1/2 | tail 0}",
    "{B(0;0); 1 | tail 0}", "{B(0;0)(1 | tail 0}", "{B[0;0): 1 | tail 0}", "{B(0;0): tail | tail 0}", "{B(0;0): 1 || tail 0}",
    "aff(a = {| tail 1}, b = {| tail 0})", "aff(x = {| tail 1}, b = {| tail 0})",
    "aff(a = {| tail 1} b = {| tail 0})", "aff(a = {| tail 1}, b = {| tail 0}",
    "aff(a = {| tail 0}, b = {| tail 0})", "aff(a {| tail 1}, b = {| tail 0})",
    "aff(a = {B(0;0): 3 | tail 1}, b = {B(0;0): 1/3 | tail 0}) )",
    "foo{<{| tail 0}>}", "exp{<{B(0;0): 1 | tail 0}>}", "exp{<{| tail 1}>}",
    "exp{{B(0;0): 1 | tail 0}}", "poly{<{B(0;0): 1 | tail 0}>^0}",
    "poly{<{B(0;0): 1 | tail 0}>^2 * <{B(1;0): 1 | tail 0}>^1}",
    "poly{<{B(0;0): 1 | tail 0}>^x}", "event{N(B(0;0)) < 2}",
    "event{N(B(0;0)) = -1}", "event{N(B(0;0)) >= 1 & N({B(1;0)}) <= 2}",
    "event{N({B(0;0), B(0;-1)}) = 1}", "event{N(B(0;0) = 1}",
    "B(0;0)\r\n\r\n ?", "{B(0;0): é | tail 0}", "aff(\n\n", "\n\n  αβ",
    "{B(0;0): 1 | tail 0}\n}", "B(٣;0)", "{B(0;0):\t1/2\n| tail\r\n0}",
    "{B(" + "1" * 5000 + ";0): 1 | tail 0}", "{B(0;0): " + "7" * 5000 + " | tail 0}",
    "{B(1;2, B(0;0): 1 | tail 0}", "{B(1;2 : 1 | tail 0}", "{B(0;0 B(1;0)): 1 | tail 0}",
]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_hand_written_literals_read_alike(text, p):
    assert_reads_alike(text, p)


def test_hand_written_literals_reach_every_error():
    """Each message the grammar raises, and a refusal of StepFunction.make,
    AffineElement and a descriptor, each re-raised at its literal's start."""
    ctx = PadicContext(3)
    messages = {
        outcome(ref, text, ctx)[1]
        for text in HAND_WRITTEN
        for _, ref in ENTRY_POINTS
        if outcome(ref, text, ctx)[0] == "ParseError"
    }
    expected = [
        "expected 'B', found", "expected ')', found 'end of input'",
        "expected a rational literal", "expected a positive denominator",
        "expected an integer", "expected 'tail'", "expected 'a ='", "expected '=', found",
        "trailing input starting at", "expected exp, poly or event",
        "powers must be positive", "expected =, <= or >=", "counts are nonnegative",
        "cannot parse a value starting at", "unexpected character", "balls B(0;0) and",
        "expected ',', found 'B'", "a must have tail 1",
        "test function must vanish at infinity", "an integer of 5000 digits",
    ]
    for prefix in expected:
        assert any(m.startswith(prefix) for m in messages), prefix


@pytest.mark.parametrize("text", ["1" * 10_000 + "é", "{B(" + "1" * 10_000 + "é"])
def test_long_digit_run_before_a_bad_character_fails_fast(text):
    ctx = PadicContext(3)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="unexpected character 'é'"):
        grammar.parse_value(text, ctx)
    assert time.perf_counter() - start < 1.0
