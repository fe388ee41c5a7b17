"""The one-pass tokenizer against the scanner it replaced, and the work the
literal path does.

`grammar._tokenize` makes one `finditer` pass and returns (kind, text,
offset) tuples; a ParseError's line and column come from the offset only
when the error is raised. The parser itself reads the token texts of one
`findall` and calls `_tokenize` only for an error. `ref_tokenize` is the
scanner it replaced: one `match` per token, with lines and columns counted
as it went. Both must give the same tokens at the same positions and the
same error at the same place.
"""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from padic_affine import grammar, randgen
from padic_affine.affine import AffineElement
from padic_affine.errors import ParseError
from padic_affine.padic import Padic, PadicContext
from padic_affine.poisson import EQ, GE, LE, CountEvent, Exponential, Polynomial

REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|[{}();:,|<>=&^*/])
    """,
    re.VERBOSE,
)


class RefToken:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def ref_tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(RefToken(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(RefToken("eof", "", line, col))
    return tokens


def tokens_now(text):
    return [
        (kind, chunk, *grammar._position(text, off))
        for kind, chunk, off in grammar._tokenize(text)
    ]


def tokens_ref(text):
    return [(t.kind, t.text, t.line, t.column) for t in ref_tokenize(text)]


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.message, exc.line, exc.column)


def printed_literals(p, seeds=range(12)):
    """Every printer on randgen inputs at prime p."""
    ctx = PadicContext(p)
    out = []
    for seed in seeds:
        rng = random.Random(f"tokenizer:{p}:{seed}")
        g = randgen.random_element(ctx, rng, max_parts=4)
        h = randgen.random_measure_preserving(ctx, rng)
        f = randgen.random_test_function(ctx, rng)
        q = randgen.random_test_function(ctx, rng)
        window = randgen.random_clopen(ctx, rng)
        cylinders = [
            Exponential(f),
            Polynomial(((f, 1), (q, 2))),
            CountEvent(((window, EQ, 2), (randgen.random_clopen(ctx, rng), GE, 1),
                        (window, LE, 0))),
        ]
        out += [grammar.format_affine(g), grammar.format_affine(h),
                grammar.format_step(f), grammar.format_step(g.a),
                grammar.format_clopen(window), str(window.balls[0]),
                grammar.format_rational(randgen.random_rational(rng))]
        out += [grammar.format_cylinder(c) for c in cylinders]
    return out


HAND_WRITTEN = [
    "",
    " ",
    "\n",
    "\n\n\n",
    "\r\n",
    "\t",
    "  aff(a = {| tail 1}, b = {| tail 0})  ",
    "aff(a = {B(0;0): 3 | tail 1},\n    b = {| tail 0})",
    "aff(a = {B(0;0): 3 | tail 1},\r\n    b = {| tail 0})\r\n",
    "\n\n  {B(1/3;-1): -5,\n\tB(0;-1): 1/3 | tail 2}\n",
    "\t{B(0;0):\t1/2 | tail 0}\t",
    "{B(0;0): - | tail 0}",
    "- 3",
    "-",
    "3-",
    "--3",
    "B(1/-3;0)",
    "1/-3",
    "event{N(B(0;0)) <= 2 & N({B(1;0)}) >= 1}",
    "<=>=<>= =<",
    "{B(0;0): é | tail 0}",
    "aff(α = {| tail 1}, b = {| tail 0})",
    "\n\n  αβ",
    "B(0;0)\n\r\n\t x",
    "B(0;0)\r\n\r\n\t ?",
    "B(0;0)\n  ? \n ?",
    "B(0;; ?",
    "B(٣;0)",
    "B(0;0)\x0b\x0c\xa0\u2028B(1;0)",
    "12abc_9 _x x_1",
    "{B(0;0), B(1/3;0)}\n}",
    "aff(\n\n",
]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_printed_literals_tokenize_as_before(p):
    literals = printed_literals(p)
    assert len(literals) == 12 * 10
    for text in literals:
        assert tokens_now(text) == tokens_ref(text), text


@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_hand_written_inputs_tokenize_as_before(text):
    assert outcome(tokens_now, text) == outcome(tokens_ref, text)


def test_hand_written_inputs_reach_every_case():
    errors = [t for t in HAND_WRITTEN if outcome(tokens_ref, t)[0] == "error"]
    messages = {outcome(tokens_ref, t)[2] for t in errors}
    assert {"unexpected character '-'", "unexpected character 'é'",
            "unexpected character 'α'", "unexpected character '?'"} <= messages
    # errors on lines 1, 2 and 3, one of them after two \r\n
    assert {outcome(tokens_ref, t)[3] for t in errors} >= {1, 2, 3}
    assert outcome(tokens_ref, "B(0;0)\r\n\r\n\t ?")[3:] == (3, 3)


# -- work guards ------------------------------------------------------------


class CountingPattern:
    """A compiled pattern that counts calls to each of its methods."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.pattern, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def wide_literal(ctx, n, seed=0):
    """An n-part element printed as a literal, with randgen's value ranges."""
    rng = random.Random(seed)
    splits = -(-(n - 1) // (ctx.p - 1))
    balls = randgen.random_disjoint_balls(ctx, rng, n, splits=splits)
    scales = [Fraction(ctx.p) ** rng.randint(-1, 1) for _ in balls]
    a_parts = [
        (b, randgen.random_unit(ctx, rng, span=6) * s) for b, s in zip(balls, scales)
    ]
    b_parts = [(b, randgen.random_rational(rng, span=6)) for b in balls]
    return grammar.format_affine(AffineElement.from_parts(ctx, a_parts, b_parts))


def test_wide_literal_is_one_findall_pass(monkeypatch):
    """A valid literal is read from one findall of the token texts; the
    (kind, text, offset) tokenizer runs only for an error."""
    ctx = PadicContext(3)
    text = wide_literal(ctx, 128)
    assert text.count("B(") > 200
    counting = CountingPattern(grammar._WORD_RE)
    monkeypatch.setattr(grammar, "_WORD_RE", counting)

    def refused(text):
        raise AssertionError("_tokenize called on a valid literal")

    monkeypatch.setattr(grammar, "_tokenize", refused)
    grammar.parse_affine(text, ctx)
    assert counting.calls == {"findall": 1}


def test_parsing_builds_no_padic(monkeypatch):
    literals = [
        (grammar.parse_step, "{B(1/3;-1): -5, B(2/9;-3): 1/3 | tail 2}"),
        (grammar.parse_step, "{B(-5/9;-3): 7/4, B(22/7;1): 1 | tail 0}"),
        (grammar.parse_affine,
         "aff(a = {B(1/3;-1): 5 | tail 1}, b = {B(2/3;-1): -1/3 | tail 0})"),
        (grammar.parse_affine, wide_literal(PadicContext(3), 16)),
    ]
    calls = []
    init = Padic.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Padic, "__init__", counted)
    ctx = PadicContext(3)
    for parse, text in literals:
        assert "/" in text.split(")")[0]  # the first centre is fractional
        parse(text, ctx)
    assert calls == []
