"""Literal grammar: parse/print round trips and error reporting."""

import pytest

from padic_affine import grammar, padic, stepfn
from padic_affine.errors import ParseError
from padic_affine.grammar import (
    Parser,
    format_value,
    parse_clopen,
    parse_step,
    parse_value,
)
from padic_affine.padic import PadicContext


def parse_rational(text):
    p = Parser(text, PadicContext(2))
    return p.finish(p.rational())


def parse_ball(text, ctx):
    p = Parser(text, ctx)
    return p.finish(p.ball())


def parse_cylinder(text, ctx):
    p = Parser(text, ctx)
    return p.finish(p.cylinder())


# the shared corpus: every entry must survive parse -> print -> parse with
# the printed form fixed under a second round trip
CORPUS = [
    # rationals
    "0", "1", "-1", "7", "-12/35", "22/7", "1/3", "-1/9", "100000000/3",
    "5/2",
    # balls
    "B(0;0)", "B(0;1)", "B(0;-2)", "B(1/3;0)", "B(-1/3;-1)", "B(7;2)",
    "B(22/7;1)", "B(-5/9;-3)", "B(2/3;0)", "B(1;3)",
    # clopen sets
    "{}", "{B(0;0)}", "{B(0;0), B(1/3;0)}", "{B(0;-1), B(1;-1), B(2;-1)}",
    "{B(1/9;-2), B(4/9;-2)}", "{B(0;2)}", "{B(2/3;-1)}",
    "{B(0;0), B(1/3;0), B(2/3;0)}",
    # step functions
    "{| tail 0}", "{| tail 1}", "{| tail -3/2}",
    "{B(0;0): 1/2 | tail 0}",
    "{B(0;0): 3 | tail 1}",
    "{B(0;0): 1/2, B(1/3;-1): 2 | tail 0}",
    "{B(1/3;-1): -5, B(0;-1): 1/3 | tail 2}",
    "{B(0;1): 1/9 | tail 0}",
    "{B(2/3;0): -1 | tail 0}",
    "{B(0;-2): 7/4 | tail -1}",
    # affine elements
    "aff(a = {| tail 1}, b = {| tail 0})",
    "aff(a = {B(0;0): 3 | tail 1}, b = {| tail 0})",
    "aff(a = {B(0;0): 1/3 | tail 1}, b = {| tail 0})",
    "aff(a = {| tail 1}, b = {B(0;0): 1/3 | tail 0})",
    "aff(a = {B(0;0): 2 | tail 1}, b = {B(0;0): 1 | tail 0})",
    "aff(a = {B(1/3;-1): 5 | tail 1}, b = {B(2/3;-1): -1/3 | tail 0})",
    "aff(a = {B(0;1): 1/2 | tail 1}, b = {B(0;1): 9 | tail 0})",
    # cylinder functions
    "exp{<{B(0;0): 1/2 | tail 0}>}",
    "exp{<{B(0;0): 1, B(1/3;0): -1 | tail 0}>}",
    "exp{<{| tail 0}>}",
    "poly{<{B(0;0): 1 | tail 0}>^1}",
    "poly{<{B(0;0): 1 | tail 0}>^2}",
    "poly{<{B(0;-1): 1 | tail 0}>^1 * <{B(1;-1): 1 | tail 0}>^1}",
    "event{N({B(0;0)}) = 0}",
    "event{N({B(0;0)}) >= 2}",
    "event{N({B(0;-1)}) <= 1 & N({B(1;-1)}) = 1}",
    "event{N(B(0;0)) = 3}",
]


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3)


def test_corpus_size():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip(text, ctx):
    value = parse_value(text, ctx)
    printed = format_value(value)
    reparsed = parse_value(printed, ctx)
    assert format_value(reparsed) == printed
    if not isinstance(value, type(None)):
        # cylinder descriptors compare by their printed form; everything
        # else supports direct equality
        assert format_value(reparsed) == format_value(value)


@pytest.mark.parametrize("text", [t for t in CORPUS if t[0] not in "aep"])
def test_equality_round_trip(text, ctx):
    value = parse_value(text, ctx)
    assert parse_value(format_value(value), ctx) == value


class TestTypedEntryPoints:
    def test_rational(self):
        assert parse_rational("-12/35") == -12 / 35 or True
        from fractions import Fraction

        assert parse_rational("-12/35") == Fraction(-12, 35)

    def test_ball(self, ctx):
        b = parse_ball("B(1/3;-1)", ctx)
        assert b.radius_exp == -1
        assert b.center.frac == parse_rational("1/3")

    def test_clopen(self, ctx):
        s = parse_clopen("{B(0;0), B(1/3;0)}", ctx)
        assert s.measure == 2

    def test_step(self, ctx):
        f = parse_step("{B(0;0): 1/2 | tail 0}", ctx)
        assert f(ctx.zero()) == parse_rational("1/2")

    def test_cylinder(self, ctx):
        f = parse_cylinder("event{N(B(0;0)) = 2}", ctx)
        assert len(f.conditions) == 1


class TestErrors:
    def test_position_reported(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_value("B(0;0) trailing", ctx)
        assert err.value.line == 1
        assert err.value.column == 8

    def test_overlapping_clopen(self, ctx):
        with pytest.raises(ParseError):
            parse_clopen("{B(0;0), B(0;1)}", ctx)

    def test_overlapping_step_parts(self, ctx):
        with pytest.raises(ParseError):
            parse_step("{B(0;0): 1, B(1;0): 2 | tail 0}", ctx)
        # the same literal-grammar message as a clopen literal, at the brace
        with pytest.raises(ParseError) as err:
            parse_step("  {B(0;0): 1, B(1;-1): 2 | tail 0}", ctx)
        assert err.value.message == "balls B(0;0) and B(1;-1) overlap"
        assert (err.value.line, err.value.column) == (1, 3)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("{B(0;0): 1 B(1/3;-1): 2 | tail 0}", 12),  # no comma between parts
            ("{B(0;0): 1, | tail 0}", 13),  # a comma before the bar
        ],
    )
    def test_step_parts_take_one_comma_between(self, ctx, text, column):
        with pytest.raises(ParseError) as err:
            parse_step(text, ctx)
        assert (err.value.line, err.value.column) == (1, column)

    def test_step_literal_checks_overlap_once(self, ctx, monkeypatch):
        calls = []

        def counting(balls):
            calls.append(len(balls))
            return padic.first_overlap(balls)

        monkeypatch.setattr(grammar, "first_overlap", counting)
        monkeypatch.setattr(stepfn, "first_overlap", counting)
        parse_step("{B(0;-1): 1, B(1;-1): 2 | tail 0}", ctx)
        assert calls == [2]

    def test_bad_affine_tails(self, ctx):
        with pytest.raises(ParseError):
            parse_value("aff(a = {| tail 0}, b = {| tail 0})", ctx)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("exp{<{B(0;-1): 2/3 | tail 9}>}",
             "test function must vanish at infinity"),
            ("poly{<{B(0;0): 1 | tail 1}>^2}",
             "polynomial factors need real f, tail 0"),
        ],
    )
    def test_descriptor_refusal_is_positioned(self, text, message):
        # the descriptor's own refusal, at the descriptor's head token
        with pytest.raises(ParseError) as err:
            parse_value(text, PadicContext(2))
        assert err.value.message == message
        assert (err.value.line, err.value.column) == (1, 1)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("{B(%s;0): 1 | tail 0}", 4),  # a center
            ("{B(0;0): 1/3,\n B(1;0): -%s/7 | tail 0}", 10),  # a value, line 2
        ],
    )
    def test_integer_past_the_digit_cap(self, ctx, text, column):
        # refused at the token on every CPython version, before int() sees it
        digits = "7" * 5000
        with pytest.raises(ParseError) as err:
            parse_step(text % digits, ctx)
        assert err.value.message == "an integer of 5000 digits exceeds the cap of 4300"
        assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)

    def test_integers_at_the_digit_cap_parse(self, ctx):
        digits = "1" * grammar.MAX_INT_DIGITS
        f = parse_step(f"{{B(0;0): -{digits}/{digits} | tail 0}}", ctx)
        assert f.parts[0][1] == -1
        # a long name is no integer: the grammar's own error, not the cap's
        with pytest.raises(ParseError) as err:
            parse_step("{B(0;0): 1 | %s 0}" % ("t" * 5000), ctx)
        assert err.value.message == "expected 'tail'"

    def test_unexpected_character(self, ctx):
        with pytest.raises(ParseError):
            parse_value("B(0;0) @", ctx)

    def test_negative_denominator(self, ctx):
        with pytest.raises(ParseError):
            parse_rational("1/-3")

    def test_unclosed_brace(self, ctx):
        with pytest.raises(ParseError):
            parse_clopen("{B(0;0)", ctx)

    def test_bad_event_op(self, ctx):
        with pytest.raises(ParseError):
            parse_cylinder("event{N(B(0;0)) < 2}", ctx)
