"""The three steps every canonical StepFunction takes: the overlap test of
StepFunction.make and of literals, the sibling merge, and StepFunction._build
dropping the parts that carry the tail value.

first_overlap answers a disjoint list from one set of slots and a walk up
the radii above each ball that stops at its first hit; only an overlapping
list runs the ordered search that names the pair. merge_siblings reads each
ball's (radius_exp, key) directly. _build compares values with an integral
tail as an int. The versions that preceded them are kept here as ref_*, and
the new ones must give the same pair, the same parts (the very Ball and part
objects where nothing merged), and the same error messages.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_index import ball_order, disjoint_balls, random_ball, ref_parent
from test_merge_siblings import leaves

from padic_affine import grammar, padic, stepfn
from padic_affine.errors import OverlappingParts, ParseError
from padic_affine.padic import Ball, PadicContext, _slots, first_overlap, merge_siblings
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5, 7]


# -- the versions that preceded them -------------------------------------------


def ref_first_overlap(balls):
    at = {}
    for i, b in enumerate(balls):
        at.setdefault((b.radius_exp, b.key), []).append(i)
    radii = sorted({r for r, _ in at})
    pairs = (
        (min(i, j), max(i, j))
        for j, b in enumerate(balls)
        for slot in _slots(b, radii)
        for i in at.get(slot, ())
        if i != j
    )
    return min(pairs, default=None)


def ref_merge_siblings(ctx, parts):
    p = ctx.p
    if len(parts) < p:
        return tuple(sorted(parts, key=lambda part: ball_order(part[0])))
    levels = {}
    for part in parts:
        levels.setdefault(part[0].radius_exp, []).append(part)
    out = []
    while levels:
        r = min(levels)
        families = {}
        for part in levels.pop(r):
            families.setdefault(part[0].truncate_key(r + 1), []).append(part)
        for key, members in families.items():
            value = members[0][1]
            if len(members) == p and all(v == value for _, v in members):
                levels.setdefault(r + 1, []).append((Ball(ctx, r + 1, key), value))
            else:
                out.extend(members)
    out.sort(key=lambda part: ball_order(part[0]))
    return tuple(out)


def ref_build(ctx, kind, parts, tail):
    live = [(b, v) for b, v in parts if v != tail]
    return StepFunction(ctx, kind, ref_merge_siblings(ctx, live), tail)


# -- inputs --------------------------------------------------------------------

SHAPES = ["disjoint", "nested", "repeated", "random"]


def ball_list(ctx, rng, n, shape):
    """n or so balls: pairwise disjoint, or with a descendant or ancestor of
    one of them, or with an equal ball (the same object or an equal one)
    inserted, or around random points, where overlaps come by chance."""
    if shape == "random":
        return [random_ball(ctx, rng, -3, 2) for _ in range(n)]
    if shape == "disjoint":
        return disjoint_balls(ctx, rng, n, rng.randint(-2, 2), splits=n)
    balls = disjoint_balls(ctx, rng, max(n, 1), rng.randint(-2, 2), splits=n)
    for _ in range(rng.randint(1, 2)):
        b = rng.choice(balls)
        if shape == "repeated":
            extra = b if rng.random() < 0.5 else Ball(ctx, b.radius_exp, b.key)
        elif rng.random() < 0.5:
            extra = rng.choice(b.children())
        else:
            extra = ref_parent(b)
        balls.insert(rng.randint(0, len(balls)), extra)
    return balls


def valued_leaves(ctx, rng, root_exp, splits, values):
    """A shuffled partition holding complete sibling families, valued from a
    small range so that whole families share one value."""
    return [
        (b, Fraction(rng.randint(-1, values), rng.choice([1, 1, 2])))
        for b in leaves(ctx, rng, root_exp, splits)
    ]


def assert_same_parts(got, ref, parts):
    """Equal parts tuples; a part the merge did not build is the input's
    own part object, Ball included."""
    assert got == ref
    given_parts = {id(part) for part in parts}
    for new, old in zip(got, ref):
        if id(old) in given_parts:
            assert new is old


# -- first_overlap --------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", SHAPES)
def test_first_overlap_names_the_same_pair(p, shape):
    ctx = PadicContext(p)
    rng = random.Random(f"overlap-{p}-{shape}")
    for _ in range(150):
        balls = ball_list(ctx, rng, rng.randint(0, 24), shape)
        assert first_overlap(balls) == ref_first_overlap(balls)


@given(
    p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6),
    n=st.integers(0, 40), shape=st.sampled_from(SHAPES),
)
@settings(max_examples=200, deadline=None)
def test_first_overlap_matches_the_reference(p, seed, n, shape):
    balls = ball_list(PadicContext(p), random.Random(seed), n, shape)
    expected = ref_first_overlap(balls)
    assert first_overlap(balls) == expected
    if shape == "disjoint":
        assert expected is None
    elif shape != "random":
        assert expected is not None


@pytest.mark.parametrize("p", PRIMES)
def test_disjoint_wide_list_runs_no_ordered_search(p, monkeypatch):
    """A disjoint 128-part list, as a list, as StepFunction.make's parts and
    as a literal, never reaches the ordered search; one repeated ball makes
    it run once, to name the pair."""
    ctx = PadicContext(p)
    balls = disjoint_balls(ctx, random.Random(f"wide-{p}"), 128, splits=128)
    assert len(balls) == 128
    searches = []

    def refuse(balls):
        raise AssertionError("the ordered search ran on a disjoint list")

    monkeypatch.setattr(padic, "_first_pair", refuse)
    assert first_overlap(balls) is None
    parts = [(b, Fraction(i + 1, 3)) for i, b in enumerate(balls)]
    f = StepFunction.make(ctx, REAL, parts, 0)
    assert grammar.parse_step(grammar.format_step(f), ctx) == f

    def counting(balls):
        searches.append(len(balls))
        return ref_first_overlap(balls)

    monkeypatch.setattr(padic, "_first_pair", counting)
    assert first_overlap(balls + [balls[17]]) == (17, 128)
    assert searches == [129]


def overlap_literals(ctx, rng, shape):
    """A step literal and a clopen literal on one overlapping ball list."""
    while True:
        balls = ball_list(ctx, rng, rng.randint(2, 12), shape)
        if ref_first_overlap(balls) is not None:
            break
    body = ", ".join(f"{b}: {rng.randint(1, 5)}" for b in balls)
    return balls, f"{{{body} | tail 0}}", "{" + ", ".join(map(str, balls)) + "}"


def parse_outcome(parse, text, ctx):
    with pytest.raises(ParseError) as err:
        parse(text, ctx)
    return err.value.message, err.value.line, err.value.column


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", ["nested", "repeated", "random"])
def test_overlap_messages_are_unchanged(p, shape, monkeypatch):
    """OverlappingParts and the literals' ParseError name the same pair, at
    the same line and column, as with the reference search."""
    ctx = PadicContext(p)
    rng = random.Random(f"messages-{p}-{shape}")
    for _ in range(30):
        balls, step_text, clopen_text = overlap_literals(ctx, rng, shape)
        i, j = ref_first_overlap(balls)
        with pytest.raises(OverlappingParts) as err:
            StepFunction.make(ctx, REAL, [(b, 1) for b in balls], 0)
        assert str(err.value) == f"balls {balls[i]} and {balls[j]} overlap"
        got = [parse_outcome(parse, text, ctx) for parse, text in (
            (grammar.parse_step, step_text), (grammar.parse_clopen, clopen_text))]
        with monkeypatch.context() as m:
            m.setattr(grammar, "first_overlap", ref_first_overlap)
            m.setattr(stepfn, "first_overlap", ref_first_overlap)
            assert got == [parse_outcome(parse, text, ctx) for parse, text in (
                (grammar.parse_step, step_text), (grammar.parse_clopen, clopen_text))]


# -- merge_siblings and _build ------------------------------------------------------

merge_cases = dict(
    p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6),
    root_exp=st.integers(-2, 2), splits=st.integers(0, 30), values=st.integers(0, 3),
)


@given(**merge_cases)
@settings(max_examples=150, deadline=None)
def test_merge_siblings_matches_the_reference(p, seed, root_exp, splits, values):
    ctx = PadicContext(p)
    parts = valued_leaves(ctx, random.Random(seed), root_exp, splits, values)
    assert_same_parts(merge_siblings(ctx, parts), ref_merge_siblings(ctx, parts), parts)


@pytest.mark.parametrize("p", PRIMES)
def test_merge_siblings_on_random_partitions(p):
    ctx = PadicContext(p)
    rng = random.Random(f"merge-{p}")
    for _ in range(100):
        parts = valued_leaves(ctx, rng, rng.randint(-2, 2), rng.randint(0, 40), 1)
        got = merge_siblings(ctx, parts)
        assert_same_parts(got, ref_merge_siblings(ctx, parts), parts)


TAILS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]


@given(tail=st.sampled_from(TAILS), **merge_cases)
@settings(max_examples=150, deadline=None)
def test_build_matches_the_reference(p, seed, root_exp, splits, values, tail):
    """Values in a small range holding the tail, some of them -1/2 and 1/2,
    so that integral and non-integral tails both drop parts."""
    ctx = PadicContext(p)
    parts = valued_leaves(ctx, random.Random(seed), root_exp, splits, values)
    got = StepFunction._build(ctx, REAL, parts, tail)
    ref = ref_build(ctx, REAL, parts, tail)
    assert got == ref
    assert got.tail is tail
    assert_same_parts(got.parts, ref.parts, parts)
    assert all(v != tail for _, v in got.parts)
