"""The union walk under the set algebra, and the descriptor checks beside it.

padic.split_union is checked cell by cell against a relation scan over its
entries; ClopenSet.intersect/subtract and StepFunction.integrate, which now
run on it or on refine_window, are checked against the relation-scan
references of test_ball_index, with the balls of one operand nested in,
equal to or disjoint from the other's.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_index import disjoint_balls, random_ball, ref_subtract

from padic_affine.errors import PadicAffineError
from padic_affine.measure import IntensityMeasure
from padic_affine.padic import (
    EQUAL,
    FIRST_INSIDE_SECOND,
    SECOND_INSIDE_FIRST,
    Ball,
    ClopenSet,
    PadicContext,
    first_overlap,
    split_union,
)
from padic_affine.poisson import (
    EQ,
    CountEvent,
    Exponential,
    Polynomial,
    expect_exact,
)
from padic_affine.representation import check_factorization
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]

cases = dict(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6), n=st.integers(1, 16))


# -- inputs and references ---------------------------------------------------------


def descendant(ball, rng, levels):
    for _ in range(levels):
        ball = rng.choice(ball.children())
    return ball


def related_balls(ctx, rng, balls, n):
    """Balls equal to, inside, around or apart from the given ones."""
    out = []
    for _ in range(n):
        b = rng.choice(balls)
        kind = rng.randrange(4)
        if kind == 0:
            out.append(b)
        elif kind == 1:
            out.append(descendant(b, rng, rng.randint(1, 3)))
        elif kind == 2:
            out.append(b.parent())
        else:
            out.append(random_ball(ctx, rng, -3, 2))
    return out


def set_pair(ctx, rng, n):
    a = disjoint_balls(ctx, rng, n, splits=n)
    b = related_balls(ctx, rng, a, rng.randint(1, n))
    return ClopenSet.of(ctx, a), ClopenSet.of(ctx, b)


def around(cell, ball):
    return cell.relation(ball) in (EQUAL, FIRST_INSIDE_SECOND)


def ref_intersect(s, t):
    out = []
    for a in s.balls:
        for b in t.balls:
            if around(a, b):
                out.append(a)
            elif a.relation(b) == SECOND_INSIDE_FIRST:
                out.append(b)
    return ClopenSet.of(s.ctx, out)


def ref_difference(s, t):
    holes = list(t.balls)
    return ClopenSet.of(s.ctx, [c for a in s.balls for c in ref_subtract(a, holes)])


def ref_integrate(f, s):
    total = Fraction(0)
    holes = [b for b, _ in f.parts]
    for c in s.balls:
        for b, v in f.parts:
            if around(c, b):
                total += v * c.measure
            elif c.relation(b) == SECOND_INSIDE_FIRST:
                total += v * b.measure
        total += f.tail * sum((r.measure for r in ref_subtract(c, holes)), Fraction(0))
    return total


# -- split_union -----------------------------------------------------------------


@given(**cases, slots=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_split_union_cells(p, seed, n, slots):
    """Disjoint cells covering exactly the union, each slot carrying the value
    of its smallest entry around the cell; entries nest within a slot and
    repeat across slots."""
    ctx = PadicContext(p)
    rng = random.Random(seed)
    base = disjoint_balls(ctx, rng, n, splits=n)
    balls = base + related_balls(ctx, rng, base, n)
    entries = {}
    for b in balls:
        entries[(b, rng.randrange(slots))] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    entries = [(b, slot, v) for (b, slot), v in entries.items()]
    defaults = tuple(Fraction(-10 - slot) for slot in range(slots))
    cells = split_union(entries, defaults)
    cell_balls = [cell for cell, _ in cells]
    assert first_overlap(cell_balls) is None
    assert ClopenSet.of(ctx, cell_balls) == ClopenSet.of(ctx, balls)
    for cell, values in cells:
        assert not any(cell.relation(b) == SECOND_INSIDE_FIRST for b, _, _ in entries)
        for slot in range(slots):
            hits = [(b, v) for b, s, v in entries if s == slot and around(cell, b)]
            want = min(hits, key=lambda h: h[0].radius_exp)[1] if hits else defaults[slot]
            assert values[slot] == want


def test_split_union_of_nothing():
    assert split_union([], (0,)) == []


# -- the set algebra on it ---------------------------------------------------------


@given(**cases)
@settings(max_examples=60, deadline=None)
def test_intersect_and_subtract_match_relation_scan(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    s, t = set_pair(ctx, rng, n)
    assert s.intersect(t) == ref_intersect(s, t)
    assert t.intersect(s) == ref_intersect(t, s)
    assert s.subtract(t) == ref_difference(s, t)
    assert t.subtract(s) == ref_difference(t, s)


@given(**cases)
@settings(max_examples=60, deadline=None)
def test_integrate_matches_relation_scan(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    s, t = set_pair(ctx, rng, n)
    f = StepFunction.make(
        ctx, REAL,
        [(b, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for b in t.balls],
        rng.randint(-1, 1),
    )
    assert f.integrate(s) == ref_integrate(f, s)
    dev = f.map_values(lambda v: abs(v - 1))
    assert f.integrate_transform(s, "abs_dev") == ref_integrate(dev, s)


@pytest.mark.parametrize("p", PRIMES)
def test_combine_with_the_identity_returns_the_operand(p):
    ctx = PadicContext(p)
    f = StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 2)], 3)
    zero = StepFunction.constant(ctx, REAL, 0)
    one = StepFunction.constant(ctx, REAL, 1)
    assert f.combine(zero, "add") is f and zero.combine(f, "add") is f
    assert f.combine(one, "mul") is f and one.combine(f, "mul") is f
    assert f.combine(one, "add") == f.map_values(lambda v: v + 1)


# -- count events and empty descriptors --------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_sets_disjoint_cases(p):
    ctx = PadicContext(p)
    z = ClopenSet.of(ctx, [Ball(ctx, 0, ())])
    inner = ClopenSet.of(ctx, [Ball(ctx, -2, ())])
    apart = ClopenSet.of(ctx, [Ball.from_center(ctx.rational(1, p), 0)])
    empty = ClopenSet(ctx, ())

    def disjoint(*sets):
        return CountEvent(tuple((s, EQ, 0) for s in sets)).sets_disjoint()

    assert not disjoint(z, z)
    assert not disjoint(z, inner) and not disjoint(inner, apart, z)
    assert disjoint(z, apart) and disjoint(inner, apart)
    assert disjoint(z) and disjoint(empty, empty, z)


@given(**cases)
@settings(max_examples=40, deadline=None)
def test_sets_disjoint_matches_pairwise(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    base = disjoint_balls(ctx, rng, n, splits=n)
    sets = [
        ClopenSet.of(ctx, related_balls(ctx, rng, base, rng.randint(0, 2)))
        for _ in range(rng.randint(1, 4))
    ]
    want = all(
        ref_intersect(s, t).is_empty for i, s in enumerate(sets) for t in sets[i + 1:]
    )
    assert CountEvent(tuple((s, EQ, 0) for s in sets)).sets_disjoint() == want


def unit_exponential(ctx):
    return Exponential(StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 1)], 0))


@pytest.mark.parametrize("p", PRIMES)
def test_empty_polynomial_is_refused(p):
    ctx = PadicContext(p)
    with pytest.raises(PadicAffineError):
        expect_exact(Polynomial(()), IntensityMeasure.haar(ctx))
    with pytest.raises(PadicAffineError):
        check_factorization(Polynomial(()), unit_exponential(ctx), samples=1000)


@pytest.mark.parametrize("p", PRIMES)
def test_empty_count_event_is_refused(p):
    ctx = PadicContext(p)
    with pytest.raises(PadicAffineError):
        expect_exact(CountEvent(()), IntensityMeasure.haar(ctx))
    with pytest.raises(PadicAffineError):
        check_factorization(CountEvent(()), unit_exponential(ctx), samples=1000)
