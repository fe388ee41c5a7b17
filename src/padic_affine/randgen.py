"""Seeded random generators for group elements, test functions and sets.

Shared by the test suite and the CLI audit commands; everything is driven by
a caller-owned random.Random stream so runs replay exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .affine import AffineElement
from .padic import Ball, ClopenSet, Padic, PadicContext, fraction_valuation
from .stepfn import REAL, StepFunction


def random_rational(rng: random.Random, span: int = 12) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_unit(ctx: PadicContext, rng: random.Random, span: int = 12) -> Fraction:
    """A rational with |u|_p = 1: numerator and denominator prime to p."""
    p = ctx.p

    def coprime(lo, hi):
        while True:
            n = rng.randint(lo, hi)
            if n != 0 and n % p != 0:
                return n

    return Fraction(coprime(-span, span), abs(coprime(1, span)))


def random_point(ctx: PadicContext, rng: random.Random) -> Padic:
    return Padic(ctx, random_rational(rng, 30))


def random_disjoint_balls(
    ctx: PadicContext, rng: random.Random, count: int, root_exp: int = 1,
    splits: int = 4,
) -> list:
    """Pairwise disjoint balls obtained by refining a zero-centered ball.
    The leaves are refined as (radius_exp, key) slots, children in digit
    order as Ball.children lists them; only the returned ones become Balls."""
    digits = range(1, ctx.p)
    leaves = [(root_exp, ())]
    for _ in range(splits):
        k, key = leaves.pop(rng.randrange(len(leaves)))
        leaves.append((k - 1, key))
        leaves.extend((k - 1, key + ((-k, r),)) for r in digits)
    rng.shuffle(leaves)
    return [Ball(ctx, k, key) for k, key in leaves[:count]]


def random_clopen(ctx: PadicContext, rng: random.Random) -> ClopenSet:
    balls = random_disjoint_balls(ctx, rng, rng.randint(1, 3))
    return ClopenSet.of(ctx, balls)


def random_test_function(
    ctx: PadicContext, rng: random.Random, vspan: int = 4
) -> StepFunction:
    """Real-valued, compactly supported, with moderate values (safe inside
    exponentials)."""
    balls = random_disjoint_balls(ctx, rng, rng.randint(1, 3))
    parts = [
        (b, Fraction(rng.randint(-vspan, vspan), rng.randint(1, 3)))
        for b in balls
    ]
    return StepFunction.make(ctx, REAL, parts, 0)


def random_element(
    ctx: PadicContext, rng: random.Random, max_parts: int = 2
) -> AffineElement:
    balls = random_disjoint_balls(ctx, rng, rng.randint(1, max_parts))
    a_parts = []
    b_parts = []
    for b in balls:
        scale = rng.randint(-1, 1)
        a_val = random_unit(ctx, rng, span=6) * Fraction(ctx.p) ** scale
        a_parts.append((b, a_val))
        b_parts.append((b, random_rational(rng, span=6)))
    return AffineElement.from_parts(ctx, a_parts, b_parts)


def random_measure_preserving(ctx: PadicContext, rng: random.Random) -> AffineElement:
    """Every piece maps its ball bijectively onto itself, so Haar is
    preserved exactly.

    The shift stays inside the ball's radius, and the multiplier is a unit
    close enough to 1 that the center does not move out: for a ball B(c;k)
    the image of B under x -> (x+h)/a is B again once |h|_p <= p^k and
    |c|_p |1-a|_p <= p^k."""
    balls = random_disjoint_balls(ctx, rng, rng.randint(1, 2))
    a_parts = []
    b_parts = []
    for b in balls:
        c = b.center.frac
        if c == 0:
            a_val = random_unit(ctx, rng, span=6)
        else:
            m = max(1, -b.radius_exp - fraction_valuation(c, ctx.p))
            a_val = 1 + random_unit(ctx, rng, span=6) * Fraction(ctx.p) ** m
        a_parts.append((b, a_val))
        t = random_unit(ctx, rng, span=6) * Fraction(ctx.p) ** rng.randint(0, 2)
        if rng.random() < 0.2:
            t = Fraction(0)
        shift = t * Fraction(ctx.p) ** (-b.radius_exp) if t else t
        b_parts.append((b, shift))
    return AffineElement.from_parts(ctx, a_parts, b_parts)
