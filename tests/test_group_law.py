"""The group law read from one union walk over all coefficients, against the
three-`combine` formulas it replaced: the same stored form, values that stay
`Fraction`s, and the group axioms with the identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import AffineElement, PadicContext, multiply
from padic_affine.errors import ContextMismatch
from padic_affine.randgen import (
    random_disjoint_balls,
    random_element,
    random_rational,
    random_unit,
)

PRIMES = [2, 3, 5]
WIDE = [16, 64, 128]


def ref_multiply(left, right):
    a = right.a.combine(left.a, "mul")
    b = left.b.combine(left.a.combine(right.b, "mul"), "add")
    return AffineElement(a, b)


def ref_inverse(g):
    a_inv = g.a.map_values(lambda v: 1 / v)
    b_inv = (-g.b).combine(a_inv, "mul")
    return AffineElement(a_inv, b_inv)


def wide_element(ctx, rng, n):
    """An element on n disjoint balls; each coefficient skips a few of them,
    so that on some cells only one of a and b leaves its tail."""
    splits = -(-(n - 1) // (ctx.p - 1))
    balls = random_disjoint_balls(ctx, rng, n, splits=splits)
    a_parts = [
        (b, random_unit(ctx, rng, span=6) * Fraction(ctx.p) ** rng.randint(-1, 1))
        for b in balls
        if rng.random() < 0.9
    ]
    b_parts = [(b, random_rational(rng, span=6)) for b in balls if rng.random() < 0.9]
    return AffineElement.from_parts(ctx, a_parts, b_parts)


def assert_stored_alike(got, want):
    # an int tail would later make act_function compute 1 / a_k as a float
    for g, w in ((got.a, want.a), (got.b, want.b)):
        assert g.parts == w.parts
        assert g.tail == w.tail
        assert type(g.tail) is Fraction
        assert all(type(v) is Fraction for _, v in g.parts)


def assert_law(g, h):
    e = AffineElement.identity(g.ctx)
    for left, right in ((g, h), (h, g), (g, e), (e, g), (e, e)):
        assert_stored_alike(multiply(left, right), ref_multiply(left, right))
    for x in (g, h, e):
        assert_stored_alike(x.inverse(), ref_inverse(x))
    inv = g.inverse()
    assert multiply(g, e) == g and multiply(e, g) == g
    assert multiply(g, inv).is_identity() and multiply(inv, g).is_identity()


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_random_elements_match_reference(p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    assert_law(random_element(ctx, rng, 4), random_element(ctx, rng, 4))


@given(p=st.sampled_from(PRIMES), n=st.sampled_from(WIDE), seed=st.integers(0, 10**6))
@settings(max_examples=24, deadline=None)
def test_wide_elements_match_reference(p, n, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    assert_law(wide_element(ctx, rng, n), wide_element(ctx, rng, n))


def test_mixed_primes_rejected():
    g = AffineElement.identity(PadicContext(2))
    h = AffineElement.identity(PadicContext(3))
    with pytest.raises(ContextMismatch):
        multiply(g, h)
