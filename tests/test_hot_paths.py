"""pushforward and composition_defect against the computations they replaced.

pushforward passes an operand of 0 (+) or 1 (·) through instead of
computing with it; its densities are checked against test_ball_index's
ref_pushforward, on Haar and on other densities. composition_defect reads
the region where the two sides differ straight off their union walk; it is
checked against the difference function it no longer builds. Two guards
count the work left out.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_index import ELEMENTS, ref_pushforward, wide_element, wide_function

from padic_affine.affine import composition_defect, multiply
from padic_affine.measure import IntensityMeasure, pushforward
from padic_affine.padic import PadicContext
from padic_affine.randgen import random_element, random_test_function
from padic_affine.stepfn import StepFunction

PRIMES = [2, 3, 5]

cases = dict(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6), n=st.integers(1, 16))


def ref_composition_defect(g1, g2, f):
    """The region as the parts of the difference function composed - product."""
    composed = g1.act_function(g2.act_function(f))
    product = multiply(g1, g2).act_function(f)
    return (composed - product).deviation_support()


@given(**cases, kind=st.sampled_from(sorted(ELEMENTS)))
@settings(max_examples=40, deadline=None)
def test_pushforward_matches_the_reference(p, seed, n, kind):
    """Haar, a density that is 0 on some of its parts and may hold g's
    hull, and the density g^{-1}*m that check_isometry pushes forward again."""
    ctx = PadicContext(p)
    rng = random.Random(seed)
    g = ELEMENTS[kind](ctx, rng, n)
    haar = IntensityMeasure.haar(ctx)
    assert pushforward(haar, g).density == ref_pushforward(haar, g)
    mu = IntensityMeasure(wide_function(ctx, rng, rng.randint(1, n), 1, 0, 2))
    assert pushforward(mu, g).density == ref_pushforward(mu, g)
    back = pushforward(haar, g.inverse())
    assert pushforward(back, g).density == ref_pushforward(back, g)


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_composition_defect_matches_the_difference_function(p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    g1, g2 = random_element(ctx, rng, 3), random_element(ctx, rng, 3)
    f = random_test_function(ctx, rng)
    assert composition_defect(g1, g2, f) == ref_composition_defect(g1, g2, f)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [16, 64])
def test_wide_composition_defect_matches_the_difference_function(p, n):
    ctx = PadicContext(p)
    rng = random.Random(f"composition:{p}:{n}")
    for _ in range(2):
        g1, g2 = wide_element(ctx, rng, n), wide_element(ctx, rng, n)
        f = wide_function(ctx, rng, n)
        assert composition_defect(g1, g2, f) == ref_composition_defect(g1, g2, f)


@pytest.mark.parametrize("p", PRIMES)
def test_haar_pushforward_adds_no_zero(p, monkeypatch):
    """A Haar pushforward of a 64-part element makes no Fraction addition
    with an operand of 0: each image starts from its first weight, each
    slot-1 total from the first weight around it, and a cell's density is
    summed only when both slots hold a nonzero value."""
    ctx = PadicContext(p)
    g = wide_element(ctx, random.Random(f"zero-adds:{p}"), 64)
    haar = IntensityMeasure.haar(ctx)
    zero_adds = []
    add, radd = Fraction.__add__, Fraction.__radd__

    def counted(op):
        def wrapper(a, b):
            if a == 0 or b == 0:
                zero_adds.append((a, b))
            return op(a, b)
        return wrapper

    monkeypatch.setattr(Fraction, "__add__", counted(add))
    monkeypatch.setattr(Fraction, "__radd__", counted(radd))
    assert Fraction(1) + 0 == 0 + Fraction(1) == 1
    assert len(zero_adds) == 2  # the counter is live
    zero_adds.clear()
    mu = pushforward(haar, g)
    assert len(mu.density.parts) > 16
    assert zero_adds == []


@pytest.mark.parametrize("p", PRIMES)
def test_composition_defect_builds_no_difference_function(p, monkeypatch):
    ctx = PadicContext(p)
    rng = random.Random(f"no-difference:{p}")
    triples = [
        (wide_element(ctx, rng, 16), wide_element(ctx, rng, 16), wide_function(ctx, rng, 16)),
        (random_element(ctx, rng), random_element(ctx, rng), random_test_function(ctx, rng)),
    ]
    want = [ref_composition_defect(*triple) for triple in triples]

    def refused(*args):
        raise AssertionError("composition_defect built a difference function")

    monkeypatch.setattr(StepFunction, "combine", refused)
    monkeypatch.setattr(StepFunction, "map_values", refused)
    assert [composition_defect(*triple) for triple in triples] == want
    assert any(want)
