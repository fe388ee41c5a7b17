"""Points by digit key: the int membership test, the int-keyed sampler and
the index builds of the set algebra.

Ball.contains is checked against the valuation rule it replaces, kept here
as the reference; sample_config and sample_keys against
test_prepared_sampler's reference on windows small enough in digits to force
collisions.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_prepared_sampler import ref_sample_config
from test_union_walk import set_pair

from padic_affine import padic, randgen
from padic_affine.errors import ContextMismatch
from padic_affine.measure import IntensityMeasure, pushforward
from padic_affine.padic import (
    Ball,
    ClopenSet,
    Padic,
    PadicContext,
    fraction_valuation,
    split_union,
)
from padic_affine.poisson import sample_config, sample_keys

PRIMES = [2, 3, 5]


def ref_contains(ball, x):
    return fraction_valuation((x - ball.center).frac, ball.ctx.p) >= -ball.radius_exp


@pytest.fixture
def index_builds(monkeypatch):
    """A list that grows by one per BallIndex built while the test runs."""
    builds = []
    init = padic.BallIndex.__init__

    def counted(self, entries):
        builds.append(1)
        init(self, entries)

    monkeypatch.setattr(padic.BallIndex, "__init__", counted)
    return builds


# -- Ball.contains -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.integers(-3, 4),
    keyed=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_contains_matches_valuation_rule(p, k, keyed, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    center = randgen.random_point(ctx, rng) if keyed else ctx.zero()
    ball = Ball.from_center(center, k)
    c = ball.center.frac
    points = [ctx.zero(), ball.center]
    for _ in range(12):
        # c plus a unit times p^v near the radius, or a fresh point; p sits
        # in the numerator or the denominator of both
        unit = Fraction(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 40))
        unit = unit / Fraction(p) ** fraction_valuation(unit, p)
        v = rng.randint(-k - 3, -k + 3)
        points.append(Padic(ctx, c + unit * Fraction(p) ** v))
        points.append(Padic(ctx, unit * Fraction(p) ** rng.randint(-6, 6)))
    for x in points:
        assert ball.contains(x) == ref_contains(ball, x), (ball, x)


def test_contains_refuses_another_prime():
    ball = Ball(PadicContext(3), 0, ())
    with pytest.raises(ContextMismatch):
        ball.contains(PadicContext(5).rational(1, 5))


# -- sample_config -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.integers(-3, 4),
    seed=st.integers(0, 10**6),
    m=st.integers(0, 10**4),
)
def test_point_is_center_plus_offset(p, k, seed, m):
    ctx = PadicContext(p)
    ball = Ball.from_center(randgen.random_point(ctx, random.Random(seed)), k)
    x = ball.point(m)
    assert x.frac == ball.center.frac + m * Fraction(p) ** -k
    assert ball.contains(x)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("keyed", [False, True])
def test_sampler_matches_reference_under_collisions(p, depth, keyed):
    ctx = PadicContext(p)
    balls = [Ball(ctx, 4, ())]
    if keyed:  # two atoms, one with a center off zero
        balls = [Ball(ctx, 3, ()), Ball.from_center(ctx.rational(1, p**5), 2)]
    window = ClopenSet.of(ctx, balls)
    haar = IntensityMeasure.haar(ctx)
    collided = False
    for seed in range(5):
        ours, ref, bare = random.Random(seed), random.Random(seed), random.Random(seed)
        got = sample_config(haar, window, depth, ours)
        want = ref_sample_config(haar, window, depth, ref)
        atoms, keys = sample_keys(haar, window, depth, bare)
        assert got.points == want.points
        assert tuple(atoms[i].point(m) for i, m in keys) == got.points
        assert ours.getstate() == ref.getstate() == bare.getstate()
        # more points than residues at this depth: some draws collided
        collided |= len(got.points) > len(balls) * p**depth
    assert collided


def test_sampler_adds_no_padics(monkeypatch):
    ctx = PadicContext(3)
    window = ClopenSet(ctx, (Ball(ctx, 4, ()),))  # lambda = 81
    haar = IntensityMeasure.haar(ctx)

    def refused(self, other):
        raise AssertionError("Padic.__add__ called")

    monkeypatch.setattr(Padic, "__add__", refused)
    rng = random.Random(7)
    for depth in (1, 2, 5):
        assert sample_config(haar, window, depth, rng).points


# -- index builds ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6), n=st.integers(1, 16))
def test_keep_matches_clopen_of_the_kept_cells(p, seed, n):
    ctx = PadicContext(p)
    s, t = set_pair(ctx, random.Random(seed), n)
    entries = [(b, 0, True) for b in s.balls] + [(b, 1, True) for b in t.balls]
    cells = split_union(entries, (False, False))
    for in_t, got in ((True, s.intersect(t)), (False, s.subtract(t))):
        kept = [cell for cell, (a, b) in cells if a and b == in_t]
        assert got == ClopenSet.of(ctx, kept)
        assert got == ClopenSet.of(ctx, got.balls)


def test_subtract_builds_one_index(index_builds):
    ctx = PadicContext(3)
    window = ClopenSet(ctx, (Ball(ctx, 2, ()),))
    hole = ClopenSet(ctx, (Ball(ctx, 0, ()),))
    rest = window.subtract(hole)
    assert len(rest.balls) > 1
    assert len(index_builds) == 0  # the union walk keys its entries by slot


def test_haar_pushforward_index_builds(index_builds):
    # one, over the image balls, for the sums of the images around each;
    # the union walk over the parts of (a, b, rho) and the two-slot walk
    # over cells and images build none
    ctx = PadicContext(3)
    rng = random.Random("index-builds")
    for _ in range(5):
        g = randgen.random_element(ctx, rng)
        index_builds.clear()
        pushforward(IntensityMeasure.haar(ctx), g)
        assert len(index_builds) == 1
