"""The affine group: group law, sections, the three actions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import (
    AffineElement,
    Ball,
    ClopenSet,
    PadicContext,
    StepFunction,
    composition_defect,
    multiply,
    pair_product,
)
from padic_affine.poisson import Configuration
from padic_affine.randgen import (
    random_element,
    random_point,
    random_test_function,
)
from padic_affine.stepfn import PADIC, REAL

PRIMES = [2, 3, 5]


def ref_act_configuration(g, points):
    """Image points (with multiplicity) and an exact collision flag."""
    if len(set(points)) != len(points):
        raise ValueError("input points must be pairwise distinct")
    images = [g.act_point(x) for x in points]
    return images, len(set(images)) < len(images)


def worked_g0(ctx):
    z = Ball(ctx, 0, ())
    return AffineElement.from_parts(ctx, [(z, ctx.p)], [])


class TestGroupLaw:
    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_axioms(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g1, g2, g3 = (random_element(ctx, rng) for _ in range(3))
        e = AffineElement.identity(ctx)
        assert multiply(multiply(g1, g2), g3) == multiply(g1, multiply(g2, g3))
        assert multiply(g1, e) == g1
        assert multiply(e, g1) == g1
        assert multiply(g1, g1.inverse()) == e
        assert multiply(g1.inverse(), g1) == e

    def test_worked_product(self):
        """Constant pairs (3,2)·(2,1) compose to (6,5): b picks up
        b_left + a_left·b_right."""
        from padic_affine import SectionPair

        ctx = PadicContext(5)
        left = SectionPair(ctx.rational(3), ctx.rational(2))
        right = SectionPair(ctx.rational(2), ctx.rational(1))
        prod = pair_product(left, right)
        assert prod.a_val.frac == 6
        assert prod.b_val.frac == 5

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_orientation(self, seed, p):
        """At the section level the product pair acts like the left factor
        first, then the right; exact at every sampled point."""
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g1, g2 = random_element(ctx, rng), random_element(ctx, rng)
        x = random_point(ctx, rng)
        left, right = g1.section(x), g2.section(x)
        y = right.act(left.act(x))
        assert pair_product(left, right).act(x) == y
        assert multiply(g1, g2).section(x).act(x) == y

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_section_homomorphism(self, seed):
        """Evaluating at x sends the product to the product of constant
        pairs."""
        ctx = PadicContext(3)
        rng = random.Random(seed)
        g1, g2 = random_element(ctx, rng), random_element(ctx, rng)
        x = random_point(ctx, rng)
        lhs = multiply(g1, g2).section(x)
        rhs = pair_product(g1.section(x), g2.section(x))
        assert lhs.a_val == rhs.a_val and lhs.b_val == rhs.b_val
        assert lhs.act(x) == rhs.act(x)


class TestPointAction:
    def test_worked_action(self):
        ctx = PadicContext(3)
        g0 = worked_g0(ctx)
        assert g0.act_point(ctx.rational(1)).frac == Fraction(1, 3)
        assert g0.act_point(ctx.rational(1, 3)).frac == Fraction(1, 3)

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        x = random_point(ctx, rng)
        y = g.act_point(x)
        # the stored inverse undoes the section at x, not necessarily the
        # global piecewise action; verify at the section level
        pair = g.section(x)
        back = (y.frac * pair.a_val.frac) - pair.b_val.frac
        assert back == x.frac


class TestFunctionAction:
    def setup_method(self):
        self.ctx = PadicContext(3)

    def test_indicator_invariant_under_worked_element(self):
        g0 = worked_g0(self.ctx)
        big = Ball(self.ctx, 1, ())
        f = StepFunction.indicator(ClopenSet.of(self.ctx, [big]))
        assert g0.act_function(f) == f

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_pointwise_oracle(self, seed, p):
        """(g f)(x) == f(g(x) x): the pulled-back function reads the value at
        the moved point, so sums over moved configurations match."""
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        gf = g.act_function(f)
        for _ in range(15):
            x = random_point(ctx, rng)
            assert gf(x) == f(g.act_point(x))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_preimage_matches_membership(self, seed):
        ctx = self.ctx
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        s = ClopenSet.of(ctx, [Ball(ctx, rng.randint(-1, 1), ())])
        pre = g.preimage_clopen(s)
        for _ in range(20):
            x = random_point(ctx, rng)
            assert pre.contains(x) == s.contains(g.act_point(x))


class TestConfigurationAction:
    def test_moves_points(self):
        ctx = PadicContext(3)
        g0 = worked_g0(ctx)
        moved, collided = ref_act_configuration(
            g0, [ctx.rational(1), ctx.rational(4)]
        )
        assert not collided
        assert {x.frac for x in moved} == {Fraction(1, 3), Fraction(4, 3)}

    def test_collision_detected(self):
        """A non-injective piecewise element can merge two atoms; the flag
        reports it."""
        ctx = PadicContext(3)
        z = Ball(ctx, 0, ())
        # 1 in Z_3 maps to 1/3, colliding with the fixed point 1/3 outside
        g = AffineElement.from_parts(ctx, [(z, 3)], [])
        moved, collided = ref_act_configuration(
            g, [ctx.rational(1), ctx.rational(1, 3)]
        )
        assert collided
        del moved

    def test_duplicate_inputs_rejected(self):
        ctx = PadicContext(3)
        g0 = worked_g0(ctx)
        with pytest.raises(Exception):
            ref_act_configuration(g0, [ctx.rational(1), ctx.rational(1)])


class TestCompositionDefect:
    def test_counterexample_region(self):
        ctx = PadicContext(3)
        z = Ball(ctx, 0, ())
        g1 = AffineElement.from_parts(ctx, [], [(z, Fraction(1, 3))])
        g2 = AffineElement.from_parts(ctx, [], [(z, 1)])
        shell = Ball.from_center(ctx.rational(1, 3), 0)
        f = StepFunction.make(
            ctx, REAL,
            [(b, i + 1) for i, b in enumerate(shell.children())],
            0,
        )
        region = composition_defect(g1, g2, f)
        assert not region.is_empty
        assert ClopenSet.of(ctx, [z]).subtract(region).is_empty

    def test_disjoint_supports_commute(self):
        ctx = PadicContext(3)
        z = Ball(ctx, 0, ())
        kids = z.children()
        g1 = AffineElement.from_parts(ctx, [], [(kids[0], Fraction(1, 3))])
        g2 = AffineElement.from_parts(ctx, [], [(kids[1], Fraction(2, 3))])
        f = StepFunction.make(ctx, REAL, [(z, 1)], 0)
        assert composition_defect(g1, g2, f).is_empty


class TestValidation:
    def test_vanishing_a_rejected(self):
        ctx = PadicContext(3)
        z = Ball(ctx, 0, ())
        a = StepFunction.make(ctx, PADIC, [(z, Fraction(0))], 1)
        b = StepFunction.constant(ctx, PADIC, 0)
        with pytest.raises(Exception):
            AffineElement(a, b)

    def test_bad_tails_rejected(self):
        ctx = PadicContext(3)
        with pytest.raises(Exception):
            AffineElement(
                StepFunction.constant(ctx, PADIC, 0),
                StepFunction.constant(ctx, PADIC, 0),
            )
        with pytest.raises(Exception):
            AffineElement(
                StepFunction.constant(ctx, PADIC, 1),
                StepFunction.constant(ctx, PADIC, 1),
            )
