"""Step function algebra: construction, combination, integration."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import Ball, ClopenSet, Padic, PadicContext, StepFunction
from padic_affine.errors import KindMismatch, OverlappingParts
from padic_affine.measure import IntensityMeasure
from padic_affine.poisson import laplace_exponent
from padic_affine.stepfn import PADIC, REAL, refine_window

PRIMES = [2, 3, 5]


def random_step(ctx, rng, kind=REAL, tail=None):
    leaves = [Ball(ctx, rng.randint(0, 1), ())]
    for _ in range(rng.randint(1, 4)):
        b = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(b.children())
    rng.shuffle(leaves)
    parts = [
        (b, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for b in leaves[: rng.randint(1, 3)]
    ]
    if tail is None:
        tail = Fraction(rng.randint(-2, 2))
    return StepFunction.make(ctx, kind, parts, tail)


def ref_translate(f, t):
    """x -> f(x - t): every part's ball moved by +t."""
    parts = [(b.image(1, t), v) for b, v in f.parts]
    return StepFunction.make(f.ctx, f.kind, parts, f.tail)


def random_probes(ctx, rng, n=30):
    return [
        Padic(ctx, Fraction(rng.randint(-40, 40), rng.choice([1, ctx.p, ctx.p**2])))
        for _ in range(n)
    ]


class TestConstruction:
    def setup_method(self):
        self.ctx = PadicContext(3)

    def test_overlap_rejected(self):
        z = Ball.from_center(self.ctx.rational(0), 0)
        inner = Ball.from_center(self.ctx.rational(0), -1)
        with pytest.raises(OverlappingParts):
            StepFunction.make(self.ctx, REAL, [(z, 1), (inner, 2)], 0)

    def test_overlap_named_in_literal_grammar(self):
        z = Ball(self.ctx, 0, ())
        with pytest.raises(OverlappingParts) as err:
            StepFunction.make(self.ctx, REAL, [(z, 1), (z, 2)], 0)
        assert str(err.value) == "balls B(0;0) and B(0;0) overlap"
        inner = Ball.from_center(self.ctx.rational(Fraction(1, 3)), -1)
        with pytest.raises(OverlappingParts) as err:
            StepFunction.make(self.ctx, REAL, [(Ball(self.ctx, 1, ()), 1), (inner, 2)], 0)
        assert str(err.value) == "balls B(0;1) and B(1/3;-1) overlap"

    def test_tail_valued_parts_dropped(self):
        z = Ball.from_center(self.ctx.rational(0), 0)
        f = StepFunction.make(self.ctx, REAL, [(z, Fraction(2))], 2)
        assert f.parts == ()

    def test_sibling_merge(self):
        kids = Ball.from_center(self.ctx.rational(0), 0).children()
        f = StepFunction.make(self.ctx, REAL, [(k, 5) for k in kids], 0)
        assert len(f.parts) == 1
        assert f.parts[0][0].radius_exp == 0

    def test_kind_mismatch(self):
        f = StepFunction.constant(self.ctx, REAL, 1)
        g = StepFunction.constant(self.ctx, PADIC, 1)
        with pytest.raises(KindMismatch):
            f + g


class TestPointwise:
    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_combine_matches_evaluation(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        f, g = random_step(ctx, rng), random_step(ctx, rng)
        probes = random_probes(ctx, rng)
        for x in probes:
            assert (f + g)(x) == f(x) + g(x)
            assert (f * g)(x) == f(x) * g(x)
            assert (f - g)(x) == f(x) - g(x)
            assert (-f)(x) == -f(x)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_map_values(self, seed):
        ctx = PadicContext(3)
        rng = random.Random(seed)
        f = random_step(ctx, rng)
        doubled = f.map_values(lambda v: 2 * v)
        for x in random_probes(ctx, rng, 15):
            assert doubled(x) == 2 * f(x)

    def test_canonical_equality(self):
        ctx = PadicContext(3)
        z = Ball.from_center(ctx.rational(0), 0)
        kids = z.children()
        piecewise = StepFunction.make(ctx, REAL, [(k, 7) for k in kids], 1)
        direct = StepFunction.make(ctx, REAL, [(z, 7)], 1)
        assert piecewise == direct


class TestIntegration:
    def setup_method(self):
        self.ctx = PadicContext(3)

    def z(self, k=0):
        return Ball.from_center(self.ctx.rational(0), k)

    def test_indicator(self):
        f = StepFunction.indicator(ClopenSet.of(self.ctx, [self.z()]))
        domain = ClopenSet.of(self.ctx, [self.z(2)])
        assert f.integrate(domain) == 1

    def test_linearity(self):
        rng = random.Random(5)
        domain = ClopenSet.of(self.ctx, [self.z(1)])
        for _ in range(20):
            f = random_step(self.ctx, rng, tail=Fraction(0))
            g = random_step(self.ctx, rng, tail=Fraction(0))
            assert (f + g).integrate(domain) == f.integrate(domain) + g.integrate(domain)

    def test_translation_invariant_integral(self):
        rng = random.Random(6)
        for _ in range(20):
            f = random_step(self.ctx, rng, tail=Fraction(0))
            t = Fraction(rng.randint(-6, 6), rng.choice([1, 3]))
            d = f.deviation_support()
            assert f.integrate(d) == ref_translate(f, t).integrate(d.translate(t))

    def test_exp_transform_against_refined_sum(self):
        """The Laplace exponent under Haar, the integral of e^f - 1, agrees
        with a brute-force cell sum at a finer resolution."""
        rng = random.Random(7)
        for _ in range(20):
            f = random_step(self.ctx, rng, tail=Fraction(0))
            support = f.deviation_support()
            got = laplace_exponent(f, IntensityMeasure.haar(self.ctx))
            brute = 0.0
            for ball in support.balls:
                for leaf in _leaves(ball, 2):
                    brute += math.expm1(f(leaf.center)) * float(leaf.measure)
            assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_abs_dev_exact(self):
        z = self.z()
        f = StepFunction.make(self.ctx, REAL, [(z, Fraction(1, 3))], 1)
        region = ClopenSet.of(self.ctx, [self.z(1)])
        assert f.integrate_transform(region, "abs_dev") == Fraction(2, 3)


class TestEnclosingExponents:
    def setup_method(self):
        self.ctx = PadicContext(3)
        self.small = Ball(self.ctx, -2, ())

    def test_step_function_floored_at_zero(self):
        assert StepFunction.constant(self.ctx, REAL, 5).enclosing_exp() == 0
        f = StepFunction.make(self.ctx, REAL, [(self.small, 1)], 0)
        assert f.enclosing_exp() == 0

    def test_clopen_set_not_floored(self):
        assert ClopenSet.of(self.ctx, []).enclosing_zero_exp() == 0
        assert ClopenSet.of(self.ctx, [self.small]).enclosing_zero_exp() == -2


def _leaves(ball, levels):
    out = [ball]
    for _ in range(levels):
        out = [c for b in out for c in b.children()]
    return out


class TestRefinement:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_refine_window_covers(self, seed):
        ctx = PadicContext(3)
        rng = random.Random(seed)
        f, g = random_step(ctx, rng), random_step(ctx, rng)
        hull = Ball(ctx, max(f.enclosing_exp(), g.enclosing_exp()), ())
        cells = refine_window(ClopenSet.of(ctx, [hull]), [f, g])
        triples = [(cell, v1, v2) for cell, (v1, v2) in cells]
        for cell, v1, v2 in triples:
            assert f(cell.center) == v1
            assert g(cell.center) == v2
