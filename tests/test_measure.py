"""Pushforward measures and their exact step densities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_index import ball_order

from padic_affine import (
    AffineElement,
    Ball,
    ClopenSet,
    IntensityMeasure,
    PadicContext,
    StepFunction,
    pushforward,
    roundtrip_defect,
)
from padic_affine.padic import fraction_valuation
from padic_affine.randgen import (
    random_disjoint_balls,
    random_element,
    random_measure_preserving,
    random_test_function,
)
from padic_affine.stepfn import REAL, refine_window, union_cells

PRIMES = [2, 3, 5]


def maps_pieces_onto_themselves(g):
    """True iff every piece of g maps its own ball onto itself: a unit a_k
    and a shift b_k no larger than the ball's radius."""
    p = g.ctx.p
    return all(
        fraction_valuation(a_k, p) == 0
        and (b_k == 0 or fraction_valuation(b_k, p) >= -ball.radius_exp)
        for ball, (a_k, b_k) in union_cells((g.a, g.b))
    )


def haar(ctx):
    return IntensityMeasure.haar(ctx)


class TestBallImages:
    def test_ball_measure(self):
        ctx = PadicContext(3)
        assert Ball(ctx, 2, ()).measure == 9

    @given(
        p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6),
        k=st.integers(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_image_ball_membership(self, p, seed, k):
        """(B+b)/a computed in closed form agrees with pointwise transport."""
        ctx = PadicContext(p)
        rng = random.Random(seed)
        c = Fraction(rng.randint(-12, 12), rng.choice([1, p]))
        ball = Ball.from_center(ctx.rational(c.numerator, c.denominator), k)
        a = Fraction(rng.choice([1, 2, p, 1 + p]), rng.choice([1, p]))
        if a == 0:
            a = Fraction(1)
        b = Fraction(rng.randint(-6, 6), rng.choice([1, p]))
        img = ball.image(a, b)
        for _ in range(25):
            x = ball.point(rng.randrange(p**3))
            y = (x.frac + b) / a
            assert img.contains(ctx.rational(y.numerator, y.denominator))


class TestWorkedDensities:
    def setup_method(self):
        self.ctx = PadicContext(3)
        self.z = Ball(self.ctx, 0, ())

    def test_contracting_element(self):
        g0 = AffineElement.from_parts(self.ctx, [(self.z, 3)], [])
        mu = pushforward(haar(self.ctx), g0)
        rho = mu.density
        assert rho(self.ctx.zero()) == Fraction(1, 3)
        assert rho(self.ctx.rational(1, 3)) == Fraction(4, 3)
        assert rho(self.ctx.rational(2, 3)) == Fraction(4, 3)
        assert rho(self.ctx.rational(1, 9)) == 1
        assert mu.l1_deviation() == Fraction(4, 3)
        assert roundtrip_defect(g0) == 0

    def test_expanding_element(self):
        g1 = AffineElement.from_parts(self.ctx, [(self.z, Fraction(1, 3))], [])
        rho = pushforward(haar(self.ctx), g1).density
        assert rho(self.ctx.zero()) == 3
        assert rho(self.ctx.rational(1)) == 0
        assert rho(self.ctx.rational(1, 3)) == 1
        assert roundtrip_defect(g1) == Fraction(4, 3)

    def test_pure_shift(self):
        g = AffineElement.from_parts(self.ctx, [], [(self.z, Fraction(1, 3))])
        rho = pushforward(haar(self.ctx), g).density
        # the shift moves Z_3 onto the shell ball 1/3+Z_3, doubling it and
        # emptying Z_3; mass is still conserved
        assert rho(self.ctx.zero()) == 0
        assert rho(self.ctx.rational(1, 3)) == 2
        support = rho.deviation_support()
        total = rho.integrate_transform(support, "one_minus")
        assert total == 0


class TestConservation:
    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=50, deadline=None)
    def test_mass(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        mu = pushforward(haar(ctx), g)
        support = mu.density.deviation_support()
        assert mu.density.integrate_transform(support, "one_minus") == 0

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_set_mass_matches_preimage(self, seed, p):
        """g*m(S) = m(g^{-1}S) where the preimage is taken through the point
        action; an independent route through clopen algebra."""
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        mu = pushforward(haar(ctx), g)
        s = ClopenSet.of(ctx, [Ball(ctx, rng.randint(-1, 1), ())])
        ind = StepFunction.indicator(s)
        pushed_mass = (ind * mu.density).integrate(
            s.union(mu.density.deviation_support())
        )
        assert pushed_mass == g.preimage_clopen(s).measure

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_measure_preserving_elements(self, seed):
        ctx = PadicContext(3)
        rng = random.Random(seed)
        g = random_measure_preserving(ctx, rng)
        assert maps_pieces_onto_themselves(g)
        mu = pushforward(haar(ctx), g)
        assert mu.l1_deviation() == 0


class TestDeviationsFromParts:
    """l1_deviation and excess_mass, read off the density's parts, equal the
    sums of t(v)·m over the refine_window cells of its deviation support,
    with t(v) = |v - 1| and v - 1: on pushforwards of Haar, on their
    round trips through g^{-1} then g, and on densities drawn directly,
    whose excess mass is not 0."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_parts_sum_matches_refined_cells(self, p):
        ctx = PadicContext(p)
        rng = random.Random(p)
        zero_parts = moved = 0
        for _ in range(100):
            g = random_element(ctx, rng)
            balls = random_disjoint_balls(ctx, rng, rng.randint(1, 3))
            drawn = [(b, Fraction(rng.randint(0, 4), rng.randint(1, 3))) for b in balls]
            for mu in (
                pushforward(haar(ctx), g),
                pushforward(pushforward(haar(ctx), g.inverse()), g),
                IntensityMeasure(StepFunction.make(ctx, REAL, drawn, 1)),
            ):
                rho = mu.density
                cells = refine_window(rho.deviation_support(), [rho])
                l1 = sum((abs(v - 1) * c.measure for c, (v,) in cells), Fraction(0))
                excess = sum(((v - 1) * c.measure for c, (v,) in cells), Fraction(0))
                assert mu.l1_deviation() == l1
                assert mu.excess_mass() == excess
                zero_parts += any(v == 0 for _, v in rho.parts)
                moved += excess != 0
        assert zero_parts and moved


class TestFixedPieces:
    """g fixes every point where (a, b) = (1, 0): such a cell keeps its
    density and f's values without an image ball."""

    @pytest.fixture
    def images(self, monkeypatch):
        """The balls Ball.image is called on while the test runs."""
        calls = []
        image = Ball.image

        def counted(ball, a_val, b_val):
            calls.append(ball)
            return image(ball, a_val, b_val)

        monkeypatch.setattr(Ball, "image", counted)
        return calls

    @pytest.mark.parametrize("p", PRIMES)
    def test_identity_makes_no_image(self, p, images):
        ctx = PadicContext(p)
        g = AffineElement.identity(ctx)
        f = random_test_function(ctx, random.Random(p))
        mu = IntensityMeasure(f.map_values(lambda v: v * v + 1))
        assert pushforward(haar(ctx), g) == haar(ctx)
        assert pushforward(mu, g) == mu
        assert g.act_function(f) == f
        assert not images

    @pytest.mark.parametrize("p", PRIMES)
    def test_pushforward_images_moved_cells_once(self, p, images):
        ctx = PadicContext(p)
        rng = random.Random(f"moved-{p}")
        for _ in range(20):
            g = random_element(ctx, rng)
            moved = [
                cell for cell, (a, b) in union_cells([g.a, g.b]) if (a, b) != (1, 0)
            ]
            images.clear()
            pushforward(haar(ctx), g)
            assert sorted(images, key=ball_order) == sorted(moved, key=ball_order)


class TestRoundtrip:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        ctx = PadicContext(3)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        assert roundtrip_defect(g) >= 0

    def test_point_histogram_oracle(self):
        """Push uniform points through the contracting worked element and
        compare cell frequencies with the exact density."""
        ctx = PadicContext(3)
        z = Ball(ctx, 0, ())
        g0 = AffineElement.from_parts(ctx, [(z, 3)], [])
        rho = pushforward(haar(ctx), g0).density
        window = Ball(ctx, 1, ())
        rng = random.Random(314)
        n = 20000
        cells = [z] + [
            b for b in ClopenSet.of(ctx, [window]).subtract(
                ClopenSet.of(ctx, [z])
            ).balls
        ]
        counts = {id(c): 0 for c in cells}
        for _ in range(n):
            x = window.point(rng.randrange(3**4))
            y = g0.act_point(x)
            for c in cells:
                if c.contains(y):
                    counts[id(c)] += 1
                    break
        wmass = float(window.measure)
        for c in cells:
            expected = float(rho(c.center) * c.measure) / wmass
            se = (expected * (1 - expected) / n) ** 0.5
            assert abs(counts[id(c)] / n - expected) <= 5 * se
