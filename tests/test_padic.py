"""Exact p-adic arithmetic, balls and clopen sets.

Valuations and digits are checked against independent reconstructions;
ultrametric facts run as hypothesis properties.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import Ball, ClopenSet, Padic, PadicContext
from padic_affine.errors import ContextMismatch
from padic_affine.padic import (
    DISJOINT,
    EQUAL,
    FIRST_INSIDE_SECOND,
    SECOND_INSIDE_FIRST,
    INFINITY,
    fraction_abs_p,
    fraction_digits,
    fraction_valuation,
)

PRIMES = [2, 3, 5]


def slow_valuation(x: Fraction, p: int):
    """Oracle: strip factors of p from numerator and denominator directly."""
    if x == 0:
        return INFINITY
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


class TestValuation:
    @given(x=rationals, p=st.sampled_from(PRIMES))
    def test_matches_oracle(self, x, p):
        assert fraction_valuation(x, p) == slow_valuation(x, p)

    @given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
    def test_multiplicative(self, x, y, p):
        if x == 0 or y == 0:
            return
        assert fraction_valuation(x * y, p) == fraction_valuation(
            x, p
        ) + fraction_valuation(y, p)

    @given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
    def test_ultrametric(self, x, y, p):
        assert fraction_abs_p(x + y, p) <= max(
            fraction_abs_p(x, p), fraction_abs_p(y, p)
        )

    def test_worked_values(self):
        assert fraction_valuation(Fraction(18), 3) == 2
        assert fraction_valuation(Fraction(5, 9), 3) == -2
        assert fraction_abs_p(Fraction(12), 2) == Fraction(1, 4)
        assert fraction_abs_p(Fraction(1, 2), 3) == 1
        assert fraction_valuation(Fraction(0), 7) == INFINITY

    def test_zero_abs(self):
        assert fraction_abs_p(Fraction(0), 5) == 0


class TestDigits:
    @given(x=rationals, p=st.sampled_from(PRIMES), lo=st.integers(-4, 0),
           hi=st.integers(1, 6))
    def test_reconstruction(self, x, p, lo, hi):
        """Summing d_i p^i over the window recovers x modulo p^{hi+1} within
        the p-adic metric, relative to the truncation below lo."""
        ds = fraction_digits(x, p, lo, hi)
        assert all(0 <= d < p for d in ds)
        partial = sum(
            d * Fraction(p) ** (lo + i) for i, d in enumerate(ds)
        )
        if fraction_valuation(x, p) is not INFINITY and fraction_valuation(x, p) >= lo:
            assert fraction_valuation(x - partial, p) == INFINITY or \
                fraction_valuation(x - partial, p) > hi

    def test_worked_half_in_q3(self):
        assert fraction_digits(Fraction(1, 2), 3, 0, 3) == [2, 1, 1, 1]


class TestPadicOps:
    def test_context_mismatch(self):
        a = Padic(PadicContext(2), Fraction(1))
        b = Padic(PadicContext(3), Fraction(1))
        with pytest.raises(ContextMismatch):
            a + b

    def test_nonprime_rejected(self):
        with pytest.raises(Exception):
            PadicContext(6)

    @given(
        x=rationals, y=rationals, p=st.sampled_from(PRIMES)
    )
    def test_field_ops(self, x, y, p):
        ctx = PadicContext(p)
        a, b = Padic(ctx, x), Padic(ctx, y)
        assert (a + b).frac == x + y
        assert (a * b).frac == x * y
        if y != 0:
            assert (a / b).frac == x / y


class TestBalls:
    def setup_method(self):
        self.ctx = PadicContext(3)

    def test_equal_centers(self):
        b1 = Ball.from_center(self.ctx.rational(0), 0)
        b2 = Ball.from_center(self.ctx.rational(1), 0)
        assert b1 == b2
        assert b1.relation(b2) == EQUAL

    def test_disjoint(self):
        b1 = Ball.from_center(self.ctx.rational(0), 0)
        b2 = Ball.from_center(self.ctx.rational(1, 3), 0)
        assert b1.relation(b2) == DISJOINT

    def test_nesting(self):
        big = Ball.from_center(self.ctx.rational(0), 1)
        small = Ball.from_center(self.ctx.rational(1), 0)
        assert small.relation(big) == FIRST_INSIDE_SECOND
        assert big.relation(small) == SECOND_INSIDE_FIRST

    def test_measure(self):
        assert Ball.from_center(self.ctx.rational(0), 2).measure == 9
        assert Ball.from_center(self.ctx.rational(0), -2).measure == Fraction(1, 9)

    def test_children_partition(self):
        b = Ball.from_center(self.ctx.rational(0), 1)
        kids = b.children()
        assert len(kids) == 3
        assert sum(k.measure for k in kids) == b.measure
        for i, ki in enumerate(kids):
            assert ki.relation(b) == FIRST_INSIDE_SECOND
            for kj in kids[i + 1:]:
                assert ki.relation(kj) == DISJOINT

    @given(
        p=st.sampled_from(PRIMES),
        c1=rationals, c2=rationals,
        k1=st.integers(-4, 4), k2=st.integers(-4, 4),
    )
    def test_trichotomy(self, p, c1, c2, k1, k2):
        """Any two balls are nested, equal or disjoint; membership of the
        centers decides which, so the relation can be cross-checked."""
        ctx = PadicContext(p)
        b1 = Ball.from_center(Padic(ctx, c1), k1)
        b2 = Ball.from_center(Padic(ctx, c2), k2)
        rel = b1.relation(b2)
        in12 = b2.contains(b1.center)
        in21 = b1.contains(b2.center)
        if rel == EQUAL:
            assert in12 and in21 and k1 == k2
        elif rel == FIRST_INSIDE_SECOND:
            assert in12 and k1 < k2
        elif rel == SECOND_INSIDE_FIRST:
            assert in21 and k2 < k1
        else:
            assert not in12 and not in21

    @given(
        p=st.sampled_from(PRIMES), c=rationals, k=st.integers(-3, 3),
        t=rationals,
    )
    def test_membership_via_distance(self, p, c, k, t):
        ctx = PadicContext(p)
        b = Ball.from_center(Padic(ctx, c), k)
        x = Padic(ctx, c + t)
        expected = fraction_abs_p(t, p) <= Fraction(p) ** k
        assert b.contains(x) == expected

    def test_sample_lands_inside(self):
        rng = random.Random(11)
        for k in (-2, 0, 2):
            b = Ball.from_center(self.ctx.rational(5, 7), k)
            for _ in range(50):
                assert b.contains(b.point(rng.randrange(3**3)))


class TestClopen:
    def setup_method(self):
        self.ctx = PadicContext(3)

    def ball(self, num, den, k):
        return Ball.from_center(self.ctx.rational(num, den), k)

    def test_sibling_merge(self):
        kids = self.ball(0, 1, 1).children()
        s = ClopenSet.of(self.ctx, kids)
        assert list(s.balls) == [self.ball(0, 1, 1)]

    def test_subtract_child(self):
        z = ClopenSet.of(self.ctx, [self.ball(0, 1, 0)])
        inner = ClopenSet.of(self.ctx, [self.ball(0, 1, -1)])
        diff = z.subtract(inner)
        assert diff.measure == Fraction(2, 3)
        assert not diff.contains(self.ctx.zero())
        assert diff.contains(self.ctx.rational(1))

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=50)
    def test_algebra_vs_membership(self, seed, p):
        """Union, intersection and difference agree with pointwise membership
        on a probe grid."""
        ctx = PadicContext(p)
        rng = random.Random(seed)

        def rand_set():
            balls = []
            for _ in range(rng.randint(1, 3)):
                c = Fraction(rng.randint(-20, 20), rng.choice([1, p, p * p]))
                balls.append(Ball.from_center(Padic(ctx, c), rng.randint(-2, 1)))
            out = ClopenSet(ctx, ())
            for b in balls:
                out = out.union(ClopenSet.of(ctx, [b]))
            return out

        s1, s2 = rand_set(), rand_set()
        probes = [
            Padic(ctx, Fraction(rng.randint(-30, 30), rng.choice([1, p, p**2])))
            for _ in range(40)
        ]
        for x in probes:
            m1, m2 = s1.contains(x), s2.contains(x)
            assert s1.union(s2).contains(x) == (m1 or m2)
            assert s1.intersect(s2).contains(x) == (m1 and m2)
            assert s1.subtract(s2).contains(x) == (m1 and not m2)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_measure_additivity(self, seed):
        ctx = self.ctx
        rng = random.Random(seed)
        balls = [Ball(ctx, 1, ())]
        for _ in range(4):
            b = balls.pop(rng.randrange(len(balls)))
            balls.extend(b.children())
        s1 = ClopenSet.of(ctx, balls[: len(balls) // 2])
        s2 = ClopenSet.of(ctx, balls[len(balls) // 2:])
        assert s1.intersect(s2).is_empty
        assert s1.union(s2).measure == s1.measure + s2.measure

    def test_translate_invariance(self):
        s = ClopenSet.of(self.ctx, [self.ball(0, 1, 0), self.ball(1, 3, -1)])
        t = Fraction(7, 5)
        moved = s.translate(t)
        assert moved.measure == s.measure
        assert moved.translate(-t) == s


class TestTranslate:
    """ClopenSet.translate moves each ball with Ball.image(1, h); the
    reference is the direct move of each ball's center."""

    @given(
        p=st.sampled_from(PRIMES),
        seed=st.integers(0, 10**6),
        num=st.integers(-50, 50),
        den_exp=st.integers(0, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_moving_each_center(self, p, seed, num, den_exp):
        # den_exp > 0 with num prime to p gives a shift of negative valuation;
        # num = 0 gives h = 0
        ctx = PadicContext(p)
        rng = random.Random(seed)
        h = Fraction(num, p**den_exp)
        s = ClopenSet.of(ctx, [
            Ball.from_center(
                Padic(ctx, Fraction(rng.randint(-40, 40), p ** rng.randint(0, 3))),
                rng.randint(-3, 2),
            )
            for _ in range(rng.randint(0, 8))
        ])
        moved = [
            Ball.from_center(Padic(ctx, b.center.frac + h), b.radius_exp)
            for b in s.balls
        ]
        assert [b.image(1, h) for b in s.balls] == moved
        assert s.translate(h) == ClopenSet.of(ctx, moved)
        assert s.translate(h).measure == s.measure
        if h == 0:
            assert s.translate(h) == s
