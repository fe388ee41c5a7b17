"""Poisson configurations, cylinder descriptors and their expectations."""

import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import (
    Ball,
    ClopenSet,
    Configuration,
    CountEvent,
    Exponential,
    IntensityMeasure,
    PadicContext,
    Polynomial,
    StepFunction,
    expect_exact,
    expect_mc,
    pair_sum,
    required_depth,
    sample_config,
)
from padic_affine.errors import (
    PadicAffineError,
    UnboundedIntegral,
    UnsupportedShape,
    WindowMismatch,
)
from padic_affine import poisson
from padic_affine.poisson import (
    EQ,
    GE,
    LE,
    _poisson_pmf,
    _predicate_prob,
    laplace_exponent,
)
from padic_affine.stepfn import REAL


def ctx3():
    return PadicContext(3)


def unit_ball(ctx):
    return Ball(ctx, 0, ())


def indicator_step(ctx, ball, value):
    return StepFunction.make(ctx, REAL, [(ball, Fraction(value))], 0)


class TestConfiguration:
    def test_rejects_duplicates(self):
        ctx = ctx3()
        w = ClopenSet.of(ctx, [unit_ball(ctx)])
        with pytest.raises(Exception):
            Configuration((ctx.rational(1), ctx.rational(1)), w)

    def test_rejects_outside_points(self):
        ctx = ctx3()
        w = ClopenSet.of(ctx, [unit_ball(ctx)])
        with pytest.raises(WindowMismatch):
            Configuration((ctx.rational(1, 9),), w)

    def test_pair_sum(self):
        ctx = ctx3()
        w = ClopenSet.of(ctx, [Ball(ctx, 1, ())])
        f = indicator_step(ctx, unit_ball(ctx), Fraction(1, 2))
        gamma = Configuration(
            (ctx.rational(0), ctx.rational(1), ctx.rational(1, 3)), w
        )
        assert pair_sum(f, gamma) == 1  # two of the three points hit Z_3


class TestLaplaceExponent:
    def test_single_ball(self):
        """Oracle: the moment generating function of N ~ Poisson(1)."""
        ctx = ctx3()
        f = indicator_step(ctx, unit_ball(ctx), Fraction(1, 2))
        got = math.exp(laplace_exponent(f, IntensityMeasure.haar(ctx)))
        assert got == pytest.approx(math.exp(math.expm1(0.5)), rel=1e-12)

    def test_two_cells_factorize(self):
        ctx = ctx3()
        z = unit_ball(ctx)
        kids = z.children()
        f = StepFunction.make(
            ctx, REAL, [(kids[0], Fraction(1)), (kids[1], Fraction(-1))], 0
        )
        got = laplace_exponent(f, IntensityMeasure.haar(ctx))
        want = (math.expm1(1.0) + math.expm1(-1.0)) / 3.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_f_cell_past_float_range_is_skipped(self):
        """mu = 2 on B(0;1100) at p = 2: the cell where f = 0 has a mass
        past a float's range and adds exactly 0, so it is left out."""
        ctx = PadicContext(2)
        mu = IntensityMeasure(StepFunction.make(ctx, REAL, [(Ball(ctx, 1100, ()), 2)], 1))
        f = indicator_step(ctx, Ball(ctx, 0, ()), 1)
        assert laplace_exponent(f, mu) == math.expm1(1.0) * 2.0 == 3.43656365691809

    @pytest.mark.parametrize("describe", [
        pytest.param(Exponential, id="exponential"),
        pytest.param(lambda f: Polynomial(((f, 1),)), id="polynomial"),
    ])
    def test_nonzero_tail_is_unbounded(self, describe):
        """A descriptor refuses a test function with a nonzero tail with the
        error the exact path raises for it."""
        ctx = ctx3()
        f = StepFunction.make(ctx, REAL, [(unit_ball(ctx), Fraction(0))], 1)
        with pytest.raises(UnboundedIntegral):
            laplace_exponent(f, IntensityMeasure.haar(ctx))
        with pytest.raises(UnboundedIntegral):
            describe(f)


class TestExactExpectations:
    def setup_method(self):
        self.ctx = ctx3()
        self.haar = IntensityMeasure.haar(self.ctx)
        self.z = unit_ball(self.ctx)

    def test_exponential(self):
        f = Exponential(indicator_step(self.ctx, self.z, Fraction(1, 2)))
        assert expect_exact(f, self.haar) == pytest.approx(
            math.exp(math.expm1(0.5)), rel=1e-12
        )

    def test_exponential_beyond_float_range_is_typed(self):
        """e^(e^100 - 1) does not fit a float."""
        f = Exponential(indicator_step(self.ctx, self.z, 100))
        with pytest.raises(PadicAffineError):
            expect_exact(f, self.haar)

    def test_closed_forms_beyond_float_range_are_typed(self):
        """A mean, a second moment or a count rate of 3^700 does not fit a
        float; the count rate is refused before it reaches the pmf."""
        ball = Ball(self.ctx, 700, ())
        g = indicator_step(self.ctx, ball, 1)
        count = CountEvent(((ClopenSet.of(self.ctx, [ball]), "=", 0),))
        for f in (Polynomial(((g, 1),)), Polynomial(((g, 2),)), count):
            with pytest.raises(PadicAffineError, match="overflows a float"):
                expect_exact(f, self.haar)

    def test_void_probability(self):
        ev = CountEvent(((ClopenSet.of(self.ctx, [self.z]), "=", 0),))
        assert expect_exact(ev, self.haar) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_count_pmf(self):
        """N(Z_3) ~ Poisson(1): P(N = k) = e^{-1}/k!."""
        s = ClopenSet.of(self.ctx, [self.z])
        for k in range(4):
            ev = CountEvent(((s, "=", k),))
            assert expect_exact(ev, self.haar) == pytest.approx(
                math.exp(-1.0) / math.factorial(k), rel=1e-12
            )

    def test_count_tails(self):
        s = ClopenSet.of(self.ctx, [self.z])
        le1 = expect_exact(CountEvent(((s, "<=", 1),)), self.haar)
        ge2 = expect_exact(CountEvent(((s, ">=", 2),)), self.haar)
        assert le1 + ge2 == pytest.approx(1.0, rel=1e-12)

    def test_count_past_float_factorial(self):
        """171! and 243^130 exceed a float: such terms of the Poisson law are
        taken in log space, against the float recurrence p_k = p_{k-1}·lam/k."""
        s = ClopenSet.of(self.ctx, [self.z])
        assert expect_exact(CountEvent(((s, "<=", 171),)), self.haar) == 1.0
        wide = ClopenSet.of(self.ctx, [Ball(self.ctx, 5, ())])  # lam = 3^5
        terms = [math.exp(-243.0)]
        for k in range(1, 244):
            terms.append(terms[-1] * 243.0 / k)
        eq = expect_exact(CountEvent(((wide, "=", 243),)), self.haar)
        le = expect_exact(CountEvent(((wide, "<=", 243),)), self.haar)
        assert eq == pytest.approx(terms[-1], rel=1e-10)
        assert le == pytest.approx(math.fsum(terms), rel=1e-10)

    def test_count_past_float_factorial_at_zero_rate(self):
        """With lam = 0, N = 0 surely, for every k."""
        s = ClopenSet.of(self.ctx, [self.z])
        void = IntensityMeasure(StepFunction.make(self.ctx, REAL, [(self.z, 0)], 1))
        for op, want in (("=", 0.0), ("<=", 1.0), (">=", 0.0)):
            assert expect_exact(CountEvent(((s, op, 171),)), void) == want

    def test_disjoint_events_factorize(self):
        kids = self.z.children()
        s1 = ClopenSet.of(self.ctx, [kids[0]])
        s2 = ClopenSet.of(self.ctx, [kids[1]])
        joint = CountEvent(((s1, "=", 0), (s2, "=", 0)))
        single1 = CountEvent(((s1, "=", 0),))
        single2 = CountEvent(((s2, "=", 0),))
        assert expect_exact(joint, self.haar) == pytest.approx(
            expect_exact(single1, self.haar) * expect_exact(single2, self.haar),
            rel=1e-12,
        )

    def test_overlapping_events_rejected(self):
        s = ClopenSet.of(self.ctx, [self.z])
        ev = CountEvent(((s, "=", 0), (s, ">=", 0)))
        with pytest.raises(UnsupportedShape):
            expect_exact(ev, self.haar)

    def test_first_moment_campbell(self):
        """E<f, gamma> = integral of f dm for Poisson with intensity m."""
        f = indicator_step(self.ctx, self.z, Fraction(3, 2))
        poly = Polynomial(((f, 1),))
        assert expect_exact(poly, self.haar) == pytest.approx(1.5, rel=1e-12)

    def test_second_moment_campbell(self):
        """E<1_S,gamma>^2 = lam + lam^2 for N_S ~ Poisson(lam)."""
        f = indicator_step(self.ctx, self.z, Fraction(1))
        poly = Polynomial(((f, 2),))
        assert expect_exact(poly, self.haar) == pytest.approx(2.0, rel=1e-12)

    def test_cross_moment_independent_cells(self):
        kids = self.z.children()
        f1 = indicator_step(self.ctx, kids[0], Fraction(1))
        f2 = indicator_step(self.ctx, kids[1], Fraction(1))
        poly = Polynomial(((f1, 1), (f2, 1)))
        # independent counts: E[N1 N2] = (1/3)(1/3)
        assert expect_exact(poly, self.haar) == pytest.approx(1 / 9, rel=1e-12)

    def test_degree_cap(self):
        f = indicator_step(self.ctx, self.z, Fraction(1))
        with pytest.raises(UnsupportedShape):
            expect_exact(Polynomial(((f, 3),)), self.haar)


def ref_predicate_prob(op, k, lam):
    """P(N op k) for N ~ Poisson(lam), summing the <= CDF for >= too."""
    if op == EQ:
        return _poisson_pmf(lam, k)
    cdf = ref_left_sum(_poisson_pmf(lam, j) for j in range(k + 1))
    if op == LE:
        return cdf
    return 1.0 - ref_left_sum(_poisson_pmf(lam, j) for j in range(k))


def ref_left_sum(xs):
    """Floats added left to right, as sum() did before CPython 3.12."""
    return functools.reduce(operator.add, xs, 0)


PREDICATE_KS = [0, 1, 5, 170, 171, 2000]
PREDICATE_RATES = [0.0, 0.5, 3.0, 745.0]


@pytest.mark.parametrize("op", [EQ, LE, GE])
def test_predicate_prob_matches_reference(op):
    for k in PREDICATE_KS:
        for lam in PREDICATE_RATES:
            got = _predicate_prob(op, k, lam)
            assert repr(got) == repr(ref_predicate_prob(op, k, lam)), (k, lam)


def test_predicate_ge_sums_k_terms(monkeypatch):
    calls = [0]

    def counted(lam, k):
        calls[0] += 1
        return _poisson_pmf(lam, k)

    monkeypatch.setattr(poisson, "_poisson_pmf", counted)
    for k in PREDICATE_KS:
        for lam in PREDICATE_RATES:
            calls[0] = 0
            _predicate_prob(GE, k, lam)
            assert calls[0] == k, (k, lam)


class TestSampler:
    def test_determinism(self):
        ctx = ctx3()
        haar = IntensityMeasure.haar(ctx)
        w = ClopenSet.of(ctx, [unit_ball(ctx)])
        runs = []
        for _ in range(2):
            rng = random.Random("fixed")
            runs.append(
                [sample_config(haar, w, 3, rng).points for _ in range(20)]
            )
        assert runs[0] == runs[1]

    def test_points_inside_window(self):
        ctx = ctx3()
        haar = IntensityMeasure.haar(ctx)
        w = ClopenSet.of(ctx, [unit_ball(ctx)])
        rng = random.Random(9)
        for _ in range(200):
            gamma = sample_config(haar, w, 2, rng)
            for x in gamma.points:
                assert w.contains(x)

    def test_mean_and_variance(self):
        ctx = ctx3()
        haar = IntensityMeasure.haar(ctx)
        w = ClopenSet.of(ctx, [unit_ball(ctx)])
        rng = random.Random(27)
        n = 20000
        counts = [len(sample_config(haar, w, 2, rng)) for _ in range(n)]
        mean = sum(counts) / n
        var = sum((c - mean) ** 2 for c in counts) / n
        assert abs(mean - 1.0) <= 5 * math.sqrt(1.0 / n)
        assert abs(var - 1.0) <= 5 * math.sqrt(3.0 / n)

    def test_zero_intensity(self):
        ctx = ctx3()
        z = unit_ball(ctx)
        dead = IntensityMeasure(
            StepFunction.make(ctx, REAL, [(z, Fraction(0))], 1)
        )
        w = ClopenSet.of(ctx, [z])
        rng = random.Random(1)
        for _ in range(20):
            assert len(sample_config(dead, w, 2, rng)) == 0

    def test_required_depth_resolves(self):
        ctx = ctx3()
        z = unit_ball(ctx)
        fine = ClopenSet.of(ctx, [Ball(ctx, -2, ())])
        d = required_depth([fine], z)
        assert d >= 2


class TestMonteCarlo:
    def setup_method(self):
        self.ctx = ctx3()
        self.haar = IntensityMeasure.haar(self.ctx)
        self.z = unit_ball(self.ctx)

    def test_matches_exact_exponential(self):
        f = Exponential(indicator_step(self.ctx, self.z, Fraction(1, 2)))
        target = expect_exact(f, self.haar)
        mean, se = expect_mc(f, self.haar, 20000, 11)
        assert abs(mean - target) <= 5 * se

    def test_matches_exact_event(self):
        ev = CountEvent(((ClopenSet.of(self.ctx, [self.z]), ">=", 1),))
        target = expect_exact(ev, self.haar)
        mean, se = expect_mc(ev, self.haar, 20000, 12)
        assert abs(mean - target) <= 5 * se

    def test_matches_exact_polynomial(self):
        f = indicator_step(self.ctx, self.z, Fraction(1))
        poly = Polynomial(((f, 2),))
        target = expect_exact(poly, self.haar)
        mean, se = expect_mc(poly, self.haar, 20000, 13)
        assert abs(mean - target) <= 5 * se

    def test_chunk_determinism(self):
        """Same (seed, n) gives a bit-identical estimate; different chunk
        boundaries never enter the digest because chunks are fixed size."""
        f = Exponential(indicator_step(self.ctx, self.z, Fraction(1, 2)))
        a = expect_mc(f, self.haar, 5000, 3)
        b = expect_mc(f, self.haar, 5000, 3)
        assert a == b

    def test_minimum_samples_enforced(self):
        f = Exponential(indicator_step(self.ctx, self.z, Fraction(1, 2)))
        with pytest.raises(Exception):
            expect_mc(f, self.haar, 10, 3)


class TestPointCap:
    """MAX_POINTS bounds the exact expected point count of a draw: a total
    at the cap is accepted, one half a point past it is refused."""

    def measure(self, ctx, total):
        z = unit_ball(ctx)  # Haar measure 1, so the rate is the density
        return IntensityMeasure(StepFunction.make(ctx, REAL, [(z, total)], 1)), z

    @pytest.mark.parametrize(
        "total, accepted",
        [(Fraction(poisson.MAX_POINTS), True),
         (poisson.MAX_POINTS + Fraction(1, 2), False)],
    )
    def test_prepared_draw_and_mc_atoms(self, total, accepted):
        ctx = PadicContext(2)
        mu, z = self.measure(ctx, total)
        window = ClopenSet.of(ctx, [z])
        if accepted:
            assert poisson.PreparedDraw(mu, window).weights == [total]
            assert poisson.mc_atoms(mu, []) == [(z, float(total), ())]
            return
        with pytest.raises(PadicAffineError, match="exceeds the cap"):
            poisson.PreparedDraw(mu, window)
        with pytest.raises(PadicAffineError, match="exceeds the cap"):
            poisson.mc_atoms(mu, [])


def test_mc_run_sums_split_pieces_into_one_pair():
    """Each row mc_run hands the evaluator holds at most one pair per atom,
    in increasing atom order, when split and unsplit rates are mixed."""
    rates = [0.5, 2100.0, 3.0, 1500.0, 701.0, 40.0]
    assert [poisson.PoissonVariate(r).pieces > 1 for r in rates] == [
        False, True, False, True, True, False,
    ]
    atoms = [(None, rate, ()) for rate in rates]
    rows = []
    poisson.mc_run(atoms, lambda pairs: rows.append(list(pairs)) or 0.0, 300, 4)
    assert len(rows) == 300
    for pairs in rows:
        indices = [i for i, _ in pairs]
        assert indices == sorted(set(indices))
        assert all(c > 0 for _, c in pairs)
    # every split rate draws a nonzero count on every row
    assert all({1, 3, 4} <= {i for i, _ in pairs} for pairs in rows)
