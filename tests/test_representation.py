"""Radon-Nikodym densities, the duality checks, unitarity audits and
decoupling."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import (
    AffineElement,
    Ball,
    ClopenSet,
    Configuration,
    CountEvent,
    Exponential,
    PadicContext,
    Polynomial,
    StepFunction,
    check_ergodic_inequality,
    check_factorization,
    check_invariance,
    check_isometry,
    check_isometry_mc,
    check_laplace,
    check_laplace_mc,
    check_dual_pairing,
    check_rn_identity,
    check_rn_identity_mc,
    decoupler_postconditions,
    find_decoupler,
    rn_density,
    rn_factors,
)
from padic_affine.errors import (
    ContractViolation, PadicAffineError, UnboundedIntegral, WindowMismatch
)
from padic_affine.measure import IntensityMeasure
from padic_affine.poisson import MIN_SAMPLES, laplace_exponent, mc_run
from padic_affine.randgen import (
    random_clopen,
    random_element,
    random_measure_preserving,
    random_test_function,
    random_unit,
)
from padic_affine.representation import decoupler_shift
from padic_affine.stepfn import REAL

PRIMES = [2, 3, 5]


def ctx3():
    return PadicContext(3)


def random_localized_shift(ctx, rng):
    """(g, ball, h) with g = (1, h·1_B) and |h|_p <= radius(B)."""
    ball = Ball(ctx, rng.randint(0, 2), ())
    v = rng.randint(-ball.radius_exp, -ball.radius_exp + 3)
    h = random_unit(ctx, rng, span=4) * Fraction(ctx.p) ** v
    return AffineElement.from_parts(ctx, [], [(ball, h)]), ball, h


def contracting(ctx):
    z = Ball(ctx, 0, ())
    return AffineElement.from_parts(ctx, [(z, ctx.p)], [])


def half_indicator(ctx):
    z = Ball(ctx, 0, ())
    return StepFunction.make(ctx, REAL, [(z, Fraction(1, 2))], 0)


class TestRadonNikodym:
    def setup_method(self):
        self.ctx = ctx3()
        self.window = ClopenSet.of(self.ctx, [Ball(self.ctx, 1, ())])

    def test_worked_values(self):
        g1 = contracting(self.ctx).inverse()
        gamma = Configuration((self.ctx.zero(), self.ctx.rational(3)), self.window)
        product, exponent = rn_factors(g1, gamma)
        # rho_{g1} is 3 on 3Z_3 and 0 on the shell |x|=1
        assert product == 9
        assert exponent == 0
        assert rn_density(g1, gamma) == 9.0

    def test_zero_on_emptied_region(self):
        g1 = contracting(self.ctx).inverse()
        gamma = Configuration((self.ctx.rational(1),), self.window)
        assert rn_density(g1, gamma) == 0.0

    def test_window_must_cover_support(self):
        g1 = contracting(self.ctx).inverse()
        small = ClopenSet.of(self.ctx, [Ball(self.ctx, -2, ())])
        gamma = Configuration((self.ctx.zero(),), small)
        with pytest.raises(WindowMismatch):
            rn_factors(g1, gamma)

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_identity_exact(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_rn_identity(g, f)
        assert r.passed, r.defect

    def test_identity_mc(self):
        rng = random.Random(5)
        g = random_element(self.ctx, rng)
        f = random_test_function(self.ctx, rng)
        r = check_rn_identity_mc(g, f, 20000, 5)
        assert r.passed, r.defect


class TestLaplace:
    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_exact(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_laplace(g, f)
        assert r.passed, (r.lhs, r.rhs)

    def test_mc(self):
        ctx = ctx3()
        rng = random.Random(8)
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_laplace_mc(g, f, 20000, 8)
        assert r.passed, r.defect

    def test_dual_remark_is_audit(self):
        ctx = ctx3()
        g0 = contracting(ctx)
        f = half_indicator(ctx)
        r = check_dual_pairing(g0, f, f)
        assert r.audit


class TestIsometry:
    def test_contracting_passes(self):
        ctx = ctx3()
        r = check_isometry(contracting(ctx), half_indicator(ctx))
        assert r.passed

    def test_expanding_worked_defect(self):
        """For g = (1/p on Z_p, 0) and f = c·1_{Z_p} the two squared norms
        have exponents (e^{2c} - 1)/p and e^{2c} - 1 exactly."""
        for p in PRIMES:
            ctx = PadicContext(p)
            c = 0.5
            g1 = contracting(ctx).inverse()
            f = StepFunction.make(
                ctx, REAL, [(Ball(ctx, 0, ()), Fraction(1, 2))], 0
            )
            r = check_isometry(g1, f)
            assert r.audit
            assert not r.passed
            assert r.lhs == pytest.approx(math.exp(math.expm1(2 * c) / p), rel=1e-12)
            assert r.rhs == pytest.approx(math.exp(math.expm1(2 * c)), rel=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_measure_preserving_passes(self, seed):
        ctx = ctx3()
        rng = random.Random(seed)
        g = random_measure_preserving(ctx, rng)
        f = random_test_function(ctx, rng)
        assert check_isometry(g, f).passed

    def test_mc_replica(self):
        ctx = ctx3()
        g1 = contracting(ctx).inverse()
        r = check_isometry_mc(g1, half_indicator(ctx), 20000, 4)
        assert r.passed  # MC agrees with its own exact target
        assert r.audit


class TestDecoupling:
    def setup_method(self):
        self.ctx = ctx3()
        self.z = Ball(self.ctx, 0, ())

    def test_worked_decoupler(self):
        l1 = l2 = ClopenSet.of(self.ctx, [self.z])
        g = find_decoupler(l1, l2)
        ball, h = decoupler_shift(g)
        assert ball == Ball(self.ctx, 1, ())
        assert h == Fraction(1, 3)
        assert all(decoupler_postconditions(g, l1, l2).values())

    @given(seed=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
    @settings(max_examples=50, deadline=None)
    def test_postconditions_random(self, seed, p):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        l1, l2 = random_clopen(ctx, rng), random_clopen(ctx, rng)
        g = find_decoupler(l1, l2)
        assert all(decoupler_postconditions(g, l1, l2).values())

    def test_shift_contract(self):
        g = contracting(self.ctx)
        with pytest.raises(ContractViolation):
            decoupler_shift(g)

    def test_factorization_exponentials(self):
        f1 = Exponential(half_indicator(self.ctx))
        f2 = Exponential(
            StepFunction.make(self.ctx, REAL, [(self.z, Fraction(1, 2))], 0)
        )
        r = check_factorization(f1, f2)
        assert r.passed
        want = math.exp(2 * math.expm1(0.5))
        assert r.lhs == pytest.approx(want, rel=1e-12)

    def test_factorization_events_mc(self):
        ev = CountEvent(((ClopenSet.of(self.ctx, [self.z]), "=", 0),))
        r = check_factorization(ev, ev, samples=20000, seed=6)
        assert r.passed, r.defect

    def test_ergodic_equality(self):
        ev = CountEvent(((ClopenSet.of(self.ctx, [self.z]), "=", 0),))
        r = check_ergodic_inequality(ev, ev)
        assert r.passed
        assert r.lhs == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_ergodic_exact_for_bounded_count(self):
        at_most_one = CountEvent(
            ((ClopenSet.of(self.ctx, [self.z]), "<=", 1),)
        )
        r = check_ergodic_inequality(at_most_one, at_most_one)
        assert r.passed, r.defect


class TestInvariance:
    def test_repaired_exact(self):
        ctx = ctx3()
        rng = random.Random(12)
        for _ in range(10):
            g, ball, h = random_localized_shift(ctx, rng)
            inner = ClopenSet.of(ctx, [ball])
            f = Exponential(
                StepFunction.make(ctx, REAL, [(ball, Fraction(1, 2))], 0)
            )
            r = check_invariance(f, g)
            assert r.passed
            del inner

    def test_literal_contract_is_audit(self):
        ctx = ctx3()
        z = Ball(ctx, 0, ())
        # shift Z_3 by 1/9: the shift moves the ball completely off itself,
        # so only the literal disjointness geometry applies
        g = AffineElement.from_parts(ctx, [], [(z, Fraction(1, 9))])
        f = Exponential(StepFunction.make(ctx, REAL, [(z, Fraction(1))], 0))
        try:
            r = check_invariance(f, g)
            assert r.audit
        except ContractViolation:
            pass  # geometry may fail both contracts; also a valid outcome


class TestWindowHandling:
    def test_mc_requires_budget_for_events(self):
        ctx = ctx3()
        z = Ball(ctx, 0, ())
        ev = CountEvent(((ClopenSet.of(ctx, [z]), "=", 0),))
        poly = Polynomial(
            ((StepFunction.make(ctx, REAL, [(z, Fraction(1))], 0), 1),)
        )
        with pytest.raises(Exception):
            check_factorization(ev, poly)


class TestZeroSamples:
    """A Monte Carlo check asked for fewer than MIN_SAMPLES samples refuses
    with a typed error: mc_run refuses 0, and the replicas refuse 0 to 999
    before they sample."""

    def setup_method(self):
        self.ctx = ctx3()
        rng = random.Random(3)
        self.g = random_element(self.ctx, rng)
        self.f = random_test_function(self.ctx, rng)
        self.ev = CountEvent(((ClopenSet.of(self.ctx, [Ball(self.ctx, 0, ())]), "=", 0),))

    def test_mc_run(self):
        with pytest.raises(PadicAffineError):
            mc_run([(None, 1.0, ())], lambda pairs: 1.0, 0, 1)

    @pytest.mark.parametrize(
        "check", [check_laplace_mc, check_rn_identity_mc, check_isometry_mc]
    )
    def test_exponential_replicas(self, check):
        for samples in (0, 1, MIN_SAMPLES - 1):
            with pytest.raises(PadicAffineError):
                check(self.g, self.f, samples, 1)

    def test_factorization(self):
        poly = Polynomial(((self.f, 1),))
        for samples in (0, 1, MIN_SAMPLES - 1):
            with pytest.raises(PadicAffineError):
                check_factorization(self.ev, poly, samples=samples, seed=1)

    def test_refused_before_sampling(self, monkeypatch):
        """The floor is checked before mc_run draws anything: with mc_run
        refusing every call, too few samples still end in the floor's
        PadicAffineError for all four replicas."""

        def no_sampling(*args):
            raise AssertionError("mc_run reached")

        monkeypatch.setattr("padic_affine.representation.mc_run", no_sampling)
        poly = Polynomial(((self.f, 1),))
        for samples in (1, MIN_SAMPLES - 1):
            for check in (check_laplace_mc, check_rn_identity_mc, check_isometry_mc):
                with pytest.raises(PadicAffineError):
                    check(self.g, self.f, samples, 1)
            with pytest.raises(PadicAffineError):
                check_factorization(self.ev, poly, samples=samples, seed=1)


class TestInfiniteExponent:
    """expm1(709) · 27 is inf without an OverflowError; the Monte Carlo
    replicas refuse it before any sampling."""

    @pytest.mark.parametrize("check", [check_laplace_mc, check_rn_identity_mc])
    def test_refused_before_sampling(self, check, monkeypatch):
        ctx = ctx3()
        f = StepFunction.make(ctx, REAL, [(Ball(ctx, 3, ()), 709)], 0)

        def no_sampling(*args):
            raise AssertionError("mc_run reached")

        monkeypatch.setattr("padic_affine.representation.mc_run", no_sampling)
        with pytest.raises(PadicAffineError):
            check(AffineElement.identity(ctx), f, 1000, 0)


class TestDensityPastFloatRange:
    """a = 2^-1100 on Z_2: g*m is 2^1100 on B(0;-1100), past a float's range,
    while f = 1 on Z_2 keeps the Laplace exponent finite. Both Radon-Nikodym
    checks refuse the density with the typed error, not an OverflowError."""

    @pytest.mark.parametrize("check", [
        pytest.param(check_rn_identity, id="exact"),
        pytest.param(functools.partial(check_rn_identity_mc, samples=1000, seed=0), id="mc"),
    ])
    def test_refused_with_the_typed_error(self, check):
        ctx = PadicContext(2)
        g = AffineElement.from_parts(ctx, [(Ball(ctx, 0, ()), Fraction(1, 2**1100))], [])
        f = StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 1)], 0)
        with pytest.raises(PadicAffineError, match="overflows a float"):
            check(g, f)


class TestTailMustVanish:
    """e^f - 1 is e^tail - 1 off a compact set, so the Laplace exponent of an
    f with a nonzero tail diverges on Q_p; the exact checks refuse it."""

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("tail", [1, 2, Fraction(-1, 3)])
    @pytest.mark.parametrize("check", [check_laplace, check_rn_identity, check_isometry])
    def test_nonzero_tail_is_unbounded(self, check, tail, p):
        ctx = PadicContext(p)
        f = StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 1)], tail)
        with pytest.raises(UnboundedIntegral):
            check(AffineElement.identity(ctx), f)

    def test_laplace_exponent(self):
        ctx = ctx3()
        f = StepFunction.constant(ctx, REAL, 1)
        with pytest.raises(UnboundedIntegral):
            laplace_exponent(f, IntensityMeasure.haar(ctx))
