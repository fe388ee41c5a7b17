"""Cylinder descriptors as one pairing interface: F = psi(<f_1,gamma>, ...).

Each descriptor gives its step functions or clopen sets (fns) and F as a
function of their pairings (psi); the window, evaluation, the Monte Carlo
count evaluator and the polynomial moments are one shared path over these.
The per-shape windows, evaluations and the moment formula they replace are
kept here as references, and every result must equal them exactly.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import poisson, randgen
from padic_affine.errors import WindowMismatch
from padic_affine.measure import IntensityMeasure
from padic_affine.padic import Ball, ClopenSet, PadicContext
from padic_affine.poisson import (
    EQ,
    GE,
    LE,
    Configuration,
    CountEvent,
    CylinderFunction,
    Exponential,
    Polynomial,
    expect_exact,
    pair_sum,
    product_evaluator,
    sample_config,
    window_cells,
)
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]


# -- references: the per-shape code the shared path replaces ----------------------


def ref_window(f) -> ClopenSet:
    if isinstance(f, Exponential):
        return f.f.deviation_support()
    if isinstance(f, Polynomial):
        sets = [g.deviation_support() for g, _ in f.factors]
    else:
        sets = [s for s, _, _ in f.conditions]
    out = sets[0]
    for s in sets[1:]:
        out = out.union(s)
    return out


def ref_evaluate(f, gamma) -> float:
    if isinstance(f, Exponential):
        return math.exp(float(pair_sum(f.f, gamma)))
    if isinstance(f, Polynomial):
        out = 1.0
        for g, e in f.factors:
            out *= float(pair_sum(g, gamma)) ** e
        return out
    for s, op, k in f.conditions:
        n = sum(1 for x in gamma.points if s.contains(x))
        if not poisson._holds(n, op, k):
            return 0.0
    return 1.0


def ref_moment1(f, mu) -> Fraction:
    cells = window_cells(mu, [f])
    return sum((fv * rv * cell.measure for cell, (fv, rv) in cells), Fraction(0))


def ref_cross_moment(f1, f2, mu) -> Fraction:
    cells = window_cells(mu, [f1, f2])
    return sum(
        (v1 * v2 * rv * cell.measure for cell, (v1, v2, rv) in cells), Fraction(0)
    )


def ref_polynomial_expectation(f, mu) -> float:
    if f.degree == 1:
        return float(ref_moment1(f.factors[0][0], mu))
    if len(f.factors) == 1:
        g = f.factors[0][0]
        m1 = ref_moment1(g, mu)
        return float(ref_cross_moment(g, g, mu) + m1 * m1)
    g1, g2 = f.factors[0][0], f.factors[1][0]
    return float(ref_cross_moment(g1, g2, mu) + ref_moment1(g1, mu) * ref_moment1(g2, mu))


# -- inputs ---------------------------------------------------------------------


def some_measure(ctx, rng):
    """Haar, or a density with zeros on some balls."""
    if rng.random() < 0.4:
        return IntensityMeasure.haar(ctx)
    balls = randgen.random_disjoint_balls(ctx, rng, rng.randint(1, 4))
    return IntensityMeasure(
        StepFunction.make(ctx, REAL, [(b, rng.randint(0, 2)) for b in balls], 1)
    )


def some_descriptor(ctx, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Exponential(randgen.random_test_function(ctx, rng, vspan=2))
    if kind == 1:
        return Polynomial(((randgen.random_test_function(ctx, rng), rng.randint(1, 3)),))
    if kind == 2:
        return Polynomial(
            tuple(
                (randgen.random_test_function(ctx, rng), rng.randint(1, 2))
                for _ in range(rng.randint(2, 3))
            )
        )
    return CountEvent(
        tuple(
            (randgen.random_clopen(ctx, rng), rng.choice((EQ, LE, GE)), rng.randint(0, 3))
            for _ in range(rng.randint(1, 3))
        )
    )


def some_polynomial(ctx, rng, shape):
    g1 = randgen.random_test_function(ctx, rng)
    if shape == "degree-1":
        return Polynomial(((g1, 1),))
    if shape == "square":
        return Polynomial(((g1, 2),))
    return Polynomial(((g1, 1), (randgen.random_test_function(ctx, rng), 1)))


# -- window and evaluation ---------------------------------------------------------


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_window_is_the_union_of_the_supports(p, seed):
    ctx = PadicContext(p)
    f = some_descriptor(ctx, random.Random(seed))
    assert f.window() == ref_window(f)


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_evaluate_equals_the_per_shape_evaluate(p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    mu = some_measure(ctx, rng)
    f = some_descriptor(ctx, rng)
    window = ClopenSet.of(ctx, [Ball(ctx, 0, ()), *f.window().balls])
    for _ in range(4):
        gamma = sample_config(mu, window, 2, rng)
        assert f.evaluate(gamma) == ref_evaluate(f, gamma)


def test_window_check_only_for_step_functions():
    ctx = PadicContext(3)
    inside, outside = Ball(ctx, 0, ()), Ball(ctx, 0, ((-1, 1),))  # Z_3, 1/3 + Z_3
    gamma = Configuration((), ClopenSet.of(ctx, [inside]))
    g = StepFunction.make(ctx, REAL, [(outside, 1)], 0)
    with pytest.raises(WindowMismatch):
        Polynomial(((g, 1),)).evaluate(gamma)
    event = CountEvent(((ClopenSet.of(ctx, [outside]), EQ, 0),))
    assert event.evaluate(gamma) == ref_evaluate(event, gamma) == 1.0


# -- polynomial moments -------------------------------------------------------------


@pytest.mark.parametrize("shape", ["degree-1", "square", "two-factors"])
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_polynomial_expectation_equals_the_moment_formula(shape, p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    mu = some_measure(ctx, rng)
    f = some_polynomial(ctx, rng, shape)
    assert expect_exact(f, mu) == ref_polynomial_expectation(f, mu)


@pytest.mark.parametrize("shape", ["degree-1", "square", "two-factors"])
def test_polynomial_expectation_refines_once(shape, monkeypatch):
    ctx = PadicContext(3)
    rng = random.Random(4)
    f = some_polynomial(ctx, rng, shape)
    calls = []
    original = poisson.window_cells

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(poisson, "window_cells", counted)
    expect_exact(f, IntensityMeasure.haar(ctx))
    assert len(calls) == 1


# -- a new shape needs only fns and psi ----------------------------------------------


@dataclass(frozen=True)
class CountPlusPairing(CylinderFunction):
    """F(gamma) = N(S) + <f, gamma>: a shape none of the shared code knows."""

    s: ClopenSet
    f: StepFunction

    def fns(self) -> list:
        return [self.s, self.f]

    def psi(self, xs) -> float:
        return xs[0] + xs[1]


@pytest.mark.parametrize("p", PRIMES)
def test_new_shape_reads_only_fns_and_psi(p):
    ctx = PadicContext(p)
    rng = random.Random(p)
    s = randgen.random_clopen(ctx, rng)
    f = randgen.random_test_function(ctx, rng)
    shape = CountPlusPairing(s, f)
    assert shape.window() == s.union(f.deviation_support())
    mu = IntensityMeasure.haar(ctx)
    atoms, ev = product_evaluator(mu, [shape])
    window = ClopenSet.of(ctx, [cell for cell, _, _ in atoms])
    for _ in range(5):
        gamma = sample_config(mu, window, 2, rng)
        count = sum(1 for x in gamma.points if s.contains(x))
        assert shape.evaluate(gamma) == count + float(pair_sum(f, gamma))
        hits = [sum(1 for x in gamma.points if c.contains(x)) for c, _, _ in atoms]
        pairs = [(i, c) for i, c in enumerate(hits) if c]
        assert math.isclose(ev(pairs), shape.evaluate(gamma), rel_tol=1e-12)
