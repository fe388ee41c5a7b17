"""The one hull every Poisson expectation integrates over, and the work it
saves.

poisson.window_cells is checked against refine_window over the hull of the
deviation supports (the rule the expectations used before it, kept here as
the reference); the count evaluators of product_evaluator are checked
against CylinderFunction.evaluate on sampled configurations.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import measure, poisson, randgen, representation
from padic_affine.measure import IntensityMeasure
from padic_affine.padic import Ball, ClopenSet, PadicContext
from padic_affine.poisson import (
    EQ,
    GE,
    LE,
    CountEvent,
    Exponential,
    Polynomial,
    product_evaluator,
    refine_window,
    sample_config,
    window_cells,
)
from padic_affine.representation import check_isometry, check_rn_identity
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]


# -- the reference hull ------------------------------------------------------------


def ref_hull(ctx, *sets) -> ClopenSet:
    """The smallest B(0; R), R >= 0, holding every nonempty set given; empty
    when all are."""
    r = 0
    empty = True
    for s in sets:
        if s is not None and not s.is_empty:
            r = max(r, s.enclosing_zero_exp())
            empty = False
    if empty:
        return ClopenSet(ctx, ())
    return ClopenSet.of(ctx, [Ball(ctx, r, ())])


def ref_window_cells(mu, fns) -> list:
    supports = [
        fn.deviation_support() if isinstance(fn, StepFunction) else fn for fn in fns
    ]
    hull = ref_hull(mu.ctx, *supports, mu.density.deviation_support())
    return refine_window(hull, [*fns, mu.density])


# -- inputs ---------------------------------------------------------------------


def some_balls(ctx, rng):
    """Disjoint balls under B(0; root), root from -3 to 2, sometimes moved
    off zero, so enclosing exponents are negative as well as positive."""
    balls = randgen.random_disjoint_balls(
        ctx, rng, rng.randint(1, 8), rng.randint(-3, 2), splits=rng.randint(0, 6)
    )
    if rng.random() < 0.3:
        h = rng.randint(1, ctx.p - 1) * Fraction(ctx.p) ** rng.randint(-3, 2)
        balls = [b.image(1, h) for b in balls]
    return balls


def some_function(ctx, rng, tail=0, lo=-4):
    if rng.random() < 0.2:
        return StepFunction.constant(ctx, REAL, tail)
    parts = [(b, Fraction(rng.randint(lo, 4), rng.randint(1, 3))) for b in some_balls(ctx, rng)]
    return StepFunction.make(ctx, REAL, parts, tail)


def some_set(ctx, rng):
    if rng.random() < 0.2:
        return ClopenSet(ctx, ())
    return ClopenSet.of(ctx, some_balls(ctx, rng))


def some_measure(ctx, rng):
    if rng.random() < 0.4:
        return IntensityMeasure.haar(ctx)
    return IntensityMeasure(some_function(ctx, rng, tail=1, lo=0))


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_window_cells_match_hull_of_supports(p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    mu = some_measure(ctx, rng)
    fns = [
        some_function(ctx, rng) if rng.random() < 0.6 else some_set(ctx, rng)
        for _ in range(rng.randint(0, 3))
    ]
    assert window_cells(mu, fns) == ref_window_cells(mu, fns)


@pytest.mark.parametrize("p", PRIMES)
def test_constant_inputs_have_no_cells(p):
    ctx = PadicContext(p)
    haar = IntensityMeasure.haar(ctx)
    fns = [StepFunction.constant(ctx, REAL, 0), ClopenSet(ctx, ())]
    assert window_cells(haar, fns) == [] == ref_window_cells(haar, fns)
    assert window_cells(haar, []) == []


def test_negative_enclosing_exponent_uses_unit_ball():
    ctx = PadicContext(3)
    f = StepFunction.make(ctx, REAL, [(Ball(ctx, -2, ()), 1)], 0)
    cells = window_cells(IntensityMeasure.haar(ctx), [f])
    assert cells == ref_window_cells(IntensityMeasure.haar(ctx), [f])
    assert ClopenSet.of(ctx, [c for c, _ in cells]).balls == (Ball(ctx, 0, ()),)


# -- work: one pushforward round trip, one refinement ---------------------------


def _count_calls(monkeypatch, modules, name, counts):
    """Count calls of `name` through every listed module that binds it."""
    for mod in modules:
        original = getattr(mod, name, None)
        if original is None:
            continue

        def counted(*args, _original=original):
            counts[name] += 1
            return _original(*args)

        monkeypatch.setattr(mod, name, counted)


def test_isometry_pushes_forward_twice(monkeypatch):
    ctx = PadicContext(3)
    rng = random.Random(5)
    g = randgen.random_element(ctx, rng, max_parts=3)
    f = randgen.random_test_function(ctx, rng)
    counts = {"pushforward": 0}
    _count_calls(monkeypatch, [measure, representation], "pushforward", counts)
    check_isometry(g, f)
    assert counts["pushforward"] == 2


def test_isometry_note_follows_roundtrip_defect():
    ctx = PadicContext(2)
    rng = random.Random(11)
    seen = set()
    for _ in range(30):
        g = randgen.random_element(ctx, rng)
        report = check_isometry(g, randgen.random_test_function(ctx, rng))
        restored = measure.roundtrip_defect(g) == 0
        assert (report.note is None) == restored
        seen.add(restored)
    assert seen == {True, False}


def test_rn_identity_refines_once(monkeypatch):
    ctx = PadicContext(3)
    rng = random.Random(7)
    g = randgen.random_element(ctx, rng, max_parts=3)
    f = randgen.random_test_function(ctx, rng)
    counts = {"refine_window": 0}
    # the expectations refine through poisson (and, before the one hull
    # helper, through representation as well); pushforward's own
    # refinement is not an expectation's
    _count_calls(monkeypatch, [poisson, representation], "refine_window", counts)
    check_rn_identity(g, f)
    assert counts["refine_window"] == 1


# -- count evaluators against CylinderFunction.evaluate -------------------------


def some_descriptor(ctx, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Exponential(randgen.random_test_function(ctx, rng, vspan=2))
    if kind == 1:
        f1 = randgen.random_test_function(ctx, rng)
        if rng.random() < 0.5:
            return Polynomial(((f1, rng.randint(1, 2)),))
        return Polynomial(((f1, 1), (randgen.random_test_function(ctx, rng), 2)))
    return CountEvent(
        tuple(
            (randgen.random_clopen(ctx, rng), rng.choice((EQ, LE, GE)), rng.randint(0, 3))
            for _ in range(rng.randint(1, 3))
        )
    )


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_count_evaluators_match_evaluate(p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    mu = IntensityMeasure.haar(ctx)
    if rng.random() < 0.6:
        balls = randgen.random_disjoint_balls(ctx, rng, rng.randint(1, 4))
        mu = IntensityMeasure(
            StepFunction.make(ctx, REAL, [(b, rng.randint(0, 2)) for b in balls], 1)
        )
    f = some_descriptor(ctx, rng)
    atoms, ev = product_evaluator(mu, [f])
    window = ClopenSet.of(ctx, [cell for cell, _, _ in atoms] + list(f.window().balls))
    for _ in range(5):
        gamma = sample_config(mu, window, 2, rng)
        counts = [sum(1 for x in gamma.points if cell.contains(x)) for cell, _, _ in atoms]
        assert sum(counts) == len(gamma)
        pairs = [(i, c) for i, c in enumerate(counts) if c]
        assert math.isclose(ev(pairs), f.evaluate(gamma), rel_tol=1e-12, abs_tol=1e-12)
