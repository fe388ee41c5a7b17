"""The Poisson atom table in integers: one weight per cell over a common
denominator.

ref_atoms is the exact-Fraction table the integer one replaces: a rate
density·measure per cell of positive density, and their sum, refused past
MAX_POINTS. Every weight over its denominator must equal the reference
rate, and every float that the samplers build from the table must equal
the float of the reference rate.
"""

import math
from fractions import Fraction

import pytest

from padic_affine.errors import PadicAffineError
from padic_affine.grammar import parse_affine
from padic_affine.measure import IntensityMeasure, pushforward
from padic_affine.padic import Ball, ClopenSet, Padic, PadicContext
from padic_affine.poisson import (
    MAX_POINTS,
    SPLIT_RATE,
    PoissonVariate,
    PreparedDraw,
    _atoms,
    laplace_exponent,
    laplace_sum,
    mc_atoms,
    refine_window,
    window_cells,
)
from padic_affine.representation import check_rn_identity
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]
G = "aff(a = {B(0;-1): 2/5 | tail 1}, b = {B(1;-1): 1/2 | tail 0})"


def ref_atoms(cells: list) -> tuple:
    """(atoms, total): (cell, exact rate, other values) per cell of
    positive density, at rate density·measure, and the exact total."""
    atoms = [
        (cell, values[-1] * cell.measure, values[:-1])
        for cell, values in cells
        if values[-1] > 0
    ]
    total = sum((rate for _, rate, _ in atoms), Fraction(0))
    if total > MAX_POINTS:
        raise PadicAffineError(
            f"the expected point count exceeds the cap of {MAX_POINTS}"
        )
    return atoms, total


def ball(ctx, center: Fraction, radius_exp: int) -> Ball:
    return Ball.from_center(Padic(ctx, center), radius_exp)


def density(ctx) -> StepFunction:
    """Pairwise disjoint parts: a zero value, radii -2 to 3, denominators
    1, 2, 3, 6, 9 and 14, and on B(p^-5; 3) a rate 1000·p^3 above
    SPLIT_RATE."""
    p = ctx.p
    parts = [
        (ball(ctx, Fraction(0), -2), 0),
        (ball(ctx, Fraction(1), -1), Fraction(7, 6)),
        (ball(ctx, Fraction(1, p), -1), Fraction(1, 2)),
        (ball(ctx, Fraction(1, p**2), 1), Fraction(5, 9)),
        (ball(ctx, Fraction(1, p**3), 2), Fraction(3, 14)),
        (ball(ctx, Fraction(1, p**5), 3), 1000),
    ]
    return StepFunction.make(ctx, REAL, parts, 1)


def pairing_function(ctx) -> StepFunction:
    parts = [
        (ball(ctx, Fraction(1), -3), Fraction(1, 2)),
        (ball(ctx, Fraction(1, ctx.p), -2), Fraction(-2, 3)),
    ]
    return StepFunction.make(ctx, REAL, parts, 0)


def setting(p):
    ctx = PadicContext(p)
    mu = IntensityMeasure(density(ctx))
    window = ClopenSet(ctx, (Ball(ctx, 6, ()),))
    return mu, window, pairing_function(ctx)


@pytest.mark.parametrize("p", PRIMES)
def test_the_table_covers_its_cases(p):
    mu, window, _ = setting(p)
    cells = refine_window(window, [mu.density])
    radii = {cell.radius_exp for cell, _ in cells}
    assert min(radii) < 0 < max(radii)
    assert any(values[-1] == 0 for _, values in cells)
    assert len({values[-1].denominator for _, values in cells}) >= 4
    _, total = ref_atoms(cells)
    assert 1000 * p**3 > SPLIT_RATE
    assert PoissonVariate(float(total)).pieces > 1


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("source", ["window", "hull"])
def test_weights_over_den_are_the_exact_rates(p, source):
    mu, window, f = setting(p)
    if source == "window":
        cells = refine_window(window, [mu.density])
    else:
        cells = window_cells(mu, [f])
    atoms, den = _atoms(cells)
    ref, _ = ref_atoms(cells)
    assert [(cell, Fraction(w, den), vs) for cell, w, vs in atoms] == ref
    assert all(isinstance(w, int) for _, w, _ in atoms)
    assert den % p == 0  # a cell of negative radius puts p^s in den


@pytest.mark.parametrize("p", PRIMES)
def test_mc_atoms_floats_are_the_floats_of_the_exact_rates(p):
    mu, _, f = setting(p)
    ref, _ = ref_atoms(window_cells(mu, [f]))
    got = mc_atoms(mu, [f])
    assert [(cell, vs) for cell, _, vs in got] == [(cell, vs) for cell, _, vs in ref]
    assert [rate for _, rate, _ in got] == [float(rate) for _, rate, _ in ref]


@pytest.mark.parametrize("p", PRIMES)
def test_prepared_variate_is_the_variate_of_the_exact_total(p):
    mu, window, _ = setting(p)
    ref, total = ref_atoms(refine_window(window, [mu.density]))
    draw = PreparedDraw(mu, window)
    expected = PoissonVariate(float(total))
    assert draw.variate.table == expected.table
    assert draw.variate.pieces == expected.pieces
    assert draw.balls == [cell for cell, _, _ in ref]
    # the running weights are the exact cumulative rates, up to one factor
    scale = Fraction(draw.weights[-1]) / total
    acc = Fraction(0)
    for w, (_, rate, _) in zip(draw.weights, ref):
        acc += rate
        assert w == acc * scale


@pytest.mark.parametrize("p", PRIMES)
def test_laplace_sum_is_the_float_sum_of_the_exact_masses(p):
    mu, _, f = setting(p)
    cells = window_cells(mu, [f])
    ref = math.fsum(
        math.expm1(fv) * float(rv * cell.measure) for cell, (fv, rv) in cells
    )
    assert laplace_sum(cells) == ref


@pytest.mark.parametrize("p", PRIMES)
def test_rn_identity_sums_the_float_of_each_exact_measure(p):
    ctx = PadicContext(p)
    g, f = parse_affine(G, ctx), pairing_function(ctx)
    cells = window_cells(pushforward(IntensityMeasure.haar(ctx), g), [f])
    ref = math.fsum(
        (float(rv) * math.exp(fv) - 1.0) * float(cell.measure)
        for cell, (fv, rv) in cells
    )
    assert check_rn_identity(g, f).lhs == math.exp(ref)


class TestCapAtACommonDenominator:
    """A density v on B(0; -1), zero on its siblings, has the one atom
    B(0; -1) at rate v/p, so den = p: the cap accepts v/p = 10^6 and
    refuses v/p = 10^6 + 1/p, in PreparedDraw and in mc_atoms alike."""

    def measure(self, ctx, v):
        p = ctx.p
        parts = [(Ball(ctx, -1, ()), v)] + [
            (ball(ctx, Fraction(j), -1), 0) for j in range(1, p)
        ]
        return IntensityMeasure(StepFunction.make(ctx, REAL, parts, 1))

    @pytest.mark.parametrize("p", PRIMES)
    def test_exactly_the_cap_is_accepted(self, p):
        ctx = PadicContext(p)
        mu = self.measure(ctx, MAX_POINTS * p)
        window = ClopenSet(ctx, (Ball(ctx, -1, ()),))
        atoms, den = _atoms(refine_window(window, [mu.density]))
        assert den == p
        assert [w for _, w, _ in atoms] == [MAX_POINTS * p]
        assert PreparedDraw(mu, window).variate.table == (
            PoissonVariate(float(MAX_POINTS)).table
        )
        assert [rate for _, rate, _ in mc_atoms(mu, [])] == [float(MAX_POINTS)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_just_past_the_cap_is_refused(self, p):
        ctx = PadicContext(p)
        mu = self.measure(ctx, MAX_POINTS * p + 1)
        window = ClopenSet(ctx, (Ball(ctx, -1, ()),))
        with pytest.raises(PadicAffineError, match="exceeds the cap"):
            ref_atoms(refine_window(window, [mu.density]))
        with pytest.raises(PadicAffineError, match="exceeds the cap"):
            PreparedDraw(mu, window)
        with pytest.raises(PadicAffineError, match="exceeds the cap"):
            mc_atoms(mu, [])


@pytest.mark.parametrize("p", PRIMES)
def test_no_cell_measure_is_built(p, monkeypatch):
    """The atom table and the two Laplace sums read a cell's radius, never
    its Fraction measure."""
    mu, window, f = setting(p)
    g = parse_affine(G, mu.ctx)

    def refuse(self):
        raise AssertionError("Ball.measure built a Fraction")

    monkeypatch.setattr(Ball, "measure", property(refuse))
    assert PreparedDraw(mu, window).variate is not None
    assert mc_atoms(mu, [f])
    assert math.isfinite(laplace_exponent(f, mu))
    assert check_rn_identity(g, f).passed
