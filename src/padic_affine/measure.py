"""Haar measure, intensity measures with step densities, and pushforwards.

The pushforward of an intensity rho·m under a group element g has again a
step density: on each cell B_k of the joint refinement of a, b and rho, where
they take the values a_k, b_k and r_k, the cell contributes |a_k|_p · r_k on
its image ball C_k = (B_k + b_k)/a_k, and overlapping contributions sum.
With rho = 1 this is the exact density rho_g of g* m.
"""

from __future__ import annotations

from fractions import Fraction

from .affine import AffineElement
from .errors import PadicAffineError
from .padic import Ball, ClopenSet, PadicContext, fraction_abs_p
from .stepfn import REAL, StepFunction, refine_window


class IntensityMeasure:
    """A measure rho·m with a nonnegative step density agreeing with Haar
    (density 1) at infinity.

    `prepared` memoizes the last Poisson draw prepared on this measure
    (a poisson.PreparedDraw, keyed by its window); the density never
    changes, so the entry is stale only for another window.
    """

    __slots__ = ("density", "prepared")

    def __init__(self, density: StepFunction):
        if density.kind != REAL:
            raise PadicAffineError("density must be real-kind")
        if density.tail != 1:
            raise PadicAffineError("density tail must be 1")
        if any(v < 0 for _, v in density.parts):
            raise PadicAffineError("density values must be nonnegative")
        self.density = density
        self.prepared = None

    @classmethod
    def haar(cls, ctx: PadicContext) -> "IntensityMeasure":
        return cls(StepFunction.constant(ctx, REAL, 1))

    @property
    def ctx(self):
        return self.density.ctx

    def __eq__(self, other):
        return isinstance(other, IntensityMeasure) and self.density == other.density

    def __hash__(self):
        return hash(self.density)

    def __repr__(self):
        return f"IntensityMeasure({self.density!r})"

    def mass(self, s: ClopenSet) -> Fraction:
        return self.density.integrate(s)

    def l1_deviation(self) -> Fraction:
        """Exact integral of |rho - 1| dm; finite for every step density."""
        support = self.density.deviation_support()
        return self.density.integrate_transform(support, "abs_dev")

    def l1_distance(self, other: "IntensityMeasure") -> Fraction:
        diff = self.density - other.density  # tail 0: both tails are 1
        return diff.l1_norm()


def pushforward(mu: IntensityMeasure, g: AffineElement) -> IntensityMeasure:
    """Exact step density of g*(rho·m); overlaps are summed on a common
    refinement, so total mass over the moved region is conserved."""
    ctx = mu.ctx
    rho = mu.density
    r = max(g.enclosing_exp(), rho.enclosing_exp())
    hull = Ball(ctx, r, ())
    cells = refine_window(ClopenSet(ctx, (hull,)), [g.a, g.b, rho])
    # outside the moved hull rho is 1 already; inside it the contributions
    # of all cells are summed in one pass. y in cell.image(a, b) pulls back
    # to a·y - b in the cell, where a, b and rho are constant
    entries = [(hull, Fraction(-1))]
    entries.extend(
        (cell.image(a, b), fraction_abs_p(a, ctx.p) * v)
        for cell, (a, b, v) in cells
    )
    total = StepFunction.overlay(ctx, REAL, entries, Fraction(1))
    assert all(v >= 0 for _, v in total.parts)
    return IntensityMeasure(total)


def roundtrip_defect(g: AffineElement) -> Fraction:
    """Exact L1 distance between Haar and the two-step pushforward through
    g^{-1} then g; zero certifies the isometry step for this element."""
    haar = IntensityMeasure.haar(g.ctx)
    back = pushforward(haar, g.inverse())
    forth = pushforward(back, g)
    return forth.l1_distance(haar)
