"""Haar measure, intensity measures with step densities, and pushforwards.

The pushforward of an intensity rho·m under a group element g has again a
step density: each piece (B_k, a_k, b_k) contributes |a_k|_p · rho(a_k y - b_k)
on the image ball C_k = (B_k + b_k)/a_k, and overlapping contributions sum.
With rho = 1 this is the exact density rho_g of g* m.
"""

from __future__ import annotations

from fractions import Fraction

from .affine import AffineElement
from .errors import PadicAffineError
from .padic import Ball, BallIndex, ClopenSet, PadicContext, carve, fraction_abs_p
from .stepfn import REAL, StepFunction


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
    index = BallIndex(rho.parts)
    # outside the moved hull rho is 1 already; inside it the contributions
    # of all pieces are summed in one pass
    entries = [(Ball(ctx, r, ()), Fraction(-1))]
    for cell, a_k, b_k in g.pieces(r):
        c_k = cell.image(a_k, b_k)
        scale = fraction_abs_p(a_k, ctx.p)
        # pull rho back through y -> a_k y - b_k, restricted to C_k: the
        # map x -> (x + b_k)/a_k takes cell onto C_k and each part of rho
        # onto its image, keeping every ball relation
        hit = index.covering(cell)
        if hit is not None:
            entries.append((c_k, scale * hit[1]))
            continue
        inner = [(d_j.image(a_k, b_k), r_j) for d_j, r_j in index.inside(cell)]
        entries.extend((d, scale * r_j) for d, r_j in inner)
        rest = carve(c_k, [d for d, _ in inner])
        entries.extend((b, scale * rho.tail) for b in rest)
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
