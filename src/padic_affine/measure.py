"""Haar measure, intensity measures with step densities, and pushforwards.

The pushforward of an intensity rho·m under a group element g has again a
step density. Off the parts of a, b and rho, g fixes every point and rho is
1, so the density stays 1 there. Each cell B_k of the union of those parts,
where they take the values a_k, b_k and r_k, keeps r_k if g fixes it; else
it keeps 0 and contributes |a_k|_p · r_k on its image ball
C_k = (B_k + b_k)/a_k, and contributions sum. With rho = 1 this is the
exact density rho_g of g* m.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .affine import AffineElement
from .errors import PadicAffineError
from .padic import BallIndex, ClopenSet, PadicContext, fraction_abs_p, split_union
from .stepfn import REAL, StepFunction, union_cells


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
        if any(v.numerator < 0 for _, v in density.parts):
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
        return self._deviation(abs)

    def excess_mass(self) -> Fraction:
        """Exact integral of (rho - 1) dm, 0 for every pushforward of Haar."""
        return self._deviation(operator.pos)

    def _deviation(self, t) -> Fraction:
        """Exact integral of t(rho - 1) dm: rho is 1 off the density's
        parts, and a part B(c; k) -> n/d adds t(n - d)/d · p^k."""
        p, total = self.ctx.p, Fraction(0)
        for b, v in self.density.parts:
            n, d, k = v.numerator, v.denominator, b.radius_exp
            total += Fraction(t(n - d) * p ** max(k, 0), d * p ** max(-k, 0))
        return total


def pushforward(mu: IntensityMeasure, g: AffineElement) -> IntensityMeasure:
    """Exact step density of g*(rho·m), read on the cells of one union
    walk over the parts of a, b and rho; overlapping images are summed, so
    total mass over the moved region is conserved."""
    p = mu.ctx.p
    zero = Fraction(0)
    # slot 0: v on each cell that g fixes, 0 on each it moves. y in the
    # image pulls back to a·y - b in the cell, so the image gains |a|_p·v.
    # An operand of 0 (+) or 1 (·) is passed through, not computed with
    entries, weights = [], {}
    for cell, (a, b, v) in union_cells((g.a, g.b, mu.density)):
        if a == 1 and b == 0:
            entries.append((cell, 0, v))
            continue
        entries.append((cell, 0, zero))
        image = cell.image(a, b)
        w = fraction_abs_p(a, p)
        if v != 1:
            w *= v
        old = weights.get(image)
        weights[image] = w if old is None else old + w
    # slot 1: on each image ball, the weights of every image around it
    index = BallIndex(weights.items())
    for image in weights:
        around = index.around(image)
        total = around[0][1]
        for _, w in around[1:]:
            total += w
        entries.append((image, 1, total))
    cells = split_union(entries, (Fraction(1), zero))
    parts = [
        (cell, moved if not fixed else fixed if not moved else fixed + moved)
        for cell, (fixed, moved) in cells
    ]
    return IntensityMeasure(StepFunction._build(mu.ctx, REAL, parts, Fraction(1)))


def roundtrip_defect(g: AffineElement) -> Fraction:
    """Exact L1 distance between Haar and the two-step pushforward through
    g^{-1} then g, the integral of |rho - 1| dm of its density; zero
    certifies the isometry step for this element."""
    back = pushforward(IntensityMeasure.haar(g.ctx), g.inverse())
    return pushforward(back, g).l1_deviation()
