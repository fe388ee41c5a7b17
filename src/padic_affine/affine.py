"""The infinite-dimensional p-adic affine group and its three actions.

An element is a pair g = (a, b) of locally constant coefficient functions,
a nonvanishing with tail 1 and b with tail 0, acting at a point x through
the section (a(x), b(x)) by x -> (x + b(x)) / a(x).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatch, KindMismatch, PadicAffineError
from .padic import BallIndex, ClopenSet, Padic, PadicContext
from .stepfn import PADIC, StepFunction, union_cells


@dataclass(frozen=True)
class SectionPair:
    """A constant affine pair (a(x), b(x)) obtained by evaluating g at x."""

    a_val: Padic
    b_val: Padic

    def __post_init__(self):
        if self.a_val.frac == 0:
            raise PadicAffineError("section a-value must be nonzero")
        if self.a_val.ctx.p != self.b_val.ctx.p:
            raise ContextMismatch("section pair mixes contexts")

    def act(self, x: Padic) -> Padic:
        return (x + self.b_val) / self.a_val


def pair_product(left: SectionPair, right: SectionPair) -> SectionPair:
    """Product of constant pairs; the LEFT factor acts first on points."""
    a = right.a_val * left.a_val
    b = left.b_val + left.a_val * right.b_val
    return SectionPair(a, b)


class AffineElement:
    """A group element g = (a, b); equal to (1, 0) outside a bounded ball."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, a: StepFunction, b: StepFunction):
        if a.ctx.p != b.ctx.p:
            raise ContextMismatch("a and b over different primes")
        if a.kind != PADIC or b.kind != PADIC:
            raise KindMismatch("coefficient functions must be p-adic kind")
        if a.tail != 1:
            raise PadicAffineError("a must have tail 1")
        if b.tail != 0:
            raise PadicAffineError("b must have tail 0")
        if any(v == 0 for _, v in a.parts):
            raise PadicAffineError("a must be nonvanishing")
        self.ctx = a.ctx
        self.a = a
        self.b = b

    @classmethod
    def identity(cls, ctx: PadicContext) -> "AffineElement":
        return cls(
            StepFunction.constant(ctx, PADIC, 1),
            StepFunction.constant(ctx, PADIC, 0),
        )

    @classmethod
    def from_parts(cls, ctx, a_parts, b_parts) -> "AffineElement":
        return cls(
            StepFunction.make(ctx, PADIC, a_parts, 1),
            StepFunction.make(ctx, PADIC, b_parts, 0),
        )

    def __eq__(self, other):
        return (
            isinstance(other, AffineElement)
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"AffineElement(a={self.a!r}, b={self.b!r})"

    def is_identity(self) -> bool:
        return not self.a.parts and not self.b.parts

    def enclosing_exp(self) -> int:
        return max(self.a.enclosing_exp(), self.b.enclosing_exp())

    def pieces(self, f: StepFunction) -> list:
        """One union walk over the parts of a, of b and of f, as (cell,
        (a_k, b_k, v)) pairs: a cell where (a_k, b_k) = (1, 0) lies off g's
        parts and v is f's value there. A part of f inside a part of a or b
        is left out, so f splits no cell on which g is one map."""
        inside = BallIndex([*self.a.parts, *self.b.parts])
        kept = [part for part in f.parts if inside.covering(part[0]) is None]
        rest = StepFunction(f.ctx, f.kind, kept, f.tail)
        return union_cells((self.a, self.b, rest))

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        return multiply(self, other)

    def inverse(self) -> "AffineElement":
        """(1/a, -b/a), read on the cells of one union walk over a and b."""
        return _pointwise(self.ctx, (self.a, self.b), _inverse_law)

    # -- actions ------------------------------------------------------------

    def section(self, x: Padic) -> SectionPair:
        return SectionPair(
            Padic(self.ctx, self.a.evaluate(x)),
            Padic(self.ctx, self.b.evaluate(x)),
        )

    def act_point(self, x: Padic) -> Padic:
        return self.section(x).act(x)

    def act_function(self, f: StepFunction) -> StepFunction:
        """The one-particle motion (gf)(x) = f(g(x) x), exact and piecewise."""
        if f.ctx.p != self.ctx.p:
            raise ContextMismatch("function from a different context")
        index = BallIndex(f.parts)
        parts = []
        uncovered = {}  # (radius, key) slot -> (img, inverse maps onto it)
        for cell, (a_k, b_k, v) in self.pieces(f):
            if a_k == 1 and b_k == 0:  # off g's parts: g fixes the cell
                parts.append((cell, v))
                continue
            # x -> (x + b_k)/a_k maps cell onto img and keeps every ball
            # relation, so {x in cell : (x + b_k)/a_k in C_j} is all of cell
            # when C_j contains img, else a_k C_j - b_k for C_j inside img
            img = cell.image(a_k, b_k)
            hit = index.covering(img)
            if hit is not None:
                parts.append((cell, hit[1]))
                continue
            inv = (1 / a_k, -b_k / a_k)
            uncovered.setdefault((img.radius_exp, img.key), (img, []))[1].append(inv)
        # an image equal to a C_j is covered: those around C_j strictly contain it
        images = BallIndex(uncovered.values())
        for c_j, v_j in f.parts:
            for _, invs in images.around(c_j):
                parts += [(c_j.image(*inv), v_j) for inv in invs]
        return StepFunction._build(self.ctx, f.kind, parts, f.tail)

    def preimage_clopen(self, s: ClopenSet) -> ClopenSet:
        """Exact {x : g(x) x ∈ S}."""
        ind = StepFunction.indicator(s)
        return self.act_function(ind).deviation_support()


def multiply(left: AffineElement, right: AffineElement) -> AffineElement:
    """Group product; with left = (a2, b2) and right = (a1, b1) this is
    (a1 a2, b2 + a2 b1), so the left factor acts first on points. The law
    is applied once per cell of one union walk over all four coefficients."""
    if left.ctx.p != right.ctx.p:
        raise ContextMismatch("elements over different primes")
    return _pointwise(left.ctx, (left.a, left.b, right.a, right.b), _product_law)


def _product_law(a2, b2, a1, b1) -> tuple:
    # an operand of 1 (·) or 0 (+) passes through: cheaper than a Fraction op
    a = a1 if a2 == 1 else a2 if a1 == 1 else a1 * a2
    ab = a2 if b1 == 1 else b1 if a2 == 1 else a2 * b1
    return a, b2 if ab == 0 else ab if b2 == 0 else b2 + ab


def _inverse_law(a, b) -> tuple:
    return (a, -b) if a == 1 else (1 / a, -b / a)


def _pointwise(ctx, fns: tuple, law) -> AffineElement:
    """(a, b) = law(*values) on each cell of one union walk over the parts of
    fns, and law(*tails) off them: the Fraction tails keep values Fractions."""
    cells = [(cell, law(*values)) for cell, values in union_cells(fns)]
    a_tail, b_tail = law(*(fn.tail for fn in fns))
    return AffineElement(
        StepFunction._build(ctx, PADIC, [(c, ab[0]) for c, ab in cells], a_tail),
        StepFunction._build(ctx, PADIC, [(c, ab[1]) for c, ab in cells], b_tail),
    )


def composition_defect(
    g1: AffineElement, g2: AffineElement, f: StepFunction
) -> ClopenSet:
    """Exact region where acting by g1 then g2 on f differs from the action
    of the product element; an empty set certifies the pointwise group
    property for this triple.

    Both sides keep f's tail, so they differ only on cells of the union
    walk over their parts, and those cells make the region."""
    composed = g1.act_function(g2.act_function(f))
    product = multiply(g1, g2).act_function(f)
    differ = [(c, None) for c, (u, v) in union_cells((composed, product)) if u != v]
    return ClopenSet.of_cells(f.ctx, differ)
