"""Exact algebra of locally constant functions with a prescribed tail value.

A StepFunction is finitely many (ball, value) parts plus a tail value on the
complement of their union. It represents both the p-adic-valued coefficient
functions of group elements and real-valued densities / test functions; the
interpretation is a declared kind.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    ContextMismatch,
    KindMismatch,
    OverlappingParts,
)
from .padic import (
    ClopenSet,
    Padic,
    first_overlap,
    merge_siblings,
    union_cells,
)

PADIC = "padic"
REAL = "real"


def _as_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class StepFunction:
    """Locally constant function given by disjoint (ball, value) parts + tail.

    Canonical form: parts carrying the tail value are dropped and complete
    sibling families with a common value are merged, so equal functions have
    equal stored forms.
    """

    __slots__ = ("ctx", "kind", "parts", "tail")

    def __init__(self, ctx, kind, parts, tail):
        self.ctx = ctx
        self.kind = kind
        self.parts = parts
        self.tail = tail

    @classmethod
    def make(cls, ctx: PadicContext, kind: str, parts, tail) -> "StepFunction":
        """Build and canonicalize; raises OverlappingParts on bad input."""
        if kind not in (PADIC, REAL):
            raise KindMismatch(f"unknown kind {kind!r}")
        norm = [(b, _as_fraction(v)) for b, v in parts]
        for b, _ in norm:
            if b.ctx.p != ctx.p:
                raise ContextMismatch("part ball from a different context")
        clash = first_overlap([b for b, _ in norm])
        if clash is not None:
            i, j = clash
            raise OverlappingParts(
                f"balls {norm[i][0]} and {norm[j][0]} overlap"
            )
        return cls._build(ctx, kind, norm, _as_fraction(tail))

    @classmethod
    def _build(cls, ctx, kind, parts, tail) -> "StepFunction":
        """Canonical form of pairwise disjoint parts. An integral tail (0 or
        1 on hot paths) is compared as its int: Fraction.__eq__ takes that
        on its first branch, before its numbers.Rational check."""
        t = tail.numerator if tail.denominator == 1 else tail
        live = [part for part in parts if part[1] != t]
        return cls(ctx, kind, merge_siblings(ctx, live), tail)

    @classmethod
    def constant(cls, ctx, kind, value) -> "StepFunction":
        return cls(ctx, kind, (), _as_fraction(value))

    @classmethod
    def indicator(cls, s: ClopenSet) -> "StepFunction":
        return cls._build(s.ctx, REAL, [(b, Fraction(1)) for b in s.balls], Fraction(0))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.ctx.p == other.ctx.p
            and self.kind == other.kind
            and self.tail == other.tail
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.ctx.p, self.kind, self.parts, self.tail))

    def __repr__(self):
        body = ", ".join(f"{b!r}: {v}" for b, v in self.parts)
        return f"StepFunction({{{body} | tail {self.tail}}}, kind={self.kind})"

    # -- geometry -----------------------------------------------------------

    def enclosing_exp(self) -> int:
        """Exponent R >= 0 of the smallest zero-centered ball B(0; R)
        containing all parts."""
        return max([0, *(b.enclosing_zero_exp() for b, _ in self.parts)])

    def deviation_support(self) -> ClopenSet:
        """Exact clopen set where the function differs from its tail: the
        parts' balls, already disjoint, with complete sibling families merged."""
        return ClopenSet.of_cells(self.ctx, [(b, None) for b, _ in self.parts])

    # -- evaluation and algebra --------------------------------------------

    def evaluate(self, x: Padic) -> Fraction:
        if x.ctx.p != self.ctx.p:
            raise ContextMismatch("point from a different context")
        for b, v in self.parts:
            if b.contains(x):
                return v
        return self.tail

    def __call__(self, x: Padic) -> Fraction:
        return self.evaluate(x)

    def map_values(self, fn) -> "StepFunction":
        """Apply an exact transform to every value including the tail."""
        return StepFunction._build(
            self.ctx,
            self.kind,
            [(b, _as_fraction(fn(v))) for b, v in self.parts],
            _as_fraction(fn(self.tail)),
        )

    def combine(self, other: "StepFunction", op: str) -> "StepFunction":
        """Pointwise add/mul on the common refinement, exact."""
        if self.ctx.p != other.ctx.p:
            raise ContextMismatch("step functions over different primes")
        if self.kind != other.kind:
            raise KindMismatch(f"cannot combine {self.kind} with {other.kind}")
        if op == "add":
            fn = operator.add
        elif op == "mul":
            fn = operator.mul
        else:
            raise ValueError(f"unknown op {op!r}")
        # a constant operand equal to the identity of op changes nothing
        unit = 0 if op == "add" else 1
        if not other.parts and other.tail == unit:
            return self
        if not self.parts and self.tail == unit:
            return other
        cells = union_cells((self, other))
        # on most cells one operand holds its tail, often the identity of op;
        # comparing with it is cheaper than an exact Fraction operation
        return StepFunction._build(
            self.ctx,
            self.kind,
            [
                (cell, v1 if v2 == unit else v2 if v1 == unit else fn(v1, v2))
                for cell, (v1, v2) in cells
            ],
            fn(self.tail, other.tail),
        )

    def __add__(self, other):
        return self.combine(other, "add")

    def __mul__(self, other):
        return self.combine(other, "mul")

    def __neg__(self):
        return self.map_values(lambda v: -v)

    def __sub__(self, other):
        return self.combine(-other, "add")

    # -- integration --------------------------------------------------------

    def integrate(self, s: ClopenSet) -> Fraction:
        """Exact Haar integral over the bounded clopen set S."""
        if self.kind != REAL:
            raise KindMismatch("integrate requires a real-valued function")
        cells = refine_window(s, [self])
        return sum((v * cell.measure for cell, (v,) in cells), Fraction(0))

    def integrate_transform(self, s: ClopenSet, transform: str):
        """Exact integral of t(F) over S for a named transform t: one_minus
        (v -> 1-v)."""
        if self.kind != REAL:
            raise KindMismatch("integrate requires a real-valued function")
        if transform != "one_minus":
            raise ValueError(f"unknown transform {transform!r}")
        cells = refine_window(s, [self])
        return sum(((1 - v) * cell.measure for cell, (v,) in cells), Fraction(0))


def refine_window(window: ClopenSet, fns: list) -> list:
    """Partition the window into balls on which every listed step function
    or clopen set is constant, as (cell, tuple of per-function values);
    cells come window ball by window ball, each depth first, children in
    digit order.

    One union walk over fns and, in slot 0, the window's balls valued by
    their position; cells outside the window are dropped. A part may hold
    several window balls, which the walk meets in digit order, so a stable
    sort on the position puts the cells back into window order."""
    positions = tuple((w, i) for i, w in enumerate(window.balls))
    cells = union_cells([StepFunction(window.ctx, REAL, positions, -1), *fns])
    kept = sorted((c for c in cells if c[1][0] >= 0), key=lambda c: c[1][0])
    return [(cell, values[1:]) for cell, values in kept]
