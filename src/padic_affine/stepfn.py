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
    PadicAffineError,
    UnboundedIntegral,
)
from .padic import (
    BallIndex,
    ClopenSet,
    Padic,
    first_overlap,
    merge_siblings,
    split_cells,
    split_union,
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
                f"balls {norm[i][0]!r} and {norm[j][0]!r} overlap"
            )
        return cls._build(ctx, kind, norm, _as_fraction(tail))

    @classmethod
    def _build(cls, ctx, kind, parts, tail) -> "StepFunction":
        # internal path: parts already pairwise disjoint
        live = [(b, v) for b, v in parts if v != tail]
        return cls(ctx, kind, merge_siblings(ctx, live), tail)

    @classmethod
    def overlay(cls, ctx, kind, entries, tail) -> "StepFunction":
        """tail + the sum of v·1_B over (B, v) entries that may overlap or
        nest, evaluated once on the refinement of all their balls."""
        totals = {}
        for b, v in entries:
            totals[b] = totals.get(b, 0) + _as_fraction(v)
        index = BallIndex(totals.items())
        # the value on a cell is that of the smallest entry around it: its
        # own total plus the totals of every entry around that one
        cells = split_union(
            [(b, 0, sum((v for _, v in index.around(b)), tail)) for b in totals],
            (tail,),
            index,
        )
        return cls._build(ctx, kind, [(cell, v) for cell, (v,) in cells], tail)

    @classmethod
    def constant(cls, ctx, kind, value) -> "StepFunction":
        return cls(ctx, kind, (), _as_fraction(value))

    @classmethod
    def indicator(cls, s: ClopenSet, value=1, kind=REAL) -> "StepFunction":
        return cls._build(
            s.ctx, kind, [(b, _as_fraction(value)) for b in s.balls], Fraction(0)
        )

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

    def enclosing_exp(self, floor: int = 0) -> int:
        """Exponent R of the smallest zero-centered ball containing all parts."""
        if not self.parts:
            return floor
        return max(max(b.enclosing_zero_exp() for b, _ in self.parts), floor)

    def deviation_support(self) -> ClopenSet:
        """Exact clopen set where the function differs from its tail."""
        return ClopenSet.of(self.ctx, [b for b, _ in self.parts])

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

    def translate(self, h) -> "StepFunction":
        h = _as_fraction(h.frac if isinstance(h, Padic) else h)
        return StepFunction._build(
            self.ctx,
            self.kind,
            [(b.translate(h), v) for b, v in self.parts],
            self.tail,
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
        entries = [(b, 0, v) for b, v in self.parts]
        entries.extend((b, 1, v) for b, v in other.parts)
        cells = split_union(entries, (self.tail, other.tail))
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
        """Exact integral of t(F) over S for a named transform t: abs_dev
        (v -> |v-1|) or one_minus (v -> 1-v)."""
        if self.kind != REAL:
            raise KindMismatch("integrate requires a real-valued function")
        pieces = [(v, cell.measure) for cell, (v,) in refine_window(s, [self])]
        if transform == "abs_dev":
            return sum((abs(v - 1) * m for v, m in pieces), Fraction(0))
        if transform == "one_minus":
            return sum(((1 - v) * m for v, m in pieces), Fraction(0))
        raise ValueError(f"unknown transform {transform!r}")

    def support_integral(self) -> Fraction:
        """Exact integral of the function over all of Q_p; tail must be 0."""
        if self.kind != REAL:
            raise KindMismatch("integrate requires a real-valued function")
        if self.tail != 0:
            raise UnboundedIntegral("full-space integral needs tail 0")
        return sum((v * b.measure for b, v in self.parts), Fraction(0))

    def l1_norm(self) -> Fraction:
        """Exact integral of |F| over Q_p; tail must be 0."""
        if self.kind != REAL:
            raise KindMismatch("integrate requires a real-valued function")
        if self.tail != 0:
            raise ValueError("L1 norm needs tail 0")
        return sum((abs(v) * b.measure for b, v in self.parts), Fraction(0))


def refine_window(window: ClopenSet, fns: list) -> list:
    """Partition the window into balls on which every listed step function
    or clopen set is constant, as (cell, tuple of per-function values);
    cells come depth first, children in digit order.

    One descent per window ball: a function's value on a cell is that of
    its part equal to the cell, else the value carried down from above."""
    indexes = []
    for fn in fns:
        if isinstance(fn, StepFunction):
            indexes.append((BallIndex(fn.parts), fn.tail))
        elif isinstance(fn, ClopenSet):
            indexes.append((BallIndex((b, True) for b in fn.balls), False))
        else:
            raise PadicAffineError(f"cannot refine against {type(fn).__name__}")
    cells = []
    for w in window.balls:
        values = []
        cuts = []
        for slot, (index, default) in enumerate(indexes):
            hit = index.covering(w)
            values.append(default if hit is None else hit[1])
            cuts.extend((b, slot, v) for b, v in index.inside(w))
        cells.extend(split_cells(w, cuts, tuple(values)))
    return cells
