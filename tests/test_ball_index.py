"""The digit-key ball index and the set algebra built on it.

BallIndex lookups are checked against a brute-force Ball.relation scan, and
every layer that uses the index is checked against a pairwise reference
implementation kept in this file: each compares every part with every other
part, as the set algebra did before the index existed.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import randgen
from padic_affine.affine import AffineElement, composition_defect
from padic_affine.measure import IntensityMeasure, pushforward
from padic_affine.padic import (
    DISJOINT,
    EQUAL,
    FIRST_INSIDE_SECOND,
    SECOND_INSIDE_FIRST,
    Ball,
    BallIndex,
    ClopenSet,
    PadicContext,
    fraction_abs_p,
)
from padic_affine.poisson import refine_window
from padic_affine.representation import check_laplace
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]


# -- inputs -------------------------------------------------------------------


def disjoint_balls(ctx, rng, count, root_exp=1, splits=8):
    """randgen balls, sometimes moved off zero so keys have negative
    positions as well."""
    balls = randgen.random_disjoint_balls(ctx, rng, count, root_exp, splits)
    if rng.random() < 0.3:
        h = Fraction(rng.randint(1, ctx.p - 1), ctx.p ** rng.randint(1, 4))
        balls = [b.image(1, h) for b in balls]
    return balls


def wide_element(ctx, rng, n):
    balls = randgen.random_disjoint_balls(ctx, rng, n, splits=n // 2)
    a_parts = [
        (b, randgen.random_unit(ctx, rng, 6) * Fraction(ctx.p) ** rng.randint(-1, 1))
        for b in balls
    ]
    b_parts = [(b, randgen.random_rational(rng, 6)) for b in balls]
    return AffineElement.from_parts(ctx, a_parts, b_parts)


def split_element(ctx, rng, n):
    """a and b on different balls, so some pieces move by a alone, some by b
    alone, and some by both where a ball of b lies inside one of a."""
    balls = randgen.random_disjoint_balls(ctx, rng, n, splits=n // 2)
    cut = rng.randint(0, len(balls))
    a_balls, b_balls = balls[:cut], balls[cut:]
    b_balls += [rng.choice(b.children()) for b in a_balls[: len(a_balls) // 2]]
    a_parts = [
        (b, randgen.random_unit(ctx, rng, 6) * Fraction(ctx.p) ** rng.randint(-1, 1))
        for b in a_balls
    ]
    b_parts = [(b, randgen.random_rational(rng, 6)) for b in b_balls]
    return AffineElement.from_parts(ctx, a_parts, b_parts)


# elements by family; a measure-preserving one maps each piece onto itself
ELEMENTS = {
    "wide": wide_element,
    "split": split_element,
    "preserving": lambda ctx, rng, n: randgen.random_measure_preserving(ctx, rng),
}


def wide_function(ctx, rng, n, tail=0, lo=-4, root_exp=1):
    parts = [
        (b, Fraction(rng.randint(lo, 4), rng.randint(1, 3)))
        for b in disjoint_balls(ctx, rng, n, root_exp, splits=n // 2)
    ]
    return StepFunction.make(ctx, REAL, parts, tail)


def sub_balls(rng, ball, count, splits=4):
    """Up to count disjoint balls inside `ball`, in random order."""
    leaves = [ball]
    for _ in range(splits):
        leaves.extend(leaves.pop(rng.randrange(len(leaves))).children())
    rng.shuffle(leaves)
    return leaves[:count]


def random_ball(ctx, rng, rmin, rmax):
    """A ball of radius exponent rmin..rmax around a random rational."""
    return Ball.from_center(randgen.random_point(ctx, rng), rng.randint(rmin, rmax))


def query_balls(ctx, rng, balls):
    """Ancestors and descendants of indexed balls, random balls, balls
    larger than every indexed ball and balls of negative radius_exp."""
    out = [Ball(ctx, 40, ()), Ball(ctx, -3, ())]
    for b in balls[:6]:
        out += [b, b.parent(), b.parent().parent(), b.children()[-1]]
    out += [random_ball(ctx, rng, -4, 3) for _ in range(10)]
    out.append(Ball.from_center(ctx.rational(1, ctx.p**6), 2))
    return out


# -- brute-force and pairwise references ---------------------------------------


def scan_covering(entries, ball):
    hits = [
        e for e in entries if ball.relation(e[0]) in (EQUAL, FIRST_INSIDE_SECOND)
    ]
    return min(hits, key=lambda e: e[0].radius_exp, default=None)


def scan_inside(entries, ball):
    return [e for e in entries if ball.relation(e[0]) == SECOND_INSIDE_FIRST]


def by_ball(entries):
    return sorted(entries, key=lambda e: e[0].sort_key())


def ref_ball_subtract(a, b):
    rel = a.relation(b)
    if rel == DISJOINT:
        return [a]
    if rel in (EQUAL, FIRST_INSIDE_SECOND):
        return []
    out = []
    for child in a.children():
        out.extend(ref_ball_subtract(child, b))
    return out


def ref_canonical(ctx, balls):
    unique = list({b: None for b in balls})
    keep = [
        b for b in unique
        if not any(b.relation(o) == FIRST_INSIDE_SECOND for o in unique)
    ]
    changed = True
    while changed:
        changed = False
        groups = {}
        for b in keep:
            groups.setdefault(b.parent(), []).append(b)
        keep = []
        for parent, members in groups.items():
            if len(members) == ctx.p:
                keep.append(parent)
                changed = True
            else:
                keep.extend(members)
    return tuple(sorted(keep, key=Ball.sort_key))


def ref_subtract(ball, holes):
    pieces = [ball]
    for h in holes:
        pieces = [r for a in pieces for r in ref_ball_subtract(a, h)]
    return pieces


def ref_combine(f, g, fn):
    parts = []
    for b1, v1 in f.parts:
        inner = []
        covered = False
        for b2, v2 in g.parts:
            rel = b1.relation(b2)
            if rel in (EQUAL, FIRST_INSIDE_SECOND):
                parts.append((b1, fn(v1, v2)))
                covered = True
            elif rel == SECOND_INSIDE_FIRST:
                parts.append((b2, fn(v1, v2)))
                inner.append(b2)
        if not covered:
            parts.extend((b, fn(v1, g.tail)) for b in ref_subtract(b1, inner))
    for b2, v2 in g.parts:
        inner = [b1 for b1, _ in f.parts if b2.relation(b1) != DISJOINT]
        if not any(b2.relation(b1) in (EQUAL, FIRST_INSIDE_SECOND) for b1 in inner):
            parts.extend((b, fn(f.tail, v2)) for b in ref_subtract(b2, inner))
    return StepFunction._build(f.ctx, f.kind, parts, fn(f.tail, g.tail))


def ref_padded(f, r):
    hull = Ball(f.ctx, r, ())
    pad = ref_subtract(hull, [b for b, _ in f.parts])
    return list(f.parts) + [(b, f.tail) for b in pad]


def ref_pieces(g, r):
    cells = []
    for b1, v1 in ref_padded(g.a, r):
        for b2, v2 in ref_padded(g.b, r):
            rel = b1.relation(b2)
            if rel in (EQUAL, FIRST_INSIDE_SECOND):
                cells.append((b1, v1, v2))
            elif rel == SECOND_INSIDE_FIRST:
                cells.append((b2, v1, v2))
    return sorted(cells, key=lambda c: c[0].sort_key())


def ref_act_function(g, f):
    r = g.enclosing_exp()
    hull = Ball(g.ctx, r, ())
    parts = []
    for cell, a_k, b_k in ref_pieces(g, r):
        for c_j, v_j in f.parts:
            pre = c_j.image(1 / a_k, -b_k / a_k)
            rel = cell.relation(pre)
            if rel in (EQUAL, SECOND_INSIDE_FIRST):
                parts.append((pre, v_j))
            elif rel == FIRST_INSIDE_SECOND:
                parts.append((cell, v_j))
    for c_j, v_j in f.parts:
        parts.extend((b, v_j) for b in ref_subtract(c_j, [hull]))
    return StepFunction._build(g.ctx, f.kind, parts, f.tail)


def ref_pushforward(mu, g):
    ctx = mu.ctx
    rho = mu.density
    r = max(g.enclosing_exp(), rho.enclosing_exp())
    total = StepFunction._build(
        ctx, REAL, [(Ball(ctx, r, ()), Fraction(0))], Fraction(1)
    )
    for cell, a_k, b_k in ref_pieces(g, r):
        c_k = cell.image(a_k, b_k)
        scale = fraction_abs_p(a_k, ctx.p)
        parts = []
        covered = []
        for d_j, r_j in rho.parts:
            pre = d_j.image(a_k, b_k)
            rel = c_k.relation(pre)
            if rel in (EQUAL, FIRST_INSIDE_SECOND):
                parts.append((c_k, scale * r_j))
                covered.append(c_k)
            elif rel == SECOND_INSIDE_FIRST:
                parts.append((pre, scale * r_j))
                covered.append(pre)
        parts.extend((b, scale * rho.tail) for b in ref_subtract(c_k, covered))
        contribution = StepFunction._build(ctx, REAL, parts, Fraction(0))
        total = ref_combine(total, contribution, lambda u, v: u + v)
    return total


def ref_split(ball, cuts):
    inner = [c for c in cuts if ball.relation(c) == SECOND_INSIDE_FIRST]
    if not inner:
        return [ball]
    out = []
    for child in ball.children():
        out.extend(ref_split(child, [c for c in inner if child.relation(c) != DISJOINT]))
    return out


def ref_refine_window(window, fns):
    cuts = []
    for fn in fns:
        if isinstance(fn, StepFunction):
            cuts.extend(b for b, _ in fn.parts)
        else:
            cuts.extend(fn.balls)
    cells = []
    for w in window.balls:
        for cell in ref_split(w, cuts):
            values = tuple(
                fn.evaluate(cell.center) if isinstance(fn, StepFunction)
                else fn.contains(cell.center)
                for fn in fns
            )
            cells.append((cell, values))
    return cells


# -- the index against a relation scan -------------------------------------------


class TestBallIndex:
    @given(
        p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6),
        count=st.integers(1, 24), root_exp=st.integers(-4, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_lookups_match_relation_scan(self, p, seed, count, root_exp):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        balls = disjoint_balls(ctx, rng, count, root_exp, splits=count)
        entries = [(b, i) for i, b in enumerate(balls)]
        index = BallIndex(entries)
        for q in query_balls(ctx, rng, balls):
            assert index.covering(q) == scan_covering(entries, q)
            assert by_ball(index.inside(q)) == by_ball(scan_inside(entries, q))

    def test_query_larger_than_every_entry(self):
        ctx = PadicContext(3)
        balls = randgen.random_disjoint_balls(ctx, random.Random(5), 20, 1, 12)
        far = Ball.from_center(ctx.rational(1, 3**9), -2)
        entries = [(b, None) for b in balls + [far]]
        index = BallIndex(entries)
        assert by_ball(index.inside(Ball(ctx, 12, ()))) == by_ball(entries)
        assert index.covering(Ball(ctx, 12, ())) is None
        assert not index.inside(Ball.from_center(ctx.rational(1, 3**20), 12))

    def test_negative_radius(self):
        ctx = PadicContext(2)
        balls = randgen.random_disjoint_balls(ctx, random.Random(2), 12, -5, 8)
        index = BallIndex([(b, None) for b in balls])
        for b in balls:
            assert index.covering(b) == (b, None)
            assert index.covering(b.children()[1]) == (b, None)
            assert not index.inside(b)
        assert len(index.inside(Ball(ctx, -5, ()))) == len(balls)

    def test_empty_index(self):
        ctx = PadicContext(5)
        index = BallIndex([])
        for q in (Ball(ctx, 3, ()), Ball(ctx, -2, ((-4, 1),))):
            assert index.covering(q) is None
            assert not index.inside(q)
            assert not index.around(q)


# -- each layer against its pairwise reference -----------------------------------


cases = dict(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6), n=st.integers(1, 32))


class TestAgainstPairwise:
    @given(**cases)
    @settings(max_examples=30, deadline=None)
    def test_clopen_of(self, p, seed, n):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        balls = disjoint_balls(ctx, rng, n, splits=n) + disjoint_balls(ctx, rng, n, splits=n)
        balls += [b.parent() for b in balls[: n // 4]]
        assert ClopenSet.of(ctx, balls).balls == ref_canonical(ctx, balls)

    @given(**cases)
    @settings(max_examples=30, deadline=None)
    def test_combine(self, p, seed, n):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        f = wide_function(ctx, rng, n, tail=rng.randint(-1, 1))
        g = wide_function(ctx, rng, rng.randint(1, n), tail=rng.randint(-1, 1))
        assert f + g == ref_combine(f, g, lambda u, v: u + v)
        assert f * g == ref_combine(f, g, lambda u, v: u * v)

    @given(**cases, kind=st.sampled_from(sorted(ELEMENTS)))
    @settings(max_examples=25, deadline=None)
    def test_act_function(self, p, seed, n, kind):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = ELEMENTS[kind](ctx, rng, n)
        # parts of f may also contain the hull of g or lie outside it
        f = wide_function(ctx, rng, rng.randint(1, n), root_exp=rng.randint(-1, 4))
        assert g.pieces() == ref_pieces(g, g.enclosing_exp())
        assert g.act_function(f) == ref_act_function(g, f)

    @given(**cases, kind=st.sampled_from(sorted(ELEMENTS)))
    @settings(max_examples=25, deadline=None)
    def test_pushforward(self, p, seed, n, kind):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        g = ELEMENTS[kind](ctx, rng, n)
        mu = IntensityMeasure(wide_function(ctx, rng, rng.randint(1, n), 1, 0))
        assert pushforward(mu, g).density == ref_pushforward(mu, g)
        # a density with parts that may contain g's hull or lie outside it
        wide = wide_function(ctx, rng, rng.randint(1, n), 1, 0, rng.randint(2, 4))
        mu = IntensityMeasure(wide)
        assert pushforward(mu, g).density == ref_pushforward(mu, g)
        # the second pushforward of check_isometry starts from g^{-1}*m
        back = pushforward(IntensityMeasure.haar(ctx), g.inverse())
        assert pushforward(back, g).density == ref_pushforward(back, g)

    @given(**cases)
    @settings(max_examples=30, deadline=None)
    def test_refine_window(self, p, seed, n):
        ctx = PadicContext(p)
        rng = random.Random(seed)
        fns = [
            wide_function(ctx, rng, n),
            wide_function(ctx, rng, rng.randint(1, n), tail=1, lo=0),
            ClopenSet.of(ctx, disjoint_balls(ctx, rng, rng.randint(1, n))),
        ]
        window = ClopenSet.of(
            ctx, [Ball(ctx, 2, ()), Ball.from_center(ctx.rational(1, p**3), 0)]
        )
        assert refine_window(window, fns) == ref_refine_window(window, fns)
        # window balls inside parts, listed by (radius, key) while the walk
        # meets the ones inside one part in digit order
        inner = [
            b for part, _ in fns[1].parts[:3] for b in sub_balls(rng, part, 4)
        ]
        window = ClopenSet.of(ctx, inner + disjoint_balls(ctx, rng, 2, root_exp=-3))
        assert refine_window(window, fns) == ref_refine_window(window, fns)

    def test_refine_window_keeps_window_order(self):
        # the part B(0;0) holds both window balls: the walk meets B(0;-1)
        # (digit 0) before B(1;-2) (digit 1), the window lists B(1;-2) first
        ctx = PadicContext(3)
        rho = StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 2)], 1)
        window = ClopenSet.of(
            ctx, [Ball.from_center(ctx.rational(1), -2), Ball(ctx, -1, ())]
        )
        cells = refine_window(window, [rho])
        assert [cell for cell, _ in cells] == list(window.balls)
        assert cells == ref_refine_window(window, [rho])


# -- work-count regression guard --------------------------------------------------

# Calls made by check_laplace + composition_defect on the input below, as
# measured with the pairwise set algebra that preceded the index.
SEED_RELATION_CALLS = 1_076_404
SEED_IMAGE_CALLS = 79_482


def test_work_counts_stay_low(monkeypatch):
    """A pairwise loop over parts that comes back shows up as 10x the calls."""
    ctx = PadicContext(3)
    rng = random.Random(128)

    def balls():
        return randgen.random_disjoint_balls(ctx, rng, 128, splits=64)

    def element():
        parts = balls()
        a_parts = [
            (b, randgen.random_unit(ctx, rng, span=6) * Fraction(3) ** rng.randint(-1, 1))
            for b in parts
        ]
        b_parts = [(b, randgen.random_rational(rng, span=6)) for b in parts]
        return AffineElement.from_parts(ctx, a_parts, b_parts)

    g1, g2 = element(), element()
    f = StepFunction.make(
        ctx, REAL,
        [(b, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for b in balls()],
        0,
    )
    counts = {"relation": 0, "image": 0}
    for name in counts:
        original = getattr(Ball, name)

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Ball, name, counted)
    report = check_laplace(g1, f)
    region = composition_defect(g1, g2, f)
    assert report.passed and math.isfinite(report.lhs)
    assert len(region.balls) == 171
    assert counts["relation"] <= SEED_RELATION_CALLS // 10
    assert counts["image"] <= SEED_IMAGE_CALLS // 10
