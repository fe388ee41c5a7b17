"""The union walk under the set algebra, and the descriptor checks beside it.

padic.split_union is checked cell by cell against a relation scan over its
entries, against indexed_split_union, the walk that found each ball's root
through a BallIndex, and against ref_split_union, the walk that kept roots
and trees by (radius, key) slot, for the same cells in the same order, cut
cells being the entries' own Ball objects. ClopenSet.intersect/subtract and
StepFunction.integrate, which now run on it or on refine_window, are checked
against the relation-scan references of test_ball_index, with the balls of
one operand nested in, equal to or disjoint from the other's.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_index import (
    disjoint_balls, random_ball, ref_parent, ref_subtract, wide_element,
)

from padic_affine import padic
from padic_affine.errors import PadicAffineError
from padic_affine.measure import IntensityMeasure, pushforward
from padic_affine.padic import (
    EQUAL,
    FIRST_INSIDE_SECOND,
    SECOND_INSIDE_FIRST,
    Ball,
    BallIndex,
    ClopenSet,
    PadicContext,
    first_overlap,
    split_union,
)
from padic_affine.poisson import (
    EQ,
    CountEvent,
    Exponential,
    Polynomial,
    PreparedDraw,
    expect_exact,
)
from padic_affine.representation import check_factorization
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]

cases = dict(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6), n=st.integers(1, 16))


# -- inputs and references ---------------------------------------------------------


def descendant(ball, rng, levels):
    for _ in range(levels):
        ball = rng.choice(ball.children())
    return ball


def related_balls(ctx, rng, balls, n):
    """Balls equal to, inside, around or apart from the given ones."""
    out = []
    for _ in range(n):
        b = rng.choice(balls)
        kind = rng.randrange(4)
        if kind == 0:
            out.append(b)
        elif kind == 1:
            out.append(descendant(b, rng, rng.randint(1, 3)))
        elif kind == 2:
            out.append(ref_parent(b))
        else:
            out.append(random_ball(ctx, rng, -3, 2))
    return out


def set_pair(ctx, rng, n):
    a = disjoint_balls(ctx, rng, n, splits=n)
    b = related_balls(ctx, rng, a, rng.randint(1, n))
    return ClopenSet.of(ctx, a), ClopenSet.of(ctx, b)


def around(cell, ball):
    return cell.relation(ball) in (EQUAL, FIRST_INSIDE_SECOND)


def ref_intersect(s, t):
    out = []
    for a in s.balls:
        for b in t.balls:
            if around(a, b):
                out.append(a)
            elif a.relation(b) == SECOND_INSIDE_FIRST:
                out.append(b)
    return ClopenSet.of(s.ctx, out)


def ref_difference(s, t):
    holes = list(t.balls)
    return ClopenSet.of(s.ctx, [c for a in s.balls for c in ref_subtract(a, holes)])


def ref_integrate(f, s):
    total = Fraction(0)
    holes = [b for b, _ in f.parts]
    for c in s.balls:
        for b, v in f.parts:
            if around(c, b):
                total += v * c.measure
            elif c.relation(b) == SECOND_INSIDE_FIRST:
                total += v * b.measure
        total += f.tail * sum((r.measure for r in ref_subtract(c, holes)), Fraction(0))
    return total


# -- split_union -----------------------------------------------------------------


@given(**cases, slots=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_split_union_cells(p, seed, n, slots):
    """Disjoint cells covering exactly the union, each slot carrying the value
    of its smallest entry around the cell; entries nest within a slot and
    repeat across slots."""
    ctx = PadicContext(p)
    rng = random.Random(seed)
    base = disjoint_balls(ctx, rng, n, splits=n)
    balls = base + related_balls(ctx, rng, base, n)
    entries = {}
    for b in balls:
        entries[(b, rng.randrange(slots))] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    entries = [(b, slot, v) for (b, slot), v in entries.items()]
    defaults = tuple(Fraction(-10 - slot) for slot in range(slots))
    cells = split_union(entries, defaults)
    cell_balls = [cell for cell, _ in cells]
    assert first_overlap(cell_balls) is None
    assert ClopenSet.of(ctx, cell_balls) == ClopenSet.of(ctx, balls)
    for cell, values in cells:
        assert not any(cell.relation(b) == SECOND_INSIDE_FIRST for b, _, _ in entries)
        for slot in range(slots):
            hits = [(b, v) for b, s, v in entries if s == slot and around(cell, b)]
            want = min(hits, key=lambda h: h[0].radius_exp)[1] if hits else defaults[slot]
            assert values[slot] == want


def test_split_union_of_nothing():
    assert split_union([], (0,)) == []


# -- the walk against the indexed walk it replaced -----------------------------------


def indexed_split_union(entries, values):
    """The union walk keyed by Ball: each distinct ball's root is the last
    entry of BallIndex.around, and each root runs one ref_descend."""
    at = {}
    for entry in entries:
        at.setdefault(entry[0], []).append(entry)
    index = BallIndex(at.items())
    trees = {}
    for ball in at:
        trees.setdefault(index.around(ball)[-1][0], []).append(ball)
    cells = []
    for root, members in trees.items():
        top = list(values)
        for _, slot, value in at[root]:
            top[slot] = value
        cuts = [entry for ball in members if ball is not root for entry in at[ball]]
        if cuts:
            ref_descend(root, tuple(top), cuts, cells)
        else:
            cells.append((root, tuple(top)))
    return cells


def ref_split_union(entries, values):
    """The union walk keyed by slot: the roots and the trees sit in dicts
    keyed by (radius_exp, key), each root found largest radius first with
    one truncate_key per root radius."""
    at = {}
    for entry in entries:
        at.setdefault((entry[0].radius_exp, entry[0].key), []).append(entry)
    roots, radii = {}, {}
    for slot in sorted(at, reverse=True):
        ball = at[slot][0][0]
        for big in reversed(radii):
            root = roots.get((big, ball.truncate_key(big)))
            if root is not None:
                break
        else:
            root = slot
            radii[slot[0]] = None
        roots[slot] = root
    trees = {}
    for slot in at:
        trees.setdefault(roots[slot], []).append(slot)
    cells = []
    for root, members in trees.items():
        top = list(values)
        for _, slot, value in at[root]:
            top[slot] = value
        cuts = [entry for m in members if m is not root for entry in at[m]]
        if cuts:
            padic._descend(at[root][0][0], tuple(top), cuts, cells)
        else:
            cells.append((at[root][0][0], tuple(top)))
    return cells


def ref_descend(ball, values, cuts, out):
    k = ball.radius_exp
    n = len(ball.key)
    groups = {}
    for cut in cuts:
        key = cut[0].key
        digit = key[n][1] if len(key) > n and key[n][0] == -k else 0
        groups.setdefault(digit, []).append(cut)
    for digit in range(ball.ctx.p):
        child = None
        vals = list(values)
        deeper = []
        for cut in groups.get(digit, ()):
            if cut[0].radius_exp == k - 1:
                child = cut[0]
                vals[cut[1]] = cut[2]
            else:
                deeper.append(cut)
        if child is None:
            child = ball.children()[digit]
        if deeper:
            ref_descend(child, tuple(vals), deeper, out)
        else:
            out.append((child, tuple(vals)))


def assert_same_walk(entries, values, reference=indexed_split_union):
    """split_union and the reference walk give the same cells with the same
    values in the same order, and the same Ball object wherever either
    hands back one of the entries' balls."""
    got, want = split_union(entries, values), reference(entries, values)
    given_balls = {id(entry[0]) for entry in entries}
    assert [c for c, _ in got] == [c for c, _ in want]
    assert [v for _, v in got] == [v for _, v in want]
    for (cell, _), (ref, _) in zip(got, want):
        if id(ref) in given_balls or id(cell) in given_balls:
            assert cell is ref
    return got


def copy_of(ball):
    return Ball(ball.ctx, ball.radius_exp, ball.key)


@given(**cases, slots=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_split_union_matches_the_indexed_walk(p, seed, n, slots):
    """Shuffled entries with several roots, nesting, repeats within and
    across slots, and balls given again as equal but distinct objects."""
    ctx = PadicContext(p)
    rng = random.Random(seed)
    base = disjoint_balls(ctx, rng, n, splits=n)
    balls = base + related_balls(ctx, rng, base, n)
    balls += [copy_of(b) for b in rng.sample(balls, rng.randint(0, len(balls)))]
    entries = [
        (b, rng.randrange(slots), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for b in balls
    ]
    rng.shuffle(entries)
    assert_same_walk(entries, tuple(range(-slots, 0)))


@given(**cases, slots=st.integers(1, 4), nested_first=st.booleans())
@settings(max_examples=150, deadline=None)
def test_split_union_matches_the_slot_keyed_walk(p, seed, n, slots, nested_first):
    """Roots and trees kept by group number give the slot-keyed walk's
    cells, order, values and Ball objects: multi-slot entries that nest and
    repeat, the same object and equal copies, and, with nested_first, a
    ball inside a root listed before every entry of that root."""
    ctx = PadicContext(p)
    rng = random.Random(seed)
    base = disjoint_balls(ctx, rng, n, splits=n)
    balls = base + related_balls(ctx, rng, base, n)
    balls += rng.sample(balls, rng.randint(0, len(balls)))
    balls += [copy_of(b) for b in rng.sample(balls, rng.randint(0, len(balls)))]

    def entry(ball):
        return ball, rng.randrange(slots), Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    entries = [entry(b) for b in balls]
    rng.shuffle(entries)
    if nested_first:
        root = rng.choice(base)
        entries.insert(0, entry(descendant(root, rng, rng.randint(1, 3))))
    assert_same_walk(entries, tuple(range(-slots, 0)), ref_split_union)


@pytest.mark.parametrize("p", PRIMES)
def test_split_union_order_and_identity(p):
    """Trees in the order their first member appears; a cut cell given by
    two equal Ball objects is the last of them, a lone root the first."""
    ctx = PadicContext(p)
    top = Ball(ctx, 1, ())
    cut, cut_again = Ball(ctx, 0, ()), Ball(ctx, 0, ())
    inner = Ball(ctx, -1, ((-1, 1),))  # inside B(1/p; 0), a child of top
    lone = Ball.from_center(ctx.rational(1, p**2), 0)
    far = Ball.from_center(ctx.rational(1, p**3), -1)
    far_inner = far.children()[-1]
    entries = [
        (far_inner, 1, 7),  # far's tree comes first, before its root does
        (cut, 0, 1),
        (lone, 1, 2),
        (top, 0, 3),
        (inner, 1, 4),
        (cut_again, 1, 5),
        (copy_of(lone), 0, 6),
        (far, 0, 8),
    ]
    cells = assert_same_walk(entries, (0, 0))
    assert_same_walk(entries, (0, 0), ref_split_union)
    assert len(cells) == 3 * p
    assert all(values[0] == 8 for _, values in cells[:p])
    assert cells[p - 1] == (far_inner, (8, 7)) and cells[p - 1][0] is far_inner
    assert cells[p] == (cut, (1, 5)) and cells[p][0] is cut_again
    assert cells[p + 1] == (inner, (3, 4)) and cells[p + 1][0] is inner
    assert cells[-1] == (lone, (6, 2)) and cells[-1][0] is lone


@pytest.mark.parametrize("p", PRIMES)
def test_prepared_draw_matches_the_indexed_walk(p, monkeypatch):
    """The atom order drives the random stream: a 64-part pushforward
    density over its hull gives the same balls and weights either way."""
    ctx = PadicContext(p)
    g = wide_element(ctx, random.Random(f"walk-order:{p}"), 64)
    mu = pushforward(IntensityMeasure.haar(ctx), g)
    hull = Ball(ctx, max(g.enclosing_exp(), mu.density.enclosing_exp()), ())
    window = ClopenSet.of(ctx, [hull])
    draw = PreparedDraw(mu, window)
    walks = []

    def reference(entries, values):
        walks.append(1)
        return indexed_split_union(entries, values)

    monkeypatch.setattr(padic, "split_union", reference)
    ref = PreparedDraw(mu, window)
    assert walks and len(draw.balls) > 16
    assert draw.balls == ref.balls
    assert draw.weights == ref.weights


@pytest.mark.parametrize("p", PRIMES)
def test_split_union_builds_no_index_and_hashes_no_ball(p, monkeypatch):
    """The walk keys its entries by (radius, key) slot: over a hull and a
    64-part density it builds no BallIndex and calls no Ball.__hash__."""
    ctx = PadicContext(p)
    g = wide_element(ctx, random.Random(f"walk-work:{p}"), 64)
    density = pushforward(IntensityMeasure.haar(ctx), g).density
    hull = Ball(ctx, max(g.enclosing_exp(), density.enclosing_exp()), ())
    entries = [(hull, 0, 0)] + [(b, 1, v) for b, v in density.parts]
    counts = {"index": 0, "hash": 0}
    init, hash_ = BallIndex.__init__, Ball.__hash__

    def counted_init(self, entries):
        counts["index"] += 1
        init(self, entries)

    def counted_hash(self):
        counts["hash"] += 1
        return hash_(self)

    monkeypatch.setattr(BallIndex, "__init__", counted_init)
    monkeypatch.setattr(Ball, "__hash__", counted_hash)
    hash(hull)
    assert counts == {"index": 0, "hash": 1}  # the counter is live
    cells = split_union(entries, (-1, density.tail))
    assert len(cells) > len(density.parts)
    assert counts == {"index": 0, "hash": 1}


# -- the set algebra on it ---------------------------------------------------------


@given(**cases)
@settings(max_examples=60, deadline=None)
def test_intersect_and_subtract_match_relation_scan(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    s, t = set_pair(ctx, rng, n)
    assert s.intersect(t) == ref_intersect(s, t)
    assert t.intersect(s) == ref_intersect(t, s)
    assert s.subtract(t) == ref_difference(s, t)
    assert t.subtract(s) == ref_difference(t, s)


@given(**cases)
@settings(max_examples=60, deadline=None)
def test_integrate_matches_relation_scan(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    s, t = set_pair(ctx, rng, n)
    f = StepFunction.make(
        ctx, REAL,
        [(b, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for b in t.balls],
        rng.randint(-1, 1),
    )
    assert f.integrate(s) == ref_integrate(f, s)
    dev = f.map_values(lambda v: abs(v - 1))
    assert f.integrate_transform(s, "abs_dev") == ref_integrate(dev, s)


@pytest.mark.parametrize("p", PRIMES)
def test_combine_with_the_identity_returns_the_operand(p):
    ctx = PadicContext(p)
    f = StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 2)], 3)
    zero = StepFunction.constant(ctx, REAL, 0)
    one = StepFunction.constant(ctx, REAL, 1)
    assert f.combine(zero, "add") is f and zero.combine(f, "add") is f
    assert f.combine(one, "mul") is f and one.combine(f, "mul") is f
    assert f.combine(one, "add") == f.map_values(lambda v: v + 1)


# -- count events and empty descriptors --------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_sets_disjoint_cases(p):
    ctx = PadicContext(p)
    z = ClopenSet.of(ctx, [Ball(ctx, 0, ())])
    inner = ClopenSet.of(ctx, [Ball(ctx, -2, ())])
    apart = ClopenSet.of(ctx, [Ball.from_center(ctx.rational(1, p), 0)])
    empty = ClopenSet(ctx, ())

    def disjoint(*sets):
        return CountEvent(tuple((s, EQ, 0) for s in sets)).sets_disjoint()

    assert not disjoint(z, z)
    assert not disjoint(z, inner) and not disjoint(inner, apart, z)
    assert disjoint(z, apart) and disjoint(inner, apart)
    assert disjoint(z) and disjoint(empty, empty, z)


@given(**cases)
@settings(max_examples=40, deadline=None)
def test_sets_disjoint_matches_pairwise(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    base = disjoint_balls(ctx, rng, n, splits=n)
    sets = [
        ClopenSet.of(ctx, related_balls(ctx, rng, base, rng.randint(0, 2)))
        for _ in range(rng.randint(1, 4))
    ]
    want = all(
        ref_intersect(s, t).is_empty for i, s in enumerate(sets) for t in sets[i + 1:]
    )
    assert CountEvent(tuple((s, EQ, 0) for s in sets)).sets_disjoint() == want


def unit_exponential(ctx):
    return Exponential(StepFunction.make(ctx, REAL, [(Ball(ctx, 0, ()), 1)], 0))


@pytest.mark.parametrize("p", PRIMES)
def test_empty_polynomial_is_refused(p):
    ctx = PadicContext(p)
    with pytest.raises(PadicAffineError):
        expect_exact(Polynomial(()), IntensityMeasure.haar(ctx))
    with pytest.raises(PadicAffineError):
        check_factorization(Polynomial(()), unit_exponential(ctx), samples=1000)


@pytest.mark.parametrize("p", PRIMES)
def test_empty_count_event_is_refused(p):
    ctx = PadicContext(p)
    with pytest.raises(PadicAffineError):
        expect_exact(CountEvent(()), IntensityMeasure.haar(ctx))
    with pytest.raises(PadicAffineError):
        check_factorization(CountEvent(()), unit_exponential(ctx), samples=1000)
