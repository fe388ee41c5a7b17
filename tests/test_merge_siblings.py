"""The one sibling merge behind ClopenSet.of and StepFunction.make.

Both canonical forms used to run their own merge loop, repeating full
passes over every radius until no complete family of p siblings was left.
Those loops are kept here as references; padic.merge_siblings does one
bottom-up pass per radius and must give the same stored forms.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine.padic import Ball, BallIndex, ClopenSet, PadicContext, merge_siblings
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]


# -- the merge loops that preceded merge_siblings -------------------------------


def ref_canonical_balls(ctx, balls):
    if len(balls) == 1:
        return tuple(balls)
    unique = list({b: None for b in balls})
    index = BallIndex((b, None) for b in unique)
    keep = [b for b in unique if index.covering(b.parent()) is None]
    p = ctx.p
    changed = True
    while changed:
        changed = False
        groups = {}
        for b in keep:
            groups.setdefault((b.radius_exp, b.truncate_key(b.radius_exp + 1)), []).append(b)
        merged = []
        for members in groups.values():
            if len(members) == p:
                merged.append(members[0].parent())
                changed = True
            else:
                merged.extend(members)
        keep = merged
    keep.sort(key=Ball.sort_key)
    return tuple(keep)


def ref_canonical_parts(ctx, parts, tail):
    live = [(b, v) for b, v in parts if v != tail]
    p = ctx.p
    if len(live) < p:
        live.sort(key=lambda bv: bv[0].sort_key())
        return tuple(live)
    changed = True
    while changed:
        changed = False
        groups = {}
        for b, v in live:
            key = (b.radius_exp, b.truncate_key(b.radius_exp + 1))
            groups.setdefault(key, []).append((b, v))
        merged = []
        for members in groups.values():
            if len(members) == p and len({v for _, v in members}) == 1:
                merged.append((members[0][0].parent(), members[0][1]))
                changed = True
            else:
                merged.extend(members)
        live = merged
    live.sort(key=lambda bv: bv[0].sort_key())
    return tuple(live)


# -- inputs -------------------------------------------------------------------


def leaves(ctx, rng, root_exp, splits):
    """A partition of B(0; root_exp), sometimes moved off zero, grown by
    splitting random leaves: every split leaves a complete sibling family,
    and splits of splits nest families several levels deep."""
    out = [Ball(ctx, root_exp, ())]
    for _ in range(splits):
        b = out.pop(rng.randrange(len(out)))
        out.extend(b.children())
    if rng.random() < 0.3:
        h = Fraction(rng.randint(1, ctx.p - 1), ctx.p ** rng.randint(1, 4))
        out = [b.image(1, h) for b in out]
    rng.shuffle(out)
    return out


cases = dict(
    p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6),
    root_exp=st.integers(-2, 2), splits=st.integers(0, 24),
)


class TestAgainstMergeLoops:
    @given(**cases)
    @settings(max_examples=80, deadline=None)
    def test_clopen_of(self, p, seed, root_exp, splits):
        """Most leaves, with duplicates and some of their ancestors."""
        ctx = PadicContext(p)
        rng = random.Random(seed)
        balls = [b for b in leaves(ctx, rng, root_exp, splits) if rng.random() < 0.9]
        balls += rng.sample(balls, len(balls) // 4)
        for b in rng.sample(balls, len(balls) // 6):
            balls.append(b.parent() if rng.random() < 0.5 else b.parent().parent())
        rng.shuffle(balls)
        assert ClopenSet.of(ctx, balls).balls == ref_canonical_balls(ctx, balls)

    @given(tail=st.integers(-1, 1), values=st.integers(1, 3), **cases)
    @settings(max_examples=80, deadline=None)
    def test_step_make(self, p, seed, root_exp, splits, tail, values):
        """Values from a small range, the tail among them, so that whole
        families and families of families share one value."""
        ctx = PadicContext(p)
        rng = random.Random(seed)
        parts = [
            (b, Fraction(rng.randint(tail, tail + values - 1)))
            for b in leaves(ctx, rng, root_exp, splits)
            if rng.random() < 0.9
        ]
        f = StepFunction.make(ctx, REAL, parts, tail)
        assert f.parts == ref_canonical_parts(ctx, parts, Fraction(tail))

    def test_families_merge_up_to_the_root(self):
        ctx = PadicContext(3)
        root = Ball(ctx, 1, ())
        grandchildren = [(c, 7) for b in root.children() for c in b.children()]
        assert merge_siblings(ctx, grandchildren) == ((root, 7),)
        # one differing value stops the merge at that family
        grandchildren[0] = (grandchildren[0][0], 8)
        merged = merge_siblings(ctx, grandchildren)
        assert [b.radius_exp for b, _ in merged] == [-1, -1, -1, 0, 0]
        assert [v for _, v in merged] == [8, 7, 7, 7, 7]
