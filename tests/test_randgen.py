"""randgen.random_disjoint_balls against the version that built a Ball for
every leaf it refined: the same balls in the same order, drawn with the same
calls on the caller's stream."""

import random

import pytest

from padic_affine import randgen
from padic_affine.padic import Ball, PadicContext


def ref_random_disjoint_balls(ctx, rng, count, root_exp=1, splits=4):
    leaves = [Ball(ctx, root_exp, ())]
    for _ in range(splits):
        target = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(target.children())
    rng.shuffle(leaves)
    return leaves[: min(count, len(leaves))]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_same_balls_and_stream_as_the_ball_refinement(p):
    ctx = PadicContext(p)
    cases = [
        (count, root_exp, splits)
        for count in (0, 1, 2, 3, 7, 40)
        for root_exp in (-2, 1)
        for splits in (0, 1, 4, 9)
    ]
    for seed, (count, root_exp, splits) in enumerate(cases):
        ours, ref = random.Random(seed), random.Random(seed)
        got = randgen.random_disjoint_balls(ctx, ours, count, root_exp, splits)
        want = ref_random_disjoint_balls(ctx, ref, count, root_exp, splits)
        assert [(b.radius_exp, b.key) for b in got] == [
            (b.radius_exp, b.key) for b in want
        ], (count, root_exp, splits)
        assert ours.getstate() == ref.getstate()
        # and the stream goes on alike after the call
        assert ours.random() == ref.random()

