"""The prepared Poisson draw: table variates and bisected atom choice.

The term-by-term CDF inversion and the linear exact-Fraction atom scan that
the prepared draw replaces are kept here as references; every draw at or
below SPLIT_RATE must match them exactly, uniform for uniform.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import padic, poisson, randgen, suite
from padic_affine.cli import main
from padic_affine.measure import IntensityMeasure
from padic_affine.padic import Ball, ClopenSet, Padic, PadicContext
from padic_affine.poisson import (
    SPLIT_RATE,
    Configuration,
    PoissonVariate,
    _cdf_table,
    refine_window,
    required_depth,
    sample_config,
)
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]


# -- references ----------------------------------------------------------------


def ref_poisson_inverse(lam: float, u: float) -> int:
    """Poisson variate by CDF inversion from a single uniform."""
    if lam <= 0.0:
        return 0
    k = 0
    pk = math.exp(-lam)
    cdf = pk
    while u > cdf:
        k += 1
        pk *= lam / k
        cdf += pk
        if k > 1000:  # numerical guard; unreachable for desk-scale rates
            break
    return k


def ref_sample_config(mu, window, depth, rng):
    """One configuration by a fresh refine_window and a linear scan of exact
    cumulative Fraction weights per point."""
    cells = refine_window(window, [mu.density])
    atoms = [(ball, v * ball.measure) for ball, (v,) in cells if v > 0]
    total = sum((rate for _, rate in atoms), Fraction(0))
    if total == 0:
        return Configuration((), window)
    n = ref_poisson_inverse(float(total), rng.random())
    points = []
    seen = set()
    for _ in range(n):
        threshold = Fraction(rng.random()) * total
        acc = Fraction(0)
        chosen = atoms[-1][0]
        for ball, rate in atoms:
            acc += rate
            if threshold < acc:
                chosen = ball
                break
        x = chosen.point(rng.randrange(mu.ctx.p**depth))
        digit_pos = depth
        while x in seen:
            step = Fraction(rng.randrange(mu.ctx.p) * mu.ctx.p**digit_pos)
            x = x + Padic(mu.ctx, step / chosen.measure)
            digit_pos += 1
        seen.add(x)
        points.append(x)
    return Configuration(tuple(points), window)


def table_count(lam: float, u: float) -> int:
    return PoissonVariate(lam).draw(lambda: u)


# -- table variates --------------------------------------------------------------


def edge_uniforms(table, rng):
    """Each table entry (a sample of them for long tables) and its float
    neighbours, 0, the largest uniform and a few random ones; all in [0, 1)."""
    picks = table if len(table) <= 48 else table[:8] + rng.sample(table, 32) + table[-8:]
    out = {0.0, 1.0 - 2.0**-53}
    for c in picks:
        out.update((c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)))
    out.update(rng.random() for _ in range(8))
    return sorted(u for u in out if 0.0 <= u < 1.0)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=SPLIT_RATE, exclude_min=True),
    seed=st.integers(0, 2**16),
)
def test_table_variate_matches_term_by_term_inversion(lam, seed):
    rng = random.Random(seed)
    for u in edge_uniforms(_cdf_table(lam), rng):
        assert table_count(lam, u) == ref_poisson_inverse(lam, u), (lam, u)


@pytest.mark.parametrize(
    "lam", [1e-300, 1e-9, 1 / 3, 1.0, 2.5, 27.0, 81.0, 699.99, SPLIT_RATE]
)
def test_table_variate_fixed_rates(lam):
    rng = random.Random(1)
    for u in edge_uniforms(_cdf_table(lam), rng):
        assert table_count(lam, u) == ref_poisson_inverse(lam, u), (lam, u)


def test_large_rate_is_split_not_capped():
    lam = 2187.0  # the mean point count of B(0;7) at p = 3
    assert ref_poisson_inverse(lam, 0.5) == 1001  # the guard value, not a draw
    variate = PoissonVariate(lam)
    assert variate.pieces == 4
    uniform = random.Random(7).random
    n = 4000
    draws = [variate.draw(uniform) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / (n - 1)
    assert abs(mean - lam) <= 5 * math.sqrt(lam / n)
    # the sample variance of n Poisson draws has sd about lam*sqrt(2/n)
    assert abs(var - lam) <= 5 * lam * math.sqrt(2 / n)
    assert min(draws) > 1001


def test_rates_up_to_the_split_take_one_uniform():
    for lam in (0.5, 81.0, SPLIT_RATE):
        assert PoissonVariate(lam).pieces == 1
    assert PoissonVariate(math.nextafter(SPLIT_RATE, math.inf)).pieces == 2


# -- prepared atom choice ----------------------------------------------------------


def random_density(ctx, rng, n):
    """A step density with about n parts from randgen, some of them 0."""
    balls = randgen.random_disjoint_balls(ctx, rng, n, root_exp=1, splits=n)
    parts = [(b, Fraction(rng.randint(0, 4), rng.randint(1, 3))) for b in balls]
    return StepFunction.make(ctx, REAL, parts, 1)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [16, 64])
def test_sample_config_matches_linear_scan(p, n):
    ctx = PadicContext(p)
    rng = random.Random(f"density:{p}:{n}")
    mu = IntensityMeasure(random_density(ctx, rng, n))
    ball = Ball(ctx, 2 if p == 2 else 1, ())
    # the window reaches past the density's parts into its tail
    window = ClopenSet.of(ctx, [ball])
    depth = required_depth([mu.density], ball) + 1
    ours, ref = random.Random(5), random.Random(5)
    points = 0
    for _ in range(12):
        got = sample_config(mu, window, depth, ours)
        want = ref_sample_config(mu, window, depth, ref)
        assert got.points == want.points
        points += len(got)
    assert points > 0
    assert ours.random() == ref.random()  # the streams stayed in step


def ref_atom(atoms, u):
    threshold = Fraction(u) * sum((rate for _, rate in atoms), Fraction(0))
    acc = Fraction(0)
    for ball, rate in atoms:
        acc += rate
        if threshold < acc:
            return ball
    return atoms[-1][0]


def tie_density():
    """Rates 1/4, 3/4, 1 on the cells of Z_2: every boundary acc_i / total
    is an exact float, so u·total meets acc_i exactly."""
    ctx = PadicContext(2)
    parts = [
        (Ball(ctx, -2, ()), Fraction(1)),
        (Ball(ctx, -2, ((1, 1),)), Fraction(3)),
        (Ball(ctx, -1, ((0, 1),)), Fraction(2)),
    ]
    return StepFunction.make(ctx, REAL, parts, 1), Ball(ctx, 0, ())


@pytest.mark.parametrize("case", ["ties", 2, 3, 5])
def test_atom_choice_at_boundaries(case):
    if case == "ties":
        density, ball = tie_density()
    else:
        ctx = PadicContext(case)
        density = random_density(ctx, random.Random(f"atoms:{case}"), 16)
        ball = Ball(ctx, 1, ())
    window = ClopenSet.of(density.ctx, [ball])
    draw = poisson.PreparedDraw(IntensityMeasure(density), window)
    cells = refine_window(window, [density])
    atoms = [(b, v * b.measure) for b, (v,) in cells if v > 0]
    total = sum((rate for _, rate in atoms), Fraction(0))
    acc = Fraction(0)
    uniforms = {0.0, 1.0 - 2.0**-53}
    for _, rate in atoms:
        acc += rate
        u = float(acc / total)
        uniforms.update((u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)))
    if case == "ties":
        assert {0.125, 0.5} <= uniforms
    for u in sorted(u for u in uniforms if u < 1.0):
        assert draw.balls[draw.pick(u)] == ref_atom(atoms, u), u


def test_window_with_no_mass_draws_nothing():
    ctx = PadicContext(3)
    z = Ball(ctx, 0, ())
    mu = IntensityMeasure(StepFunction.make(ctx, REAL, [(z, 0)], 1))
    window = ClopenSet.of(ctx, [z])
    rng = random.Random(0)
    assert sample_config(mu, window, 2, rng).points == ()
    assert rng.random() == random.Random(0).random()  # no uniform consumed


def test_memo_follows_the_window():
    ctx = PadicContext(3)
    rng = random.Random("staleness")
    density = random_density(ctx, rng, 16)
    mu = IntensityMeasure(density)
    windows = [
        ClopenSet.of(ctx, [Ball(ctx, 1, ())]),
        ClopenSet.of(ctx, [Ball(ctx, -1, ()), Ball(ctx, -2, ((0, 1),))]),
    ]
    ours, fresh = random.Random(9), random.Random(9)
    for i in range(8):
        window = windows[i % 2]
        depth = 3
        got = sample_config(mu, window, depth, ours)
        want = sample_config(IntensityMeasure(density), window, depth, fresh)
        assert got.points == want.points
        assert got.window is window
        assert mu.prepared.window == window


# -- work guards --------------------------------------------------------------------


def test_refine_window_once_per_measure_and_window(monkeypatch):
    calls = [0]
    original = poisson.refine_window

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(poisson, "refine_window", counted)
    ctx = PadicContext(3)
    haar = IntensityMeasure.haar(ctx)
    window = ClopenSet.of(ctx, [Ball(ctx, 0, ())])
    rng = random.Random(0)
    for _ in range(1000):
        sample_config(haar, window, 2, rng)
    assert calls[0] == 1


def test_sampler_reports_make_no_per_child_contains(monkeypatch):
    # the sampler check tallies digit keys: it builds no point, so it makes
    # no window check and no per-child membership test
    calls = {"point": 0, "contains": 0}
    keys_drawn = [0]
    original_keys = suite.sample_keys

    def counted_keys(*args):
        balls, keys = original_keys(*args)
        keys_drawn[0] += len(keys)
        return balls, keys

    def counting(name):
        original = getattr(padic.Ball, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        return counted

    for name in calls:
        monkeypatch.setattr(padic.Ball, name, counting(name))
    monkeypatch.setattr(suite, "sample_keys", counted_keys)
    for p in PRIMES:
        keys_drawn[0] = 0
        reports = suite.sampler_reports(PadicContext(p), 0, 1000)
        assert len(reports) == 3
        assert keys_drawn[0] > 0
        assert calls == {"point": 0, "contains": 0}, p


def ref_child_counts(ctx, seed, n):
    """The sampler check's tally by Fraction points: each configuration of
    sample_config on Z_p counted per child as numerator/denominator mod p."""
    haar = IntensityMeasure.haar(ctx)
    z = Ball(ctx, 0, ())
    window = ClopenSet.of(ctx, [z])
    depth = required_depth([window], z) + 1
    rng = random.Random(f"sampler:{seed}")
    p = ctx.p
    counts = [[] for _ in range(p)]
    voids = 0
    for _ in range(n):
        cfg = sample_config(haar, window, depth, rng)
        if not cfg.points:
            voids += 1
        tally = [0] * p
        for x in cfg.points:
            q = x.frac
            tally[q.numerator * pow(q.denominator, -1, p) % p] += 1
        for series, c in zip(counts, tally):
            series.append(c)
    return counts, voids


@pytest.mark.parametrize("p", PRIMES)
def test_sampler_key_tally_matches_fraction_points(p):
    ctx = PadicContext(p)
    z = Ball(ctx, 0, ())
    haar = IntensityMeasure.haar(ctx)
    balls, _ = poisson.sample_keys(haar, ClopenSet.of(ctx, [z]), 2, random.Random(0))
    assert balls == [z]  # Z_p.point(m) is the integer m
    for seed in range(5):
        got = suite.sampler_counts(ctx, seed, 2000)
        assert got == ref_child_counts(ctx, seed, 2000), seed


# -- the command line ------------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_sample_above_the_old_cap(capsys):
    code, out, _ = run(
        capsys, "--json", "--p", "3", "sample", "--window", "{B(0;7)}"
    )
    assert code == 0
    (points,) = json.loads(out)["configurations"]
    assert len(points) > 1001
    assert len(set(points)) == len(points)


def test_cli_sample_rate_beyond_the_cap_exits_2(capsys):
    code, out, err = run(capsys, "--p", "3", "sample", "--window", "{B(0;700)}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_cli_laplace_exponent_overflow_exits_2(capsys):
    code, out, err = run(
        capsys, "laplace", "--g", "aff(a = {B(0;0): 3 | tail 1}, b = {| tail 0})",
        "--f", "{B(0;0): 1000 | tail 0}",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
