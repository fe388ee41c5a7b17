"""Monte Carlo by blocks: mc_run reads each chunk's uniforms with getrandbits
and, in the atoms the evaluator reads, counts each uniform from its top
byte, bisecting only where an entry of the rate's CDF table lies inside the
byte's interval.

The per-atom, per-draw loop it replaces is kept here as ref_mc_run, with
the evaluators over every atom's count; every estimate must equal it bit
for bit, on the same seeds, also on sparse windows where most atoms, a
split rate among them, are unread. The package evaluators' reads must be
exact: leaving out the pairs of the atoms they do not read leaves each
value bit-identical.
"""

import math
import random
import struct
from bisect import bisect_left
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_affine import poisson, randgen, representation
from padic_affine.affine import AffineElement
from padic_affine.measure import IntensityMeasure
from padic_affine.padic import Ball, ClopenSet, PadicContext
from padic_affine.poisson import (
    _CHUNK,
    _TABLE_END,
    EQ,
    GE,
    LE,
    SPLIT_RATE,
    CountEvent,
    Exponential,
    PoissonVariate,
    Polynomial,
    _byte_counts,
    mc_atoms,
    mc_run,
    product_evaluator,
)
from padic_affine.representation import check_laplace_mc
from padic_affine.stepfn import REAL, StepFunction

PRIMES = [2, 3, 5]


# -- references ----------------------------------------------------------------


def ref_mc_run(atoms: list, eval_counts, n: int, seed: int):
    """mc_run as one PoissonVariate.draw per atom per draw; eval_counts takes
    the count of every atom."""
    draws = [PoissonVariate(rate).draw for _, rate, _ in atoms]
    total = 0.0
    total_sq = 0.0
    done = 0
    index = 0
    while done < n:
        take = min(_CHUNK, n - done)
        uniform = poisson._chunk_rng(seed, index).random
        for _ in range(take):
            counts = [draw(uniform) for draw in draws]
            v = eval_counts(counts)
            total += v
            total_sq += v * v
        done += take
        index += 1
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n) if n > 1 else float("inf")
    return mean, se


def ref_counts_evaluator(f, atoms, offset=0):
    """F(gamma) from the count of every atom, in mc_atoms order."""
    if isinstance(f, Exponential):
        fvals = [float(vals[offset]) for _, _, vals in atoms]
        return lambda counts: math.exp(sum(c * v for c, v in zip(counts, fvals)))
    if isinstance(f, Polynomial):
        table = [
            [float(vals[offset + j]) for _, _, vals in atoms]
            for j in range(len(f.factors))
        ]

        def ev(counts):
            out = 1.0
            for row, (_, e) in zip(table, f.factors):
                out *= sum(c * v for c, v in zip(counts, row)) ** e
            return out

        return ev
    masks = [
        [bool(vals[offset + j]) for _, _, vals in atoms]
        for j in range(len(f.conditions))
    ]

    def ev(counts):
        for mask, (_, op, k) in zip(masks, f.conditions):
            total = sum(c for c, inside in zip(counts, mask) if inside)
            if not poisson._holds(total, op, k):
                return 0.0
        return 1.0

    return ev


def ref_product(evs):
    def product(counts):
        out = 1.0
        for ev in evs:
            out *= ev(counts)
        return out

    return product


def ref_importance_evaluator(atoms, scale):
    rho_vals = [float(vals[0]) for _, _, vals in atoms]
    f_vals = [float(vals[1]) for _, _, vals in atoms]

    def ev(counts):
        w = 1.0
        s = 0.0
        for c, rv, fv in zip(counts, rho_vals, f_vals):
            if c:
                w *= rv**c
                s += scale * c * fv
        return w * math.exp(s)

    return ev


# -- inputs --------------------------------------------------------------------

RATES = {
    "tiny": lambda rng: Fraction(1, rng.choice([300, 10**4, 10**7])),
    "one": lambda rng: Fraction(1),
    "mid": lambda rng: Fraction(rng.randint(1, 60), 8),
    "split": lambda rng: Fraction(rng.randint(int(SPLIT_RATE) + 1, 2500)),
}


def intensity(ctx, rng, kinds):
    """A density whose cells carry one rate of each listed kind; f takes
    small values on them, tiny ones on a split rate so e^<f> stays finite."""
    balls = randgen.random_disjoint_balls(ctx, rng, len(kinds), splits=len(kinds))
    density, fparts = [], []
    for ball, kind in zip(balls, kinds):
        rate = RATES[kind](rng)
        density.append((ball, rate / ball.measure))
        scale = 4096 if kind == "split" else 32
        fparts.append((ball, Fraction(rng.randint(-4, 4), scale)))
    mu = IntensityMeasure(StepFunction.make(ctx, REAL, density, 1))
    return mu, StepFunction.make(ctx, REAL, fparts, 0), balls


def descriptors(ctx, f, balls):
    """An exponential, a polynomial and, when there are balls, a count event,
    with the offset of each one's values in product_evaluator's atoms."""
    fs = [Exponential(f), Polynomial(((f, 2),))]
    if balls:
        inside = ClopenSet.of(ctx, balls[:1])
        fs.append(CountEvent(((inside, GE, 1), (inside, LE, 40))))
    offsets = [0, 1, 2][: len(fs)]  # the count event's two sets start at 2
    return fs, offsets


# -- equality with the per-atom loop ---------------------------------------------


@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 10**6),
    kinds=st.lists(st.sampled_from(sorted(RATES)), max_size=6),
    n=st.integers(1, 700),
    block_bytes=st.sampled_from([8, 200, 1 << 14]),
)
@settings(max_examples=60, deadline=None)
def test_estimates_equal_the_per_atom_loop(p, seed, kinds, n, block_bytes):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    mu, f, balls = intensity(ctx, rng, kinds)
    fs, offsets = descriptors(ctx, f, balls)
    atoms, ev = product_evaluator(mu, fs)
    if not kinds:
        assert atoms == []
    ref = ref_product([ref_counts_evaluator(g, atoms, o) for g, o in zip(fs, offsets)])
    with mock.patch.object(poisson, "_BLOCK_BYTES", block_bytes):
        assert mc_run(atoms, ev, n, seed) == ref_mc_run(atoms, ref, n, seed)
        for g, o in zip(fs, offsets):
            got = mc_run(atoms, poisson._counts_evaluator(g, atoms, o), n, seed)
            assert got == ref_mc_run(atoms, ref_counts_evaluator(g, atoms, o), n, seed)


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6), n=st.integers(1, 500))
@settings(max_examples=30, deadline=None)
def test_importance_estimates_equal_the_per_atom_loop(p, seed, n):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    kinds = [rng.choice(["tiny", "one", "mid"]) for _ in range(4)]
    mu, f, _ = intensity(ctx, rng, kinds)
    haar = IntensityMeasure.haar(ctx)
    for scale in (1.0, 2.0):
        atoms, ev = representation._importance_evaluator(haar, [mu.density, f], scale)
        got = mc_run(atoms, ev, n, seed)
        assert got == ref_mc_run(atoms, ref_importance_evaluator(atoms, scale), n, seed)


def test_estimates_across_chunks_and_blocks():
    """n past one chunk, on an atom set wide enough that the byte bound
    sets the block size and the last block of each chunk is short."""
    ctx = PadicContext(3)
    rng = random.Random("chunks")
    kinds = ["tiny"] * 40 + ["one", "mid", "mid", "split"]
    mu, f, _ = intensity(ctx, rng, kinds)
    atoms, ev = product_evaluator(mu, [Exponential(f)])
    ref = ref_counts_evaluator(Exponential(f), atoms)
    n = _CHUNK + 300
    with mock.patch.object(poisson, "_BLOCK_BYTES", 8 * 7 * len(atoms)):
        assert mc_run(atoms, ev, n, 11) == ref_mc_run(atoms, ref, n, 11)


def test_no_atoms_evaluates_the_empty_configuration():
    """With no atoms every draw is the empty configuration: the evaluator
    runs once, its value is summed n times as the per-draw loop sums it (0.1
    checks the rounding of repeated addition), and no random byte is read."""

    def refuse(self, k):
        raise AssertionError("no random bytes without atoms")

    for value in (0.0, 1.0, 0.1, 2.5):
        for n in (1, 2, 1000, 10**4):
            calls = []

            def ev(pairs):
                calls.append(pairs)
                return value

            with mock.patch.object(random.Random, "getrandbits", refuse):
                estimate = mc_run([], ev, n, 3)
            assert estimate == ref_mc_run([], lambda counts: value, n, 3)
            assert calls == [[]]


# -- the atoms an evaluator reads ------------------------------------------------


def same_float(a: float, b: float) -> bool:
    """a and b are the same float, bit for bit: -0.0 is not 0.0."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def reads_cases(ctx, rng):
    """(atoms, evaluator) of every package evaluator on one random input:
    each descriptor alone, their product, and the importance evaluator at
    scales 1 and 2. f takes some zero values, h only negative ones, and the
    count event uses =, <= and >=."""
    balls = randgen.random_disjoint_balls(ctx, rng, 6, root_exp=2, splits=6)

    def on_some(values, tail):
        chosen = rng.sample(balls, rng.randint(1, len(balls)))
        return StepFunction.make(ctx, REAL, [(b, rng.choice(values)) for b in chosen], tail)

    f = on_some([Fraction(v, 8) for v in range(-4, 5)], 0)
    h = on_some([Fraction(-v, 3) for v in range(1, 4)], 0)
    rho = on_some([Fraction(1), Fraction(1, 3), Fraction(5, 2)], 1)
    mu = IntensityMeasure(rho)
    sets = [ClopenSet.of(ctx, rng.sample(balls, rng.randint(1, 2))) for _ in range(3)]
    event = CountEvent(tuple(
        (s, op, rng.randint(0, 2)) for s, op in zip(sets, (EQ, LE, GE))
    ))
    fs = [Exponential(f), Polynomial(((f, 1), (h, 3))), event]
    cases = [product_evaluator(mu, [g]) for g in fs] + [product_evaluator(mu, fs)]
    haar = IntensityMeasure.haar(ctx)
    for scale in (1.0, 2.0):
        cases.append(representation._importance_evaluator(haar, [rho, f], scale))
    return cases


@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_unread_pairs_leave_the_value_bit_identical(p, seed):
    ctx = PadicContext(p)
    rng = random.Random(seed)
    for atoms, ev in reads_cases(ctx, rng):
        assert ev.reads <= set(range(len(atoms)))
        unread = [i for i in range(len(atoms)) if i not in ev.reads]
        # some atoms, only unread ones, and every atom
        for chosen in (
            rng.sample(range(len(atoms)), rng.randint(0, len(atoms))),
            rng.sample(unread, rng.randint(0, len(unread))),
            range(len(atoms)),
        ):
            pairs = [(i, rng.randint(1, 6)) for i in sorted(chosen)]
            kept = [(i, c) for i, c in pairs if i in ev.reads]
            assert same_float(ev(kept), ev(pairs))


def sparse_window(p):
    """f and a negative h on two balls of radius -1 whose centers lie at
    |x|_p = p^e, so the hull is B(0; e) with e the least exponent whose
    top cells have a Haar rate past SPLIT_RATE; the density is 5/2 on one
    of the two balls and 1 elsewhere. Every other cell, the split ones
    among them, is unread by all the evaluators."""
    ctx = PadicContext(p)
    e = next(k for k in range(1, 20) if p ** (k - 1) > SPLIT_RATE)
    small = Ball(ctx, -1, ((-e, 1),))
    beside = Ball(ctx, -1, ((-e, 1), (0, 1)))
    f = StepFunction.make(ctx, REAL, [(small, Fraction(3, 4)), (beside, Fraction(-1, 2))], 0)
    h = StepFunction.make(ctx, REAL, [(beside, Fraction(-2, 3))], 0)
    rho = StepFunction.make(ctx, REAL, [(small, Fraction(5, 2))], 1)
    event = CountEvent((
        (ClopenSet.of(ctx, [small]), GE, 1), (ClopenSet.of(ctx, [beside]), LE, 1),
    ))
    return ctx, IntensityMeasure(rho), f, h, event


def assert_sparse(atoms, ev):
    """At most a quarter of the atoms are read, and an unread one has a
    split rate."""
    assert 4 * len(ev.reads) <= len(atoms)
    assert any(
        rate > SPLIT_RATE for i, (_, rate, _) in enumerate(atoms) if i not in ev.reads
    )


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_windows_equal_the_per_atom_loop(p):
    ctx, mu, f, h, event = sparse_window(p)
    fs = [Exponential(f), Polynomial(((f, 1), (h, 3))), event]
    offsets = [0, 1, 3]  # f; f and h; the event's two sets
    n = 1500
    atoms, ev = product_evaluator(mu, fs)
    assert_sparse(atoms, ev)
    ref = ref_product([ref_counts_evaluator(g, atoms, o) for g, o in zip(fs, offsets)])
    assert mc_run(atoms, ev, n, 29) == ref_mc_run(atoms, ref, n, 29)
    for g in fs:
        atoms, ev = product_evaluator(mu, [g])
        assert_sparse(atoms, ev)
        assert mc_run(atoms, ev, n, 31) == ref_mc_run(
            atoms, ref_counts_evaluator(g, atoms), n, 31
        )
    haar = IntensityMeasure.haar(ctx)
    for scale in (1.0, 2.0):
        atoms, ev = representation._importance_evaluator(haar, [mu.density, f], scale)
        assert_sparse(atoms, ev)
        assert mc_run(atoms, ev, n, 37) == ref_mc_run(
            atoms, ref_importance_evaluator(atoms, scale), n, 37
        )


def test_laplace_replica_bisects_only_the_read_atom(monkeypatch):
    """check_laplace_mc with f nonzero on one ball of radius -4 inside a
    B(0; 3) hull: of the 15 atoms, mc_run bisects the lanes of that one
    alone, so every table handed to bisect_left is its table."""
    ctx = PadicContext(3)
    small = Ball(ctx, -4, ((-3, 1),))
    f = StepFunction.make(ctx, REAL, [(small, Fraction(1, 2))], 0)
    atoms = mc_atoms(IntensityMeasure.haar(ctx), [f])
    assert len(atoms) == 15
    (read_rate,) = [rate for cell, rate, _ in atoms if cell == small]
    tables = []
    real = poisson.bisect_left

    def bisect_left(table, u):
        tables.append(table)
        return real(table, u)

    monkeypatch.setattr(poisson, "bisect_left", bisect_left)
    check_laplace_mc(AffineElement.identity(ctx), f, 2000, 0)
    assert tables
    assert len({id(table) for table in tables}) == 1
    assert tables[0] == PoissonVariate(read_rate).table


# -- the uniforms of a block -------------------------------------------------------


def block_uniforms(raw: bytes) -> list:
    """random()'s uniforms from getrandbits bytes: (w0 >> 5, w1 >> 6) of
    each pair of 32-bit words."""
    out = []
    for w0, w1 in struct.iter_unpack("<II", raw):
        out.append(((w0 >> 5) * 67108864.0 + (w1 >> 6)) / 9007199254740992.0)
    return out


@pytest.mark.parametrize("seed", ["0:0", "42:3", 7])
def test_block_uniforms_match_random(seed):
    blocks, calls = random.Random(seed), random.Random(seed)
    for size in (1, 3, 17, 64, 2, 500):
        raw = blocks.getrandbits(64 * size).to_bytes(8 * size, "little")
        want = [calls.random() for _ in range(size)]
        assert block_uniforms(raw) == want
        assert list(raw[3::8]) == [int(u * 256) for u in want]
    assert blocks.random() == calls.random()


# -- the block rule at boundary uniforms ---------------------------------------------


class Uniforms:
    """A stand-in chunk stream whose getrandbits returns the listed uniforms,
    each given as X with u = X / 2^53, in the words random() would read."""

    def __init__(self, xs):
        self.xs = list(xs)

    def getrandbits(self, k):
        take, self.xs = self.xs[: k // 64], self.xs[k // 64 :]
        out = 0
        for j, x in enumerate(take):
            # the low bits random() drops are set, to show they are ignored
            w0 = (x >> 26) << 5 | 0b10101
            w1 = (x & ((1 << 26) - 1)) << 6 | 0b110011
            out |= (w0 | w1 << 32) << (64 * j)
        return out


def block_counts(rate, xs):
    """The counts mc_run draws for one atom from the uniforms xs."""
    pieces = PoissonVariate(rate).pieces
    draws = []
    with mock.patch.object(poisson, "_chunk_rng", lambda seed, index: Uniforms(xs)):
        mc_run([(None, rate, ())], lambda pairs: draws.append(pairs) or 0.0,
               len(xs) // pieces, 0)
    return [pairs[0][1] if pairs else 0 for pairs in draws]


def boundary_xs(rate):
    """X = u·2^53 around each edge of the block rule for one rate: P(N = 0)
    (itself when it is a multiple of 2^-53, as it is for rates below ln 2),
    the top bytes T − 1, T and T + 1, table entries and the table end.
    random() returns multiples of 2^-53 only, so the nearest uniforms on
    each side of an edge are X − 1, X and X + 1."""
    unit = 2**53
    variate = PoissonVariate(rate)
    top = int(variate.zero * 256) if variate.pieces == 1 else 0
    zero_x = math.floor(variate.zero * unit)
    xs = {0, unit - 1, zero_x - 1, zero_x, zero_x + 1}
    for t in (top - 1, top, top + 1):
        xs.update(((t << 45) - 1, t << 45))
    for c in variate.table[:6] + variate.table[-3:]:
        x = math.floor(c * unit)
        xs.update((x - 1, x, x + 1))
    if variate.table[-1] < 1.0:
        xs.add(math.floor(variate.table[-1] * unit) + 1)  # past the table end
    return sorted(x for x in xs if 0 <= x < unit)


@pytest.mark.parametrize(
    "rate", [1e-9, 1 / 300, 0.25, 1.0, 5.5, 6.0, 40.0, 500.0, 700.0]
)
def test_block_rule_matches_draw_at_boundaries(rate):
    xs = boundary_xs(rate)
    us = iter([x / 2**53 for x in xs])
    variate = PoissonVariate(rate)
    assert block_counts(rate, xs) == [variate.draw(us.__next__) for _ in xs]


def test_past_the_table_end_counts_the_guard():
    rate = 500.0  # its table ends below the largest uniform, 1 - 2^-53
    table = PoissonVariate(rate).table
    assert table[-1] < 1.0
    x = math.floor(table[-1] * 2**53) + 1
    assert block_counts(rate, [x]) == [_TABLE_END + 1]


@pytest.mark.parametrize("rate", [701.0, 1500.0, 2100.5])
def test_split_rate_matches_draw(rate):
    variate = PoissonVariate(rate)
    assert variate.pieces > 1
    rng = random.Random(f"split:{rate}")
    edges = boundary_xs(rate)
    xs = [rng.choice(edges) for _ in range(variate.pieces * 40)]
    us = iter([x / 2**53 for x in xs])
    assert block_counts(rate, xs) == [variate.draw(us.__next__) for _ in range(40)]


# -- the count of a top byte ---------------------------------------------------------


def mapped_bisect(table, u):
    """The count PoissonVariate.draw gives one piece for the uniform u."""
    k = bisect_left(table, u)
    return k if k < len(table) else _TABLE_END + 1


@pytest.mark.parametrize("rate", [1e-9, 3.0**-4, 1.0, 5.0, 81.0, 699.9, 700.0, 2000.0])
def test_byte_counts_match_bisection(rate):
    """A byte's count is bisect_left's at its lowest uniform, at the largest
    one below the next byte and at interior ones; -1 marks exactly the bytes
    whose interval holds a table entry."""
    table = PoissonVariate(rate).table
    counts = _byte_counts(table)
    assert len(counts) == 256
    rng = random.Random(f"bytes:{rate}")
    for b, count in enumerate(counts):
        inside = [c for c in table if int(c * 256) == b]
        assert (count == -1) == bool(inside), b
        if count == -1:
            continue
        xs = [b << 45, ((b + 1) << 45) - 1]
        xs += [(b << 45) + rng.randrange(1 << 45) for _ in range(3)]
        assert {mapped_bisect(table, x / 2**53) for x in xs} == {count}, b


def test_byte_counts_of_a_synthetic_table():
    """An entry exactly at b/256 marks byte b; an entry of 1.0 marks no byte,
    and the bytes below it count it out rather than past the table end."""
    table = [0.25, 0.3, 0.30001, 0.9, 1.0]  # bytes 64, 76, 76, 230 and none
    want = [0] * 64 + [-1] + [1] * 11 + [-1] + [3] * 153 + [-1] + [4] * 25
    assert _byte_counts(table) == want
    assert _byte_counts([0.5]) == [0] * 128 + [-1] + [_TABLE_END + 1] * 127


@pytest.mark.parametrize("rate, share", [(1.0, 1 / 20), (2000.0, 1 / 2)])
def test_bisects_only_lanes_whose_byte_holds_an_entry(monkeypatch, rate, share):
    """One atom over 10^4 draws, of rate 1 or of a split rate, whose pieces
    have no zero shortcut: beside the bisections that build its byte counts,
    bisect_left runs once per lane whose top byte holds a table entry, and
    for no other lane, a small share of them all."""
    n, seed = 10**4, 3
    variate = PoissonVariate(rate)
    table = variate.table
    counts = _byte_counts(table)
    tops = []
    for index in range(-(-n // _CHUNK)):
        rng = poisson._chunk_rng(seed, index)
        lanes = min(_CHUNK, n - index * _CHUNK) * variate.pieces
        tops += [int(rng.random() * 256) for _ in range(lanes)]
    want = sum(counts[b] == -1 for b in tops)
    assert 0 < want < share * len(tops)
    calls = []
    real = poisson.bisect_left

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poisson, "bisect_left", counting)
    _byte_counts(table)
    building = len(calls)
    calls.clear()
    atoms = [(None, rate, ())]
    got = mc_run(atoms, lambda pairs: float(bool(pairs)), n, seed)
    assert len(calls) - building == want
    monkeypatch.undo()
    assert got == ref_mc_run(atoms, lambda counts: float(counts[0] > 0), n, seed)


# -- the work of a draw --------------------------------------------------------------


def test_mc_run_draws_no_variate_per_atom():
    """A 64-part atom set completes without PoissonVariate.draw, so mc_run's
    work does not grow as one Python draw per atom per sample."""
    ctx = PadicContext(3)
    rng = random.Random("work")
    balls = randgen.random_disjoint_balls(ctx, rng, 64, root_exp=1, splits=64)
    parts = [(b, Fraction(rng.randint(0, 4), rng.randint(1, 3))) for b in balls]
    mu = IntensityMeasure(StepFunction.make(ctx, REAL, parts, 1))
    values = [(b, Fraction(rng.randint(-2, 2), 4)) for b in balls]
    f = StepFunction.make(ctx, REAL, values, 0)
    atoms, ev = product_evaluator(mu, [Exponential(f)])
    assert len(atoms) >= 64
    want = ref_mc_run(atoms, ref_counts_evaluator(Exponential(f), atoms), 2000, 5)

    def refuse(self, uniform):
        raise AssertionError("mc_run called PoissonVariate.draw")

    with mock.patch.object(PoissonVariate, "draw", refuse):
        assert mc_run(atoms, ev, 2000, 5) == want
