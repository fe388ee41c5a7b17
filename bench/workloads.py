"""The benchmark's three workloads and the inputs they are built from.

Each workload is a list of items. An item is one timed operation on one
input; its run() rebuilds the input from literal strings made at set-up
(so a cached Ball.center never carries over from an earlier repeat), times
the operation, then checks the result with the tracer paused. Items of one
workload fall into three size classes, reported as small_s, medium_s and
large_s:

  workload    small                  medium                 large
  battery     verify-all, p = 2      verify-all, p = 3      verify-all, p = 5
  wide-parts  audit, 16 parts        audit, 64 parts        audit, 128 parts
  sampling    Haar configuration     intensity config.      Monte Carlo check

Every input is a pure function of the seed: the same seed gives the same
inputs, the same results and the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from padic_affine import affine, cli, grammar, measure, poisson, randgen, representation
from padic_affine.affine import AffineElement
from padic_affine.measure import IntensityMeasure
from padic_affine.padic import Ball, ClopenSet, PadicContext
from padic_affine.stepfn import REAL, StepFunction

SIZES = ("small", "medium", "large")

# Pool sizes. A run times every item once, then repeats items while its
# time lasts. Smoke runs use the minimum of one input per class.
BATTERY_PRIMES = (2, 3, 5)
BATTERY_SEEDS = 5
WIDE_PARTS = (16, 64, 128)
WIDE_POOL = {16: 16, 64: 5, 128: 3}
HAAR_BUNDLES = 16
Z3_PER_BUNDLE = 100
INTENSITY_ELEMENTS = 12
INTENSITY_PER_ITEM = 2
MC_POOL = {16: 6, 64: 4}
MC_SAMPLES = 2000
# the Poisson inverse-CDF sampler caps draws at 1001 once exp(-lambda)
# underflows near lambda = 745; every sampled window stays well below
LAMBDA_LIMIT = 745


@dataclass
class Outcome:
    elapsed: float          # seconds of the timed operation, normalised
    fingerprint: str        # digest of the canonical printed result
    ops: int                # operations attempted
    failures: list = field(default_factory=list)   # names of failed ops
    broken: list = field(default_factory=list)     # exact invariants broken
    per_op: dict = field(default_factory=dict)     # seconds per named call
    counts: dict = field(default_factory=dict)     # work done, by name
    raw_elapsed: float = None                      # elapsed before scaling
    wall: tuple = None                             # perf_counter() start, end


@dataclass
class Item:
    size: str
    name: str
    units: int              # operations the timing is divided by
    run: object             # run(env) -> Outcome


@dataclass
class Workload:
    name: str
    items: list
    summarize: object       # summarize(items, results) -> (lines, broken)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- input generation -------------------------------------------------------
#
# Ball partitions come from a stream fixed per (size, index); coefficients
# and values come from the seed. Measured at 64 parts over eight inputs, the
# audit time varied by 22% (coefficient of variation) when the partition
# varied too and by 8% when only the values did, so seed-varied partitions
# would need several times more 128-part audits per run to hold a bound.


def _partition(ctx, n, stream):
    """n disjoint balls, refined as randgen does with enough splits."""
    splits = -(-(n - 1) // (ctx.p - 1))
    return randgen.random_disjoint_balls(
        ctx, random.Random(stream), n, splits=splits
    )


def wide_element(ctx, n, stream, rng) -> AffineElement:
    """An n-part element with randgen.random_element's value ranges."""
    balls = _partition(ctx, n, stream)
    a_parts = [
        (b, randgen.random_unit(ctx, rng, span=6) * Fraction(ctx.p) ** rng.randint(-1, 1))
        for b in balls
    ]
    b_parts = [(b, randgen.random_rational(rng, span=6)) for b in balls]
    return AffineElement.from_parts(ctx, a_parts, b_parts)


def wide_function(ctx, n, stream, rng) -> StepFunction:
    """An n-part test function with randgen.random_test_function's values."""
    parts = [
        (b, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for b in _partition(ctx, n, stream)
    ]
    return StepFunction.make(ctx, REAL, parts, 0)


def _interleave(*groups) -> list:
    """Merge item lists so that each spreads evenly over one pass; every
    size class then samples the whole run, not one stretch of it."""
    keyed = [
        ((i + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def _literals(ctx, objects) -> tuple:
    """Print each object and check that parsing the text gives it back."""
    out = []
    for obj in objects:
        if isinstance(obj, AffineElement):
            text = grammar.format_affine(obj)
            back = grammar.parse_affine(text, ctx)
        else:
            text = grammar.format_step(obj)
            back = grammar.parse_step(text, ctx)
        if back != obj:
            raise RuntimeError("literal round trip changed an input")
        out.append(text)
    return tuple(out)


# -- battery ----------------------------------------------------------------


def _battery_item(p, battery_seed, size) -> Item:
    argv = ["--json", "--p", str(p), "--seed", str(battery_seed), "verify-all"]
    label = f"battery p={p} seed={battery_seed}"

    def run(env):
        buf = io.StringIO()
        t0 = env.clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        elapsed = env.clock() - t0
        with env.paused():
            text = buf.getvalue()
            hard = [r for r in json.loads(text) if not r["audit"]]
            failures = [
                f"{label} {r['name']}"
                for r in hard
                if not r["pass"] or not _finite(r["lhs"], r["rhs"], r["defect"])
            ]
            broken = []
            if code != (1 if any(not r["pass"] for r in hard) else 0):
                broken.append(f"{label}: exit code {code} disagrees with the reports")
            return Outcome(elapsed, _digest([str(code), text]), len(hard),
                           failures + broken, broken)

    return Item(size, label, 1, run)


def battery(seed: int, smoke: bool) -> Workload:
    """verify-all in-process at p = 2, 3, 5 over seeds seed*K .. seed*K+K-1.

    The battery seeds are consecutive and never filtered, so seed 0 runs
    verify-all seed 0, which fails its Monte Carlo gates today."""
    count = 1 if smoke else BATTERY_SEEDS
    # warm-up: one cheap command per prime through the same entry point
    for p in BATTERY_PRIMES:
        ctx = PadicContext(p)
        g = randgen.random_element(ctx, random.Random(f"warm:{seed}:{p}"))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--json", "--p", str(p), "pushforward", "--g",
                      grammar.format_affine(g)])
    items = [
        _battery_item(p, seed * count + i, size)
        for i in range(count)
        for p, size in zip(BATTERY_PRIMES, SIZES)
    ]

    def summarize(items, results):
        lines = [
            (f"battery_s.p{p}", _size_metric(items, results, size), "s")
            for p, size in zip(BATTERY_PRIMES, SIZES)
        ]
        return lines, []

    return Workload("battery", items, summarize)


# -- wide-parts -------------------------------------------------------------

WIDE_OPS = ("roundtrip", "multiply", "inverse", "act_function", "pushforward",
            "check_laplace", "composition_defect")


def _audit_item(ctx, n, index, literals, size) -> Item:
    label = f"wide-parts {n}-part #{index}"

    def run(env):
        with env.paused():
            g1 = grammar.parse_affine(literals[0], ctx)
            g2 = grammar.parse_affine(literals[1], ctx)
            f = grammar.parse_step(literals[2], ctx)
        laps = []
        t0 = env.clock()
        same = (
            grammar.parse_affine(grammar.format_affine(g1), ctx) == g1
            and grammar.parse_affine(grammar.format_affine(g2), ctx) == g2
            and grammar.parse_step(grammar.format_step(f), ctx) == f
        )
        laps.append(env.clock())
        product = affine.multiply(g1, g2)
        laps.append(env.clock())
        inv = g1.inverse()
        laps.append(env.clock())
        moved = g1.act_function(f)
        laps.append(env.clock())
        mu = measure.pushforward(IntensityMeasure.haar(ctx), g1)
        laps.append(env.clock())
        report = representation.check_laplace(g1, f)
        laps.append(env.clock())
        region = affine.composition_defect(g1, g2, f)
        laps.append(env.clock())
        with env.paused():
            per_op = {}
            prev = t0
            for op, lap in zip(WIDE_OPS, laps):
                per_op[op] = lap - prev
                prev = lap
            rho = mu.density
            broken = []
            if not same:
                broken.append(f"{label}: parse(format(x)) != x")
            if not affine.multiply(g1, inv).is_identity():
                broken.append(f"{label}: g * g^-1 is not the identity")
            if rho.integrate_transform(rho.deviation_support(), "one_minus") != 0:
                broken.append(f"{label}: pushforward does not conserve mass")
            failures = list(broken)
            if not report.passed or not _finite(report.lhs, report.rhs, report.defect):
                failures.append(f"{label} {report.name}")
            fingerprint = _digest([
                grammar.format_affine(product),
                grammar.format_affine(inv),
                grammar.format_step(moved),
                grammar.format_step(rho),
                repr(report.lhs), repr(report.rhs), repr(report.passed),
                grammar.format_clopen(region),
            ])
            return Outcome(laps[-1] - t0, fingerprint, len(WIDE_OPS), failures,
                           broken, per_op)

    return Item(size, label, 1, run)


def wide_parts(seed: int, smoke: bool) -> Workload:
    """p = 3 audits of (g1, g2, f) triples at 16, 64 and 128 parts."""
    ctx = PadicContext(3)
    groups = []
    for n, size in zip(WIDE_PARTS, SIZES):
        group = []
        for i in range(1 if smoke else WIDE_POOL[n]):
            rng = random.Random(f"wide-parts:{seed}:{n}:{i}")
            triple = (
                wide_element(ctx, n, f"wide-parts:g1:{n}:{i}", rng),
                wide_element(ctx, n, f"wide-parts:g2:{n}:{i}", rng),
                wide_function(ctx, n, f"wide-parts:f:{n}:{i}", rng),
            )
            group.append(_audit_item(ctx, n, i, _literals(ctx, triple), size))
        groups.append(group)
    items = _interleave(*groups)

    def summarize(items, results):
        lines = []
        for n, size in zip(WIDE_PARTS, SIZES):
            lines.append((f"audit_s.{n}", _size_metric(items, results, size), "s"))
            for op in WIDE_OPS:
                medians = [
                    _median([o.per_op[op] for o in outs if op in o.per_op])
                    for item, outs in zip(items, results)
                    if item.size == size and op in outs[0].per_op
                ]
                if medians:  # an audit that raised timed none of its calls
                    lines.append((f"audit_s.{n}.{op}", _mean(medians), "s"))
        return lines, []

    return Workload("wide-parts", items, summarize)


# -- sampling ---------------------------------------------------------------


def _points(configs) -> str:
    return ";".join(
        ",".join(grammar.format_rational(x.frac) for x in c.points) for c in configs
    )


def _window(ctx, radius_exp):
    ball = Ball(ctx, radius_exp, ())
    window = ClopenSet.of(ctx, [ball])
    return grammar.format_clopen(window), poisson.required_depth([window], ball) + 1


def _haar_item(ctx, seed, index, z3, b4) -> Item:
    label = f"sampling haar #{index}"
    haar = IntensityMeasure.haar(ctx)

    def run(env):
        with env.paused():
            w_z3 = grammar.parse_clopen(z3[0], ctx)
            w_b4 = grammar.parse_clopen(b4[0], ctx)
            rng = random.Random(f"haar:{seed}:{index}")
        t0 = env.clock()
        small = [poisson.sample_config(haar, w_z3, z3[1], rng) for _ in range(Z3_PER_BUNDLE)]
        t1 = env.clock()
        big = poisson.sample_config(haar, w_b4, b4[1], rng)
        t2 = env.clock()
        with env.paused():
            counts = {
                "z3.configs": len(small),
                "z3.points": sum(len(c.points) for c in small),
                "b4.configs": 1,
                "b4.points": len(big.points),
            }
            return Outcome(t2 - t0, _digest([_points(small), _points([big])]),
                           len(small) + 1, per_op={"z3": t1 - t0, "b4": t2 - t1},
                           counts=counts)

    return Item("small", label, Z3_PER_BUNDLE + 1, run)


def _intensity_item(ctx, seed, index, density_lit, window_lit, depth, per_item) -> Item:
    label = f"sampling intensity #{index}"

    def run(env):
        with env.paused():
            mu = IntensityMeasure(grammar.parse_step(density_lit, ctx))
            window = grammar.parse_clopen(window_lit, ctx)
            rng = random.Random(f"intensity:{seed}:{index}")
        t0 = env.clock()
        configs = [poisson.sample_config(mu, window, depth, rng) for _ in range(per_item)]
        elapsed = env.clock() - t0
        with env.paused():
            counts = {"configs": len(configs),
                      "points": sum(len(c.points) for c in configs)}
            return Outcome(elapsed, _digest([_points(configs)]), len(configs),
                           counts=counts)

    return Item("medium", label, per_item, run)


@contextlib.contextmanager
def _counting_mc_draws(counter: list):
    """Count Poisson variates (samples x atoms) drawn by the MC checks."""
    original = representation.mc_run

    def counted(atoms, eval_counts, n, seed):
        counter[0] += len(atoms) * n
        return original(atoms, eval_counts, n, seed)

    representation.mc_run = counted
    try:
        yield
    finally:
        representation.mc_run = original


def _mc_item(ctx, n, index, check_name, literals, samples, mc_seed) -> Item:
    label = f"sampling {n}-part #{index} {check_name}"

    def run(env):
        with env.paused():
            g = grammar.parse_affine(literals[0], ctx)
            f = grammar.parse_step(literals[1], ctx)
        check = getattr(representation, check_name)
        draws = [0]
        with _counting_mc_draws(draws):
            t0 = env.clock()
            report = check(g, f, samples, mc_seed)
            elapsed = env.clock() - t0
        with env.paused():
            failures = []
            if not report.passed or not _finite(report.lhs, report.rhs, report.defect):
                failures.append(f"{label}: {report.name} z={report.defect:.4g}")
            fingerprint = _digest([repr(report.lhs), repr(report.rhs),
                                   repr(report.defect), repr(report.passed)])
            return Outcome(elapsed, fingerprint, 1, failures,
                           counts={"draws": draws[0]})

    return Item("large", label, 1, run)


def sampling(seed: int, smoke: bool) -> Workload:
    """p = 3 Poisson sampling on Haar and on a pushforward intensity, and
    Monte Carlo checks; almost no set algebra per draw."""
    ctx = PadicContext(3)
    z3, b4 = _window(ctx, 0), _window(ctx, 4)
    windows = {"z3": (z3[0], Fraction(1)), "b4": (b4[0], Fraction(3) ** 4)}
    haar_items = [
        _haar_item(ctx, seed, j, z3, b4) for j in range(2 if smoke else HAAR_BUNDLES)
    ]
    intensity_items, mc_items = [], []
    haar = IntensityMeasure.haar(ctx)
    per_item = 1 if smoke else INTENSITY_PER_ITEM
    for k in range(1 if smoke else INTENSITY_ELEMENTS):
        rng = random.Random(f"sampling:intensity:{seed}:{k}")
        g = wide_element(ctx, 64, f"sampling:intensity:{k}", rng)
        mu = measure.pushforward(haar, g)
        hull = Ball(ctx, max(g.enclosing_exp(), mu.density.enclosing_exp()), ())
        window = ClopenSet.of(ctx, [hull])
        depth = poisson.required_depth([mu.density], hull) + 1
        (density_lit,) = _literals(ctx, [mu.density])
        window_lit = grammar.format_clopen(window)
        windows[f"intensity #{k}"] = (window_lit, mu.mass(window))
        intensity_items.append(_intensity_item(ctx, seed, k, density_lit,
                                               window_lit, depth, per_item))
    for lit, lam in windows.values():
        if lam >= LAMBDA_LIMIT:
            raise RuntimeError(f"window {lit} has lambda {lam} >= {LAMBDA_LIMIT}")
    samples = 1000 if smoke else MC_SAMPLES
    for n, pool in MC_POOL.items():
        for i in range(1 if smoke else pool):
            rng = random.Random(f"sampling:mc:{seed}:{n}:{i}")
            pair = (
                wide_element(ctx, n, f"sampling:mc:g:{n}:{i}", rng),
                wide_function(ctx, n, f"sampling:mc:f:{n}:{i}", rng),
            )
            literals = _literals(ctx, pair)
            for check_name in ("check_laplace_mc", "check_rn_identity_mc"):
                mc_items.append(_mc_item(ctx, n, i, check_name, literals, samples,
                                         seed * 1000 + n + i))
    items = _interleave(haar_items, intensity_items, mc_items)

    def summarize(items, results):
        small = _size_metric(items, results, "small")
        medium = _size_metric(items, results, "medium")
        mc_time = sum(
            _median([o.elapsed for o in outs])
            for item, outs in zip(items, results) if item.size == "large"
        )
        mc_draws = sum(
            outs[0].counts.get("draws", 0)
            for item, outs in zip(items, results) if item.size == "large"
        )
        lines = [
            ("haar_configs_per_s", 1.0 / small, "1/s"),
            ("intensity_configs_per_s", 1.0 / medium, "1/s"),
            ("mc_draws_per_s", mc_draws / mc_time, "1/s"),
        ]
        # mean points per configuration within 5 standard errors of lambda
        totals = {}
        for item, outs in zip(items, results):
            counts = outs[0].counts
            if not counts:  # the sampler raised; listed as a failed op
                continue
            if item.size == "small":
                for key in ("z3", "b4"):
                    c, pts = totals.get(key, (0, 0))
                    totals[key] = (c + counts[f"{key}.configs"], pts + counts[f"{key}.points"])
            elif item.size == "medium":
                key = "intensity #" + item.name.rsplit("#", 1)[1]
                totals[key] = (counts["configs"], counts["points"])
        broken = []
        for key, (configs, points) in totals.items():
            lam = float(windows[key][1])
            mean = points / configs
            z = abs(mean - lam) / math.sqrt(lam / configs)
            lines.append((f"sampler.{key.replace(' #', '')}.mean_points", mean, "count"))
            if z > 5.0:
                broken.append(f"sampler {key}: mean points {mean} is {z:.2f} SE from {lam}")
        return lines, broken

    return Workload("sampling", items, summarize)


WORKLOADS = {"battery": battery, "wide-parts": wide_parts, "sampling": sampling}


# -- coverage probe for traced runs -----------------------------------------


def probe(seed: int):
    """One small call into every traced layer, so that each per-layer metric
    has spans on every workload: verify-all at p = 2 with the minimum
    sample count, and a literal round trip."""
    ctx = PadicContext(2)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--json", "--p", "2", "--seed", str(seed), "--samples", "1000",
                  "verify-all"])
    rng = random.Random(f"probe:{seed}")
    g = randgen.random_element(ctx, rng)
    f = randgen.random_test_function(ctx, rng)
    grammar.parse_affine(grammar.format_affine(g), ctx)
    grammar.parse_step(grammar.format_step(f), ctx)


# -- statistics -------------------------------------------------------------


def _median(values):
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _size_metric(items, results, size, raw=False) -> float:
    """Seconds per operation in a size class: each input's median over its
    repeats, divided by the operations it times, averaged over the inputs.
    The mean over distinct inputs damps how much one seed's inputs cost;
    the median over repeats damps interference from other processes."""
    return _mean(
        _median([o.raw_elapsed if raw else o.elapsed for o in outs]) / item.units
        for item, outs in zip(items, results) if item.size == size
    )


def tail(values):
    """(percentile, value) for the highest of p99.9/p99/p95/p90/p75 with at
    least ten samples beyond it, or None when there are too few samples."""
    values = sorted(values)
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return q, values[rank - 1]
    return None
