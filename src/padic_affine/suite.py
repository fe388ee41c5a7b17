"""The aggregated verification battery behind `verify-all` and `audit`.

Hard identities produce pass/fail reports; claims known to fail for specific
elements run as audits whose findings never fail the run. Everything is
deterministic in (p, seed, samples).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .affine import AffineElement, composition_defect, multiply, pair_product
from .measure import IntensityMeasure, pushforward
from .padic import Ball, ClopenSet, PadicContext
from .poisson import (
    MIN_SAMPLES,
    CountEvent,
    Exponential,
    left_sum,
    required_depth,
    sample_keys,
)
from .randgen import (
    random_clopen,
    random_disjoint_balls,
    random_element,
    random_measure_preserving,
    random_point,
    random_test_function,
    random_unit,
)
from .representation import (
    CheckReport,
    check_ergodic_inequality,
    check_factorization,
    check_isometry,
    check_isometry_mc,
    check_laplace,
    check_laplace_mc,
    check_dual_pairing,
    check_rn_identity,
    check_rn_identity_mc,
    count_report,
    decoupler_postconditions,
    find_decoupler,
    mc_report,
)
from .stepfn import REAL, StepFunction


def _count(name, trials, fails) -> CheckReport:
    """The count report on `trials` calls of fails(), each one trial's
    number of failures (a bool counts as 0 or 1)."""
    return count_report(name, sum(fails() for _ in range(trials)), trials)


def group_axiom_trials(ctx, rng, trials) -> CheckReport:
    """Associativity, identity and two-sided inverse by exact canonical-form
    equality of stored pairs."""
    e = AffineElement.identity(ctx)

    def fails():
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        g3 = random_element(ctx, rng)
        inv = g1.inverse()
        return (
            (multiply(multiply(g1, g2), g3) != multiply(g1, multiply(g2, g3)))
            + (multiply(g1, e) != g1 or multiply(e, g1) != g1)
            + (not multiply(g1, inv).is_identity())
            + (not multiply(inv, g1).is_identity())
        )

    return _count("group-axioms", trials, fails)


def orientation_trials(ctx, rng, trials) -> CheckReport:
    """The product's action at x equals left-factor-first composition of the
    section actions, exactly."""

    def fails():
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        x = random_point(ctx, rng)
        s1, s2 = g1.section(x), g2.section(x)
        via_product = multiply(g1, g2).section(x).act(x)
        via_sections = pair_product(s1, s2).act(x)
        # and constant-pair composition acts left factor first
        return (via_product != via_sections) + (via_sections != s2.act(s1.act(x)))

    return _count("section-orientation", trials, fails)


def mass_conservation_trials(ctx, rng, trials) -> CheckReport:
    haar = IntensityMeasure.haar(ctx)

    def fails():
        return pushforward(haar, random_element(ctx, rng)).excess_mass() != 0

    return _count("mass-conservation", trials, fails)


def _worked_pair(ctx) -> tuple:
    """The worked contracting element g0 (a = p on Z_p, tail 1; b = 0) and
    the test function f0 = 1/2 on Z_p, tail 0."""
    z = Ball(ctx, 0, ())
    g0 = AffineElement.from_parts(ctx, [(z, ctx.p)], [])
    return g0, StepFunction.make(ctx, REAL, [(z, Fraction(1, 2))], 0)


def worked_density_report(ctx) -> CheckReport:
    """The contracting worked element has the exact three-level density."""
    g0, _ = _worked_pair(ctx)
    rho = pushforward(IntensityMeasure.haar(ctx), g0).density
    shell = Ball(ctx, 1, ()).children()[1:]  # B(0;1) minus Z_p
    p = ctx.p
    ok = (
        rho.evaluate(ctx.zero()) == Fraction(1, p)
        and all(rho.evaluate(b.center) == 1 + Fraction(1, p) for b in shell)
        and rho.tail == 1
    )
    return count_report("worked-density", 0 if ok else 1, 1)


def _exact_trials(name, check, ctx, rng, trials) -> CheckReport:
    """check(g, f) on random (g, f): the failures, and the worst defect."""
    reports = [
        check(random_element(ctx, rng), random_test_function(ctx, rng))
        for _ in range(trials)
    ]
    out = count_report(name, sum(not r.passed for r in reports), trials)
    out.defect = max([0.0, *(r.defect for r in reports)])
    return out


def laplace_trials(ctx, rng, trials) -> CheckReport:
    return _exact_trials("laplace-duality", check_laplace, ctx, rng, trials)


def rn_trials(ctx, rng, trials) -> CheckReport:
    return _exact_trials("rn-identity", check_rn_identity, ctx, rng, trials)


def isometry_reports(ctx, rng, trials) -> list:
    failures = sum(
        not check_isometry(
            random_measure_preserving(ctx, rng), random_test_function(ctx, rng)
        ).passed
        for _ in range(trials)
    )
    g0, f0 = _worked_pair(ctx)
    failures += not check_isometry(g0, f0).passed
    audit = check_isometry(g0.inverse(), f0)
    audit.name = "isometry-contracting-audit"
    return [count_report("isometry-preserving", failures, trials + 1), audit]


def decoupling_reports(ctx, rng, trials, samples, seed) -> list:
    def fails():
        l1 = random_clopen(ctx, rng)
        l2 = random_clopen(ctx, rng)
        post = decoupler_postconditions(find_decoupler(l1, l2), l1, l2)
        return not all(post.values())

    out = [_count("decoupler-postconditions", trials, fails)]
    f1 = random_test_function(ctx, rng)
    f2 = random_test_function(ctx, rng)
    fac = check_factorization(Exponential(f1), Exponential(f2))
    out.append(fac)
    z = Ball(ctx, 0, ())
    event = CountEvent(((ClopenSet.of(ctx, [z]), "=", 0),))
    out.append(check_ergodic_inequality(event, event))
    out.append(
        check_factorization(event, event, samples=samples, seed=seed)
    )
    return out


def composition_reports(ctx, rng, trials) -> list:
    """The documented counterexample plus non-interacting pairs."""
    p = ctx.p
    z = Ball(ctx, 0, ())
    g1 = AffineElement.from_parts(ctx, [], [(z, Fraction(1, p))])
    g2 = AffineElement.from_parts(ctx, [], [(z, 1)])
    # f separating the single from the combined shift everywhere on Z_p
    shell = Ball.from_center(ctx.rational(1, p), 0)
    f = StepFunction.make(
        ctx,
        REAL,
        [(b, i + 1) for i, b in enumerate(shell.children())],
        0,
    )
    region = composition_defect(g1, g2, f)
    covers = ClopenSet.of(ctx, [z]).subtract(region).is_empty
    finding = count_report(
        "composition-counterexample",
        0 if (not region.is_empty and covers) else 1,
        1,
        audit=True,
        note="pointwise group property fails on the recorded region",
    )

    def fails():
        balls = random_disjoint_balls(ctx, rng, 2)
        if len(balls) < 2:
            return False
        b1, b2 = balls[0], balls[1]
        h1 = random_in_ball_shift(ctx, rng, b1)
        h2 = random_in_ball_shift(ctx, rng, b2)
        ga = AffineElement.from_parts(ctx, [], [(b1, h1)])
        gb = AffineElement.from_parts(ctx, [], [(b2, h2)])
        ftest = random_test_function(ctx, rng)
        return not composition_defect(ga, gb, ftest).is_empty

    return [finding, _count("composition-disjoint-pairs", trials, fails)]


def random_in_ball_shift(ctx, rng, ball) -> Fraction:
    t = random_unit(ctx, rng, span=4) * Fraction(ctx.p) ** rng.randint(0, 2)
    return t * Fraction(ctx.p) ** (-ball.radius_exp)


def support_shift_trials(ctx, rng, trials) -> CheckReport:
    def fails():
        ball = Ball(ctx, rng.randint(0, 2), ())
        f = random_test_function(ctx, rng)
        support = f.deviation_support()
        if not support.subtract(ClopenSet.of(ctx, [ball])).is_empty:
            return False  # keep only supp f inside B
        h = random_in_ball_shift(ctx, rng, ball)
        g = AffineElement.from_parts(ctx, [], [(ball, h)])
        shifted = g.act_function(f).deviation_support()
        return not shifted.subtract(support.translate(-h)).is_empty

    return _count("support-shift", trials, fails)


def sampler_counts(ctx, seed, samples) -> tuple:
    """(counts, voids) over `samples` Haar draws on Z_p: the point count of
    each draw in each child of Z_p, one series per child in digit order,
    and the number of empty draws."""
    haar = IntensityMeasure.haar(ctx)
    z = Ball(ctx, 0, ())
    window = ClopenSet.of(ctx, [z])
    depth = required_depth([window], z) + 1
    rng = random.Random(f"sampler:{seed}")
    p = ctx.p
    counts = [[] for _ in range(p)]
    voids = 0
    for _ in range(samples):
        _, keys = sample_keys(haar, window, depth, rng)
        if not keys:
            voids += 1
        # Haar on Z_p has the one atom Z_p, whose point(m) is the integer m;
        # the child of Z_p holding it is named by its digit at position 0,
        # m mod p, which collision digits (added at positions >= depth) keep
        tally = [0] * p
        for _, m in keys:
            tally[m % p] += 1
        for series, c in zip(counts, tally):
            series.append(c)
    return counts, voids


def sampler_reports(ctx, seed, samples) -> list:
    """Moment and independence z-checks for the Poisson sampler; a worst
    z-score is reported as its own mean with unit standard error."""
    counts, voids = sampler_counts(ctx, seed, samples)
    p = ctx.p
    n = samples
    lam = 1.0 / p
    reports = []
    worst = 0.0
    means = [sum(s) / n for s in counts]
    for mean in means:
        se = math.sqrt(lam / n)
        worst = max(worst, abs(mean - lam) / se)
    reports.append(mc_report("sampler-child-means", worst, 1.0, 0.0, seed, n))
    # pairwise covariance of disjoint regions should vanish
    worst_cov = 0.0
    for i in range(p):
        for j in range(i + 1, p):
            mi, mj = means[i], means[j]
            prods = [
                (a - mi) * (b - mj)
                for a, b in zip(counts[i], counts[j])
            ]
            cov = left_sum(prods) / n
            var = left_sum((w - cov) ** 2 for w in prods) / n
            se = math.sqrt(var / n) if var > 0 else 1.0 / n
            worst_cov = max(worst_cov, abs(cov) / se)
    reports.append(mc_report("sampler-independence", worst_cov, 1.0, 0.0, seed, n))
    void_target = math.exp(-1.0)
    se = math.sqrt(void_target * (1 - void_target) / n)
    reports.append(
        mc_report("sampler-void-probability", voids / n, se, void_target, seed, n)
    )
    return reports


def verify_all(p: int, seed: int, samples: int) -> list:
    """The full deterministic battery; audit findings never fail the run."""
    ctx = PadicContext(p)
    rng = random.Random(f"verify:{seed}")
    mc_samples = max(samples, MIN_SAMPLES)
    reports = []
    reports.append(group_axiom_trials(ctx, rng, 200))
    reports.append(orientation_trials(ctx, rng, 200))
    reports.append(mass_conservation_trials(ctx, rng, 100))
    reports.append(worked_density_report(ctx))
    reports.append(laplace_trials(ctx, rng, 50))
    g = random_element(ctx, rng)
    f = random_test_function(ctx, rng)
    reports.append(check_laplace_mc(g, f, mc_samples, seed))
    reports.append(rn_trials(ctx, rng, 50))
    g = random_element(ctx, rng)
    f = random_test_function(ctx, rng)
    reports.append(check_rn_identity_mc(g, f, mc_samples, seed))
    reports.extend(isometry_reports(ctx, rng, 50))
    g0, f0 = _worked_pair(ctx)
    reports.append(check_isometry_mc(g0.inverse(), f0, mc_samples, seed))
    reports.extend(decoupling_reports(ctx, rng, 50, mc_samples, seed))
    reports.extend(composition_reports(ctx, rng, 30))
    reports.append(support_shift_trials(ctx, rng, 100))
    reports.extend(sampler_reports(ctx, seed, max(mc_samples, 10000)))
    dual = check_dual_pairing(g0, f0, f0)
    dual.name = "duality-remark-audit"
    reports.append(dual)
    return reports


def audit_random(p: int, seed: int, trials: int, tolerance: float) -> list:
    """Random composition / isometry / duality audits; findings only. An
    isometry or duality defect is a finding when it exceeds `tolerance`."""
    ctx = PadicContext(p)
    rng = random.Random(f"audit:{seed}")

    def findings(check, draws, judge) -> list:
        """The results of `trials` checks, each on inputs drawn in turn by
        `draws`, that judge(result) counts as findings."""
        results = (
            check(*[draw(ctx, rng) for draw in draws]) for _ in range(trials)
        )
        return [r for r in results if judge(r)]

    def beyond_tolerance(report) -> bool:
        report.rejudge(tolerance)
        return not report.passed

    element, fn = random_element, random_test_function
    comp = findings(
        composition_defect, (element, element, fn), lambda r: not r.is_empty
    )
    iso = findings(check_isometry, (element, fn), beyond_tolerance)
    dual = findings(check_dual_pairing, (element, fn, fn), beyond_tolerance)
    worst = max([0.0, *(r.defect for r in iso)])
    reports = [
        count_report(
            name, 0, trials, audit=True, note=f"{len(found)}/{trials} {what}"
        )
        for name, found, what in (
            ("composition-audit", comp,
             "triples violate the pointwise group property"),
            ("isometry-audit", iso,
             f"elements break isometry; worst relative defect {worst:.6g}"),
            ("duality-audit", dual, "triples violate the duality remark"),
        )
    ]
    for r in reports[1:]:  # the two counts judged at the caller's tolerance
        r.tolerance = tolerance
    return reports
