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
    CountEvent,
    Exponential,
    required_depth,
    sample_config,
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
from .stepfn import PADIC, REAL, StepFunction


def group_axiom_trials(ctx, rng, trials) -> CheckReport:
    """Associativity, identity and two-sided inverse by exact canonical-form
    equality of stored pairs."""
    e = AffineElement.identity(ctx)
    failures = 0
    for _ in range(trials):
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        g3 = random_element(ctx, rng)
        if multiply(multiply(g1, g2), g3) != multiply(g1, multiply(g2, g3)):
            failures += 1
        if multiply(g1, e) != g1 or multiply(e, g1) != g1:
            failures += 1
        inv = g1.inverse()
        if not multiply(g1, inv).is_identity():
            failures += 1
        if not multiply(inv, g1).is_identity():
            failures += 1
    return count_report("group-axioms", failures, trials)


def orientation_trials(ctx, rng, trials) -> CheckReport:
    """The product's action at x equals left-factor-first composition of the
    section actions, exactly."""
    failures = 0
    for _ in range(trials):
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        x = random_point(ctx, rng)
        prod = multiply(g1, g2)
        via_product = prod.section(x).act(x)
        via_sections = pair_product(g1.section(x), g2.section(x)).act(x)
        if via_product != via_sections:
            failures += 1
        # constant-pair composition: the left factor acts first
        left_first = pair_product(g1.section(x), g2.section(x))
        y = g2.section(x).act(g1.section(x).act(x))
        if left_first.act(x) != y:
            failures += 1
    return count_report("section-orientation", failures, trials)


def mass_conservation_trials(ctx, rng, trials) -> CheckReport:
    haar = IntensityMeasure.haar(ctx)
    failures = 0
    for _ in range(trials):
        g = random_element(ctx, rng)
        rho = pushforward(haar, g).density
        support = rho.deviation_support()
        if rho.integrate_transform(support, "one_minus") != 0:
            failures += 1
    return count_report("mass-conservation", failures, trials)


def worked_density_report(ctx) -> CheckReport:
    """The contracting worked element has the exact three-level density."""
    z = Ball(ctx, 0, ())
    g0 = AffineElement.from_parts(ctx, [(z, ctx.p)], [])
    rho = pushforward(IntensityMeasure.haar(ctx), g0).density
    shell = ClopenSet.of(ctx, [Ball(ctx, 1, ())]).subtract(ClopenSet.of(ctx, [z]))
    p = ctx.p
    ok = (
        rho.evaluate(ctx.zero()) == Fraction(1, p)
        and all(rho.evaluate(b.center) == 1 + Fraction(1, p) for b in shell.balls)
        and rho.tail == 1
    )
    return count_report("worked-density", 0 if ok else 1, 1)


def _exact_trials(name, check, ctx, rng, trials) -> CheckReport:
    """check(g, f) on random (g, f): the failures, and the worst defect."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check(g, f)
        worst = max(worst, r.defect)
        if not r.passed:
            failures += 1
    out = count_report(name, failures, trials)
    out.defect = worst
    return out


def laplace_trials(ctx, rng, trials) -> CheckReport:
    return _exact_trials("laplace-duality", check_laplace, ctx, rng, trials)


def rn_trials(ctx, rng, trials) -> CheckReport:
    return _exact_trials("rn-identity", check_rn_identity, ctx, rng, trials)


def isometry_reports(ctx, rng, trials) -> list:
    haar_trials = 0
    failures = 0
    for _ in range(trials):
        g = random_measure_preserving(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_isometry(g, f)
        haar_trials += 1
        if not r.passed:
            failures += 1
    z = Ball(ctx, 0, ())
    g0 = AffineElement.from_parts(ctx, [(z, ctx.p)], [])
    f0 = StepFunction.make(ctx, REAL, [(z, Fraction(1, 2))], 0)
    r0 = check_isometry(g0, f0)
    if not r0.passed:
        failures += 1
    out = [count_report("isometry-preserving", failures, haar_trials + 1)]
    g1 = g0.inverse()
    audit = check_isometry(g1, f0)
    audit.name = "isometry-contracting-audit"
    audit.audit = True
    out.append(audit)
    return out


def decoupling_reports(ctx, rng, trials, samples, seed) -> list:
    failures = 0
    for _ in range(trials):
        l1 = random_clopen(ctx, rng)
        l2 = random_clopen(ctx, rng)
        g = find_decoupler(l1, l2)
        post = decoupler_postconditions(g, l1, l2)
        if not all(post.values()):
            failures += 1
    out = [count_report("decoupler-postconditions", failures, trials)]
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
    failures = 0
    for _ in range(trials):
        balls = random_disjoint_balls(ctx, rng, 2)
        if len(balls) < 2:
            continue
        b1, b2 = balls[0], balls[1]
        h1 = random_in_ball_shift(ctx, rng, b1)
        h2 = random_in_ball_shift(ctx, rng, b2)
        ga = AffineElement.from_parts(ctx, [], [(b1, h1)])
        gb = AffineElement.from_parts(ctx, [], [(b2, h2)])
        ftest = random_test_function(ctx, rng)
        if not composition_defect(ga, gb, ftest).is_empty:
            failures += 1
    ok = count_report("composition-disjoint-pairs", failures, trials)
    return [finding, ok]


def random_in_ball_shift(ctx, rng, ball) -> Fraction:
    t = random_unit(ctx, rng, span=4) * Fraction(ctx.p) ** rng.randint(0, 2)
    return t * Fraction(ctx.p) ** (-ball.radius_exp)


def support_shift_trials(ctx, rng, trials) -> CheckReport:
    failures = 0
    for _ in range(trials):
        ball = Ball(ctx, rng.randint(0, 2), ())
        f = random_test_function(ctx, rng)
        support = f.deviation_support()
        if not support.subtract(ClopenSet.of(ctx, [ball])).is_empty:
            continue  # keep only supp f inside B
        h = random_in_ball_shift(ctx, rng, ball)
        g = AffineElement(
            StepFunction.constant(ctx, PADIC, 1),
            StepFunction.make(ctx, PADIC, [(ball, h)], 0),
        )
        shifted = g.act_function(f).deviation_support()
        target = support.translate(-h)
        if not shifted.subtract(target).is_empty:
            failures += 1
    return count_report("support-shift", failures, trials)


def sampler_reports(ctx, seed, samples) -> list:
    """Moment and independence z-checks for the Poisson sampler; a worst
    z-score is reported as its own mean with unit standard error."""
    haar = IntensityMeasure.haar(ctx)
    z = Ball(ctx, 0, ())
    window = ClopenSet.of(ctx, [z])
    depth = required_depth([window], z) + 1
    rng = random.Random(f"sampler:{seed}")
    p = ctx.p
    counts = [[] for _ in range(p)]  # per child of Z_p, in digit order
    voids = 0
    n = samples
    for _ in range(n):
        cfg = sample_config(haar, window, depth, rng)
        if not cfg.points:
            voids += 1
        # the child of Z_p holding x is named by the digit of x at position
        # 0, which is x mod p; x lies in Z_p, so p divides no denominator
        tally = [0] * p
        for x in cfg.points:
            q = x.frac
            tally[q.numerator * pow(q.denominator, -1, p) % p] += 1
        for series, c in zip(counts, tally):
            series.append(c)
    lam = 1.0 / ctx.p
    reports = []
    worst = 0.0
    for i, series in enumerate(counts):
        mean = sum(series) / n
        se = math.sqrt(lam / n)
        worst = max(worst, abs(mean - lam) / se)
    reports.append(mc_report("sampler-child-means", worst, 1.0, 0.0, seed, n))
    # pairwise covariance of disjoint regions should vanish
    worst_cov = 0.0
    for i in range(p):
        for j in range(i + 1, p):
            mi = sum(counts[i]) / n
            mj = sum(counts[j]) / n
            prods = [
                (a - mi) * (b - mj)
                for a, b in zip(counts[i], counts[j])
            ]
            cov = sum(prods) / n
            var = sum((w - cov) ** 2 for w in prods) / n
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
    mc_samples = max(samples, 1000)
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
    z = Ball(ctx, 0, ())
    g0 = AffineElement.from_parts(ctx, [(z, ctx.p)], [])
    f0 = StepFunction.make(ctx, REAL, [(z, Fraction(1, 2))], 0)
    reports.append(check_isometry_mc(g0.inverse(), f0, mc_samples, seed))
    reports.extend(decoupling_reports(ctx, rng, 50, mc_samples, seed))
    reports.extend(composition_reports(ctx, rng, 30))
    reports.append(support_shift_trials(ctx, rng, 100))
    reports.extend(sampler_reports(ctx, seed, max(mc_samples, 10000)))
    dual = check_dual_pairing(g0, f0, f0)
    dual.name = "duality-remark-audit"
    reports.append(dual)
    return reports


def audit_random(p: int, seed: int, trials: int) -> list:
    """Random composition / isometry / duality audits; findings only."""
    ctx = PadicContext(p)
    rng = random.Random(f"audit:{seed}")
    reports = []
    comp_findings = 0
    for _ in range(trials):
        g1 = random_element(ctx, rng)
        g2 = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        if not composition_defect(g1, g2, f).is_empty:
            comp_findings += 1
    reports.append(
        count_report(
            "composition-audit",
            0,
            trials,
            audit=True,
            note=f"{comp_findings}/{trials} triples violate the pointwise group property",
        )
    )
    iso_findings = 0
    worst = 0.0
    for _ in range(trials):
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_isometry(g, f)
        if not r.passed:
            iso_findings += 1
            worst = max(worst, r.defect)
    reports.append(
        count_report(
            "isometry-audit",
            0,
            trials,
            audit=True,
            note=(
                f"{iso_findings}/{trials} elements break isometry; "
                f"worst relative defect {worst:.6g}"
            ),
        )
    )
    dual_findings = 0
    for _ in range(trials):
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        q = random_test_function(ctx, rng)
        if not check_dual_pairing(g, f, q).passed:
            dual_findings += 1
    reports.append(
        count_report(
            "duality-audit",
            0,
            trials,
            audit=True,
            note=f"{dual_findings}/{trials} triples violate the duality remark",
        )
    )
    return reports
