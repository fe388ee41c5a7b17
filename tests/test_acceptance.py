"""Acceptance gate: eleven end-to-end criteria, one printed verdict line each.

Every criterion re-derives its expected values from independent closed forms
(Poisson moment generating functions, binomial standard errors, chi-square
critical values) rather than from the code under test.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from padic_affine import (
    AffineElement,
    Ball,
    ClopenSet,
    CountEvent,
    Exponential,
    IntensityMeasure,
    PadicContext,
    StepFunction,
    check_factorization,
    check_ergodic_inequality,
    check_isometry,
    check_laplace,
    check_laplace_mc,
    check_rn_identity,
    check_rn_identity_mc,
    composition_defect,
    decoupler_postconditions,
    find_decoupler,
    pushforward,
)
from padic_affine import suite
from padic_affine.cli import main as cli_main
from padic_affine.grammar import format_value, parse_value
from padic_affine.poisson import sample_config
from padic_affine.randgen import (
    random_clopen,
    random_element,
    random_measure_preserving,
    random_test_function,
    random_unit,
)
from padic_affine.stepfn import REAL
from test_grammar import CORPUS

# chi-square critical values at significance 10^-3 by degrees of freedom
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467}


def report(capsys, num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_group_algebra(capsys):
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        ctx = PadicContext(p)
        rng = random.Random(f"accept1:{p}")
        r = suite.group_axiom_trials(ctx, rng, 1000)
        ok = ok and r.passed
    elapsed = time.time() - t0
    report(
        capsys, 1, "group algebra",
        ok and elapsed < 5.0,
        f"10^3 triples per p in 2,3,5 exact; {elapsed:.1f}s < 5s",
    )


def test_criterion_02_orientation(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept2")
    t0 = time.time()
    r = suite.orientation_trials(ctx, rng, 1000)
    elapsed = time.time() - t0
    report(
        capsys, 2, "section orientation",
        r.passed and elapsed < 2.0,
        f"10^3 product-vs-composition probes exact; {elapsed:.1f}s < 2s",
    )


def test_criterion_03_pushforward_density(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept3")
    t0 = time.time()
    mass = suite.mass_conservation_trials(ctx, rng, 500)
    z = Ball(ctx, 0, ())
    g0 = AffineElement.from_parts(ctx, [(z, 3)], [])
    rho = pushforward(IntensityMeasure.haar(ctx), g0).density
    worked = (
        rho(ctx.zero()) == Fraction(1, 3)
        and rho(ctx.rational(1, 3)) == Fraction(4, 3)
        and rho(ctx.rational(2, 3)) == Fraction(4, 3)
        and rho(ctx.rational(1, 9)) == 1
    )
    # histogram of pushed uniform points over every density atom
    window = Ball(ctx, 2, ())
    inner = ClopenSet.of(ctx, [Ball(ctx, 1, ())])
    cells = [z]
    cells += list(inner.subtract(ClopenSet.of(ctx, [z])).balls)
    cells += list(
        ClopenSet.of(ctx, [window]).subtract(inner).balls
    )
    srng = random.Random("accept3:histogram")
    n = 200000
    counts = [0] * len(cells)
    for _ in range(n):
        y = g0.act_point(window.point(srng.randrange(3**4)))
        for i, c in enumerate(cells):
            if c.contains(y):
                counts[i] += 1
                break
    hist_ok = True
    wmass = float(window.measure)
    for i, c in enumerate(cells):
        expected = float(rho(c.center) * c.measure) / wmass
        se = math.sqrt(expected * (1 - expected) / n)
        if abs(counts[i] / n - expected) > 5 * se:
            hist_ok = False
    elapsed = time.time() - t0
    report(
        capsys, 3, "pushforward density",
        mass.passed and worked and hist_ok and elapsed < 60.0,
        "500 g mass-conserving exact, worked atoms exact, "
        f"2x10^5-point histogram within 5 SE; {elapsed:.1f}s < 60s",
    )


def test_criterion_04_laplace_duality(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept4")
    t0 = time.time()
    worst = 0.0
    exact_ok = True
    for _ in range(200):
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_laplace(g, f)
        worst = max(worst, r.defect)
        exact_ok = exact_ok and r.passed
    mc_ok = True
    worst_z = 0.0
    for i in range(10):
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng, vspan=1)
        r = check_laplace_mc(g, f, 100000, i)
        worst_z = max(worst_z, r.defect)
        mc_ok = mc_ok and r.passed
    elapsed = time.time() - t0
    report(
        capsys, 4, "Laplace duality",
        exact_ok and mc_ok and elapsed < 120.0,
        f"200 exact pairs worst defect {worst:.2e} <= 1e-9, 10 MC runs at "
        f"10^5 worst z {worst_z:.2f} < 5; {elapsed:.1f}s < 120s",
    )


def test_criterion_05_radon_nikodym(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept5")
    t0 = time.time()
    exponent_ok = True
    for _ in range(500):
        g = random_element(ctx, rng)
        rho = pushforward(IntensityMeasure.haar(ctx), g).density
        s = rho.deviation_support()
        if rho.integrate_transform(s, "one_minus") != 0:
            exponent_ok = False
    ident_ok = True
    worst = 0.0
    for _ in range(100):
        g = random_element(ctx, rng)
        f = random_test_function(ctx, rng)
        r = check_rn_identity(g, f)
        worst = max(worst, r.defect)
        ident_ok = ident_ok and r.passed
    g = random_element(ctx, rng)
    f = random_test_function(ctx, rng, vspan=1)
    mc = check_rn_identity_mc(g, f, 100000, 55)
    elapsed = time.time() - t0
    report(
        capsys, 5, "Radon-Nikodym chain rule",
        exponent_ok and ident_ok and mc.passed and elapsed < 120.0,
        f"500 g zero exponent exact, 100 pairs worst defect {worst:.2e} "
        f"<= 1e-9, MC replica z {mc.defect:.2f} < 5; {elapsed:.1f}s < 120s",
    )


def test_criterion_06_unitarity_audit(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept6")
    t0 = time.time()
    preserving_ok = True
    for _ in range(200):
        g = random_measure_preserving(ctx, rng)
        f = random_test_function(ctx, rng)
        if not check_isometry(g, f).passed:
            preserving_ok = False
    z = Ball(ctx, 0, ())
    g0 = AffineElement.from_parts(ctx, [(z, 3)], [])
    f0 = StepFunction.make(ctx, REAL, [(z, Fraction(1, 2))], 0)
    preserving_ok = preserving_ok and check_isometry(g0, f0).passed
    # the expanding element must be reported as a red audit finding with the
    # two squared-norm exponents (e^{2c}-1)/p and e^{2c}-1, c = 1/2
    audit = check_isometry(g0.inverse(), f0)
    want_lhs = math.exp(math.expm1(1.0) / 3)
    want_rhs = math.exp(math.expm1(1.0))
    audit_ok = (
        audit.audit
        and not audit.passed
        and abs(audit.lhs - want_lhs) <= 1e-9 * want_lhs
        and abs(audit.rhs - want_rhs) <= 1e-9 * want_rhs
    )
    elapsed = time.time() - t0
    report(
        capsys, 6, "unitarity audit",
        preserving_ok and audit_ok and elapsed < 60.0,
        "200 measure-preserving g isometric exact, expanding worked element "
        f"recorded as audit finding with exact exponents; {elapsed:.1f}s < 60s",
    )


def test_criterion_07_decoupling(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept7")
    t0 = time.time()
    post_ok = True
    for _ in range(100):
        l1, l2 = random_clopen(ctx, rng), random_clopen(ctx, rng)
        g = find_decoupler(l1, l2)
        if not all(decoupler_postconditions(g, l1, l2).values()):
            post_ok = False
    z = Ball(ctx, 0, ())
    f1 = Exponential(StepFunction.make(ctx, REAL, [(z, Fraction(1, 2))], 0))
    fac = check_factorization(f1, f1)
    fac_ok = fac.passed and abs(
        fac.lhs - math.exp(2 * math.expm1(0.5))
    ) <= 1e-9
    ev = CountEvent(((ClopenSet.of(ctx, [z]), "=", 0),))
    fac_mc = check_factorization(ev, ev, samples=20000, seed=77)
    erg = check_ergodic_inequality(ev, ev)
    erg_ok = erg.passed and abs(erg.lhs - math.exp(-2.0)) <= 1e-9
    elapsed = time.time() - t0
    report(
        capsys, 7, "decoupling and factorization",
        post_ok and fac_ok and fac_mc.passed and erg_ok and elapsed < 120.0,
        "100 random set pairs decoupled exactly, exponential factorization "
        f"exact, event pair MC z {fac_mc.defect:.2f} < 5, ergodic equality "
        f"exact; {elapsed:.1f}s < 120s",
    )


def test_criterion_08_support_shift(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept8")
    t0 = time.time()
    ok = True
    trials = 0
    while trials < 200:
        ball = Ball(ctx, rng.randint(0, 2), ())
        leaves = [ball]
        for _ in range(rng.randint(1, 3)):
            b = leaves.pop(rng.randrange(len(leaves)))
            leaves.extend(b.children())
        rng.shuffle(leaves)
        f = StepFunction.make(
            ctx, REAL,
            [(b, Fraction(rng.randint(1, 5))) for b in leaves[:2]],
            0,
        )
        t = random_unit(ctx, rng, span=4) * Fraction(3) ** rng.randint(0, 2)
        h = t * Fraction(3) ** (-ball.radius_exp)
        g = AffineElement.from_parts(ctx, [], [(ball, h)])
        trials += 1
        shifted = g.act_function(f).deviation_support()
        target = f.deviation_support().translate(-h)
        if not shifted.subtract(target).is_empty:
            ok = False
    elapsed = time.time() - t0
    report(
        capsys, 8, "support shift",
        ok and elapsed < 10.0,
        f"200 localized shifts move supports into the window minus h exactly; "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_09_sampler_statistics(capsys):
    ctx = PadicContext(3)
    haar = IntensityMeasure.haar(ctx)
    z = Ball(ctx, 0, ())
    window = ClopenSet.of(ctx, [z])
    kids = z.children()
    # four disjoint balls of measures 1/3, 1/3, 1/9, 1/9
    balls = [kids[0], kids[1]] + list(kids[2].children())[:2]
    masses = [float(b.measure) for b in balls]
    t0 = time.time()
    n = 100000
    ok = True
    worst_chi = 0.0
    worst_cov = 0.0
    worst_void = 0.0
    for seed in (101, 202, 303):
        rng = random.Random(f"accept9:{seed}")
        counts = [[0] * n for _ in balls]
        voids = 0
        for trial in range(n):
            gamma = sample_config(haar, window, 3, rng)
            if not gamma.points:
                voids += 1
            for x in gamma.points:
                for i, b in enumerate(balls):
                    if b.contains(x):
                        counts[i][trial] += 1
                        break
        totals = [sum(c) for c in counts]
        grand = sum(totals)
        frac = sum(masses)
        chi = sum(
            (tot - grand * m / frac) ** 2 / (grand * m / frac)
            for tot, m in zip(totals, masses)
        )
        worst_chi = max(worst_chi, chi)
        if chi >= CHI2_CRIT[len(balls) - 1]:
            ok = False
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                mi, mj = totals[i] / n, totals[j] / n
                prods = [
                    (a - mi) * (b - mj)
                    for a, b in zip(counts[i], counts[j])
                ]
                cov = sum(prods) / n
                var = sum((w - cov) ** 2 for w in prods) / n
                se = math.sqrt(var / n) if var > 0 else 1.0 / n
                worst_cov = max(worst_cov, abs(cov) / se)
                if abs(cov) / se >= 5.0:
                    ok = False
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / n)
        zscore = abs(voids / n - target) / se
        worst_void = max(worst_void, zscore)
        if zscore > 5.0:
            ok = False
    elapsed = time.time() - t0
    report(
        capsys, 9, "sampler statistics",
        ok and elapsed < 60.0,
        f"3 seeds at 10^5: worst chi-square {worst_chi:.1f} < "
        f"{CHI2_CRIT[3]}, worst covariance z {worst_cov:.2f} < 5, worst void "
        f"z {worst_void:.2f} < 5; {elapsed:.1f}s < 60s",
    )


def test_criterion_10_composition_audit(capsys):
    ctx = PadicContext(3)
    rng = random.Random("accept10")
    t0 = time.time()
    z = Ball(ctx, 0, ())
    g1 = AffineElement.from_parts(ctx, [], [(z, Fraction(1, 3))])
    g2 = AffineElement.from_parts(ctx, [], [(z, 1)])
    shell = Ball.from_center(ctx.rational(1, 3), 0)
    f = StepFunction.make(
        ctx, REAL,
        [(b, i + 1) for i, b in enumerate(shell.children())],
        0,
    )
    region = composition_defect(g1, g2, f)
    counter_ok = (
        not region.is_empty
        and ClopenSet.of(ctx, [z]).subtract(region).is_empty
    )
    disjoint_ok = True
    for _ in range(30):
        kids = z.children()
        b1, b2 = kids[0], kids[1]
        ga = AffineElement.from_parts(
            ctx, [], [(b1, random_unit(ctx, rng) * Fraction(1, 3))]
        )
        gb = AffineElement.from_parts(
            ctx, [], [(b2, random_unit(ctx, rng) * Fraction(1, 3))]
        )
        fr = random_test_function(ctx, rng)
        if not composition_defect(ga, gb, fr).is_empty:
            disjoint_ok = False
    elapsed = time.time() - t0
    report(
        capsys, 10, "composition audit",
        counter_ok and disjoint_ok and elapsed < 10.0,
        "documented counterexample region contains Z_3 exactly, 30 "
        f"non-interacting pairs commute exactly; {elapsed:.1f}s < 10s",
    )


def test_criterion_11_cli(capsys):
    ctx = PadicContext(3)
    t0 = time.time()
    corpus_ok = len(CORPUS) >= 50
    for text in CORPUS:
        printed = format_value(parse_value(text, ctx))
        if format_value(parse_value(printed, ctx)) != printed:
            corpus_ok = False
    outs = []
    codes = []
    for _ in range(2):
        code = cli_main(
            ["--json", "verify-all", "--p", "3", "--seed", "42"]
        )
        codes.append(code)
        outs.append(capsys.readouterr().out)
    deterministic = outs[0] == outs[1] and codes == [0, 0]
    payload = json.loads(outs[0])
    hard_green = all(r["pass"] or r["audit"] for r in payload)
    elapsed = time.time() - t0
    report(
        capsys, 11, "CLI round trip and verify-all",
        corpus_ok and deterministic and hard_green and elapsed < 120.0,
        f"{len(CORPUS)}-literal corpus round-trips bit-exact, verify-all "
        f"deterministic and exits 0; {elapsed:.1f}s",
    )
