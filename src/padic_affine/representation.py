"""Radon-Nikodym densities, the candidate unitary operators, and the audit
operations for every identity the construction claims.

Identities that hold exactly in this class are hard checks (a failing report
is a bug); identities that fail for specific elements (pointwise composition
of the function action, isometry for contracting coefficients, the literal
decoupling geometry) are audits: the exact defect is recorded as a finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineElement
from .errors import (
    ContractViolation, PadicAffineError, UnboundedIntegral, UnsupportedShape,
    WindowMismatch,
)
from .measure import IntensityMeasure, pushforward
from .padic import Ball, ClopenSet
from .poisson import (
    Configuration,
    CountEvent,
    CylinderFunction,
    Exponential,
    exp_checked,
    laplace_exponent,
    laplace_sum,
    mc_atoms,
    mc_run,
    product_evaluator,
    window_cells,
)
from .poisson import expect_exact as poisson_expect_exact
from .stepfn import StepFunction

EXACT_TOL = 1e-9
MC_SIGMA = 5.0
EXP_LIMIT = 700.0

EXACT = "exact"
MONTE_CARLO = "monte-carlo"


@dataclass
class CheckReport:
    """Outcome of one identity check; every verdict is made in this module.

    In exact mode the defect is a relative difference and the tolerance is
    EXACT_TOL; in Monte Carlo mode the defect is a z-score against the
    standard error and the tolerance is MC_SIGMA. Reports flagged as audits
    record findings instead of failing a run.
    """

    name: str
    mode: str
    lhs: float
    rhs: float
    defect: float
    passed: bool
    tolerance: float
    audit: bool = False
    seed: int = None
    samples: int = None
    note: str = None
    # set when the verdict rests on more than defect <= tolerance (a failure
    # count, or a bound checked besides the defect), so that a caller's
    # tolerance must not re-judge it
    fixed_verdict: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "defect": self.defect,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "audit": self.audit,
            "seed": self.seed,
            "samples": self.samples,
            "note": self.note,
        }

    def rejudge(self, tolerance: float) -> None:
        """Judge a relative difference against a caller's tolerance;
        z-scores, counts and fixed verdicts keep theirs."""
        if self.mode == EXACT and not self.fixed_verdict:
            self.tolerance = tolerance
            self.passed = self.defect <= tolerance


def _exact_report(name, lhs, rhs, audit=False, note=None) -> CheckReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        # inf against inf would give a nan defect, which no tolerance passes
        raise PadicAffineError(f"{name}: the compared values overflow a float")
    defect = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        name=name,
        mode=EXACT,
        lhs=lhs,
        rhs=rhs,
        defect=defect,
        passed=defect <= EXACT_TOL,
        tolerance=EXACT_TOL,
        audit=audit,
        note=note,
    )


def _exp_report(name, lhs, rhs, audit=False, note=None, compared="compared exponents"):
    """Exact report on e^lhs against e^rhs. Past EXP_LIMIT the exponentials
    would overflow a float, so the exponents are compared instead; they
    agree exactly when the exponentials do."""
    if max(abs(lhs), abs(rhs)) > EXP_LIMIT:
        note = f"{note}; {compared}" if note else compared
        return _exact_report(name, lhs, rhs, audit=audit, note=note)
    return _exact_report(name, math.exp(lhs), math.exp(rhs), audit=audit, note=note)


def _importance_evaluator(atoms, scale: float):
    """Nonzero counts, as mc_run passes them, -> prod_i rho_i^{c_i} ·
    exp(scale · sum_i c_i f_i) over atoms whose values are (rho, f): an
    exponential under an importance weight."""
    rho_vals = [float(vals[0]) for _, _, vals in atoms]
    f_vals = [float(vals[1]) for _, _, vals in atoms]

    def ev(pairs):
        w = 1.0
        s = 0.0
        for i, c in pairs:
            w *= rho_vals[i] ** c
            s += scale * c * f_vals[i]
        return w * math.exp(s)

    return ev


def count_report(name, failures, trials, audit=False, note=None) -> CheckReport:
    # passes only with no failure: defect <= EXACT_TOL, whatever the caller's
    # tolerance
    return CheckReport(
        name=name,
        mode=EXACT,
        lhs=float(failures),
        rhs=0.0,
        defect=float(failures),
        passed=failures == 0,
        tolerance=EXACT_TOL,
        audit=audit,
        note=note or f"{trials} trials",
        fixed_verdict=True,
    )


def mc_report(name, mean, se, target, seed, samples, audit=False):
    if se == 0.0:
        z = 0.0 if mean == target else float("inf")
    else:
        z = abs(mean - target) / se
    return CheckReport(
        name=name,
        mode=MONTE_CARLO,
        lhs=mean,
        rhs=float(target),
        defect=z,
        passed=z <= MC_SIGMA,
        tolerance=MC_SIGMA,
        audit=audit,
        seed=seed,
        samples=samples,
    )


# -- Radon-Nikodym ----------------------------------------------------------


def rn_factors(g: AffineElement, gamma: Configuration):
    """(product of rho_g over the points, exact integral of (1 - rho_g) dm).

    The integral is 0 for every g by mass conservation; both factors are
    still computed and reported."""
    rho = pushforward(IntensityMeasure.haar(g.ctx), g).density
    support = rho.deviation_support()
    if not support.subtract(gamma.window).is_empty:
        raise WindowMismatch("window must cover the density deviation support")
    product = Fraction(1)
    for x in gamma.points:
        product *= rho.evaluate(x)
    exponent = rho.integrate_transform(support, "one_minus")
    return product, exponent


def rn_density(g: AffineElement, gamma: Configuration) -> float:
    """R(g, gamma) = prod_x rho_g(x) · exp(int (1 - rho_g) dm); 0 is legal."""
    product, exponent = rn_factors(g, gamma)
    return float(product) * math.exp(float(exponent))


def check_rn_identity(g: AffineElement, f: StepFunction) -> CheckReport:
    """Closed-form comparison of E_m[R(g,·) e^{<f,·>}] with E_{g*m}[e^{<f,·>}]."""
    if f.tail != 0:
        raise UnboundedIntegral("test function must vanish at infinity")
    mu = pushforward(IntensityMeasure.haar(g.ctx), g)
    cells = window_cells(mu, [f])
    # first: it raises the typed error for an f whose exponential overflows
    # a float
    rhs_exp = laplace_sum(cells)
    # E_m[R e^{<f>}] = exp(int (rho e^f - 1) dm), tail contributes 0
    lhs_exp = math.fsum(
        (float(rv) * math.exp(fv) - 1.0) * float(cell.measure)
        for cell, (fv, rv) in cells
    )
    return _exp_report("rn-identity", lhs_exp, rhs_exp)


def check_rn_identity_mc(
    g: AffineElement, f: StepFunction, samples: int, seed: int
) -> CheckReport:
    """Monte Carlo replica: rn_density as an importance weight under pi_m."""
    haar = IntensityMeasure.haar(g.ctx)
    mu = pushforward(haar, g)
    # the target first: past a float's range the check is refused before
    # any sampling
    target = exp_checked(laplace_exponent(f, mu))
    atoms = mc_atoms(haar, [mu.density, f])
    mean, se = mc_run(atoms, _importance_evaluator(atoms, 1.0), samples, seed)
    return mc_report("rn-identity-mc", mean, se, target, seed, samples)


# -- Laplace duality (central identity) -------------------------------------


def check_laplace(g: AffineElement, f: StepFunction) -> CheckReport:
    """int V_g F dpi_m = int F dpi_{g*m} for exponential F, both closed-form."""
    haar = IntensityMeasure.haar(g.ctx)
    lhs = laplace_exponent(g.act_function(f), haar)
    rhs = laplace_exponent(f, pushforward(haar, g))
    return _exp_report("laplace-duality", lhs, rhs)


def check_laplace_mc(
    g: AffineElement, f: StepFunction, samples: int, seed: int
) -> CheckReport:
    haar = IntensityMeasure.haar(g.ctx)
    target = exp_checked(laplace_exponent(f, pushforward(haar, g)))
    atoms, ev = product_evaluator(haar, [Exponential(g.act_function(f))])
    mean, se = mc_run(atoms, ev, samples, seed)
    return mc_report("laplace-duality-mc", mean, se, target, seed, samples)


def check_dual_pairing(
    g: AffineElement, f: StepFunction, q: StepFunction
) -> CheckReport:
    """Audit of the duality int V_gF·G dpi_m = int F·V_{g^{-1}}G dpi_{g*m}
    for exponential F, G; nonzero defect is a recorded finding."""
    haar = IntensityMeasure.haar(g.ctx)
    lhs = laplace_exponent(g.act_function(f) + q, haar)
    rhs = laplace_exponent(
        f + g.inverse().act_function(q), pushforward(haar, g)
    )
    return _exp_report("duality-remark", lhs, rhs, audit=True)


# -- isometry of U_g --------------------------------------------------------


def check_isometry(g: AffineElement, f: StepFunction) -> CheckReport:
    """Audit of ||U_g e^{<f>}||^2 = ||e^{<f>}||^2; the defect is zero exactly
    when the g^{-1}-then-g pushforward round trip restores Haar on supp 2f."""
    haar = IntensityMeasure.haar(g.ctx)
    nu = pushforward(pushforward(haar, g.inverse()), g)
    two_f = f.map_values(lambda v: 2 * v)
    lhs = laplace_exponent(two_f, nu)
    rhs = laplace_exponent(two_f, haar)
    note = None
    # canonical densities are equal exactly when roundtrip_defect(g) == 0
    if nu != haar:
        note = "pushforward round trip does not restore Haar"
    return _exp_report(
        "isometry", lhs, rhs, audit=True, note=note,
        compared="compared log squared norms",
    )


def check_isometry_mc(
    g: AffineElement, f: StepFunction, samples: int, seed: int
) -> CheckReport:
    """Monte Carlo replica of the squared norm: sample pi_m and average
    R(g^{-1}, gamma) · e^{2<gf, gamma>}."""
    haar = IntensityMeasure.haar(g.ctx)
    back = pushforward(haar, g.inverse())
    nu = pushforward(back, g)
    target = exp_checked(laplace_exponent(f.map_values(lambda v: 2 * v), nu))
    atoms = mc_atoms(haar, [back.density, g.act_function(f)])
    mean, se = mc_run(atoms, _importance_evaluator(atoms, 2.0), samples, seed)
    return mc_report("isometry-mc", mean, se, target, seed, samples, audit=True)


# -- decoupling and ergodicity ----------------------------------------------


def find_decoupler(l1: ClopenSet, l2: ClopenSet) -> AffineElement:
    """A localized translation g = (1, h·1_B) moving L2 off L1 inside a
    strictly larger zero-centered ball, with Haar preserved exactly."""
    ctx = l1.ctx
    shell = max(0, l1.enclosing_zero_exp(), l2.enclosing_zero_exp()) + 1
    ball = Ball(ctx, shell, ())
    return AffineElement.from_parts(ctx, [], [(ball, Fraction(1, ctx.p**shell))])


def decoupler_shift(g: AffineElement):
    """(B, h) of a pure localized shift; raises if g is not of that form."""
    if g.a.parts or g.a.tail != 1:
        raise ContractViolation("decoupler must have a = 1")
    if len(g.b.parts) != 1 or g.b.tail != 0:
        raise ContractViolation("decoupler must shift a single ball")
    ball, h = g.b.parts[0]
    return ball, h


def decoupler_postconditions(
    g: AffineElement, l1: ClopenSet, l2: ClopenSet
) -> dict:
    """The four exact clopen facts guaranteeing the factorization."""
    ball, h = decoupler_shift(g)
    bset = ClopenSet.of(g.ctx, [ball])
    shifted = l2.translate(-h)
    haar = IntensityMeasure.haar(g.ctx)
    return {
        "l2-inside-b": l2.subtract(bset).is_empty,
        "shifted-l2-inside-b": shifted.subtract(bset).is_empty,
        "shifted-l2-misses-l1": shifted.intersect(l1).is_empty,
        "haar-preserved": pushforward(haar, g) == haar,
    }


def check_factorization(
    f1: CylinderFunction, f2: CylinderFunction, samples=None, seed=0
) -> CheckReport:
    """int F1 · V_g F2 dpi_m = int F1 dpi_m · int F2 dpi_m with the decoupler.

    Exponential pairs are exact; other shapes go through Monte Carlo."""
    g = find_decoupler(f1.window(), f2.window())
    haar = IntensityMeasure.haar(g.ctx)
    moved = f2.transform(g)
    if isinstance(f1, Exponential) and isinstance(f2, Exponential):
        lhs = laplace_exponent(f1.f + moved.f, haar)
        rhs = laplace_exponent(f1.f, haar) + laplace_exponent(f2.f, haar)
        return _exp_report("factorization", lhs, rhs)
    if samples is None:
        raise UnsupportedShape("non-exponential pairs need a sample budget")
    mean, se = mc_run(*product_evaluator(haar, [f1, moved]), samples, seed)
    target = poisson_expect_exact(f1, haar) * poisson_expect_exact(f2, haar)
    return mc_report("factorization-mc", mean, se, target, seed, samples)


def check_invariance(f: CylinderFunction, g: AffineElement) -> CheckReport:
    """int V_g F dpi_m = int F dpi_m for a pure localized shift.

    Under the repaired geometry (window and shifted window both inside the
    shifted ball) this is exact; under the literal disjointness condition the
    transformed function degenerates to a constant and the report records
    that finding instead."""
    ball, h = decoupler_shift(g)
    bset = ClopenSet.of(g.ctx, [ball])
    window = f.window()
    haar = IntensityMeasure.haar(g.ctx)
    moved = f.transform(g)
    lhs = poisson_expect_exact(moved, haar)
    rhs = poisson_expect_exact(f, haar)
    repaired = (
        window.subtract(bset).is_empty
        and window.translate(-h).subtract(bset).is_empty
    )
    if repaired:
        return _exact_report("invariance", lhs, rhs)
    literal = window.intersect(bset.translate(h)).is_empty
    if literal:
        # the window is the union of the supports
        degenerate = moved.window().is_empty
        note = (
            "literal contract: transformed supports are empty"
            if degenerate
            else "literal contract"
        )
        return _exact_report("invariance-literal", lhs, rhs, audit=True, note=note)
    raise ContractViolation(
        "shift does not satisfy the repaired or the literal geometry"
    )


def check_ergodic_inequality(a1: CountEvent, a2: CountEvent) -> CheckReport:
    """E[1_{A1} · V_g 1_{A2}] >= (1/2) P(A1) P(A2), realized with equality by
    a decoupler. Exact: the decoupler moves A2's window off A1's, so the
    joint event has a closed form whenever both events do."""
    g = find_decoupler(a1.window(), a2.window())
    haar = IntensityMeasure.haar(g.ctx)
    moved = a2.transform(g)
    target = poisson_expect_exact(a1, haar) * poisson_expect_exact(a2, haar)
    combined = CountEvent(a1.conditions + moved.conditions)
    lhs = poisson_expect_exact(combined, haar)
    report = _exact_report("ergodic-inequality", lhs, target)
    if lhs < 0.5 * target - EXACT_TOL:
        report.passed = False
        report.note = "below half the product bound"
        report.fixed_verdict = True
    return report
