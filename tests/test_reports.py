"""The verdict layer: every CheckReport is built and re-judged in
`representation`.

`suite` and `cli` hand it numbers; they build no report themselves and read
none of its tolerances or modes.
"""

import ast
import math
from dataclasses import fields
from pathlib import Path

import pytest

from padic_affine.errors import PadicAffineError
from padic_affine.representation import (
    MC_SIGMA,
    MONTE_CARLO,
    CheckReport,
    _exact_report,
    mc_report,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_affine"
VERDICT_CONSTANTS = {"EXACT", "EXACT_TOL", "MC_SIGMA", "MONTE_CARLO"}


def ref_z_report(name, lhs, rhs, z, seed, samples):
    """The sampler's own report builder before it went through mc_report."""
    return CheckReport(
        name=name,
        mode=MONTE_CARLO,
        lhs=lhs,
        rhs=rhs,
        defect=z,
        passed=z <= MC_SIGMA,
        tolerance=MC_SIGMA,
        seed=seed,
        samples=samples,
    )


def field_reprs(report):
    # repr tells 0.0 from -0.0 and keeps every float bit
    return [(f.name, repr(getattr(report, f.name))) for f in fields(report)]


WORST = [0.0, 1e-300, 0.7, 3.25, MC_SIGMA, math.nextafter(MC_SIGMA, 6.0), 41.5]


@pytest.mark.parametrize("name", ["sampler-child-means", "sampler-independence"])
@pytest.mark.parametrize("worst", WORST)
def test_worst_z_is_its_own_mean(name, worst):
    """A worst z-score as a mean with unit standard error against 0."""
    got = mc_report(name, worst, 1.0, 0.0, 42, 10000)
    want = ref_z_report(name, worst, 0.0, worst, 42, 10000)
    assert field_reprs(got) == field_reprs(want)


@pytest.mark.parametrize("voids", [0, 1, 3000, 3679, 3900, 10000])
def test_void_probability(voids):
    n = 10000
    target = math.exp(-1.0)
    se = math.sqrt(target * (1 - target) / n)
    z = abs(voids / n - target) / se
    got = mc_report("sampler-void-probability", voids / n, se, target, 0, n)
    want = ref_z_report("sampler-void-probability", voids / n, target, z, 0, n)
    assert field_reprs(got) == field_reprs(want)


@pytest.mark.parametrize("lhs, rhs", [
    (math.inf, math.inf), (math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0),
])
def test_non_finite_exact_sides_raise(lhs, rhs):
    """inf against inf has a nan defect, which would print as a failure."""
    with pytest.raises(PadicAffineError):
        _exact_report("laplace-duality", lhs, rhs)


def _verdict_leaks(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if "CheckReport" in (getattr(func, "id", None), getattr(func, "attr", None)):
                yield f"{node.lineno}: calls CheckReport"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in VERDICT_CONSTANTS:
                    yield f"{node.lineno}: imports {alias.name}"
        elif isinstance(node, ast.Attribute) and node.attr in VERDICT_CONSTANTS:
            yield f"{node.lineno}: reads {node.attr}"


@pytest.mark.parametrize("module", ["suite.py", "cli.py"])
def test_no_verdict_outside_representation(module):
    path = PACKAGE / module
    leaks = list(_verdict_leaks(ast.parse(path.read_text(), filename=str(path))))
    assert not leaks
