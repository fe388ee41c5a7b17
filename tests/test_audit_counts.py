"""The random audits of `audit` counted by one finding loop.

ref_audit_random keeps the three loops that `suite.audit_random` wrote out
before they shared one: each draws its inputs, re-judges a report at the
caller's tolerance (a composition region is a finding when it is nonempty)
and counts its findings; the isometry loop also keeps the worst defect among
them. The pinned reports cover only the default tolerance, so both are
compared here at tolerances on either side of every recorded defect.
"""

import random

import pytest

from padic_affine.affine import composition_defect
from padic_affine.padic import PadicContext
from padic_affine.randgen import random_element, random_test_function
from padic_affine.representation import (
    check_dual_pairing,
    check_isometry,
    count_report,
)
from padic_affine.suite import audit_random


def ref_audit_random(p, seed, trials, tolerance):
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
        r.rejudge(tolerance)
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
        r = check_dual_pairing(g, f, q)
        r.rejudge(tolerance)
        if not r.passed:
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
    for r in reports[1:]:
        r.tolerance = tolerance
    return reports


TOLERANCES = [1e-20, 1e-9, 1e-3, 0.5, 2.0]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 42])
def test_audit_counts_at_every_tolerance(p, seed):
    """Equal reports, notes and float bits included (repr tells 0.0 from
    -0.0); and the tolerance moves some count, or the test shows nothing."""
    notes = set()
    for tolerance in TOLERANCES:
        got = audit_random(p, seed, 20, tolerance)
        want = ref_audit_random(p, seed, 20, tolerance)
        assert [repr(r) for r in got] == [repr(r) for r in want]
        notes.add(tuple(r.note for r in got))
    assert len(notes) > 1
