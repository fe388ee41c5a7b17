"""Command line behavior: argument handling, exit codes, determinism."""

import json

import pytest

from padic_affine import representation
from padic_affine.cli import RunConfig, _retolerance, main
from padic_affine.padic import Ball, ClopenSet, PadicContext
from padic_affine.poisson import CountEvent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


G0 = "aff(a = {B(0;0): 3 | tail 1}, b = {| tail 0})"
G1 = "aff(a = {B(0;0): 1/3 | tail 1}, b = {| tail 0})"
F = "{B(0;0): 1/2 | tail 0}"


class TestPushforward:
    def test_worked_density(self, capsys):
        code, out, _ = run(capsys, "--p", "3", "pushforward", "--g", G0)
        assert code == 0
        assert "B(0;0): 1/3" in out
        assert "l1-deviation = 4/3" in out
        assert "roundtrip-defect = 0" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "--p", "3", "--json", "pushforward", "--g", G1)
        assert code == 0
        payload = json.loads(out)
        assert payload["roundtrip_defect"] == "4/3"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(G0)
        code, out, _ = run(capsys, "pushforward", "--g", f"@{path}")
        assert code == 0
        assert "4/3" in out


class TestChecks:
    def test_laplace_exact(self, capsys):
        code, out, _ = run(capsys, "laplace", "--g", G0, "--f", F)
        assert code == 0
        assert "pass" in out

    def test_laplace_mc_flag(self, capsys):
        code, out, _ = run(
            capsys, "--json", "laplace", "--g", G0, "--f", F,
            "--mc", "--samples", "2000",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["name"] for r in payload] == [
            "laplace-duality", "laplace-duality-mc",
        ]
        assert all(r["pass"] for r in payload)

    def test_rn(self, capsys):
        code, out, _ = run(capsys, "rn", "--g", G1, "--f", F)
        assert code == 0

    def test_unitarity_audit_exits_zero(self, capsys):
        """The expanding element breaks the isometry, but the finding is an
        audit, so the run still succeeds."""
        code, out, _ = run(capsys, "--json", "unitarity", "--g", G1, "--f", F)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["audit"]
        assert not payload[0]["pass"]

    def test_unitarity_preserving_passes(self, capsys):
        code, out, _ = run(capsys, "--json", "unitarity", "--g", G0, "--f", F)
        assert code == 0
        assert json.loads(out)[0]["pass"]

    def test_tolerance_override(self, capsys):
        code, out, _ = run(
            capsys, "--json", "laplace", "--g", G0, "--f", F,
            "--tolerance", "0.5",
        )
        payload = json.loads(out)
        assert payload[0]["tolerance"] == 0.5


class TestToleranceScope:
    """--tolerance re-judges relative differences only."""

    def config(self, tolerance):
        return RunConfig(
            p=3, seed=0, samples=1000, depth_margin=1, tolerance=tolerance,
            as_json=False,
        )

    def test_count_reports_keep_their_verdict(self):
        report = representation.count_report("group-axioms", 1, 10)
        [out] = _retolerance([report], self.config(2.0))
        assert not out.passed

    def test_z_scores_keep_their_verdict(self):
        report = representation.mc_report("laplace-duality-mc", 1.0, 0.1, 2.0, 0, 1000)
        [out] = _retolerance([report], self.config(100.0))
        assert (out.passed, out.tolerance) == (False, representation.MC_SIGMA)

    def test_ergodic_bound_failure_stays(self, monkeypatch):
        ctx = PadicContext(3)
        event = CountEvent(((ClopenSet.of(ctx, [Ball(ctx, 0, ())]), ">=", 1),))
        # a joint probability below half the product of the marginals
        monkeypatch.setattr(
            representation, "poisson_expect_exact",
            lambda f, mu: 0.3 if len(f.conditions) > 1 else 0.9,
        )
        report = representation.check_ergodic_inequality(event, event)
        assert not report.passed
        [out] = _retolerance([report], self.config(2.0))
        assert not out.passed
        assert out.note == "below half the product bound"


IDENTITY = "aff(a = {| tail 1}, b = {| tail 0})"
COMMANDS = ["laplace", "rn", "unitarity"]


class TestFloatRange:
    @pytest.mark.parametrize("command", ["laplace", "rn", "unitarity"])
    def test_large_exponent_compares_exponents(self, capsys, command):
        """With f = 100 on Z_3 the expectations are e^(e^100 - 1) and
        beyond; the report compares their exponents."""
        code, out, err = run(
            capsys, "--p", "3", command, "--g", IDENTITY,
            "--f", "{B(0;0): 100 | tail 0}",
        )
        assert code == 0
        assert err == ""
        assert "compared" in out

    @pytest.mark.parametrize("command, f", [
        # e^1000 overflows while the exponent is computed
        *[pytest.param(c, "{B(0;0): 1000 | tail 0}", id=c) for c in COMMANDS],
        # expm1(709) · 27 overflows to inf without raising: both exponents
        # are inf, and their defect would be nan
        *[
            pytest.param(c, "{B(0;3): 709 | tail 0}", id=f"{c}-inf-exponent")
            for c in COMMANDS
        ],
    ])
    def test_value_beyond_float_range_exits_2(self, capsys, command, f):
        code, out, err = run(capsys, "--p", "3", command, "--g", IDENTITY, "--f", f)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["laplace", "rn", "unitarity"])
    def test_mc_target_beyond_float_range_exits_2(self, capsys, command):
        code, out, err = run(
            capsys, "--p", "3", command, "--g", IDENTITY,
            "--f", "{B(0;0): 100 | tail 0}", "--mc", "--samples", "1000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestDecoupleAndSample:
    def test_decouple(self, capsys):
        code, out, _ = run(capsys, "decouple", "--l1", "{B(0;0)}", "--l2", "{B(0;0)}")
        assert code == 0
        assert "b = {B(0;1): 1/3 | tail 0}" in out
        assert out.count("pass") == 4

    def test_sample_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "sample", "--window", "{B(0;0)}",
                "--count", "5", "--seed", "3",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_empty_window_rejected(self, capsys):
        code, _, err = run(capsys, "sample", "--window", "{}")
        assert code == 2
        assert "empty" in err


class TestErrorsAndConfig:
    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "laplace", "--g", "aff(", "--f", F)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("command", ["laplace", "rn", "unitarity"])
    @pytest.mark.parametrize("f", ["{B(0;0): 1 | tail 1}", "{B(0;0): 1 | tail 2}"])
    def test_nonzero_tail_exit_2(self, capsys, command, f):
        # the integral of e^f - 1 over Q_p diverges; no verdict is printed
        g = "aff(a = {| tail 1}, b = {| tail 0})"
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, *json_flag, "--p", "3", command, "--g", g, "--f", f)
            assert code == 2
            assert out == ""
            assert err == "error: test function must vanish at infinity\n"

    def test_nonprime_exit_2(self, capsys):
        code, _, err = run(capsys, "--p", "6", "verify-all")
        assert code == 2

    def test_small_samples_exit_2(self, capsys):
        code, _, err = run(capsys, "--samples", "10", "verify-all")
        assert code == 2

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_AFFINE_SAMPLES", "10")
        code, _, err = run(capsys, "verify-all")
        assert code == 2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_AFFINE_P", "6")
        code, out, _ = run(capsys, "--p", "3", "pushforward", "--g", G0)
        assert code == 0

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "pushforward", "--g", "@/does/not/exist")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_exit_2(self, capsys, value):
        code, out, err = run(capsys, "--seed", "42", "--tolerance", value, "verify-all")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_non_finite_tolerance_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_AFFINE_TOLERANCE", "nan")
        code, out, err = run(capsys, "--seed", "42", "verify-all")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestAudit:
    def test_findings_do_not_fail(self, capsys):
        code, out, _ = run(capsys, "--json", "audit", "--trials", "15")
        assert code == 0
        payload = json.loads(out)
        assert all(r["audit"] for r in payload)


@pytest.mark.slow
class TestVerifyAll:
    def test_deterministic_and_green(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "--json", "verify-all", "--p", "3", "--seed", "42",
                "--samples", "2000",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert all(r["pass"] or r["audit"] for r in payload)
