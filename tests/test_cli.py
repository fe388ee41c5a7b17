"""Command line behavior: argument handling, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padic_affine import cli, representation
from padic_affine.affine import AffineElement
from padic_affine.cli import RunConfig, main
from padic_affine.grammar import format_affine
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

    def emit(self, capsys, report, tolerance):
        """The report after the command line printed it at `tolerance`."""
        cli._emit([report], self.config(tolerance))
        capsys.readouterr()
        return report

    def test_count_reports_keep_their_verdict(self, capsys):
        report = representation.count_report("group-axioms", 1, 10)
        out = self.emit(capsys, report, 2.0)
        assert not out.passed

    def test_z_scores_keep_their_verdict(self, capsys):
        report = representation.mc_report("laplace-duality-mc", 1.0, 0.1, 2.0, 0, 1000)
        out = self.emit(capsys, report, 100.0)
        assert (out.passed, out.tolerance) == (False, representation.MC_SIGMA)

    def test_ergodic_bound_failure_stays(self, capsys, monkeypatch):
        ctx = PadicContext(3)
        event = CountEvent(((ClopenSet.of(ctx, [Ball(ctx, 0, ())]), ">=", 1),))
        # a joint probability below half the product of the marginals
        monkeypatch.setattr(
            representation, "poisson_expect_exact",
            lambda f, mu: 0.3 if len(f.conditions) > 1 else 0.9,
        )
        report = representation.check_ergodic_inequality(event, event)
        assert not report.passed
        out = self.emit(capsys, report, 2.0)
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


    @staticmethod
    def steep_element():
        """a = 2^-1100 on Z_2: g*m has density 0 on Z_2 off B(0;-1100) and
        2^1100 on it, past a float's range."""
        ctx = PadicContext(2)
        a_parts = [(Ball(ctx, 0, ()), Fraction(1, 2**1100))]
        return format_affine(AffineElement.from_parts(ctx, a_parts, []))

    def test_zero_f_cell_past_float_range_passes(self, capsys):
        """f = 0 on the cells whose mass is past a float's range: they add
        nothing to the Laplace exponent, and the audit runs."""
        code, out, err = run(
            capsys, "--p", "2", "unitarity", "--g", self.steep_element(),
            "--f", "{B(0;0): 1 | tail 0}",
        )
        assert code == 0
        assert err == ""
        assert out.startswith("AUDIT isometry")

    def test_rn_density_past_float_range_exits_2(self, capsys):
        code, out, err = run(
            capsys, "--p", "2", "rn", "--g", self.steep_element(),
            "--f", "{B(0;0): 1 | tail 0}",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows a float" in err


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

    def test_window_past_the_point_cap_rejected(self, capsys):
        # Haar mass of B(0;20) at p = 2 is 2^20 > MAX_POINTS
        code, out, err = run(capsys, "--p", "2", "sample", "--window", "{B(0;20)}")
        assert code == 2
        assert out == ""
        assert "exceeds the cap" in err


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

    def test_rn_mc_overflow_exit_2(self, capsys):
        # rho^c of the importance weight overflows a float in some draw
        g = "aff(a = {B(38;7): 9 | tail 1}, b = {B(38;7): -685019/2 | tail 0})"
        code, out, err = run(
            capsys, "--p", "3", "rn", "--g", g, "--f", "{B(13;-13): -5 | tail 0}", "--mc"
        )
        assert code == 2
        assert out == ""
        assert err == "error: rn-identity-mc: a sampled value overflows a float\n"

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


class TestProcessBoundary:
    """`python -m padic_affine.cli` as a separate process: the module's
    entry point, its exit codes and its streams, with no option taken from
    the environment."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def spawn(self, *argv):
        env = {k: v for k, v in os.environ.items() if not k.startswith("PADIC_AFFINE_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [self.SRC, *filter(None, [env.get("PYTHONPATH")])]
        )
        return subprocess.run(
            [sys.executable, "-m", "padic_affine.cli", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_verify_all_matches_in_process(self, capsys, monkeypatch):
        argv = ["--p", "3", "--seed", "42", "--json", "verify-all"]
        done = self.spawn(*argv)
        for name, _, _, _ in cli._OPTIONS:
            monkeypatch.delenv(f"PADIC_AFFINE_{name.upper()}", raising=False)
        code, out, _ = run(capsys, *argv)
        assert (done.returncode, code) == (0, 0)
        assert done.stdout == out

    @pytest.mark.parametrize("argv", [
        ["--p", "3", "pushforward", "--g", "aff(a = {B(0;0): 0 | tail 1}, b = {| tail 0})"],
        ["--p", "4", "verify-all"],
        ["--p", "3", "pushforward", "--g", "aff(a = {B(%s;0): 3 | tail 1}, b = {| tail 0})"
         % ("7" * 5000)],
    ])
    def test_errors_are_one_line_on_stderr(self, argv):
        done = self.spawn(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert "Traceback" not in done.stderr


class TestOptionResolution:
    """Each global option reaches RunConfig from a flag given before or after
    the subcommand, else from PADIC_AFFINE_<NAME>, else from its default."""

    # attribute, flag, flag value, environment variable, its value, default
    OPTIONS = [
        ("p", "--p", "5", "PADIC_AFFINE_P", "2", 3),
        ("seed", "--seed", "7", "PADIC_AFFINE_SEED", "11", 0),
        ("samples", "--samples", "2000", "PADIC_AFFINE_SAMPLES", "3000", 10000),
        ("depth_margin", "--depth-margin", "2", "PADIC_AFFINE_DEPTH_MARGIN", "3", 1),
        ("tolerance", "--tolerance", "0.5", "PADIC_AFFINE_TOLERANCE", "0.25", 1e-9),
    ]
    DECOUPLE = ["decouple", "--l1", "{B(0;0)}", "--l2", "{B(0;0)}"]

    def resolved(self, monkeypatch, capsys, argv):
        seen = []

        class Recording(RunConfig):
            def __post_init__(self):
                super().__post_init__()
                seen.append(self)

        monkeypatch.setattr(cli, "RunConfig", Recording)
        assert main(argv) == 0
        capsys.readouterr()
        [cfg] = seen
        return cfg

    @pytest.mark.parametrize("where", ["before", "after", "env", "unset"])
    @pytest.mark.parametrize(
        "name, flag, value, var, env_value, default", OPTIONS,
        ids=[o[0] for o in OPTIONS],
    )
    def test_resolution(
        self, monkeypatch, capsys, where, name, flag, value, var, env_value,
        default,
    ):
        for option in self.OPTIONS:
            monkeypatch.delenv(option[3], raising=False)
        if where != "unset":
            # with a flag given too, the flag must beat the environment
            monkeypatch.setenv(var, env_value)
        argv = {
            "before": [flag, value, *self.DECOUPLE],
            "after": [*self.DECOUPLE, flag, value],
            "env": self.DECOUPLE,
            "unset": self.DECOUPLE,
        }[where]
        cfg = self.resolved(monkeypatch, capsys, argv)
        expected = {d[0]: d[5] for d in self.OPTIONS}
        expected[name] = type(default)(
            {"before": value, "after": value, "env": env_value}.get(where, default)
        )
        assert {n: getattr(cfg, n) for n in expected} == expected


class TestAudit:
    def test_findings_do_not_fail(self, capsys):
        code, out, _ = run(capsys, "--json", "audit", "--trials", "15")
        assert code == 0
        payload = json.loads(out)
        assert all(r["audit"] for r in payload)

    def test_tolerance_rejudges_each_defect(self, capsys):
        """A relative defect never exceeds 2, so --tolerance 2 leaves no
        isometry or duality finding where the default finds some."""
        def notes(*tolerance):
            argv = ["--p", "3", "--seed", "0", *tolerance, "--json"]
            _, out, _ = run(capsys, *argv, "audit", "--trials", "10")
            return {r["name"]: r["note"] for r in json.loads(out)}

        default, loose = notes(), notes("--tolerance", "2")
        assert default["isometry-audit"].startswith("2/10 ")
        assert loose["isometry-audit"].startswith("0/10 ")
        assert not default["duality-audit"].startswith("0/10 ")
        assert loose["duality-audit"].startswith("0/10 ")
        assert loose["composition-audit"] == default["composition-audit"]

    def test_lines_print_the_tolerance_they_were_judged_by(self, capsys):
        """The isometry and duality counts print the caller's tolerance;
        the composition count stays exact."""
        argv = ["--p", "3", "--seed", "0", "--tolerance", "2"]
        _, out, _ = run(capsys, *argv, "audit", "--trials", "10")
        tolerances = {
            line.split(":")[0].split()[1]: line.split("tolerance=")[1].split()[0]
            for line in out.splitlines()
        }
        assert tolerances == {
            "composition-audit": "1e-09",
            "isometry-audit": "2",
            "duality-audit": "2",
        }
        _, out, _ = run(capsys, *argv, "--json", "audit", "--trials", "10")
        tolerances = {r["name"]: r["tolerance"] for r in json.loads(out)}
        assert tolerances == {
            "composition-audit": representation.EXACT_TOL,
            "isometry-audit": 2.0,
            "duality-audit": 2.0,
        }


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
