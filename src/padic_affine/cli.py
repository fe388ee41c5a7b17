"""Command line front end.

Subcommands operate on the literal grammar from the grammar module; inputs
are given inline or as @path to read a file. Reports go to stdout (JSON with
--json), diagnostics to stderr. Exit codes: 0 when every hard check passes
(audit findings never fail a run), 1 when a hard check fails, 2 for parse or
configuration errors.

The global options --p, --seed, --samples, --depth-margin and --tolerance
come from one table, `_OPTIONS`. Each is accepted before or after the
subcommand, and its default can be overridden by the environment variable
PADIC_AFFINE_P, PADIC_AFFINE_SEED, PADIC_AFFINE_SAMPLES,
PADIC_AFFINE_DEPTH_MARGIN or PADIC_AFFINE_TOLERANCE; explicit flags beat the
environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass

from . import suite
from .errors import PadicAffineError, ParseError
from .grammar import (
    format_affine,
    format_clopen,
    format_rational,
    format_step,
    parse_affine,
    parse_clopen,
    parse_step,
)
from .measure import IntensityMeasure, pushforward, roundtrip_defect
from .padic import PadicContext
from .poisson import MIN_SAMPLES, required_depth, sample_config
from .representation import (
    check_isometry,
    check_isometry_mc,
    check_laplace,
    check_laplace_mc,
    check_rn_identity,
    check_rn_identity_mc,
    decoupler_postconditions,
    find_decoupler,
)

_ENV_PREFIX = "PADIC_AFFINE_"

# the global options as (RunConfig field, type, default, help); the flag is
# the field with dashes, the variable _ENV_PREFIX + the field in capitals
_OPTIONS = (
    ("p", int, 3, "the prime (default 3)"),
    ("seed", int, 0, "RNG seed (default 0)"),
    ("samples", int, 10000,
     f"Monte Carlo sample count (default 10000, minimum {MIN_SAMPLES})"),
    ("depth_margin", int, 1, "extra digit depth for samplers (default 1)"),
    ("tolerance", float, 1e-9,
     "relative tolerance for exact-mode checks (default 1e-9)"),
)


@dataclass
class RunConfig:
    p: int
    seed: int
    samples: int
    depth_margin: int
    tolerance: float
    as_json: bool

    def __post_init__(self):
        if self.samples < MIN_SAMPLES:
            raise PadicAffineError(
                f"Monte Carlo sample count must be at least {MIN_SAMPLES}, "
                f"got {self.samples}"
            )
        if self.depth_margin < 0:
            raise PadicAffineError("depth margin must be nonnegative")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise PadicAffineError(
                f"tolerance must be positive and finite, got {self.tolerance!r}"
            )
        self.ctx = PadicContext(self.p)


def _env_default(name, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise PadicAffineError(
            f"bad value for {_ENV_PREFIX + name}: {raw!r}"
        ) from exc


def _read_input(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _print(payload, lines, cfg):
    """Print the payload as JSON with --json, else the text lines."""
    if cfg.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _report_line(r) -> str:
    flag = "AUDIT" if r.audit else ("pass" if r.passed else "FAIL")
    detail = f"defect={r.defect:.6g} tolerance={r.tolerance:g}"
    if r.samples:
        detail += f" samples={r.samples} seed={r.seed}"
    note = f"  [{r.note}]" if r.note else ""
    return f"{flag:5s} {r.name}: {detail}{note}"


def _emit(reports, cfg):
    """Re-judge each report against --tolerance (CheckReport.rejudge
    decides which verdicts may move), print them and return the exit code."""
    for r in reports:
        r.rejudge(cfg.tolerance)
    _print([r.to_dict() for r in reports], map(_report_line, reports), cfg)
    return 0 if all(r.passed or r.audit for r in reports) else 1


def cmd_pushforward(args, cfg):
    g = parse_affine(_read_input(args.g), cfg.ctx)
    mu = pushforward(IntensityMeasure.haar(cfg.ctx), g)
    fields = {
        "density": format_step(mu.density),
        "l1_deviation": format_rational(mu.l1_deviation()),
        "roundtrip_defect": format_rational(roundtrip_defect(g)),
    }
    lines = (f"{key.replace('_', '-')} = {text}" for key, text in fields.items())
    _print(fields, lines, cfg)
    return 0


def _pair_command(args, cfg, exact_fn, mc_fn):
    g = parse_affine(_read_input(args.g), cfg.ctx)
    f = parse_step(_read_input(args.f), cfg.ctx)
    reports = [exact_fn(g, f)]
    if args.mc:
        reports.append(mc_fn(g, f, cfg.samples, cfg.seed))
    return _emit(reports, cfg)


def cmd_decouple(args, cfg):
    l1 = parse_clopen(_read_input(args.l1), cfg.ctx)
    l2 = parse_clopen(_read_input(args.l2), cfg.ctx)
    g = find_decoupler(l1, l2)
    post = decoupler_postconditions(g, l1, l2)
    element = format_affine(g)
    lines = [f"element = {element}"]
    lines += [f"{'pass' if ok else 'FAIL'}  {name}" for name, ok in post.items()]
    _print({"element": element, "postconditions": post}, lines, cfg)
    return 0 if all(post.values()) else 1


def cmd_sample(args, cfg):
    window = parse_clopen(_read_input(args.window), cfg.ctx)
    if window.is_empty:
        raise PadicAffineError("the sampling window is empty")
    if args.count < 1:
        raise PadicAffineError("count must be positive")
    haar = IntensityMeasure.haar(cfg.ctx)
    hull = max(window.balls, key=lambda b: b.radius_exp)
    depth = required_depth([window], hull) + cfg.depth_margin
    rng = random.Random(f"sample:{cfg.seed}")
    configs = []
    for _ in range(args.count):
        cfg_pts = sample_config(haar, window, depth, rng)
        configs.append([format_rational(x.frac) for x in cfg_pts.points])
    lines = (f"config {i}: {{{', '.join(pts)}}}" for i, pts in enumerate(configs))
    _print({"window": format_clopen(window), "configurations": configs}, lines, cfg)
    return 0


def cmd_audit(args, cfg):
    if args.trials < 1:
        raise PadicAffineError("trials must be positive")
    reports = suite.audit_random(cfg.p, cfg.seed, args.trials, cfg.tolerance)
    return _emit(reports, cfg)


def cmd_verify_all(args, cfg):
    reports = suite.verify_all(cfg.p, cfg.seed, cfg.samples)
    return _emit(reports, cfg)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="padic-affine",
        description="Exact p-adic affine group arithmetic and identity audits.",
    )
    for name, cast, _, help in _OPTIONS:
        flag = "--" + name.replace("_", "-")
        top.add_argument(flag, type=cast, default=None, help=help)
    top.add_argument(
        "--json", action="store_true", help="emit reports as JSON on stdout"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        # repeat the global options so they are accepted after the
        # subcommand too; SUPPRESS keeps the top-level value when unset
        s = sub.add_parser(name, help=help)
        for option, cast, _, _ in _OPTIONS:
            flag = "--" + option.replace("_", "-")
            s.add_argument(flag, type=cast, default=argparse.SUPPRESS)
        s.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        s.set_defaults(run=run)
        return s

    s = command("pushforward", cmd_pushforward, "density of g*m against Haar")
    s.add_argument("--g", required=True, help="affine element literal or @file")

    for name, help, exact_fn, mc_fn in (
        ("laplace", "check the Laplace transform identity",
         check_laplace, check_laplace_mc),
        ("rn", "check the Radon-Nikodym chain rule",
         check_rn_identity, check_rn_identity_mc),
        ("unitarity", "audit the candidate operator norm",
         check_isometry, check_isometry_mc),
    ):
        run = functools.partial(_pair_command, exact_fn=exact_fn, mc_fn=mc_fn)
        s = command(name, run, help)
        s.add_argument("--g", required=True)
        s.add_argument("--f", required=True, help="real step function literal")
        s.add_argument("--mc", action="store_true", help="add a Monte Carlo replica")

    s = command("decouple", cmd_decouple, "construct a decoupling element")
    s.add_argument("--l1", required=True, help="clopen set literal")
    s.add_argument("--l2", required=True)

    s = command("sample", cmd_sample, "draw Poisson configurations")
    s.add_argument("--window", required=True, help="clopen window literal")
    s.add_argument("--count", type=int, default=1, help="configurations to draw")

    s = command("audit", cmd_audit, "random audits; findings never fail")
    s.add_argument("--trials", type=int, default=100)

    command("verify-all", cmd_verify_all, "the full deterministic battery")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = {}
        for name, cast, default, _ in _OPTIONS:
            value = getattr(args, name)
            if value is None:
                value = _env_default(name.upper(), cast, default)
            options[name] = value
        cfg = RunConfig(**options, as_json=args.json)
        return args.run(args, cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PadicAffineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
