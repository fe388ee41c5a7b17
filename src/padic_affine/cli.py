"""Command line front end.

Subcommands operate on the literal grammar from the grammar module; inputs
are given inline or as @path to read a file. Reports go to stdout (JSON with
--json), diagnostics to stderr. Exit codes: 0 when every hard check passes
(audit findings never fail a run), 1 when a hard check fails, 2 for parse or
configuration errors.

Defaults can be overridden by environment variables PADIC_AFFINE_P,
PADIC_AFFINE_SEED, PADIC_AFFINE_SAMPLES, PADIC_AFFINE_DEPTH_MARGIN and
PADIC_AFFINE_TOLERANCE; explicit flags beat the environment.
"""

from __future__ import annotations

import argparse
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
from .poisson import required_depth, sample_config
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


@dataclass
class RunConfig:
    p: int
    seed: int
    samples: int
    depth_margin: int
    tolerance: float
    as_json: bool

    def __post_init__(self):
        if self.samples < 1000:
            raise PadicAffineError(
                f"Monte Carlo sample count must be at least 1000, got {self.samples}"
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="padic-affine",
        description="Exact p-adic affine group arithmetic and identity audits.",
    )
    top.add_argument("--p", type=int, default=None, help="the prime (default 3)")
    top.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    top.add_argument(
        "--samples", type=int, default=None,
        help="Monte Carlo sample count (default 10000, minimum 1000)",
    )
    top.add_argument(
        "--depth-margin", type=int, default=None,
        help="extra digit depth for samplers (default 1)",
    )
    top.add_argument(
        "--tolerance", type=float, default=None,
        help="relative tolerance for exact-mode checks (default 1e-9)",
    )
    top.add_argument(
        "--json", action="store_true", help="emit reports as JSON on stdout"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help):
        # repeat the global options so they are accepted after the
        # subcommand too; SUPPRESS keeps the top-level value when unset
        s = sub.add_parser(name, help=help)
        s.add_argument("--p", type=int, default=argparse.SUPPRESS)
        s.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        s.add_argument("--samples", type=int, default=argparse.SUPPRESS)
        s.add_argument("--depth-margin", type=int, default=argparse.SUPPRESS)
        s.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
        s.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        return s

    s = command("pushforward", "density of g*m against Haar")
    s.add_argument("--g", required=True, help="affine element literal or @file")

    s = command("laplace", "check the Laplace transform identity")
    s.add_argument("--g", required=True)
    s.add_argument("--f", required=True, help="real step function literal")
    s.add_argument("--mc", action="store_true", help="add a Monte Carlo replica")

    s = command("rn", "check the Radon-Nikodym chain rule")
    s.add_argument("--g", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--mc", action="store_true")

    s = command("unitarity", "audit the candidate operator norm")
    s.add_argument("--g", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--mc", action="store_true")

    s = command("decouple", "construct a decoupling element")
    s.add_argument("--l1", required=True, help="clopen set literal")
    s.add_argument("--l2", required=True)

    s = command("sample", "draw Poisson configurations")
    s.add_argument("--window", required=True, help="clopen window literal")
    s.add_argument("--count", type=int, default=1, help="configurations to draw")

    s = command("audit", "random audits; findings never fail")
    s.add_argument("--trials", type=int, default=100)

    command("verify-all", "the full deterministic battery")

    return top


def _emit(reports, cfg, extra_lines=None):
    """Print reports and return the exit code."""
    if cfg.as_json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload, indent=2))
    else:
        for line in extra_lines or []:
            print(line)
        for r in reports:
            flag = "AUDIT" if r.audit else ("pass" if r.passed else "FAIL")
            detail = f"defect={r.defect:.6g} tolerance={r.tolerance:g}"
            if r.samples:
                detail += f" samples={r.samples} seed={r.seed}"
            note = f"  [{r.note}]" if r.note else ""
            print(f"{flag:5s} {r.name}: {detail}{note}")
    hard_ok = all(r.passed or r.audit for r in reports)
    return 0 if hard_ok else 1


def _retolerance(reports, cfg):
    """Re-judge every report against the caller's tolerance
    (CheckReport.rejudge decides which verdicts it may move)."""
    for r in reports:
        r.rejudge(cfg.tolerance)
    return reports


def cmd_pushforward(args, cfg):
    g = parse_affine(_read_input(args.g), cfg.ctx)
    mu = pushforward(IntensityMeasure.haar(cfg.ctx), g)
    density = format_step(mu.density)
    deviation = format_rational(mu.l1_deviation())
    defect = format_rational(roundtrip_defect(g))
    if cfg.as_json:
        print(json.dumps({
            "density": density,
            "l1_deviation": deviation,
            "roundtrip_defect": defect,
        }, indent=2))
    else:
        print(f"density = {density}")
        print(f"l1-deviation = {deviation}")
        print(f"roundtrip-defect = {defect}")
    return 0


def _pair_command(args, cfg, exact_fn, mc_fn):
    g = parse_affine(_read_input(args.g), cfg.ctx)
    f = parse_step(_read_input(args.f), cfg.ctx)
    reports = [exact_fn(g, f)]
    if args.mc:
        reports.append(mc_fn(g, f, cfg.samples, cfg.seed))
    return _emit(_retolerance(reports, cfg), cfg)


def cmd_laplace(args, cfg):
    return _pair_command(args, cfg, check_laplace, check_laplace_mc)


def cmd_rn(args, cfg):
    return _pair_command(args, cfg, check_rn_identity, check_rn_identity_mc)


def cmd_unitarity(args, cfg):
    return _pair_command(args, cfg, check_isometry, check_isometry_mc)


def cmd_decouple(args, cfg):
    l1 = parse_clopen(_read_input(args.l1), cfg.ctx)
    l2 = parse_clopen(_read_input(args.l2), cfg.ctx)
    g = find_decoupler(l1, l2)
    post = decoupler_postconditions(g, l1, l2)
    if cfg.as_json:
        print(json.dumps({
            "element": format_affine(g),
            "postconditions": post,
        }, indent=2))
    else:
        print(f"element = {format_affine(g)}")
        for name, ok in post.items():
            print(f"{'pass' if ok else 'FAIL'}  {name}")
    return 0 if all(post.values()) else 1


def cmd_sample(args, cfg):
    window = parse_clopen(_read_input(args.window), cfg.ctx)
    if window.is_empty:
        raise PadicAffineError("the sampling window is empty")
    if args.count < 1:
        raise PadicAffineError("count must be positive")
    haar = IntensityMeasure.haar(cfg.ctx)
    hull = window.balls[0]
    for b in window.balls:
        if b.radius_exp > hull.radius_exp:
            hull = b
    depth = required_depth([window], hull) + cfg.depth_margin
    rng = random.Random(f"sample:{cfg.seed}")
    configs = []
    for _ in range(args.count):
        cfg_pts = sample_config(haar, window, depth, rng)
        configs.append([format_rational(x.frac) for x in cfg_pts.points])
    if cfg.as_json:
        print(json.dumps({
            "window": format_clopen(window),
            "configurations": configs,
        }, indent=2))
    else:
        for i, pts in enumerate(configs):
            print(f"config {i}: {{{', '.join(pts)}}}")
    return 0


def cmd_audit(args, cfg):
    if args.trials < 1:
        raise PadicAffineError("trials must be positive")
    reports = suite.audit_random(cfg.p, cfg.seed, args.trials)
    return _emit(reports, cfg)


def cmd_verify_all(args, cfg):
    reports = suite.verify_all(cfg.p, cfg.seed, cfg.samples)
    return _emit(_retolerance(reports, cfg), cfg)


_COMMANDS = {
    "pushforward": cmd_pushforward,
    "laplace": cmd_laplace,
    "rn": cmd_rn,
    "unitarity": cmd_unitarity,
    "decouple": cmd_decouple,
    "sample": cmd_sample,
    "audit": cmd_audit,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            p=args.p if args.p is not None else _env_default("P", int, 3),
            seed=args.seed if args.seed is not None else _env_default("SEED", int, 0),
            samples=(
                args.samples if args.samples is not None
                else _env_default("SAMPLES", int, 10000)
            ),
            depth_margin=(
                args.depth_margin if args.depth_margin is not None
                else _env_default("DEPTH_MARGIN", int, 1)
            ),
            tolerance=(
                args.tolerance if args.tolerance is not None
                else _env_default("TOLERANCE", float, 1e-9)
            ),
            as_json=args.json,
        )
        return _COMMANDS[args.command](args, cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PadicAffineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
