"""A fuzzed exit-code contract for the command line.

cli.main runs in process on random literals at p = 2, 3 and 5, over every
literal-taking command but audit and verify-all: pushforward, laplace, rn
and unitarity (each with and without --mc, at --samples 1000), decouple and
sample. The literals hold disjoint balls and, now and then, an overlapping,
nested or repeated one, radii up to ±20, values with numerators up to 10^6
over denominators up to p^12, and now and then a dropped character.
Whatever the input, a run must return 0, 1 or 2, no exception may escape
main, and exit 2 prints exactly one stderr line that starts with "error: "
or "parse error: ".

Sampling windows keep radius ≤ 6: B(c; 19) at p = 2 has λ = 2^19, under
MAX_POINTS, so it is a legal input, but drawing it takes seconds.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from padic_affine import cli

RUNS = 150  # per prime: 450 runs in about 2 s
SEED = 20


def rational(rng, p):
    num = rng.randint(-(10**6), 10**6) if rng.random() < 0.3 else rng.randint(-9, 9)
    den = p ** rng.randint(0, 12) * rng.choice([1, 1, 1, 2, 7])
    return f"{num}/{den}" if den != 1 else str(num)


def balls(rng, p, count, rmax=20):
    """Ball texts B(c;k): disjoint balls B(c_j; k_j), k_j <= k, whose
    centers c_j = c + j·p^-(k+2) differ at a digit below -k, and one time
    in eight an extra ball that repeats one of them or shares its center at
    a smaller or larger radius, so that it nests in it."""
    k = rng.randint(-rmax, rmax)
    c = Fraction(rational(rng, p))
    out = [
        (c + j * Fraction(p) ** -(k + 2), k - rng.choice([0, 0, 1, 3]))
        for j in rng.sample(range(p * p), min(count, p * p))
    ]
    if out and rng.random() < 0.125:
        center, r = rng.choice(out)
        if rng.random() < 0.6:
            r = max(-rmax, min(rmax, r + rng.choice([-2, -1, 1, 2])))
        out.insert(rng.randint(0, len(out)), (center, r))
    return [f"B({c};{r})" for c, r in out]


def step(rng, p, value, tail):
    parts = ", ".join(f"{b}: {value()}" for b in balls(rng, p, rng.randint(0, 4)))
    return f"{{{parts} | tail {tail}}}"


def maybe_drop(rng, text):
    """The text, or one time in twelve with one character dropped."""
    if rng.random() < 1 / 12:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    return text


def element(rng, p):
    def a_value():  # half of them a power p^k, |k| <= 6
        if rng.random() < 0.5:
            k = rng.randint(-6, 6)
            return str(p**k) if k >= 0 else f"1/{p**-k}"
        return rational(rng, p)

    a_tail = 1 if rng.random() < 0.9 else rational(rng, p)
    b_tail = 0 if rng.random() < 0.9 else rational(rng, p)
    a = step(rng, p, a_value, a_tail)
    b = step(rng, p, lambda: rational(rng, p), b_tail)
    return maybe_drop(rng, f"aff(a = {a}, b = {b})")


def function_literal(rng, p):
    tail = 0 if rng.random() < 0.9 else rational(rng, p)
    return maybe_drop(rng, step(rng, p, lambda: rational(rng, p), tail))


def clopen(rng, p, rmax=20):
    body = ", ".join(balls(rng, p, rng.randint(1, 3), rmax))
    return maybe_drop(rng, f"{{{body}}}")


def command(rng, p):
    base = ["--p", str(p), "--seed", str(rng.randint(0, 99)), "--samples", "1000"]
    if rng.random() < 0.2:
        base.append("--json")
    name = rng.choice(["pushforward", "laplace", "rn", "unitarity", "decouple", "sample"])
    if name == "pushforward":
        return [*base, name, "--g", element(rng, p)]
    if name == "decouple":
        return [*base, name, "--l1", clopen(rng, p), "--l2", clopen(rng, p)]
    if name == "sample":
        count = str(rng.randint(1, 2))
        return [*base, name, "--window", clopen(rng, p, 6), "--count", count]
    mc = ["--mc"] if rng.random() < 0.5 else []
    return [*base, name, "--g", element(rng, p), "--f", function_literal(rng, p)] + mc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_run_keeps_the_exit_code_contract(p):
    rng = random.Random(f"cli-fuzz:{SEED}:{p}")
    codes = set()
    for _ in range(RUNS):
        argv = command(rng, p)
        code, err = run(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1, (argv, err)
            assert lines[0].startswith(("error: ", "parse error: ")), (argv, err)
        codes.add(code)
    assert {0, 2} <= codes  # the fuzz reaches both valid and refused inputs
