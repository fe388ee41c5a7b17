"""Ball keys in integer arithmetic.

Ball.from_center and Ball.image read a ball's key from integers with one
modular inverse. Both are checked against the Fraction digit routine they
replace, kept here as the reference, on random (ball, a, b) triples that
reach every sign and p-power the key arithmetic has to handle.
"""

import random
from fractions import Fraction

from padic_affine import padic
from padic_affine.padic import Ball, Padic, PadicContext, fraction_valuation

PRIMES = [2, 3, 5, 7]
TRIPLES = 10**4


def ref_digits(x: Fraction, p: int, lo: int, hi: int) -> list:
    """Canonical p-adic digits d_i of x for lo <= i <= hi; digits below the
    valuation are 0 and the denominator goes through a modular inverse."""
    if x == 0:
        return [0] * (hi - lo + 1)
    base = min(lo, fraction_valuation(x, p))
    shifted = x * Fraction(p) ** (-base)  # a p-adic integer
    mod = p ** (hi - base + 1)
    m = (shifted.numerator * pow(shifted.denominator, -1, mod)) % mod
    return [(m // p ** (i - base)) % p for i in range(lo, hi + 1)]


def ref_from_center(center: Fraction, p: int, k: int) -> tuple:
    """Key of B(center; k): the nonzero digits below position -k."""
    v = fraction_valuation(center, p)
    if v >= -k:  # includes center == 0
        return ()
    ds = ref_digits(center, p, v, -k - 1)
    return tuple((v + i, d) for i, d in enumerate(ds) if d != 0)


def ref_image(ball: Ball, a, b) -> tuple:
    """(radius_exp, key) of (ball + b)/a through Fractions."""
    p = ball.ctx.p
    c = (ball.center.frac + b) / a
    k = ball.radius_exp + fraction_valuation(Fraction(a), p)
    return k, ref_from_center(c, p, k)


def _rational(rng, p) -> Fraction:
    # p-powers in the numerator and in the denominator, either sign
    num = rng.randint(-500, 500) * p ** rng.randint(0, 4)
    return Fraction(num, rng.randint(1, 200) * p ** rng.randint(0, 6))


def _triple(rng, p):
    """(center, radius_exp, a, b); a few of each edge case."""
    shape = rng.randrange(10)
    center = Fraction(0) if shape == 0 else _rational(rng, p)
    k = rng.randint(-7, 7)
    if shape == 1:
        return center, k, 1, Fraction(0)  # ClopenSet.translate's a and b = 0
    if shape == 2:
        a = rng.choice([-1, 1]) * rng.randint(2, 3 * p)
    else:
        a = _rational(rng, p) or Fraction(-1, p)
    return center, k, a, Fraction(0) if shape == 3 else _rational(rng, p)


def test_keys_match_the_fraction_digits():
    rng = random.Random(18)
    seen = set()
    for t in range(TRIPLES):
        p = PRIMES[t % len(PRIMES)]
        ctx = PadicContext(p)
        center, k, a, b = _triple(rng, p)
        ball = Ball.from_center(Padic(ctx, center), k)
        assert ball.radius_exp == k
        assert ball.key == ref_from_center(center, p, k), (p, center, k)
        image = ball.image(a, b)
        assert (image.radius_exp, image.key) == ref_image(ball, a, b), (
            p, center, k, a, b,
        )
        an, ad = Fraction(a).as_integer_ratio()
        seen.update(
            name for name, hit in [
                ("negative a", an < 0),
                ("p in a's numerator", an % p == 0),
                ("p in a's denominator", ad % p == 0),
                ("p in b's numerator", b.numerator % p == 0 and b != 0),
                ("p in b's denominator", b.denominator % p == 0),
                ("translate", a == 1 and isinstance(a, int) and b == 0),
                ("int a", isinstance(a, int) and a != 1),
                ("center 0", center == 0),
                ("negative radius", k < 0),
                ("positive radius", k > 0),
            ] if hit
        )
    assert len(seen) == 10, seen


def test_image_builds_no_padic(monkeypatch):
    """Ball.image stays in integers: no Padic, even for a ball whose center
    was never read."""
    ctx = PadicContext(5)
    balls = [Ball(ctx, k, key) for k, key in [
        (0, ()), (-3, ((-2, 4), (1, 3))), (2, ((-6, 1),)), (-1, ((0, 2),)),
    ]]
    made = []
    init = padic.Padic.__init__

    def counted(self, ctx, value):
        made.append(value)
        init(self, ctx, value)

    monkeypatch.setattr(padic.Padic, "__init__", counted)
    for ball in balls:
        for a, b in [(1, Fraction(0)), (Fraction(-3, 25), Fraction(2, 5)), (10, Fraction(1, 7))]:
            ball.image(a, b)
    assert made == []
