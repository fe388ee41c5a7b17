"""Poisson configurations, cylinder functionals, the V_g action and the
Monte Carlo expectation engine.

Cylinder functionals are restricted to a closed descriptor family:
exponentials, polynomials and count events. Three shapes have a closed-form
expectation: exponentials, polynomials of degree <= 2, and count events on
pairwise disjoint sets; every other expectation goes through Monte Carlo.
All sampling rates are exact rationals; floats appear only in final
exponentials and in estimator accumulation.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineElement
from .errors import (
    PadicAffineError,
    UnboundedIntegral,
    UnsupportedShape,
    WindowMismatch,
)
from .measure import IntensityMeasure
from .padic import Ball, ClopenSet, first_overlap, read_parts
from .stepfn import REAL, StepFunction, refine_window


@dataclass(frozen=True)
class Configuration:
    """A finite point set inside a bounded clopen window."""

    points: tuple
    window: ClopenSet

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise PadicAffineError("configuration points must be distinct")
        for x in self.points:
            if not self.window.contains(x):
                raise WindowMismatch(f"point {x!r} outside the window")

    def __len__(self):
        return len(self.points)


# -- cylinder functionals ---------------------------------------------------


class CylinderFunction:
    """Base for the descriptor family F(gamma) = psi(<f_1,gamma>, ...).

    A descriptor lists its step functions or clopen sets in fns() and gives
    F as psi of their pairings with gamma; a clopen set pairs with gamma as
    its point count. The window, evaluation and the Monte Carlo count
    evaluator read these two alone."""

    def fns(self) -> list:
        raise NotImplementedError

    def psi(self, xs) -> float:
        raise NotImplementedError

    def transform(self, g: AffineElement) -> "CylinderFunction":
        raise NotImplementedError

    def window(self) -> ClopenSet:
        """The union of the supports of fns()."""
        out = None
        for fn in self.fns():
            s = fn.deviation_support() if isinstance(fn, StepFunction) else fn
            out = s if out is None else out.union(s)
        return out

    def evaluate(self, gamma: Configuration) -> float:
        """psi of the exact pairings: float(pair_sum) for a step function,
        which checks the window, and the point count for a clopen set, which
        does not."""
        xs = [
            float(pair_sum(fn, gamma)) if isinstance(fn, StepFunction)
            else sum(1 for x in gamma.points if fn.contains(x))
            for fn in self.fns()
        ]
        return self.psi(xs)


@dataclass(frozen=True)
class Exponential(CylinderFunction):
    """F(gamma) = e^{<f, gamma>} for a compactly supported step function f."""

    f: StepFunction

    def __post_init__(self):
        if self.f.kind != REAL:
            raise PadicAffineError("exponential descriptor needs a real f")
        if self.f.tail != 0:
            raise PadicAffineError("test function must vanish at infinity")

    def fns(self) -> list:
        return [self.f]

    def psi(self, xs) -> float:
        return math.exp(xs[0])

    def transform(self, g: AffineElement) -> "Exponential":
        return Exponential(g.act_function(self.f))


@dataclass(frozen=True)
class Polynomial(CylinderFunction):
    """F(gamma) = prod_j <f_j, gamma>^{e_j}."""

    factors: tuple  # of (StepFunction, positive int)

    def __post_init__(self):
        if not self.factors:
            raise PadicAffineError("a polynomial needs at least one factor")
        for f, e in self.factors:
            if f.kind != REAL or f.tail != 0:
                raise PadicAffineError("polynomial factors need real f, tail 0")
            if e < 1:
                raise PadicAffineError("powers must be positive")

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    def fns(self) -> list:
        return [f for f, _ in self.factors]

    def psi(self, xs) -> float:
        out = 1.0
        for x, (_, e) in zip(xs, self.factors):
            out *= x**e
        return out

    def transform(self, g: AffineElement) -> "Polynomial":
        return Polynomial(tuple((g.act_function(f), e) for f, e in self.factors))


EQ, LE, GE = "=", "<=", ">="


@dataclass(frozen=True)
class CountEvent(CylinderFunction):
    """Indicator of simultaneous count conditions N(S_i) op k_i."""

    conditions: tuple  # of (ClopenSet, op, int)

    def __post_init__(self):
        if not self.conditions:
            raise PadicAffineError("a count event needs at least one condition")
        for _, op, k in self.conditions:
            if op not in (EQ, LE, GE) or k < 0:
                raise PadicAffineError(f"bad count condition {op!r} {k}")

    def fns(self) -> list:
        return [s for s, _, _ in self.conditions]

    def psi(self, xs) -> float:
        for n, (_, op, k) in zip(xs, self.conditions):
            if not _holds(n, op, k):
                return 0.0
        return 1.0

    def sets_disjoint(self) -> bool:
        # each set is canonical, so only balls of two sets can overlap
        balls = [b for s, _, _ in self.conditions for b in s.balls]
        return first_overlap(balls) is None

    def transform(self, g: AffineElement) -> "CountEvent":
        return CountEvent(
            tuple((g.preimage_clopen(s), op, k) for s, op, k in self.conditions)
        )


def _holds(n: int, op: str, k: int) -> bool:
    if op == EQ:
        return n == k
    if op == LE:
        return n <= k
    return n >= k


# -- pairings and depths ----------------------------------------------------


def pair_sum(f: StepFunction, gamma: Configuration) -> Fraction:
    """<f, gamma> = sum of f over the configuration points, exact."""
    if not f.deviation_support().subtract(gamma.window).is_empty:
        raise WindowMismatch("supp f must lie inside the configuration window")
    return sum((f.evaluate(x) for x in gamma.points), Fraction(0))


def required_depth(objects, ball: Ball) -> int:
    """Smallest sampling depth making every listed step function / clopen set
    constant on the sampled point's residual ball inside the given ball."""
    r_min = min(
        (b.radius_exp for obj in objects for b, _ in read_parts(obj)[0]),
        default=ball.radius_exp,
    )
    return max(1, ball.radius_exp - r_min)


# -- sampling ---------------------------------------------------------------

MAX_POINTS = 10**6
"""Cap on the expected point count of one Poisson draw. A window or measure
above it is refused with a PadicAffineError instead of being sampled; the
check is exact, so a rate too large for a float never reaches float()."""

SPLIT_RATE = 700.0
"""Largest rate drawn by one inversion. A larger rate is split into equal
pieces below it whose counts are summed (Poisson additivity), which keeps
exp(-rate) clear of underflow and every count inside the table."""

_TABLE_END = 1000  # the last k whose P(N <= k) a table holds


def _check_total(total: Fraction) -> Fraction:
    if total > MAX_POINTS:
        raise PadicAffineError(
            f"the expected point count exceeds the cap of {MAX_POINTS}"
        )
    return total


def _cdf_table(lam: float) -> list:
    """P(N <= k) for N ~ Poisson(lam) and k = 0, 1, ..., _TABLE_END, summed
    in float by the recurrence p_k = p_{k-1} * (lam / k).

    The table is cut where the sum stops growing for good: past k >= lam the
    terms only shrink, so every later entry would repeat the last one."""
    pk = math.exp(-lam)
    cdf = pk
    table = [cdf]
    for k in range(1, _TABLE_END + 1):
        pk *= lam / k
        grown = cdf + pk
        if grown == cdf and (pk == 0.0 or k >= lam):
            break
        cdf = grown
        table.append(cdf)
    return table


class PoissonVariate:
    """Poisson(rate) counts by inversion: the smallest k with u <= P(N <= k),
    found by bisection over a CDF table built once per rate.

    A uniform above every entry of the table counts _TABLE_END + 1, the
    guard value of term-by-term inversion, so draws at or below SPLIT_RATE
    match it exactly for every uniform.
    """

    __slots__ = ("pieces", "table", "zero")

    def __init__(self, rate: float):
        self.pieces = max(1, math.ceil(rate / SPLIT_RATE))
        self.table = _cdf_table(rate / self.pieces)
        # u <= P(N = 0) settles most draws of a small rate without a search;
        # a split rate has no such shortcut
        self.zero = self.table[0] if self.pieces == 1 else -1.0

    def draw(self, uniform) -> int:
        """One count, from one uniform() per piece of the rate."""
        u = uniform()
        if u <= self.zero:
            return 0
        table = self.table
        size = len(table)
        total = 0
        for piece in range(self.pieces):
            if piece:
                u = uniform()
            k = bisect_left(table, u)
            total += k if k < size else _TABLE_END + 1
        return total


class PreparedDraw:
    """The Poisson law with intensity rho·m on one window, prepared once.

    Holds the atoms of one refine_window pass, their exact rates as integer
    cumulative weights W_i over a common denominator (total T), and the
    variate table of the total rate. A uniform u is the exact binary
    fraction num/den, so the first atom with u·T < W_i, the one an exact
    cumulative scan picks, is found by bisection in integers.
    """

    __slots__ = ("window", "balls", "weights", "variate")

    def __init__(self, mu: IntensityMeasure, window: ClopenSet):
        cells = refine_window(window, [mu.density])
        atoms = [(ball, v * ball.measure) for ball, (v,) in cells if v > 0]
        total = _check_total(sum((rate for _, rate in atoms), Fraction(0)))
        den = math.lcm(*(rate.denominator for _, rate in atoms))
        acc = 0
        weights = []
        for _, rate in atoms:
            acc += rate.numerator * (den // rate.denominator)
            weights.append(acc)
        self.window = window
        self.balls = [ball for ball, _ in atoms]
        self.weights = weights
        self.variate = PoissonVariate(float(total)) if atoms else None

    def pick(self, u: float) -> int:
        """Index of the atom that an exact cumulative scan picks for u."""
        num, den = u.as_integer_ratio()
        weights = self.weights
        return bisect_right(weights, num * weights[-1] // den)


def sample_keys(
    mu: IntensityMeasure, window: ClopenSet, depth: int, rng: random.Random
) -> tuple:
    """One Poisson draw on the window with intensity rho·m, as digit keys:
    (balls, keys), the atom balls of the prepared draw and the distinct keys
    (atom index, m) in draw order, key (i, m) naming the point balls[i].point(m).

    This is the one draw loop. Atom rates are exact rationals; the atom
    choice compares the uniform draw against exact cumulative weights. The
    prepared draw is kept on mu for the next call with an equal window.
    Duplicate keys (possible only through finite depth) get more digits.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    draw = mu.prepared
    if draw is None or draw.window != window:
        draw = mu.prepared = PreparedDraw(mu, window)
    if draw.variate is None:
        return draw.balls, []
    p = mu.ctx.p
    n = draw.variate.draw(rng.random)
    drawn = {}  # (atom index, m) in draw order
    for _ in range(n):
        atom = draw.pick(rng.random())
        m = rng.randrange(p**depth)
        # a collision means the two continuum points share their first
        # digits; append digits within the collided residue until distinct,
        # which leaves every coarser count untouched
        digit_pos = depth
        while (atom, m) in drawn:
            m += rng.randrange(p) * p**digit_pos
            digit_pos += 1
        drawn[atom, m] = None
    return draw.balls, list(drawn)


def sample_config(
    mu: IntensityMeasure, window: ClopenSet, depth: int, rng: random.Random
) -> Configuration:
    """One Poisson configuration on the window with intensity rho·m: the
    points of sample_keys, built and validated as a Configuration."""
    balls, keys = sample_keys(mu, window, depth, rng)
    return Configuration(tuple(balls[i].point(m) for i, m in keys), window)


# -- exact expectations -----------------------------------------------------


def window_cells(mu: IntensityMeasure, fns: list) -> list:
    """refine_window cells of the listed step functions and clopen sets and
    then mu's density, over the smallest B(0; R), R >= 0, holding all their
    parts; no cells when every one of them is constant.

    Outside that ball each function equals its tail and the density is 1,
    so every Poisson expectation here integrates over these cells alone."""
    fns = [*fns, mu.density]
    r = max(
        (b.enclosing_zero_exp() for fn in fns for b, _ in read_parts(fn)[0]),
        default=-math.inf,
    )
    if r == -math.inf:
        return []
    return refine_window(ClopenSet(mu.ctx, (Ball(mu.ctx, max(r, 0), ()),)), fns)


def laplace_sum(cells: list) -> float:
    """The integral of (e^f - 1) rho dm over (cell, (f, rho)) cells; one
    float exponential per cell."""
    try:
        total = math.fsum(
            math.expm1(fv) * float(rv * cell.measure) for cell, (fv, rv) in cells
        )
        if math.isfinite(total):  # a product past a float's range is inf
            return total
    except OverflowError:
        pass
    raise PadicAffineError(
        "the Laplace exponent overflows a float: f or a cell's mass is too large"
    )


def laplace_exponent(f: StepFunction, mu: IntensityMeasure) -> float:
    """The integral of (e^f - 1) rho dm; rational coefficients exact, one
    float exponential per constant piece. It diverges unless f has tail 0."""
    if f.tail != 0:
        raise UnboundedIntegral("test function must vanish at infinity")
    return laplace_sum(window_cells(mu, [f]))


def _poisson_pmf(lam: float, k: int) -> float:
    try:
        return math.exp(-lam) * lam**k / math.factorial(k)
    except OverflowError:
        # lam**k or k! is past a float's range: the same term in log space
        if lam == 0:
            return float(k == 0)
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _predicate_prob(op: str, k: int, lam: float) -> float:
    if op == EQ:
        return _poisson_pmf(lam, k)
    if op == LE:
        return sum(_poisson_pmf(lam, j) for j in range(k + 1))
    return 1.0 - sum(_poisson_pmf(lam, j) for j in range(k))


def exp_checked(x: float) -> float:
    """e^x, or a PadicAffineError when it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise PadicAffineError(f"e^{x:.6g} overflows a float") from exc


def _float_checked(x: Fraction, what: str) -> float:
    """float(x), or a PadicAffineError when x is past a float's range."""
    try:
        return float(x)
    except OverflowError as exc:
        raise PadicAffineError(f"{what} overflows a float") from exc


def expect_exact(f: CylinderFunction, mu: IntensityMeasure) -> float:
    """Closed-form Poisson expectation for the supported shapes."""
    if isinstance(f, Exponential):
        return exp_checked(laplace_exponent(f.f, mu))
    if isinstance(f, Polynomial):
        if f.degree > 2:
            raise UnsupportedShape("polynomial expectations need degree <= 2")
        # E<g,gamma> = int g dmu; E<g1,gamma><g2,gamma> adds int g1 g2 dmu to
        # the product of the means (the Campbell formulas)
        gs = [g for g, e in f.factors for _ in range(e)]
        cells = [(vs, rv * c.measure) for c, (*vs, rv) in window_cells(mu, gs)]
        m = [sum((vs[j] * w for vs, w in cells), Fraction(0)) for j in range(len(gs))]
        if len(gs) == 1:
            return _float_checked(m[0], "the mean")
        cross = sum((vs[0] * vs[1] * w for vs, w in cells), Fraction(0))
        return _float_checked(cross + m[0] * m[1], "the second moment")
    if isinstance(f, CountEvent):
        if not f.sets_disjoint():
            raise UnsupportedShape(
                "count events need pairwise disjoint sets for exact expectation"
            )
        out = 1.0
        for s, op, k in f.conditions:
            lam = _float_checked(mu.mass(s), "the mass of a count set")
            out *= _predicate_prob(op, k, lam)
        return out
    raise UnsupportedShape(f"no closed form for {type(f).__name__}")


# -- Monte Carlo engine -----------------------------------------------------

_CHUNK = 4096
_BLOCK_BYTES = 1 << 14  # random bytes one mc_run block reads at most
_BLOCK_DRAWS = 512  # draws one mc_run block holds at most
_STEP = 2.0**-53  # random() is ((w0 >> 5) * 2^26 + (w1 >> 6)) * _STEP
_WORDS = struct.Struct("<II")  # two 32-bit outputs, as getrandbits lays them out
_TOP_BYTE = (0xFF << 24).to_bytes(8, "little")  # a lane's top byte of u


def _chunk_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def mc_atoms(mu: IntensityMeasure, fns: list) -> list:
    """Sampling atoms (cell, rate, values) for count-based estimators, over
    the cells of window_cells.

    Every listed function is constant per cell, so any descriptor value is a
    function of the per-cell counts alone; estimating from counts is
    distribution-exact, not an approximation.
    """
    atoms = [
        (cell, values[-1] * cell.measure, values[:-1])
        for cell, values in window_cells(mu, fns)
        if values[-1] > 0
    ]
    _check_total(sum((rate for _, rate, _ in atoms), Fraction(0)))
    return [(cell, float(rate), values) for cell, rate, values in atoms]


def mc_run(atoms: list, eval_counts, n: int, seed: int):
    """Mean and standard error of eval_counts over n Poisson draws.

    eval_counts takes one draw's nonzero counts as (atom index, count) pairs
    in atom order. The stream is pre-split into fixed-size chunks merged in
    index order, so the estimate is bit-identical for a given (seed, n).

    A draw reads one uniform per slot: one per atom, or one per piece of a
    rate above SPLIT_RATE, in the order PoissonVariate.draw reads them. Each
    block of draws reads its uniforms with one getrandbits call: random() is
    (w0 >> 5, w1 >> 6) of two consecutive 32-bit outputs, which getrandbits
    emits in the same order, least significant first, so each uniform is one
    64-bit lane w0 | w1 << 32. A uniform whose top byte (bits 24-31 of w0)
    is below T = floor(P(N = 0)·256) lies below P(N = 0), so its count is 0.
    Adding (256 - T) << 24 to the masked top byte of every lane carries into
    bit 32 exactly where the top byte is >= T, for all slots in one integer
    sum; find walks those lanes, and only their uniforms are bisected, each
    formed in float exactly as random() forms it, in the rate's one CDF
    table, the PoissonVariate.table that draw reads. The work per draw is
    about atoms/256 plus the points drawn, beside C passes over its bytes.
    """
    if n < 1:
        raise PadicAffineError("Monte Carlo runs need at least one sample")
    plan = []  # per slot: (atom index, pieces, CDF table); None for later pieces
    lift = bytearray()  # per slot: (256 - T) << 24 as one little-endian lane
    for i, (_, rate, _) in enumerate(atoms):
        variate = PoissonVariate(rate)
        # a split rate has no zero shortcut: T = 0 marks its first piece in
        # every draw, and T = 256 the rest in none
        t = int(variate.zero * 256) if variate.pieces == 1 else 0
        plan.append((i, variate.pieces, variate.table))
        plan.extend([None] * (variate.pieces - 1))
        lift += ((256 - t) << 24).to_bytes(8, "little")
        lift += bytes(8 * (variate.pieces - 1))
    slots = len(plan)
    width = 8 * slots  # random bytes per draw
    rows = max(1, min(_BLOCK_DRAWS, _BLOCK_BYTES // max(width, 1)))
    lanes = {}  # draws in a block -> (top-byte mask, lift) over the block
    words = _WORDS.unpack_from
    total = 0.0
    total_sq = 0.0
    done = 0
    index = 0
    while done < n:
        take = min(_CHUNK, n - done)
        rng = _chunk_rng(seed, index)
        for start in range(0, take, rows):
            block = min(rows, take - start)
            if block not in lanes:
                lanes[block] = (
                    int.from_bytes(_TOP_BYTE * (slots * block), "little"),
                    int.from_bytes(lift * block, "little"),
                )
            mask, bias = lanes[block]
            nbytes = width * block
            bits = rng.getrandbits(8 * nbytes)
            raw = bits.to_bytes(nbytes, "little")
            marked = ((bits & mask) + bias).to_bytes(nbytes, "little")[4::8]
            nonzero = [[] for _ in range(block)]
            q = marked.find(1)  # q = row · slots + slot
            while q != -1:
                r, slot = divmod(q, slots)
                i, pieces, table = plan[slot]
                size = len(table)
                w0, w1 = words(raw, 8 * q)
                u = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * _STEP
                k = bisect_left(table, u)
                count = k if k < size else _TABLE_END + 1
                if pieces > 1:  # a split rate sums the counts of its pieces
                    for off in range(8 * q + 8, 8 * (q + pieces), 8):
                        w0, w1 = words(raw, off)
                        u = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * _STEP
                        k = bisect_left(table, u)
                        count += k if k < size else _TABLE_END + 1
                if count:
                    nonzero[r].append((i, count))
                q = marked.find(1, q + 1)
            for pairs in nonzero:
                v = eval_counts(pairs)
                total += v
                total_sq += v * v
        done += take
        index += 1
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n) if n > 1 else float("inf")
    return mean, se


def _counts_evaluator(f: CylinderFunction, atoms: list, offset: int = 0):
    """Closure computing F(gamma) from the nonzero counts, as mc_run passes
    them: (atom index, count) pairs in atom order. values[offset...] hold
    the per-cell values of f.fns() in mc_atoms order, so each pairing is the
    sum of count times value over the atoms hit."""
    rows = [
        [float(vals[j]) for _, _, vals in atoms]
        for j in range(offset, offset + len(f.fns()))
    ]
    psi = f.psi

    def ev(pairs):
        xs = []  # a loop, not a comprehension: one frame less per draw
        for row in rows:
            xs.append(sum(c * row[i] for i, c in pairs))
        return psi(xs)

    return ev


def product_evaluator(mu: IntensityMeasure, fs: list):
    """(atoms, evaluator) for Monte Carlo of the product of the descriptors
    fs under pi_mu: mc_atoms of their functions and the product of their
    count evaluators."""
    atoms = mc_atoms(mu, [fn for f in fs for fn in f.fns()])
    evs = []
    offset = 0
    for f in fs:
        evs.append(_counts_evaluator(f, atoms, offset))
        offset += len(f.fns())
    if len(evs) == 1:
        return atoms, evs[0]

    def product(pairs):
        out = 1.0
        for ev in evs:
            out *= ev(pairs)
        return out

    return atoms, product


def expect_mc(f: CylinderFunction, mu: IntensityMeasure, n: int, seed: int):
    """Monte Carlo mean and standard error over n independent configurations
    on an auto-derived window; deterministic for a fixed seed."""
    if n < 1000:
        raise PadicAffineError("Monte Carlo runs need n >= 1000")
    atoms, ev = product_evaluator(mu, [f])
    if not atoms:
        # no point can land, so every configuration is the empty one
        return ev([]), 0.0
    return mc_run(atoms, ev, n, seed)
