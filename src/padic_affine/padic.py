"""Exact p-adic rational arithmetic, ultrametric balls and clopen sets.

Points of Q_p are represented by exact rationals (a dense subfield); every
quantity computed here is an exact integer or Fraction, never a float.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .errors import ContextMismatch, PadicAffineError

INFINITY = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PadicContext:
    """The prime p fixing which field Q_p we work in.

    Every object in the package carries exactly one context; mixing
    contexts raises :class:`ContextMismatch`.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise PadicAffineError(f"p must be prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PadicContext) and self.p == other.p

    def __hash__(self):
        return hash(("PadicContext", self.p))

    def __repr__(self):
        return f"PadicContext(p={self.p})"

    def rational(self, num, den=1) -> "Padic":
        return Padic(self, Fraction(num, den))

    def zero(self) -> "Padic":
        return Padic(self, Fraction(0))


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def fraction_valuation(x: Fraction, p: int):
    """p-adic valuation of an exact rational; +inf for 0."""
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def fraction_abs_p(x: Fraction, p: int) -> Fraction:
    """|x|_p as an exact rational; 0 for x = 0."""
    if x == 0:
        return Fraction(0)
    v = fraction_valuation(x, p)
    return Fraction(1, p**v) if v > 0 else Fraction(p ** (-v))


def ball_key(p: int, n: int, d: int, k: int) -> tuple:
    """Key of B(n/d; k) for integers n and d != 0: the nonzero digits
    (position, digit) of n/d at positions below -k, read from one modular
    inverse; no Fraction is built."""
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    if e <= k:  # every digit below -k is 0
        return ()
    mod = p ** (e - k)
    m = n * pow(d, -1, mod) % mod  # p^e · n/d modulo p^(e-k)
    key = []
    pos = -e
    while m:
        m, digit = divmod(m, p)
        if digit:
            key.append((pos, digit))
        pos += 1
    return tuple(key)


class Padic:
    """An element of Q embedded in Q_p: an exact rational with p-adic size."""

    __slots__ = ("ctx", "frac")

    def __init__(self, ctx: PadicContext, value):
        self.ctx = ctx
        self.frac = value if isinstance(value, Fraction) else Fraction(value)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Fraction:
        if isinstance(other, Padic):
            if other.ctx.p != self.ctx.p:
                raise ContextMismatch(
                    f"mixing Q_{self.ctx.p} with Q_{other.ctx.p}"
                )
            return other.frac
        return Fraction(other)

    def __add__(self, other):
        return Padic(self.ctx, self.frac + self._coerce(other))

    def __sub__(self, other):
        return Padic(self.ctx, self.frac - self._coerce(other))

    def __mul__(self, other):
        return Padic(self.ctx, self.frac * self._coerce(other))

    def __truediv__(self, other):
        return Padic(self.ctx, self.frac / self._coerce(other))

    def __neg__(self):
        return Padic(self.ctx, -self.frac)

    def __eq__(self, other):
        if isinstance(other, Padic):
            return self.ctx.p == other.ctx.p and self.frac == other.frac
        return self.frac == other

    def __hash__(self):
        return hash((self.ctx.p, *self.frac.as_integer_ratio()))

    def __repr__(self):
        return f"Padic({self.frac!r}, p={self.ctx.p})"


# -- balls ------------------------------------------------------------------

EQUAL = "equal"
FIRST_INSIDE_SECOND = "first-inside-second"
SECOND_INSIDE_FIRST = "second-inside-first"
DISJOINT = "disjoint"


class Ball:
    """The ball B(c; k) = {x : |x - c|_p <= p^k}, with measure p^k.

    Identity is the coset c + p^{-k} Z_p: the canonical key is the tuple of
    nonzero digits of the center at positions below -k, which makes
    equality, nesting and hashing drift-free. from_center and image read
    the key from the center's integer numerator and denominator with one
    modular inverse, building no Fraction or Padic.
    """

    __slots__ = ("ctx", "radius_exp", "key", "_center", "_ints")

    def __init__(self, ctx: PadicContext, radius_exp: int, key: tuple):
        self.ctx = ctx
        self.radius_exp = radius_exp
        self.key = key  # sorted tuple of (position, digit), digit != 0
        self._center = None
        self._ints = None

    @classmethod
    def from_center(cls, center: Padic, radius_exp: int) -> "Ball":
        n, d = center.frac.as_integer_ratio()
        return cls(center.ctx, radius_exp, ball_key(center.ctx.p, n, d, radius_exp))

    @property
    def center(self) -> Padic:
        if self._center is None:
            cn, cd, _, _ = self._frame()
            self._center = Padic(self.ctx, Fraction(cn, cd))
        return self._center

    def _frame(self) -> tuple:
        # (cn, cd, up, down): the center is cn/cd and p^k = up/down
        if self._ints is None:
            p, k, key = self.ctx.p, self.radius_exp, self.key
            e = max(0, -key[0][0]) if key else 0  # digits start at -e
            cn = sum(d * p ** (i + e) for i, d in key)
            self._ints = (cn, p**e, p ** max(k, 0), p ** max(-k, 0))
        return self._ints

    @property
    def measure(self) -> Fraction:
        p, k = self.ctx.p, self.radius_exp
        return Fraction(p**k) if k >= 0 else Fraction(1, p**-k)

    def __eq__(self, other):
        return (
            isinstance(other, Ball)
            and self.ctx.p == other.ctx.p
            and self.radius_exp == other.radius_exp
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.ctx.p, self.radius_exp, self.key))

    def __repr__(self):
        return f"Ball({self.center.frac!r}; {self.radius_exp}, p={self.ctx.p})"

    def __str__(self):
        # the literal grammar's B(c;k), c = cn/cd from _frame(), in lowest
        # terms already: cd is p^e, and when e > 0 cn's lowest digit is the
        # key's first, nonzero
        cn, cd, _, _ = self._frame()
        if cd == 1:
            return f"B({cn};{self.radius_exp})"
        return f"B({cn}/{cd};{self.radius_exp})"

    def sort_key(self):
        return (self.radius_exp, self.key)

    def contains(self, x: Padic) -> bool:
        # x in B(c; k) iff the reduced denominator of p^k (x - c) is prime to p
        p = self.ctx.p
        if x.ctx.p != p:
            raise ContextMismatch(f"mixing Q_{x.ctx.p} with Q_{p}")
        cn, cd, up, down = self._frame()
        yn, yd = x.frac.as_integer_ratio()
        den = down * yd * cd
        return den // math.gcd(up * (yn * cd - cn * yd), den) % p != 0

    def truncate_key(self, radius_exp: int) -> tuple:
        # key of the ball of the given larger radius containing this one: a
        # prefix, as the key is sorted by position
        key = self.key
        n = len(key)
        while n and key[n - 1][0] >= -radius_exp:
            n -= 1
        return key[:n]

    def relation(self, other: "Ball") -> str:
        if self.ctx.p != other.ctx.p:
            raise ContextMismatch("balls over different primes")
        k1, k2 = self.radius_exp, other.radius_exp
        if k1 == k2:
            return EQUAL if self.key == other.key else DISJOINT
        if k1 < k2:
            if self.truncate_key(k2) == other.key:
                return FIRST_INSIDE_SECOND
            return DISJOINT
        if other.truncate_key(k1) == self.key:
            return SECOND_INSIDE_FIRST
        return DISJOINT

    def children(self) -> list:
        """The p disjoint sub-balls of radius p^{k-1} partitioning this ball."""
        k = self.radius_exp
        out = []
        for r in range(self.ctx.p):
            key = self.key if r == 0 else self.key + ((-k, r),)
            out.append(Ball(self.ctx, k - 1, key))
        return out

    def enclosing_zero_exp(self) -> int:
        """Smallest R with this ball inside B(0; R)."""
        if not self.key:
            return self.radius_exp
        lowest = min(i for i, _ in self.key)
        return max(self.radius_exp, -lowest)

    def image(self, a_val: Fraction, b_val: Fraction) -> "Ball":
        """The ball (B + b)/a, exact; radius scales by 1/|a|_p."""
        if a_val == 0:
            raise PadicAffineError("a must be nonzero")
        p = self.ctx.p
        cn, cd, _, _ = self._frame()
        an, ad = a_val.as_integer_ratio()
        bn, bd = b_val.as_integer_ratio()
        # (c + b)/a = (cn·bd + bn·cd)·ad / (cd·bd·an)
        k = self.radius_exp + _int_valuation(an, p) - _int_valuation(ad, p)
        key = ball_key(p, (cn * bd + bn * cd) * ad, cd * bd * an, k)
        return Ball(self.ctx, k, key)

    def point(self, m: int) -> Padic:
        """The point c + m·p^(-k) of B(c; k), for an integer m >= 0."""
        cn, cd, up, down = self._frame()
        return Padic(self.ctx, Fraction(cn * up + m * down * cd, cd * up))


def _slots(ball: Ball, radii: list):
    """(R, key) of the ball of radius R around `ball`, for each R >= its
    radius in the ascending list `radii`: a walk up the Bruhat-Tits tree."""
    key = ball.key
    n = len(key)
    for r in radii[bisect_left(radii, ball.radius_exp):]:
        while n and key[n - 1][0] >= -r:
            n -= 1
        yield r, key[:n]


class BallIndex:
    """Digit-key index over (ball, payload) entries; of entries with one
    ball, the last is kept.

    A ball's key lists the nonzero digits of its center below -radius_exp,
    sorted by position, so the ball of radius R >= radius_exp around it has
    the key prefix of digits below -R. Both lookups walk up from the queried
    ball through `_slots`, one dict hit on (radius_exp, key prefix) per
    indexed radius rather than a comparison with every entry.
    """

    __slots__ = ("_at", "_radii")

    def __init__(self, entries):
        self._at = at = {}
        radii = set()
        for entry in entries:
            ball = entry[0]
            at[(ball.radius_exp, ball.key)] = entry
            radii.add(ball.radius_exp)
        self._radii = sorted(radii)

    def covering(self, ball: Ball):
        """The smallest entry whose ball equals or contains `ball`, or None."""
        at = self._at
        for slot in _slots(ball, self._radii):
            entry = at.get(slot)
            if entry is not None:
                return entry
        return None

    def around(self, ball: Ball) -> list:
        """Every entry whose ball equals or contains `ball`, smallest first;
        more than one only when the indexed balls nest."""
        at = self._at
        return [at[slot] for slot in _slots(ball, self._radii) if slot in at]


def first_overlap(balls: list):
    """(i, j) with i < j for the first overlapping pair of the list, in
    lexicographic order, or None when the balls are pairwise disjoint."""
    at = {}
    for i, b in enumerate(balls):
        at.setdefault((b.radius_exp, b.key), []).append(i)
    radii = sorted({r for r, _ in at})
    pairs = (
        (min(i, j), max(i, j))
        for j, b in enumerate(balls)
        for slot in _slots(b, radii)
        for i in at.get(slot, ())
        if i != j
    )
    return min(pairs, default=None)


def _descend(ball, values, cuts, out):
    """Append the cells of `ball` to `out`, depth first, children in digit
    order: `cuts` are the entries strictly inside it, and a cell equal to a
    cut's ball is the last such entry's Ball, with that entry's value set.

    A loop, so that a nest of any depth fits. A stack holds the children
    still to visit, pushed in reverse digit order: a finished cell as its
    (ball, values) pair, a ball still to split as (ball, values, cuts).

    A cut no smaller than the ball would be split forever, so it is refused
    up front; each level's deeper cuts are then smaller than its children."""
    k = ball.radius_exp
    for cut in cuts:
        if cut[0].radius_exp >= k:
            raise PadicAffineError(f"cut {cut[0]} is not strictly inside {ball}")
    ctx = ball.ctx
    digits = range(ctx.p - 1, -1, -1)
    todo = [(ball, values, cuts)]
    push, pop, emit = todo.append, todo.pop, out.append
    while todo:
        item = pop()
        if len(item) == 2:
            emit(item)
            continue
        ball, values, cuts = item
        k = ball.radius_exp
        pos = -k
        above = ball.key
        n = len(above)
        groups = {}
        for cut in cuts:
            # the digit at position -k picks the child holding the cut; a key
            # inside the ball starts with the ball's key, so it is entry n
            key = cut[0].key
            digit = key[n][1] if len(key) > n and key[n][0] == pos else 0
            group = groups.get(digit)
            if group is None:
                groups[digit] = [cut]
            else:
                group.append(cut)
        for digit in digits:
            group = groups.get(digit)
            if group is None:  # most children: a cell with the parent's values
                key = above + ((pos, digit),) if digit else above
                push((Ball(ctx, k - 1, key), values))
                continue
            child = None
            vals = values
            deeper = []
            for cut in group:
                if cut[0].radius_exp == k - 1:
                    child = cut[0]
                    if vals is values:
                        vals = list(values)
                    vals[cut[1]] = cut[2]
                else:
                    deeper.append(cut)
            if child is None:
                key = above + ((pos, digit),) if digit else above
                child = Ball(ctx, k - 1, key)
            push((child, tuple(vals), deeper) if deeper else (child, tuple(vals)))


def split_union(entries, values: tuple) -> list:
    """Partition of the union of the balls of (ball, slot, value) entries
    into (cell, values) pairs. A cell carries, for each slot, the value of
    the smallest entry of that slot around it, else values[slot]; balls of
    one p may nest and repeat, within a slot and across slots.

    Entries group by (radius_exp, key), each slot hashed once and the
    groups numbered in first-appearance order. Taken largest radius first,
    each group finds its root, a group inside no other, with one dict hit
    per root radius; each root runs one descent, the trees in the order
    their first member appears in the entries. Roots and trees are kept by
    group number. A lone root is its first entry's Ball."""
    at, groups = {}, []  # at: (radius_exp, key) slot -> group number
    for entry in entries:
        ball = entry[0]
        i = at.setdefault((ball.radius_exp, ball.key), len(groups))
        if i == len(groups):
            groups.append([entry])
        else:
            groups[i].append(entry)
    balls = [group[0][0] for group in groups]
    radius = [ball.radius_exp for ball in balls]
    root_of = [None] * len(groups)
    radii = {}  # the roots' radii as an ordered set, descending
    for i in sorted(range(len(groups)), key=radius.__getitem__, reverse=True):
        key = balls[i].key
        n = len(key)
        for big in reversed(radii):  # ascending: key[:n] is truncate_key(big)
            while n and key[n - 1][0] >= -big:
                n -= 1
            # a miss, or a hit on this slot itself, reads root_of[i]: None
            root = root_of[at.get((big, key[:n]), i)]
            if root is not None:
                break
        else:
            root = i
            radii[radius[i]] = None
        root_of[i] = root
    trees = {}
    for i, root in enumerate(root_of):
        trees.setdefault(root, []).append(i)
    cells = []
    for root, members in trees.items():
        top = list(values)
        for _, slot, value in groups[root]:
            top[slot] = value
        cuts = [entry for m in members if m != root for entry in groups[m]]
        if cuts:
            _descend(balls[root], tuple(top), cuts, cells)
        else:
            cells.append((balls[root], tuple(top)))
    return cells


def read_parts(fn) -> tuple:
    """(parts, tail) of a step function, or of a clopen set read as its
    indicator: each ball valued True, tail False. The one place a clopen set
    turns into parts."""
    if isinstance(fn, ClopenSet):
        return [(b, True) for b in fn.balls], False
    return fn.parts, fn.tail


def union_cells(fns) -> list:
    """split_union over the parts of the step functions or clopen sets fns,
    one slot each, with their tails as defaults: (cell, per-function values)
    on a partition of the set where some function leaves its tail."""
    read = [read_parts(fn) for fn in fns]
    entries = [(b, slot, v) for slot, (parts, _) in enumerate(read) for b, v in parts]
    return split_union(entries, tuple(tail for _, tail in read))


def merge_siblings(ctx: PadicContext, parts: list) -> tuple:
    """Disjoint (ball, value) pairs with every complete family of p sibling
    balls of one value merged into their parent, until none is left, sorted
    by (radius_exp, key).

    A merge only completes a family one level up, so one pass per radius,
    from the smallest, reaches the same result as repeating full passes."""
    p = ctx.p
    if len(parts) < p:  # too few to hold a family
        return tuple(sorted(parts, key=lambda part: part[0].sort_key()))
    levels = {}
    for part in parts:
        levels.setdefault(part[0].radius_exp, []).append(part)
    out = []
    while levels:
        r = min(levels)
        families = {}
        for part in levels.pop(r):
            families.setdefault(part[0].truncate_key(r + 1), []).append(part)
        for key, members in families.items():
            value = members[0][1]
            if len(members) == p and all(v == value for _, v in members):
                levels.setdefault(r + 1, []).append((Ball(ctx, r + 1, key), value))
            else:
                out.extend(members)
    out.sort(key=lambda part: part[0].sort_key())
    return tuple(out)


class ClopenSet:
    """A finite disjoint union of balls, kept in canonical form.

    Canonicalization removes nested duplicates, merges any complete set of
    p sibling balls into their parent, and sorts by (radius_exp, digit key).
    """

    __slots__ = ("ctx", "balls")

    def __init__(self, ctx: PadicContext, balls: tuple):
        self.ctx = ctx
        self.balls = balls

    @classmethod
    def of(cls, ctx: PadicContext, balls) -> "ClopenSet":
        """Union of the given balls (nesting and duplicates allowed): the
        cells of their union walk in one slot, siblings merged."""
        return cls.of_cells(ctx, split_union([(b, 0, None) for b in balls], (None,)))

    @classmethod
    def of_cells(cls, ctx: PadicContext, cells: list) -> "ClopenSet":
        """Union of disjoint (ball, value) cells that all carry one value:
        siblings merged, which leaves its maximal balls, the one canonical
        form."""
        return cls(ctx, tuple(b for b, _ in merge_siblings(ctx, cells)))

    def __eq__(self, other):
        return (
            isinstance(other, ClopenSet)
            and self.ctx.p == other.ctx.p
            and self.balls == other.balls
        )

    def __hash__(self):
        return hash((self.ctx.p, self.balls))

    def __repr__(self):
        return f"ClopenSet({list(self.balls)!r})"

    def __bool__(self):
        return bool(self.balls)

    @property
    def is_empty(self) -> bool:
        return not self.balls

    @property
    def measure(self) -> Fraction:
        return sum((b.measure for b in self.balls), Fraction(0))

    def contains(self, x: Padic) -> bool:
        return any(b.contains(x) for b in self.balls)

    def enclosing_zero_exp(self) -> int:
        """Smallest R with every ball inside B(0; R); 0 for the empty set."""
        return max((b.enclosing_zero_exp() for b in self.balls), default=0)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        return ClopenSet.of(self.ctx, self.balls + other.balls)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        return self._keep(other, True)

    def subtract(self, other: "ClopenSet") -> "ClopenSet":
        return self._keep(other, False)

    def _keep(self, other: "ClopenSet", in_other: bool) -> "ClopenSet":
        # the cells of the union that lie in self, and in other or not
        self._check(other)
        cells = union_cells((self, other))
        kept = [(cell, None) for cell, (a, b) in cells if a and b == in_other]
        return ClopenSet.of_cells(self.ctx, kept)

    def translate(self, h: Fraction) -> "ClopenSet":
        return ClopenSet.of(self.ctx, [b.image(1, h) for b in self.balls])

    def _check(self, other):
        if self.ctx.p != other.ctx.p:
            raise ContextMismatch("clopen sets over different primes")

