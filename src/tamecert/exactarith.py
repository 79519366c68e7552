"""Exact arithmetic over the rotation subgroup Z*alpha + Q, reduced mod 1.

alpha is an irrational number in (0,1) described by its continued fraction
(finite prefix plus an optional eventually-periodic tail), so every order
decision reduces to refining convergent enclosures until they become
conclusive.  A nonzero element a*alpha + b of the subgroup is never an
integer, hence every comparison terminates; the hard refinement cap only
guards against inconsistent inputs.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import abc
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import QuotientsExhausted, RefinementLimit

REFINEMENT_CAP = 10_000

_CF_RE = re.compile(r"^cf:\[0;(?P<body>[^\]]*)\]$")


class RotationNumber:
    """An irrational alpha = [0; a1, a2, ...] in (0,1).

    ``prefix`` holds the leading partial quotients, ``period`` an optional
    repeating tail (quadratic irrationals).  Without a period the quotient
    supply is finite and deep refinements raise QuotientsExhausted.
    """

    def __init__(self, prefix: Sequence[int] = (), period: Sequence[int] | None = None):
        prefix = tuple(int(a) for a in prefix)
        period = tuple(int(a) for a in period) if period is not None else None
        if any(a < 1 for a in prefix):
            raise ValueError("partial quotients must be >= 1")
        if period is not None:
            if not period:
                raise ValueError("declared period must be nonempty")
            if any(a < 1 for a in period):
                raise ValueError("partial quotients must be >= 1")
        if period is None and not prefix:
            raise ValueError("need at least one partial quotient")
        if period is not None and len(period) == 1:
            # one spelling per number: the prefix ends in exactly one copy of a
            # repeated quotient, as ``describe`` writes it and the parser reads it
            while prefix and prefix[-1] == period[0]:
                prefix = prefix[:-1]
            prefix += period
        self.prefix = prefix
        self.period = period
        # p_k/q_k with p_0/q_0 = 0/1 and the usual recurrence; p_{-1}/q_{-1} = 1/0.
        # _qq[k] = q_k*q_{k+1}, the reciprocal width of the level-k enclosure;
        # q_k and _qq[k] strictly increase from k = 1, so levels are found by
        # bisection.
        self._p = [0]
        self._q = [1]
        self._qq: list[int] = []

    # -- partial quotients -------------------------------------------------

    def quotient(self, k: int) -> int:
        """k-th partial quotient a_k, 1-indexed."""
        if k < 1:
            raise ValueError("quotient index is 1-based")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if self.period is None:
            raise QuotientsExhausted(
                f"alpha has only {len(self.prefix)} partial quotients, asked for a_{k}"
            )
        return self.period[(k - len(self.prefix) - 1) % len(self.period)]

    def quotients(self, count: int) -> list[int]:
        return [self.quotient(k) for k in range(1, count + 1)]

    # -- convergents --------------------------------------------------------

    def _extend(self, k: int) -> None:
        while len(self._qq) < k:
            i = len(self._p)
            a = self.quotient(i)
            pm2 = self._p[i - 2] if i >= 2 else 1
            qm2 = self._q[i - 2] if i >= 2 else 0
            self._p.append(a * self._p[i - 1] + pm2)
            self._q.append(a * self._q[i - 1] + qm2)
            self._qq.append(self._q[i - 1] * self._q[i])

    def _first_level(self, seq: list[int], least: int) -> int:
        """Smallest k >= 1 with seq[k] >= least; seq is _q or _qq."""
        while len(seq) < 2 or seq[-1] < least:
            self._extend(len(self._q))
        return bisect_left(seq, least, 1)

    def numerator(self, k: int) -> int:
        self._extend(k)
        return self._p[k]

    def denominator(self, k: int) -> int:
        self._extend(k)
        return self._q[k]

    def convergent(self, k: int) -> Fraction:
        """p_k/q_k (k >= 0; convergent(0) is the trivial 0/1)."""
        self._extend(k)
        return Fraction(self._p[k], self._q[k])

    def convergents(self, count: int) -> list[Fraction]:
        """The first ``count`` nontrivial convergents p_1/q_1 ... p_count/q_count."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.convergent(k) for k in range(1, count + 1)]

    def enclosure(self, level: int) -> tuple[Fraction, Fraction]:
        """Rational (lo, hi) with lo < alpha < hi, from consecutive convergents."""
        c0 = self.convergent(level)
        c1 = self.convergent(level + 1)
        return (c0, c1) if c0 < c1 else (c1, c0)

    def level_for(self, width: Fraction) -> int:
        """Smallest level k >= 1 whose enclosure width 1/(q_k q_{k+1}) is <= width.

        On return the convergents up to k+1 are cached."""
        num, den = width.numerator, width.denominator
        if num <= 0:
            raise ValueError("width must be positive")
        # q_k q_{k+1} * num >= den  <=>  q_k q_{k+1} >= ceil(den / num)
        return self._first_level(self._qq, -(-den // num))

    def denominator_level(self, least: int) -> int:
        """Smallest k >= 1 with q_k >= least."""
        return self._first_level(self._q, least)

    def gap_upper(self, k: int) -> Fraction:
        """Certified upper bound 1/q_{k+1} on |q_k*alpha - p_k|."""
        return Fraction(1, self.denominator(k + 1))

    def approx(self, eps: Fraction) -> Fraction:
        """A rational within eps of alpha."""
        level = 1
        for _ in range(REFINEMENT_CAP):
            lo, hi = self.enclosure(level)
            if hi - lo < eps:
                return (lo + hi) / 2
            level += 1
        raise RefinementLimit("alpha approximation did not converge")

    # -- misc ----------------------------------------------------------------

    def describe(self) -> str:
        parts = [str(a) for a in self.prefix]
        if self.period is not None:
            if len(self.period) == 1:
                parts += [str(self.period[0]), "..."]
            else:
                parts.append("(" + ",".join(str(a) for a in self.period) + ")")
        return "cf:[0;" + ",".join(parts) + "]"

    def __repr__(self) -> str:
        return f"RotationNumber({self.describe()!r})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RotationNumber):
            return NotImplemented
        return self.prefix == other.prefix and self.period == other.period

    def __hash__(self):
        return hash((self.prefix, self.period))


def parse_rotation_number(text: str) -> RotationNumber:
    """Parse the cf text syntax: ``cf:[0;1,1,1,...]`` or ``cf:[0;2,(1,3)]``.

    A trailing ``...`` repeats the last listed quotient forever; a
    parenthesized group is an explicit period.
    """
    m = _CF_RE.match(text.strip()) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"not a continued-fraction literal: {text!r}")
    body = m.group("body").strip()
    if not body:
        raise ValueError("empty continued fraction")
    period: tuple[int, ...] | None = None
    pm = re.search(r"\((?P<per>[0-9,\s]+)\)\s*$", body)
    if pm:
        period = tuple(int(x) for x in pm.group("per").split(","))
        body = body[: pm.start()].rstrip().rstrip(",")
    elif body.endswith("..."):
        body = body[:-3].rstrip().rstrip(",")
        if not body:
            raise ValueError("'...' needs at least one quotient before it")
        last = int(body.split(",")[-1])
        period = (last,)
    prefix = tuple(int(x) for x in body.split(",")) if body else ()
    return RotationNumber(prefix, period)


GOLDEN = RotationNumber((), period=(1,))
SQRT2_MINUS_1 = RotationNumber((), period=(2,))


# ---------------------------------------------------------------------------
# points of the subgroup Z*alpha + Q mod 1
# ---------------------------------------------------------------------------

# Order decisions evaluate a*alpha + n/d at the enclosure endpoints p_k/q_k
# and p_{k+1}/q_{k+1} as integer fractions (a*p*d + n*q) / (q*d): the
# denominators are positive, so floors come from integer division alone, and
# an order decision is the floor of a difference.

_AS_FLOAT_EPS = Fraction(1, 10**22)


def _floor_linear(alpha: RotationNumber, a: int, n: int, d: int) -> int:
    """floor(a*alpha + n/d) for d > 0 (n/d need not be reduced), exact.
    Terminates because a*alpha + n/d is an integer only when a == 0 (then
    n // d decides directly)."""
    if a == 0:
        return n // d
    ad, P, Q = a * d, alpha._p, alpha._q
    scale = 4 * abs(a)
    for _ in range(REFINEMENT_CAP):
        k = alpha.level_for(Fraction(1, scale))
        f = (ad * P[k] + n * Q[k]) // (Q[k] * d)
        if f == (ad * P[k + 1] + n * Q[k + 1]) // (Q[k + 1] * d):
            return f
        scale <<= 10
    raise RefinementLimit(f"floor({a}*alpha + {n}/{d}) did not resolve")


class CirclePoint:
    """a*alpha + b reduced so the represented value lies in [0,1).

    The representation is unique: for irrational alpha, a*alpha + b is
    rational only when a == 0.
    """

    __slots__ = ("alpha", "a", "b")

    def __init__(self, alpha: RotationNumber, a: int, b: Fraction):
        b = b if isinstance(b, Fraction) else Fraction(b)
        self.alpha = alpha
        self.a = a
        self.b = b - _floor_linear(alpha, a, b.numerator, b.denominator)

    @classmethod
    def _reduced(cls, alpha: RotationNumber, a: int, b: Fraction) -> "CirclePoint":
        """The point whose ``b`` is already reduced: no floor is taken."""
        p = object.__new__(cls)
        p.alpha = alpha
        p.a = a
        p.b = b
        return p

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.alpha, self.a, self.b) == (other.alpha, other.a, other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.alpha, self.a, self.b))

    # -- group structure ----------------------------------------------------

    def __add__(self, other: "CirclePoint") -> "CirclePoint":
        self._check_same_alpha(other)
        return CirclePoint(self.alpha, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "CirclePoint") -> "CirclePoint":
        self._check_same_alpha(other)
        return CirclePoint(self.alpha, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "CirclePoint":
        return CirclePoint(self.alpha, -self.a, -self.b)

    def translate(self, n: int) -> "CirclePoint":
        """The point + n*alpha (one rotation step per unit of n)."""
        return CirclePoint(self.alpha, self.a + n, self.b)

    def _check_same_alpha(self, other: "CirclePoint") -> None:
        if self.alpha is not other.alpha and self.alpha != other.alpha:
            raise ValueError("points use different rotation numbers")

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.a == 0

    @property
    def on_orbit(self) -> bool:
        """True when the point is n*alpha mod 1 for some integer n (= self.a)."""
        return self.b.denominator == 1

    @property
    def orbit_index(self) -> int:
        if not self.on_orbit:
            raise ValueError("not an orbit point")
        return self.a

    # -- certified value access ----------------------------------------------

    def _endpoints(self, eps: Fraction) -> tuple[int, int, int, int]:
        """Integers (n0, q0, n1, q1) with the value between n0/(q0*d) and
        n1/(q1*d), d = b.denominator, within eps of each other (a != 0)."""
        a, alpha = self.a, self.alpha
        k = alpha.level_for(Fraction(eps.numerator, eps.denominator * abs(a)))
        n, d = self.b.numerator, self.b.denominator
        ad, P, Q = a * d, alpha._p, alpha._q
        q0, q1 = Q[k], Q[k + 1]
        return ad * P[k] + n * q0, q0, ad * P[k + 1] + n * q1, q1

    def bounds(self, eps: Fraction) -> tuple[Fraction, Fraction]:
        """Rational (lo, hi) with lo <= value <= hi and hi - lo <= eps."""
        if self.a == 0:
            return (self.b, self.b)
        eps = eps if isinstance(eps, Fraction) else Fraction(eps)
        n0, q0, n1, q1 = self._endpoints(eps)
        if n0 * q1 > n1 * q0:
            n0, q0, n1, q1 = n1, q1, n0, q0
        d = self.b.denominator
        return Fraction(n0, q0 * d), Fraction(n1, q1 * d)

    def midpoint(self, eps: Fraction) -> tuple[int, int]:
        """(num, den), den > 0, with num/den the midpoint of bounds(eps)."""
        if self.a == 0:
            return self.b.numerator, self.b.denominator
        n0, q0, n1, q1 = self._endpoints(eps)
        return n0 * q1 + n1 * q0, 2 * q0 * q1 * self.b.denominator

    def as_float(self) -> float:
        # int / int rounds correctly, so this is float((lo + hi) / 2) of the bounds
        num, den = self.midpoint(_AS_FLOAT_EPS)
        return num / den

    # -- order ------------------------------------------------------------------

    def compare(self, other: "CirclePoint") -> int:
        """-1, 0, +1 comparing the represented values in [0,1)."""
        self._check_same_alpha(other)
        x, y = self.b, other.b
        da = self.a - other.a
        n = x.numerator * y.denominator - y.numerator * x.denominator
        # the difference of two values in [0, 1) lies in (-1, 1): its floor is -1 or 0
        if _floor_linear(self.alpha, da, n, x.denominator * y.denominator) < 0:
            return -1
        return 1 if da or n else 0

    def __repr__(self):
        return f"CirclePoint({self.a}*a+{self.b})"


def point(alpha: RotationNumber, a: int, b=0) -> CirclePoint:
    return CirclePoint(alpha, a, Fraction(b))


def zero(alpha: RotationNumber) -> CirclePoint:
    return CirclePoint(alpha, 0, Fraction(0))


def orbit_point(alpha: RotationNumber, n: int) -> CirclePoint:
    return CirclePoint(alpha, n, Fraction(0))


# ---------------------------------------------------------------------------
# point arrays: many points of the subgroup as int64 columns
# ---------------------------------------------------------------------------

# The array range: |a| <= 2^40 and 1 <= den < 2^53, so a, num and den are
# exact float64 values and every sum built from them stays inside int64.
ARRAY_A_MAX = 1 << 40
ARRAY_DEN_MAX = 1 << 53


def _two_sum(x, y):
    """(s, e) with s = fl(x + y) and s + e = x + y exactly (Knuth)."""
    s = x + y
    v = s - x
    return s, (x - (s - v)) + (y - v)


def _halves(x):
    """x = hi + lo, each with at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    """(p, e) with p = fl(x * y) and p + e = x * y exactly (Dekker)."""
    p = x * y
    xh, xl = _halves(x)
    yh, yl = _halves(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _exact_rows(alpha: RotationNumber, a: list, num: list, den: list) -> tuple[list, list]:
    """floor(a*alpha + num/den) and the ``as_float`` position of each row,
    point by point: what the float screen cannot certify."""
    floors, positions = [], []
    for ai, ni, di in zip(a, num, den):
        b = Fraction(ni, di)
        p = CirclePoint(alpha, ai, b)
        floors.append(int(b - p.b))
        positions.append(p.as_float())
    return floors, positions


def _floor_screen(alpha: RotationNumber, a, num, den) -> tuple[np.ndarray, np.ndarray]:
    """floor(a*alpha + num/den) (int64) and the position of every row in the
    array range, bitwise equal to ``CirclePoint.as_float``.

    A double-double evaluation (alpha to 2^-120, num/den by one remainder
    step, every product and sum exact but the last few) is within
    E = (|a|+1) 2^-102 of the value, and ``as_float`` rounds a midpoint within
    1e-22/2 of the value.  When the evaluation f + h + l (f an integer) has
    0 < h < 1 and lies more than the margin (|a|+1) 2^-100 + 2^-72, over twice
    E + 1e-22/2, inside the rounding cell of h, both the value and that
    midpoint lie in the cell, which is inside (0, 1): the floor is f and the
    position h.  Every other row with a != 0 is decided exactly.  A row with
    a == 0 is num/den: floor 0, position one correctly rounded division.
    """
    A, R, D = (np.asarray(c, dtype=np.float64) for c in (a, num, den))
    q1 = R / D
    s, se = _two_prod(q1, D)
    q2 = ((R - s) - se) / D  # R - q1*D is exact, so q1 + q2 is num/den to 2^-107
    try:
        c = alpha.convergent(alpha.level_for(Fraction(1, 1 << 120)))
        ah = float(c)
        al = float(c - Fraction(ah))
    except QuotientsExhausted:  # a finite quotient supply: decide every row exactly
        ah = al = math.nan
    p, pe = _two_prod(A, ah)
    s1, e1 = _two_sum(p, q1)
    f = np.floor(s1)
    u, ue = _two_sum(s1, -f)  # inexact for s1 < 0, e.g. -0.3 + 1
    h, l = _two_sum(u, (((pe + A * al) + q2) + e1) + ue)
    margin = (np.abs(A) + 1.0) * 2.0**-100 + 2.0**-72
    up, down = np.nextafter(h, 2.0) - h, h - np.nextafter(h, -1.0)
    sure = (h > 0) & (h < 1) & (l + margin < up / 2) & (l - margin > -down / 2)
    rational = A == 0
    floor = np.where(sure, f, 0.0).astype(np.int64)  # rows neither sure nor rational are redone
    positions = np.where(rational, q1, h)
    rows = np.flatnonzero(~(sure | rational))
    if rows.size:
        floor[rows], positions[rows] = _exact_rows(
            alpha, *(np.asarray(c)[rows].tolist() for c in (a, num, den))
        )
    return floor, positions


class PointSequence(abc.Sequence):
    """A sequence of points held as arrays, with float ``positions``, whose
    objects are built only when read: one point per integer index, or all of
    them once, as ``objects``, for iteration, slices, search and comparison."""

    __hash__ = None

    def __getitem__(self, i):
        if isinstance(i, slice) or "objects" in self.__dict__:
            return self.objects[i]
        return self.point(i)

    def __iter__(self):
        return iter(self.objects)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, PointSequence)):
            return self.objects == list(other)
        return NotImplemented


class PointArray(PointSequence):
    """Points a*alpha + b of the subgroup as int64 columns ``a``, ``num``, ``den``.

    num/den is b mod 1 in canonical form (0 <= num < den, gcd 1).  One
    batched floor gives ``floor`` = floor(a*alpha + num/den), so the reduced
    b of a point is num/den - floor, and ``positions``, its value as
    ``CirclePoint.as_float`` gives it (bitwise).
    """

    def __init__(self, alpha: RotationNumber, a, num, den, floor=None, positions=None):
        self.alpha, self.a, self.num, self.den = alpha, a, num, den
        if floor is None:
            floor, positions = _floor_screen(alpha, a, num, den)
        self.floor, self.positions = floor, positions

    @classmethod
    def build(cls, alpha: RotationNumber, a, num, den) -> "PointArray | None":
        """The points a_i*alpha + num_i/den_i (den_i > 0); None when a value
        is outside the array range, where points stay objects."""
        try:
            a, num, den = (np.asarray(c, dtype=np.int64) for c in (a, num, den))
        except OverflowError:
            return None
        if a.size and not (-ARRAY_A_MAX <= a.min() and a.max() <= ARRAY_A_MAX
                           and 1 <= den.min() and den.max() < ARRAY_DEN_MAX):
            return None
        g = np.gcd(num, den)
        den = den // g
        return cls(alpha, a, num // g % den, den)

    @classmethod
    def of(cls, alpha: RotationNumber, points) -> "PointArray | None":
        """The array of the CirclePoints ``points``, or None (see ``build``)."""
        bs = [p.b for p in points]
        return cls.build(alpha, [p.a for p in points],
                         [b.numerator % b.denominator for b in bs], [b.denominator for b in bs])

    def shift(self, g: CirclePoint) -> "PointArray | None":
        """Every point plus ``g``, or None when a sum leaves the array range."""
        if g.alpha != self.alpha:
            raise ValueError("points use different rotation numbers")
        gd = g.b.denominator
        if abs(g.a) > ARRAY_A_MAX or any(
            math.lcm(d, gd) >= ARRAY_DEN_MAX for d in set(self.den.tolist())
        ):
            return None
        lcm = np.lcm(self.den, gd)
        num = self.num * (lcm // self.den) + (g.b.numerator % gd) * (lcm // gd)
        return PointArray.build(self.alpha, self.a + g.a, num, lcm)

    def take(self, rows) -> "PointArray":
        return PointArray(self.alpha, *(c[rows] for c in self._columns()))

    @staticmethod
    def concat(parts: Sequence["PointArray"]) -> "PointArray":
        cols = zip(*(p._columns() for p in parts))
        return PointArray(parts[0].alpha, *(np.concatenate(c) for c in cols))

    def _columns(self):
        return self.a, self.num, self.den, self.floor, self.positions

    def matches(self, p: CirclePoint) -> np.ndarray:
        """Boolean mask of the rows equal to ``p``."""
        d = p.b.denominator
        return (self.a == p.a) & (self.num == p.b.numerator % d) & (self.den == d)

    def __len__(self) -> int:
        return len(self.a)

    def point(self, i) -> CirclePoint:
        a, n, d, f = (int(c[i]) for c in (self.a, self.num, self.den, self.floor))
        return CirclePoint._reduced(self.alpha, a, Fraction(n - f * d, d))

    @cached_property
    def objects(self) -> list[CirclePoint]:
        new, alpha = CirclePoint._reduced, self.alpha
        cols = (c.tolist() for c in (self.a, self.num, self.den, self.floor))
        return [new(alpha, a, Fraction(n - f * d, d)) for a, n, d, f in zip(*cols)]


# ---------------------------------------------------------------------------
# certified one-sided approach sequences
# ---------------------------------------------------------------------------


class ApproachSequence:
    """Times n_i with n_i*alpha mod 1 -> target strictly from one side.

    error_bounds[i] is a certified rational upper bound on the circle
    distance |n_i*alpha - target|; the bounds strictly decrease to 0.
    """

    __slots__ = ("target", "side", "times", "error_bounds")

    def __init__(self, target: CirclePoint, side: str, times: tuple[int, ...],
                 error_bounds: tuple[Fraction, ...]):
        if side not in ("below", "above"):
            raise ValueError("side must be 'below' or 'above'")
        self.target = target
        self.side = side
        self.times = times
        self.error_bounds = error_bounds

    def gap_point(self, n: int) -> CirclePoint:
        """Signed gap as a point: (target - n*alpha) for 'below', reversed for 'above'."""
        reached = orbit_point(self.target.alpha, n)
        return (self.target - reached) if self.side == "below" else (reached - self.target)

    def verify(self) -> bool:
        """Re-check every term: gap strictly positive and within its bound."""
        prev = None
        for n, bound in zip(self.times, self.error_bounds):
            g = self.gap_point(n)
            if g.is_zero:
                return False
            lo, hi = g.bounds(bound / 4)
            if not (lo > 0 and hi <= bound):
                return False
            if prev is not None and bound >= prev:
                return False
            prev = bound
        return True


def _delta_point(alpha: RotationNumber, k: int) -> CirclePoint:
    """|q_k*alpha - p_k| as an exact point (its value is in (0,1))."""
    p, q = alpha.numerator(k), alpha.denominator(k)
    if k % 2 == 0:  # q_k*alpha - p_k > 0
        return CirclePoint(alpha, q, Fraction(-p))
    return CirclePoint(alpha, -q, Fraction(p))


def one_sided_approach(target: CirclePoint, side: str, depth: int) -> ApproachSequence:
    """Times approaching the target strictly from the declared side.

    Orbit targets get the translated denominator ladder (even-index
    convergents approach from above, odd from below).  Targets with a
    genuine rational part are reached by a greedy walk that subtracts
    exactly-represented convergent errors from the remaining gap, so every
    emitted bound is certified.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    alpha = target.alpha

    if target.on_orbit:
        parity = 0 if side == "above" else 1
        times, bounds = [], []
        k = parity
        while len(times) < depth:
            times.append(target.a + alpha.denominator(k))
            bounds.append(alpha.gap_upper(k))
            k += 2
        return ApproachSequence(target, side, tuple(times), tuple(bounds))

    # greedy walk: maintain n and the exact remaining gap on the declared side
    n = target.a
    gap = CirclePoint(alpha, 0, target.b if side == "below" else -target.b)
    parity = 0 if side == "below" else 1  # even k steps move right, odd move left
    times: list[int] = []
    bounds: list[Fraction] = []
    prev_bound: Fraction | None = None
    while len(times) < depth:
        eps = Fraction(1, 10**6)
        for _ in range(REFINEMENT_CAP):
            glo, _ = gap.bounds(eps)
            if glo > 0:
                break
            eps /= 10**6
        else:
            raise RefinementLimit("gap lower bound did not resolve")
        k = parity
        while alpha.gap_upper(k) >= glo:
            k += 2
        n += alpha.denominator(k)
        gap = gap - _delta_point(alpha, k)
        # certify a strictly decreasing rational bound on the new gap
        eps = alpha.gap_upper(k)
        for _ in range(REFINEMENT_CAP):
            lo, hi = gap.bounds(eps)
            if lo > 0 and (prev_bound is None or hi < prev_bound):
                break
            eps /= 16
        else:
            raise RefinementLimit("could not certify decreasing bound")
        times.append(n)
        bounds.append(hi)
        prev_bound = hi
    return ApproachSequence(target, side, tuple(times), tuple(bounds))
