"""Concrete dynamical systems with exact point representations.

* SplitCircleSystem - irrational rotation on the circle with a countable set
  of points doubled into one-sided copies (Sturmian phase space when the
  doubled set is the orbit of 0).
* RotationSystem - the plain circle rotation (equicontinuous base).
* CutProjectCoding - binary coding of a rotation orbit through a window that
  is either a finite union of half-open arcs or the complement of a truncated
  family of deleted arcs (fat-Cantor boundary).
* CosSystem - the almost automorphic cascade generated by the cos(1/x)-type
  sampling function, with its exotic fiber over 0.
* SemicocycleCascade - dyadic odometer extension with marked points of
  prescribed finite fiber cardinalities.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DepthInsufficient
from .exactarith import (
    GOLDEN,
    CirclePoint,
    PointArray,
    PointSequence,
    RotationNumber,
    orbit_point,
    point,
    zero,
)
from .order import MINUS, PLAIN, PLUS
from .tameness import check_window

SIDE_NAMES = {MINUS: "minus", PLAIN: "plain", PLUS: "plus"}
TWO_PI = 2.0 * math.pi


class SplitPoint:
    """A circle point with a side tag; the carrier of the split-circle order."""

    __slots__ = ("base", "side")

    def __init__(self, base: CirclePoint, side: int):
        if side not in (MINUS, PLAIN, PLUS):
            raise ValueError("side must be -1, 0 or +1")
        self.base = base
        self.side = side

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.side) == (other.base, other.side)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.side))

    def translate(self, n: int) -> "SplitPoint":
        return SplitPoint(self.base.translate(n), self.side)

    def __repr__(self):
        return f"SplitPoint({self.base!r}, {SIDE_NAMES[self.side]})"


class SplitArray(PointSequence):
    """Split points as a PointArray of bases and an int8 column of side tags."""

    def __init__(self, base: PointArray, side):
        self.base = base
        self.side = np.asarray(side, dtype=np.int8)

    @classmethod
    def of(cls, alpha: RotationNumber, points: Sequence[SplitPoint]) -> "SplitArray | None":
        """The array of ``points``, or None when a base is outside the array range."""
        base = PointArray.of(alpha, [x.base for x in points])
        return None if base is None else cls(base, [x.side for x in points])

    @staticmethod
    def concat(parts: Sequence["SplitArray"]) -> "SplitArray":
        return SplitArray(PointArray.concat([p.base for p in parts]),
                          np.concatenate([p.side for p in parts]))

    @property
    def positions(self) -> np.ndarray:
        return self.base.positions

    def contains(self, x: SplitPoint) -> bool:
        return bool((self.base.matches(x.base) & (self.side == x.side)).any())

    def __len__(self) -> int:
        return len(self.side)

    def point(self, i) -> SplitPoint:
        return SplitPoint(self.base.point(i), int(self.side[i]))

    @cached_property
    def objects(self) -> list[SplitPoint]:
        return [SplitPoint(b, s) for b, s in zip(self.base.objects, self.side.tolist())]


# ---------------------------------------------------------------------------
# certified bulk evaluation of (A0+n)*alpha + B0 mod 1 over an integer range
# ---------------------------------------------------------------------------


class _CircleWalk:
    """Walk n -> (A0+n)*alpha + B0 mod 1 on the int64 grid of a convergent, once
    for all the ``arcs`` [start, start + width) it is read against.

    The grid has D = q_k units and puts a*alpha + b at a*p_k + round(b*q_k)
    mod D.  Position n minus an arc start a*alpha + b is then within
    |A0+n-a|/q_{k+1} (convergent error) plus 1 (two roundings) units of D
    times the true offset, and the arc width is truncated to the grid under
    1 + 2^-20 units off.  So with nmax >= |A0+n| + |a|, an offset that stays
    ``slack`` = ceil(nmax/q_{k+1}) + 3 units clear of 0, D and the arc width
    is certified.  Anything closer is re-decided exactly.
    """

    GRID_BITS = 52  # D < 2^52: a 10-bit limb of n times the step stays below 2^62
    LIMB_BITS = 10
    BOUNDARY_EPS = Fraction(1, 1 << 72)  # D * eps < 2^-20 grid units

    def __init__(self, alpha: RotationNumber, x: CirclePoint, n0: int, n1: int,
                 arcs: tuple[tuple[CirclePoint, CirclePoint], ...]):
        nmax = max(abs(x.a + n0), abs(x.a + n1)) + max([abs(s.a) for s, _ in arcs], default=0) + 2
        # q_{k+1} >= min(2^52, nmax * 2^26) makes the slack 4 units whenever
        # nmax <= 2^52; the target stays below 10^13 sqrt(nmax), so an alpha with
        # a finite quotient prefix needs no convergent past the first q >= 10^13 sqrt(nmax)
        k = alpha.denominator_level(min(1 << self.GRID_BITS, nmax << 26)) - 1
        q = alpha.denominator(k)
        self.D = q
        self.step = alpha.numerator(k) % q
        self.start = self._grid(self.step, q, x.a + n0, x.b)
        self.slack = min(-(-nmax // alpha.denominator(k + 1)) + 3, q)
        self.n0, self.n1 = n0, n1
        self.arcs = arcs

    @staticmethod
    def _grid(step: int, d: int, a: int, b: Fraction) -> int:
        """a*alpha + b on the grid: a*p_k + round(b*q_k) mod D."""
        return (a * step + (2 * b.numerator * d + b.denominator) // (2 * b.denominator)) % d

    def positions(self) -> np.ndarray:
        """Grid positions for n = n0..n1 as int64, one 10-bit limb of n - n0 at a time.

        Scalars enter as np.int64: a Python int operand is converted anew by
        every array operation, which dominates a short walk.
        """
        count = max(self.n1 - self.n0 + 1, 0)
        limb, d = (1 << self.LIMB_BITS) - 1, np.int64(self.D)
        rest = np.arange(count, dtype=np.int64)
        pos, mult, top = np.int64(self.start), self.step, count - 1
        while top > limb:  # every limb below the top one
            term = rest & limb
            term *= np.int64(mult)
            term += pos
            term %= d
            pos = term
            rest >>= self.LIMB_BITS
            top >>= self.LIMB_BITS
            mult = (mult << self.LIMB_BITS) % self.D
        rest *= np.int64(mult)
        rest += pos
        rest %= d
        return rest

    def _cells(self, invert: bool):
        """The sorted cuts of ``arcs`` on the grid, and the symbol of each gap:
        1 in an arc, 0 in none (swapped when ``invert``), 2 near an arc end.
        Each arc cuts the circle into near start | inside | near end |
        outside, turned by its start.  Gap i ends at cuts[i]; gap 0 wraps
        round from cuts[-1], as does the last.
        """
        d, sl = self.D, self.slack
        grid, cuts = [], []
        for start, width in self.arcs:
            num, den = width.midpoint(self.BOUNDARY_EPS)  # width * D, rounded down
            s, w = self._grid(self.step, d, start.a, start.b), num * d // den
            grid.append((s, w))
            cuts += (s + sl) % d, (s + w - sl + 1) % d, (s + w + sl) % d, (s - sl + 1) % d
        cuts.sort()  # a repeated cut only leaves an empty gap

        def gap(r: int) -> int:
            near = False
            for s, w in grid:
                off = (r - s) % d
                if off < sl or off > d - sl or w - sl < off < w + sl:
                    near = True
                elif off < w:
                    return 1 - invert
            return 2 if near else int(invert)

        table = [gap(r) for r in cuts] or [int(invert)]  # no arcs: one gap, the whole circle
        return np.array(cuts, dtype=np.int64), np.array(table[-1:] + table, dtype=np.uint8)

    def symbols(self, exact: Callable[[int], int], invert: bool = False) -> np.ndarray:
        """uint8 array over n = n0..n1: 1 where the position lies in an arc, else
        0 (swapped when ``invert``), read by one searchsorted against the
        merged cuts.  A position within the slack of an arc end is decided by
        ``exact(n)`` instead of by the grid.
        """
        cuts, table = self._cells(invert)
        out = table[np.searchsorted(cuts, self.positions(), side="right")]
        for i in (out > 1).nonzero()[0].tolist():
            out[i] = exact(self.n0 + i)
        return out


# ---------------------------------------------------------------------------
# split circle
# ---------------------------------------------------------------------------


class SplitCircleSystem:
    """Rotation by alpha on the circle with the points of ``split`` doubled.

    ``split`` is ``"orbit"`` (the alpha-orbit of 0; the Sturmian case) or
    ``"rationals"`` (the circled rationals).  The coding arc carries symbol 1:
    it is [0+, alpha-] on the orbit, which reproduces the classical coding with
    complexity L+1, and [0+, alpha) on the rationals, where alpha is plain.
    """

    kind = "split_circle"

    def __init__(self, alpha: RotationNumber = GOLDEN, split: str = "orbit"):
        if split not in ("orbit", "rationals"):
            raise ValueError(f"split must be 'orbit' or 'rationals', not {split!r}")
        self.alpha = alpha
        self.split = split
        end = point(alpha, 1)
        self.arc = (SplitPoint(zero(alpha), PLUS),
                    SplitPoint(end, MINUS if self.splits(end) else PLAIN))
        self._arc_width = end  # the arc starts at 0

    # -- membership of the split set --------------------------------------

    def splits(self, y: CirclePoint) -> bool:
        return y.on_orbit if self.split == "orbit" else y.is_rational

    def split_mask(self, points: PointArray) -> np.ndarray:
        """``splits`` of every point of the array, as a boolean mask."""
        return points.den == 1 if self.split == "orbit" else points.a == 0

    def split_fiber(self, y: CirclePoint) -> list[SplitPoint]:
        """The preimage of y under the projection back to the circle."""
        if self.splits(y):
            return [SplitPoint(y, MINUS), SplitPoint(y, PLUS)]
        return [SplitPoint(y, PLAIN)]

    def pt(self, base: CirclePoint, side: int | None = None) -> SplitPoint:
        if self.splits(base):
            if side in (MINUS, PLUS):
                return SplitPoint(base, side)
            raise ValueError("split point needs an explicit side")
        if side not in (None, PLAIN):
            raise ValueError("non-split point cannot carry a side")
        return SplitPoint(base, PLAIN)

    def orbit_pt(self, n: int, side: int) -> SplitPoint:
        return self.pt(orbit_point(self.alpha, n), side)

    # -- dynamics -----------------------------------------------------------

    def step(self, x: SplitPoint, n: int = 1) -> SplitPoint:
        return x.translate(n)

    # -- coding -------------------------------------------------------------

    def in_arc(self, x: SplitPoint) -> bool:
        """Side-aware exact membership in the coding arc.

        Side tags break boundary ties.  A plain point sits on an endpoint only
        at the plain end alpha of the ``rationals`` arc, which is half-open:
        the point is outside.
        """
        lo, hi = self.arc
        u = x.base - lo.base
        if u.is_zero:
            return x.side >= lo.side
        cw = u.compare(self._arc_width)
        if cw == 0:
            return x.side < hi.side or (x.side == hi.side and hi.side != PLAIN)
        return cw < 0

    def symbol(self, x: SplitPoint) -> int:
        return 1 if self.in_arc(x) else 0

    def coding_word(self, x: SplitPoint, n0: int, n1: int) -> np.ndarray:
        """Symbols of x, Tx, ... over the window [n0, n1] as a uint8 array,
        decided exactly.

        Interior decisions run on a certified integer grid; positions that
        come within the grid slack of an arc endpoint fall back to the exact
        side-aware comparison, so boundary ties are always broken by tags.
        """
        walk = _CircleWalk(self.alpha, x.base, n0, n1, ((self.arc[0].base, self._arc_width),))
        return walk.symbols(lambda n: self.symbol(x.translate(n)))

    def word(self, x: SplitPoint, horizon: int) -> np.ndarray:
        """Forward coding word of length ``horizon`` as a uint8 array."""
        return self.coding_word(x, 0, horizon - 1)

    def describe(self) -> dict:
        """The spec ``load_system`` rebuilds this system from."""
        return {
            "kind": self.kind,
            "alpha": self.alpha.describe(),
            "split_set": self.split,
        }


class RotationSystem:
    """The plain circle rotation; points are CirclePoints, no splitting."""

    kind = "rotation"

    def __init__(self, alpha: RotationNumber = GOLDEN):
        self.alpha = alpha

    def step(self, x: CirclePoint, n: int = 1) -> CirclePoint:
        return x.translate(n)

    def describe(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha.describe()}


# ---------------------------------------------------------------------------
# cut-and-project codings
# ---------------------------------------------------------------------------


class Arc:
    """Half-open arc [start, start + length) on the circle."""

    __slots__ = ("start", "length")

    def __init__(self, start: CirclePoint, length: Fraction):
        if not 0 < length <= 1:
            raise ValueError("arc length must be in (0, 1]")
        self.start = start
        self.length = length

    @property
    def full(self) -> bool:
        return self.length == 1

    def covers(self, x: CirclePoint, open_arc: bool = False) -> bool:
        """Exact membership; ``open_arc`` excludes both endpoints."""
        if self.full:
            return True
        off = x - self.start
        if open_arc and off.is_zero:
            return False
        return off.compare(CirclePoint(x.alpha, 0, self.length)) < 0


class CutProjectCoding:
    """Binary coding of the alpha-orbit of ``base_point`` through a window.

    Interval mode: the window is a finite union of half-open arcs with
    endpoints in the subgroup.  Cantor mode: the window is the complement of
    open arcs of length scale*3^-j deleted around the orbit points j*alpha
    (j = 1..generation); its boundary is the truncation of a fat-Cantor set.
    """

    kind = "cut_project"

    def __init__(
        self,
        alpha: RotationNumber = GOLDEN,
        arcs: Sequence[Arc] | None = None,
        cantor_generation: int | None = None,
        cantor_scale: Fraction = Fraction(1, 2),
        base_point: CirclePoint | None = None,
    ):
        self.alpha = alpha
        self.base_point = base_point if base_point is not None else point(alpha, 0, Fraction(1, 7))
        if (arcs is None) == (cantor_generation is None):
            raise ValueError("give exactly one of arcs / cantor_generation")
        self.arcs = tuple(arcs) if arcs is not None else ()
        self.cantor_generation = cantor_generation
        self.cantor_scale = Fraction(cantor_scale)
        self.deleted: tuple[Arc, ...] = ()
        if cantor_generation is not None:
            if cantor_generation < 1:
                raise ValueError("generation must be >= 1")
            deleted = []
            for j in range(1, cantor_generation + 1):
                length = self.cantor_scale * Fraction(1, 3**j)
                center = orbit_point(alpha, j)
                start = center - CirclePoint(alpha, 0, length / 2)
                deleted.append(Arc(start, length))
            # two arcs overlap iff one start lies inside the other open arc
            if any(a.covers(b.start, open_arc=True) or b.covers(a.start, open_arc=True)
                   for a, b in itertools.combinations(deleted, 2)):
                raise ValueError("deleted arcs must be pairwise disjoint")
            self.deleted = tuple(deleted)

    # -- membership ----------------------------------------------------------

    def in_window(self, x: CirclePoint) -> bool:
        if self.cantor_generation is None:
            return any(arc.covers(x) for arc in self.arcs)
        return not any(arc.covers(x, open_arc=True) for arc in self.deleted)

    def symbol_at(self, n: int) -> int:
        return 1 if self.in_window(self.base_point.translate(n)) else 0

    def word(self, horizon: int, n0: int = 0) -> np.ndarray:
        """Coding word over [n0, n0 + horizon): one orbit walk for every window
        arc, a position near an arc end decided by ``symbol_at``."""
        cantor = self.cantor_generation is not None
        arcs = self.deleted if cantor else self.arcs
        if any(arc.full for arc in arcs):
            return np.full(horizon, 0 if cantor else 1, dtype=np.uint8)
        window = tuple((arc.start, CirclePoint(self.alpha, 0, arc.length)) for arc in arcs)
        walk = _CircleWalk(self.alpha, self.base_point, n0, n0 + horizon - 1, window)
        return walk.symbols(self.symbol_at, invert=cantor)

    def describe(self) -> dict:
        d = {"kind": self.kind, "alpha": self.alpha.describe(),
             "base_point": [self.base_point.a, str(self.base_point.b)]}
        if self.cantor_generation is not None:
            d["window"] = {
                "cantor_generation": self.cantor_generation,
                "scale": str(self.cantor_scale),
            }
        else:
            d["window"] = {"arcs": [[a.start.a, str(a.start.b), str(a.length)] for a in self.arcs]}
        return d


def full_shift_word(window: int) -> np.ndarray:
    """A binary de Bruijn word of order ``window``: every length-``window``
    pattern occurs.  Serves as the full-shift coding at that window size.

    The cycle is the complement of the lexicographically least de Bruijn
    sequence (Fredricksen & Maiorana: the necklaces of length ``window`` in
    increasing order, each cut to its period), turned to start at 0^window.
    It is written out linearly, then followed by its first ``window``
    symbols once more, so that it is the greedy prefer-one word from 0^window
    with its first ``window`` symbols appended.
    """
    check_window(window)
    mask = np.uint32((1 << window) - 1)

    def rotate(v, r):
        out = v << np.uint32(r)
        out |= v >> np.uint32(window - r)
        out &= mask
        return out

    # a necklace is no larger than any of its rotations, so it is 1^window or starts with 0
    necklaces = np.append(np.arange(1 << (window - 1), dtype=np.uint32), mask)
    for r in range(1, window):
        necklaces = necklaces[necklaces <= rotate(necklaces, r)]
    period = np.full(necklaces.shape, window, dtype=np.uint8)
    for p in range(window - 1, 0, -1):  # descending, so the least period is written last
        if window % p == 0:
            period[rotate(necklaces, p) == necklaces] = p
    # the leading ``period`` bits of each necklace, most significant first
    shifts = np.arange(window - 1, -1, -1, dtype=np.uint32)
    bits = (necklaces[:, None] >> shifts).astype(np.uint8) & 1
    least = bits[np.arange(window) < period[:, None]]
    cycle = np.roll(least ^ 1, window)
    return np.concatenate([cycle, cycle[: window - 1], cycle[:window]])


# ---------------------------------------------------------------------------
# the cos(1/x) system
# ---------------------------------------------------------------------------


def sampling_function(theta: CirclePoint) -> float:
    """F(theta): cos(2*pi/theta) on (0,1/2), 2*theta on [1/2,1), 0 at 0.

    The only discontinuity is at 0.  Large arguments of cos are reduced
    exactly through the rational enclosure of 1/theta.
    """
    if theta.is_zero:
        return 0.0
    half = Fraction(1, 2)
    lo, hi = theta.bounds(Fraction(1, 10**40))
    mid = (lo + hi) / 2
    if theta.is_rational:
        in_upper = theta.b >= half
    else:
        in_upper = theta.compare(CirclePoint(theta.alpha, 0, half)) >= 0
    if in_upper:
        return float(2 * mid)
    inv = 1 / mid
    frac = inv - (inv.numerator // inv.denominator)
    return math.cos(TWO_PI * float(frac))


class CosFiber:
    """Point over the orbit point k*alpha: coordinates follow the sampled
    sequence except at -k, which carries ``value``."""

    __slots__ = ("k", "value")

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.value) == (other.k, other.value)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.value))

    def __repr__(self):
        return f"CosFiber(k={self.k!r}, value={self.value!r})"


class CosRegular:
    """The unique point over a base that is off the orbit of 0."""

    __slots__ = ("theta",)

    def __init__(self, theta: CirclePoint):
        self.theta = theta

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.theta,) == (other.theta,)
        return NotImplemented

    def __hash__(self):
        return hash((self.theta,))

    def __repr__(self):
        return f"CosRegular(theta={self.theta!r})"


CosPointT = CosFiber | CosRegular


class CosSystem:
    """Orbit closure of the cos(1/x)-sampled sequence over the rotation."""

    def __init__(self, alpha: RotationNumber = GOLDEN, horizon: int = 20):
        self.alpha = alpha
        self.horizon = horizon
        self._f_cache: dict[int, float] = {}

    def f(self, n: int) -> float:
        """F(n*alpha), the sampled sequence."""
        if n not in self._f_cache:
            self._f_cache[n] = sampling_function(orbit_point(self.alpha, n))
        return self._f_cache[n]

    def generator_point(self) -> CosFiber:
        """The orbit generator; its 0-coordinate is F(0) = 0."""
        return CosFiber(0, self.f(0))

    def fiber_point(self, k: int, value: float) -> CosFiber:
        if not (value == 2.0 or -1.0 <= value <= 1.0):
            raise ValueError("fiber coordinate must be 2 or in [-1,1]")
        return CosFiber(k, value)

    def base(self, x: CosPointT) -> CirclePoint:
        return orbit_point(self.alpha, x.k) if isinstance(x, CosFiber) else x.theta

    def step(self, x: CosPointT, n: int = 1) -> CosPointT:
        if isinstance(x, CosFiber):
            return CosFiber(x.k + n, x.value)
        return CosRegular(x.theta.translate(n))

    def coordinate(self, x: CosPointT, m: int) -> float:
        if isinstance(x, CosFiber):
            return x.value if m == -x.k else self.f(m + x.k)
        return sampling_function(x.theta.translate(m))

    def coding_word(self, x: CosPointT, n0: int, n1: int) -> list[float]:
        return [self.coordinate(x, m) for m in range(n0, n1 + 1)]

    def metric(self, x: CosPointT, y: CosPointT, horizon: int | None = None) -> float:
        """max of the base distance and the weighted sup over coordinates."""
        h = self.horizon if horizon is None else horizon
        bd = self.base(x) - self.base(y)
        v = bd.as_float()
        d = min(v, 1.0 - v) if not bd.is_zero else 0.0
        for m in range(-h, h + 1):
            w = 2.0 ** (-abs(m))
            diff = w * abs(self.coordinate(x, m) - self.coordinate(y, m))
            if diff > d:
                d = diff
        return d


# ---------------------------------------------------------------------------
# odometer semicocycle cascade
# ---------------------------------------------------------------------------


def _inv_mod_pow2(b: int, bits: int) -> int:
    """Inverse of odd b modulo 2**bits (Newton lift)."""
    x = 1
    for _ in range(bits.bit_length() + 1):
        x = (x * (2 - b * x)) % (1 << bits)
    return x % (1 << bits)


def _dyadic_bits(t: Fraction, bits: int) -> int:
    """The 2-adic expansion of t (odd denominator) truncated to ``bits`` bits."""
    num, den = t.numerator, t.denominator
    if den % 2 == 0:
        raise ValueError("not a 2-adic integer")
    return (num * _inv_mod_pow2(den, bits)) % (1 << bits)


class SemicocycleCascade:
    """Dyadic odometer with marked points y_n and a sampling function whose
    one-sided limit sets at y_n have exactly n values.

    Marked points are the 2-adic rationals y_n = -2^n/(2^(n+1)-1), i.e. the
    digit streams 0^n (1 0^n)^inf: they converge to 0, lie in pairwise
    distinct orbits, and stay off the orbit of the sampling base point
    y0 = -3/7 = (110)^inf.  Around y_n the nested cylinders B(n,k) consist of
    the points agreeing with y_n to depth n+k; the function takes the value
    (k mod n)/n^2 on the shell B(n,k) without B(n,k+1) and 0 elsewhere.

    The orbits need no check: y_n is in lowest terms over its own denominator
    2^(n+1)-1, and reduced fractions with different denominators never differ
    by an integer.  y0 shares its denominator 7 only with y_2 = -4/7, and
    y_2 - y0 = -1/7.
    """

    kind = "semicocycle"

    def __init__(self, n_max: int = 8, depth: int = 24):
        self.n_max = n_max
        self.depth = depth
        self.y0 = Fraction(-3, 7)
        self.marked = tuple(Fraction(-(2**n), 2 ** (n + 1) - 1) for n in range(1, n_max + 1))

    def value(self, t: Fraction) -> Fraction:
        """The sampling value at a 2-adic rational point of the odometer."""
        bits = self.depth
        while True:
            x = _dyadic_bits(t, bits)
            if x == 0:
                if t == 0:
                    return Fraction(0)
                bits *= 2
                continue
            n = (x & -x).bit_length() - 1  # position of the lowest 1 = first 1 digit
            if n < 1 or n > self.n_max or t == self.marked[n - 1]:
                return Fraction(0)  # outside every marked cylinder family, or y_n itself
            agree = self._agreement(t, n, bits)
            if agree is None:
                bits *= 2
                continue
            k = agree - n
            if k < 1:
                return Fraction(0)
            return Fraction(k % n, n * n)

    def _agreement(self, t: Fraction, n: int, bits: int) -> int | None:
        """Length of the common digit prefix of t and y_n != t (None: unresolved)."""
        diff = t - self.marked[n - 1]
        num, den = diff.numerator, diff.denominator
        if den % 2 == 0:
            raise ValueError("not a 2-adic integer")
        v = 0
        while num % 2 == 0:
            num //= 2
            v += 1
        return v if v < bits else None

    def orbit_value(self, j: int, m: int = 0) -> Fraction:
        """Sampling value at S^(j+m) y0."""
        return self.value(self.y0 + j + m)

    def shell_representative(self, n: int, k: int) -> int:
        """An integer j with S^j y0 in exactly the k-th shell around y_n."""
        bits = n + k + 1
        t = _dyadic_bits(self.marked[n - 1] - self.y0, bits)
        return (t % (1 << (n + k))) ^ (1 << (n + k))  # flip the next digit

    def fiber_traces(self, n: int, depth: int | None = None, window: int = 6):
        """Distinct finite traces over the marked point y_n at the truncation.

        Each shell k = 1..depth-n contributes the trace of an actual orbit
        point entering that shell; traces agree off coordinate 0 and their
        0-values enumerate the n limit values once depth >= 2n.
        """
        depth = self.depth if depth is None else depth
        if not 1 <= n <= self.n_max:
            raise ValueError(f"y_{n} is not a marked point: n_max is {self.n_max}")
        if depth < n + 2:
            raise DepthInsufficient(f"depth {depth} cannot separate cylinders around y_{n}")
        limit_tail = {m: self.value(self.marked[n - 1] + m) for m in range(-window, window + 1) if m != 0}
        traces = set()
        for k in range(1, depth - n + 1):
            j = self.shell_representative(n, k)
            head = self.orbit_value(j, 0)
            traces.add(head)
            if k == depth - n:  # deepest shell: cross-check the off-0 coordinates
                for m, lim in limit_tail.items():
                    got = self.orbit_value(j, m)
                    if got != lim:
                        raise DepthInsufficient(
                            f"coordinate {m} not settled at depth {depth} over y_{n}"
                        )
        return [tuple([v] + [limit_tail[m] for m in sorted(limit_tail)]) for v in sorted(traces)]

    def fiber_cardinalities(self, k_max: int, depth: int | None = None) -> dict[int, int]:
        """Computed fiber cardinality over each marked point y_k."""
        return {n: len(self.fiber_traces(n, depth)) for n in range(1, k_max + 1)}

    def unmarked_fiber_cardinality(self, j0: int, depth: int | None = None, window: int = 6) -> int:
        """Fiber cardinality over the (unmarked) orbit point S^j0 y0: always 1."""
        depth = self.depth if depth is None else depth
        traces = set()
        for c in (1, 2, 3):
            j = j0 + (c << depth)
            traces.add(tuple(self.orbit_value(j, m) for m in range(-window, window + 1)))
        if len(traces) != 1:
            raise DepthInsufficient(f"approaches to S^{j0} y0 not settled at depth {depth}")
        return 1

    def describe(self) -> dict:
        return {"kind": self.kind, "n_max": self.n_max, "depth": self.depth}


# ---------------------------------------------------------------------------
# asymptotic defect
# ---------------------------------------------------------------------------


def asymptotic_defect(system, x, y, window: tuple[int, int]) -> set[int]:
    """Coordinates in the window where the orbit codings of x and y differ.

    Both points must sit in the same fiber of the structure map (equal bases).
    """
    n0, n1 = window
    if isinstance(system, SplitCircleSystem):
        if x.base.compare(y.base) != 0:
            raise ValueError("points lie over different base points")
        diff = system.coding_word(x, n0, n1) != system.coding_word(y, n0, n1)
        return set((np.flatnonzero(diff) + n0).tolist())
    if isinstance(system, CosSystem):
        bx, by = system.base(x), system.base(y)
        if bx.compare(by) != 0:
            raise ValueError("points lie over different base points")
        out = set()
        for m in range(n0, n1 + 1):
            if system.coordinate(x, m) != system.coordinate(y, m):
                out.add(m)
        return out
    raise TypeError(f"no defect rule for {type(system).__name__}")


# ---------------------------------------------------------------------------
# named system specs
# ---------------------------------------------------------------------------


# the keys a spec of each kind reads; a cut-project window reads cantor_generation
# and scale, or arcs
SPEC_KEYS = {"split_circle": {"kind", "alpha", "split_set"}, "rotation": {"kind", "alpha"},
             "cut_project": {"kind", "alpha", "window", "base_point"},
             "semicocycle": {"kind", "n_max", "depth"}}


def load_system(spec: dict):
    """Build a system from a spec mapping; ValueError when the spec is not a
    mapping of the ``SPEC_KEYS`` of its kind."""
    from .exactarith import parse_rotation_number

    if not isinstance(spec, dict):
        raise ValueError(f"a system spec must be an object, not {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in SPEC_KEYS:
        raise ValueError(f"unknown system kind: {kind!r}")
    if spec.keys() - SPEC_KEYS[kind]:
        raise ValueError(f"a {kind} spec reads only {sorted(SPEC_KEYS[kind])}, not {sorted(spec)}")
    alpha = parse_rotation_number(spec["alpha"]) if "alpha" in spec else GOLDEN
    if kind == "split_circle":
        return SplitCircleSystem(alpha, split=spec.get("split_set", "orbit"))
    if kind == "rotation":
        return RotationSystem(alpha)
    if kind == "cut_project":
        win = spec.get("window", {})
        if not isinstance(win, dict) or win.keys() - (
                {"cantor_generation", "scale"} if "cantor_generation" in win else {"arcs"}):
            raise ValueError(f"a window reads cantor_generation and scale, or arcs: {win!r}")
        base = spec.get("base_point")
        if base is not None:
            base = point(alpha, int(base[0]), Fraction(base[1]))
        if "cantor_generation" in win:
            return CutProjectCoding(
                alpha,
                cantor_generation=int(win["cantor_generation"]),
                cantor_scale=Fraction(win.get("scale", "1/2")),
                base_point=base,
            )
        arcs = tuple(
            Arc(point(alpha, int(a), Fraction(b)), Fraction(ln)) for a, b, ln in win["arcs"]
        )
        return CutProjectCoding(alpha, arcs=arcs, base_point=base)
    return SemicocycleCascade(n_max=spec.get("n_max", 8), depth=spec.get("depth", 24))
