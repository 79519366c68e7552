"""Monotone step maps on ordered domains.

One-sided limits and discontinuity sets are exact (breakpoints carry their
left/at/right values); determining sets follow the recipe discontinuities +
singular points + dense sample, checked against the targeted single-point
escape and the two extremal monotone interpolants of the pins.
The circular counterexample generator produces, for any finite excluded set,
a two-point-target map agreeing with the constant map off one fresh point.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
from typing import Sequence

# side tags of split points: the left copy, an unsplit point, the right copy
MINUS, PLAIN, PLUS = -1, 0, 1


@dataclass(frozen=True)
class Piece:
    """Map on an open interval between breakpoints: constant or affine."""

    kind: str  # 'const' | 'affine'
    value: Fraction = Fraction(0)  # constant value
    slope: Fraction = Fraction(0)
    intercept: Fraction = Fraction(0)

    def at(self, x: Fraction) -> Fraction:
        return self.value if self.kind == "const" else self.slope * x + self.intercept

    def range_on(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        if self.kind == "const":
            return self.value, self.value
        a, b = self.at(lo), self.at(hi)
        return (a, b) if a <= b else (b, a)


class MonotoneStepMap:
    """Weakly monotone self-map of [0,1] with finitely many breakpoints.

    Each breakpoint carries (left limit, value, right limit); between
    breakpoints the map is a constant or affine piece.  Construction
    validates weak monotonicity, which forces the one-sided sandwich
    f(a) in [f(a-), f(a+)] everywhere.
    """

    def __init__(
        self,
        breakpoints: Sequence[Fraction],
        triples: Sequence[tuple[Fraction, Fraction, Fraction]],
        pieces: Sequence[Piece] | None = None,
        direction: str = "increasing",
    ):
        bps = [Fraction(x) for x in breakpoints]
        if bps != sorted(bps) or len(set(bps)) != len(bps):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (0 < x < 1) for x in bps):
            raise ValueError("breakpoints must lie strictly inside (0,1)")
        if len(triples) != len(bps):
            raise ValueError("one (left, value, right) triple per breakpoint")
        if direction not in ("increasing", "decreasing"):
            raise ValueError("direction must be 'increasing' or 'decreasing'")
        self.direction = direction
        self.breakpoints = tuple(bps)
        self.triples = tuple(
            (Fraction(l), Fraction(v), Fraction(r)) for l, v, r in triples
        )
        if pieces is None:
            pieces = self._fill_constant_pieces()
        if len(pieces) != len(bps) + 1:
            raise ValueError("need one piece per gap (breakpoints + 1)")
        self.pieces = tuple(pieces)
        self._validate()

    def _fill_constant_pieces(self) -> list[Piece]:
        out = []
        for i in range(len(self.breakpoints) + 1):
            if i == 0:
                v = self.triples[0][0] if self.triples else Fraction(0)
            else:
                v = self.triples[i - 1][2]
            out.append(Piece("const", value=v))
        return out

    def _gap(self, i: int) -> tuple[Fraction, Fraction]:
        lo = Fraction(0) if i == 0 else self.breakpoints[i - 1]
        hi = Fraction(1) if i == len(self.breakpoints) else self.breakpoints[i]
        return lo, hi

    def _validate(self) -> None:
        sgn = 1 if self.direction == "increasing" else -1
        chain: list[Fraction] = []
        for i, piece in enumerate(self.pieces):
            lo, hi = self._gap(i)
            pmin, pmax = piece.range_on(lo, hi)
            if sgn < 0:
                pmin, pmax = pmax, pmin
            chain.append(pmin)
            chain.append(pmax)
            if i < len(self.breakpoints):
                l, v, r = self.triples[i]
                chain.extend([l, v, r])
        for a, b in zip(chain, chain[1:]):
            if sgn * (b - a) < 0:
                raise ValueError("map is not weakly monotone (sandwich violated)")

    # -- evaluation -----------------------------------------------------------

    def _locate(self, x: Fraction) -> int:
        i = 0
        while i < len(self.breakpoints) and self.breakpoints[i] < x:
            i += 1
        return i

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0,1]")
        for bp, (_l, v, _r) in zip(self.breakpoints, self.triples):
            if x == bp:
                return v
        return self.pieces[self._locate(x)].at(x)

    def one_sided_limits(self, a) -> tuple[Fraction, Fraction]:
        """(f(a-), f(a+)), exact; at 0/1 the missing side repeats the value."""
        a = Fraction(a)
        for bp, (l, _v, r) in zip(self.breakpoints, self.triples):
            if a == bp:
                return l, r
        i = self._locate(a)
        v = self.pieces[i].at(a)
        return v, v

    def discontinuities(self) -> tuple[Fraction, ...]:
        out = []
        for bp, (l, v, r) in zip(self.breakpoints, self.triples):
            if l != r or l != v:
                out.append(bp)
        return tuple(out)

    def side_value(self, x: Fraction, side: int) -> Fraction:
        l, r = self.one_sided_limits(x)
        if side == MINUS:
            return l
        if side == PLUS:
            return r
        return self(x)


def identity_map() -> MonotoneStepMap:
    return MonotoneStepMap([], [], pieces=[Piece("affine", slope=Fraction(1))])


def staircase(jumps: Sequence[tuple[Fraction, Fraction, Fraction, Fraction]]) -> MonotoneStepMap:
    """Staircase from (breakpoint, left, value, right) rows, constant between."""
    bps = [Fraction(j[0]) for j in jumps]
    triples = [(j[1], j[2], j[3]) for j in jumps]
    return MonotoneStepMap(bps, triples)


_MAP_RE = re.compile(r"\(\s*([^;()]+);([^()]*)\)")


def parse_step_map(text: str) -> MonotoneStepMap:
    """Breakpoint/value triples in the config syntax ``(x; left,point,right)``."""
    rows = []
    for m in _MAP_RE.finditer(text):
        x = Fraction(m.group(1).strip())
        parts = [Fraction(p.strip()) for p in m.group(2).split(",")]
        if len(parts) != 3:
            raise ValueError("each literal needs exactly left,point,right")
        rows.append((x, *parts))
    if not rows:
        raise ValueError(f"no map literals in {text!r}")
    return staircase(sorted(rows))


# ---------------------------------------------------------------------------
# ordered domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedDomain:
    """[0,1] with optionally split points, or a finite chain.

    Domain points are (position, side) pairs; split points are exactly the
    singular points (each acquires an immediate neighbor)."""

    kind: str  # 'interval' | 'finite_chain'
    splits: tuple[Fraction, ...] = ()
    sample: tuple[Fraction, ...] = ()
    chain: tuple[Fraction, ...] = ()

    @classmethod
    def interval(cls, splits=(), sample_level: int = 6) -> "OrderedDomain":
        sample = tuple(Fraction(k, 2**sample_level) for k in range(2**sample_level + 1))
        return cls("interval", tuple(Fraction(s) for s in sorted(splits)), sample)

    @classmethod
    def finite(cls, points) -> "OrderedDomain":
        return cls("finite_chain", chain=tuple(Fraction(p) for p in points))

    def points(self) -> list[tuple[Fraction, int]]:
        if self.kind == "finite_chain":
            return [(p, PLAIN) for p in self.chain]
        out = [(x, PLAIN) for x in self.sample if x not in self.splits]
        for s in self.splits:
            out.extend([(s, MINUS), (s, PLUS)])
        return sorted(out)


def singular_points(domain: OrderedDomain) -> list[tuple[Fraction, int]]:
    """Points with an immediate order neighbor: split sides, or everything
    in a finite chain; empty for the plain interval."""
    if domain.kind == "finite_chain":
        return [(p, PLAIN) for p in domain.chain]
    out = []
    for s in domain.splits:
        out.extend([(s, MINUS), (s, PLUS)])
    return out


# ---------------------------------------------------------------------------
# determining sets with extremal-interpolant verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HellyDeterminingSet:
    points: tuple[tuple[Fraction, int], ...]
    adversaries_defeated: int  # the requested count when sound, else 0
    sound: bool


def helly_determining_set(
    f: MonotoneStepMap,
    domain: OrderedDomain,
    adversaries: int = 200,
) -> HellyDeterminingSet:
    """discontinuities + singular points + dense sample, with the
    determination property checked exactly: the two extremal monotone
    interpolants of the pins bound every monotone adversary that agrees with
    f on the set, so defeating them defeats all ``adversaries`` requested."""
    cset: list[tuple[Fraction, int]] = []
    for d in f.discontinuities():
        cset.append((d, PLAIN))
    cset.extend(singular_points(domain))
    cset.extend((x, PLAIN) for x in domain.sample)
    cset = sorted(set(cset))
    sound = _defeat_adversaries(f, cset)
    return HellyDeterminingSet(tuple(cset), adversaries if sound else 0, sound)


def _defeat_adversaries(f, cset) -> bool:
    """Targeted and extremal adversaries against the pinned values on cset.

    Targeted: copy f off a single probe point and escape there; monotone
    escapes exist exactly at unpinned one-sided jumps, so this is the
    single-point mechanism a determining set must block.  Extremal: the two
    monotone interpolants of the pins that bound all others.  For an
    increasing f, the lowest is at p the max of the pinned values at or below
    p and the highest the min of those at or above p; for a decreasing f the
    roles swap (the min of the values at or below p bounds from above, the
    max of those at or above p from below).  f is forced at p exactly when
    the two agree there, and then f(p) must be that value; positive-width
    corridors between adjacent pins are the sample-resolution limit, not a
    defeat.  A validated monotone f always meets its forced values (the
    sandwich), so an under-pinned set fails the targeted check; the extremal
    check is what rejects a map that breaks monotonicity.
    """
    decreasing = f.direction == "decreasing"
    pinned = sorted((x, s, f.side_value(x, s)) for x, s in cset)
    keys = [(x, s) for x, s, _ in pinned]
    values = [v for _, _, v in pinned]
    # bound from the pins at or below p (from_left[i] over values[: i + 1])
    # and from those at or above p (from_right[i] over values[i:]); with no
    # pin on a side, the codomain [0, 1] supplies the bound
    from_left = list(accumulate(values, min if decreasing else max))
    from_right = list(accumulate(reversed(values), max if decreasing else min))[::-1]
    no_left, no_right = (Fraction(1), Fraction(0)) if decreasing else (Fraction(0), Fraction(1))
    pinned_plain = {x for x, s in keys if s == PLAIN}
    probes = sorted(
        p
        for p in set(Fraction(k, 257) for k in range(258)) | set(f.breakpoints)
        if p not in pinned_plain
    )
    for p in probes:
        left, right = f.one_sided_limits(p)
        if left != right or left != f(p):
            return False  # unpinned escape point: the targeted adversary wins
    for p in probes:
        below, above = bisect_right(keys, (p, PLAIN)), bisect_left(keys, (p, PLAIN))
        bound_left = from_left[below - 1] if below else no_left
        bound_right = from_right[above] if above < len(from_right) else no_right
        if bound_left == bound_right and bound_left != f(p):
            return False  # a forced value disagreeing with f
    return True


# ---------------------------------------------------------------------------
# discrete family (non-monotone; rejected by the step-map constructor)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpMap:
    """Value bump at a single point: 0 everywhere except height at z."""

    z: Fraction
    height: Fraction = Fraction(1, 2)

    def __call__(self, x) -> Fraction:
        return self.height if Fraction(x) == self.z else Fraction(0)


def discrete_family(grid: Sequence[Fraction], height=Fraction(1, 2)) -> list[BumpMap]:
    """The determining-set stress family: each member visible only at its
    own grid point (not monotone, so not a MonotoneStepMap)."""
    return [BumpMap(Fraction(z), Fraction(height)) for z in grid]


def zero_map(x) -> Fraction:
    return Fraction(0)


# ---------------------------------------------------------------------------
# circular counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircularCounterexample:
    """The map sending b to itself and every other point of [0, 1) to a."""

    a: Fraction
    b: Fraction
    agrees_on: tuple[Fraction, ...]

    def image_of(self, x) -> Fraction:
        """The image of a point x of [0, 1)."""
        return self.b if x == self.b else self.a

    @property
    def sound(self) -> bool:
        """Re-evaluated: the map agrees with the constant a on the excluded set and fixes b."""
        return all(self.image_of(c) == self.a for c in self.agrees_on) and (
            self.image_of(self.b) == self.b != self.a)


def fresh_dyadic(avoid) -> Fraction:
    """The first dyadic num/2^level in (0, 1) outside ``avoid``, by level then
    numerator.  A finite ``avoid`` cannot hold all 2^(level-1) odd numerators
    of every level, so the search ends."""
    for level in count(1):
        denom = 2**level
        for num in range(1, denom, 2):
            cand = Fraction(num, denom)
            if cand not in avoid:
                return cand


def circular_counterexample(excluded: Sequence, a) -> CircularCounterexample:
    """A two-point-target map agreeing with the constant-to-a map on the
    excluded set but fixing a fresh point b: finite sets never determine the
    constant map on the circle.  The set may contain a itself, which the map
    sends to a like every point other than b."""
    a = Fraction(a) % 1
    cset = {Fraction(c) % 1 for c in excluded}
    return CircularCounterexample(a, fresh_dyadic(cset | {a}), tuple(sorted(cset)))
