"""Monotone step maps on a dyadic sample of [0, 1].

One-sided limits and discontinuity sets are exact (breakpoints carry their
left/at/right values); determining sets follow the recipe discontinuities +
dense sample, checked against the targeted single-point escape and the two
extremal monotone interpolants of the pins.
The circular counterexample generator produces, for any finite excluded set,
a two-point-target map agreeing with the constant map off one fresh point.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, count
from typing import Sequence

# side tags of split points: the left copy, an unsplit point, the right copy
MINUS, PLAIN, PLUS = -1, 0, 1


class MonotoneStepMap:
    """Weakly increasing staircase self-map of [0,1] with finitely many breakpoints.

    Each breakpoint carries (left limit, value, right limit); between
    breakpoints the map is constant: the left limit of the first breakpoint
    before it, the right limit of the breakpoint before each later gap.
    Construction validates weak monotonicity, which forces the one-sided
    sandwich f(a) in [f(a-), f(a+)] everywhere.
    """

    def __init__(
        self,
        breakpoints: Sequence[Fraction],
        triples: Sequence[tuple[Fraction, Fraction, Fraction]],
    ):
        bps = [Fraction(x) for x in breakpoints]
        if bps != sorted(bps) or len(set(bps)) != len(bps):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (0 < x < 1) for x in bps):
            raise ValueError("breakpoints must lie strictly inside (0,1)")
        if len(triples) != len(bps):
            raise ValueError("one (left, value, right) triple per breakpoint")
        self.breakpoints = tuple(bps)
        self.triples = tuple(
            (Fraction(l), Fraction(v), Fraction(r)) for l, v, r in triples
        )
        # each gap repeats a neighbouring limit, so the triples in order must not decrease
        chain = [x for triple in self.triples for x in triple]
        if any(b < a for a, b in zip(chain, chain[1:])):
            raise ValueError("map is not weakly monotone (sandwich violated)")

    # -- evaluation -----------------------------------------------------------

    def _find(self, x: Fraction) -> tuple[int, bool]:
        """(number of breakpoints below x, whether x is a breakpoint)."""
        i = bisect_left(self.breakpoints, x)
        return i, i < len(self.breakpoints) and self.breakpoints[i] == x

    def _level(self, i: int) -> Fraction:
        """The constant value on the gap after the first i breakpoints."""
        if i:
            return self.triples[i - 1][2]
        return self.triples[0][0] if self.triples else Fraction(0)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0,1]")
        i, at = self._find(x)
        return self.triples[i][1] if at else self._level(i)

    def one_sided_limits(self, a) -> tuple[Fraction, Fraction]:
        """(f(a-), f(a+)), exact; at 0/1 the missing side repeats the value."""
        i, at = self._find(Fraction(a))
        if at:
            return self.triples[i][0], self.triples[i][2]
        v = self._level(i)
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


class OrderedDomain:
    """The dyadic sample k/2^level, k = 0..2^level, of [0, 1]."""

    __slots__ = ("sample",)

    def __init__(self, sample: tuple[Fraction, ...]):
        self.sample = sample

    @classmethod
    def interval(cls, sample_level: int = 6) -> "OrderedDomain":
        return cls(tuple(Fraction(k, 2**sample_level) for k in range(2**sample_level + 1)))


# ---------------------------------------------------------------------------
# determining sets with extremal-interpolant verification
# ---------------------------------------------------------------------------


class HellyDeterminingSet:
    __slots__ = ("points", "adversaries_defeated", "sound")

    def __init__(self, points: tuple[tuple[Fraction, int], ...], adversaries_defeated: int,
                 sound: bool):
        self.points = points
        self.adversaries_defeated = adversaries_defeated  # the requested count when sound, else 0
        self.sound = sound


def helly_determining_set(
    f: MonotoneStepMap,
    domain: OrderedDomain,
    adversaries: int = 200,
) -> HellyDeterminingSet:
    """discontinuities + dense sample, with the determination property
    checked exactly: the two extremal monotone interpolants of the pins bound
    every monotone adversary that agrees with f on the set, so defeating them
    defeats all ``adversaries`` requested."""
    cset = sorted({(x, PLAIN) for x in (*f.discontinuities(), *domain.sample)})
    sound = _defeat_adversaries(f, cset)
    return HellyDeterminingSet(tuple(cset), adversaries if sound else 0, sound)


def _defeat_adversaries(f, cset) -> bool:
    """Targeted and extremal adversaries against the pinned values on cset.

    Targeted: copy f off a single probe point and escape there; monotone
    escapes exist exactly at unpinned one-sided jumps, so this is the
    single-point mechanism a determining set must block.  Extremal: the two
    increasing interpolants of the pins that bound all others: the lowest is
    at p the max of the pinned values at or below p, the highest the min of
    those at or above p.  f is forced at p exactly when the two agree there,
    and then f(p) must be that value; positive-width corridors between
    adjacent pins are the sample-resolution limit, not a defeat.  A validated
    monotone f always meets its forced values (the sandwich), so an
    under-pinned set fails the targeted check; the extremal check is what
    rejects a map that breaks monotonicity.
    """
    pinned = sorted((x, s, f.side_value(x, s)) for x, s in cset)
    keys = [(x, s) for x, s, _ in pinned]
    values = [v for _, _, v in pinned]
    # bound from the pins at or below p (from_left[i] over values[: i + 1])
    # and from those at or above p (from_right[i] over values[i:]); with no
    # pin on a side, the codomain [0, 1] supplies the bound
    from_left = list(accumulate(values, max))
    from_right = list(accumulate(reversed(values), min))[::-1]
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
        bound_left = from_left[below - 1] if below else Fraction(0)
        bound_right = from_right[above] if above < len(from_right) else Fraction(1)
        if bound_left == bound_right and bound_left != f(p):
            return False  # a forced value disagreeing with f
    return True


# ---------------------------------------------------------------------------
# discrete family (non-monotone; rejected by the step-map constructor)
# ---------------------------------------------------------------------------


class BumpMap:
    """Value bump at a single point: 0 everywhere except 1/2 at z."""

    __slots__ = ("z",)

    def __init__(self, z: Fraction):
        self.z = z

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.z,) == (other.z,)
        return NotImplemented

    def __hash__(self):
        return hash((self.z,))

    def __call__(self, x) -> Fraction:
        return Fraction(1, 2) if Fraction(x) == self.z else Fraction(0)


def discrete_family(grid: Sequence[Fraction]) -> list[BumpMap]:
    """The determining-set stress family: each member visible only at its
    own grid point (not monotone, so not a MonotoneStepMap)."""
    return [BumpMap(Fraction(z)) for z in grid]


def zero_map(x) -> Fraction:
    return Fraction(0)


# ---------------------------------------------------------------------------
# circular counterexample
# ---------------------------------------------------------------------------


class CircularCounterexample:
    """The map sending b to itself and every other point of [0, 1) to a,
    against the excluded set {n/denominator : n in numerators}."""

    __slots__ = ("a", "b", "numerators", "denominator")

    def __init__(self, a: Fraction, b: Fraction, numerators: frozenset[int], denominator: int):
        self.a = a
        self.b = b
        self.numerators = numerators  # reduced mod the denominator
        self.denominator = denominator

    def image_of(self, x) -> Fraction:
        """The image of a point x of [0, 1)."""
        return self.b if x == self.b else self.a

    @property
    def agrees_on(self) -> tuple[Fraction, ...]:
        """The excluded set as points of [0, 1), in increasing order."""
        return tuple(Fraction(n, self.denominator) for n in sorted(self.numerators))

    @property
    def sound(self) -> bool:
        """Re-evaluated on the numerators: b differs from a and is off the
        excluded set, so the map fixes b and agrees with the constant a on the set."""
        n, r = divmod(self.b.numerator * self.denominator, self.b.denominator)
        return self.b != self.a and not (r == 0 and n in self.numerators)


def circular_counterexample(numerators: Sequence[int], denominator: int, a) -> CircularCounterexample:
    """A two-point-target map agreeing with the constant-to-a map on the
    excluded set {n/denominator} (denominator > 0) but fixing a fresh point b:
    finite sets never determine the constant map on the circle.  The set may
    contain a itself, which the map sends to a like every point other than b.

    b is the first dyadic num/2^level in (0, 1), by level then numerator, that
    is neither a nor excluded.  A finite set cannot hold all 2^(level-1) odd
    numerators of every level, so the search ends."""
    a = Fraction(a) % 1
    excluded = frozenset(n % denominator for n in numerators)
    for level in count(1):
        for num in range(1, 2**level, 2):
            w = CircularCounterexample(a, Fraction(num, 2**level), excluded, denominator)
            if w.sound:
                return w
