"""Monotone step maps on a dyadic sample of [0, 1].

One-sided limits and discontinuity sets are exact (breakpoints carry their
left/at/right values); determining sets follow the recipe discontinuities +
dense sample.  A pin set determines a monotone step map f into [0, 1]
exactly when it pins every discontinuity of f plainly:

* a monotone adversary that copies f off one point p and escapes there
  agrees with every pin unless p is pinned plain, and it exists exactly
  when f(p-) < f(p+), that is, at a discontinuity;
* the two extremal monotone interpolants of the pins, the lowest taking at
  p the largest pinned value at or below p and the highest the smallest at
  or above p (0 and 1 with no pin on that side), always sandwich f(p),
  because f is monotone with values in [0, 1]; so a value they force is
  f(p) and they never defeat the set.

Hence the check is ``jumps_pinned`` alone, for the run and for ``verify``.
The circular counterexample generator produces, for any finite excluded set,
a two-point-target map agreeing with the constant map off one fresh point.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import count
from typing import Sequence

# side tags of split points: the left copy, an unsplit point, the right copy
MINUS, PLAIN, PLUS = -1, 0, 1


class MonotoneStepMap:
    """Weakly increasing staircase self-map of [0,1] with finitely many breakpoints.

    Each breakpoint carries (left limit, value, right limit); between
    breakpoints the map is constant: the left limit of the first breakpoint
    before it, the right limit of the breakpoint before each later gap.
    Construction validates weak monotonicity, which forces the one-sided
    sandwich f(a) in [f(a-), f(a+)] everywhere, and values in [0, 1].
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
        if any(not 0 <= x <= 1 for x in chain):
            raise ValueError("map values must lie in [0,1]")

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


def staircase(jumps: Sequence[tuple[Fraction, Fraction, Fraction, Fraction]]) -> MonotoneStepMap:
    """Staircase from (breakpoint, left, value, right) rows, constant between."""
    bps = [Fraction(j[0]) for j in jumps]
    triples = [(j[1], j[2], j[3]) for j in jumps]
    return MonotoneStepMap(bps, triples)


# x starts at a non-space, so a literal matches one way only and a
# malformed text fails in linear time
_MAP_RE = re.compile(r"\(\s*([^;()\s][^;()]*);([^()]*)\)")
_MAP_TEXT = re.compile(rf"\s*(?:{_MAP_RE.pattern}\s*)+")


def parse_step_map(text: str) -> MonotoneStepMap:
    """Breakpoint/value triples in the config syntax ``(x; left,point,right)``;
    the whole text must be such literals separated by whitespace."""
    if not _MAP_TEXT.fullmatch(text):
        raise ValueError(f"not a sequence of map literals (x; left,point,right): {text!r}")
    rows = []
    for m in _MAP_RE.finditer(text):
        x = Fraction(m.group(1).strip())
        parts = [Fraction(p.strip()) for p in m.group(2).split(",")]
        if len(parts) != 3:
            raise ValueError("each literal needs exactly left,point,right")
        rows.append((x, *parts))
    return staircase(sorted(rows))


# ---------------------------------------------------------------------------
# determining sets
# ---------------------------------------------------------------------------


class HellyDeterminingSet:
    __slots__ = ("points", "sound")

    def __init__(self, points: tuple[tuple[Fraction, int], ...], sound: bool):
        self.points = points
        self.sound = sound


MAX_SAMPLE_LEVEL = 16


def helly_determining_set(f: MonotoneStepMap, sample_level: int) -> HellyDeterminingSet:
    """The discontinuities of f plus the dyadic sample k/2^sample_level of
    [0, 1], all pinned plain; determination is decided by ``jumps_pinned``.
    ValueError unless 0 <= sample_level <= MAX_SAMPLE_LEVEL (2^16 + 1 pins).

    A monotone adversary agreeing with f on the pins can only escape at one
    point p that is not pinned plain, where f(p-) < f(p+): f is locally
    constant off its breakpoints, so that is a discontinuity left unpinned.
    The extremal monotone interpolants of the pins never defeat the set: for
    f monotone into [0, 1], the pins at or below p carry values <= f(p) and
    those at or above p values >= f(p), so bounds that meet meet at f(p).
    """
    if not 0 <= sample_level <= MAX_SAMPLE_LEVEL:
        raise ValueError(f"sample_level must lie in 0..{MAX_SAMPLE_LEVEL}, not {sample_level}")
    sample = (Fraction(k, 2**sample_level) for k in range(2**sample_level + 1))
    cset = sorted({(x, PLAIN) for x in (*f.discontinuities(), *sample)})
    sound = jumps_pinned(f, cset)
    return HellyDeterminingSet(tuple(cset), sound)


def jumps_pinned(f: MonotoneStepMap, pins) -> bool:
    """Whether every discontinuity of f is pinned with side PLAIN: the whole
    determination check for a step map into [0, 1] (module docstring)."""
    plain = {x for x, s in pins if s == PLAIN}
    return all(x in plain for x in f.discontinuities())


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
