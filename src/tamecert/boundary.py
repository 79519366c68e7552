"""The free group on two generators acting on truncated boundary words.

Boundary points are depth-d prefixes of one-sided infinite reduced words
over a, b, A, B (capitals = inverses) with the 2^-(common prefix) metric.
Group elements act by concatenate-and-cancel; powers of a nontrivial element
contract everything except one fixed word toward another, and the limit is
extracted and classified from honest iteration.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DepthExhausted, NotStabilized

ALPHABET = "abAB"
_INverse = {"a": "A", "A": "a", "b": "B", "B": "b"}


def inverse_letter(c: str) -> str:
    return _INverse[c]


def reduce_letters(letters: Iterable[str]) -> tuple[str, ...]:
    """Cancel adjacent inverse pairs; the result is the minimal-length word."""
    stack: list[str] = []
    _push_letters(stack, letters)
    return tuple(stack)


def _push_letters(stack: list[str], letters: Iterable[str]) -> None:
    """Append letters to a reduced word held as a stack, cancelling each
    letter against an inverse on top; the stack stays reduced."""
    for c in letters:
        inv = _INverse.get(c)
        if inv is None:
            raise ValueError(f"letter {c!r} not in {ALPHABET!r}")
        if stack and stack[-1] == inv:
            stack.pop()
        else:
            stack.append(c)


class ReducedWord:
    """A free-group element; construction cancels its letters to the reduced word."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[str, ...]):
        self.letters = reduce_letters(letters)

    @classmethod
    def parse(cls, text: str) -> "ReducedWord":
        return cls(tuple(text.strip()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.letters,) == (other.letters,)
        return NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return ReducedWord(self.letters + other.letters)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple(inverse_letter(c) for c in reversed(self.letters)))

    def power(self, n: int) -> "ReducedWord":
        if n < 0:
            return self.inverse().power(-n)
        out = ReducedWord(())
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def cyclic_reduce(self) -> tuple["ReducedWord", "ReducedWord"]:
        """(conjugator c, core h) with self = c h c^-1 and h cyclically reduced."""
        letters = list(self.letters)
        pre: list[str] = []
        while len(letters) >= 2 and letters[0] == inverse_letter(letters[-1]):
            pre.append(letters[0])
            letters = letters[1:-1]
        return ReducedWord(tuple(pre)), ReducedWord(tuple(letters))

    def __str__(self):
        return "".join(self.letters) or "e"


IDENTITY = ReducedWord(())


class BoundaryPoint:
    """Depth-len(prefix) truncation of a one-sided infinite reduced word."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: tuple[str, ...]):
        self.prefix = prefix

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.prefix,) == (other.prefix,)
        return NotImplemented

    def __hash__(self):
        return hash((self.prefix,))

    @classmethod
    def parse(cls, text: str) -> "BoundaryPoint":
        p = tuple(text.strip())
        if p != reduce_letters(p):
            raise ValueError("boundary prefix must be reduced")
        return cls(p)

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def __str__(self):
        return "".join(self.prefix)


def periodic_point(prefix: ReducedWord, period: ReducedWord, depth: int) -> BoundaryPoint:
    """Truncation of the infinite word prefix . period . period ..."""
    if len(period) == 0:
        raise ValueError("period must be nontrivial")
    p, n = period.letters, len(period)
    # once the word ends in a copy of a cyclically reduced period, each later
    # copy goes on whole: its first letter cannot cancel the last one before
    whole = p[0] != inverse_letter(p[-1])
    letters = list(prefix.letters)
    while len(letters) < depth + n:
        _push_letters(letters, p)
        if whole and tuple(letters[-n:]) == p:
            letters.extend(p * max(0, -(-(depth + n - len(letters)) // n)))
            break
    return BoundaryPoint(tuple(letters[:depth]))


def boundary_action(gamma: ReducedWord, w: BoundaryPoint, depth: int | None = None) -> BoundaryPoint:
    """gamma . w by concatenation and cancellation, truncated to ``depth``.

    Raises DepthExhausted when the cancellation eats the entire stored
    prefix: the visible letters no longer determine the result.
    """
    cancelled = 0
    g = list(gamma.letters)
    rest = list(w.prefix)
    while g and rest and g[-1] == inverse_letter(rest[0]):
        g.pop()
        rest.pop(0)
        cancelled += 1
    if cancelled == len(w.prefix) and len(w.prefix) > 0:
        raise DepthExhausted(f"{gamma} cancels the whole stored prefix of {w}")
    out = tuple(g) + tuple(rest)
    depth = len(out) if depth is None else depth
    return BoundaryPoint(out[:depth])


def all_reduced_words(length: int) -> list[ReducedWord]:
    """All reduced words of exactly the given length."""
    if length == 0:
        return [IDENTITY]
    words: list[tuple[str, ...]] = [(c,) for c in ALPHABET]
    for _ in range(length - 1):
        words = [w + (c,) for w in words for c in ALPHABET if c != inverse_letter(w[-1])]
    return [ReducedWord(w) for w in words]


class LoxodromicLimit:
    """Limit of the powers of a nontrivial element: everything except the
    repulsing word converges to the attracting word."""

    __slots__ = ("gamma", "attracting", "repulsing", "depth")

    def __init__(self, gamma: ReducedWord, attracting: BoundaryPoint, repulsing: BoundaryPoint,
                 depth: int):
        self.gamma = gamma
        self.attracting = attracting
        self.repulsing = repulsing
        self.depth = depth

    def image_of(self, w: BoundaryPoint) -> BoundaryPoint:
        if w.prefix[: self.depth] == self.repulsing.prefix:
            return self.repulsing
        return self.attracting


def power_limit(gamma: ReducedWord, depth: int = 16, probes: Sequence[BoundaryPoint] | None = None) -> LoxodromicLimit:
    """Attracting/repulsing pair of gamma from iterated powers.

    Candidates come from the cyclically reduced core (attracting = c h h h...,
    repulsing = c h^-1 h^-1 ...); the iteration check then verifies on probe
    points that gamma^n moves them onto the attracting prefix and fixes the
    repulsing one.
    """
    if len(gamma) == 0:
        raise ValueError("identity has no loxodromic limit")
    conj, core = gamma.cyclic_reduce()
    att = periodic_point(conj, core, depth)
    rep = periodic_point(conj, core.inverse(), depth)

    n = 1
    while n * len(core) < 2 * depth + 2 * len(conj) + 2:
        n *= 2
    gn = gamma.power(n)
    if probes is None:
        probes = [periodic_point(w, w, depth) for w in all_reduced_words(2)]
    for w in probes:
        if w.prefix == rep.prefix:
            continue
        moved = boundary_action(gn, w, depth)
        again = boundary_action(gamma.power(2 * n), w, depth)
        if moved.prefix != att.prefix or again.prefix != att.prefix:
            raise NotStabilized(f"power iteration of {gamma} did not settle on {w}")
    rep_deep = periodic_point(conj, core.inverse(), depth + n * len(gamma) + 2)
    fixed = boundary_action(gn, rep_deep, depth)
    if fixed.prefix != rep.prefix:
        raise NotStabilized(f"repulsing candidate of {gamma} not fixed")
    return LoxodromicLimit(gamma, att, rep, depth)


# ---------------------------------------------------------------------------
# rank-array adapter
# ---------------------------------------------------------------------------

_CODE = {c: i for i, c in enumerate(ALPHABET)}


def word_codes(points: Sequence[BoundaryPoint], depth: int) -> np.ndarray:
    out = np.zeros((len(points), depth), dtype=np.float64)
    for i, p in enumerate(points):
        if p.depth < depth:
            raise ValueError("point shallower than requested depth")
        out[i] = [_CODE[c] for c in p.prefix[:depth]]
    return out


def loxodromic_rank_arrays(lox: LoxodromicLimit, points: Sequence[BoundaryPoint]):
    """(point codes, image codes) for the rank iteration at the limit's depth."""
    imgs = [lox.image_of(p) for p in points]
    return word_codes(points, lox.depth), word_codes(imgs, lox.depth)


def boundary_sample(depth: int = 16, base_length: int = 6,
                    lox: LoxodromicLimit | None = None) -> list[BoundaryPoint]:
    """Probe points: all reduced words of the base length extended
    periodically, plus (optionally) the power-orbit tails under gamma^j,
    0 < |j| <= 6, accumulating at the limit pair."""
    pts = {periodic_point(w, w, depth).prefix for w in all_reduced_words(base_length)}
    if lox is not None:
        pts.add(lox.attracting.prefix)
        pts.add(lox.repulsing.prefix)
        for j in range(1, 7):
            for g in (lox.gamma.power(j), lox.gamma.power(-j)):
                for w in all_reduced_words(1):
                    base = periodic_point(w, w, depth + 4 * j * len(lox.gamma) + 4)
                    try:
                        pts.add(boundary_action(g, base, depth).prefix)
                    except DepthExhausted:
                        continue
    return [BoundaryPoint(p) for p in sorted(pts) if len(p) >= depth]
