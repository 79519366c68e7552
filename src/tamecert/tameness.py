"""Combinatorial tameness evidence for binary codings.

Word complexity and maximum independence sets: a set of window positions is
independent when every 0/1 pattern on it is exhibited by some factor of the
coding language.  Logarithmically bounded independence is the finite shadow
of tameness; linear growth certifies the opposite.  All quantities computed
from a finite horizon are certified lower bounds and reported as such.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import BudgetExceeded


def factor_masks(word, window: int) -> np.ndarray:
    """Sorted distinct factors of the given window length, as bitmasks."""
    return K.extract_factors(np.asarray(word, dtype=np.int64), window)


def encode_masks(masks, width: int) -> list[str]:
    """Bit strings of the masks: character j is bit j, as ``'0'``/``'1'``.

    One uint8 digit matrix is filled column by column and decoded once, so
    no (len(masks) x width) int64 temporary is built.
    """
    m = np.asarray(masks, dtype=np.int64)
    if width == 0:
        return [""] * len(m)
    digits = np.empty((len(m), width), dtype=np.uint8)
    for j in range(width):
        np.bitwise_and(m >> j, 1, out=digits[:, j], casting="unsafe")
    digits += ord("0")
    text = digits.tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, len(text), width)]


def decode_masks(strings, width: int) -> np.ndarray | None:
    """Inverse of ``encode_masks``; None unless every string is ``width`` binary digits."""
    strings = list(strings)
    try:
        text = "".join(strings).encode("ascii")
    except (TypeError, UnicodeEncodeError):
        return None
    if not (np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)) == width).all():
        return None
    bits = np.frombuffer(text, dtype=np.uint8).reshape(len(strings), width) - np.uint8(ord("0"))
    if (bits > 1).any():
        return None
    masks = np.zeros(len(strings), dtype=np.int64)
    for j in range(width):
        masks |= bits[:, j].astype(np.int64) << j
    return masks


@dataclass(frozen=True)
class ComplexityProfile:
    """Distinct-factor counts p(1..L); horizon-limited, hence lower bounds."""

    counts: dict[int, int]
    horizon: int
    lower_bounds: bool = True

    def __getitem__(self, ell: int) -> int:
        return self.counts[ell]


def complexity(word, length: int, horizon: int | None = None) -> ComplexityProfile:
    """Factor-count profile p(1..length) from a coding word."""
    w = np.asarray(word, dtype=np.int64)
    horizon = w.shape[0] if horizon is None else horizon
    if horizon < 10 * length:
        raise ValueError(f"horizon {horizon} too short for length {length} (need >= 10x)")
    w = w[:horizon]
    counts = {ell: int(K.extract_factors(w, ell).size) for ell in range(1, length + 1)}
    return ComplexityProfile(counts, horizon)


@dataclass(frozen=True)
class IndependenceCertificate:
    """Positions plus, for every 0/1 pattern on them, a witnessing factor."""

    window: int
    positions: tuple[int, ...]
    witnesses: dict[str, str]  # pattern -> factor, both as ``encode_masks`` bit strings
    horizon: int
    exhausted: bool  # search ran to completion (vs. budget cut)
    complexity: int | None = None  # p(window); None when rebuilt from a payload without it

    @property
    def size(self) -> int:
        return len(self.positions)

    def verify(self, word) -> bool:
        """Recheck every witness against the factor set of the word."""
        pos = tuple(self.positions)
        fence = (-1,) + pos + (self.window,)  # strictly increasing inside [0, window)
        if not all(isinstance(p, int) for p in pos) or any(b <= a for a, b in zip(fence, fence[1:])):
            return False
        if len(self.witnesses) != 1 << len(pos):
            return False
        # dict keys are distinct, so 2^k decoded patterns are all of them
        patterns = decode_masks(self.witnesses.keys(), len(pos))
        shown = decode_masks(self.witnesses.values(), self.window)
        if patterns is None or shown is None:
            return False
        factors = factor_masks(word, self.window)
        if not len(factors) or self.complexity not in (None, len(factors)):
            return False
        at = np.minimum(np.searchsorted(factors, shown), len(factors) - 1)
        if not (factors[at] == shown).all():
            return False
        return bool((K.project_masks(shown, np.asarray(pos, dtype=np.int64)) == patterns).all())


def _covers(factors: np.ndarray, positions: tuple[int, ...]) -> bool:
    return K.distinct_projection_count(factors, np.asarray(positions, dtype=np.int64)) == (
        1 << len(positions)
    )


def _witnesses(factors: np.ndarray, positions: tuple[int, ...], window: int) -> dict[str, str]:
    """Each pattern on the positions, in increasing order, with its smallest factor."""
    proj = K.project_masks(factors, np.asarray(positions, dtype=np.int64))
    values, first = np.unique(proj, return_index=True)
    return dict(zip(encode_masks(values, len(positions)), encode_masks(factors[first], window)))


def max_independence(
    word, window: int, node_budget: int = 5_000_000
) -> IndependenceCertificate:
    """Maximum-size independent position set, by lexicographic branch and bound.

    The counting bound 2^|I| <= p(window) prunes globally; subtree pruning
    uses the remaining-position bound.  Include-first depth-first order makes
    the first maximum found the lexicographically smallest one.  On budget
    exhaustion raises BudgetExceeded with the best certificate attached.
    """
    if window > 24:
        raise ValueError("window above the search budget (max 24)")
    w = np.asarray(word, dtype=np.int64)
    if w.shape[0] < 10 * window:
        raise ValueError("horizon must be at least 10x the window")
    factors = factor_masks(w, window)
    cap = min(window, int(math.log2(len(factors))) if len(factors) else 0)
    best: tuple[int, ...] = ()
    nodes = 0
    out_of_budget = False

    def dfs(start: int, current: tuple[int, ...]) -> None:
        nonlocal best, nodes, out_of_budget
        for p in range(start, window):
            if out_of_budget or len(best) >= cap:
                return
            if len(current) + (window - p) <= len(best):
                return
            nodes += 1
            if nodes > node_budget:
                out_of_budget = True
                return
            cand = current + (p,)
            if _covers(factors, cand):
                if len(cand) > len(best):
                    best = cand
                dfs(p + 1, cand)

    if len(factors) >= 2 and cap >= 1:
        dfs(0, ())
    elif len(factors) == 1:
        best = ()
    cert = IndependenceCertificate(
        window=window,
        positions=best,
        witnesses=_witnesses(factors, best, window),
        horizon=int(w.shape[0]),
        exhausted=not out_of_budget,
        complexity=len(factors),
    )
    if out_of_budget:
        raise BudgetExceeded(f"independence search for window {window} hit the node budget", best=cert)
    return cert


def exhaustive_max_independence(word, window: int) -> tuple[int, ...]:
    """Brute-force oracle: scan all position sets by descending size, lex order."""
    w = np.asarray(word, dtype=np.int64)
    factors = factor_masks(w, window)
    for size in range(window, 0, -1):
        for cand in itertools.combinations(range(window), size):
            if _covers(factors, cand):
                return cand
    return ()


@dataclass(frozen=True)
class GrowthReport:
    """Heuristic label over finite data; the raw table is the real content."""

    classification: str  # bounded_log | growing | inconclusive
    table: dict[int, dict[str, int]]  # L -> {complexity, independence}
    note: str

    def series(self):
        return [(L, row["complexity"], row["independence"]) for L, row in sorted(self.table.items())]


def growth_report(rows: dict[int, dict]) -> GrowthReport:
    """Classify independence growth over the tested windows.

    ``rows`` maps each window L to a row with its ``complexity`` p(L) and
    ``independence`` |I(L)|, as the caller's searches found them.
    bounded_log: |I(L)| <= ceil(log2 p(L)) everywhere and p grows at most
    polynomially on the range.  growing: |I(L)| climbs at least half a
    position per window step.  Labels are heuristics over finite data.
    """
    window_list = sorted(rows)
    if not window_list:
        raise ValueError("need at least one window length")
    table = {
        L: {"complexity": rows[L]["complexity"], "independence": rows[L]["independence"]}
        for L in window_list
    }
    sizes = [table[L]["independence"] for L in window_list]
    log_ok = all(
        table[L]["independence"] <= math.ceil(math.log2(max(table[L]["complexity"], 2)))
        for L in window_list
    )
    poly_ok = all(table[L]["complexity"] <= (L + 1) ** 2 for L in window_list)
    if log_ok and poly_ok:
        cls = "bounded_log"
        note = "independence within the counting bound; complexity at most quadratic on range"
    elif (
        len(window_list) >= 2
        and all(b >= a for a, b in zip(sizes, sizes[1:]))
        and (sizes[-1] - sizes[0]) * 2 >= (window_list[-1] - window_list[0])
    ):
        cls = "growing"
        note = "independence grows at least half a position per window step on range"
    else:
        cls = "inconclusive"
        note = "finite data matches neither profile"
    return GrowthReport(cls, table, note + " (heuristic over finite horizons)")
