"""Combinatorial tameness evidence for binary codings.

Word complexity and maximum independence sets: a set of window positions is
independent when every 0/1 pattern on it is exhibited by some factor of the
coding language.  Logarithmically bounded independence is the finite shadow
of tameness; linear growth certifies the opposite.  All quantities computed
from a finite horizon are certified lower bounds and reported as such.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import BudgetExceeded

MAX_WINDOW = 24  # the widest window searched, and the highest full-shift order
MAX_HORIZON = (1 << MAX_WINDOW) + 2 * MAX_WINDOW - 1  # symbols of that full-shift word


def check_window(window: int) -> None:
    """ValueError unless the window is in 1..MAX_WINDOW."""
    if not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window {window} must be in 1..{MAX_WINDOW}")


def check_horizon(length: int, horizon: int) -> None:
    """ValueError unless the horizon is in 10 x length..MAX_HORIZON."""
    if not 10 * length <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon {horizon} must be in 10 x {length}..{MAX_HORIZON}")


def factor_masks(word, window: int) -> np.ndarray:
    """Sorted distinct factors of the given window length, as bitmasks."""
    return K.extract_factors(np.asarray(word, dtype=np.int64), window)


def pack_masks(masks) -> str:
    """Base64 of the masks as little-endian uint32; a window is at most 24 bits."""
    return base64.b64encode(np.asarray(masks, dtype="<u4").tobytes()).decode("ascii")


def unpack_masks(text) -> np.ndarray:
    """Inverse of ``pack_masks``; ValueError unless ``text`` is base64 of whole uint32s."""
    if not isinstance(text, str):
        raise ValueError("packed masks must be a base64 string")
    raw = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(raw) % 4:
        raise ValueError("packed masks are not a whole number of uint32s")
    return np.frombuffer(raw, dtype="<u4").astype(np.int64)


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
    check_horizon(length, horizon)
    w = w[:horizon]
    counts = {ell: int(K.extract_factors(w, ell).size) for ell in range(1, length + 1)}
    return ComplexityProfile(counts, horizon)


@dataclass(frozen=True, eq=False)
class IndependenceCertificate:
    """Positions plus, for every 0/1 pattern on them, a witnessing factor.

    ``witnesses[i]`` is a factor whose projection onto the positions is the
    pattern i, so the 2^k patterns are implied by the order.
    """

    window: int
    positions: tuple[int, ...]
    witnesses: np.ndarray  # factor masks in pattern order
    horizon: int
    exhausted: bool  # search ran to completion (vs. budget cut)
    complexity: int | None = None  # p(window); None when rebuilt from a payload without it

    @property
    def size(self) -> int:
        return len(self.positions)

    def payload(self) -> dict:
        """The certificate's JSON fields, witnesses packed by ``pack_masks``."""
        return {"window": self.window, "horizon": self.horizon,
                "positions": list(self.positions), "witnesses": pack_masks(self.witnesses),
                "exhausted": self.exhausted}

    @classmethod
    def from_payload(cls, d: dict) -> IndependenceCertificate:
        """Inverse of ``payload``; KeyError, TypeError or ValueError when malformed."""
        return cls(window=int(d["window"]), positions=tuple(d["positions"]),
                   witnesses=unpack_masks(d["witnesses"]), horizon=int(d["horizon"]),
                   exhausted=bool(d["exhausted"]))

    def verify(self, word) -> bool:
        """Recheck every witness against the factor set of the word."""
        pos = tuple(self.positions)
        fence = (-1,) + pos + (self.window,)  # strictly increasing inside [0, window)
        if not all(isinstance(p, int) for p in pos) or any(b <= a for a, b in zip(fence, fence[1:])):
            return False
        shown = np.asarray(self.witnesses)
        if shown.dtype.kind not in "iu" or shown.shape != (1 << len(pos),):
            return False
        shown = shown.astype(np.int64, copy=False)
        factors = factor_masks(word, self.window)
        if not len(factors) or self.complexity not in (None, len(factors)):
            return False
        at = np.minimum(np.searchsorted(factors, shown), len(factors) - 1)
        if not (factors[at] == shown).all():
            return False
        patterns = K.project_masks(shown, np.asarray(pos, dtype=np.int64))
        return bool((patterns == np.arange(len(shown))).all())


def _covers(factors: np.ndarray, positions: tuple[int, ...]) -> bool:
    return K.distinct_projection_count(factors, np.asarray(positions, dtype=np.int64)) == (
        1 << len(positions)
    )


def _witnesses(factors: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    """For each pattern on the positions, in increasing order, its smallest factor."""
    proj = K.project_masks(factors, np.asarray(positions, dtype=np.int64))
    _, first = np.unique(proj, return_index=True)
    return factors[first]


def max_independence(
    word, window: int, node_budget: int = 5_000_000
) -> IndependenceCertificate:
    """Maximum-size independent position set, by lexicographic branch and bound.

    The counting bound 2^|I| <= p(window) prunes globally; subtree pruning
    uses the remaining-position bound.  Include-first depth-first order makes
    the first maximum found the lexicographically smallest one.  Each node
    carries ``codes``: the factor masks with the node's pattern on its k
    positions in bits window..window+k-1, so a child p is tested on the two
    runs (p, window..window+k-1) whatever the gaps in the node's positions.
    The full shift shatters every position set and needs no search; its
    witnesses are the factors themselves.  On budget exhaustion raises
    BudgetExceeded with the best certificate attached.
    """
    check_window(window)
    w = np.asarray(word, dtype=np.int64)
    check_horizon(window, w.shape[0])
    factors = factor_masks(w, window)
    cap = min(window, int(math.log2(len(factors))) if len(factors) else 0)
    best: tuple[int, ...] = ()
    nodes = 0
    out_of_budget = False

    def dfs(start: int, current: tuple[int, ...], codes: np.ndarray) -> None:
        nonlocal best, nodes, out_of_budget
        k = len(current)
        pattern = tuple(range(window, window + k))
        for p in range(start, window):
            if out_of_budget or len(best) >= cap:
                return
            if k + (window - p) <= len(best):
                return
            nodes += 1
            if nodes > node_budget:
                out_of_budget = True
                return
            if K.distinct_projection_count(codes, (p,) + pattern) == 2 << k:
                cand = current + (p,)
                if len(cand) > len(best):
                    best = cand
                dfs(p + 1, cand, codes | (((codes >> p) & 1) << (window + k)))

    if len(factors) == 1 << window:
        best = tuple(range(window))
        witnesses = factors  # projecting onto every position is the identity
    else:
        if cap >= 1:  # at least two factors
            dfs(0, (), factors)
        witnesses = _witnesses(factors, best)
    cert = IndependenceCertificate(
        window=window,
        positions=best,
        witnesses=witnesses,
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
