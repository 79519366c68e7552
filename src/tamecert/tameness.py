"""Combinatorial tameness evidence for binary codings.

Word complexity and maximum independence sets: a set of window positions is
independent when every 0/1 pattern on it is exhibited by some factor of the
coding language.  Logarithmically bounded independence is the finite shadow
of tameness; linear growth certifies the opposite.  All quantities computed
from a finite horizon are certified lower bounds and reported as such.
"""

from __future__ import annotations

import itertools

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
    return K.extract_factors(word, window)


class ComplexityProfile:
    """Distinct-factor counts p(1..L); horizon-limited, hence lower bounds."""

    __slots__ = ("counts", "horizon")

    def __init__(self, counts: dict[int, int], horizon: int):
        self.counts = counts
        self.horizon = horizon

    def __getitem__(self, ell: int) -> int:
        return self.counts[ell]


def complexity(word, length: int, horizon: int | None = None) -> ComplexityProfile:
    """Factor-count profile p(1..length) from a coding word."""
    w = np.asarray(word)
    horizon = w.shape[0] if horizon is None else horizon
    check_horizon(length, horizon)
    w = w[:horizon]
    counts = {ell: int(K.extract_factors(w, ell).size) for ell in range(1, length + 1)}
    return ComplexityProfile(counts, horizon)


class IndependenceCertificate:
    """Window positions on which the coding's factors show every 0/1 pattern.

    ``verify`` rebuilds the factor set from the word, so the payload carries
    the positions alone, no witness per pattern.
    """

    __slots__ = ("window", "positions", "witnesses", "horizon", "exhausted", "complexity")

    def __init__(self, window: int, positions: tuple[int, ...], witnesses: np.ndarray | None,
                 horizon: int, exhausted: bool, complexity: int | None = None):
        self.window = window
        self.positions = positions
        # in memory only, never in the payload: the smallest factor of each pattern,
        # in pattern order; None when rebuilt from a payload.  perfbench's tracer
        # counts len(witnesses), and its self-test wants the project_masks rows that
        # building them fills; they go when the benchmark stops reading them
        self.witnesses = witnesses
        self.horizon = horizon
        self.exhausted = exhausted  # search ran to completion (vs. budget cut)
        self.complexity = complexity  # p(window); None when rebuilt from a payload

    @property
    def size(self) -> int:
        return len(self.positions)

    def payload(self) -> dict:
        """The certificate's JSON fields."""
        return {"window": self.window, "horizon": self.horizon,
                "positions": list(self.positions), "exhausted": self.exhausted}

    @classmethod
    def from_payload(cls, d: dict) -> IndependenceCertificate:
        """Inverse of ``payload``; KeyError, TypeError or ValueError when malformed.

        A ``witnesses`` key, which older reports carry, is ignored."""
        return cls(window=int(d["window"]), positions=tuple(d["positions"]), witnesses=None,
                   horizon=int(d["horizon"]), exhausted=bool(d["exhausted"]))

    def verify(self, word) -> bool:
        """Recheck that the word's factors show all 2^k patterns on the positions."""
        pos = tuple(self.positions)
        fence = (-1,) + pos + (self.window,)  # strictly increasing inside [0, window)
        if not all(type(p) is int for p in pos) or any(b <= a for a, b in zip(fence, fence[1:])):
            return False
        factors = factor_masks(word, self.window)
        if not len(factors) or self.complexity not in (None, len(factors)):
            return False
        return _covers(factors, pos)


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

    Include-first depth-first order makes the first maximum found the
    lexicographically smallest one.  Each node carries ``codes``: the factor
    masks with the node's pattern on its k positions in bits
    window..window+k-1, so a child p is tested on the two runs
    (p, window..window+k-1) whatever the gaps in the node's positions.
    ``codes >> window`` is also the node's pattern class.  A shattered
    superset must show every pattern of its new positions inside each of the
    2^k classes, so the counting bound, 2^|I| <= p(window) at the root, cuts
    each subtree at k + floor(log2(smallest class)) positions, together with
    the remaining-position bound.  ``node_budget`` counts candidate tests.
    The full shift shatters every position set and needs no search; its
    witnesses are the factors themselves.  On budget exhaustion raises
    BudgetExceeded with the best certificate attached.
    """
    check_window(window)
    w = np.asarray(word)
    check_horizon(window, w.shape[0])
    factors = factor_masks(w, window)
    best: tuple[int, ...] = ()
    nodes = 0
    out_of_budget = False

    def dfs(start: int, current: tuple[int, ...], codes: np.ndarray) -> None:
        nonlocal best, nodes, out_of_budget
        k = len(current)
        pattern = tuple(range(window, window + k))
        # a shattered superset shows every pattern of its new positions in each class
        room = int(np.bincount(codes >> window, minlength=1 << k).min()).bit_length() - 1
        for p in range(start, window):
            if out_of_budget or k + min(room, window - p) <= len(best):
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
    w = np.asarray(word)
    factors = factor_masks(w, window)
    for size in range(window, 0, -1):
        for cand in itertools.combinations(range(window), size):
            if _covers(factors, cand):
                return cand
    return ()


class GrowthReport:
    """Heuristic label over finite data; the raw table is the real content."""

    __slots__ = ("classification", "table", "note")

    def __init__(self, classification: str, table: dict[int, dict[str, int]], note: str):
        self.classification = classification  # bounded_log | growing | inconclusive
        self.table = table  # L -> {complexity, independence}
        self.note = note


def growth_report(rows: dict[int, dict]) -> GrowthReport:
    """Classify independence growth over the tested windows.

    ``rows`` maps each window L to a row with its ``complexity`` p(L) and
    ``independence`` |I(L)|, as the caller's searches found them.
    bounded_log: p grows at most quadratically on the range; then
    |I(L)| <= log2 p(L) holds too, as it does for every row, because a
    shattered k-set needs 2^k distinct factors.  growing: |I(L)| climbs at
    least half a position per window step.  Labels are heuristics over
    finite data.
    """
    window_list = sorted(rows)
    if not window_list:
        raise ValueError("need at least one window length")
    table = {
        L: {"complexity": rows[L]["complexity"], "independence": rows[L]["independence"]}
        for L in window_list
    }
    sizes = [table[L]["independence"] for L in window_list]
    if all(table[L]["complexity"] <= (L + 1) ** 2 for L in window_list):
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
