"""The hot kernels, in NumPy: factor extraction, pattern projection and
windowed oscillation."""

from __future__ import annotations

import numpy as np

BACKEND = "fallback"


def extract_factors(word, length: int) -> np.ndarray:
    """Sorted distinct bitmasks of all ``length``-windows of a 0/1 word.

    Bit j of a mask is the symbol at window offset j.  Up to 24 bits the
    distinct set is read off a bitmap over all 2^length masks, which is sorted
    by construction; longer windows use ``np.unique``.
    """
    w = np.asarray(word, dtype=np.int64)
    n = w.shape[0]
    if length < 1 or length > 62:
        raise ValueError("length must be in 1..62")
    if n < length:
        return np.empty(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(w, length)
    masks = windows @ (np.int64(1) << np.arange(length, dtype=np.int64))
    if length > 24:
        return np.unique(masks)
    seen = np.zeros(1 << length, dtype=bool)
    seen[masks] = True
    return np.flatnonzero(seen)


def project_masks(factors, positions) -> np.ndarray:
    """Project factor masks onto the given bit positions (packed little-endian).

    Bit j of a projection is bit ``positions[j]`` of its factor.  A run of r
    consecutive positions p, p+1, ..., p+r-1 starting at output bit j moves as
    one field, ``((f >> p) & (2^r - 1)) << j``, so the cost is one pass per run.
    """
    f = np.asarray(factors, dtype=np.int64)
    out = np.zeros_like(f)
    pos = np.asarray(positions, dtype=np.int64).tolist()
    j = 0
    while j < len(pos):
        r = 1
        while j + r < len(pos) and pos[j + r] == pos[j] + r:
            r += 1
        out |= ((f >> pos[j]) & ((1 << r) - 1)) << j
        j += r
    return out


def distinct_projection_count(factors, positions) -> int:
    """Number of distinct 0/1 patterns the factors realize on ``positions``."""
    k = len(positions)
    if k == 0:
        return 1 if len(factors) else 0
    if k > 30:
        raise ValueError("too many positions for the table")
    seen = np.zeros(1 << k, dtype=bool)
    seen[project_masks(factors, positions)] = True
    return int(np.count_nonzero(seen))


def window_oscillation(values, radius: float, images, weights) -> np.ndarray:
    """Per-point oscillation over value-metric balls.

    ``values`` must be sorted ascending; the ball of point i is the index
    range with |values[j] - values[i]| <= radius.  The oscillation at i is
    the largest weighted per-column spread of ``images`` over that range.

    Range max/min come from a sparse table built up to the longest ball:
    level k holds the column max/min of every run of 2^k rows, and a ball of
    length L is covered by two overlapping level-floor(log2 L) runs.  Max and
    min are exact, so the result equals a direct scan of each ball.
    """
    v = np.asarray(values, dtype=np.float64)
    img = np.asarray(images, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = v.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    lo = np.searchsorted(v, v - radius, side="left")
    hi = np.searchsorted(v, v + radius, side="right")
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(ball length)), exact
    spread = np.empty_like(img)
    top, bottom = img, img  # level-k run max/min, one row per run start
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            top = np.maximum(top[:-half], top[half:])
            bottom = np.minimum(bottom[:-half], bottom[half:])
        at = np.nonzero(level == k)[0]
        if at.size:
            first, last = lo[at], hi[at] - (1 << k)
            spread[at] = np.maximum(top[first], top[last]) - np.minimum(
                bottom[first], bottom[last]
            )
    return np.max(spread * w, axis=1)
