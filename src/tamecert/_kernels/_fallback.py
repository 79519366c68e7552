"""The hot kernels, in NumPy: factor extraction, pattern projection and
windowed oscillation."""

from __future__ import annotations

import numpy as np

BACKEND = "fallback"
_QUERY_BLOCK = 2048  # balls read per step: bounds the temporaries of a level


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
    one field: one shift by p - j (a left shift when p < j), then one mask
    with ``(2^r - 1) << j``.  The first run's field is the output.
    """
    f = np.asarray(factors, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64).tolist()
    if not pos:
        return np.zeros_like(f)
    out = None
    j = 0
    while j < len(pos):
        p, r = pos[j], 1
        while j + r < len(pos) and pos[j + r] == p + r:
            r += 1
        field = f >> (p - j) if p >= j else f << (j - p)
        field &= ((1 << r) - 1) << j
        if out is None:
            out = field
        else:
            out |= field
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


def ball_bounds(values, radius: float, segments=None, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Index range ``[lo, hi)`` of the ball of every row, or of each of ``rows``.

    Rows are ordered by ``(segments, values)``; the ball of row i holds the
    rows of its segment with ``values[i] - radius <= v <= values[i] + radius``.
    Without segments every row is in one segment.  With them, each row is
    keyed by ``segment + 1j * value``, which NumPy orders lexicographically,
    so the float thresholds are compared with the values themselves and never
    with shifted copies of them.
    """
    v = np.asarray(values, dtype=np.float64)
    at = v if rows is None else v[rows]
    if segments is None:
        return (np.searchsorted(v, at - radius, side="left"),
                np.searchsorted(v, at + radius, side="right"))
    seg = np.asarray(segments, dtype=np.float64)
    keys = seg + 1j * v
    base = seg if rows is None else seg[rows]
    return (np.searchsorted(keys, base + 1j * (at - radius), side="left"),
            np.searchsorted(keys, base + 1j * (at + radius), side="right"))


def window_oscillation(values, radius: float, images, weights, segments=None, bits=None,
                       bit_weights=None) -> np.ndarray:
    """Per-point oscillation over value-metric balls.

    The ball of a row is its ``ball_bounds`` range: ``values`` are sorted
    ascending within each of the ``segments`` (rows ordered by segment), and
    a ball never leaves its segment.  The oscillation at a row is the largest
    weighted spread over its ball of a column of ``images``, or of a bit of
    the packed int64 columns ``bits``.  Bit k of the packed columns (column
    k // 63, bit k % 63) weighs ``bit_weights[k]``, which must not increase
    with k, and bits beyond ``bit_weights`` must be clear; a bit spreads over
    a ball when the ball holds it both set and clear, so the bits add the
    weight of the lowest such bit.

    Range max/min (OR/AND for bits) come from a sparse table built up to the
    longest ball: level k holds the reduction of every run of 2^k rows, and a
    ball of length L is covered by two overlapping level-floor(log2 L) runs.
    The reductions are exact, so the result equals a direct scan of each ball.
    """
    v = np.asarray(values, dtype=np.float64)
    img = np.asarray(images, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = v.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    lo, hi = ball_bounds(v, radius, segments)
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(ball length)), exact
    osc = np.empty(n, dtype=np.float64)
    top, bottom = img, img  # level-k run max/min, one row per run start
    if bits is not None:
        some = every = np.asarray(bits, dtype=np.int64)  # level-k run OR/AND
        table = np.zeros(63 * some.shape[1] + 1)  # bit weights, then 0 for no bit
        table[: len(bit_weights)] = bit_weights
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            top = np.maximum(top[:-half], top[half:])
            bottom = np.minimum(bottom[:-half], bottom[half:])
            if bits is not None:
                some = some[:-half] | some[half:]
                every = every[:-half] & every[half:]
        at = np.nonzero(level == k)[0]
        for start in range(0, at.size, _QUERY_BLOCK):
            part = at[start:start + _QUERY_BLOCK]
            first, last = lo[part], hi[part] - (1 << k)
            spread = np.maximum(top[first], top[last]) - np.minimum(bottom[first], bottom[last])
            osc[part] = np.max(spread * w, axis=1)
            if bits is not None:
                # AND within OR: XOR leaves the bits both set and clear
                varying = (some[first] | some[last]) ^ (every[first] & every[last])
                osc[part] = np.maximum(osc[part], table[_lowest_bit(varying)])
    return osc


def _lowest_bit(varying: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each row of packed 63-bit columns
    (bit k % 63 of column k // 63), 63 * columns for a row with none.
    Overwrites ``varying``."""
    cols = varying.shape[1]
    varying &= -varying  # the lowest set bit alone, an exact power of two
    bit = np.frexp(varying)[1] + (63 * np.arange(cols) - 1)
    bit[varying == 0] = 63 * cols
    return bit.min(axis=1)
