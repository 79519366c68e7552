"""Finite-scale oscillation rank of sampled enveloping-semigroup elements.

The derivative keeps the points whose neighborhood carries an image pair at
least epsilon apart; the rank is the first stage at which iterating the
derivative empties the sample.  True neighborhood infima are out of reach at
finite scale, so each stage works at a resolution from a decreasing schedule
(stage one detects oscillation at a scale tied to epsilon, later stages drop
below the sample's separation gap, mirroring the isolation argument that
kills finite derived sets), and the whole iteration is rerun at halved and
quartered schedules: the reported rank is the value stable across the three
runs.  Continuous elements come out at 1, one-sided limit elements at 2;
deeper ranks need samples and schedules built for them and otherwise end in
the budget flag.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _kernels as K
from .errors import NotStabilizedAcrossResolutions
from .envelope import ApproxElement, CircleMetric, CodingMetric, positions, word_order
from .systems import RotationSystem, SplitCircleSystem


class RankInstance:
    """Arrays backing the rank computation for one sampled element.

    Every kind shares one derivative stage: a ball is a cylinder of equal
    leading ``words`` columns cut down to a window of ``positions``.
    kind 'split': binary coding words (uint8) plus base positions on the
    circle; the distance is 1 off the full-word cylinder, else the base arc
    distance.
    kind 'circle': positions on the circle only (arc metric), images embedded
    as scaled sin/cos columns (conservative within sqrt(2) for detection,
    exact enough for continuity bounds).
    kind 'prefix': one-sided words under 2^-lcp; the ball is the whole
    cylinder, so there are no positions.
    kind 'value': plain positions and scalar image values.
    ``img_positions`` are the images' circle positions (split and circle
    kinds); the split stage adds them, unwrapped, as one more image column.

    The arrays the stages share are computed once per instance: the word
    order behind ``cylinder_ids`` (``envelope.word_order``, for every key
    width; split instances take it, with their words, from the sample) and
    the split kind's packed image words (``image_bits``).
    """

    def __init__(self, kind: str, points: Sequence, words: np.ndarray | None,
                 img_words: np.ndarray, weights: np.ndarray,
                 positions: np.ndarray | None = None, img_positions: np.ndarray | None = None):
        self.kind = kind
        self.points = points
        self.words = words  # (n, W) point words (split/prefix kinds; uint8 for split)
        self.img_words = img_words  # (n, W) image descriptor columns, weighted by `weights`
        self.weights = weights  # (W,)
        self.positions = positions  # (n,) base or value positions
        self.img_positions = img_positions  # (n,) image circle positions (split/circle)
        # word_order(words), built on first use or set from the sample; not a
        # parameter, so a new instance with other words builds its own
        self.word_order = None

    def separation_gap(self) -> float:
        """A positive scale below which distinct sample points separate."""
        gaps = []
        if self.positions is not None:
            s = np.sort(self.positions)
            d = np.diff(s)
            d = d[d > 0]
            if d.size:
                gaps.append(float(d.min()))
        if self.words is not None and self.weights.size:
            gaps.append(float(self.weights.min()))
        if not gaps:
            raise ValueError("degenerate instance: no separating scale")
        return min(gaps)

    def cylinder_ids(self, width: int) -> np.ndarray:
        """Cylinder id of every point: equal ids for equal first ``width`` word
        columns, ascending in the lexicographic order of those columns."""
        ids = np.zeros(len(self.points), dtype=np.int64)
        if self.words is not None and width > 0:
            if self.word_order is None:
                self.word_order = word_order(self.words)
            order, first_diff = self.word_order
            ids[order[1:]] = np.cumsum(first_diff < width)
        return ids

    @cached_property
    def image_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0/1 image words as packed int64 columns of 63 bits, and the
        weight of each bit: the word columns go in by descending weight, ties
        in column order, so the lowest bit that varies over a ball is the
        ball's first word column of widest spread."""
        heaviest = np.argsort(-self.weights, kind="stable")
        packed = np.empty((len(self.points), -(-heaviest.size // 63)), dtype=np.int64)
        for c in range(packed.shape[1]):
            octets = np.zeros((packed.shape[0], 8), dtype=np.uint8)
            chunk = np.packbits(self.img_words[:, heaviest[63 * c:63 * c + 63]], axis=1,
                                bitorder="little")
            octets[:, :chunk.shape[1]] = chunk
            packed[:, c] = octets.view("<i8")[:, 0]
        return packed, self.weights[heaviest]


def split_instance(p: ApproxElement) -> RankInstance:
    metric: CodingMetric = p.sample.metric
    pts, imgs = p.sample.points, p.images
    h = metric.horizon
    words, order = p.sample.point_words
    img_pos = positions(imgs)
    img_words = metric.words(imgs, img_pos)
    weights = 2.0 ** -np.abs(np.arange(-h, h + 1, dtype=np.float64))
    inst = RankInstance("split", pts, words, img_words, weights, positions(pts), img_pos)
    inst.word_order = order
    return inst


def circle_instance(p: ApproxElement) -> RankInstance:
    pts = p.sample.points
    pos, img = positions(pts), positions(p.images)
    cols = np.stack(
        [np.sin(2 * np.pi * img) / (2 * np.pi), np.cos(2 * np.pi * img) / (2 * np.pi)], axis=1
    )
    return RankInstance("circle", pts, None, cols, np.ones(2), pos, img)


def value_instance(points, values, images) -> RankInstance:
    """Scalar maps on an ordered sample (step maps, discrete families)."""
    img = np.asarray(images, dtype=np.float64).reshape(len(points), -1)
    return RankInstance(
        "value", list(points), None, img, np.ones(img.shape[1]),
        np.asarray(values, dtype=np.float64),
    )


def prefix_instance(points, point_words, image_words) -> RankInstance:
    """One-sided words (free-group boundary) under the 2^-lcp metric."""
    w = np.asarray(point_words, dtype=np.float64)
    iw = np.asarray(image_words, dtype=np.float64)
    weights = 2.0 ** -np.arange(w.shape[1], dtype=np.float64)
    return RankInstance("prefix", list(points), w, iw, weights)


def build_instance(p: ApproxElement) -> RankInstance:
    if isinstance(p.system, SplitCircleSystem) and isinstance(p.sample.metric, CodingMetric):
        return split_instance(p)
    if isinstance(p.system, RotationSystem) and isinstance(p.sample.metric, CircleMetric):
        return circle_instance(p)
    raise TypeError("no automatic rank arrays for this element; build an instance explicitly")


# ---------------------------------------------------------------------------
# one derivative stage
# ---------------------------------------------------------------------------


def _unwrap_circular(vals: np.ndarray, cylinder: np.ndarray) -> np.ndarray:
    """Re-anchor each cylinder's image positions at their largest gap so a
    short arc of images becomes a plain interval (the minus point of a split
    pair has base 0 but lives at the top of its cell, so raw positions can
    straddle the 0/1 cut).  A lone point goes to 0.  Raises when the images
    of a cylinder of two or more points span more than half a circle."""
    order = np.lexsort((vals, cylinder))
    sv, sc = vals[order], cylinder[order]
    start = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
    end = np.r_[start[1:], sv.size]
    seg = np.repeat(np.arange(start.size), end - start)
    gap = np.full(sv.size, -np.inf)  # to the next image of the same cylinder
    inside = sc[1:] == sc[:-1]
    gap[:-1][inside] = np.diff(sv)[inside]
    widest = np.maximum.reduceat(gap, start)
    at = np.flatnonzero(gap == widest[seg])
    first = at[np.r_[True, seg[at][1:] != seg[at][:-1]]]  # first widest gap of each cylinder
    wrap = 1.0 - (sv[end - 1] - sv[start])
    cut = sv[np.where(widest > wrap, first + 1, start)]
    out = (sv - cut[seg]) % 1.0
    span = np.maximum.reduceat(out, start) - np.minimum.reduceat(out, start)
    if np.any((end - start >= 2) & (span > 0.5)):
        raise ValueError("image arc exceeds a half circle; osc undefined here")
    unwrapped = np.empty_like(out)
    unwrapped[order] = out
    return unwrapped


def _stage(inst: RankInstance, active: np.ndarray, radius: float, eps: float,
           among: np.ndarray | None = None, witnesses: bool = True):
    """Indices of the active points surviving one epsilon-derivative at the
    given resolution, plus their witness pairs (None without ``witnesses``).
    Only the points flagged in the per-point mask ``among`` are measured.

    One pass over every cylinder at once: ``_stage_arrays`` orders the
    active points and their copies by (cylinder, position) into one array, a
    ball is a window of positions inside its cylinder's segment of that
    array, and one window-oscillation call measures the ball of each
    member's own row (only a point's own copy can survive).
    """
    values, segments, points, own, cols, bits, bit_weights = _stage_arrays(inst, active, radius)
    rows = np.nonzero(own if among is None else own & among[points])[0]
    # positional: kernel wrappers may take no keywords
    osc = K.window_oscillation(values, radius, cols, np.ones(cols.shape[1]), segments, bits,
                               bit_weights, rows)
    keep = osc >= eps
    hit = rows[keep]
    survivors = points[hit]
    if not witnesses:
        return np.sort(survivors), None
    top, bottom = _witness_rows(values, radius, segments, cols, bits, bit_weights, osc[keep], hit)
    witness = dict(zip(survivors.tolist(), zip(points[top].tolist(), points[bottom].tolist())))
    return np.sort(survivors), witness


def _stage_arrays(inst: RankInstance, active: np.ndarray, radius: float):
    """The stage's one array, ordered by (cylinder, position): the members,
    then the copies of those within the radius of the 0/1 cut one turn up,
    then those one turn down (split and circle kinds), ties in that order.

    Returns the positions, the cylinder segments (None for one cylinder),
    the points, which rows are the members' own, and the image columns:
    float columns (pre-weighted) and, for the split kind, the packed word
    bits and their weights.
    """
    if inst.kind == "split":
        # full-window cylinder key: the base distance supplies the radius,
        # and full word agreement stops beyond-horizon coordinates from
        # leaking fake oscillation into shifted images (valid for shifts
        # up to horizon - log2(1/eps))
        width = inst.words.shape[1]
    elif inst.kind == "prefix":
        # the key columns are those heavier than the radius, a prefix of the
        # decreasing weights
        width = int(np.count_nonzero(inst.weights > radius))
    elif inst.kind in ("circle", "value"):
        width = 0
    else:
        raise ValueError(f"unknown instance kind {inst.kind!r}")
    cylinder = inst.cylinder_ids(width)[active]
    # prefix balls are whole cylinders: one position for every member
    pos = np.zeros(active.size) if inst.kind == "prefix" else inst.positions[active]
    rows = np.arange(active.size)
    if inst.kind in ("split", "circle"):
        # circle positions: copy the members within the radius of the cut
        # one turn over, so every window sees its arc neighbours
        up = np.nonzero(pos <= radius)[0]
        down = np.nonzero(pos >= 1.0 - radius)[0]
        rows = np.concatenate([rows, up, down])
        pos = np.concatenate([pos, pos[up] + 1.0, pos[down] - 1.0])
    order = np.lexsort((pos, cylinder[rows]))
    rows = rows[order]
    points = active[rows]
    if inst.kind == "split":
        # the images' circle positions, unwrapped per cylinder, after the words
        cols = _unwrap_circular(inst.img_positions[active], cylinder)[rows, None]
        packed, bit_weights = inst.image_bits
        bits = packed[points]
    else:
        cols = inst.img_words[points] * inst.weights
        bits = bit_weights = None
    # one cylinder: no segment keys to compare
    segments = cylinder[rows] if width else None
    return pos[order], segments, points, order < active.size, cols, bits, bit_weights


def _witness_rows(values, radius, segments, cols, bits, bit_weights, osc, hit):
    """Witness rows of each hit: the first row of its ball that holds the
    maximum and the first that holds the minimum of the ball's first column
    of widest spread, word bits (in column order) before the float columns.

    A widest column spreads by exactly the hit's oscillation.  A bit column
    spreads by its weight or not at all, so only the bits of that weight are
    read, through the next set and the next clear row; a float column is
    read through first-occurrence argmax and argmin tables.
    """
    top = np.full(hit.size, -1)
    bottom = np.full(hit.size, -1)
    if hit.size == 0:
        return top, bottom
    lo, hi = K.ball_bounds(values, radius, segments, hit)
    if bits is not None:
        spreads = set(osc.tolist())
        for k, weight in enumerate(bit_weights.tolist()):
            if weight not in spreads:
                continue
            bit = ((bits[:, k // 63] >> (k % 63)) & 1).astype(bool)
            set_at, clear_at = _next_row(bit, lo), _next_row(~bit, lo)
            take = (top < 0) & (osc == weight) & (set_at < hi) & (clear_at < hi)
            top[take], bottom[take] = set_at[take], clear_at[take]
    for c in range(cols.shape[1]):
        todo = np.nonzero(top < 0)[0]
        if todo.size == 0:
            break
        col = cols[:, c]
        first_max = _first_extreme(col, lo[todo], hi[todo], np.greater_equal)
        first_min = _first_extreme(col, lo[todo], hi[todo], np.less_equal)
        take = col[first_max] - col[first_min] == osc[todo]
        top[todo[take]], bottom[todo[take]] = first_max[take], first_min[take]
    return top, bottom


def _next_row(mask: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The first row at or after each of ``lo`` where ``mask`` holds (the
    row count if none)."""
    rows = np.append(np.nonzero(mask)[0], mask.size)
    return rows[np.searchsorted(rows, lo)]


def _first_extreme(col: np.ndarray, lo: np.ndarray, hi: np.ndarray, keeps_left) -> np.ndarray:
    """First row of each range ``[lo, hi)`` holding the range's extreme of
    ``col``: the maximum with ``np.greater_equal``, the minimum with
    ``np.less_equal``.  Level k of the sparse table holds the first extreme
    row of every run of 2^k rows; the left run wins ties, so two overlapping
    runs give the first extreme of their union."""
    level = np.frexp(hi - lo)[1] - 1
    best = np.arange(col.size)
    out = np.empty_like(lo)
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            left, right = best[:-half], best[half:]
            best = np.where(keeps_left(col[left], col[right]), left, right)
        at = np.nonzero(level == k)[0]
        if at.size:
            left, right = best[lo[at]], best[hi[at] - (1 << k)]
            out[at] = np.where(keeps_left(col[left], col[right]), left, right)
    return out


# ---------------------------------------------------------------------------
# the rank iteration
# ---------------------------------------------------------------------------

STAGE_BUDGET = 8  # derivative stages before the budget flag (beta None)
RERUN_SCALES = (1.0, 0.5, 0.25)  # schedule scales whose ranks must agree


class RankTrace:
    __slots__ = ("epsilon", "schedule", "stages", "witnesses", "beta", "stabilized")

    def __init__(self, epsilon: float, schedule: tuple[float, ...], stages: list[np.ndarray],
                 witnesses: list[dict[int, tuple[int, int]]], beta: int | None,
                 stabilized: bool = True):
        self.epsilon = epsilon
        self.schedule = schedule
        self.stages = stages  # A^0 superset A^1 superset ...
        self.witnesses = witnesses
        self.beta = beta  # least stage index with empty set; None = budget flag
        self.stabilized = stabilized

    def stage_sizes(self) -> list[int]:
        return [len(s) for s in self.stages]

    def verify_witnesses(self, inst: RankInstance) -> bool:
        """Recheck each survivor's pair: within the stage radius and eps apart."""
        for depth, (stage_set, wit) in enumerate(zip(self.stages[1:], self.witnesses)):
            r = self.schedule[min(depth, len(self.schedule) - 1)]
            prev = set(int(i) for i in self.stages[depth])
            for idx in stage_set:
                i1, i2 = wit[int(idx)]
                if i1 not in prev or i2 not in prev:
                    return False
                if _point_dist(inst, int(idx), i1) > r + 1e-12:
                    return False
                if _point_dist(inst, int(idx), i2) > r + 1e-12:
                    return False
                if _image_dist(inst, i1, i2) < self.epsilon - 1e-12:
                    return False
        return True


def _point_dist(inst: RankInstance, i: int, j: int) -> float:
    d = 0.0
    if inst.words is not None:
        diff = inst.words[i] != inst.words[j]
        if diff.any():
            # split kind refines balls to full-window cylinders: any word
            # difference separates at unit scale
            d = 1.0 if inst.kind == "split" else float(inst.weights[diff].max())
    if inst.positions is not None:
        b = abs(float(inst.positions[i] - inst.positions[j]))
        if inst.kind in ("split", "circle"):
            b = min(b, 1.0 - b)
        d = max(d, b)
    return d


def _image_dist(inst: RankInstance, i: int, j: int) -> float:
    # cast first: the split kind stores 0/1 words as uint8, where 0 - 1 wraps
    diff = inst.img_words[i].astype(np.float64) - inst.img_words[j]
    cols = np.abs(diff) * inst.weights
    d = float(cols.max()) if cols.size else 0.0
    if inst.img_positions is not None:
        b = abs(float(inst.img_positions[i] - inst.img_positions[j]))
        d = max(d, min(b, 1.0 - b))
    return d


def default_schedule(inst: RankInstance, epsilon: float) -> tuple[float, ...]:
    """Stage one at a detection scale tied to epsilon, later stages below the
    sample separation gap (the finite image of shrinking neighborhoods).

    A sparse sample's half gap can reach epsilon / 8; the later stages then
    start at epsilon / 16, so the schedule still decreases."""
    g = inst.separation_gap()
    s = g / 2.0 if g / 2.0 < epsilon / 8.0 else epsilon / 16.0
    return (epsilon / 8.0, s, s / 4.0)


def beta_rank(
    p: ApproxElement | RankInstance,
    epsilon: float,
    r_schedule: Sequence[float] | None = None,
    raise_on_unstable: bool = True,
) -> RankTrace:
    """Oscillation rank of the element on its sample.

    Runs the derivative iteration, at most ``STAGE_BUDGET`` stages, once per
    rerun scale in ``RERUN_SCALES`` (the schedule scaled down); the result is
    stabilized when all runs agree on the terminal index.  Only the main run
    (scale 1) keeps its stages and witnesses.  A rerun finds its rank alone,
    and measures its stage one only at the main run's stage-one survivors,
    the only points that can survive it (``_rerun_beta``); when there are
    none, every rerun has rank 1 and calls no kernel.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    inst = p if isinstance(p, RankInstance) else build_instance(p)
    base_schedule = tuple(r_schedule) if r_schedule is not None else default_schedule(inst, epsilon)
    if any(b >= a for a, b in zip(base_schedule, base_schedule[1:])):
        raise ValueError("resolution schedule must be strictly decreasing")

    active = np.arange(len(inst.points), dtype=np.int64)
    main = RankTrace(epsilon, base_schedule, [active], [], None)
    for depth in range(STAGE_BUDGET):
        r = base_schedule[min(depth, len(base_schedule) - 1)]
        active, wit = _stage(inst, active, r, epsilon)
        main.stages.append(active)
        main.witnesses.append(wit)
        if active.size == 0:
            main.beta = depth + 1
            break
    first = np.zeros(len(inst.points), dtype=bool)
    first[main.stages[1]] = True
    estimates = [main.beta] + [_rerun_beta(inst, tuple(r * scale for r in base_schedule),
                                           epsilon, first) for scale in RERUN_SCALES[1:]]
    main.stabilized = len(set(estimates)) == 1
    if not main.stabilized and raise_on_unstable:
        raise NotStabilizedAcrossResolutions(
            f"rank estimates {estimates} across rerun scales {RERUN_SCALES}",
            estimates=estimates,
        )
    return main


def _rerun_beta(inst: RankInstance, schedule: tuple[float, ...], epsilon: float,
                first: np.ndarray) -> int | None:
    """The rank of a rerun at a scaled-down schedule, with no witnesses.

    Stage one measures only the points of ``first``, the main run's stage
    one.  Both stages start from the whole sample, so they share cylinders
    and unwrapped image columns, and each ball of the smaller radius lies in
    that of the larger (fl(v - r s) >= fl(v - r), fewer copies near the cut,
    finer prefix cylinders), where no spread is wider and no varying bit
    lower.  Later stages start from other active sets and run in full."""
    if not first.any():
        return 1
    active = np.arange(len(inst.points), dtype=np.int64)
    for depth in range(STAGE_BUDGET):
        r = schedule[min(depth, len(schedule) - 1)]
        active = _stage(inst, active, r, epsilon, first if depth == 0 else None, False)[0]
        if active.size == 0:
            return depth + 1
    return None


class SystemRank:
    __slots__ = ("beta", "witness", "traces")

    def __init__(self, beta: int | None, witness: str, traces: dict[str, RankTrace]):
        self.beta = beta
        self.witness = witness
        self.traces = traces


def system_rank(elements: dict[str, ApproxElement | RankInstance], epsilon: float) -> SystemRank:
    """Supremum of the element ranks over a named family."""
    traces = {}
    best_name, best = None, 0
    for name, el in elements.items():
        t = beta_rank(el, epsilon)
        traces[name] = t
        key = math.inf if t.beta is None else t.beta
        if key > best or best_name is None:
            best, best_name = key, name
    beta = None if best is math.inf else int(best)
    return SystemRank(beta, best_name, traces)
