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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels as K
from .errors import NotStabilizedAcrossResolutions
from .envelope import ApproxElement, CircleMetric, CodingMetric
from .exactarith import PointSequence
from .systems import RotationSystem, SplitCircleSystem


@dataclass
class RankInstance:
    """Arrays backing the rank computation for one sampled element.

    Every kind shares one derivative stage: a ball is a cylinder of equal
    ``words`` key columns cut down to a window of ``positions``.
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
    """

    kind: str
    points: Sequence
    words: np.ndarray | None  # (n, W) point words (split/prefix kinds; uint8 for split)
    img_words: np.ndarray  # (n, W) image descriptor columns, weighted by `weights`
    weights: np.ndarray  # (W,)
    positions: np.ndarray | None = None  # (n,) base or value positions
    img_positions: np.ndarray | None = None  # (n,) image circle positions (split/circle)

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


def _positions(points) -> np.ndarray:
    """Circle positions (split points: of their bases), read off a point
    array or, for a list, computed point by point."""
    if isinstance(points, PointSequence):
        return points.positions
    return np.array([getattr(x, "base", x).as_float() for x in points])


def split_instance(p: ApproxElement) -> RankInstance:
    metric: CodingMetric = p.sample.metric
    pts, imgs = p.sample.points, p.images
    h = metric.horizon
    pos, img_pos = _positions(pts), _positions(imgs)
    words = metric.words(pts, pos)
    img_words = metric.words(imgs, img_pos)
    weights = 2.0 ** -np.abs(np.arange(-h, h + 1, dtype=np.float64))
    return RankInstance("split", pts, words, img_words, weights, pos, img_pos)


def circle_instance(p: ApproxElement) -> RankInstance:
    pts = p.sample.points
    pos, img = _positions(pts), _positions(p.images)
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


def _unwrap_circular(vals: np.ndarray) -> np.ndarray:
    """Re-anchor image positions at the largest gap so a short arc of images
    becomes a plain interval (the minus point of a split pair has base 0 but
    lives at the top of its cell, so raw positions can straddle the 0/1 cut)."""
    if vals.size <= 1:
        return np.zeros_like(vals)
    order = np.argsort(vals)
    sp = vals[order]
    gaps = np.diff(sp)
    wrap = 1.0 - (sp[-1] - sp[0])
    if gaps.size and float(gaps.max()) > wrap:
        cut = sp[int(gaps.argmax()) + 1]
    else:
        cut = sp[0]
    return (vals - cut) % 1.0


def _group_rows(keys: np.ndarray, members: np.ndarray) -> list[np.ndarray]:
    """Split ``members`` by equal rows of ``keys``: groups in ascending
    lexicographic key order (the order of ``np.unique(keys, axis=0)``), each
    group's members in their original order (the sort is stable)."""
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    cuts = np.nonzero((sk[1:] != sk[:-1]).any(axis=1))[0] + 1
    return np.split(members[order], cuts)


def _stage(inst: RankInstance, active: np.ndarray, radius: float, eps: float):
    """Indices of the active points surviving one epsilon-derivative at the
    given resolution, plus their witness pairs.

    A ball is a cylinder (equal key columns) intersected with a window of
    positions, so each cylinder group is sorted once and measured by one
    window-oscillation call.
    """
    if inst.kind == "split":
        # full-window cylinder key: the base distance supplies the radius,
        # and full word agreement stops beyond-horizon coordinates from
        # leaking fake oscillation into shifted images (valid for shifts
        # up to horizon - log2(1/eps))
        keys = inst.words[active]
    elif inst.kind == "prefix":
        keys = inst.words[active][:, inst.weights > radius]
    elif inst.kind in ("circle", "value"):
        keys = None
    else:
        raise ValueError(f"unknown instance kind {inst.kind!r}")
    groups = [active] if keys is None or keys.shape[1] == 0 else _group_rows(keys, active)
    survivors: list[int] = []
    witness: dict[int, tuple[int, int]] = {}
    for members in groups:
        if members.size < 2:
            continue
        # prefix balls are whole cylinders: one position for every member
        pos = np.zeros(members.size) if inst.kind == "prefix" else inst.positions[members]
        rows = np.arange(members.size)
        if inst.kind in ("split", "circle"):
            # circle positions: copy the members within the radius of the cut
            # one turn over, so every window sees its arc neighbours
            up = np.nonzero(pos <= radius)[0]
            down = np.nonzero(pos >= 1.0 - radius)[0]
            rows = np.concatenate([rows, up, down])
            pos = np.concatenate([pos, pos[up] + 1.0, pos[down] - 1.0])
        order = np.argsort(pos, kind="stable")
        base, rows = pos[order], rows[order]
        points = members[rows]
        cols = inst.img_words[points] * inst.weights
        if inst.kind == "split":
            ib = _unwrap_circular(inst.img_positions[members])
            if float(ib.max() - ib.min()) > 0.5:
                raise ValueError("image arc exceeds a half circle; osc undefined here")
            cols = np.concatenate([cols, ib[rows, None]], axis=1)
        osc = K.window_oscillation(base, radius, cols, np.ones(cols.shape[1]))
        # only a point's own copy can survive
        for j in np.nonzero((order < members.size) & (osc >= eps))[0]:
            idx = int(points[j])
            survivors.append(idx)
            witness[idx] = _window_witness(points, base, cols, j, radius)
    return np.array(sorted(survivors), dtype=np.int64), witness


def _window_witness(members, base, img_cols, j, radius):
    lo = int(np.searchsorted(base, base[j] - radius, side="left"))
    hi = int(np.searchsorted(base, base[j] + radius, side="right"))
    block = img_cols[lo:hi]
    spread = block.max(axis=0) - block.min(axis=0)
    mcol = int(spread.argmax())
    i1 = int(members[lo + block[:, mcol].argmax()])
    i2 = int(members[lo + block[:, mcol].argmin()])
    return (i1, i2)


# ---------------------------------------------------------------------------
# the rank iteration
# ---------------------------------------------------------------------------

STAGE_BUDGET = 8  # derivative stages before the budget flag (beta None)
RERUN_SCALES = (1.0, 0.5, 0.25)  # schedule scales whose ranks must agree


@dataclass
class RankTrace:
    epsilon: float
    schedule: tuple[float, ...]
    stages: list[np.ndarray]  # A^0 superset A^1 superset ...
    witnesses: list[dict[int, tuple[int, int]]]
    beta: int | None  # least stage index with empty set; None = budget flag
    stabilized: bool = True

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
    sample separation gap (the finite image of shrinking neighborhoods)."""
    g = inst.separation_gap()
    return (epsilon / 8.0, g / 2.0, g / 8.0)


def beta_rank(
    p: ApproxElement | RankInstance,
    epsilon: float,
    r_schedule: Sequence[float] | None = None,
    raise_on_unstable: bool = True,
) -> RankTrace:
    """Oscillation rank of the element on its sample.

    Runs the derivative iteration, at most ``STAGE_BUDGET`` stages, once per
    rerun scale in ``RERUN_SCALES`` (the schedule scaled down); the result is
    stabilized when all runs agree on the terminal index.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    inst = p if isinstance(p, RankInstance) else build_instance(p)
    base_schedule = tuple(r_schedule) if r_schedule is not None else default_schedule(inst, epsilon)
    if any(b >= a for a, b in zip(base_schedule, base_schedule[1:])):
        raise ValueError("resolution schedule must be strictly decreasing")

    traces = []
    for scale in RERUN_SCALES:
        schedule = tuple(r * scale for r in base_schedule)
        active = np.arange(len(inst.points), dtype=np.int64)
        stages = [active]
        wits = []
        beta = None
        for depth in range(STAGE_BUDGET):
            r = schedule[min(depth, len(schedule) - 1)]
            active, wit = _stage(inst, active, r, epsilon)
            stages.append(active)
            wits.append(wit)
            if active.size == 0:
                beta = depth + 1
                break
        traces.append(RankTrace(epsilon, schedule, stages, wits, beta))
    estimates = [t.beta for t in traces]
    stable = len(set(estimates)) == 1
    main = traces[0]
    main.stabilized = stable
    if not stable and raise_on_unstable:
        raise NotStabilizedAcrossResolutions(
            f"rank estimates {estimates} across rerun scales {RERUN_SCALES}",
            estimates=estimates,
        )
    return main


def oscillation(p: ApproxElement, x, pool: Sequence, radius: float) -> float:
    """Direct finite-scale oscillation of p at x over the pool (brute force)."""
    metric = p.sample.metric
    ball = [y for y in pool if metric(x, y) <= radius]
    best = 0.0
    for i, y in enumerate(ball):
        for z in ball[i + 1 :]:
            d = metric(p.image_of(y), p.image_of(z))
            if d > best:
                best = d
    return best


def naive_beta_rank(inst: RankInstance, epsilon: float, schedule: Sequence[float]):
    """Brute-force oracle: direct pairwise recomputation of every stage."""
    n = len(inst.points)
    active = list(range(n))
    stages = [list(active)]
    beta = None
    for depth in range(STAGE_BUDGET):
        r = schedule[min(depth, len(schedule) - 1)]
        nxt = []
        for x in active:
            ball = [y for y in active if _point_dist(inst, x, y) <= r]
            osc = 0.0
            for a in range(len(ball)):
                for b in range(a + 1, len(ball)):
                    osc = max(osc, _image_dist(inst, ball[a], ball[b]))
            if osc >= epsilon:
                nxt.append(x)
        active = nxt
        stages.append(list(active))
        if not active:
            beta = depth + 1
            break
    return beta, stages


@dataclass
class SystemRank:
    beta: int | None
    witness: str
    traces: dict[str, RankTrace]


def system_rank(
    elements: dict[str, ApproxElement | RankInstance],
    epsilon: float,
    r_schedule: Sequence[float] | None = None,
) -> SystemRank:
    """Supremum of the element ranks over a named family."""
    traces = {}
    best_name, best = None, 0
    for name, el in elements.items():
        t = beta_rank(el, epsilon, r_schedule=r_schedule)
        traces[name] = t
        key = math.inf if t.beta is None else t.beta
        if key > best or best_name is None:
            best, best_name = key, name
    beta = None if best is math.inf else int(best)
    return SystemRank(beta, best_name, traces)
