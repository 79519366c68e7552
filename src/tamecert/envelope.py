"""Finite-horizon enveloping-semigroup elements and their certificates.

Elements are approximated on finite sample sets: exactly, when the system
exposes a closed-form limit rule for the generator (split-circle one-sided
limits, plain rotations, the upper-region cos limits), or numerically by a
declared stabilization contract (two consecutive generator stages within the
tolerance at every sample point).  On top of the elements sit the
certificates: determining sets, no-countable-basis witnesses, Sorgenfrey
isolation rectangles and rigidity probes.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import NotInIdeal, NotStabilized, SampleMismatch
from .exactarith import (ApproachSequence, CirclePoint, PointArray, PointSequence,
                         one_sided_approach, orbit_point)
from .order import circular_counterexample
from .systems import (
    MINUS,
    PLAIN,
    PLUS,
    CosFiber,
    CosPointT,
    CosRegular,
    CosSystem,
    RotationSystem,
    SplitArray,
    SplitCircleSystem,
    SplitPoint,
)

# ---------------------------------------------------------------------------
# samples and metrics
# ---------------------------------------------------------------------------


# Float distance to a cut within which the float order is not trusted:
# CodingMetric.words takes the exact walk there, sorgenfrey_isolation the
# exact compare.  Positions are CirclePoint.as_float values (point arrays
# compute them by a certified screen, bitwise equal); coding cuts call
# as_float and the isolation cut is float(eps).  as_float rounds the midpoint
# of a certified enclosure of width 1e-22, so it is within 1e-22/2 plus half
# an ulp (2^-54 on [0, 1)) of the true value; point and cut errors together
# stay below 1.2e-16, far under the margin, so a point beyond it lies
# strictly on the side of the cut its float places it on.  An isolation
# offset, the difference of two positions taken mod 1, adds two roundings
# (below 2.5e-16 in all): beyond the margin from eps and from the 0/1 wrap,
# its float decides it, and its arc window, widened by the margin, holds it.
_CUT_MARGIN = 1e-12
_PAIR_BLOCK = 8192  # candidate pairs per sorgenfrey_isolation step (or one member's window)


class CodingMetric:
    """Split-circle sample metric: weighted sup over truncated coding words,
    refined by the base arc distance.

    The word part alone is only a pseudometric at a finite horizon (points in
    one cylinder coincide), and the base part alone carries the unsplit
    topology; their maximum is a genuine metric, faithful to the split
    structure at scales above the truncation."""

    def __init__(self, system: SplitCircleSystem, horizon: int = 8):
        self.system = system
        self.horizon = horizon
        self._words: dict[SplitPoint, np.ndarray] = {}

    def word(self, x: SplitPoint) -> np.ndarray:
        w = self._words.get(x)
        if w is None:
            w = self.system.coding_word(x, -self.horizon, self.horizon)
            self._words[x] = w
        return w

    def words(self, points: Sequence[SplitPoint], positions: np.ndarray) -> np.ndarray:
        """The words of ``points`` (base floats ``positions``) as an (n, 2h+1)
        uint8 matrix, one exact walk per cell of the coding partition.

        Over [-h, h] the word of x depends only on the cell of x in the circle
        cut at lo - n*alpha and hi - n*alpha, |n| <= h (the arc endpoints).  A
        point within ``_CUT_MARGIN`` of a cut, which includes every point that
        sits on one, takes the exact side-aware walk; every other point copies
        the word of the first point found strictly inside its cell."""
        h = self.horizon
        if h < 0:
            raise ValueError("empty coding window")
        lo, hi = self.system.arc
        cuts = np.sort([end.base.translate(-n).as_float()
                        for end in (lo, hi) for n in range(-h, h + 1)])
        m = len(cuts)
        pos = np.asarray(positions, dtype=np.float64)
        right = np.searchsorted(cuts, pos, side="right")
        cell = right % m  # the cell before the first cut and the cell after the last are one
        left_cut = np.where(right > 0, cuts[right - 1], cuts[-1] - 1.0)
        right_cut = np.where(right < m, cuts[cell], cuts[0] + 1.0)
        near = np.minimum(pos - left_cut, right_cut - pos) <= _CUT_MARGIN
        far = np.flatnonzero(~near)
        cells, first = np.unique(cell[far], return_index=True)
        table = np.zeros((m, 2 * h + 1), dtype=np.uint8)
        for c, i in zip(cells, far[first]):
            table[c] = self.word(points[i])
        out = table[cell]
        for i in np.flatnonzero(near):
            out[i] = self.word(points[i])
        return out

    def __call__(self, x: SplitPoint, y: SplitPoint) -> float:
        base = abs(x.base.as_float() - y.base.as_float())
        best = min(base, 1.0 - base) if x.base != y.base else 0.0
        diff = np.flatnonzero(self.word(x) != self.word(y))
        if diff.size:
            best = max(best, 2.0 ** -int(np.abs(diff - self.horizon).min()))
        return best


class CircleMetric:
    """Arc-length distance on plain circle points."""

    def __call__(self, x: CirclePoint, y: CirclePoint) -> float:
        d = abs(x.as_float() - y.as_float())
        return min(d, 1.0 - d)


class SampleSet:
    """A finite stand-in for the phase space: points plus a metric.

    ``points`` is a list, or a point array (PointArray, SplitArray) whose
    objects are built only when read."""

    def __init__(self, points: Sequence, metric: Callable[[Any, Any], float]):
        if not points:
            raise ValueError("sample must be nonempty")
        self.points = points
        self.metric = metric

    def __len__(self):
        return len(self.points)

    @cached_property
    def index(self) -> dict:
        """Point -> position in ``points``, built on the first lookup and shared
        by every element sampled on this set."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def point_words(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The coding words of ``points`` (``CodingMetric.words``) and their
        ``word_order``, built on first use and shared by every element
        sampled on this set."""
        words = self.metric.words(self.points, positions(self.points))
        return words, word_order(words)


def positions(points) -> np.ndarray:
    """Circle positions (split points: of their bases), read off a point
    array or, for a list, computed point by point."""
    if isinstance(points, PointSequence):
        return points.positions
    return np.array([getattr(x, "base", x).as_float() for x in points])


def word_order(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``words`` in lexicographic order (stable), and for each
    sorted row after the first the first column where it differs from the
    row before (the word width where it equals it), in the narrowest integer
    types: the result is cached as long as its words."""
    order = np.lexsort(words.T[::-1])
    diff = words[order[1:]] != words[order[:-1]]
    first_diff = np.where(diff.any(axis=1), diff.argmax(axis=1), words.shape[1])
    return (order.astype(np.min_scalar_type(words.shape[0])),
            first_diff.astype(np.min_scalar_type(words.shape[1])))


def split_sample(
    system: SplitCircleSystem,
    plain_count: int = 120,
    split_range: int = 12,
    horizon: int = 8,
    extra_bases: Sequence[CirclePoint] = (),
) -> SampleSet:
    """Plain rationals k/denominator plus split pairs over the orbit window,
    as a SplitArray.

    ``extra_bases`` admits designated base points (e.g. preimages of split
    points under a one-sided limit under study, so its side tag shows up on
    the sample images).  Should one lie outside the point-array range, the
    sample is a list of points.
    """
    k = np.arange(1, plain_count + 1, dtype=np.int64)
    plain = _grid(system, 0 * k, k, 0 * k + (plain_count + 1))
    n = np.arange(-split_range, split_range + 1, dtype=np.int64)
    orbit = _grid(system, n, 0 * n, 0 * n + 1)
    plain = plain.take(np.flatnonzero(~system.split_mask(plain)))
    orbit = orbit.take(np.repeat(np.flatnonzero(system.split_mask(orbit)), 2))
    sides = np.concatenate([np.full(len(plain), PLAIN), np.tile([MINUS, PLUS], len(orbit) // 2)])
    pts = SplitArray(PointArray.concat([plain, orbit]), sides)
    extra = [x for base in extra_bases for x in system.split_fiber(base) if not pts.contains(x)]
    if extra:
        extra = list(dict.fromkeys(extra))
        more = SplitArray.of(system.alpha, extra)
        pts = list(pts) + extra if more is None else SplitArray.concat([pts, more])
    return SampleSet(pts, CodingMetric(system, horizon))


def limit_sample(system, target: CirclePoint, plain_count: int, split_range: int,
                 horizon: int = 8) -> SampleSet:
    """The sample of a limit aimed at ``target``: on a split circle,
    ``split_sample`` with the split fibers over -target + k*alpha, |k| <= 3,
    whose images carry the limit's side tag; else ``rotation_sample``."""
    if not isinstance(system, SplitCircleSystem):
        return rotation_sample(system, plain_count)
    base = -target
    return split_sample(system, plain_count, split_range, horizon,
                        [base.translate(k) for k in range(-3, 4)])


def rotation_sample(system: RotationSystem, count: int = 120) -> SampleSet:
    """The rationals k/(count+1), k = 0..count, as a PointArray."""
    k = np.arange(count + 1, dtype=np.int64)
    return SampleSet(_grid(system, 0 * k, k, 0 * k + (count + 1)), CircleMetric())


def _grid(system, a, num, den) -> PointArray:
    pts = PointArray.build(system.alpha, a, num, den)
    if pts is None:
        raise ValueError("sample grid outside the point-array range")
    return pts


def cos_sample(
    system: CosSystem,
    orbit_range: int = 8,
    fiber_values: Sequence[float] = (2.0, -1.0, -0.5, 0.0, 0.5, 1.0),
    regular_denoms: Sequence[int] = (7, 11, 13),
) -> SampleSet:
    pts: list[CosPointT] = []
    for k in range(-orbit_range, orbit_range + 1):
        for v in fiber_values:
            pts.append(CosFiber(k, v))
    for d in regular_denoms:
        pts.append(CosRegular(CirclePoint(system.alpha, 0, Fraction(1, d))))
    return SampleSet(pts, lambda x, y: system.metric(x, y))


# ---------------------------------------------------------------------------
# approximated elements
# ---------------------------------------------------------------------------


class ElementClass:
    __slots__ = ("tag", "params")

    def __init__(self, tag: str, params: dict):
        self.tag = tag  # translation | rotation | parabolic | loxodromic | one_sided | unresolved
        self.params = params

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.tag}({inner})"


class CosElement:
    """Exact image rule v_eps g_gamma of the cos-system minimal ideal."""

    __slots__ = ("eps", "gamma")

    def __init__(self, eps: float, gamma: CirclePoint):
        self.eps = eps
        self.gamma = gamma

    def apply(self, system: CosSystem, x: CosPointT) -> CosPointT:
        nb = system.base(x) + self.gamma
        if nb.on_orbit:
            return CosFiber(nb.orbit_index, self.eps)
        return CosRegular(nb)


class ApproxElement:
    """A sampled enveloping-semigroup element with provenance.

    ``images[i]`` is the image of ``sample.points[i]``; the images of a
    closed-form rule on a point-array sample form a point array too.
    Exact-backend elements also carry ``rule``, a closed-form image map
    usable off-sample.  Every element has settled: ``limit_map`` raises
    ``NotStabilized`` instead of returning one that has not.
    """

    __slots__ = ("system", "sample", "images", "generator", "backend", "tolerance", "rule")

    def __init__(self, system: Any, sample: SampleSet, images: Sequence, generator: Any,
                 backend: str, tolerance: float | None,
                 rule: Callable[[Any], Any] | None = None):
        self.system = system
        self.sample = sample
        self.images = images
        self.generator = generator  # ApproachSequence | tuple of times
        self.backend = backend  # 'exact' | 'numeric'
        self.tolerance = tolerance
        self.rule = rule

    def image_of(self, x):
        i = self.sample.index.get(x)
        if i is not None:
            return self.images[i]
        if self.rule is not None:
            return self.rule(x)
        raise SampleMismatch(f"{x!r} outside the sampled domain and no exact rule")

    def times(self) -> tuple[int, ...]:
        if isinstance(self.generator, ApproachSequence):
            return tuple(self.generator.times)
        return tuple(self.generator)


class _Shift:
    """The closed-form image x -> x + gamma of a circle element.  On a split
    circle the image keeps the side of x (``tag`` None: the translation by an
    orbit point) or carries ``tag`` wherever its base splits (a one-sided
    limit)."""

    __slots__ = ("system", "gamma", "tag")

    def __init__(self, system: Any, gamma: CirclePoint, tag: int | None = None):
        self.system = system
        self.gamma = gamma
        self.tag = tag

    def __call__(self, x):
        if not isinstance(x, SplitPoint):
            return x + self.gamma
        nb = x.base + self.gamma
        if self.tag is None:
            return SplitPoint(nb, x.side)
        return SplitPoint(nb, self.tag if self.system.splits(nb) else PLAIN)

    def images(self, points: Sequence) -> Sequence:
        """The images of ``points``: an array for a point array whose images
        stay in the array range, else a list built point by point."""
        if isinstance(points, PointArray):
            out = points.shift(self.gamma)
        elif isinstance(points, SplitArray):
            out = points.base.shift(self.gamma)
            if out is not None:
                side = points.side if self.tag is None else np.where(
                    self.system.split_mask(out), self.tag, PLAIN)
                out = SplitArray(out, side)
        else:
            out = None
        return [self(x) for x in points] if out is None else out


def _images(rule, points: Sequence) -> Sequence:
    """The images of ``points`` under a closed-form rule."""
    return rule.images(points) if isinstance(rule, _Shift) else [rule(x) for x in points]


def _ideal_rule(system, epsilon, gamma: CirclePoint):
    """The image map of the minimal-ideal element epsilon * gamma: x + gamma
    tagged 'minus' or 'plus' where its base splits, or the cos rule v_eps g_gamma."""
    if isinstance(system, SplitCircleSystem):
        return _Shift(system, gamma, MINUS if epsilon == "minus" else PLUS)
    if isinstance(system, CosSystem):
        el = CosElement(float(epsilon), gamma)
        return lambda x: el.apply(system, x)
    raise TypeError("no minimal-ideal rule for this system")


def _exact_rule(system, approach: ApproachSequence):
    """Closed-form limit rule for the generator, when the system has one."""
    gamma, side = approach.target, approach.side
    if isinstance(system, SplitCircleSystem):
        return _ideal_rule(system, "minus" if side == "below" else "plus", gamma)
    if isinstance(system, RotationSystem):
        return _Shift(system, gamma)
    if isinstance(system, CosSystem) and side == "below":
        # approach through [1/2, 1): the sampled values 2*{h} converge to 2
        return _ideal_rule(system, 2.0, gamma)
    return None


def limit_map(
    system,
    generator,
    sample: SampleSet,
    tolerance: float = 1e-9,
    max_stages: int = 64,
) -> ApproxElement:
    """Limit of T^{n_i} on the sample along the generator times.

    Exact backend whenever the generator is an approach sequence for which
    the system has a closed-form limit rule, or a single time; otherwise
    numeric stabilization: the images of two consecutive stages must agree
    within the tolerance at every sample point, else NotStabilized.
    """
    approach = isinstance(generator, ApproachSequence)
    rule = _exact_rule(system, generator) if approach else None
    times = list(generator.times if approach else generator)
    if rule is None:
        if not times:
            raise ValueError("empty generator")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("generator times must be monotone")
        times = times[:max_stages]
        if len(times) == 1 and isinstance(system, (SplitCircleSystem, RotationSystem)):
            rule = _Shift(system, orbit_point(system.alpha, times[0]))
        elif len(times) == 1:
            rule = lambda x, n=times[0]: system.step(x, n)  # noqa: E731
    if rule is not None:
        images = _images(rule, sample.points)
        if isinstance(system, SplitCircleSystem) and not _tags_split(system, images):
            raise ValueError("an exact split image carries a side tag off the split set "
                             "(or none on it): the split set is not invariant")
        return ApproxElement(system, sample, images, generator, "exact", None, rule=rule)
    prev = [system.step(x, times[0]) for x in sample.points]
    last_delta = None
    for stage in range(1, len(times)):
        cur = [system.step(x, times[stage]) for x in sample.points]
        last_delta = max(sample.metric(a, b) for a, b in zip(prev, cur))
        if last_delta <= tolerance:
            return ApproxElement(system, sample, cur, generator, "numeric", tolerance)
        prev = cur
    raise NotStabilized(
        f"images still moving by {last_delta} after {len(times)} stages",
        stages=len(times),
        last_delta=last_delta,
    )


def _tags_split(system: SplitCircleSystem, points: Sequence[SplitPoint]) -> bool:
    """Whether every point carries a side tag exactly when its base splits."""
    if isinstance(points, SplitArray):
        return bool(np.array_equal(points.side != PLAIN, system.split_mask(points.base)))
    return all((x.side != PLAIN) == system.splits(x.base) for x in points)


def cos_target_times(
    alpha, t: float, stage_scales: Sequence[int] = (1_000_000, 2_000_000, 4_000_000)
) -> list[int]:
    """Times n with {n*alpha} -> 0 through (0, 1/2) and cos-sample value -> t.

    Stage j lands {n*alpha} next to 1/(m_j + c) with c = arccos(t)/2pi, where
    the sampling value equals t exactly; the certified approach bound keeps
    the value error far below 1e-3.  The default scales push the base shift
    below the modulus of continuity of the sampled coordinates, so the
    numeric stabilization contract can close at tolerances around 1e-2.
    """
    import math

    if not -1.0 <= t <= 1.0:
        raise ValueError("target value must lie in [-1, 1]")
    c = math.acos(max(-1.0, min(1.0, t))) / (2.0 * math.pi)
    times: list[int] = []
    prev = 0
    for m in stage_scales:
        r = Fraction(1.0 / (m + c)).limit_denominator(10**15)
        need = Fraction(1, int(2.0e4 * (m + c) ** 2) * 10**2)
        depth = 12
        while True:
            seq = one_sided_approach(CirclePoint(alpha, 0, r), "above", depth)
            if seq.error_bounds[-1] <= need and seq.times[-1] > prev:
                break
            depth += 8
        times.append(seq.times[-1])
        prev = times[-1]
    return times


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _base_side(x) -> tuple[CirclePoint, int]:
    """The base point and side of a split point; a rotation point is plain."""
    return (x.base, x.side) if isinstance(x, SplitPoint) else (x, PLAIN)


def classify(p: ApproxElement) -> ElementClass:
    """Coarse catalog position of an element on its sample."""
    pts, imgs = p.sample.points, p.images

    from collections import Counter

    counts = Counter(imgs)
    if len(counts) == 1:
        return ElementClass("parabolic", {"target": imgs[0]})
    if len(counts) == 2:
        (common, _), (rare, n_rare) = counts.most_common()
        if n_rare == 1:
            i = imgs.index(rare)
            if rare == pts[i]:
                return ElementClass("loxodromic", {"attracting": common, "repulsing": pts[i]})

    if isinstance(p.system, (SplitCircleSystem, RotationSystem)):
        # every image is its point shifted by one gamma: a translation when gamma
        # is an orbit point and every side is kept, a rotation by an off-orbit
        # gamma on a rotation system, a one-sided limit when the images carry
        # one side tag (rotation points are all plain)
        base, side = zip(*map(_base_side, pts))
        moved, moved_side = zip(*map(_base_side, imgs))
        gamma = moved[0] - base[0]
        if all(c - b == gamma for b, c in zip(base, moved)):
            if gamma.on_orbit and side == moved_side:
                return ElementClass("translation", {"n": gamma.orbit_index})
            if isinstance(p.system, RotationSystem):
                return ElementClass("rotation", {"gamma": gamma})
            tags = set(moved_side) - {PLAIN}
            if len(tags) == 1:
                tag = "minus" if tags.pop() == MINUS else "plus"
                return ElementClass("one_sided", {"gamma": gamma, "side": tag})
    return ElementClass("unresolved", {})


# ---------------------------------------------------------------------------
# composition and minimal-ideal decomposition
# ---------------------------------------------------------------------------


def compose(p: ApproxElement, q: ApproxElement) -> ApproxElement:
    """Pointwise composition p after q with concatenated provenance."""
    if p.sample is not q.sample and p.sample.points != q.sample.points:
        raise SampleMismatch("elements sampled on different sets")
    images = [p.image_of(q.image_of(x)) for x in q.sample.points]
    rule = None
    if p.rule is not None and q.rule is not None:
        prule, qrule = p.rule, q.rule
        rule = lambda x: prule(qrule(x))  # noqa: E731
    backend = "exact" if (p.backend == "exact" and q.backend == "exact") else "numeric"
    tol = max(filter(None, [p.tolerance, q.tolerance]), default=None)
    return ApproxElement(
        system=p.system,
        sample=q.sample,
        images=images,
        generator=("compose", tuple(p.times()), tuple(q.times())),
        backend=backend,
        tolerance=tol,
        rule=rule,
    )


class IdealDecomposition:
    """p = (idempotent coordinate) * (group coordinate) in the minimal ideal."""

    __slots__ = ("epsilon", "gamma")

    def __init__(self, epsilon: Any, gamma: CirclePoint):
        self.epsilon = epsilon  # 'minus' | 'plus' for split systems; 2.0 or t in [-1,1] for cos
        self.gamma = gamma

    def recompose(self, system, sample: SampleSet) -> Sequence:
        """The images of the sample under epsilon * gamma."""
        return _images(_ideal_rule(system, self.epsilon, self.gamma), sample.points)


def decompose_minimal(p: ApproxElement, system=None, gamma: CirclePoint | None = None) -> IdealDecomposition:
    """Split a non-translation limit element into idempotent x group parts."""
    system = system or p.system
    if isinstance(system, SplitCircleSystem):
        cls = classify(p)
        if cls.tag == "translation":
            raise NotInIdeal("translations decompose trivially; not in the minimal ideal")
        if cls.tag != "one_sided":
            raise ValueError(f"cannot decompose element classified as {cls.tag}")
        return IdealDecomposition(cls.params["side"], cls.params["gamma"])
    if isinstance(system, CosSystem):
        if gamma is None:
            if isinstance(p.generator, ApproachSequence):
                gamma = p.generator.target
            else:
                raise ValueError("cos decomposition needs a target or approach provenance")
        eps_vals = []
        for x, im in zip(p.sample.points, p.images):
            shifted = system.base(x) + gamma
            if shifted.on_orbit:
                # the idempotent coordinate sits at the defect position of the
                # limit fiber point over shifted = k*alpha
                eps_vals.append(system.coordinate(im, -shifted.orbit_index))
        if not eps_vals:
            raise NotInIdeal("no sampled point lands over the orbit; cannot read the idempotent")
        spread = max(eps_vals) - min(eps_vals)
        if spread > max((p.tolerance or 0.0) * 2, 1e-9):
            raise ValueError(f"inconsistent idempotent coordinates (spread {spread})")
        return IdealDecomposition(eps_vals[0], gamma)
    raise TypeError("no decomposition rule for this system")


# ---------------------------------------------------------------------------
# determining sets
# ---------------------------------------------------------------------------


def _image(element, x):
    if isinstance(element, ApproxElement):
        return element.image_of(x)
    return element(x)


class DeterminingSet:
    __slots__ = ("points", "optimal", "gap")

    def __init__(self, points: tuple, optimal: bool, gap: int):
        self.points = points
        self.optimal = optimal
        self.gap = gap  # greedy size minus packing lower bound (0 when optimal)


def determining_set(
    family: Sequence, pool: Sequence, p, eq: Callable = operator.eq, exhaustive_limit: int = 20
) -> DeterminingSet:
    """Smallest pool subset on which no other family member matches p.

    Exhaustive below the size limit, greedy set cover with a reported
    optimality gap beyond it.  Precondition (validated): every other member
    disagrees with p somewhere on the pool.
    """
    others = [q for q in family if q is not p]
    disagree: list[set[int]] = []
    for q in others:
        ds = {i for i, c in enumerate(pool) if not eq(_image(q, c), _image(p, c))}
        if not ds:
            raise ValueError("family member indistinguishable from p on the pool")
        disagree.append(ds)
    if not others:
        return DeterminingSet((), True, 0)

    if len(pool) <= exhaustive_limit:
        for size in range(0, len(pool) + 1):
            for cand in itertools.combinations(range(len(pool)), size):
                chosen = set(cand)
                if all(ds & chosen for ds in disagree):
                    return DeterminingSet(tuple(pool[i] for i in cand), True, 0)
    # greedy cover
    uncovered = list(range(len(disagree)))
    chosen: list[int] = []
    while uncovered:
        counts: dict[int, int] = {}
        for qi in uncovered:
            for i in disagree[qi]:
                counts[i] = counts.get(i, 0) + 1
        best = min((i for i, c in counts.items() if c == max(counts.values())))
        chosen.append(best)
        uncovered = [qi for qi in uncovered if best not in disagree[qi]]
    # packing lower bound: greedily collect pairwise-disjoint disagree sets
    packed: list[set[int]] = []
    for ds in sorted(disagree, key=len):
        if all(not (ds & q) for q in packed):
            packed.append(ds)
    return DeterminingSet(tuple(pool[i] for i in sorted(chosen)), False, len(chosen) - len(packed))


def determining_growth(
    family: Sequence, pool: Sequence, p, sizes: Sequence[int], eq: Callable = operator.eq
) -> list[tuple[int, int]]:
    """|C| as the family grows through nested prefixes of the given sizes."""
    out = []
    for m in sizes:
        sub = list(family[:m])
        if p not in sub:
            sub.append(p)
        res = determining_set(sub, pool, p, eq=eq)
        out.append((m, len(res.points)))
    return out


# ---------------------------------------------------------------------------
# no-countable-basis witnesses
# ---------------------------------------------------------------------------


class BasisWitness:
    __slots__ = ("scenario", "witness", "agrees_on", "differs_at", "sound")

    def __init__(self, scenario: str, witness: Any, agrees_on: tuple, differs_at: Any, sound: bool):
        self.scenario = scenario
        self.witness = witness  # the element q
        self.agrees_on = agrees_on
        self.differs_at = differs_at
        self.sound = sound


def no_countable_basis_witness(excluded: Sequence, scenario: str) -> BasisWitness:
    """An element agreeing with the scenario's parabolic limit on all of
    ``excluded`` yet differing somewhere: the finite engine behind the
    non-first-countability arguments."""
    if scenario == "projective_p_infty":
        from .linear import PartialLinearMap, line_missing

        pts = [(Fraction(v[0]), Fraction(v[1])) for v in excluded]
        if any(x == 0 and y == 0 for x, y in pts):
            raise ValueError("excluded points must be nonzero")
        direction = line_missing(pts)
        q = PartialLinearMap.line_identity(direction)
        p_inf = lambda v: "inf" if any(v) else (Fraction(0), Fraction(0))  # noqa: E731
        agrees = all(q.apply(v) == "inf" == p_inf(v) for v in pts)
        differs = q.apply(direction) == direction != "inf"
        return BasisWitness(scenario, q, tuple(pts), direction, agrees and differs)
    if scenario == "circle_parabolic":
        pts = [Fraction(c) for c in excluded]
        den = math.lcm(*(c.denominator for c in pts))
        w = circular_counterexample([c.numerator * (den // c.denominator) for c in pts], den, 0)
        return BasisWitness(scenario, w.image_of, w.agrees_on, w.b, w.sound)
    raise ValueError(f"unknown scenario {scenario!r}")


# ---------------------------------------------------------------------------
# Sorgenfrey isolation
# ---------------------------------------------------------------------------


class IsolationReport:
    __slots__ = ("eps", "isolated", "conflicts", "all_isolated")

    def __init__(self, eps: Fraction, isolated: tuple[bool, ...], conflicts: tuple,
                 all_isolated: bool):
        self.eps = eps
        self.isolated = isolated
        # per member: None or the smallest other member index in its rectangle
        self.conflicts = conflicts
        self.all_isolated = all_isolated

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.eps, self.isolated, self.conflicts, self.all_isolated)
                    == (other.eps, other.isolated, other.conflicts, other.all_isolated))
        return NotImplemented

    def __hash__(self):
        return hash((self.eps, self.isolated, self.conflicts, self.all_isolated))


def sorgenfrey_isolation(members: Sequence, eps: Fraction = Fraction(1, 4)) -> IsolationReport:
    """Exact isolation check in products of one-sided (Sorgenfrey) circles.

    Each member is a tuple of (gamma, side) coordinates with side +1 for a
    right-half-open basic interval [gamma, gamma+eps) and -1 for the left
    version (gamma-eps, gamma].  A member is isolated when its product
    rectangle contains no other member; its conflict is the smallest other
    index inside the rectangle: every coordinate offset, g_j - g_i for side
    +1 and g_i - g_j otherwise, taken in [0, 1), is below eps.  The members
    are sorted once by the float position of their first coordinate, so the
    candidates of member i are one run of that sorted array (one turn below
    and above it appended): the run within its first arc widened by
    ``_CUT_MARGIN``.  Each offset is read off the members' float positions;
    the exact ``compare`` decides those within ``_CUT_MARGIN`` of eps or of
    the 0/1 wrap.  ValueError when a member is outside the point-array range.
    """
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("eps must be in (0, 1/2]")
    n = len(members)
    if len({len(m) for m in members}) > 1:
        raise ValueError("members must have the same number of coordinates")
    coords = [_isolation_columns([m[c] for m in members], eps)
              for c in range(len(members[0]) if members else 0)]
    cut = float(eps)
    _, pos, sign, _ = coords[0] if coords else (None, np.zeros(n), np.ones(n), None)
    order = np.argsort(pos, kind="stable")
    turns = np.concatenate([pos[order] - 1, pos[order], pos[order] + 1])
    left = pos - (sign < 0) * cut - _CUT_MARGIN
    lo = np.searchsorted(turns, left, "left")
    count = np.searchsorted(turns, left + (cut + 2 * _CUT_MARGIN), "right") - lo
    end = np.cumsum(count)
    skip = lo - (end - count)  # candidate f of the flat list of all windows is turns[f + skip[i]]
    best, start = np.full(n, n), 0
    while start < n:
        first = end[start] - count[start]
        stop = max(start + 1, int(np.searchsorted(end, first + _PAIR_BLOCK, "right")))
        i = np.repeat(np.arange(start, stop), count[start:stop])
        j = order[(np.arange(first, end[stop - 1]) + skip[i]) % n]
        i, j = i[i != j], j[i != j]
        for pts, p, s, bound in coords:
            off = np.mod(s[i] * (p[j] - p[i]), 1.0)
            inside = off < cut
            near = (np.abs(off - cut) <= _CUT_MARGIN) | (np.minimum(off, 1 - off) <= _CUT_MARGIN)
            for r in np.flatnonzero(near):
                g, h = pts[i[r]], pts[j[r]]
                inside[r] = ((h - g) if s[i[r]] > 0 else (g - h)).compare(bound) < 0
            i, j = i[inside], j[inside]
        np.minimum.at(best, i, j)
        start = stop
    conflicts = tuple(None if c == n else c for c in best.tolist())
    isolated = tuple(c is None for c in conflicts)
    return IsolationReport(eps, isolated, conflicts, all(isolated))


def _isolation_columns(coord: Sequence, eps: Fraction) -> tuple:
    """One coordinate of the members, (gamma, side) each: the points, their
    float positions, their signs (+1.0 for side +1, else -1.0) and eps as a point."""
    pts = [g for g, _ in coord]
    alpha = pts[0].alpha
    if any(p.alpha != alpha for p in pts):
        raise ValueError("points use different rotation numbers")
    arr = PointArray.of(alpha, pts)
    if arr is None:
        raise ValueError("isolation members outside the point-array range")
    sign = np.array([1.0 if side == PLUS else -1.0 for _, side in coord])
    # a value within 1e-22 of 0 may have a position just below 0: clip it to keep the turns sorted
    return pts, np.maximum(arr.positions, 0.0), sign, CirclePoint(alpha, 0, eps)


def flipped_diagonal(gammas: Sequence[CirclePoint]) -> list[tuple]:
    """The members (p_g^+, p_{-g}^+) of the discrete diagonal family."""
    return [((g, PLUS), (-g, PLUS)) for g in gammas]


# ---------------------------------------------------------------------------
# rigidity probe
# ---------------------------------------------------------------------------


class RigidityReport:
    __slots__ = ("times", "distances", "minimum")

    def __init__(self, times: np.ndarray, distances: np.ndarray, minimum: tuple[int, float]):
        self.times = times  # the sorted, distinct nonzero probe times
        self.distances = distances  # sup distance over the sample at each time
        self.minimum = minimum  # the least distance, at its smallest time


def rigidity_probe(system, sample: SampleSet, times: Sequence[int]) -> RigidityReport:
    """sup-distance(T^n, Id) over the sample for each probe time.  Times past
    the int64 range (deep convergent denominators) stay Python ints, in an
    object array."""
    times = np.sort(np.asarray(times))
    times = times[times != 0]
    if not times.size:
        raise ValueError("need at least one nonzero probe time")
    times = times[np.concatenate(([True], times[1:] != times[:-1]))]
    split = isinstance(system, SplitCircleSystem) and isinstance(sample.metric, CodingMetric)
    if split and times[0] > 0:
        dists = _split_rigidity(system, sample, times, sample.metric.horizon)
    else:
        dists = np.array([max(sample.metric(system.step(x, n), x) for x in sample.points)
                          for n in times.tolist()])
    k = int(np.argmin(dists))  # the first minimum: the smallest time among ties
    return RigidityReport(times, dists, (int(times[k]), float(dists[k])))


def _split_rigidity(system, sample, times: np.ndarray, horizon: int) -> np.ndarray:
    """Vectorized path over sorted positive times: the word of T^n x over
    [-H, H] is a slice of the word of x over [n-H, n+H]; the base part of the
    metric is the common arc shift.  Up to 64 points share one uint64 code per
    column, bit r for the r-th, so each window offset m folds its weight
    2^-|m-H| into the sup over all times in one pass per block of points."""
    alpha_f = float(system.alpha.approx(Fraction(1, 10**30)))
    shifts = (times * alpha_f) % 1.0
    sup = np.minimum(shifts, 1.0 - shifts)
    points, end = list(sample.points), int(times[-1]) + horizon
    for start in range(0, len(points), 64):
        codes = np.zeros(end + horizon + 1, dtype=np.uint64)
        for r, x in enumerate(points[start:start + 64]):
            codes |= system.coding_word(x, -horizon, end).astype(np.uint64) << np.uint64(r)
        for m in range(2 * horizon + 1):
            np.maximum(sup, (codes[times + m] != codes[m]) * 2.0 ** -abs(m - horizon), out=sup)
    return sup
