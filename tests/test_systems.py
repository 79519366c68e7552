import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamecert._kernels as K
from tamecert.boundary import BoundaryPoint, ReducedWord
from tamecert.cli import NAMED_SYSTEMS
from tamecert.envelope import IsolationReport
from tamecert.errors import DepthInsufficient
from tamecert.exactarith import (
    GOLDEN,
    SQRT2_MINUS_1,
    CirclePoint,
    RotationNumber,
    orbit_point,
    point,
    zero,
)
from tamecert.linear import LineLimitMap, PartialLinearMap
from tamecert.order import BumpMap
from tamecert.systems import (
    MINUS,
    PLAIN,
    PLUS,
    Arc,
    CosFiber,
    CosRegular,
    CosSystem,
    CutProjectCoding,
    RotationSystem,
    SemicocycleCascade,
    SplitCircleSystem,
    SplitPoint,
    _CircleWalk,
    asymptotic_defect,
    full_shift_word,
    load_system,
    sampling_function,
)


ARC_SPEC = {"kind": "cut_project", "window": {"arcs": [[0, "0", "13/21"]]}}


@pytest.fixture(scope="module")
def sturmian():
    return SplitCircleSystem(GOLDEN)


def fibonacci_word(length):
    """Fixed point of 0 -> 01, 1 -> 0 (independent substitution oracle)."""
    w = [0]
    while len(w) < length:
        w = [s for c in w for s in ((0, 1) if c == 0 else (0,))]
    return w[:length]


class TestSplitFiber:
    def test_orbit_point_splits(self, sturmian):
        for n in (-5, 0, 3, 17):
            fib = sturmian.split_fiber(orbit_point(GOLDEN, n))
            assert [p.side for p in fib] == [MINUS, PLUS]

    def test_non_orbit_point_plain(self, sturmian):
        fib = sturmian.split_fiber(point(GOLDEN, 0, Fraction(1, 3)))
        assert [p.side for p in fib] == [PLAIN]

    def test_rational_split_set(self):
        sys_ = SplitCircleSystem(GOLDEN, split="rationals")
        assert len(sys_.split_fiber(point(GOLDEN, 0, Fraction(1, 3)))) == 2
        assert len(sys_.split_fiber(point(GOLDEN, 2, Fraction(1, 3)))) == 1

    def test_explicit_split_set(self):
        # a split set is named: explicit points, in a tuple or a list, are refused
        for split in ((point(GOLDEN, 0, Fraction(1, 2)),), ["0*alpha+1/2"], ["orbit"], "explicit"):
            with pytest.raises(ValueError, match="'orbit' or 'rationals'"):
                SplitCircleSystem(GOLDEN, split=split)


class TestSplitOrder:
    def test_split_pair_ordered_with_nothing_between(self, sturmian):
        rng = random.Random(3)
        ref = point(GOLDEN, 0, Fraction(1, 1000))
        pts = []
        for n in range(-6, 7):
            pts += sturmian.split_fiber(orbit_point(GOLDEN, n))
        for _ in range(30):
            pts.append(sturmian.pt(point(GOLDEN, rng.randint(-20, 20), Fraction(rng.randint(1, 9), 11))))
        # the split order on the arc cut at ref: by position, then by side tag
        pts.sort(key=lambda p: ((p.base - ref).as_float(), p.side))
        by_pos = {i: p for i, p in enumerate(pts)}
        for i, p in by_pos.items():
            if p.side == MINUS:
                q = by_pos[i + 1]
                assert q.side == PLUS and q.base.compare(p.base) == 0


class TestCodingWord:
    def test_matches_swapped_shifted_fibonacci(self, sturmian):
        # From 0+ the coding at positions n >= 2 is the letter-swap of the
        # substitution fixed point: w(n) = 1 - fib(n - 2).
        w = sturmian.coding_word(sturmian.orbit_pt(0, PLUS), 0, 40)
        fib = fibonacci_word(39)
        assert w[0] == 1 and w[1] == 0
        assert all(w[n] == 1 - fib[n - 2] for n in range(2, 41))

    def test_language_equals_swapped_fibonacci_language(self, sturmian):
        word = sturmian.word(sturmian.orbit_pt(0, PLUS), 3000)
        fib = np.asarray(fibonacci_word(3000), dtype=np.uint8)
        for ell in (1, 2, 3, 5, 8):
            ours = set(map(int, K.extract_factors(word, ell)))
            swapped = set(map(int, K.extract_factors(1 - fib, ell)))
            assert ours == swapped

    def test_exact_boundary_side_tags(self, sturmian):
        # positions 0 and 1 hit the arc endpoints exactly; tags decide
        assert sturmian.symbol(sturmian.orbit_pt(0, PLUS)) == 1
        assert sturmian.symbol(sturmian.orbit_pt(0, MINUS)) == 0
        assert sturmian.symbol(sturmian.orbit_pt(1, MINUS)) == 1
        assert sturmian.symbol(sturmian.orbit_pt(1, PLUS)) == 0

    def test_bulk_equals_pointwise(self, sturmian):
        x = sturmian.pt(point(GOLDEN, 3, Fraction(2, 7)))
        bulk = sturmian.coding_word(x, -15, 15)
        pointwise = [sturmian.symbol(x.translate(n)) for n in range(-15, 16)]
        assert bulk.tolist() == pointwise

    def test_shift_equivariance(self, sturmian):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(-30, 30)
            b = Fraction(rng.randint(0, 12), 13)
            x = sturmian.pt(point(GOLDEN, n, b)) if b else sturmian.orbit_pt(n, PLUS)
            big = sturmian.coding_word(x, -51, 51)
            shifted = sturmian.coding_word(sturmian.step(x), -50, 50)
            assert shifted.tolist() == big[2:].tolist()

    def test_other_alpha(self):
        sys_ = SplitCircleSystem(SQRT2_MINUS_1)
        w = sys_.word(sys_.orbit_pt(0, PLUS), 500)
        assert len(K.extract_factors(w, 10)) == 11  # Sturmian: p(L) = L+1

    def test_plain_point_on_plain_endpoint(self):
        # on the rationals the arc is [0+, alpha): alpha is irrational, so the
        # point alpha itself is plain and sits exactly on the half-open end
        sys_ = SplitCircleSystem(GOLDEN, split="rationals")
        assert sys_.arc == (SplitPoint(zero(GOLDEN), PLUS), SplitPoint(point(GOLDEN, 1), PLAIN))
        x = sys_.pt(point(GOLDEN, 1))
        assert x.side == PLAIN and not sys_.in_arc(x)
        assert sys_.in_arc(sys_.pt(zero(GOLDEN), PLUS))
        assert not sys_.in_arc(sys_.pt(zero(GOLDEN), MINUS))


class TestCutProject:
    def test_full_circle_window_all_ones(self):
        sys_ = CutProjectCoding(GOLDEN, arcs=(Arc(zero(GOLDEN), Fraction(1)), ))
        assert sys_.word(11).tolist() == [1] * 11

    def test_interval_window_matches_split_coding(self):
        # window [0, alpha) on the orbit of 0 reproduces the split coding of
        # interior (non-boundary) positions
        sturmian = SplitCircleSystem(GOLDEN)
        arcs = (Arc(zero(GOLDEN), Fraction(1)), )
        cp = CutProjectCoding(GOLDEN, arcs=(Arc(zero(GOLDEN), Fraction(13, 21)),),
                              base_point=point(GOLDEN, 0, Fraction(1, 7)))
        w = cp.word(64)
        for n in range(64):
            x = cp.base_point.translate(n)
            expect = 1 if (x - zero(GOLDEN)).compare(CirclePoint(GOLDEN, 0, Fraction(13, 21))) < 0 else 0
            assert w[n] == expect

    def test_cantor_window_disjoint_and_boundary_closed(self):
        sys_ = CutProjectCoding(GOLDEN, cantor_generation=6)
        # a deleted-arc endpoint belongs to the (closed) window
        arc = sys_.deleted[0]
        assert sys_.in_window(arc.start)
        inside = arc.start + CirclePoint(GOLDEN, 0, arc.length / 2)
        assert not sys_.in_window(inside)

    def test_cantor_word_bulk_equals_pointwise(self):
        cases = [
            # deleted arc 1 is [alpha - 1/12, alpha + 1/12]: the orbit meets its start, its end
            (CutProjectCoding(GOLDEN, cantor_generation=4,
                              base_point=point(GOLDEN, 0, Fraction(-1, 12))), [1]),
            (CutProjectCoding(GOLDEN, cantor_generation=4,
                              base_point=point(GOLDEN, 0, Fraction(1, 12))), [1]),
            # arcs [0, 1/3) and [2 alpha - 1/5, 2 alpha): the orbit of 0 meets a start and an end
            (CutProjectCoding(GOLDEN, base_point=zero(GOLDEN), arcs=(
                Arc(zero(GOLDEN), Fraction(1, 3)),
                Arc(point(GOLDEN, 2, Fraction(-1, 5)), Fraction(1, 5)))), [0, 2]),
        ]
        n0 = -40
        for sys_, on_end in cases:
            ends = [end for arc in sys_.deleted + sys_.arcs
                    for end in (arc.start, arc.start + CirclePoint(GOLDEN, 0, arc.length))]
            for n in on_end:  # positions that only the exact fallback can decide
                assert any(sys_.base_point.translate(n).compare(end) == 0 for end in ends)
            w = sys_.word(300, n0=n0)
            assert w.tolist() == [sys_.symbol_at(n) for n in range(n0, n0 + 300)]

    def test_overlapping_deleted_arcs_rejected(self):
        with pytest.raises(ValueError):
            CutProjectCoding(GOLDEN, cantor_generation=6, cantor_scale=Fraction(3))


# walk oracle: the grid walks against the exact pointwise symbols

MIXED = RotationNumber((3, 1, 7), period=(2, 5))
_ALPHAS = st.sampled_from([GOLDEN, SQRT2_MINUS_1, MIXED])
_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 2**70))


@st.composite
def _fractions(draw):
    den = draw(_DENOMINATORS)
    return Fraction(draw(st.integers(-2 * den, 2 * den)), den)


_WINDOWS = st.tuples(st.integers(-60, 60), st.integers(0, 40))  # (n0, length); length 0 is empty


def _base_point(draw, alpha, ends, n0, length):
    """A point whose orbit meets one of ``ends`` inside the window, or any point."""
    if ends and length and draw(st.booleans()):
        return draw(st.sampled_from(ends)).translate(-draw(st.integers(n0, n0 + length - 1)))
    return point(alpha, draw(st.integers(-40, 40)), draw(_fractions()))


@st.composite
def split_walk_cases(draw):
    alpha = draw(_ALPHAS)
    system = SplitCircleSystem(alpha, split=draw(st.sampled_from(["orbit", "rationals"])))
    n0, length = draw(_WINDOWS)
    base = _base_point(draw, alpha, [end.base for end in system.arc], n0, length)
    x = draw(st.sampled_from(system.split_fiber(base)))  # both side tags on a split base
    return system, x, n0, n0 + length - 1


@st.composite
def cut_project_cases(draw):
    alpha = draw(_ALPHAS)
    mode = draw(st.sampled_from(["cantor", "interval", "full"]))
    if mode == "cantor":
        generation = draw(st.integers(1, 4))
        arcs = CutProjectCoding(alpha, cantor_generation=generation).deleted
    else:
        arcs = [Arc(point(alpha, draw(st.integers(-5, 5)), draw(_fractions())),
                    draw(st.fractions(Fraction(1, 97), Fraction(96, 97), max_denominator=97)))
                for _ in range(draw(st.integers(1, 2)))]
        if mode == "full":
            arcs.append(Arc(point(alpha, draw(st.integers(-5, 5))), Fraction(1)))
    ends = [end for arc in arcs
            for end in (arc.start, arc.start + CirclePoint(alpha, 0, arc.length))]
    n0, length = draw(_WINDOWS)
    base = _base_point(draw, alpha, ends, n0, length)
    if mode == "cantor":
        system = CutProjectCoding(alpha, cantor_generation=generation, base_point=base)
    else:
        system = CutProjectCoding(alpha, arcs=arcs, base_point=base)
    return system, n0, length


@settings(max_examples=150, deadline=None)
@given(case=split_walk_cases())
def test_coding_word_matches_pointwise_symbols(case):
    system, x, n0, n1 = case
    word = system.coding_word(x, n0, n1)
    assert word.dtype == np.uint8
    assert word.tolist() == [system.symbol(x.translate(n)) for n in range(n0, n1 + 1)]


@settings(max_examples=150, deadline=None)
@given(case=cut_project_cases())
def test_cut_project_word_matches_symbol_at(case):
    system, n0, length = case
    word = system.word(length, n0=n0)
    assert word.dtype == np.uint8
    assert word.tolist() == [system.symbol_at(n) for n in range(n0, n0 + length)]


@pytest.mark.parametrize("end", [0, 1])
def test_grid_leaves_a_plain_endpoint_hit_undecided(end, monkeypatch):
    # on the rationals the arc is [0+, alpha); the plain point x = (end - 5)*alpha
    # has T^5 x on the end ``end`` with no tag of its own, and the orbit meets
    # the other end one step before or after: only the exact comparison decides them
    system = SplitCircleSystem(GOLDEN, split="rationals")
    x = system.pt(point(GOLDEN, end - 5))
    symbol, decided = SplitCircleSystem.symbol, []
    monkeypatch.setattr(SplitCircleSystem, "symbol",
                        lambda self, y: decided.append(y) or symbol(self, y))
    assert system.coding_word(x, 5, 5).tolist() == [0]  # outside [0+, alpha) at either end
    assert decided == [x.translate(5)]
    decided.clear()
    word = system.coding_word(x, -30, 30)
    assert word.tolist() == [symbol(system, x.translate(n)) for n in range(-30, 31)]
    assert decided == [x.translate(n) for n in sorted({5, 6 - 2 * end})]
    decided.clear()
    assert system.coding_word(x, 7, 60).tolist() == [symbol(system, x.translate(n))
                                                    for n in range(7, 61)]
    assert decided == []


def test_walks_decide_exactly_only_at_boundary_hits(monkeypatch):
    cantor = CutProjectCoding(GOLDEN, cantor_generation=6)  # its disjointness check uses covers
    calls = []
    for cls, name in ((SplitCircleSystem, "symbol"), (Arc, "covers")):
        orig = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, orig=orig, **kw: calls.append(1) or orig(*a, **kw))
    sturmian = SplitCircleSystem(GOLDEN)
    sturmian.word(sturmian.orbit_pt(0, PLUS), 10_000)
    assert len(calls) == 2  # positions 0 and 1 sit on the arc ends 0 and alpha
    cantor.word(100_000)
    assert len(calls) == 2  # the orbit of 1/7 meets no deleted-arc end


def test_one_orbit_walk_per_word(monkeypatch):
    walks = []
    positions = _CircleWalk.positions
    monkeypatch.setattr(_CircleWalk, "positions",
                        lambda self: walks.append(len(self.arcs)) or positions(self))
    two_arcs = CutProjectCoding(GOLDEN, arcs=(Arc(zero(GOLDEN), Fraction(1, 3)),
                                              Arc(point(GOLDEN, 2, Fraction(-1, 5)), Fraction(1, 5))))
    sturmian = SplitCircleSystem(GOLDEN)
    for build, arcs in ((lambda: CutProjectCoding(GOLDEN, cantor_generation=6).word(5000), 6),
                        (lambda: two_arcs.word(5000, n0=-40), 2),
                        (lambda: sturmian.coding_word(sturmian.orbit_pt(0, PLUS), -50, 50), 1)):
        walks.clear()
        build()
        assert walks == [arcs]  # one walk of the orbit, read against every arc


@pytest.mark.parametrize("far", [100_003, 1_000_003])
def test_words_far_from_zero_match_symbol_at(far):
    # interval window: the orbit of 0 meets the start far*alpha at n = far and the
    # end (far+2)*alpha at n = far + 2, where |a0 + n| and the arc a are near ``far``
    interval = CutProjectCoding(GOLDEN, base_point=zero(GOLDEN), arcs=(
        Arc(point(GOLDEN, far), Fraction(1, 3)),
        Arc(point(GOLDEN, far + 2, Fraction(-1, 5)), Fraction(1, 5))))
    # Cantor window: deleted arc 1 is [alpha - 1/12, alpha + 1/12], met at its
    # start (end) at n = far by a base point far steps back
    cantor = [CutProjectCoding(GOLDEN, cantor_generation=4,
                               base_point=point(GOLDEN, 1 - far, Fraction(sign, 12)))
              for sign in (-1, 1)]
    for sys_, on_end in ((interval, [far, far + 2]), *((c, [far]) for c in cantor)):
        ends = [end for arc in sys_.deleted + sys_.arcs
                for end in (arc.start, arc.start + CirclePoint(GOLDEN, 0, arc.length))]
        for n in on_end:
            assert any(sys_.base_point.translate(n).compare(end) == 0 for end in ends)
        n0 = far - 150
        assert sys_.word(300, n0=n0).tolist() == [sys_.symbol_at(n) for n in range(n0, n0 + 300)]
    # the default Cantor base point, with no arc end in reach, ``far`` steps out
    cantor6 = CutProjectCoding(GOLDEN, cantor_generation=6)
    assert cantor6.word(300, n0=far).tolist() == [cantor6.symbol_at(n)
                                                  for n in range(far, far + 300)]


@pytest.mark.parametrize("far", [100_003, 1_000_003])
def test_word_survives_worst_case_grid_rounding(far):
    # Base point and arc start each round by nearly half a unit in the same
    # direction, the arc width truncates by nearly a unit, and the convergent
    # error tips the balance: position ``far`` lies inside the arc, yet its grid
    # offset is the truncated width plus 2.  A slack of 2 reads it as outside.
    n0, n1 = far - 150, far + 149
    for a0 in (0, -2 * far):
        probe = _CircleWalk(GOLDEN, point(GOLDEN, a0), n0, n1, ())
        d, p, m = probe.D, probe.step, a0 + far
        # pick the sign of m so that the convergent error m*(d*alpha - p) is negative
        if (CirclePoint(GOLDEN, 1, 0).compare(point(GOLDEN, 0, Fraction(p, d))) > 0) == (m < 0):
            break
    delta = Fraction(abs(m), 12 * d)  # under a quarter of it: |d*alpha - p| > 1/(3d)
    w = d // 3
    start = (m * p + 1 - (w + 2)) % d
    coding = CutProjectCoding(GOLDEN, base_point=point(GOLDEN, a0, Fraction(1, 2 * d)),
                              arcs=[Arc(point(GOLDEN, 0, (start + Fraction(1, 2) - delta) / d),
                                        (w + 1 - delta) / d)])
    assert coding.symbol_at(far) == 1
    assert coding.word(300, n0=n0).tolist() == [coding.symbol_at(n) for n in range(n0, n1 + 1)]


def greedy_de_bruijn(window):
    """The prefer-one de Bruijn word from 0^window, its first window symbols appended."""
    seen = bytearray(1 << window)
    word = [0] * window
    state, mask = 0, (1 << window) - 1
    seen[0] = 1
    for _ in range((1 << window) - 1):
        one = ((state << 1) | 1) & mask
        state = one if not seen[one] else (state << 1) & mask
        seen[state] = 1
        word.append(state & 1)
    return word + word[:window]


class TestFullShift:
    def test_de_bruijn_complete(self):
        for L in (3, 8):
            w = full_shift_word(L)
            assert len(K.extract_factors(w, L)) == 2**L

    def test_equals_greedy_word(self):
        for L in range(1, 15):
            assert full_shift_word(L).tolist() == greedy_de_bruijn(L), L

    def test_order_twenty(self):
        w = full_shift_word(20)
        assert w.dtype == np.uint8 and len(w) == 2**20 + 2 * 20 - 1
        assert len(K.extract_factors(w, 20)) == 2**20

    @pytest.mark.parametrize("window", [0, 25])
    def test_window_out_of_range(self, window):
        with pytest.raises(ValueError):
            full_shift_word(window)


class TestCos:
    def test_sampling_function_values(self):
        assert sampling_function(zero(GOLDEN)) == 0.0
        assert sampling_function(point(GOLDEN, 0, Fraction(3, 4))) == pytest.approx(1.5)
        # cos(2*pi / (1/4)) = cos(8*pi) = 1
        assert sampling_function(point(GOLDEN, 0, Fraction(1, 4))) == pytest.approx(1.0)
        assert sampling_function(point(GOLDEN, 0, Fraction(1, 2))) == pytest.approx(1.0)

    def test_generator_coordinate_zero(self):
        cs = CosSystem(GOLDEN)
        assert cs.coding_word(cs.generator_point(), 0, 0) == [0.0]

    def test_fiber_point_coordinates(self):
        cs = CosSystem(GOLDEN)
        x = cs.fiber_point(0, 2.0)
        assert cs.coordinate(x, 0) == 2.0
        assert cs.coordinate(x, 3) == cs.f(3)
        y = cs.step(x, 5)
        assert cs.coordinate(y, -5) == 2.0
        assert cs.base(y).orbit_index == 5

    def test_metric_separates_fiber(self):
        cs = CosSystem(GOLDEN)
        x2 = cs.fiber_point(0, 2.0)
        xt = cs.fiber_point(0, 0.25)
        assert cs.metric(x2, xt) == pytest.approx(1.75)
        assert cs.metric(x2, x2) == 0.0


class TestAsymptoticDefect:
    def test_cos_fiber_pair_defect_zero(self):
        cs = CosSystem(GOLDEN)
        assert asymptotic_defect(cs, cs.fiber_point(0, 2.0), cs.fiber_point(0, -0.5), (-20, 20)) == {0}

    def test_equal_points_empty(self):
        cs = CosSystem(GOLDEN)
        x = cs.fiber_point(0, 0.5)
        assert asymptotic_defect(cs, x, x, (-20, 20)) == set()

    def test_sturmian_split_pair(self):
        sys_ = SplitCircleSystem(GOLDEN)
        d = asymptotic_defect(sys_, sys_.orbit_pt(0, MINUS), sys_.orbit_pt(0, PLUS), (-100, 100))
        assert d == {0, 1}  # exactly the window positions hitting the arc endpoints

    def test_different_fibers_rejected(self):
        sys_ = SplitCircleSystem(GOLDEN)
        with pytest.raises(ValueError):
            asymptotic_defect(sys_, sys_.orbit_pt(0, MINUS), sys_.orbit_pt(1, PLUS), (-5, 5))


class TestSemicocycle:
    def test_marked_fiber_cardinalities(self):
        sc = SemicocycleCascade(n_max=6, depth=20)
        assert sc.fiber_cardinalities(6, 20) == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}

    def test_unmarked_fibers_singletons(self):
        sc = SemicocycleCascade(n_max=6, depth=24)
        rng = random.Random(2)
        for _ in range(20):
            assert sc.unmarked_fiber_cardinality(rng.randint(-10**6, 10**6)) == 1

    def test_depth_insufficient(self):
        sc = SemicocycleCascade(n_max=6, depth=20)
        with pytest.raises(DepthInsufficient):
            sc.fiber_traces(5, depth=6)

    def test_monotone_stabilizing_in_depth(self):
        sc = SemicocycleCascade(n_max=5, depth=40)
        prev = 0
        for depth in (8, 12, 16, 20, 30, 40):
            card = len(sc.fiber_traces(4, depth))
            assert card >= prev
            prev = card
        assert prev == 4

    def test_marked_points_and_base_point_lie_in_distinct_orbits(self):
        # why __init__ checks no orbit: two of y0, y_1..y_n differing by an
        # integer would share their residue mod 1
        for n_max in range(1, 200):
            sc = SemicocycleCascade(n_max=n_max)
            points = (sc.y0, *sc.marked)
            assert len({y % 1 for y in points}) == n_max + 1, n_max

    def test_traces_differ_only_at_zero(self):
        sc = SemicocycleCascade(n_max=5, depth=24)
        traces = sc.fiber_traces(4, 24, window=5)
        assert len({t[1:] for t in traces}) == 1
        assert len({t[0] for t in traces}) == 4

    @pytest.mark.parametrize("n_max", range(1, 9))
    def test_value_matches_fresh_marked_points(self, n_max):
        sc = SemicocycleCascade(n_max=n_max, depth=24)
        marked = [Fraction(-(2**n), 2 ** (n + 1) - 1) for n in range(1, n_max + 1)]

        def reference(t):
            # (k mod n)/n^2 when t agrees with y_n to depth exactly n + k, k >= 1
            for n, y in enumerate(marked, 1):
                if t == y:
                    return Fraction(0)
                num, agree = (t - y).numerator, 0
                while num % 2 == 0:
                    num, agree = num // 2, agree + 1
                if agree > n:
                    return Fraction((agree - n) % n, n * n)
            return Fraction(0)

        points = [sc.y0 + j for j in range(-300, 301)]
        points += [sc.y0 + sc.shell_representative(n, k) for n in range(1, n_max + 1)
                   for k in range(1, 12)]
        points += [y + m for y in marked for m in range(-6, 7)]
        assert sc.marked == tuple(marked)
        assert [sc.value(t) for t in points] == [reference(t) for t in points]
        assert {reference(t) for t in points} >= {Fraction(k, n_max**2) for k in range(n_max)}
        with pytest.raises(ValueError, match="not a marked point"):
            sc.fiber_traces(n_max + 1)


@pytest.mark.parametrize("spec", [*NAMED_SYSTEMS.values(), ARC_SPEC], ids=[*NAMED_SYSTEMS, "arcs"])
def test_describe_loads_back(spec):
    described = load_system(spec).describe()
    assert load_system(described).describe() == described


def test_describe_keeps_base_point():
    sys_ = CutProjectCoding(GOLDEN, cantor_generation=4, base_point=point(GOLDEN, 0, Fraction(1, 12)))
    assert sys_.describe()["base_point"] == [0, "1/12"]
    assert np.array_equal(load_system(sys_.describe()).word(200), sys_.word(200))
    arcs = load_system(ARC_SPEC | {"base_point": [2, "1/3"]})
    assert arcs.base_point == point(GOLDEN, 2, Fraction(1, 3))
    assert load_system(arcs.describe()).base_point == arcs.base_point
    # a spec without the key keeps the default base point 0*alpha + 1/7
    assert load_system(NAMED_SYSTEMS["cantor6"]).base_point == point(GOLDEN, 0, Fraction(1, 7))


def test_load_system_round_trip():
    sys_ = load_system({"kind": "split_circle", "alpha": "cf:[0;1,...]", "split_set": "orbit"})
    assert isinstance(sys_, SplitCircleSystem)
    sys2 = load_system({"kind": "cut_project", "alpha": "cf:[0;1,...]",
                        "window": {"cantor_generation": 3, "scale": "1/4"}})
    assert isinstance(sys2, CutProjectCoding)
    sys3 = load_system(sys2.describe() | {"window": {"cantor_generation": 3, "scale": "1/4"}})
    assert sys3.cantor_generation == 3
    assert isinstance(load_system({"kind": "rotation"}), RotationSystem)
    assert isinstance(load_system({"kind": "semicocycle"}), SemicocycleCascade)
    with pytest.raises(ValueError):
        load_system({"kind": "nope"})


F = Fraction
# record class, field values, and another value for each field (None: no other
# value passes the class's own validation)
VALUE_RECORDS = [
    (CirclePoint, (GOLDEN, 1, F(1, 3)), (SQRT2_MINUS_1, 0, F(1, 4))),
    (SplitPoint, (point(GOLDEN, 1), PLUS), (point(GOLDEN, 2), MINUS)),
    (CosFiber, (3, 0.5), (-3, 2.0)),
    (CosRegular, (point(GOLDEN, 1),), (point(GOLDEN, 2),)),
    (ReducedWord, (("a", "b"),), (("a", "B"),)),
    (BoundaryPoint, (("a", "b"),), (("b", "a"),)),
    (PartialLinearMap, (1, ((F(1),),), ((F(2),),)), (None, ((F(3),),), ((F(1),),))),
    (LineLimitMap, ("three_region", 0.5, "+inf", None), ("constant", 0.25, "-inf", 1.0)),
    (BumpMap, (F(1, 2),), (F(1, 3),)),
    (IsolationReport, (F(1, 4), (True, False), (None, 0), False),
     (F(1, 8), (True, True), (None, None), True)),
]


@pytest.mark.parametrize("cls, values, others", VALUE_RECORDS,
                         ids=[c.__name__ for c, _, _ in VALUE_RECORDS])
def test_value_records_compare_and_hash_by_field_tuple(cls, values, others):
    x, y = cls(*values), cls(*values)
    fields = tuple(getattr(x, name) for name in cls.__slots__)
    assert fields == values  # the values are stored as given
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    for i, other in enumerate(others):
        if other is not None:
            changed = cls(*values[:i], other, *values[i + 1:])
            assert x != changed and changed != x, cls.__slots__[i]
    twin = type("Twin", (cls,), {"__slots__": ()})(*values)
    assert x != twin and twin != x
