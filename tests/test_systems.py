import random
from fractions import Fraction

import numpy as np
import pytest

import tamecert._kernels as K
from tamecert.cli import NAMED_SYSTEMS
from tamecert.errors import DepthInsufficient
from tamecert.exactarith import GOLDEN, SQRT2_MINUS_1, CirclePoint, orbit_point, point, zero
from tamecert.systems import (
    MINUS,
    PLAIN,
    PLUS,
    Arc,
    CosSystem,
    CutProjectCoding,
    RotationSystem,
    SemicocycleCascade,
    SplitCircleSystem,
    SplitPoint,
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
        sys_ = SplitCircleSystem(GOLDEN, split=(point(GOLDEN, 0, Fraction(1, 2)),))
        assert len(sys_.split_fiber(point(GOLDEN, 0, Fraction(1, 2)))) == 2
        assert len(sys_.split_fiber(zero(GOLDEN))) == 1


class TestSplitOrder:
    def test_split_pair_ordered_with_nothing_between(self, sturmian):
        rng = random.Random(3)
        ref = point(GOLDEN, 0, Fraction(1, 1000))
        pts = []
        for n in range(-6, 7):
            pts += sturmian.split_fiber(orbit_point(GOLDEN, n))
        for _ in range(30):
            pts.append(sturmian.pt(point(GOLDEN, rng.randint(-20, 20), Fraction(rng.randint(1, 9), 11))))
        from tamecert.systems import split_order_key

        pts.sort(key=lambda p: split_order_key(p, ref))
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
        assert bulk == pointwise

    def test_shift_equivariance(self, sturmian):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(-30, 30)
            b = Fraction(rng.randint(0, 12), 13)
            x = sturmian.pt(point(GOLDEN, n, b)) if b else sturmian.orbit_pt(n, PLUS)
            big = sturmian.coding_word(x, -51, 51)
            shifted = sturmian.coding_word(sturmian.step(x), -50, 50)
            assert shifted == big[2:]

    def test_other_alpha(self):
        sys_ = SplitCircleSystem(SQRT2_MINUS_1)
        w = sys_.word(sys_.orbit_pt(0, PLUS), 500)
        assert len(K.extract_factors(w, 10)) == 11  # Sturmian: p(L) = L+1

    def test_plain_point_on_plain_endpoint(self):
        from tamecert.errors import BoundaryUndecidable

        # explicit split set not containing the arc end at alpha: the point
        # alpha itself is plain and sits exactly on the endpoint
        split = (zero(GOLDEN),)
        sys_default = SplitCircleSystem(GOLDEN, split=split)
        x = sys_default.pt(point(GOLDEN, 1))  # plain point at the arc end
        assert sys_default.symbol(x) == 0  # half-open convention excludes it
        strict = SplitCircleSystem(GOLDEN, split=split, boundary_convention=None)
        with pytest.raises(BoundaryUndecidable):
            strict.symbol(strict.pt(point(GOLDEN, 1)))


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


class TestFullShift:
    def test_de_bruijn_complete(self):
        for L in (3, 8):
            w = full_shift_word(L)
            assert len(K.extract_factors(w, L)) == 2**L


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

    def test_traces_differ_only_at_zero(self):
        sc = SemicocycleCascade(n_max=5, depth=24)
        traces = sc.fiber_traces(4, 24, window=5)
        assert len({t[1:] for t in traces}) == 1
        assert len({t[0] for t in traces}) == 4


@pytest.mark.parametrize("spec", [*NAMED_SYSTEMS.values(), ARC_SPEC], ids=[*NAMED_SYSTEMS, "arcs"])
def test_describe_loads_back(spec):
    described = load_system(spec).describe()
    assert load_system(described).describe() == described


def test_load_system_round_trip():
    sys_ = load_system({"kind": "split_circle", "alpha": "cf:[0;1,...]", "split_set": "orbit"})
    assert isinstance(sys_, SplitCircleSystem)
    sys2 = load_system({"kind": "cut_project", "alpha": "cf:[0;1,...]",
                        "window": {"cantor_generation": 3, "scale": "1/4"}})
    assert isinstance(sys2, CutProjectCoding)
    sys3 = load_system(sys2.describe() | {"window": {"cantor_generation": 3, "scale": "1/4"}})
    assert sys3.cantor_generation == 3
    assert isinstance(load_system({"kind": "rotation"}), RotationSystem)
    assert isinstance(load_system({"kind": "cos"}), CosSystem)
    assert isinstance(load_system({"kind": "semicocycle"}), SemicocycleCascade)
    with pytest.raises(ValueError):
        load_system({"kind": "nope"})
