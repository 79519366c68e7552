import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import tamecert.envelope as envelope
from tamecert.errors import NotInIdeal, NotStabilized, SampleMismatch
from tamecert.exactarith import (GOLDEN, SQRT2_MINUS_1, CirclePoint, PointArray, one_sided_approach,
                                 orbit_point, point, zero)
from tamecert.systems import (
    MINUS,
    PLAIN,
    PLUS,
    CosFiber,
    CosSystem,
    RotationSystem,
    SplitArray,
    SplitCircleSystem,
    SplitPoint,
)
from tamecert.envelope import (
    CodingMetric,
    CosElement,
    IsolationReport,
    SampleSet,
    classify,
    compose,
    cos_sample,
    cos_target_times,
    decompose_minimal,
    determining_growth,
    determining_set,
    flipped_diagonal,
    limit_map,
    no_countable_basis_witness,
    rigidity_probe,
    rotation_sample,
    sorgenfrey_isolation,
    split_sample,
    _split_rigidity,
)


def check_metric_axioms(sample, trials: int = 40, seed: int = 0) -> bool:
    """Spot-check symmetry, identity and the triangle inequality on a sample."""
    rng = random.Random(seed)
    metric = sample.metric
    for _ in range(trials):
        x, y, z = (rng.choice(sample.points) for _ in range(3))
        dxy, dyx = metric(x, y), metric(y, x)
        if abs(dxy - dyx) > 1e-12:
            return False
        if x == y and dxy != 0:
            return False
        if x != y and dxy == 0 and type(x) == type(y):
            return False
        if metric(x, z) > dxy + metric(y, z) + 1e-12:
            return False
    return True


@pytest.fixture(scope="module")
def sturmian():
    return SplitCircleSystem(GOLDEN)


@pytest.fixture(scope="module")
def sample(sturmian):
    return split_sample(sturmian, plain_count=40, split_range=6)


class TestSampleSet:
    def test_metric_axioms(self, sample):
        assert check_metric_axioms(sample)

    def test_split_gap_is_coordinate_zero(self, sample, sturmian):
        d = sample.metric(sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS))
        assert d == 1.0  # symbols differ at coordinate 0


class TestSampleIndex:
    def test_built_on_first_lookup_and_shared(self, sturmian):
        s = split_sample(sturmian, plain_count=20, split_range=3)
        p = limit_map(sturmian, [3], s)
        q = limit_map(sturmian, one_sided_approach(zero(GOLDEN), "below", 10), s)
        assert "index" not in s.__dict__  # building elements reads no index
        x = s.points[5]
        assert p.image_of(x) == p.images[5]
        built = s.__dict__["index"]
        assert q.image_of(x) == q.images[5]
        assert s.__dict__["index"] is built and s.index is built
        assert built == {y: i for i, y in enumerate(s.points)}


class TestPointArraySamples:
    def test_extra_bases_join_once(self, sturmian):
        extra = [orbit_point(GOLDEN, 2), point(GOLDEN, 0, Fraction(1, 5)),  # already sampled
                 point(GOLDEN, 1, Fraction(1, 3)), point(GOLDEN, 1, Fraction(1, 3)),
                 orbit_point(GOLDEN, 9)]
        s = split_sample(sturmian, plain_count=4, split_range=3, extra_bases=extra)
        assert isinstance(s.points, SplitArray)
        want = [SplitPoint(point(GOLDEN, 0, Fraction(k, 5)), PLAIN) for k in range(1, 5)]
        for n in range(-3, 4):
            want += [sturmian.orbit_pt(n, MINUS), sturmian.orbit_pt(n, PLUS)]
        want += [SplitPoint(point(GOLDEN, 1, Fraction(1, 3)), PLAIN),
                 sturmian.orbit_pt(9, MINUS), sturmian.orbit_pt(9, PLUS)]
        assert s.points == want

    def test_points_outside_the_array_range_stay_objects(self, sturmian):
        far = point(GOLDEN, 0, Fraction(1, 2**60 + 1))
        s = split_sample(sturmian, plain_count=6, split_range=2, extra_bases=[far])
        assert isinstance(s.points, list) and s.points[-1] == SplitPoint(far, PLAIN)
        arrays = split_sample(sturmian, plain_count=6, split_range=2)
        gamma = point(GOLDEN, 1, Fraction(1, 2**53 + 1))  # every lcm leaves the range
        for sample in (s, arrays):
            p = limit_map(sturmian, one_sided_approach(gamma, "below", 6), sample)
            assert isinstance(p.images, list)
            assert p.images == [SplitPoint(x.base + gamma, PLAIN) for x in sample.points]

    def test_exact_split_images_tag_exactly_the_split_bases(self, sturmian, sample):
        for gen in ([3], one_sided_approach(point(GOLDEN, 2, Fraction(1, 3)), "above", 8)):
            images = limit_map(sturmian, gen, sample).images
            assert all((im.side != PLAIN) == sturmian.splits(im.base) for im in images)
        # a translation moves the split rationals off their split set: 0 +- alpha
        # would keep side tags over an unsplit base
        q0 = SplitCircleSystem(GOLDEN, split="rationals")
        degenerate = split_sample(q0, plain_count=4, split_range=2)
        assert degenerate.points == q0.split_fiber(point(GOLDEN, 0))
        for pts in (degenerate, SampleSet(list(degenerate.points), degenerate.metric)):
            with pytest.raises(ValueError, match="split set is not invariant"):
                limit_map(q0, [1], pts)


class TestLimitMap:
    def test_sturmian_below_gives_minus_element(self, sturmian, sample):
        ap = one_sided_approach(zero(GOLDEN), "below", 10)
        p = limit_map(sturmian, ap, sample)
        assert p.backend == "exact"
        for x, im in zip(sample.points, p.images):
            assert im.base == x.base  # gamma = 0
            assert im.side == (MINUS if sturmian.splits(x.base) else PLAIN)
        assert classify(p).tag == "one_sided"
        assert classify(p).params["side"] == "minus"

    def test_constant_time_is_translation(self, sturmian, sample):
        p = limit_map(sturmian, [7], sample)
        cls = classify(p)
        assert cls.tag == "translation" and cls.params["n"] == 7
        assert p.image_of(sturmian.orbit_pt(0, PLUS)) == sturmian.orbit_pt(7, PLUS)

    def test_rotation_limit_is_rotation(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 30)
        gamma = point(GOLDEN, 0, Fraction(1, 3))
        p = limit_map(rot, one_sided_approach(gamma, "above", 8), rs)
        assert p.backend == "exact"
        for x, im in zip(rs.points, p.images):
            assert im == x + gamma

    def test_numeric_deep_tail_matches_exact(self, sturmian, sample):
        ap = one_sided_approach(zero(GOLDEN), "below", 25)
        exact = limit_map(sturmian, ap, sample)
        numeric = limit_map(sturmian, list(ap.times)[-4:], sample, tolerance=1e-4)
        assert numeric.backend == "numeric"
        # word parts coincide at the tail; the approach error bound caps the
        # residual base drift
        residual = max(sample.metric(a, b) for a, b in zip(exact.images, numeric.images))
        assert residual <= float(ap.error_bounds[-4])

    def test_not_stabilized(self, sturmian, sample):
        # shallow alternating-side times never settle at a tight tolerance
        with pytest.raises(NotStabilized):
            limit_map(sturmian, [1, 2, 3, 4, 5], sample, tolerance=1e-12)

    def test_non_monotone_rejected(self, sturmian, sample):
        with pytest.raises(ValueError):
            limit_map(sturmian, [5, 3, 8], sample)

    def test_rationals_split_rational_target(self):
        # splitting the circled rationals: a rational target keeps the orbit
        # of splits invariant, so one-sided limits classify there as well
        q0 = SplitCircleSystem(GOLDEN, split="rationals")
        gamma = point(GOLDEN, 0, Fraction(1, 3))
        pts = []
        for k in range(1, 12):
            pts.extend(q0.split_fiber(point(GOLDEN, 0, Fraction(k, 12))))
        for k in range(1, 6):
            pts.append(q0.pt(point(GOLDEN, 2, Fraction(k, 7))))
        from tamecert.envelope import CodingMetric

        sample = SampleSet(pts, CodingMetric(q0, 6))
        p = limit_map(q0, one_sided_approach(gamma, "above", 8), sample)
        cls = classify(p)
        assert cls.tag == "one_sided" and cls.params["side"] == "plus"
        assert cls.params["gamma"] == gamma
        # rational splits map onto rational splits, side forced
        for x, im in zip(sample.points, p.images):
            if q0.splits(x.base):
                assert im.side == PLUS

    def test_general_gamma_classified(self, sturmian):
        rng = random.Random(9)
        for _ in range(4):
            gamma = CirclePoint(GOLDEN, rng.randint(-10, 10), Fraction(rng.randint(1, 6), 7))
            side = rng.choice(["below", "above"])
            extra = [(-gamma).translate(k) for k in range(-3, 4)]
            s = split_sample(sturmian, plain_count=24, split_range=4, extra_bases=extra)
            p = limit_map(sturmian, one_sided_approach(gamma, side, 8), s)
            cls = classify(p)
            assert cls.tag == "one_sided"
            assert cls.params["gamma"] == gamma
            assert cls.params["side"] == ("minus" if side == "below" else "plus")


class TestClassify:
    def test_parabolic_and_loxodromic_value_maps(self):
        pool = [Fraction(k, 10) for k in range(10)]
        s = SampleSet(pool, lambda x, y: abs(float(x - y)))
        target = Fraction(1, 2)
        para = limit_map_like(s, {x: target for x in pool})
        assert classify(para).tag == "parabolic"
        assert classify(para).params["target"] == target
        fixedpt = Fraction(7, 10)
        lox = limit_map_like(s, {x: (x if x == fixedpt else target) for x in pool})
        cls = classify(lox)
        assert cls.tag == "loxodromic"
        assert cls.params["attracting"] == target and cls.params["repulsing"] == fixedpt


def limit_map_like(sample, mapping):
    """Package a finite map as an exact element (test helper)."""
    from tamecert.envelope import ApproxElement

    return ApproxElement(
        system=None,
        sample=sample,
        images=[mapping[x] for x in sample.points],
        generator=(0,),
        backend="exact",
        tolerance=None,
        rule=lambda x: mapping[x],
    )


class TestCompose:
    def test_translation_group_law(self, sturmian, sample):
        t3 = limit_map(sturmian, [3], sample)
        t4 = limit_map(sturmian, [4], sample)
        both = compose(t3, t4)
        assert classify(both).params["n"] == 7

    def test_one_sided_after_translation(self, sturmian, sample):
        ap = one_sided_approach(zero(GOLDEN), "below", 10)
        p = limit_map(sturmian, ap, sample)
        t5 = limit_map(sturmian, [5], sample)
        comp = compose(p, t5)
        cls = classify(comp)
        assert cls.tag == "one_sided"
        assert cls.params["gamma"] == orbit_point(GOLDEN, 5)
        assert cls.params["side"] == "minus"

    def test_parabolic_idempotent(self):
        pool = [Fraction(k, 8) for k in range(8)]
        s = SampleSet(pool, lambda x, y: abs(float(x - y)))
        para = limit_map_like(s, {x: Fraction(0) for x in pool})
        assert compose(para, para).images == para.images

    def test_associativity_on_exact_elements(self, sturmian, sample):
        ap = one_sided_approach(zero(GOLDEN), "above", 8)
        p = limit_map(sturmian, ap, sample)
        t2 = limit_map(sturmian, [2], sample)
        t9 = limit_map(sturmian, [9], sample)
        left = compose(compose(p, t2), t9)
        right = compose(p, compose(t2, t9))
        assert left.images == right.images

    def test_sample_mismatch(self, sturmian, sample):
        numeric = limit_map(
            sturmian, list(one_sided_approach(zero(GOLDEN), "below", 25).times)[-3:],
            sample, tolerance=1e-9,
        )
        t1 = limit_map(sturmian, [1], sample)
        # numeric element has no rule; composing it after a translation needs
        # off-sample images
        with pytest.raises(SampleMismatch):
            compose(numeric, t1)

    def test_exact_after_numeric(self, sturmian, sample):
        # the exact rule extends off-sample, so exact-after-numeric composes;
        # deep numeric stages agree with the all-exact composition up to the
        # approach error
        ap = one_sided_approach(zero(GOLDEN), "below", 25)
        numeric = limit_map(sturmian, list(ap.times)[-3:], sample, tolerance=1e-4)
        exact = limit_map(sturmian, ap, sample)
        t2 = limit_map(sturmian, [2], sample)
        mixed = compose(t2, numeric)
        assert mixed.backend == "numeric"
        pure = compose(t2, exact)
        agree = max(sample.metric(a, b) for a, b in zip(mixed.images, pure.images))
        assert agree <= float(ap.error_bounds[-3])


class TestDecompose:
    def test_sturmian_sides(self, sturmian, sample):
        for side, name in (("below", "minus"), ("above", "plus")):
            p = limit_map(sturmian, one_sided_approach(orbit_point(GOLDEN, 3), side, 8), sample)
            d = decompose_minimal(p)
            assert d.epsilon == name
            assert d.gamma == orbit_point(GOLDEN, 3)
            assert d.recompose(sturmian, sample) == p.images

    def test_translation_not_in_ideal(self, sturmian, sample):
        with pytest.raises(NotInIdeal):
            decompose_minimal(limit_map(sturmian, [4], sample))

    def test_cos_idempotent_trivial_group_part(self):
        cs = CosSystem(GOLDEN, horizon=6)
        s = cos_sample(cs, orbit_range=2, regular_denoms=())
        v = CosElement(0.25, zero(GOLDEN))
        el = limit_map_like(s, {x: v.apply(cs, x) for x in s.points})
        el.system = cs
        d = decompose_minimal(el, cs, gamma=zero(GOLDEN))
        assert d.epsilon == 0.25 and d.gamma == zero(GOLDEN)

    def test_cos_upper_region_gives_two(self):
        cs = CosSystem(GOLDEN, horizon=6)
        s = cos_sample(cs, orbit_range=2, regular_denoms=())
        ap = one_sided_approach(zero(GOLDEN), "below", 20)
        p = limit_map(cs, ap, s)
        d = decompose_minimal(p, cs)
        assert d.epsilon == 2.0
        assert d.recompose(cs, s) == p.images

    def test_cos_idempotent_law(self):
        cs = CosSystem(GOLDEN, horizon=6)
        s = cos_sample(cs, orbit_range=2, regular_denoms=(7,))
        for eps in (2.0, -1.0, 0.0, 0.5):
            for eta in (2.0, -0.25, 1.0):
                ve, vn = CosElement(eps, zero(GOLDEN)), CosElement(eta, zero(GOLDEN))
                through = [ve.apply(cs, vn.apply(cs, x)) for x in s.points]
                direct = [ve.apply(cs, x) for x in s.points]
                assert through == direct


class TestCosFiberSweep:
    def test_target_landing(self):
        cs = CosSystem(GOLDEN, horizon=6)
        pts = [CosFiber(k, v) for k in range(-2, 3) for v in (2.0, 0.0)]
        s = SampleSet(pts, lambda x, y: cs.metric(x, y))
        for t in (-1.0, 0.1, 1.0):
            times = cos_target_times(GOLDEN, t)
            p = limit_map(cs, times, s, tolerance=0.01, max_stages=5)
            got = cs.coordinate(p.image_of(CosFiber(0, 0.0)), 0)
            assert abs(got - t) < 0.01


class TestDeterminingSets:
    def test_rotation_family_single_point(self):
        pool = [point(GOLDEN, 0, Fraction(k, 11)) for k in range(11)]
        gammas = [point(GOLDEN, 0, Fraction(k, 7)) for k in range(7)]
        family = [lambda x, g=g: x + g for g in gammas]
        for p in family:
            res = determining_set(family, pool, p)
            assert res.optimal and len(res.points) == 1

    def test_single_element_family_empty(self):
        pool = [Fraction(k, 5) for k in range(5)]
        f = lambda x: x  # noqa: E731
        res = determining_set([f], pool, f)
        assert res.points == ()

    def test_discrete_family_linear_growth(self):
        # each member visible only at its own grid point
        pool = [Fraction(k, 12) for k in range(12)]

        def bump(z):
            return lambda x: Fraction(1, 2) if x == z else Fraction(0)

        zero_map = lambda x: Fraction(0)  # noqa: E731
        family = [bump(z) for z in pool] + [zero_map]
        res = determining_set(family, pool, zero_map)
        assert res.optimal and len(res.points) == 12
        growth = determining_growth(family[:-1], pool, zero_map, sizes=[3, 6, 9, 12])
        assert [n for _, n in growth] == [3, 6, 9, 12]

    def test_indistinguishable_rejected(self):
        pool = [Fraction(k, 5) for k in range(5)]
        f = lambda x: x  # noqa: E731
        g = lambda x: x  # noqa: E731
        with pytest.raises(ValueError):
            determining_set([f, g], pool, f)

    def test_greedy_beyond_limit(self):
        pool = [Fraction(k, 40) for k in range(40)]

        def bump(z):
            return lambda x: Fraction(1) if x == z else Fraction(0)

        zero_map = lambda x: Fraction(0)  # noqa: E731
        family = [bump(z) for z in pool] + [zero_map]
        res = determining_set(family, pool, zero_map, exhaustive_limit=10)
        assert not res.optimal
        assert len(res.points) == 40 and res.gap == 0  # disjoint supports: packing is tight


class TestBasisWitness:
    def test_projective_random_sets(self):
        rng = random.Random(4)
        for _ in range(20):
            pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(10)]
            pts = [p for p in pts if p != (0, 0)] or [(1, 1)]
            w = no_countable_basis_witness(pts, "projective_p_infty")
            assert w.sound
            assert all(w.witness.apply(c) == "inf" for c in w.agrees_on)
            assert w.witness.apply(w.differs_at) == w.differs_at

    def test_circle_empty_and_small(self):
        w = no_countable_basis_witness([], "circle_parabolic")
        assert w.sound
        w2 = no_countable_basis_witness([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)], "circle_parabolic")
        assert w2.sound
        assert w2.differs_at not in set(w2.agrees_on)
        assert w2.witness(w2.differs_at) == w2.differs_at != Fraction(0)
        assert all(w2.witness(c) == Fraction(0) for c in w2.agrees_on)

    def test_circle_random(self):
        rng = random.Random(17)
        for _ in range(20):
            cset = [Fraction(rng.randint(1, 97), 97) for _ in range(20)]
            w = no_countable_basis_witness(cset, "circle_parabolic")
            assert w.sound


class TestSorgenfrey:
    def test_flipped_diagonal_isolated(self):
        gammas = [point(GOLDEN, k, Fraction(k % 13, 13)) for k in range(40)]
        rep = sorgenfrey_isolation(flipped_diagonal(gammas))
        assert rep.all_isolated

    def test_singleton(self):
        rep = sorgenfrey_isolation(flipped_diagonal([point(GOLDEN, 1)]))
        assert rep.all_isolated

    def test_dense_single_circle_fails(self):
        members = [((point(GOLDEN, 0, Fraction(k, 60)), PLUS),) for k in range(60)]
        rep = sorgenfrey_isolation(members, eps=Fraction(1, 4))
        assert not rep.all_isolated
        assert not any(rep.isolated)
        j = rep.conflicts[0]
        assert j == 1  # the smallest other index inside [g0, g0 + 1/4)
        g0 = members[0][0][0]
        gj = members[j][0][0]
        assert (gj - g0).compare(CirclePoint(GOLDEN, 0, Fraction(1, 4))) < 0

    def test_members_exactly_eps_apart(self, monkeypatch):
        # k/8 with eps = 1/4: the member two steps away sits exactly at eps, outside
        quarter = Fraction(1, 4)
        calls = []
        compare = CirclePoint.compare
        monkeypatch.setattr(CirclePoint, "compare", lambda p, q: calls.append(1) or compare(p, q))
        for side, want in ((PLUS, [1, 2, 3, 4, 5, 6, 7, 0]), (MINUS, [7, 0, 1, 2, 3, 4, 5, 6])):
            members = [((point(GOLDEN, 0, Fraction(k, 8)), side),) for k in range(8)]
            calls.clear()
            rep = sorgenfrey_isolation(members, eps=quarter)
            assert not calls  # the ties share a = 0: integer cross products decide them
            assert list(rep.conflicts) == want
            assert rep == isolation_oracle(members, quarter)
        # a second coordinate with the opposite side leaves only equal k inside
        members = [((point(GOLDEN, 0, Fraction(k, 8)), PLUS), (point(GOLDEN, 1, Fraction(k, 8)), MINUS))
                   for k in range(8)]
        rep = sorgenfrey_isolation(members, eps=quarter)
        assert rep.all_isolated and rep == isolation_oracle(members, quarter)

    def test_equal_coefficient_ties_agree_with_compare(self):
        # exact ties, near-ties on both sides of eps and offsets across the 0/1
        # wrap, between members of one alpha-coefficient, for both member sides
        eps, tiny = Fraction(1, 4), Fraction(1, 1 << 50)
        bound = CirclePoint(GOLDEN, 0, eps)
        offsets = [d + e for d in (0, eps, 1 - eps) for e in (0, tiny, -tiny)]
        for a in (0, 7, -3):
            pts = [CirclePoint(GOLDEN, a, b + d) for b in (0, Fraction(1, 3), 1 - tiny)
                   for d in offsets]
            arr = PointArray.of(GOLDEN, pts)
            i, j = np.divmod(np.arange(len(pts) ** 2), len(pts))
            for sign in (1.0, -1.0):
                got = envelope._ties_inside(arr, i, j, np.full(len(i), sign), eps)
                want = [((h - g) if sign > 0 else (g - h)).compare(bound) < 0
                        for g, h in ((pts[x], pts[y]) for x, y in zip(i, j))]
                assert got == want and 0 < sum(got) < len(got)

    def test_equal_coefficient_near_ties_skip_compare(self, monkeypatch):
        # every offset of these members is within 2^-50 of eps or of the wrap
        quarter, tiny = Fraction(1, 4), Fraction(1, 1 << 50)
        coord = [CirclePoint(GOLDEN, 7, b) for b in
                 (0, quarter - tiny, quarter + tiny, 1 - tiny, Fraction(1, 2), quarter)]
        calls = []
        compare = CirclePoint.compare
        monkeypatch.setattr(CirclePoint, "compare", lambda p, q: calls.append(1) or compare(p, q))
        for side in (PLUS, MINUS):
            members = [((g, side),) for g in coord]
            calls.clear()
            rep = sorgenfrey_isolation(members, eps=quarter)
            assert not calls
            assert rep == isolation_oracle(members, quarter)

    def test_irrational_near_ties(self):
        # q*alpha - p for the convergents p/q of levels 57 and 58 is within
        # 1e-12 of 0, with opposite signs: offsets 1/4 + q*alpha - p straddle eps
        quarter = Fraction(1, 4)
        near = [CirclePoint(GOLDEN, GOLDEN.denominator(k), quarter - GOLDEN.numerator(k))
                for k in (57, 58)]
        gaps = [g.as_float() - 0.25 for g in near]
        assert all(0 < abs(d) < 1e-12 for d in gaps) and gaps[0] * gaps[1] < 0
        below = 1 + [d < 0 for d in gaps].index(True)
        for side in (PLUS, MINUS):
            members = [((zero(GOLDEN), side),)] + [((g if side == PLUS else -g, side),) for g in near]
            rep = sorgenfrey_isolation(members, eps=quarter)
            assert rep.conflicts[0] == below
            assert rep == isolation_oracle(members, quarter)

    def test_offset_whose_float_is_eps(self):
        # p/q just below 1/3 with q = 2^53 - 1 rounds to float(1/3): only the
        # exact compare puts member 1 inside the rectangle of member 0
        q = (1 << 53) - 1
        below = Fraction((q - 1) // 3, q)
        assert below < Fraction(1, 3) and float(below) == 1 / 3
        members = [((zero(GOLDEN), PLUS),), ((point(GOLDEN, 0, below), PLUS),)]
        rep = sorgenfrey_isolation(members, eps=Fraction(1, 3))
        assert rep.conflicts == (1, None)
        assert rep == isolation_oracle(members, Fraction(1, 3))

    def test_members_outside_the_array_range(self):
        far = point(GOLDEN, 1 << 40)
        for coord in ([point(GOLDEN, 1 << 41), zero(GOLDEN)],  # a member leaves |a| <= 2^40
                      [point(GOLDEN, 99999999999999999999), zero(GOLDEN)]):
            with pytest.raises(ValueError, match="point-array range"):
                sorgenfrey_isolation([((g, PLUS),) for g in coord])
        assert sorgenfrey_isolation([((far, PLUS),), ((zero(GOLDEN), PLUS),)]).all_isolated
        # offsets are never arrays: an offset with |a| > 2^40, or members whose common
        # denominator is 2^53 or more, are decided like any other
        for coord in ([far, point(GOLDEN, -(1 << 40))],
                      [point(GOLDEN, 0, Fraction(1, 3)), point(GOLDEN, 1, Fraction(1, 1 << 52))]):
            for side in (PLUS, MINUS):
                members = [((g, side),) for g in coord]
                rep = sorgenfrey_isolation(members)
                assert rep == isolation_oracle(members, Fraction(1, 4))

    def test_no_members(self):
        rep = sorgenfrey_isolation([])
        assert rep.all_isolated and rep.isolated == rep.conflicts == ()

    def test_duplicates_and_the_wrap(self):
        # values within 1e-22 of 0 whose positions are 2e-23 and -1.3e-23, and of 1
        # whose positions are 1.0: their float offsets come out as 0 or 1 either way
        up, down = -_hair(56), -_hair(57)
        assert 0 < up.as_float() < 1e-22 and -1e-22 < down.as_float() < 0
        assert (-up).as_float() == (-down).as_float() == 1.0
        eighth = CirclePoint(GOLDEN, 0, Fraction(1, 8))
        circle = [zero(GOLDEN), up, -up, down, -down, up, eighth, eighth + up, eighth - down,
                  -eighth, CirclePoint(GOLDEN, 0, Fraction(1, 16))]
        for eps in (Fraction(1, 7), Fraction(1, 4), Fraction(1, 2)):
            for side in (PLUS, MINUS):
                members = [((g, side),) for g in circle]
                rep = sorgenfrey_isolation(members, eps=eps)
                assert rep == isolation_oracle(members, eps)
            # offsets d and 1 - d are both below eps only for d = 0: each copy of up
            # is in the other's rectangle, and every other member is isolated
            members = [((g, PLUS), (g, MINUS)) for g in circle]
            rep = sorgenfrey_isolation(members, eps=eps)
            assert rep == isolation_oracle(members, eps)
            assert rep.conflicts == (None, 5, None, None, None, 1, None, None, None, None, None)

    def test_pair_block_below_one_window(self, monkeypatch):
        members = [((point(GOLDEN, 0, Fraction(k, 24)), side),) for k in range(24)
                   for side in (PLUS, MINUS)]
        want = isolation_oracle(members, Fraction(1, 4))
        monkeypatch.setattr(envelope, "_PAIR_BLOCK", 1)  # every window holds more candidates
        assert sorgenfrey_isolation(members) == want

    def test_builds_no_array_beyond_the_members(self, monkeypatch):
        # one point array per coordinate over the n members: none per pair of members
        n, rows = 200, []
        init = PointArray.__init__
        monkeypatch.setattr(PointArray, "__init__", lambda self, alpha, a, *rest: (
            rows.append(len(a)) or init(self, alpha, a, *rest)))
        members = [((point(GOLDEN, 0, Fraction(k, n)), PLUS),) for k in range(n)]
        rep = sorgenfrey_isolation(members)
        assert rows and max(rows) <= n
        assert rep.conflicts == tuple(k + 1 if k <= 150 else 0 for k in range(n))  # 0 past the wrap


def _hair(m):
    """(q_k alpha - p_k) / L_m with k = 2m - 1, within 1e-22 of 0 or 1 for m near 57:
    golden q_k = F_{k+1} = F_m L_m, and F_m = q_{m-1} and L_m = q_{m-2} + q_m stay
    in the point-array range."""
    q = GOLDEN.denominator
    return CirclePoint(GOLDEN, q(m - 1), Fraction(-GOLDEN.numerator(2 * m - 1), q(m - 2) + q(m)))


def isolation_oracle(members, eps):
    """All-pairs first-hit scan: j conflicts with i when every coordinate
    offset (gj - gi for side +1, gi - gj otherwise) is below eps."""
    isolated, conflicts = [], []
    for i, mi in enumerate(members):
        hit = None
        for j, mj in enumerate(members):
            if i != j and all(
                ((gj - gi) if si == PLUS else (gi - gj)).compare(CirclePoint(gi.alpha, 0, eps)) < 0
                for (gi, si), (gj, _sj) in zip(mi, mj)
            ):
                hit = j
                break
        isolated.append(hit is None)
        conflicts.append(hit)
    return IsolationReport(eps, tuple(isolated), tuple(conflicts), all(isolated))


# a*alpha + k/8: the a = 0 points (and equal-a pairs) sit exactly 1/4 or 1/2 apart
_GRID_POINTS = st.builds(
    lambda a, k: CirclePoint(GOLDEN, a, Fraction(k, 8)), st.integers(-2, 2), st.integers(0, 7)
)


@st.composite
def isolation_cases(draw):
    dim = draw(st.integers(1, 3))
    coord = st.tuples(_GRID_POINTS, st.sampled_from([PLUS, MINUS]))
    members = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
    members += draw(st.lists(st.sampled_from(members), max_size=3))  # duplicate members
    order = draw(st.permutations(range(len(members))))
    eps = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2)]))
    return [members[i] for i in order], eps


@settings(max_examples=150, deadline=None)
@given(case=isolation_cases())
def test_isolation_matches_all_pairs_oracle(case):
    members, eps = case
    want = isolation_oracle(members, eps)
    assert sorgenfrey_isolation(members, eps=eps) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_PAIR_BLOCK", 5)  # several blocks, down to one member row each
        assert sorgenfrey_isolation(members, eps=eps) == want


def word_oracle(system, horizon, pts):
    """The per-point walks CodingMetric.words must reproduce."""
    return np.array([system.coding_word(x, -horizon, horizon) for x in pts], dtype=np.uint8)


def batch_words(system, horizon, pts):
    positions = np.array([x.base.as_float() for x in pts])
    return CodingMetric(system, horizon).words(pts, positions)


# rational offsets off a cut: inside the exact-walk margin, at it, and beyond it
_CUT_OFFSETS = [Fraction(s, 10**p) for s in (-1, 1) for p in (11, 12, 13, 16)]


@st.composite
def word_cases(draw):
    horizon = draw(st.integers(1, 16))
    # on the rationals the arc end alpha is plain: plain orbit points land exactly on it
    system = SplitCircleSystem(GOLDEN, split=draw(st.sampled_from(["orbit", "rationals"])))
    cuts = [end.base.translate(-n) for end in system.arc for n in range(-horizon, horizon + 1)]
    fracs = st.tuples(st.integers(0, 29), st.integers(1, 30)).map(lambda t: Fraction(t[0] % t[1], t[1]))
    bases = [point(GOLDEN, 0, f) for f in draw(st.lists(fracs, min_size=1, max_size=12))]
    bases += [orbit_point(GOLDEN, n)
              for n in draw(st.lists(st.integers(-horizon - 2, horizon + 2), max_size=6))]
    bases += draw(st.lists(st.sampled_from(cuts), max_size=4))
    bases += [CirclePoint(GOLDEN, c.a, c.b + off) for c, off in draw(st.lists(
        st.tuples(st.sampled_from(cuts), st.sampled_from(_CUT_OFFSETS)), max_size=6))]
    pts = [x for b in bases for x in system.split_fiber(b)]  # both side tags on split bases
    order = draw(st.permutations(range(len(pts))))
    return system, horizon, [pts[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(case=word_cases())
def test_cell_words_match_per_point_walks(case):
    system, horizon, pts = case
    assert (batch_words(system, horizon, pts) == word_oracle(system, horizon, pts)).all()


def metric_oracle(system, horizon, x, y):
    """CodingMetric coordinate by coordinate: the larger of the base arc
    distance (0 on equal bases) and 2^-|i-h| at the differing coordinate
    nearest the centre."""
    d = abs(x.base.as_float() - y.base.as_float())
    best = min(d, 1.0 - d) if x.base != y.base else 0.0
    offsets = [abs(n) for n in range(-horizon, horizon + 1)
               if system.symbol(x.translate(n)) != system.symbol(y.translate(n))]
    return max(best, 2.0 ** -min(offsets)) if offsets else best


_METRIC_SYSTEM = SplitCircleSystem(GOLDEN)
_METRIC_POINTS = split_sample(_METRIC_SYSTEM, plain_count=12, split_range=3).points
_SPLIT_PAIRS = [(_METRIC_SYSTEM.orbit_pt(n, MINUS), _METRIC_SYSTEM.orbit_pt(n, PLUS))
                for n in range(-3, 4)]


@settings(max_examples=150, deadline=None)
@given(
    pair=st.one_of(st.tuples(st.sampled_from(_METRIC_POINTS), st.sampled_from(_METRIC_POINTS)),
                   st.sampled_from(_SPLIT_PAIRS)),
    horizon=st.integers(0, 8),
)
def test_coding_metric_matches_per_coordinate_formula(pair, horizon):
    x, y = pair
    metric = CodingMetric(_METRIC_SYSTEM, horizon)
    want = metric_oracle(_METRIC_SYSTEM, horizon, x, y)
    assert metric(x, y) == want == metric(y, x)


class TestCodingMetricWords:
    def test_walks_once_per_cell(self, sturmian):
        s = split_sample(sturmian, plain_count=500, split_range=4, horizon=6)
        metric = s.metric
        words = metric.words(s.points, np.array([x.base.as_float() for x in s.points]))
        assert (words == word_oracle(sturmian, 6, s.points)).all()
        # 14 distinct cuts give 14 cells, plus the 18 split points on a cut
        assert len(metric._words) <= 14 + 18
        assert len({tuple(w) for w in words}) == 2 * 6 + 2  # p(L) = L + 1 words, L = 13

    def test_empty_window_rejected(self, sturmian):
        with pytest.raises(ValueError, match="empty coding window"):
            CodingMetric(sturmian, -1).words([sturmian.orbit_pt(0, PLUS)], np.zeros(1))


class TestRigidity:
    def test_split_path_matches_generic_metric(self, sturmian):
        # point by point, so no offset's weight hides behind another point's
        s = split_sample(sturmian, plain_count=12, split_range=2, horizon=5)
        times = np.arange(1, 301)
        for x in s.points:
            fast = _split_rigidity(sturmian, SampleSet([x], s.metric), times, 5)
            assert fast.shape == times.shape
            for n, d in zip(times.tolist(), fast.tolist()):
                assert abs(d - s.metric(sturmian.step(x, n), x)) <= 1e-12

    def test_split_blocks_match_generic_metric(self, sturmian):
        # 70 points fill one 64-point code block and part of a second
        s = split_sample(sturmian, plain_count=60, split_range=2, horizon=4)
        assert len(s) > 64
        times = list(range(1, 121)) + [7, 90, 1, 33]
        random.Random(4).shuffle(times)
        rep = rigidity_probe(sturmian, s, times)
        assert rep.times.tolist() == list(range(1, 121))
        assert rep.distances.shape == rep.times.shape
        for n, d in zip(rep.times.tolist(), rep.distances.tolist()):
            assert abs(d - max(s.metric(sturmian.step(x, n), x) for x in s.points)) <= 1e-12
        k = int(np.argmin(rep.distances))
        assert rep.minimum == (k + 1, rep.distances[k])

    def test_ties_go_to_the_smallest_time(self, sturmian):
        # the split pair over 0 keeps every distance at the floor 1
        s = SampleSet([sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS)],
                      envelope.CodingMetric(sturmian, 4))
        split = rigidity_probe(sturmian, s, [9, 4, 7, 4, 12])
        assert split.distances.tolist() == [1.0] * 4 and split.minimum == (4, 1.0)
        generic = rigidity_probe(sturmian, s, [9, -3, 4, -8, 4])
        assert generic.times.tolist() == [-8, -3, 4, 9]
        assert generic.distances.tolist() == [1.0] * 4 and generic.minimum == (-8, 1.0)

    def test_negative_times_take_the_generic_path(self, sturmian):
        s = split_sample(sturmian, plain_count=6, split_range=1, horizon=3)
        rep = rigidity_probe(sturmian, s, [-7, 5])
        assert rep.times.tolist() == [-7, 5]
        for n, d in zip((-7, 5), rep.distances.tolist()):
            assert d == max(s.metric(sturmian.step(x, n), x) for x in s.points)

    def test_rotation_ladder_decreases(self):
        rot = RotationSystem(SQRT2_MINUS_1)
        rs = rotation_sample(rot, 10)
        times = [SQRT2_MINUS_1.denominator(k) for k in range(1, 26)]
        rep = rigidity_probe(rot, rs, times)
        assert rep.minimum[1] < 1e-6
        assert rep.times.tolist() == times
        floats = rep.distances.tolist()
        assert all(b < a for a, b in zip(floats, floats[1:]))

    def test_times_past_int64_stay_python_ints(self):
        # deep convergent denominators overflow int64: they must sort and
        # deduplicate exactly, as Python ints
        rot = RotationSystem(SQRT2_MINUS_1)
        rs = rotation_sample(rot, 6)
        times = [SQRT2_MINUS_1.denominator(k) for k in range(40, 61)]
        assert times[-1] > 2**63
        shuffled = times + [0, times[3], times[-1]]
        random.Random(5).shuffle(shuffled)
        rep = rigidity_probe(rot, rs, shuffled)
        assert rep.times.tolist() == times
        assert type(rep.minimum[0]) is int and rep.minimum[0] in times

    def test_rotation_convergent_bound(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 10)
        for k in (5, 10, 15):
            q = GOLDEN.denominator(k)
            rep = rigidity_probe(rot, rs, [q])
            assert rep.distances[0] <= 1.0 / GOLDEN.denominator(k + 1) + 1e-12

    def test_sturmian_floor(self, sturmian):
        s = SampleSet(
            [sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS)],
            __import__("tamecert.envelope", fromlist=["CodingMetric"]).CodingMetric(sturmian, 6),
        )
        rep = rigidity_probe(sturmian, s, range(1, 2001))
        gap = s.metric(sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS))
        assert rep.minimum[1] >= gap == 1.0

    def test_zero_time_excluded(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 10)
        with pytest.raises(ValueError):
            rigidity_probe(rot, rs, [0])
        rep = rigidity_probe(rot, rs, [0, 1])  # zero filtered, one kept
        assert rep.times.tolist() == [1]


class TestCosSampleMetric:
    def test_axioms(self):
        cs = CosSystem(GOLDEN, horizon=5)
        s = cos_sample(cs, orbit_range=2, regular_denoms=(7,))
        assert check_metric_axioms(s, trials=25)
