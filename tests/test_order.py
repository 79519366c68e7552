import math
import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecert.order import (
    MINUS,
    PLAIN,
    PLUS,
    BumpMap,
    MonotoneStepMap,
    OrderedDomain,
    Piece,
    circular_counterexample,
    discrete_family,
    helly_determining_set,
    identity_map,
    parse_step_map,
    singular_points,
    staircase,
    zero_map,
)

F = Fraction


def random_staircase(rng, jumps=3):
    xs = sorted(rng.sample([F(k, 64) for k in range(1, 64)], jumps))
    levels = sorted(rng.sample([F(k, 16) for k in range(17)], 2 * jumps + 1))
    rows = []
    for i, x in enumerate(xs):
        lo, hi = levels[2 * i], levels[2 * i + 2]
        rows.append((x, lo, levels[2 * i + 1], hi))
    return staircase(rows)


class TestMonotoneStepMap:
    def test_identity_limits(self):
        f = identity_map()
        assert f.one_sided_limits(F(1, 2)) == (F(1, 2), F(1, 2))
        assert f.discontinuities() == ()

    def test_heaviside_limits(self):
        f = staircase([(F(1, 2), F(0), F(1, 2), F(1))])
        assert f.one_sided_limits(F(1, 2)) == (F(0), F(1))
        assert f(F(1, 2)) == F(1, 2)
        assert f(F(1, 4)) == F(0) and f(F(3, 4)) == F(1)

    def test_sandwich_enforced_at_construction(self):
        # the bump family member (0, 1/2, 0) is not monotone
        with pytest.raises(ValueError):
            staircase([(F(1, 2), F(0), F(1, 2), F(0))])

    def test_sandwich_holds_on_random_staircases(self):
        rng = random.Random(1)
        for _ in range(25):
            f = random_staircase(rng)
            for bp in f.breakpoints:
                l, r = f.one_sided_limits(bp)
                assert l <= f(bp) <= r

    def test_staircase_jump_count(self):
        f = staircase([(F(1, 3), F(0), F(0), F(1, 4)), (F(2, 3), F(1, 4), F(1, 2), F(1, 2))])
        assert f.discontinuities() == (F(1, 3), F(2, 3))

    def test_split_domain_discontinuities_within_splits(self):
        # a map jumping only at the declared split point: its discontinuity
        # set sits inside the domain's singular points
        dom = OrderedDomain.interval(splits=[F(1, 2)], sample_level=4)
        f = staircase([(F(1, 2), F(0), F(1, 2), F(1))])
        split_bases = {x for x, _ in singular_points(dom)}
        assert set(f.discontinuities()) <= split_bases

    def test_decreasing_direction(self):
        f = MonotoneStepMap(
            [F(1, 2)], [(F(3, 4), F(1, 2), F(1, 4))],
            pieces=[Piece("const", value=F(3, 4)), Piece("const", value=F(1, 4))],
            direction="decreasing",
        )
        assert f(F(1, 4)) == F(3, 4) and f(F(3, 4)) == F(1, 4)

    def test_parse_literals(self):
        f = parse_step_map("(1/3; 0,1/4,1/4) (2/3; 1/4,1/2,3/4)")
        assert f.breakpoints == (F(1, 3), F(2, 3))
        assert f(F(2, 3)) == F(1, 2)
        with pytest.raises(ValueError):
            parse_step_map("nothing here")


class TestSingularPoints:
    def test_plain_interval_empty(self):
        assert singular_points(OrderedDomain.interval()) == []

    def test_split_gives_both_sides(self):
        dom = OrderedDomain.interval(splits=[F(1, 2)])
        assert singular_points(dom) == [(F(1, 2), MINUS), (F(1, 2), PLUS)]

    def test_finite_chain_all_singular(self):
        dom = OrderedDomain.finite([F(k, 5) for k in range(5)])
        assert len(singular_points(dom)) == 5


class TestHellyDeterminingSet:
    def test_identity_c_equals_sample(self):
        dom = OrderedDomain.interval(sample_level=5)
        res = helly_determining_set(identity_map(), dom, adversaries=10)
        assert {x for x, _ in res.points} == set(dom.sample)

    def test_staircase_contains_jumps_and_defeats_adversaries(self):
        dom = OrderedDomain.interval(sample_level=5)
        f = staircase([(F(1, 3), F(0), F(0), F(1, 4)), (F(2, 3), F(1, 4), F(1, 2), F(1, 2))])
        res = helly_determining_set(f, dom, adversaries=100)
        xs = {x for x, _ in res.points}
        assert {F(1, 3), F(2, 3)} <= xs
        assert res.sound

    def test_twenty_random_staircases_defeat_adversaries(self):
        rng = random.Random(7)
        dom = OrderedDomain.interval(sample_level=5)
        for _ in range(20):
            f = random_staircase(rng)
            res = helly_determining_set(f, dom, adversaries=50)
            assert res.sound

    def test_split_domain_includes_both_sides(self):
        dom = OrderedDomain.interval(splits=[F(1, 2)], sample_level=4)
        f = staircase([(F(1, 2), F(0), F(1, 2), F(1))])
        res = helly_determining_set(f, dom, adversaries=20)
        assert (F(1, 2), MINUS) in res.points and (F(1, 2), PLUS) in res.points

    def test_dropping_a_jump_breaks_determination(self):
        # adversarial check must notice when the set misses a discontinuity
        from tamecert.order import _defeat_adversaries

        f = staircase([(F(1, 3), F(0), F(0), F(1))])
        cset = [(F(k, 8), PLAIN) for k in range(9) if F(k, 8) != F(1, 3)]
        assert not _defeat_adversaries(f, sorted(cset))


    def test_count_is_zero_when_unsound(self, monkeypatch):
        import tamecert.order as order_mod

        dom = OrderedDomain.interval(sample_level=3)
        f = staircase([(F(1, 3), F(0), F(0), F(1))])
        assert helly_determining_set(f, dom, adversaries=30).adversaries_defeated == 30
        monkeypatch.setattr(order_mod, "_defeat_adversaries", lambda f, cset: False)
        res = helly_determining_set(f, dom, adversaries=30)
        assert not res.sound and res.adversaries_defeated == 0

    def test_extremal_interpolants_catch_a_forced_value(self):
        # pins 0 and 1/8 both read 0, so every monotone interpolant is 0 at
        # the probe 1/257; a stub reading 1/2 there (continuously) is caught
        from tamecert.order import _defeat_adversaries

        f = PointValues({F(1, 257): F(1, 2)})
        cset = [(F(k, 8), PLAIN) for k in range(9)]
        assert not _defeat_adversaries(f, cset)
        assert _defeat_adversaries(PointValues({}), cset)

    def test_extremal_interpolants_follow_a_decreasing_direction(self):
        # pins k/8 read 1/2 below 1/2 and 0 from 1/2 on; every decreasing
        # interpolant is 1/2 between the pins 0 and 1/8, so a stub dipping to
        # 0 at the probe 1/257 is caught (the increasing bounds there, max 1/2
        # and min 0, leave a corridor and would let it pass)
        from tamecert.order import _defeat_adversaries

        cset = [(F(k, 8), PLAIN) for k in range(9)]
        high = {F(k, 257): F(1, 2) for k in range(129)} | {F(k, 8): F(1, 2) for k in range(4)}
        assert _defeat_adversaries(PointValues(high, "decreasing"), cset)
        dip = PointValues(high | {F(1, 257): F(0)}, "decreasing")
        assert not _defeat_adversaries(dip, cset)

    def test_decreasing_step_map_is_determined(self):
        from tamecert.order import _defeat_adversaries

        f = MonotoneStepMap(
            [F(1, 3)], [(F(3, 4), F(1, 2), F(1, 4))],
            pieces=[Piece("const", value=F(3, 4)), Piece("const", value=F(1, 4))],
            direction="decreasing",
        )
        dom = OrderedDomain.interval(sample_level=4)
        assert helly_determining_set(f, dom, adversaries=20).sound
        cset = [(F(k, 8), PLAIN) for k in range(9)]
        assert not _defeat_adversaries(f, cset)  # the jump at 1/3 is unpinned

    def test_extremal_check_matches_corridor_scan(self):
        from tamecert.order import _defeat_adversaries

        rng = random.Random(11)
        levels = [F(0), F(1, 2), F(1)]
        grid = [F(k, 16) for k in range(17)]
        for _ in range(100):
            pins = sorted(
                (x, s) for x in rng.sample(grid, rng.randint(0, 8))
                for s in rng.choice([(PLAIN,), (MINUS, PLUS), (MINUS, PLAIN, PLUS)])
            )
            probes = [F(k, 257) for k in range(258)]
            f = PointValues({x: rng.choice(levels) for x in grid + probes})
            assert _defeat_adversaries(f, pins) == corridor_scan(f, pins)


class PointValues:
    """Continuous stand-in with arbitrary (non-monotone) values, 0 by default."""

    breakpoints = ()

    def __init__(self, values, direction="increasing"):
        self.values = values
        self.direction = direction

    def __call__(self, x):
        return self.values.get(x, F(0))

    def one_sided_limits(self, x):
        return self(x), self(x)

    def side_value(self, x, side):
        return self(x)


def corridor_scan(f, cset):
    """Brute-force reference: at each unpinned probe, scan every pin for the
    corridor [max of values at or below, min of values at or above]."""
    pinned = sorted((x, s, f.side_value(x, s)) for x, s in cset)
    plain = {x for x, s, _ in pinned if s == PLAIN}
    for p in sorted({F(k, 257) for k in range(258)} | set(f.breakpoints)):
        if p in plain:
            continue
        left, right = f.one_sided_limits(p)
        if left != right or left != f(p):
            return False
        lo = max((v for x, s, v in pinned if (x, s) <= (p, PLAIN)), default=F(0))
        hi = min((v for x, s, v in pinned if (x, s) >= (p, PLAIN)), default=F(1))
        if lo == hi and f(p) != lo:
            return False
    return True


class TestDiscreteFamily:
    def test_bumps_not_monotone(self):
        fam = discrete_family([F(1, 4), F(1, 2)])
        assert fam[0](F(1, 4)) == F(1, 2) and fam[0](F(1, 2)) == F(0)

    def test_determining_growth_is_linear(self):
        from tamecert.envelope import determining_set

        for m in (5, 9, 13):
            grid = [F(k, m) for k in range(m)]
            bumps = discrete_family(grid)
            fam = bumps + [zero_map]
            res = determining_set(fam, grid, zero_map)
            assert res.optimal if m <= 20 else True
            assert len(res.points) == m
            # a member of the family needs everything except its own point
            res2 = determining_set(bumps, [g for g in grid if g != grid[0]], bumps[0])
            assert len(res2.points) == m - 1


def _numerators(cset):
    """The rationals of ``cset`` as numerators over the lcm of their denominators."""
    den = math.lcm(*(F(c).denominator for c in cset))
    return [F(c).numerator * (den // F(c).denominator) for c in cset], den


def fresh_dyadic(avoid):
    # the target 0 is no dyadic of (0, 1): b is the first dyadic outside ``avoid``
    return circular_counterexample(*_numerators(avoid), F(0)).b


class TestCircularCounterexample:
    def test_explicit_set(self):
        out = circular_counterexample([1, 2, 3], 4, F(0))
        assert out.sound
        assert out.agrees_on == (F(1, 4), F(1, 2), F(3, 4))
        assert out.b not in set(out.agrees_on) | {F(0)}
        assert out.image_of(out.b) == out.b
        assert all(out.image_of(c) == F(0) for c in out.agrees_on)

    def test_empty_set(self):
        out = circular_counterexample([], 1, F(0))
        assert out.sound and out.b != F(0)

    def test_random_sets_first_pass(self):
        rng = random.Random(23)
        for _ in range(20):
            out = circular_counterexample([rng.randint(1, 96) for _ in range(20)], 97, F(0))
            assert out.sound

    def test_target_in_set_is_sound(self):
        from tamecert.envelope import no_countable_basis_witness

        # 997/997 is 0 mod 1: the map still agrees with the constant 0 there
        for cset in ([F(0)], [F(1)], [F(1, 2), F(997, 997), F(1, 4)]):
            out = circular_counterexample(*_numerators(cset), F(0))
            assert out.sound and F(0) in out.agrees_on and out.image_of(F(0)) == F(0)
            assert out.b not in out.agrees_on and out.image_of(out.b) == out.b
            w = no_countable_basis_witness(cset, "circle_parabolic")
            assert w.sound and w.differs_at == out.b and w.agrees_on == out.agrees_on

    def test_fresh_dyadic_by_level_then_numerator(self):
        from tamecert.envelope import no_countable_basis_witness

        assert fresh_dyadic(set()) == F(1, 2)
        assert fresh_dyadic({F(1, 2), F(1, 4)}) == F(3, 4)
        assert fresh_dyadic({F(1, 2), F(1, 4), F(3, 4)}) == F(1, 8)
        cset = [F(1, 4), F(1, 2), F(5, 8)]
        assert circular_counterexample(*_numerators(cset), F(0)).b == F(3, 4)
        assert no_countable_basis_witness(cset, "circle_parabolic").differs_at == F(3, 4)

    def test_fresh_dyadic_past_a_full_grid(self):
        # every dyadic up to level 4 is excluded: the first odd numerator of level 5
        full = {F(num, 2**level) for level in range(1, 5) for num in range(1, 2**level, 2)}
        assert len(full) == 15
        assert fresh_dyadic(full) == F(1, 32)
        assert fresh_dyadic(full | {F(1, 32), F(3, 32)}) == F(5, 32)

    @settings(max_examples=200, deadline=None)
    @given(
        cset=st.lists(st.one_of(
            st.sampled_from([F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(5, 4), F(-1, 2), F(1), F(7, 3)]),
            st.fractions(min_value=-2, max_value=2, max_denominator=24)), max_size=12),
        a=st.sampled_from([F(0), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(1, 3), F(-3, 4), F(5, 2)]),
        with_target=st.booleans(),
    )
    def test_integer_witness_matches_fraction_search(self, cset, a, with_target):
        # the reference: reduce every point as a Fraction and walk the dyadics
        cset = cset + [a] if with_target else cset
        points = {c % 1 for c in cset}
        expected = next(F(num, 2**level) for level in count(1) for num in range(1, 2**level, 2)
                        if F(num, 2**level) not in points | {a % 1})
        out = circular_counterexample(*_numerators(cset), a)
        assert out.b == expected and out.a == a % 1 and out.sound
        assert out.agrees_on == tuple(sorted(points))
